"""Seeded simulation of d-dimensional Gaussian processes on grids, lifted to
the step-3 group, with the Monte Carlo verification battery: level-2
L2 identity, moment envelopes, dyadic convergence rates, perturbation
continuity, Fernique tails with chaos scaling, the Young-Wiener isometry,
and the fractional-to-Brownian weak limit.

Randomness: normals for sample i, component c come from a Philox stream with
key = [seed, 0] and counter = [0, stream, i, c].  Samples are assembled in
fixed chunks of rows, which keeps the shapes of the Gram-factor products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cameron_martin import pvar_1d
from .covariance import (
    CovarianceKernel,
    ProcessSpec,
    bm_cov,
    fbm_cov,
    gram_matrix,
    square_variation,
)
from .path_lift import (
    PiecewisePath,
    _chen_prefixes,
    _take,
    holder_dist,
    lift_s3,
    pvar_dist,
    pvar_norm,
    refine_path,
    restrict_to,
)
from .regularity import CHAOS_QS
from .tensor_algebra import (
    GroupElement,
    TruncatedTensor,
    hall_log_signature,
)
from .variation_2d import (
    _check_exponent,
    _check_times,
    _from_corner,
    young_constant,
    young_integral_2d,
)

__all__ = [
    "MCEstimate",
    "sample",
    "lift_endpoint",
    "level2_variance_check",
    "level_bounds_check",
    "dyadic_convergence",
    "perturbation_continuity",
    "fernique_tail",
    "young_wiener_check",
    "weak_limit_fbm",
]

# fixed chunk keeps the BLAS shapes perfbench/reference was recorded with
CHUNK = 256


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    n: int
    seed: int

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "n": self.n,
                "seed": self.seed}


def _check_samples(n: int, what: str):
    # one sample has no spread: its standard error would read 0
    if n < 2:
        raise ValueError(f"{what} needs at least two samples, got {n}")


def mc_mean(values, seed: int) -> MCEstimate:
    """Fixed-order compensated mean."""
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    _check_samples(n, "a Monte Carlo mean")
    mean = math.fsum(v) / n
    var = math.fsum((v - mean) ** 2) / (n - 1)
    return MCEstimate(mean, math.sqrt(var / n), n, seed)


def _l2_rung(dist, seed: int):
    """L2 mean sqrt(E dist^2) of one ladder rung and its delta-method
    standard error."""
    est = mc_mean(np.asarray(dist) ** 2, seed)
    mean = math.sqrt(est.value)
    return mean, est.stderr / (2.0 * mean) if est.value > 0 else 0.0


def _factor(kernel: CovarianceKernel, grid: np.ndarray) -> np.ndarray:
    """Symmetric eigenvalue square root with clipping at zero.  Aborts when
    the clipped mass exceeds 1e-8 of the total eigenvalue mass sum |w|, so
    a kernel with non-positive variance fails and the zero kernel passes."""
    w, U = np.linalg.eigh(gram_matrix(kernel, grid))
    clipped = -float(np.sum(w[w < 0.0]))
    mass = float(np.sum(np.abs(w)))
    if clipped > 1e-8 * mass:
        raise ValueError(
            f"Gram matrix for {kernel.name} is indefinite beyond tolerance "
            f"(clipped {clipped:.3e} vs eigenvalue mass {mass:.3e})"
        )
    return U * np.sqrt(np.clip(w, 0.0, None))


def sample(spec: ProcessSpec, grid, n: int, seed: int,
           stream: int = 0) -> PiecewisePath:
    """n independent paths of the d-component process on the grid, as one
    path with points of shape (n, |grid|, d).

    Components are independent; component c is the Gram factor applied to
    that component's substream normals.  Deterministic in (seed, stream).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    grid = np.asarray(grid, dtype=float)
    _check_times(grid)
    m = grid.size
    d = spec.dim
    factors = tuple(_factor(k, grid) for k in spec.kernels)
    out = np.empty((n, m, d))
    # one generator: a fresh Philox state (empty buffer, no cached uint32)
    # with its counter set to [0, stream, i, c] is the state of
    # Philox(key, counter), so resetting it replaces a construction per row
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        for c in range(d):
            Z = np.empty((hi - lo, m))
            for i in range(lo, hi):
                state["state"]["counter"][:] = (0, stream, i, c)
                bits.state = state
                gen.standard_normal(out=Z[i - lo])
            out[lo:hi, :, c] = Z @ factors[c].T
    return PiecewisePath(grid, out)


def lift_endpoint(increments: np.ndarray):
    """Chen product of segment exponentials keeping only the final value;
    memory stays O(batch) instead of O(batch * grid)."""
    for cur in _chen_prefixes(increments):
        pass
    return TruncatedTensor(np.shape(increments)[-1], *cur)


# ---------------------------------------------------------------------------
# Monte Carlo checks


def level2_variance_check(spec: ProcessSpec, interval=(0.0, 1.0),
                          n: int = 10_000, seed: int = 0, grid_level: int = 8,
                          band: float = 0.01) -> dict:
    """E|X^{1,2}_{s,t}|^2 by Monte Carlo on the dyadic grid against the 2D
    Young integral of R_1 against R_2 over [s,t]^2; s and t must be grid
    points."""
    if spec.dim < 2:
        raise ValueError("the level-2 check needs two components")
    if band < 0.0:
        raise ValueError(f"band must be >= 0, got {band}")
    if len(interval) != 2:
        raise ValueError("interval must be two numbers [s, t]")
    s, t = float(interval[0]), float(interval[1])
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("interval must satisfy 0 <= s <= t <= 1")
    grid = np.linspace(0.0, 1.0, 2 ** grid_level + 1)
    a = int(round(s * (grid.size - 1)))
    b = int(round(t * (grid.size - 1)))
    if grid[a] != s or grid[b] != t:
        raise ValueError("interval endpoints must be grid points")
    if a == b:
        zero = MCEstimate(0.0, 0.0, n, seed)
        return {"mc": zero.to_dict(), "young_value": 0.0,
                "young_converged": True, "band": band, "tolerance": band,
                "gap": 0.0, "ok": True, "grid_level": grid_level,
                "components": [0, 1], "interval": [s, t]}
    ens = sample(spec, grid, n, seed)
    end = lift_endpoint(np.diff(ens.points[:, a : b + 1, :2], axis=-2))
    est = mc_mean(end.level2[0, 1] ** 2, seed)

    base = np.linspace(s, t, 2 ** min(grid_level, 6) + 1)
    ki, kj = spec.kernels[:2]

    # integrand is the covariance of increments from s,
    # R_1(u,v) - R_1(s,u) - R_1(s,v) + R_1(s,s); for processes started at
    # zero with s = 0 this is plain R_1
    young = young_integral_2d(_from_corner(ki.grid_eval, s, s), kj.grid_eval,
                              base, base, levels=3)
    tol = 3.0 * est.stderr + band
    return {
        "mc": est.to_dict(),
        "young_value": young.value,
        "young_converged": young.converged,
        "band": band,
        "tolerance": tol,
        "gap": abs(est.value - young.value),
        "ok": bool(abs(est.value - young.value) <= tol),
        "grid_level": grid_level,
        "components": [0, 1],
        "interval": [s, t],
    }


def level_bounds_check(spec: ProcessSpec, rho: float | None = None,
                       n: int = 2_000, seed: int = 0, grid_level: int = 6) -> dict:
    """Second moments of signature words (i), (i,j), (i,i,j), (i,j,k) over
    the nested dyadic intervals [0, 2^-k], k = 1..4, against
    omega([s,t]^2)^{level/rho} envelopes, omega sampled with 12 intervals
    per side; reports the smallest admissible constant per word and the
    fitted log2 slope of the moment in the interval size."""
    if spec.dim < 3:
        raise ValueError("need three components for the distinct-index words")
    k0 = spec.kernels[0]
    if any(k.key != k0.key for k in spec.kernels):
        raise ValueError("envelope assumes identical components")
    if grid_level < 4:
        raise ValueError(f"interval levels 1..4 must lie in 0..grid_level={grid_level}")
    rho = float(spec.rho if rho is None else rho)
    grid = np.linspace(0.0, 1.0, 2 ** grid_level + 1)
    ens = sample(spec, grid, n, seed)
    words = [(0,), (0, 1), (0, 0, 1), (0, 1, 2)]
    rows = {w: [] for w in words}
    omegas = []
    sizes = []
    for lev in (1, 2, 3, 4):
        t = 2.0 ** (-lev)
        idx = int(round(t * (grid.size - 1)))
        end = lift_endpoint(np.diff(ens.points[:, : idx + 1], axis=-2))
        omega = square_variation(k0, 0.0, t, 12, rho) ** rho
        omegas.append(omega)
        sizes.append(t)
        for w in words:
            z = end.levels()[len(w)][w]
            rows[w].append(mc_mean(z ** 2, seed))
    report = {"rho": rho, "sizes": sizes, "omegas": omegas, "words": {},
              "n": n, "seed": seed, "grid_level": grid_level}
    for w in words:
        lvl = len(w)
        moments = [e.value for e in rows[w]]
        consts = [mo / om ** (lvl / rho) for mo, om in zip(moments, omegas)]
        slope = float(np.polyfit(np.log2(sizes), np.log2(moments), 1)[0])
        report["words"]["".join(str(a + 1) for a in w)] = {
            "level": lvl,
            "moments": [e.to_dict() for e in rows[w]],
            "envelope_constants": consts,
            "smallest_C": max(consts),
            "log2_slope": slope,
        }
    return report


def dyadic_convergence(spec: ProcessSpec, p: float, levels=(3, 4, 5, 6, 7),
                       n: int = 200, seed: int = 0) -> dict:
    """Holder-distance decay of dyadic piecewise-linear lifts to the lift on
    the next-finer reference grid, with common random numbers.

    Reference level is max(levels) + 1; for each level the samples are
    restricted to the coarse dyadic grid, linearly refilled onto the
    reference grid, lifted, and compared in d_{1/p-Hol}.  Reports per-level
    L2 means and the fitted log2 slope (negative means geometric decay).
    """
    if not (isinstance(levels, (list, tuple))
            and all(isinstance(v, (int, np.integer)) for v in levels)):
        raise ValueError("levels must be a list of integers")
    _check_exponent(p, "p")
    levels = sorted(int(v) for v in levels)
    if levels[0] < 0:
        raise ValueError(f"levels must be >= 0, got {levels[0]}")
    if len(set(levels)) < 2:
        raise ValueError("the slope fit needs at least two distinct levels")
    _check_samples(n, "dyadic convergence")
    ref_level = levels[-1] + 1
    grid = np.linspace(0.0, 1.0, 2 ** ref_level + 1)
    ens = sample(spec, grid, n, seed)
    ref = lift_s3(ens)
    alpha = 1.0 / p
    means = []
    errs = []
    for lev in levels:
        D = grid[:: 2 ** (ref_level - lev)]
        lifted = lift_s3(refine_path(restrict_to(ens, D), grid))
        mean, err = _l2_rung(holder_dist(lifted, ref, alpha), seed)
        means.append(mean)
        errs.append(err)
    slope = float(np.polyfit(levels, np.log2(means), 1)[0])
    return {
        "p": p,
        "levels": levels,
        "reference_level": ref_level,
        "l2_means": means,
        "l2_stderrs": errs,
        "log2_slope": slope,
        "ok": bool(slope < 0.0),
        "n": n,
        "seed": seed,
    }


def perturbation_continuity(spec: ProcessSpec, epsilons=(0.2, 0.1, 0.05),
                            p: float = 2.5, n: int = 400, seed: int = 0,
                            grid_level: int = 6) -> dict:
    """L2 size of d_{p-var}(lift(X), lift(X + eps W)) along an epsilon ladder,
    W an independent copy coupled across the ladder; fits the exponent of the
    mean against |R_{X-Y}|_inf = eps^2 |R_W|_inf."""
    if sum(e > 0.0 for e in epsilons) < 2:
        raise ValueError("the epsilon ladder needs at least two positive rungs")
    _check_samples(n, "perturbation continuity")
    grid = np.linspace(0.0, 1.0, 2 ** grid_level + 1)
    ens_x = sample(spec, grid, n, seed, stream=0)
    ens_w = sample(spec, grid, n, seed, stream=1)
    lift_x = lift_s3(ens_x)
    rw_inf = max(float(np.max(np.abs(gram_matrix(k, grid)))) for k in spec.kernels)
    means = []
    errs = []
    for eps in epsilons:
        pert = PiecewisePath(grid, ens_x.points + eps * ens_w.points)
        mean, err = _l2_rung(pvar_dist(lift_s3(pert), lift_x, p), seed)
        means.append(mean)
        errs.append(err)
    gaps = [e * e * rw_inf for e in epsilons]
    usable = [(g, m) for g, m in zip(gaps, means) if g > 0.0 and m > 0.0]
    if len(usable) >= 2:
        lg, lm = np.log([u[0] for u in usable]), np.log([u[1] for u in usable])
        theta = float(np.polyfit(lg, lm, 1)[0])
    else:
        theta = float("nan")
    decreasing = all(a > b for a, b in zip(means[:-1], means[1:]))
    return {
        "p": p,
        "epsilons": list(epsilons),
        "l2_means": means,
        "l2_stderrs": errs,
        "cov_gaps": gaps,
        "theta_hat": theta,
        "strictly_decreasing": bool(decreasing),
        "ok": bool(decreasing and theta > 0.0),
        "n": n,
        "seed": seed,
        "grid_level": grid_level,
    }


def _chaos_ratios(end, seed: int) -> list:
    """Empirical L^q/L^2 ratios of the Hall coordinates of log X_{0,1}
    against the hypercontractivity envelope (n+1)(q-1)^{n/2}."""
    rows = []
    for lvl, block in enumerate(hall_log_signature(end).split(), start=1):
        for k in range(block.shape[-1]):
            z = np.abs(block[:, k])
            l2 = math.sqrt(mc_mean(z ** 2, seed).value)
            if l2 < 1e-12:
                continue
            for q in CHAOS_QS:
                lq = mc_mean(z ** q, seed).value ** (1.0 / q)
                bound = (lvl + 1) * (q - 1) ** (lvl / 2.0)
                rows.append({
                    "level": lvl,
                    "coord": k,
                    "q": q,
                    "ratio": lq / l2,
                    "bound": bound,
                    "ok": bool(lq / l2 <= bound),
                })
    return rows


def fernique_tail(spec: ProcessSpec, p: float, n: int = 10_000, seed: int = 0,
                  grid_level: int = 5) -> dict:
    """Gaussian-type tail of the homogeneous p-variation norm: fits
    log P(||X|| > lambda) against lambda^2 over empirical tail quantiles and
    reports eta_hat = -slope; also the chaos L^q/L^2 scaling of the log
    signature coordinates at the endpoint."""
    _check_samples(n, "the Fernique tail fit")
    tail_probs = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
    grid = np.linspace(0.0, 1.0, 2 ** grid_level + 1)
    # the samples are dropped once lifted, before the pair stream runs
    lifted = lift_s3(sample(spec, grid, n, seed))
    norms = np.asarray(pvar_norm(lifted, p))
    lam = np.quantile(norms, [1.0 - q for q in tail_probs])
    logp = np.log(np.asarray(tail_probs, dtype=float))
    slope, intercept = np.polyfit(lam ** 2, logp, 1)
    end = GroupElement(_take(lifted.values.tensor, -1))
    chaos = _chaos_ratios(end, seed)
    return {
        "p": p,
        "norm_mean": mc_mean(norms, seed).to_dict(),
        "tail_probs": list(tail_probs),
        "tail_lambdas": lam.tolist(),
        "tail_log_probs": logp.tolist(),
        "tail_slope": float(slope),
        "eta_hat": float(-slope),
        "tail_ok": bool(slope < 0.0),
        "chaos": chaos,
        "chaos_ok": bool(all(r["ok"] for r in chaos)),
        "ok": bool(slope < 0.0 and all(r["ok"] for r in chaos)),
        "n": n,
        "seed": seed,
        "grid_level": grid_level,
    }


def young_wiener_check(f_eval, spec: ProcessSpec, q: float = 1.0,
                       n: int = 10_000, seed: int = 0, grid_level: int = 10,
                       band: float = 1e-3) -> dict:
    """Variance of the pathwise integral int f dX^D against the 2D Young
    integral of f(u)f(v) against R, plus the Young-Wiener upper bound
    C_{rho,q} |f|_{q-var}^2 |R|_{rho-var}.

    f_eval: vectorized scalar function of time.  spec must be scalar.
    """
    if spec.dim != 1:
        raise ValueError("the isometry check drives a scalar process")
    _check_exponent(q, "q")
    kernel = spec.kernels[0]
    rho = kernel.rho
    if 1.0 / q + 1.0 / rho <= 1.0:
        raise ValueError("need 1/q + 1/rho > 1")
    if band < 0.0:
        raise ValueError(f"band must be >= 0, got {band}")
    grid = np.linspace(0.0, 1.0, 2 ** grid_level + 1)
    ens = sample(spec, grid, n, seed)
    fv = np.asarray(f_eval(grid), dtype=float)
    integrals = np.diff(ens.points[:, :, 0], axis=-1) @ fv[:-1]
    est = mc_mean(integrals ** 2, seed)

    base = np.linspace(0.0, 1.0, 2 ** min(grid_level, 9) + 1)

    def ff(S, T):
        return np.asarray(f_eval(S), dtype=float)[:, None] * np.asarray(
            f_eval(T), dtype=float)[None, :]

    young = young_integral_2d(ff, kernel.grid_eval, base, base, levels=1)
    # the upper bound needs f(0) = 0, so it is asserted on the increments
    # (f(u) - f(0))(f(v) - f(0)) of ff from the corner (0, 0)
    young_tilde = young_integral_2d(_from_corner(ff, 0.0, 0.0), kernel.grid_eval,
                                    base, base, levels=1)

    # certified on a coarse exact grid; grid-restricted variation
    rvar = square_variation(kernel, 0.0, 1.0, 8, rho)
    fvar = float(pvar_1d(fv, q))
    upper = young_constant(rho, q) * fvar ** 2 * rvar
    tol = 3.0 * est.stderr + band
    return {
        "mc": est.to_dict(),
        "young_value": young.value,
        "gap": abs(est.value - young.value),
        "band": band,
        "tolerance": tol,
        "ok": bool(abs(est.value - young.value) <= tol),
        "centered_value": young_tilde.value,
        "upper_bound": upper,
        "upper_ok": bool(abs(young_tilde.value) <= upper * (1.0 + 1e-9) + 1e-15),
        "f_qvar": fvar,
        "r_rhovar_grid": rvar,
        "q": q,
        "rho": rho,
        "grid_level": grid_level,
        "n": n,
        "seed": seed,
    }


def weak_limit_fbm(h_ladder=(0.45, 0.48, 0.5), n: int = 10_000, seed: int = 0,
                   grid_level: int = 8) -> dict:
    """E|X^{1,2}_{0,1}|^2 along an H ladder increasing to 1/2, common
    normals across the ladder: the statistic approaches the Brownian value
    1/2 and the sup-norm kernel gap to min(s,t) shrinks."""
    ladder = [float(H) for H in h_ladder]
    if len(ladder) < 2:
        raise ValueError("the H ladder needs at least two rungs to decrease")
    if ladder[-1] > 0.5 or any(b <= a for a, b in zip(ladder[:-1], ladder[1:])):
        raise ValueError("H ladder must increase to at most 1/2")
    if grid_level < 1:
        raise ValueError(f"grid_level must be >= 1, got {grid_level}: on fewer than two "
                         "intervals every H rung has the same Gram matrix, so the gaps tie")
    grid = np.linspace(0.0, 1.0, 2 ** grid_level + 1)
    kgrid = np.linspace(0.0, 1.0, 2 ** 6 + 1)
    bm_gram = bm_cov().grid_eval(kgrid, kgrid)
    stats = []
    gaps = []
    kernel_gaps = []
    for H in ladder:
        kern = fbm_cov(H) if H < 0.5 else bm_cov()
        spec = ProcessSpec((kern, kern))
        ens = sample(spec, grid, n, seed)
        end = lift_endpoint(np.diff(ens.points, axis=-2))
        est = mc_mean(end.level2[0, 1] ** 2, seed)
        stats.append(est.to_dict())
        gaps.append(abs(est.value - 0.5))
        kernel_gaps.append(float(np.max(np.abs(
            kern.grid_eval(kgrid, kgrid) - bm_gram))))
    dec = all(a >= b - 1e-12 for a, b in zip(gaps[:-1], gaps[1:]))
    kdec = all(a > b for a, b in zip(kernel_gaps[:-1], kernel_gaps[1:]))
    return {
        "h_ladder": ladder,
        "statistics": stats,
        "gaps_to_half": gaps,
        "gaps_decreasing": bool(dec),
        "final_gap": gaps[-1],
        "kernel_sup_gaps": kernel_gaps,
        "kernel_gaps_decreasing": bool(kdec),
        "ok": bool(dec and kdec),
        "n": n,
        "seed": seed,
        "grid_level": grid_level,
    }

