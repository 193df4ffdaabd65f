"""Seeded simulation of d-dimensional Gaussian processes on grids, lifted to
the step-3 group, with the Monte Carlo verification battery: level-2
L2 identity, moment envelopes, dyadic convergence rates, perturbation
continuity, Fernique tails with chaos scaling, the Young-Wiener isometry,
and the fractional-to-Brownian weak limit.

Randomness: normals for sample i, component c come from a Philox stream with
key = [seed, 0] and counter = [0, stream, i, c].  One generator produces
samples block by block of rows (`sample` joins its blocks) and applies each
Gram factor in products of CHUNK rows, so every block holds the bytes of the
same rows of the whole ensemble.
Every Monte Carlo check reduces each block as soon as it is formed (to an
integral, a Chen endpoint only as deep as the check reads, or the path
metrics of its lift, which read pairs of grid times within one path and
which the pair stream lifts and reduces about 1 MiB of levels at a time),
so its memory does not grow with the sample count, and a ladder of kernels
applies each rung's factor to one draw of the normals.  Matrix products run
on one OpenBLAS thread, so their bytes do not depend on the thread count.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

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
    _holder,
    _pair_rows,
    _pvar,
    _pvar_sup,
    _reduce_blocks,
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
    _check_young,
    _dyadic_grid,
    _from_corner,
    _positions,
    young_constant,
    young_integral_2d,
)

__all__ = [
    "MCEstimate",
    "sample",
    "lift_endpoint",
    "sample_endpoint",
    "level2_variance_check",
    "level_bounds_check",
    "dyadic_convergence",
    "perturbation_continuity",
    "fernique_tail",
    "young_wiener_check",
    "weak_limit_fbm",
]

# rows of one Gram-factor product: the BLAS shapes perfbench/reference was
# recorded with.  Even on one thread a product's bytes depend on how many
# rows share it, so samples are drawn in blocks of whole chunks: then a
# block of any size holds the bytes of the same rows of the whole ensemble.
CHUNK = 256
# rows of one Chen block: on a 2-core Xeon VM the Chen loop over 10 000 x
# 256 increments took 0.24 s on the whole batch, 0.28 s in 2 048-row blocks
# and 0.60 s in 256-row blocks (per-step Python overhead)
CHEN_ROWS = 8 * CHUNK


def _openblas():
    """numpy's bundled OpenBLAS thread setters, or None where numpy links
    another BLAS: then the thread count is left alone."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None


_OPENBLAS = _openblas()


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the old count after,
    so report bytes do not move with OPENBLAS_NUM_THREADS.  The bytes of a
    product still depend on how many rows share it; products of CHUNK rows
    make a streamed block equal to the whole batch."""
    if _OPENBLAS is None:
        yield
        return
    get, put = _OPENBLAS
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


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


def _check_band(band: float):
    if not 0.0 <= band < np.inf:
        raise ValueError(f"band must be >= 0 and finite, got {band}")


def mc_mean(values, seed: int) -> MCEstimate:
    """Fixed-order compensated mean."""
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    _check_samples(n, "a Monte Carlo mean")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite Monte Carlo values")
    mean = math.fsum(v) / n
    var = math.fsum((v - mean) ** 2) / (n - 1)
    return MCEstimate(mean, math.sqrt(var / n), n, seed)


def _l2_ladder(dists, seed: int):
    """L2 means sqrt(E dist^2) of the rungs of a (rungs, paths) array of
    distances and their delta-method standard errors."""
    means, errs = [], []
    for est in (mc_mean(d ** 2, seed) for d in dists):
        means.append(math.sqrt(est.value))
        errs.append(est.stderr / (2.0 * means[-1]) if est.value > 0 else 0.0)
    return means, errs


def _band_verdict(est: MCEstimate, target: float, band: float) -> dict:
    """The Monte Carlo estimate passes when it lies within 3 standard errors
    plus the band of the Young integral target."""
    tol = 3.0 * est.stderr + band
    gap = abs(est.value - target)
    return {"mc": est.to_dict(), "young_value": target, "band": band,
            "tolerance": tol, "gap": gap, "ok": bool(gap <= tol)}


def _factor(kernel: CovarianceKernel, grid: np.ndarray) -> np.ndarray:
    """Symmetric eigenvalue square root with clipping at zero.  Aborts when
    the clipped mass exceeds 1e-8 of the total eigenvalue mass sum |w|, so
    a kernel with non-positive variance fails and the zero kernel passes."""
    with _one_blas_thread():
        w, U = np.linalg.eigh(gram_matrix(kernel, grid))
    clipped = -float(np.sum(w[w < 0.0]))
    mass = float(np.sum(np.abs(w)))
    if clipped > 1e-8 * mass:
        raise ValueError(
            f"Gram matrix for {kernel.name} is indefinite beyond tolerance "
            f"(clipped {clipped:.3e} vs eigenvalue mass {mass:.3e})"
        )
    return U * np.sqrt(np.clip(w, 0.0, None))


def _normals(n: int, m: int, d: int, seed: int, stream: int, rows: int):
    """Yield the standard normals of the n samples, `rows` samples at a
    time, as one (d, rows, m) array; the last block may be shorter.  Every
    block is written into one buffer, so a consumer must be done with a
    block before it asks for the next.  With a fresh array per block, the
    peak RSS of the shipped level-2 run read 64 or 79 MB depending on the
    heap layout (glibc moves freed-size blocks off mmap onto the heap)."""
    # one generator: a fresh Philox state (empty buffer, no cached uint32)
    # with its counter set to [0, stream, i, c] is the state of
    # Philox(key, counter), so resetting it replaces a construction per row
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    buf = np.empty((d, min(rows, n), m))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        Z = buf[:, : hi - lo]
        for c in range(d):
            for i in range(lo, hi):
                state["state"]["counter"][:] = (0, stream, i, c)
                bits.state = state
                gen.standard_normal(out=Z[c, i - lo])
        yield Z


def _apply(factors, Z):
    """Paths (rows, m, d) of the normals Z (d, rows, m): component c is
    Z[c] @ factors[c].T, formed in products of CHUNK rows."""
    d, rows, m = Z.shape
    out = np.empty((rows, m, d))
    with _one_blas_thread():
        for lo in range(0, rows, CHUNK):
            for c, F in enumerate(factors):
                out[lo : lo + CHUNK, :, c] = Z[c, lo : lo + CHUNK] @ F.T
    return out


def _path_blocks(spec: ProcessSpec, grid, n: int, seed: int, rows: int,
                 stream: int = 0):
    """The n independent paths of the d-component process on the grid, as
    an iterator of (rows, |grid|, d) blocks (rows a multiple of CHUNK; the
    last block may be shorter), so the ensemble is never held whole.

    Components are independent; component c is the Gram factor applied to
    that component's substream normals.  Deterministic in (seed, stream):
    every block holds the bytes of the same rows of the whole ensemble.  n
    and the grid are checked, and the factors formed, before it returns.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    grid = np.asarray(grid, dtype=float)
    _check_times(grid)
    factors = tuple(_factor(k, grid) for k in spec.kernels)
    return (_apply(factors, Z) for Z in _normals(n, grid.size, spec.dim, seed, stream, rows))


def sample(spec: ProcessSpec, grid, n: int, seed: int,
           stream: int = 0) -> PiecewisePath:
    """n independent paths of the d-component process on the grid, as one
    path with points of shape (n, |grid|, d): the blocks of
    _path_blocks(spec, grid, n, seed, CHUNK, stream) joined."""
    grid = np.asarray(grid, dtype=float)
    blocks = _path_blocks(spec, grid, n, seed, CHUNK, stream)
    out = np.empty((n, grid.size, spec.dim))
    for lo, x in zip(range(0, n, CHUNK), blocks):
        out[lo : lo + len(x)] = x
    return PiecewisePath(grid, out)


def _chen_end(increments: np.ndarray, depth: int = 3):
    """Raw levels 0..depth of the Chen product of all the increments."""
    for cur in _chen_prefixes(increments, depth):
        pass
    return cur


def lift_endpoint(increments: np.ndarray):
    """Chen product of segment exponentials keeping only the final value;
    memory stays O(batch) instead of O(batch * grid)."""
    return TruncatedTensor(np.shape(increments)[-1], *_chen_end(increments))


def sample_endpoint(spec: ProcessSpec, grid, n: int, seed: int) -> GroupElement:
    """The step-3 lift at the last grid time of each of the n paths of
    sample(spec, grid, n, seed), bit for bit, lifted CHEN_ROWS paths at a
    time so the ensemble is never held whole."""
    ends = [_chen_end(np.diff(x, axis=-2))
            for x in _path_blocks(spec, grid, n, seed, CHEN_ROWS)]
    levels = (np.concatenate(a, axis=-1) for a in zip(*ends))
    return GroupElement(TruncatedTensor(spec.dim, *levels))


def _about(k: CovarianceKernel) -> str:
    return " ".join([k.name, *(f"{a} = {v}" for a, v in k.params.items())])


def _check_area(k1: CovarianceKernel, k2: CovarianceKernel):
    """The Levy area of independent components with covariances k1, k2 is the
    2D Young integral of R_1 against R_2, so it needs 1/rho_1 + 1/rho_2 > 1."""
    about = " and ".join(dict.fromkeys([_about(k1), _about(k2)]))
    _check_young(k1.rho, k2.rho, ("rho_1", "rho_2"), f" for {about}")


def _rough_p(spec: ProcessSpec, p: float | None, name: str = "p") -> float:
    """p, else 2.5 where the first kernel has rho = 1 and 2.8 elsewhere: the
    lift is a geometric p-rough path for p > 2 rho once rho < 2 (0707.0313)."""
    tail = "" if p is not None else f"; set {name}"
    p = (2.5 if spec.kernels[0].rho == 1.0 else 2.8) if p is None else p
    _check_exponent(p, name)
    k = max(spec.kernels, key=lambda k: k.rho)
    if p <= 2 * k.rho:
        raise ValueError(f"{name} = {p} must exceed 2 rho = {2 * k.rho:g} "
                         f"for {_about(k)}{tail}")
    _check_area(k, k)
    return p


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
    _check_band(band)
    if len(interval) != 2:
        raise ValueError("interval must be two numbers [s, t]")
    s, t = float(interval[0]), float(interval[1])
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("interval must satisfy 0 <= s <= t <= 1")
    _check_samples(n, "the level-2 check")
    ki, kj = spec.kernels[:2]
    _check_area(ki, kj)
    grid = _dyadic_grid(grid_level)
    a, b = _positions(grid, [s, t], "interval endpoints")
    report = {"grid_level": grid_level, "components": [0, 1], "interval": [s, t]}
    if a == b:
        return {**_band_verdict(MCEstimate(0.0, 0.0, n, seed), 0.0, band),
                "young_converged": True, **report}
    # each block of paths is reduced to level2[0, 1] of its endpoint lift
    areas = np.concatenate([
        _chen_end(np.diff(x[:, a : b + 1, :2], axis=-2), depth=2)[2][0, 1]
        for x in _path_blocks(spec, grid, n, seed, CHEN_ROWS)])
    est = mc_mean(areas ** 2, seed)

    base = np.linspace(s, t, 2 ** min(grid_level, 6) + 1)

    # integrand is the covariance of increments from s,
    # R_1(u,v) - R_1(s,u) - R_1(s,v) + R_1(s,s); for processes started at
    # zero with s = 0 this is plain R_1
    young = young_integral_2d(_from_corner(ki.grid_eval, s, s), kj.grid_eval,
                              base, base, levels=3)
    return {**_band_verdict(est, young.value, band),
            "young_converged": young.converged, **report}


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
    _check_samples(n, "the level-bound check")
    _check_area(k0, k0)
    rho = float(spec.rho if rho is None else rho)
    grid = _dyadic_grid(grid_level)
    words = [(0,), (0, 1), (0, 0, 1), (0, 1, 2)]
    sizes = [2.0 ** (-lev) for lev in (1, 2, 3, 4)]
    steps = _positions(grid, sizes, "interval ends").tolist()
    omegas = [square_variation(k0, t, 12, rho) ** rho for t in sizes]
    if min(omegas) == 0.0:
        raise ValueError(f"rho={rho} underflows the envelope omega = "
                         f"|R|_rho-var^rho to 0 on [0, {sizes[-1]}]^2")
    # one Chen pass per block over the increments of [0, 1/2]: its prefix
    # after steps[i] increments is the lift over [0, sizes[i]]
    z = {w: [[] for _ in steps] for w in words}
    for x in _path_blocks(spec, grid, n, seed, CHEN_ROWS):
        for k, cur in enumerate(_chen_prefixes(np.diff(x[:, : steps[0] + 1], axis=-2))):
            if k in steps:
                for w in words:
                    z[w][steps.index(k)].append(cur[len(w)][w])
    rows = {w: [mc_mean(np.concatenate(b) ** 2, seed) for b in z[w]] for w in words}
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


def dyadic_convergence(spec: ProcessSpec, p: float | None = None,
                       levels=(3, 4, 5, 6, 7), n: int = 200, seed: int = 0) -> dict:
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
    p = _rough_p(spec, p)
    levels = sorted(int(v) for v in levels)
    if levels[0] < 0:
        raise ValueError(f"levels must be >= 0, got {levels[0]}")
    if len(set(levels)) < 2:
        raise ValueError("the slope fit needs at least two distinct levels")
    _check_samples(n, "dyadic convergence")
    ref_level = levels[-1] + 1
    grid = _dyadic_grid(ref_level, "levels")
    coarse = [grid[:: 2 ** (ref_level - lev)] for lev in levels]

    def dists(x):
        ens = PiecewisePath(grid, x)
        rungs = [refine_path(restrict_to(ens, D), grid) for D in coarse]
        return _holder(rungs, ens, 1.0 / p)

    means, errs = _l2_ladder(np.concatenate(
        [dists(x) for x in _path_blocks(spec, grid, n, seed, CHEN_ROWS)], axis=-1), seed)
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
                            p: float | None = None, n: int = 400, seed: int = 0,
                            grid_level: int = 6) -> dict:
    """L2 size of d_{p-var}(lift(X), lift(X + eps W)) along an epsilon ladder,
    W an independent copy coupled across the ladder; fits the exponent of the
    mean against |R_{X-Y}|_inf = eps^2 |R_W|_inf."""
    if sum(e > 0.0 for e in epsilons) < 2:
        raise ValueError("the epsilon ladder needs at least two positive rungs")
    p = _rough_p(spec, p)
    _check_samples(n, "perturbation continuity")
    grid = _dyadic_grid(grid_level)

    def dists(x, w):
        rungs = [PiecewisePath(grid, x + eps * w) for eps in epsilons]
        return _pvar(rungs, PiecewisePath(grid, x), p)

    # X and W are streams 0 and 1 of one seed, drawn block by block together
    blocks = zip(*(_path_blocks(spec, grid, n, seed, CHEN_ROWS, stream) for stream in (0, 1)))
    means, errs = _l2_ladder(np.concatenate([dists(x, w) for x, w in blocks], axis=-1), seed)
    rw_inf = max(float(np.max(np.abs(gram_matrix(k, grid)))) for k in spec.kernels)
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


def fernique_tail(spec: ProcessSpec, p: float | None = None, n: int = 10_000, seed: int = 0,
                  grid_level: int = 5) -> dict:
    """Gaussian-type tail of the homogeneous p-variation norm: fits
    log P(||X|| > lambda) against lambda^2 over empirical tail quantiles and
    reports eta_hat = -slope; also the chaos L^q/L^2 scaling of the log
    signature coordinates at the endpoint."""
    p = _rough_p(spec, p)
    _check_samples(n, "the Fernique tail fit")
    tail_probs = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
    grid = _dyadic_grid(grid_level)

    ends = []

    def norms_and_ends(levels):
        # copies: the pair stream reuses the block's buffer for the next one
        ends.append([a[..., -1].copy() for a in levels])
        return _pvar_sup(_pair_rows(levels), p)

    norms = np.concatenate([_reduce_blocks(PiecewisePath(grid, x), None, norms_and_ends)
                            for x in _path_blocks(spec, grid, n, seed, CHEN_ROWS)])
    end = GroupElement(TruncatedTensor(spec.dim, *(np.concatenate(a, axis=-1)
                                                   for a in zip(*ends))))
    lam = np.quantile(norms, [1.0 - q for q in tail_probs])
    logp = np.log(np.asarray(tail_probs, dtype=float))
    slope, intercept = np.polyfit(lam ** 2, logp, 1)
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
    kernel = spec.kernels[0]
    rho = kernel.rho
    _check_young(q, rho, ("q", "rho"), f" for {_about(kernel)}")
    _check_band(band)
    _check_samples(n, "the Young-Wiener check")
    grid = _dyadic_grid(grid_level)
    fv = np.asarray(f_eval(grid), dtype=float)
    # each CHUNK of paths is reduced to its Riemann-Stieltjes sums
    with _one_blas_thread():
        integrals = np.concatenate([np.diff(x[:, :, 0], axis=-1) @ fv[:-1]
                                    for x in _path_blocks(spec, grid, n, seed, CHUNK)])
    est = mc_mean(integrals ** 2, seed)

    base = _dyadic_grid(min(grid_level, 9))

    def ff(S, T):
        return np.asarray(f_eval(S), dtype=float)[:, None] * np.asarray(
            f_eval(T), dtype=float)[None, :]

    young = young_integral_2d(ff, kernel.grid_eval, base, base, levels=1)
    # the upper bound needs f(0) = 0, so it is asserted on the increments
    # (f(u) - f(0))(f(v) - f(0)) of ff from the corner (0, 0)
    young_tilde = young_integral_2d(_from_corner(ff, 0.0, 0.0), kernel.grid_eval,
                                    base, base, levels=1)

    # certified on a coarse exact grid; grid-restricted variation
    rvar = square_variation(kernel, 1.0, 8, rho)
    fvar = float(pvar_1d(fv, q))
    upper = young_constant(rho, q) * fvar ** 2 * rvar
    return {
        **_band_verdict(est, young.value, band),
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
    if ladder[0] <= 0.25:
        raise ValueError(f"H = {ladder[0]} has rho = 1/(2H) >= 2, where the Levy area "
                         "does not exist: every H rung must exceed 1/4")
    if grid_level < 1:
        raise ValueError(f"grid_level must be >= 1, got {grid_level}: on fewer than two "
                         "intervals every H rung has the same Gram matrix, so the gaps tie")
    _check_samples(n, "the weak limit")
    grid = _dyadic_grid(grid_level)
    kgrid = _dyadic_grid(6)
    bm_gram = bm_cov().grid_eval(kgrid, kgrid)
    kernels = [fbm_cov(H) if H < 0.5 else bm_cov() for H in ladder]
    # both components of a rung share its factor; every rung reads one
    # draw of the normals per block (common random numbers)
    factors = [(_factor(k, grid),) * 2 for k in kernels]
    areas = np.concatenate([
        [_chen_end(np.diff(_apply(f, Z), axis=-2), depth=2)[2][0, 1] for f in factors]
        for Z in _normals(n, grid.size, 2, seed, 0, CHEN_ROWS)], axis=-1)
    stats = []
    gaps = []
    kernel_gaps = []
    for kern, area in zip(kernels, areas):
        est = mc_mean(area ** 2, seed)
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

