"""Catalog of exactly-evaluable Gaussian covariance kernels.

Each kernel carries its declared rho (the variation exponent of the
covariance as a bivariate function) and a Hoelder-domination flag, plus the
structural checkers used downstream: increment-decorrelation scans, the
linear-envelope check for fractional Brownian variation, and the
piecewise-linear covariance R^D with its comparison factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .variation_2d import GridFunction2D, _blend, _check_times, rho_variation

__all__ = [
    "CovarianceKernel",
    "ProcessSpec",
    "bm_cov",
    "fbm_cov",
    "ou_cov",
    "bridge_cov",
    "martingale_cov",
    "gram_matrix",
    "square_variation",
    "coutin_qian_check",
    "fbm_rhovar_bound_check",
    "piecewise_linear_cov",
    "kernel_from_config",
    "kernel_to_config",
]


@dataclass(frozen=True)
class CovarianceKernel:
    """Continuous covariance on [0,1]^2.

    ``eval`` is elementwise with numpy broadcasting; use :meth:`grid_eval`
    for the Gram matrix of a product grid.  ``rho`` is the declared
    2D variation exponent of the covariance, ``holder_dominated`` whether
    the square-rectangle variation grows linearly in the side length.
    """

    name: str
    eval: Callable
    rho: float
    holder_dominated: bool
    params: dict = field(default_factory=dict)

    def __call__(self, s, t):
        return self.eval(np.asarray(s, dtype=float), np.asarray(t, dtype=float))

    def grid_eval(self, S, T) -> np.ndarray:
        S = np.asarray(S, dtype=float)
        T = np.asarray(T, dtype=float)
        return self.eval(S[:, None], T[None, :])

    @property
    def key(self) -> tuple:
        """Identity of the covariance, whatever the ``eval`` object."""
        return (self.name, tuple(sorted(self.params.items())))


@dataclass(frozen=True)
class ProcessSpec:
    """d independent real components, one covariance kernel each."""

    kernels: tuple

    def __post_init__(self):
        ks = tuple(self.kernels)
        if not ks:
            raise ValueError("need at least one component kernel")
        object.__setattr__(self, "kernels", ks)

    @property
    def dim(self) -> int:
        return len(self.kernels)

    @property
    def rho(self) -> float:
        return max(k.rho for k in self.kernels)


def bm_cov() -> CovarianceKernel:
    return CovarianceKernel("bm", np.minimum, 1.0, True)


def fbm_cov(H: float) -> CovarianceKernel:
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")

    def ev(s, t):
        return 0.5 * (s ** (2 * H) + t ** (2 * H) - np.abs(t - s) ** (2 * H))

    return CovarianceKernel(
        "fbm", ev, max(1.0, 1.0 / (2 * H)), H <= 0.5, {"H": float(H)}
    )


def ou_cov(theta: float, sigma: float = 1.0, stationary: bool = True) -> CovarianceKernel:
    if theta <= 0:
        raise ValueError("theta must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = sigma**2 / (2 * theta)

    if stationary:

        def ev(s, t):
            return a * np.exp(-theta * np.abs(t - s))

    else:
        # started at zero: X_t = sigma int_0^t e^{-theta (t-u)} dW_u

        def ev(s, t):
            return a * (np.exp(-theta * np.abs(t - s)) - np.exp(-theta * (t + s)))

    return CovarianceKernel(
        "ou", ev, 1.0, True,
        {"theta": float(theta), "sigma": float(sigma), "stationary": bool(stationary)},
    )


def bridge_cov(base: CovarianceKernel) -> CovarianceKernel:
    """Covariance of X_t - t X_1: pins the process at both ends of [0,1]."""

    def ev(s, t):
        one = np.ones(())
        return (
            base.eval(s, t)
            - t * base.eval(s, one)
            - s * base.eval(t, one)
            + s * t * base.eval(one, one)
        )

    return CovarianceKernel(
        f"bridge({base.name})", ev, base.rho, base.holder_dominated,
        {"base": base.name, **{f"base_{k}": v for k, v in base.params.items()}},
    )


def martingale_cov(clock: Callable, name: str = "martingale") -> CovarianceKernel:
    """R(s,t) = clock(min(s,t)) for an increasing clock with clock(0) = 0;
    the covariance of a continuous Gaussian martingale with that bracket."""
    c0 = float(np.asarray(clock(np.zeros(()))))
    if abs(c0) > 1e-14:
        raise ValueError("clock must start at zero")

    def ev(s, t):
        return np.asarray(clock(np.minimum(s, t)), dtype=float)

    return CovarianceKernel(name, ev, 1.0, False, {"clock": getattr(clock, "__name__", "clock")})


def gram_matrix(k: CovarianceKernel, grid, check_psd: bool = True) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    R = k.grid_eval(grid, grid)
    R = 0.5 * (R + R.T)
    if check_psd:
        lam = np.linalg.eigvalsh(R)
        scale = max(float(np.max(np.abs(lam))), 1e-300)
        if lam[0] < -1e-10 * scale:
            raise ValueError(
                f"gram matrix of {k.name} not PSD: min eigenvalue {lam[0]:.3e}"
            )
    return R


def square_variation(k: CovarianceKernel, s: float, t: float, intervals: int,
                     rho: float) -> float:
    """Exact grid rho-variation of k over the square [s, t]^2, sampled with
    ``intervals`` uniform intervals per side, at most EXACT_INTERVAL_CAP."""
    g = np.linspace(s, t, intervals + 1)
    return rho_variation(GridFunction2D(g, g, k.grid_eval(g, g)), rho,
                         mode="exact").value


def coutin_qian_check(
    k: CovarianceKernel,
    H: float,
    grid=None,
    c_H: float | None = None,
) -> dict:
    """Smallest constants over a grid scan, with h = 2^-3 .. 2^-6 in (ass2),
    for the two increment conditions:

      (ass1)  E(X_{s,t}^2) <= c |t-s|^{2H}
      (ass2)  |E(X_{s,s+h} X_{t,t+h})| <= c |t-s|^{2H-2} h^2   for h < t-s

    Constants are maxima over the scan lattice, i.e. lower bounds for the
    true constants.  ``passes`` compares them to a supplied c_H.
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 65)
    grid = np.asarray(grid, dtype=float)
    R = k.grid_eval(grid, grid)
    diag = np.diag(R)
    # E(X_{s,t}^2) = R(t,t) + R(s,s) - 2 R(s,t)
    sq = diag[None, :] + diag[:, None] - 2 * R
    iu = np.triu_indices(grid.size, k=1)
    dt = np.abs(grid[None, :] - grid[:, None])
    c1 = float(np.max(sq[iu] / dt[iu] ** (2 * H)))
    c2 = 0.0
    worst = None
    for h in (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6):
        s = grid[grid + h <= 1.0]
        if s.size < 2:
            continue
        # E(X_{s,s+h} X_{t,t+h}) as a rectangular increment of R
        cov = (
            k.grid_eval(s + h, s + h)
            - k.grid_eval(s + h, s)
            - k.grid_eval(s, s + h)
            + k.grid_eval(s, s)
        )
        gap = np.abs(s[None, :] - s[:, None])
        mask = gap > h + 1e-12
        if not np.any(mask):
            continue
        ratio = np.abs(cov[mask]) / (gap[mask] ** (2 * H - 2) * h**2)
        m = float(np.max(ratio))
        if m > c2:
            c2 = m
            worst = float(h)
    out = {
        "c_ass1": c1,
        "c_ass2": c2,
        "worst_h_ass2": worst,
        "H": float(H),
        "n_grid": int(grid.size),
    }
    if c_H is not None:
        out["c_H"] = float(c_H)
        out["passes"] = bool(c1 <= c_H and c2 <= c_H)
    return out


def fbm_rhovar_bound_check(
    H: float,
    grid_intervals: int = 8,
    sizes=(1.0, 0.5, 0.25),
) -> dict:
    """Linear-envelope check for the 1/(2H)-variation of the fractional
    covariance: exact grid variation over nested squares [0, w]^2 (each
    sampled with ``grid_intervals`` uniform intervals), value/w ratios, and
    the sign of disjoint-increment covariances (nonpositive for H < 1/2)."""
    if not 0.0 < H <= 0.5:
        raise ValueError("H must lie in (0, 1/2]")
    k = fbm_cov(H)
    rho = 1.0 / (2 * H)
    values, ratios = [], []
    for w in sizes:
        val = square_variation(k, 0.0, w, grid_intervals, rho)
        values.append(val)
        ratios.append(val / w)
    h = 0.05
    # E(B_{0,h} B_{2h,3h}) in closed form
    disjoint = 0.5 * h ** (2 * H) * (3.0 ** (2 * H) + 1.0 - 2.0 ** (1 + 2 * H))
    g = np.linspace(0.0, 1.0, 9)
    V = k.grid_eval(g, g)
    worst_disjoint = disjoint
    for a in range(8):
        for b in range(a + 1, 9):
            for c in range(b, 8):  # disjoint (possibly adjacent) intervals
                for e in range(c + 1, 9):
                    r = V[b, e] - V[b, c] - V[a, e] + V[a, c]
                    worst_disjoint = max(worst_disjoint, r)
    return {
        "H": float(H),
        "rho": rho,
        "sizes": [float(w) for w in sizes],
        "values": values,
        "ratios": ratios,
        "ratio_spread": float(max(ratios) / min(ratios)),
        "empirical_C": float(max(ratios)),
        "disjoint_increment_cov": float(disjoint),
        "max_disjoint_rect": float(worst_disjoint),
        "disjoint_nonpositive": bool(worst_disjoint <= 1e-12),
    }


def piecewise_linear_cov(k: CovarianceKernel, D) -> CovarianceKernel:
    """Covariance R^D of the piecewise-linear interpolation X^D: the
    bilinear blend of R's rectangular increments over the cells of D x D.
    Agrees with R at D x D."""
    D = np.asarray(D, dtype=float)
    _check_times(D)
    ev = partial(_blend, GridFunction2D(D, D, gram_matrix(k, D, check_psd=False)))
    return CovarianceKernel(
        f"pl({k.name})", ev, k.rho, k.holder_dominated,
        {"base": k.name, "n_dissection": int(D.size), **k.params},
    )


_BUILDERS = {
    "bm": lambda p: bm_cov(),
    "fbm": lambda p: fbm_cov(p["H"]),
    "ou": lambda p: ou_cov(
        p.get("theta", 1.0), p.get("sigma", 1.0), p.get("stationary", True)
    ),
}


def kernel_from_config(spec) -> CovarianceKernel:
    """Build a kernel from ``{"kernel": "fbm", "H": 0.4}`` or the compact
    string form ``"fbm:H=0.4"``; ``bridge(<name>)`` wraps the base kernel."""
    if isinstance(spec, str):
        name, _, rest = spec.partition(":")
        params = {}
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if not _:
                    raise ValueError(f"malformed kernel parameter {item!r}")
                params[key.strip()] = _parse_scalar(val.strip())
        spec = {"kernel": name.strip(), **params}
    if not isinstance(spec, dict):
        raise ValueError("kernel spec must be a string or mapping")
    spec = dict(spec)
    name = spec.pop("kernel", None)
    if name is None:
        raise ValueError("kernel spec needs a 'kernel' field")
    bridged = False
    if name.startswith("bridge(") and name.endswith(")"):
        bridged = True
        name = name[len("bridge(") : -1]
    if name not in _BUILDERS:
        raise ValueError(f"unknown kernel {name!r}; know {sorted(_BUILDERS)}")
    try:
        k = _BUILDERS[name](spec)
    except KeyError as exc:
        raise ValueError(f"kernel {name!r} missing parameter {exc}") from None
    allowed = {"bm": set(), "fbm": {"H"}, "ou": {"theta", "sigma", "stationary"}}[name]
    extra = set(spec) - allowed
    if extra:
        raise ValueError(f"unknown parameters for kernel {name!r}: {sorted(extra)}")
    return bridge_cov(k) if bridged else k


def kernel_to_config(k: CovarianceKernel) -> dict:
    out = {"kernel": k.name}
    out.update({key: v for key, v in k.params.items() if not key.startswith("base_")})
    out.pop("base", None)
    out.pop("clock", None)
    out.pop("n_dissection", None)
    return out


def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
