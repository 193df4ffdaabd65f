"""Catalog of exactly-evaluable Gaussian covariance kernels.

Each kernel carries its declared rho (the variation exponent of the
covariance as a bivariate function), plus the structural checkers used
downstream: the grid rho-variation of a square and the
increment-decorrelation scan.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .variation_2d import EXACT_INTERVAL_CAP, GridFunction2D, _uniform_grid, rho_variation

__all__ = [
    "CovarianceKernel",
    "ProcessSpec",
    "bm_cov",
    "fbm_cov",
    "ou_cov",
    "bridge_cov",
    "gram_matrix",
    "square_variation",
    "coutin_qian_check",
    "kernel_from_config",
    "kernel_to_config",
]


@dataclass(frozen=True)
class CovarianceKernel:
    """Continuous covariance on [0,1]^2.

    ``eval`` is elementwise with numpy broadcasting; use :meth:`grid_eval`
    for the Gram matrix of a product grid.  ``rho`` is the declared
    2D variation exponent of the covariance.
    """

    name: str
    eval: Callable
    rho: float
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
    return CovarianceKernel("bm", np.minimum, 1.0)


def fbm_cov(H: float) -> CovarianceKernel:
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")

    def ev(s, t):
        return 0.5 * (s ** (2 * H) + t ** (2 * H) - np.abs(t - s) ** (2 * H))

    return CovarianceKernel("fbm", ev, max(1.0, 1.0 / (2 * H)), {"H": float(H)})


def ou_cov(theta: float = 1.0, sigma: float = 1.0, stationary: bool = True) -> CovarianceKernel:
    # chained comparisons with inf are false for nan and inf alike
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    a = sigma**2 / (2 * theta)

    if stationary:

        def ev(s, t):
            return a * np.exp(-theta * np.abs(t - s))

    else:
        # started at zero: X_t = sigma int_0^t e^{-theta (t-u)} dW_u

        def ev(s, t):
            return a * (np.exp(-theta * np.abs(t - s)) - np.exp(-theta * (t + s)))

    return CovarianceKernel(
        "ou", ev, 1.0,
        {"theta": float(theta), "sigma": float(sigma), "stationary": bool(stationary)},
    )


def bridge_cov(base: CovarianceKernel) -> CovarianceKernel:
    """Covariance of X_t - t X_1: pins the process at both ends of [0,1].
    The name records the base kernel and the params are the base's, so the
    config of a bridge rebuilds it."""

    def ev(s, t):
        one = np.ones(())
        return (
            base.eval(s, t)
            - t * base.eval(s, one)
            - s * base.eval(t, one)
            + s * t * base.eval(one, one)
        )

    return CovarianceKernel(f"bridge({base.name})", ev, base.rho, dict(base.params))


def gram_matrix(k: CovarianceKernel, grid) -> np.ndarray:
    """Symmetrized Gram matrix of k on the grid; :func:`simulate.sample`
    checks that it is PSD."""
    grid = np.asarray(grid, dtype=float)
    R = k.grid_eval(grid, grid)
    return 0.5 * (R + R.T)


def square_variation(k: CovarianceKernel, t: float, intervals: int, rho: float) -> float:
    """Grid rho-variation of k over [0, t]^2 on ``intervals`` uniform intervals
    a side, at most 2^12: exact up to EXACT_INTERVAL_CAP, local search above."""
    g = _uniform_grid(intervals, t)
    mode = "exact" if intervals <= EXACT_INTERVAL_CAP else "local-search"
    return rho_variation(GridFunction2D(g, g, k.grid_eval(g, g)), rho, mode=mode)


def coutin_qian_check(k: CovarianceKernel, H: float,
                      c_H: float | None = None) -> dict:
    """Smallest constants over a scan of the 65-point uniform grid of [0, 1],
    with h = 2^-3 .. 2^-6 in (ass2), for the two increment conditions:

      (ass1)  E(X_{s,t}^2) <= c |t-s|^{2H}
      (ass2)  |E(X_{s,s+h} X_{t,t+h})| <= c |t-s|^{2H-2} h^2   for h < t-s

    Constants are maxima over the scan lattice, i.e. lower bounds for the
    true constants.  ``passes`` compares them to a supplied c_H.
    """
    if not 0.0 < H < 1.0:
        raise ValueError(f"H must lie in (0, 1), got {H}")
    if c_H is not None and not np.isfinite(c_H):
        raise ValueError(f"c_H must be finite, got {c_H}")
    grid = _uniform_grid(64)
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
        # E(X_{s,s+h} X_{t,t+h}) as a rectangular increment of R
        cov = (
            k.grid_eval(s + h, s + h)
            - k.grid_eval(s + h, s)
            - k.grid_eval(s, s + h)
            + k.grid_eval(s, s)
        )
        gap = np.abs(s[None, :] - s[:, None])
        mask = gap > h + 1e-12
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


# a kernel's config parameters are its builder's keywords
_BUILDERS = {"bm": bm_cov, "fbm": fbm_cov, "ou": ou_cov}


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
    # bool subclasses int; a keyword the builder lacks is left to its TypeError
    for key, par in inspect.signature(_BUILDERS[name], eval_str=True).parameters.items():
        if key not in spec:
            continue
        flag, val = par.annotation is bool, spec[key]
        if isinstance(val, bool) != flag or not isinstance(val, numbers.Real):
            want = "true or false" if flag else "a real number"
            raise ValueError(f"kernel {name!r}: parameter {key!r} needs {want}, got {val!r}")
    try:
        k = _BUILDERS[name](**spec)
    except TypeError as exc:
        raise ValueError(f"kernel {name!r}: {exc}") from None
    return bridge_cov(k) if bridged else k


def kernel_to_config(k: CovarianceKernel) -> dict:
    return {"kernel": k.name, **k.params}


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
