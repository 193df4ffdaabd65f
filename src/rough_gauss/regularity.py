"""Besov-type double integrals, the quantitative Holder corollary with
explicit constants, and the chaos moment equivalence check.

The double integral uses the power specialization Psi(x) = x^q,
p(u) = u^{1/r}; diagonal cells contribute zero (continuity convention).
Constants below: q0 = max((1/r - alpha)^{-1}/2, 4r) and C = 64/r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .path_lift import (
    _check_alpha,
    _pair_rows,
    _reduce_blocks,
)
from .variation_2d import _check_exponent

__all__ = [
    "BesovStats",
    "q0_grr",
    "besov_functional",
    "grr_holder_check",
    "chaos_ratio_check",
]

# moment exponents of the chaos ratio checks
CHAOS_QS = (4, 6, 8)


def q0_grr(r: float, alpha: float) -> float:
    _check_exponent(r, "r")
    if not 0.0 <= alpha < 1.0 / r:
        raise ValueError(f"alpha must lie in [0, 1/r), got {alpha}")
    return max(0.5 / (1.0 / r - alpha), 4.0 * r)


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.empty_like(times)
    w[0] = (times[1] - times[0]) / 2
    w[-1] = (times[-1] - times[-2]) / 2
    w[1:-1] = (times[2:] - times[:-2]) / 2
    return w


def _grr_sums(x, q: float, r: float, alpha: float) -> np.ndarray:
    """[2 F, H] over the paths of x: F is the trapezoidal Besov sum of
    (d_{s,t}/|t-s|^{1/r})^q over grid pairs s < t, doubled for the pairs
    t < s, and H the max of d_{s,t}/|t-s|^alpha, both reduced row after row
    as the pair stream forms d_{t_i,t_j} over j > i.  F adds its pairs left
    to right in row-major order, alone as in a batch.  x is a GroupPath, or
    a PiecewisePath that the pair stream lifts block by block; a power that
    leaves the double range gives inf or 0 and is left to _check_range."""

    def sums(*block):
        t = x.times
        w = _trapezoid_weights(t)
        f = h = 0.0
        with np.errstate(over="ignore"):
            for i, row in enumerate(_pair_rows(*block)):
                dt = t[i + 1 :] - t[i]
                terms = (row / dt ** (1.0 / r)) ** q * (w[i] * w[i + 1 :])
                terms[:, 0] += f
                f = np.add.accumulate(terms, axis=1)[:, -1]
                h = np.maximum(h, np.max(row / dt ** alpha, axis=1))
        # the diagonal is excluded: zero contribution by the continuity convention
        return np.stack([2.0 * f, h])

    return _reduce_blocks(x, None, sums)


def _check_range(sums: np.ndarray, q: float) -> np.ndarray:
    """The [2 F, H] sums of _grr_sums, or a ValueError where F overflowed,
    or underflowed to 0 on a path that is not constant (H > 0)."""
    F, H = sums
    if not (np.all(np.isfinite(F)) and np.all((F > 0.0) | (H == 0.0))):
        raise ValueError(f"the Besov sum at q = {q:.6g} left the double range: "
                         "its q-th powers overflow or underflow")
    return sums


def besov_functional(obj, q: float, r: float):
    """Trapezoidal [0,1]^2 integral of (d(f_s, f_t)/|t-s|^{1/r})^q over the
    path's grid, for a GroupPath or the lift of a PiecewisePath; leading
    dims of a batched path are preserved.  F is the value returned, so a sum
    that leaves the double range cannot be rescaled: it raises ValueError."""
    _check_exponent(q, "q")
    _check_exponent(r, "r")
    return _check_range(_grr_sums(obj, q, r, 1.0), q)[0]


@dataclass(frozen=True)
class BesovStats:
    double_integral: float
    holder_norm: float
    constants: tuple  # (q0, C)

    def __post_init__(self):
        if not (self.double_integral >= 0.0 and np.isfinite(self.double_integral)
                and self.holder_norm >= 0.0 and np.isfinite(self.holder_norm)):
            raise ValueError("stats must be nonnegative and finite")
        object.__setattr__(self, "constants", tuple(self.constants))


def _grr_q(r: float, alpha: float, q: float | None) -> tuple:
    """(q0, q) of the Holder corollary: q defaults to q0(r, alpha) and may
    not lie below it."""
    _check_alpha(alpha)
    q0 = q0_grr(r, alpha)
    q = q0 if q is None else float(q)
    _check_exponent(q, "q")
    if q < q0 * (1.0 - 1e-12):
        raise ValueError(f"need q >= q0 = {q0:.6g}")
    return q0, q


def _grr_report(sums: np.ndarray, q0: float, q: float, r: float, alpha: float) -> dict:
    """The Holder corollary's verdict on the [2 F, H] sums of _grr_sums,
    swept over the paths; the report carries the worst case."""
    C = 64.0 / r
    F, H = (np.asarray(v, dtype=float) for v in _check_range(sums, q))
    M = F ** (1.0 / q)
    bound = C * M
    slack = bound - H
    ok = H <= bound * (1.0 + 1e-9) + 1e-15
    stats = BesovStats(float(np.max(F)), float(np.max(H)), (q0, C))
    return {
        "ok": bool(np.all(ok)),
        "violations": int(np.sum(~ok)),
        "n_checked": int(ok.size),
        "slack": float(np.min(slack)),
        "worst_ratio": float(np.max(np.divide(
            H, bound, out=np.zeros_like(H), where=bound > 0))),
        "q": q,
        "r": r,
        "alpha": alpha,
        "stats": stats,
    }


def grr_holder_check(obj, r: float, alpha: float, q: float | None = None) -> dict:
    """||f||_{alpha-Hol} <= (64/r) F^{1/q} with F the Besov double integral,
    for alpha < 1/r and q >= q0(r, alpha), on a GroupPath or the lift of a
    PiecewisePath.  Batched paths are swept and the report carries the
    worst case."""
    q0, q = _grr_q(r, alpha, q)
    return _grr_report(_grr_sums(obj, q, r, alpha), q0, q, r, alpha)


def chaos_ratio_check(samples, level: int) -> dict:
    """Empirical L^q/L^2 ratios, q in CHAOS_QS, of a homogeneous-chaos
    coordinate against (n+1)(q-1)^{n/2}, with a 3-stderr band on the ratio
    estimate."""
    if level not in (1, 2, 3):
        raise ValueError("level must be 1, 2 or 3")
    z = np.abs(np.asarray(samples, dtype=float).ravel())
    n = z.size
    if n < 2:
        raise ValueError(f"chaos ratios need at least two samples, got {n}")
    m2 = float(np.mean(z ** 2))
    if m2 < 1e-24:
        return {"level": level, "degenerate": True, "ok": True, "rows": []}
    l2 = np.sqrt(m2)
    se_m2 = float(np.std(z ** 2, ddof=1)) / np.sqrt(n)
    se_l2 = se_m2 / (2.0 * l2)
    rows = []
    for q in CHAOS_QS:
        mq = float(np.mean(z ** q))
        lq = mq ** (1.0 / q)
        se_mq = float(np.std(z ** q, ddof=1)) / np.sqrt(n)
        se_lq = se_mq * lq / (q * mq)
        ratio = lq / l2
        band = 3.0 * (se_lq / l2 + lq * se_l2 / m2)
        bound = (level + 1) * (q - 1) ** (level / 2.0)
        rows.append({
            "q": q,
            "ratio": ratio,
            "band": band,
            "bound": bound,
            "ok": bool(ratio <= bound + band),
        })
    return {
        "level": level,
        "degenerate": False,
        "n": n,
        "rows": rows,
        "ok": bool(all(r["ok"] for r in rows)),
    }
