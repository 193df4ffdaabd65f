"""Besov-type double integrals, the quantitative Holder corollary with
explicit constants, the two-path Besov distance bound, and the chaos moment
equivalence check.

The double integral uses the power specialization Psi(x) = x^q,
p(u) = u^{1/r}; diagonal cells contribute zero (continuity convention).
Constants below: q0 = max((1/r - alpha)^{-1}/2, 4r) and C = 64/r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .path_lift import (
    GroupPath,
    PiecewisePath,
    _blocks,
    _check_alpha,
    _pair_rows,
    _require_same_grid,
)

__all__ = [
    "BesovStats",
    "q0_grr",
    "besov_functional",
    "grr_holder_check",
    "besov_distance_check",
    "chaos_ratio_check",
]


def q0_grr(r: float, alpha: float) -> float:
    if r < 1.0 or not 0.0 <= alpha < 1.0 / r:
        raise ValueError("need r >= 1 and 0 <= alpha < 1/r")
    return max(0.5 / (1.0 / r - alpha), 4.0 * r)


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.empty_like(times)
    w[0] = (times[1] - times[0]) / 2
    w[-1] = (times[-1] - times[-2]) / 2
    w[1:-1] = (times[2:] - times[:-2]) / 2
    return w


def _pairs(obj, y: GroupPath | None) -> tuple:
    """(times, i, j, D): the grid pairs i < j row after row, and D[k] the
    distance d(f_{t_i}, f_{t_j}) of pair k, or d(x_{t_i,t_j}, y_{t_i,t_j})
    for two group paths.  D has shape (n(n-1)/2, *batch) and is C-ordered,
    so a sum over the pairs runs left to right for a batch and pairwise for
    a single path; i and j broadcast along its batch axes."""
    if isinstance(obj, GroupPath):
        batch = obj.batch_shape
        blocks = (_pair_rows(*block) for block in _blocks(obj, y))
    elif isinstance(obj, PiecewisePath):
        batch = obj.points.shape[:-2]
        x = obj.points.reshape((-1,) + obj.points.shape[-2:])
        blocks = [(np.linalg.norm(x[:, i + 1 :, :] - x[:, i : i + 1, :], axis=-1)
                   for i in range(obj.n_times - 1))]
    else:
        raise TypeError("expected a PiecewisePath or GroupPath")
    i, j = np.triu_indices(obj.n_times, k=1)
    D = np.empty((i.size, int(np.prod(batch))))
    lo = 0
    for rows in blocks:
        k = 0
        for row in rows:
            D[k : k + row.shape[1], lo : lo + row.shape[0]] = row.T
            k += row.shape[1]
        lo += row.shape[0]
    col = (-1,) + (1,) * len(batch)
    return obj.times, i.reshape(col), j.reshape(col), D.reshape((i.size,) + batch)


def _besov(times: np.ndarray, i, j, D, q: float, r: float):
    w = _trapezoid_weights(times)
    ratio = D / (times[j] - times[i]) ** (1.0 / r)
    # the diagonal is excluded: zero contribution by the continuity convention
    return 2.0 * np.sum(ratio ** q * (w[i] * w[j]), axis=0)


def _holder(times: np.ndarray, i, j, D, alpha: float):
    """max over grid pairs of D / (t_j - t_i)^alpha."""
    return np.max(D / (times[j] - times[i]) ** alpha, axis=0)


def besov_functional(obj, q: float, r: float):
    """Trapezoidal [0,1]^2 integral of (d(f_s, f_t)/|t-s|^{1/r})^q over the
    path's grid; leading dims of a batched path are preserved."""
    if q < 1.0 or r < 1.0:
        raise ValueError("need q >= 1 and r >= 1")
    return _besov(*_pairs(obj, None), q, r)


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


def grr_holder_check(obj, r: float, alpha: float, q: float | None = None) -> dict:
    """||f||_{alpha-Hol} <= (64/r) F^{1/q} with F the Besov double integral,
    for alpha < 1/r and q >= q0(r, alpha).  Batched paths are swept and the
    report carries the worst case."""
    _check_alpha(alpha)
    q0 = q0_grr(r, alpha)
    q = q0 if q is None else float(q)
    if q < q0 * (1.0 - 1e-12):
        raise ValueError(f"need q >= q0 = {q0:.6g}")
    C = 64.0 / r
    pairs = _pairs(obj, None)
    F = np.asarray(_besov(*pairs, q, r), dtype=float)
    M = F ** (1.0 / q)
    H = np.asarray(_holder(*pairs, alpha), dtype=float)
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


BESOV_N = 3  # group nilpotency degree entering theta


def besov_distance_check(x: GroupPath, y: GroupPath, r: float, alpha: float,
                         delta: float | None = None, M: float | None = None,
                         C: float | None = None) -> dict:
    """Two-path Besov bound d_{alpha-Hol}(x, y) <= C delta^theta M with
    theta = (alpha' - alpha)/(alpha' N^2), alpha' = (alpha + 1/r)/2, and the
    double integrals taken at q = q0(r, alpha).

    When M or delta are omitted they are inferred as the smallest values
    satisfying the three integral hypotheses, which then hold by
    construction; the constant is calibrated by the caller, so with C = None
    only the required constant is reported.
    """
    _check_alpha(alpha)
    _require_same_grid(x, y)
    q = q0_grr(r, alpha)
    Fx = float(np.asarray(besov_functional(x, q, r)))
    Fy = float(np.asarray(besov_functional(y, q, r)))
    pairs = _pairs(x, y)
    Fd = float(_besov(*pairs, q, r))
    if M is None:
        M = max(Fx, Fy) ** (1.0 / q)
    if delta is None:
        delta = Fd ** (1.0 / q) / M if M > 0 else 0.0
    hyp = {
        "x_functional": Fx <= M ** q * (1.0 + 1e-9),
        "y_functional": Fy <= M ** q * (1.0 + 1e-9),
        "distance_functional": Fd <= (delta * M) ** q * (1.0 + 1e-9) + 1e-300,
    }
    alpha_p = (alpha + 1.0 / r) / 2.0
    theta = (alpha_p - alpha) / (alpha_p * BESOV_N ** 2)
    dist = float(_holder(*pairs, alpha))
    scale = delta ** theta * M
    # homogeneous-norm roundoff floor; identical paths read as ~1e-5
    c_required = dist / scale if scale > 0 else (0.0 if dist <= 1e-4 else np.inf)
    report = {
        "hypotheses": hyp,
        "hypotheses_ok": bool(all(hyp.values())),
        "distance": dist,
        "delta": float(delta),
        "M": float(M),
        "theta": float(theta),
        "alpha_prime": alpha_p,
        "c_required": float(c_required),
    }
    if C is not None:
        report["C"] = float(C)
        report["ok"] = bool(c_required <= C)
    return report


def chaos_ratio_check(samples, level: int, qs=(4, 6, 8)) -> dict:
    """Empirical L^q/L^2 ratios of a homogeneous-chaos coordinate against
    (n+1)(q-1)^{n/2}, with a 3-stderr band on the ratio estimate."""
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
    for q in qs:
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
