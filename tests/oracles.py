"""Independent reference implementations used only by the test suite.

Everything here is deliberately slow and simple: exact rational arithmetic
on words for the tensor algebra, and full enumeration for variation
problems.  The package code must agree with these on small instances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from rough_gauss.variation_2d import _score_given_rows

# ---------------------------------------------------------------------------
# Word-indexed truncated tensor algebra over Q.
# An element is a dict mapping tuples of letters (length 0..3) to Fraction.

TRUNC = 3


def wzero():
    return {}


def wunit():
    return {(): Fraction(1)}


def wadd(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c != 0}


def wscale(s, a):
    s = Fraction(s)
    return {w: s * c for w, c in a.items() if s * c != 0}


def wmul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if len(w) <= TRUNC:
                out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


def wexp(x):
    assert x.get((), Fraction(0)) == 0
    out = wunit()
    term = wunit()
    for n in range(1, TRUNC + 1):
        term = wscale(Fraction(1, n), wmul(term, x))
        out = wadd(out, term)
    return out


def wlog(g):
    assert g.get((), Fraction(0)) == 1
    x = dict(g)
    x[()] = Fraction(0)
    out = wzero()
    term = wunit()
    for n in range(1, TRUNC + 1):
        term = wmul(term, x)
        out = wadd(out, wscale(Fraction((-1) ** (n + 1), n), term))
    return out


def winv(g):
    assert g.get((), Fraction(0)) == 1
    x = dict(g)
    x[()] = Fraction(0)
    out = wunit()
    term = wunit()
    for n in range(1, TRUNC + 1):
        term = wmul(term, x)
        out = wadd(out, wscale(Fraction((-1) ** n), term))
    return out


def wbracket(a, b):
    return wadd(wmul(a, b), wscale(-1, wmul(b, a)))


def wletter(i):
    return {(i,): Fraction(1)}


def word_entries_to_arrays(a, d):
    """Dense float levels (l0, l1, l2, l3) of a word dict."""
    l0 = float(a.get((), 0))
    l1 = np.zeros(d)
    l2 = np.zeros((d, d))
    l3 = np.zeros((d, d, d))
    for w, c in a.items():
        if len(w) == 1:
            l1[w[0]] = float(c)
        elif len(w) == 2:
            l2[w[0], w[1]] = float(c)
        elif len(w) == 3:
            l3[w[0], w[1], w[2]] = float(c)
    return l0, l1, l2, l3


def chen_signature_words(increments):
    """Exact signature of a piecewise-linear path from a list of increment
    vectors (sequences of rationals)."""
    d = len(increments[0])
    out = wunit()
    for inc in increments:
        seg = {}
        for i, v in enumerate(inc):
            if v != 0:
                seg[(i,)] = Fraction(v)
        out = wmul(out, wexp(seg))
    return out


# ---------------------------------------------------------------------------
# Batch-first raw kernels on level tuples (batch axes first, word axes
# last), written with plain numpy broadcasting, einsum and reductions.  The
# word-first kernels of rough_gauss.tensor_algebra must reproduce them bit
# for bit.


def _mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    s = a0[..., None]
    t = b0[..., None]
    l0 = a0 * b0
    l1 = s * b1 + a1 * t
    l2 = (
        s[..., None] * b2
        + a1[..., :, None] * b1[..., None, :]
        + a2 * t[..., None]
    )
    l3 = (
        s[..., None, None] * b3
        + a1[..., :, None, None] * b2[..., None, :, :]
        + a2[..., :, :, None] * b1[..., None, None, :]
        + a3 * t[..., None, None]
    )
    return l0, l1, l2, l3


def _powers(x1: np.ndarray, x2: np.ndarray):
    """Truncated powers of x = x1 + x2 + x3 (no scalar part): x^2 has level
    2 part sq2 and level 3 part sq3, x^3 has level 3 part cube3."""
    sq2 = np.einsum("...i,...j->...ij", x1, x1)
    sq3 = (
        np.einsum("...i,...jk->...ijk", x1, x2)
        + np.einsum("...ij,...k->...ijk", x2, x1)
    )
    cube3 = np.einsum("...i,...j,...k->...ijk", x1, x1, x1)
    return sq2, sq3, cube3


def _inverse(g):
    l0, x1, x2, x3 = g
    sq2, sq3, cube3 = _powers(x1, x2)
    return np.ones(l0.shape), -x1, -x2 + sq2, -x3 + sq3 - cube3


def _exp(x):
    l0, x1, x2, x3 = x
    sq2, sq3, cube3 = _powers(x1, x2)
    return np.ones(l0.shape), x1, x2 + 0.5 * sq2, x3 + 0.5 * sq3 + cube3 / 6.0


def _log(g):
    l0, x1, x2, x3 = g
    sq2, sq3, cube3 = _powers(x1, x2)
    return np.zeros(l0.shape), x1, x2 - 0.5 * sq2, x3 - 0.5 * sq3 + cube3 / 3.0


def _level_fro(t):
    l0, l1, l2, l3 = t
    d = l1.shape[-1]
    n1 = np.sqrt(np.sum(l1**2, axis=-1))
    n2 = np.sqrt(np.sum(l2.reshape(l0.shape + (d * d,)) ** 2, axis=-1))
    n3 = np.sqrt(np.sum(l3.reshape(l0.shape + (d**3,)) ** 2, axis=-1))
    return n1, n2, n3


def _raw_norm(t):
    n1, n2, n3 = _level_fro(t)
    return np.maximum(n1, np.maximum(n2 ** 0.5, n3 ** (1.0 / 3.0)))


def _norm(g):
    return np.maximum(_raw_norm(g), _raw_norm(_inverse(g)))


def _shuffle_residual(g):
    _, x1, x2, x3 = g
    sym2 = 0.5 * (x2 + np.swapaxes(x2, -1, -2))
    half_sq = 0.5 * np.einsum("...i,...j->...ij", x1, x1)
    r2 = np.sqrt(np.sum((sym2 - half_sq) ** 2, axis=(-2, -1)))
    lhs3 = np.einsum("...i,...jk->...ijk", x1, x2)
    rhs3 = (
        x3
        + np.einsum("...jik->...ijk", x3)
        + np.einsum("...jki->...ijk", x3)
    )
    r3 = np.sqrt(np.sum((lhs3 - rhs3) ** 2, axis=(-3, -2, -1)))
    nrm = np.maximum(_raw_norm(g), 1.0)
    return r2 / nrm**2 + r3 / nrm**3


def normals(seed: int, stream: int, i: int, c: int, m: int) -> np.ndarray:
    """Normals for sample i, component c: one fresh Philox generator with
    key [seed, 0] and counter [0, stream, i, c]."""
    bits = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([0, stream, i, c], dtype=np.uint64),
    )
    return np.random.Generator(bits).standard_normal(m)


# ---------------------------------------------------------------------------
# Enumeration oracles for variation functionals.


def refine_path_interp(path, new_times):
    """Points of ``path`` on the superset grid ``new_times``, one np.interp
    call per (batch element, component), original breakpoints pinned."""
    pos = np.searchsorted(new_times, path.times)
    flat = path.points.reshape(-1, path.n_times, path.dim)
    out = np.empty((flat.shape[0], new_times.size, path.dim))
    for b in range(flat.shape[0]):
        for k in range(path.dim):
            out[b, :, k] = np.interp(new_times, path.times, flat[b, :, k])
    out[:, pos, :] = flat
    return out.reshape(path.points.shape[:-2] + (new_times.size, path.dim))


def pvar_enumeration(dist, n, p):
    """Exact p-variation^p of points 0..n-1 under pairwise distance
    ``dist(i, j)`` by enumerating every dissection (2^(n-2) of them)."""
    best = 0.0
    inner = range(1, n - 1)
    for r in range(0, n - 1):
        for mid in itertools.combinations(inner, r):
            pts = (0,) + mid + (n - 1,)
            s = sum(dist(a, b) ** p for a, b in zip(pts[:-1], pts[1:]))
            best = max(best, s)
    return best


def rect_increment_grid(V, a, b, c, e):
    return V[b, e] - V[b, c] - V[a, e] + V[a, c]


def rho_var_enumeration_2d(V, rho):
    """Exact 2D rho-variation^rho of a grid function by enumerating the
    sub-dissections of both axes.  V has shape (m, n); feasible only for
    small grids (both axes <= 9 points or so)."""
    m, n = V.shape
    best = 0.0
    rows_inner = range(1, m - 1)
    cols_inner = range(1, n - 1)
    for r in range(0, m - 1):
        for rows_mid in itertools.combinations(rows_inner, r):
            rows = (0,) + rows_mid + (m - 1,)
            for c in range(0, n - 1):
                for cols_mid in itertools.combinations(cols_inner, c):
                    cols = (0,) + cols_mid + (n - 1,)
                    s = 0.0
                    for a, b in zip(rows[:-1], rows[1:]):
                        for u, v in zip(cols[:-1], cols[1:]):
                            s += abs(rect_increment_grid(V, a, b, u, v)) ** rho
                    best = max(best, s)
    return best


def exact_sum_by_mask(V, rho):
    """Exact 2D rho-variation^rho by one column DP per row sub-dissection:
    the per-mask loop that ``variation_2d._exact_sum`` batches, with the
    same arithmetic, so the two agree bit for bit."""
    if V.shape[0] > V.shape[1]:
        V = V.T
    m = V.shape[0]
    inner = m - 2
    best = 0.0
    for mask in range(1 << inner):
        rows = [0]
        for b in range(inner):
            if mask >> b & 1:
                rows.append(b + 1)
        rows.append(m - 1)
        best = max(best, _score_given_rows(V, rows, rho))
    return best
