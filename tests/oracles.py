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
