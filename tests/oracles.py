"""Independent reference implementations used only by the test suite.

Everything here is deliberately slow and simple: exact rational arithmetic
on words for the tensor algebra, and full enumeration for variation
problems.  The package code must agree with these on small instances.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from rough_gauss.variation_2d import _col_pair_weights, _dp_best_columns

# ---------------------------------------------------------------------------
# Word-indexed truncated tensor algebra over Q.
# An element is a dict mapping tuples of letters (length 0..3) to Fraction.

TRUNC = 3


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
    # b's words by length, so that only products within TRUNC are visited
    by_len = [[(w, c) for w, c in b.items() if len(w) == k] for k in range(TRUNC + 1)]
    out = {}
    for wa, ca in a.items():
        for k in range(TRUNC + 1 - len(wa)):
            for wb, cb in by_len[k]:
                out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


# coefficients of the truncated series of exp(x), log(1 + x) and (1 + x)^-1
EXP = (1, 1, Fraction(1, 2), Fraction(1, 6))
LOG = (0, 1, Fraction(-1, 2), Fraction(1, 3))
INV = (1, -1, 1, -1)


def wseries(x, coeffs):
    """sum_n coeffs[n] x^n for n = 0..TRUNC."""
    out, term = wscale(coeffs[0], wunit()), wunit()
    for c in coeffs[1:]:
        term = wmul(term, x)
        out = wadd(out, wscale(c, term))
    return out


def _tail(g):
    assert g.get((), Fraction(0)) == 1
    return {w: c for w, c in g.items() if w}


def wexp(x):
    assert x.get((), Fraction(0)) == 0
    return wseries(x, EXP)


def wlog(g):
    return wseries(_tail(g), LOG)


def winv(g):
    return wseries(_tail(g), INV)


def wabs(a):
    return {w: abs(c) for w, c in a.items()}


def wmajorant(x, coeffs):
    """sum_n |coeffs[n]| |x|^n: entry by entry, the sum of the absolute
    values of the products that the series of x sums.  A float evaluation
    that rounds at most m times along each product is within gamma_m =
    m u / (1 - m u) times this of the exact series, for the unit roundoff
    u = 2^-53, as long as no product underflows (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 3.1)."""
    return wseries(wabs(x), [abs(c) for c in coeffs])


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


def _root(x: Fraction, n: int) -> float:
    """x ** (1/n) of a non-negative rational.  x is first scaled by an exact
    power 2^(n e) into [2^-n, 2^n], so neither it nor the root leaves the
    normal float range before the final exact rescaling by 2^e."""
    if x == 0:
        return 0.0
    e = (x.numerator.bit_length() - x.denominator.bit_length()) // n
    return math.ldexp(float(x / Fraction(2) ** (n * e)) ** (1.0 / n), e)


def homogeneous_norm_exact(levels, two_sided: bool = False) -> float:
    """Homogeneous norm of one group element given by float levels (l0, l1,
    l2, l3): the max of |pi_k(g)|^(1/k), and with two_sided also over
    g^-1, with the entries, the inverse (winv) and the sums of squares exact
    in rationals, and only the roots taken in float."""
    g = {}
    for k, a in enumerate(levels):
        for w in itertools.product(range(len(levels[1])), repeat=k):
            g[w] = Fraction(float(np.asarray(a)[w]))
    out = 0.0
    for h in (g, winv(g)) if two_sided else (g,):
        for k in (1, 2, 3):
            squares = sum((c * c for w, c in h.items() if len(w) == k), Fraction(0))
            out = max(out, _root(squares, 2 * k))
    return out


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
        best = max(best, _dp_best_columns(_col_pair_weights(V, rows, rho))[1])
    return best
