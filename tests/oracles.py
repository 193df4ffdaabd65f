"""Independent reference implementations used only by the test suite.

Everything here is deliberately slow and simple: exact rational arithmetic
on words for the tensor algebra, and full enumeration for variation
problems.  The package code must agree with these on small instances.
The last section holds paper checks that no experiment runs, built on the
package's own kernels: the tests assert the paper's bounds through them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from rough_gauss.covariance import fbm_cov, square_variation
from rough_gauss.tensor_algebra import (LieElement, TruncatedTensor, _hall_columns, _level_fro,
                                        _pad, _stack, exp_trunc, hall_pairs, lie_to_tensor,
                                        log_trunc, tensor_mul, tensor_scale)
from rough_gauss.variation_2d import _col_pair_weights, _dp_best_columns, _uniform_grid

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


# ---------------------------------------------------------------------------
# Paper checks that no experiment runs: the Hall projection of a Lie tensor,
# the step-3 commutator bound and the fBM rho-variation envelope.


def _hall_reduce_level3(alpha: np.ndarray, d: int) -> np.ndarray:
    """Project a level-3 Lie tensor onto Hall coordinates.

    Dynkin's bracketing map (w Lie of degree 3 implies
    w = 1/3 sum alpha_ijk [e_i,[e_j,e_k]]) followed by the reduction of
    arbitrary triple brackets onto the Hall set: for j<i<k or j<k<i the
    coefficient is alpha_ijk - alpha_ikj + alpha_jik - alpha_jki, and for
    i != j the [e_i,[e_i,e_j]] coefficient is alpha_iij - alpha_iji.
    """
    return _stack(_hall_columns(
        d, lambda i, j: (alpha[i, i, j] - alpha[i, j, i]) / 3.0,
        lambda i, j, k: (alpha[i, j, k] - alpha[i, k, j]
                         + alpha[j, i, k] - alpha[j, k, i]) / 3.0), alpha.shape[3:])


def tensor_to_lie(t: TruncatedTensor) -> LieElement:
    """Hall coordinates of a Lie tensor (zero scalar, levels in the free Lie
    algebra).  Raises if the reconstruction residual exceeds 1e-9 relative
    to the level scale, i.e. if the input is not actually Lie."""
    d = t.dim
    if not np.all(t.level0 == 0.0):
        raise ValueError("Lie element must have zero scalar part")
    c1 = np.moveaxis(t.level1, 0, -1)
    c2 = _stack([t.level2[i, j] for i, j in hall_pairs(d)], t.batch_shape)
    c3 = _hall_reduce_level3(t.level3, d)
    lie = LieElement(d, np.concatenate([c1, c2, c3], axis=-1))
    back = lie_to_tensor(lie)
    for lvl, (got, want) in enumerate(
        [(back.level2, t.level2), (back.level3, t.level3)], start=2
    ):
        scale = np.maximum(np.max(np.abs(want)), 1.0)
        if np.max(np.abs(got - want)) > 1e-9 * scale:
            raise ValueError(f"level-{lvl} part is not a Lie element")
    return lie


def lie_level_norms(t: TruncatedTensor):
    """Per-level norms of a Lie tensor, scaled so that the commutator
    estimates |[u,v]| <= |u| |v| (level 1 x 1 -> 2 and 1 x 2 -> 3) and
    |[u,[u,v]]| <= |u|^2 |v| hold with constant one:

      level 1: Euclidean;  level 2: Frobenius/sqrt(2) (wedge coordinates);
      level 3: Frobenius/sqrt(6).

    Raw Frobenius norms satisfy the same estimates only up to sqrt(2) resp.
    sqrt(6), which is why this scaling is the natural one for step-3 bounds.
    """
    n1, n2, n3 = _level_fro(t.levels())
    return n1, n2 / np.sqrt(2.0), n3 / np.sqrt(6.0)


def bch_bound_check(a: LieElement, b: LieElement):
    """Level-2/3 norm bounds for m = log(exp(-a) (x) exp(b)).

    Asserts, in the scaled Lie level norms of :func:`lie_level_norms`,

      |pi2(m)| <= |b2 - a2| + 1/2 |b1 - a1| |b1|
      |pi3(m)| <= |b3 - a3| + 1/2 |b2 - a2| |b1|
                  + |b1 - a1| (1/2 |b2| + 1/12 |a1|^2 + 1/12 |b1|^2)

    Returns a boolean array over the (broadcast) batch: True where both
    inequalities hold.  A relative slack of 1e-12 absorbs float error in the
    equality cases (e.g. a = b).
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    ta, tb = lie_to_tensor(a), lie_to_tensor(b)
    m = log_trunc(tensor_mul(exp_trunc(tensor_scale(-1.0, ta)), exp_trunc(tb)))
    _, m2, m3 = lie_level_norms(m)
    a1, a2, a3 = lie_level_norms(ta)
    b1, b2, b3 = lie_level_norms(tb)
    ndim = max(len(ta.batch_shape), len(tb.batch_shape))
    pa, pb = _pad(ta.levels(), ndim), _pad(tb.levels(), ndim)
    diff = TruncatedTensor(ta.dim, *(y - x for x, y in zip(pa, pb)))
    d1, d2, d3 = lie_level_norms(diff)
    rhs2 = d2 + 0.5 * d1 * b1
    rhs3 = d3 + 0.5 * d2 * b1 + d1 * (0.5 * b2 + (a1**2 + b1**2) / 12.0)
    ok2 = m2 <= rhs2 + 1e-12 * (1.0 + rhs2)
    ok3 = m3 <= rhs3 + 1e-12 * (1.0 + rhs3)
    return np.logical_and(ok2, ok3)


def fbm_rhovar_bound_check(H: float) -> dict:
    """Linear-envelope check for the 1/(2H)-variation of the fractional
    covariance: exact grid variation over the nested squares [0, w]^2,
    w = 1, 1/2, 1/4 (each sampled with 8 uniform intervals), value/w ratios,
    and the sign of disjoint-increment covariances (nonpositive for
    H < 1/2)."""
    if not 0.0 < H <= 0.5:
        raise ValueError("H must lie in (0, 1/2]")
    k = fbm_cov(H)
    rho = k.rho
    sizes = (1.0, 0.5, 0.25)
    values, ratios = [], []
    for w in sizes:
        val = square_variation(k, w, 8, rho)
        values.append(val)
        ratios.append(val / w)
    h = 0.05
    # E(B_{0,h} B_{2h,3h}) in closed form
    disjoint = 0.5 * h ** (2 * H) * (3.0 ** (2 * H) + 1.0 - 2.0 ** (1 + 2 * H))
    g = _uniform_grid(8)
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
        "sizes": list(sizes),
        "values": values,
        "ratios": ratios,
        "ratio_spread": float(max(ratios) / min(ratios)),
        "empirical_C": float(max(ratios)),
        "disjoint_increment_cov": float(disjoint),
        "max_disjoint_rect": float(worst_disjoint),
        "disjoint_nonpositive": bool(worst_disjoint <= 1e-12),
    }
