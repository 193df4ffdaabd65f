import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rough_gauss import tensor_algebra as ta
from rough_gauss.tensor_algebra import (
    GroupElement,
    LieElement,
    TruncatedTensor,
    cc_distance,
    dilate,
    exp_trunc,
    group_inverse,
    hall_basis_labels,
    hall_log_signature,
    hall_pairs,
    hall_triples,
    homogeneous_norm,
    identity_element,
    is_group_like,
    lie_dim,
    lie_to_tensor,
    log_trunc,
    shuffle_residual,
    tensor_mul,
    tensor_scale,
    unit_tensor,
    zero_tensor,
)

import oracles
from oracles import bch_bound_check, tensor_to_lie


def dense_levels(entries, d):
    t = {0: np.zeros(()), 1: np.zeros(d), 2: np.zeros((d, d)), 3: np.zeros((d, d, d))}
    for w, c in entries.items():
        t[len(w)][w] = c
    return TruncatedTensor(d, t[0], t[1], t[2], t[3])


def basis_exp(i, d):
    z = zero_tensor(d)
    l1 = z.level1.copy()
    l1[i] = 1.0
    return exp_trunc(TruncatedTensor(d, z.level0, l1, z.level2, z.level3))


def random_lie(rng, d, batch=(), scale=1.0):
    return LieElement(d, scale * rng.standard_normal(batch + (lie_dim(d),)))


# Exact entries computed with the rational word-algebra oracle
# (tests/oracles.py).  g = exp(e1) (x) exp(e2) in d = 2.
SIG_E1_E2 = {
    (): 1.0,
    (0,): 1.0,
    (1,): 1.0,
    (0, 0): 0.5,
    (0, 1): 1.0,
    (1, 1): 0.5,
    (0, 0, 0): 1 / 6,
    (0, 0, 1): 0.5,
    (0, 1, 1): 0.5,
    (1, 1, 1): 1 / 6,
}
LOG_E1_E2 = {
    (0,): 1.0,
    (1,): 1.0,
    (0, 1): 0.5,
    (1, 0): -0.5,
    (0, 0, 1): 1 / 12,
    (0, 1, 0): -1 / 6,
    (0, 1, 1): 1 / 12,
    (1, 0, 0): 1 / 12,
    (1, 0, 1): -1 / 6,
    (1, 1, 0): 1 / 12,
}
INV_E1_E2 = {
    (): 1.0,
    (0,): -1.0,
    (1,): -1.0,
    (0, 0): 0.5,
    (1, 0): 1.0,
    (1, 1): 0.5,
    (0, 0, 0): -1 / 6,
    (1, 0, 0): -0.5,
    (1, 1, 0): -0.5,
    (1, 1, 1): -1 / 6,
}
# Hall coordinates of log(exp(e1) (x) exp(e2)): basis order is
# e1, e2, [e1,e2], [e1,[e1,e2]], [e2,[e1,e2]].
HALL_LOG_E1_E2 = np.array([1.0, 1.0, 0.5, 1 / 12, -1 / 12])


class TestFrozenValues:
    def test_product_of_exponentials(self):
        g = tensor_mul(basis_exp(0, 2), basis_exp(1, 2))
        want = dense_levels(SIG_E1_E2, 2)
        for got, ref in zip(g.tensor.levels(), want.levels()):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_log_of_product(self):
        g = tensor_mul(basis_exp(0, 2), basis_exp(1, 2))
        want = dense_levels(LOG_E1_E2, 2)
        for got, ref in zip(log_trunc(g).levels(), want.levels()):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_inverse_of_product(self):
        g = tensor_mul(basis_exp(0, 2), basis_exp(1, 2))
        want = dense_levels(INV_E1_E2, 2)
        for got, ref in zip(group_inverse(g).tensor.levels(), want.levels()):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_hall_log_signature_of_product(self):
        g = tensor_mul(basis_exp(0, 2), basis_exp(1, 2))
        np.testing.assert_allclose(
            hall_log_signature(g).coords, HALL_LOG_E1_E2, rtol=0, atol=1e-15
        )

    def test_triple_product_log_entry(self):
        # log(exp(e1) exp(e2) exp(e3)) has coefficient 1/3 on word (0,1,2)
        # and 1/3 on (2,1,0); oracle-derived.
        g = tensor_mul(tensor_mul(basis_exp(0, 3), basis_exp(1, 3)), basis_exp(2, 3))
        l3 = log_trunc(g).level3
        assert l3[0, 1, 2] == pytest.approx(1 / 3, abs=1e-15)
        assert l3[2, 1, 0] == pytest.approx(1 / 3, abs=1e-15)
        assert l3[0, 2, 1] == pytest.approx(-1 / 6, abs=1e-15)


class TestWordOracleCrossCheck:
    def test_random_piecewise_linear_signatures(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            for _ in range(25):
                k = rng.integers(1, 5)
                incs = rng.integers(-2, 3, size=(k, d))
                ref = oracles.word_entries_to_arrays(
                    oracles.chen_signature_words([list(r) for r in incs]), d
                )
                g = identity_element(d)
                for inc in incs:
                    z = zero_tensor(d)
                    g = tensor_mul(
                        g,
                        exp_trunc(
                            TruncatedTensor(d, z.level0, inc.astype(float), z.level2, z.level3)
                        ),
                    )
                for got, want in zip(g.tensor.levels(), ref):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_log_and_inverse_against_oracle(self):
        rng = np.random.default_rng(11)
        d = 3
        incs = rng.integers(-2, 3, size=(3, d))
        words = oracles.chen_signature_words([list(r) for r in incs])
        g = identity_element(d)
        for inc in incs:
            z = zero_tensor(d)
            g = tensor_mul(
                g, exp_trunc(TruncatedTensor(d, z.level0, inc.astype(float), z.level2, z.level3))
            )
        for got, want in zip(
            log_trunc(g).levels(), oracles.word_entries_to_arrays(oracles.wlog(words), d)
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(
            group_inverse(g).tensor.levels(),
            oracles.word_entries_to_arrays(oracles.winv(words), d),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


coord_floats = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def lie_elements(draw, dims=(2, 3)):
    d = draw(st.sampled_from(dims))
    coords = draw(
        st.lists(coord_floats, min_size=lie_dim(d), max_size=lie_dim(d))
    )
    return LieElement(d, np.array(coords))


@st.composite
def lie_tuples(draw, n, dims=(2, 3)):
    d = draw(st.sampled_from(dims))
    out = []
    for _ in range(n):
        coords = draw(st.lists(coord_floats, min_size=lie_dim(d), max_size=lie_dim(d)))
        out.append(LieElement(d, np.array(coords)))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(lie_tuples(3))
def test_product_is_associative(abc):
    a, b, c = abc
    ga, gb, gc = exp_trunc(a), exp_trunc(b), exp_trunc(c)
    left = tensor_mul(tensor_mul(ga, gb), gc)
    right = tensor_mul(ga, tensor_mul(gb, gc))
    for x, y in zip(left.tensor.levels(), right.tensor.levels()):
        np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(lie_elements())
def test_exp_log_roundtrip(a):
    back = tensor_to_lie(log_trunc(exp_trunc(a)))
    np.testing.assert_allclose(back.coords, a.coords, rtol=1e-11, atol=1e-11)


@settings(max_examples=60, deadline=None)
@given(lie_elements())
def test_inverse_is_exp_of_negation(a):
    g = exp_trunc(a)
    inv = group_inverse(g)
    neg = exp_trunc(LieElement(a.dim, -a.coords))
    for x, y in zip(inv.tensor.levels(), neg.tensor.levels()):
        np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12)
    e = tensor_mul(g, inv)
    np.testing.assert_allclose(e.tensor.level1, 0, atol=1e-12)
    np.testing.assert_allclose(e.tensor.level2, 0, atol=1e-12)
    np.testing.assert_allclose(e.tensor.level3, 0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(lie_elements(), st.floats(min_value=0.05, max_value=5.0))
# level-3 squares in the subnormal range, and underflowing to zero once dilated
@example(LieElement(2, np.array([0.0, 0.0, 0.0, 0.0, 4.22343823e-159])), 0.5)
@example(LieElement(2, np.array([0.0, 0.0, 0.0, 0.0, 3e-162])), 0.5)
# level-3 entries dilated into the subnormal range, where they keep too few
# bits to equal lam^3 times the original entries
@example(LieElement(2, np.array([0.0, 0.0, 0.0, 0.0, 2.22507386e-313])), 0.125)
def test_norm_homogeneous_under_dilation(a, lam):
    g = exp_trunc(a)
    h = dilate(lam, g)
    n = homogeneous_norm(h)
    np.testing.assert_allclose(n, oracles.homogeneous_norm_exact(h.tensor.levels()), rtol=1e-10)
    # lam * ||g|| is the norm of the exact dilation, which floats hold only
    # where every nonzero entry stays normal
    if all(np.all((v == 0.0) | (np.abs(w) >= 2.0**-1022))
           for v, w in zip(g.tensor.levels(), h.tensor.levels())):
        np.testing.assert_allclose(n, lam * homogeneous_norm(g), rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(lie_tuples(2))
def test_norm_subadditive_and_symmetric(ab):
    a, b = ab
    g, h = exp_trunc(a), exp_trunc(b)
    assert homogeneous_norm(tensor_mul(g, h)) <= homogeneous_norm(g) + homogeneous_norm(h) + 1e-12
    np.testing.assert_allclose(
        homogeneous_norm(g), homogeneous_norm(group_inverse(g)), rtol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(lie_tuples(3))
def test_cc_distance_triangle_and_invariance(abc):
    a, b, c = abc
    g, h, f = exp_trunc(a), exp_trunc(b), exp_trunc(c)
    dgh = cc_distance(g, h)
    assert dgh <= cc_distance(g, f) + cc_distance(f, h) + 1e-10
    # roundoff in the level-3 entries enters the norm through a cube root,
    # so exact left-invariance only holds up to ~eps^(1/3)
    np.testing.assert_allclose(
        cc_distance(tensor_mul(f, g), tensor_mul(f, h)), dgh, rtol=1e-6, atol=1e-4
    )


@settings(max_examples=100, deadline=None)
@given(lie_tuples(2, dims=(2, 3, 4)))
def test_bch_bounds_hold(ab):
    a, b = ab
    assert bool(np.all(bch_bound_check(a, b)))


def test_bch_bound_equality_edge():
    a = LieElement(2, np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
    assert bool(np.all(bch_bound_check(a, a)))


class TestGroupLikeChecks:
    def test_lift_is_group_like(self):
        rng = np.random.default_rng(3)
        g = exp_trunc(random_lie(rng, 3))
        assert is_group_like(g)
        assert shuffle_residual(g) < 1e-14

    def test_corrupted_element_is_flagged(self):
        rng = np.random.default_rng(4)
        g = exp_trunc(random_lie(rng, 3))
        l2 = g.tensor.level2.copy()
        l2[0, 1] += 0.1
        bad = GroupElement(
            TruncatedTensor(3, g.tensor.level0, g.tensor.level1, l2, g.tensor.level3)
        )
        assert not is_group_like(bad)
        with pytest.raises(ValueError):
            hall_log_signature(bad)

    def test_group_element_rejects_bad_scalar(self):
        with pytest.raises(ValueError):
            GroupElement(zero_tensor(2))

    @pytest.mark.parametrize("entries, message", [
        ({(): 1.0}, "zero scalar part"),
        ({(0, 0): 1.0, (1, 1): 1.0}, "level-2 part is not a Lie element"),
        ({(0, 0, 0): 1.0}, "level-3 part is not a Lie element"),
    ], ids=["scalar", "level2", "level3"])
    def test_tensor_to_lie_rejects_non_lie(self, entries, message):
        with pytest.raises(ValueError, match=message):
            tensor_to_lie(dense_levels(entries, 2))


class TestHallBasis:
    @pytest.mark.parametrize("d,count", [(2, 5), (3, 14), (4, 30), (5, 55)])
    def test_dimension_counts(self, d, count):
        assert lie_dim(d) == count
        assert len(hall_basis_labels(d)) == count

    def test_index_sets(self):
        assert hall_pairs(3) == ((0, 1), (0, 2), (1, 2))
        assert (1, 0, 1) in hall_triples(2)
        assert (0, 0, 1) in hall_triples(2)
        assert all(j < k and j <= i for i, j, k in hall_triples(4))

    @settings(max_examples=40, deadline=None)
    @given(lie_elements(dims=(2, 3, 4)))
    def test_hall_coordinates_roundtrip(self, a):
        back = tensor_to_lie(lie_to_tensor(a))
        np.testing.assert_allclose(back.coords, a.coords, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(lie_elements(dims=(2, 3)))
    def test_closed_form_log_matches_power_series(self, a):
        g = exp_trunc(a)
        direct = hall_log_signature(g)
        series = tensor_to_lie(log_trunc(g))
        np.testing.assert_allclose(direct.coords, series.coords, rtol=1e-10, atol=1e-10)


class TestBatching:
    def test_batched_ops_match_elementwise(self):
        rng = np.random.default_rng(12)
        d, n = 3, 17
        a = random_lie(rng, d, batch=(n,))
        b = random_lie(rng, d, batch=(n,))
        ga, gb = exp_trunc(a), exp_trunc(b)
        prod = tensor_mul(ga, gb)
        norms = homogeneous_norm(prod)
        dists = cc_distance(ga, gb)
        logs = hall_log_signature(prod)
        assert norms.shape == (n,) and dists.shape == (n,)
        for i in range(n):
            gai = exp_trunc(LieElement(d, a.coords[i]))
            gbi = exp_trunc(LieElement(d, b.coords[i]))
            pi = tensor_mul(gai, gbi)
            for x, y in zip(prod.tensor.levels(), pi.tensor.levels()):
                np.testing.assert_allclose(x[..., i], y, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(norms[i], homogeneous_norm(pi), rtol=1e-13)
            np.testing.assert_allclose(dists[i], cc_distance(gai, gbi), rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(
                logs.coords[i], hall_log_signature(pi).coords, rtol=1e-12, atol=1e-13
            )

    def test_broadcasting_against_single_element(self):
        rng = np.random.default_rng(13)
        a = random_lie(rng, 2, batch=(4,))
        b = random_lie(rng, 2)
        prod = tensor_mul(exp_trunc(a), exp_trunc(b))
        assert prod.batch_shape == (4,)

    # Levels store the word axes first, so an operand of lower batch rank,
    # or a batched scalar, must be padded with batch axes after its word
    # axes before it broadcasts; the cases below catch a missing pad.

    def test_scale_by_higher_rank_scalar(self):
        rng = np.random.default_rng(15)
        a = random_lie(rng, 3, batch=(5,))
        c = rng.standard_normal((3, 5))
        out = tensor_scale(c, lie_to_tensor(a))
        assert out.batch_shape == (3, 5)
        for i in range(3):
            for j in range(5):
                aj = lie_to_tensor(LieElement(3, a.coords[j]))
                for x, y in zip(out.levels(), tensor_scale(c[i, j], aj).levels()):
                    assert_same_bits(x[..., i, j], y)

    def test_dilate_by_word_shaped_scalar_rejected(self):
        rng = np.random.default_rng(16)
        g = exp_trunc(random_lie(rng, 2, batch=(5,)))
        with pytest.raises(ValueError):
            dilate(rng.uniform(0.5, 2.0, size=(2, 5)), g)

    def test_dilate_by_higher_rank_lam_names_both_shapes(self):
        rng = np.random.default_rng(16)
        g = exp_trunc(random_lie(rng, 2, batch=(5,)))
        with pytest.raises(ValueError, match=r"lam of shape \(3, 5\) .* batch shape \(5,\)"):
            dilate(rng.uniform(0.5, 2.0, size=(3, 5)), g)

    def test_single_against_batch_matches_elementwise(self):
        rng = np.random.default_rng(17)
        d, n = 3, 5
        a = random_lie(rng, d)
        b = random_lie(rng, d, batch=(n,))
        ga, gb = exp_trunc(a), exp_trunc(b)
        products = tensor_mul(ga, gb), tensor_mul(gb, ga)
        dists = cc_distance(ga, gb), cc_distance(gb, ga)
        bounds = bch_bound_check(a, b), bch_bound_check(b, a)
        for i in range(n):
            bi = LieElement(d, b.coords[i])
            gbi = exp_trunc(bi)
            for prod, want in zip(products, (tensor_mul(ga, gbi), tensor_mul(gbi, ga))):
                for x, y in zip(prod.tensor.levels(), want.tensor.levels()):
                    assert_same_bits(x[..., i], y)
            assert_same_bits(dists[0][i], cc_distance(ga, gbi))
            assert_same_bits(dists[1][i], cc_distance(gbi, ga))
            assert bounds[0][i] == bch_bound_check(a, bi)
            assert bounds[1][i] == bch_bound_check(bi, a)


def test_dilation_by_batched_scalars():
    rng = np.random.default_rng(14)
    g = exp_trunc(random_lie(rng, 2, batch=(5,)))
    lam = rng.uniform(0.5, 2.0, size=5)
    scaled = dilate(lam, g)
    np.testing.assert_allclose(homogeneous_norm(scaled), lam * homogeneous_norm(g), rtol=1e-12)


def test_scale_and_unit():
    t = tensor_scale(2.0, unit_tensor(2))
    assert t.level0 == 2.0
    with pytest.raises(ValueError):
        exp_trunc(unit_tensor(2))
    with pytest.raises(ValueError):
        log_trunc(zero_tensor(2))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(got == want)
    # == treats -0.0 and 0.0 as equal; the bytes do not
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


# unit roundoff of doubles rounded to nearest
U = Fraction(1, 2**53)
# half the smallest subnormal: the most a product or quotient can lose to
# underflow beyond its relative rounding error
ETA = Fraction(1, 2**1075)
# 1/3 minus its double, the exponent of the level-3 root in _norm
THIRD_ERR = float(Fraction(1, 3) - Fraction(1 / 3))


def gamma(m):
    """gamma_m = m u / (1 - m u): the relative error of m roundings."""
    return m * U / (1 - m * U)


def random_levels(rng, d, batch, scalar):
    """Word-first levels with entries of magnitude 1e-8 to 1e8, random signs
    and a share of signed zeros."""
    out = [np.full(batch, scalar)]
    for k in (1, 2, 3):
        shape = (d,) * k + batch
        a = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, shape)
        zeros = rng.uniform(size=shape) < 0.2
        a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        out.append(a)
    return tuple(out)


@st.composite
def level_cases(draw):
    d = draw(st.sampled_from([1, 2, 3, 4, 6]))
    batch = draw(st.sampled_from([(), (5,), (2, 3)]))
    return d, batch, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def element(levels, idx):
    """Batch element idx of word-first float levels as an exact word dict;
    length-1 batch axes broadcast."""
    idx = tuple(i % n for i, n in zip(idx, np.shape(levels[0])))
    d = len(levels[1])
    return {w: Fraction(float(a[w + idx])) for k, a in enumerate(levels)
            for w in itertools.product(range(d), repeat=k) if a[w + idx] != 0.0}


def assert_within(got, idx, want, major, m, atol=Fraction(0)):
    """Batch element idx of the float levels got lies within gamma_m times
    the majorant major, plus atol, of the exact word dict want."""
    d, g = len(got[1]), gamma(m)
    for k, a in enumerate(got):
        for w in itertools.product(range(d), repeat=k):
            err = abs(Fraction(float(a[w + idx])) - want.get(w, 0))
            assert err <= g * major.get(w, 0) + atol, (idx, w)


def level_fro(h, k):
    """Frobenius norm of level k of the word dict h, in float."""
    return math.sqrt(float(sum(c * c for w, c in h.items() if len(w) == k)))


def norm_error_bound(g, d, two_sided=False):
    """Bound on |_norm(g) - ||g|||, or with two_sided on |_dist_norm(g) -
    max(||g||, ||g^-1||)|, for the word dict g of a group element.  Each
    entry of _inverse_tail is within gamma_4 of the majorant of the inverse
    series; a Frobenius sum of n squares is within gamma_{n+1} relative;
    the roots round once (one ulp), and the level-3 root raises to the
    double nearest 1/3, which is off by THIRD_ERR ln(x) relative."""
    y, major = oracles.winv(g), oracles.wmajorant(
        {w: c for w, c in g.items() if w}, oracles.INV)
    out = float(gamma(d + 1)) * level_fro(g, 1)
    for k in (2, 3):
        ey = float(gamma(4)) * level_fro(major, k) if two_sided else 0.0
        m = max(level_fro(g, k), level_fro(y, k) if two_sided else 0.0)
        err = float(gamma(d**k + 1)) * (m + ey) + ey
        if m + err == 0.0:
            continue
        hi, lo = m + err, m - err
        # the root moves by at most this over [lo, hi]
        root = (2 * err) ** (1 / k)
        if lo > 0.0:
            root = min(root, 2 * err / (k * lo ** ((k - 1) / k)))
        expo = THIRD_ERR * (hi ** (1 / 3) * abs(math.log(hi)) + 3 / math.e) if k == 3 else 0.0
        out = max(out, root + float(2 * U) * hi ** (1 / k) + expo)
    return out


def shuffle_error_bound(g, d):
    """The exact shuffle residual of the word dict g and a bound on the
    error of _shuffle_residual.  A level-k defect entry rounds k times
    along each of its terms (a2, a3 sum their sizes); the Frobenius sums,
    roots and quotients are bounded as in norm_error_bound."""
    c = lambda *w: g.get(w, Fraction(0))  # noqa: E731
    words2, words3 = (list(itertools.product(range(d), repeat=k)) for k in (2, 3))
    r2 = {w: (c(*w) + c(*w[::-1]) - c(w[0]) * c(w[1])) / 2 for w in words2}
    a2 = {w: (abs(c(*w)) + abs(c(*w[::-1])) + abs(c(w[0]) * c(w[1]))) / 2 for w in words2}
    terms3 = {(i, j, k): (c(i) * c(j, k), c(i, j, k), c(j, i, k), c(j, k, i))
              for i, j, k in words3}
    r3 = {w: t[0] - t[1] - t[2] - t[3] for w, t in terms3.items()}
    a3 = {w: sum(map(abs, t)) for w, t in terms3.items()}
    fro = [level_fro(g, k) for k in (1, 2, 3)]
    nrm = max(1.0, fro[0], fro[1] ** 0.5, fro[2] ** (1 / 3))
    # relative error of the float raw norm, and of nrm above
    nu = float(gamma(d**3 + 2) + 4 * U) + (THIRD_ERR * abs(math.log(fro[2])) if fro[2] else 0.0)
    want = bound = 0.0
    for k, r, a in ((2, r2, a2), (3, r3, a3)):
        rk, ek = level_fro(r, k), float(gamma(k)) * level_fro(a, k)
        err = ek + float(gamma(d**k + 1)) * (rk + ek)
        rel = float(1 + 3 * U) / (1 - nu) ** k - 1
        want += rk / nrm**k
        bound += (err * (1 + rel) + rk * rel) / nrm**k
    return want, bound


class TestWordFirstKernelsBitExact:
    """The raw kernels against the exact word algebra of tests/oracles.py:
    each float entry lies within the rounding-error bound derived from the
    same algebra on absolute values (a majorant) and the number of
    roundings the kernel makes along each product.  The group kernels
    _gmul and _exp_segment also reproduce the general kernels they stand
    in for."""

    @settings(max_examples=40, deadline=None)
    @given(level_cases(), st.booleans())
    def test_mul(self, case, broadcast):
        # an entry sums four products: one rounding each, three for the sum
        d, batch, rng = case
        a = random_levels(rng, d, batch, 1.0)
        b = random_levels(rng, d, batch[1:] if broadcast else batch, 1.0)
        a, b = ta._pad(a, len(batch)), ta._pad(b, len(batch))
        got = ta._mul(a, b)
        for idx in np.ndindex(batch):
            x, y = element(a, idx), element(b, idx)
            assert_within(got, idx, oracles.wmul(x, y),
                          oracles.wmul(oracles.wabs(x), oracles.wabs(y)), 4)

    @settings(max_examples=40, deadline=None)
    @given(level_cases())
    def test_inverse_exp_log(self, case):
        # a level-3 entry rounds four times along each product: the product,
        # the sum of x1 x2 and x2 x1 (or the 1/3, 1/6 scaling of x1^3) and
        # the two sums that add x3 and x1^3
        d, batch, rng = case
        g = random_levels(rng, d, batch, 1.0)
        x = random_levels(rng, d, batch, 0.0)
        for kernel, oracle, coeffs, arg in ((ta._inverse, oracles.winv, oracles.INV, g),
                                            (ta._exp, oracles.wexp, oracles.EXP, x),
                                            (ta._log, oracles.wlog, oracles.LOG, g)):
            got = kernel(arg)
            for idx in np.ndindex(batch):
                e = element(arg, idx)
                tail = {w: c for w, c in e.items() if w}
                assert_within(got, idx, oracle(e), oracles.wmajorant(tail, coeffs), 4)

    @settings(max_examples=40, deadline=None)
    @given(level_cases())
    def test_norm_and_shuffle_residual(self, case):
        d, batch, rng = case
        g = random_levels(rng, d, batch, 1.0)
        # the levels are not group-like, so the one-sided norm and the
        # distance form, symmetrized over g and g^-1, differ
        norms, dists = ta._norm(g), ta._dist_norm(g)
        residuals = ta._shuffle_residual(g)
        u = float(U)
        for idx in np.ndindex(batch):
            e = element(g, idx)
            # the float roots and quotients that turn the exact sums into
            # want are within 3u (norm) and 5u (shuffle residual) of it
            for got, two_sided in ((norms, False), (dists, True)):
                want = oracles.homogeneous_norm_exact([a[(...,) + idx] for a in g], two_sided)
                assert abs(got[idx] - want) <= norm_error_bound(e, d, two_sided) + 3 * u * want
            want, bound = shuffle_error_bound(e, d)
            assert abs(residuals[idx] - want) <= bound + 5 * u * want

    @settings(max_examples=40, deadline=None)
    @given(level_cases(), st.sampled_from(["same", "a", "b", "stream"]),
           st.sampled_from([1.0, 1e-105, 1e-160]))
    def test_gmul(self, case, shapes, scale):
        # "a"/"b": that operand lacks the first batch axis; "stream": the
        # pair stream's (..., rows, 1) against (..., rows, m).  Tiny scales
        # make products underflow to subnormals and signed zeros.
        d, batch, rng = case
        ba, bb = {"same": (batch, batch), "a": (batch[1:], batch),
                  "b": (batch, batch[1:]), "stream": (batch + (1,), batch + (4,))}[shapes]
        a, b = ((lv[0],) + tuple(x * scale for x in lv[1:])
                for lv in (random_levels(rng, d, s, 1.0) for s in (ba, bb)))
        ndim = max(len(ba), len(bb))
        a, b = ta._pad(a, ndim), ta._pad(b, ndim)
        got = ta._gmul(a, b)
        for g, w in zip(got, ta._mul(a, b)):
            assert_same_bits(g, w)
        # entries below 1 in size: each of the two products of an entry may
        # lose ETA to underflow, which later roundings grow by less than half
        for idx in np.ndindex(got[0].shape):
            x, y = element(a, idx), element(b, idx)
            assert_within(got, idx, oracles.wmul(x, y),
                          oracles.wmul(oracles.wabs(x), oracles.wabs(y)), 4,
                          atol=3 * ETA if scale < 1.0 else 0)

    @settings(max_examples=40, deadline=None)
    @given(level_cases(), st.sampled_from([1.0, 1e-105, 1e-160]))
    def test_exp_segment(self, case, scale):
        d, batch, rng = case
        x0, x1 = random_levels(rng, d, batch, 0.0)[:2]
        x1 = x1 * scale
        got = ta._exp_segment(x1)
        general = ta._exp((x0, x1, np.zeros((d, d) + batch), np.zeros((d, d, d) + batch)))
        # equal with ==: the general kernel's sums with zero levels may turn
        # a -0.0 into +0.0
        for g, w in zip(got, general):
            assert np.array_equal(g, w)
        # dx dx, halved, and (dx dx) dx / 6 round at most three times, and
        # with entries below 1 each step may lose ETA to underflow
        for idx in np.ndindex(batch):
            x = element((x0, x1), idx)
            assert_within(got, idx, oracles.wexp(x), oracles.wmajorant(x, oracles.EXP), 3,
                          atol=3 * ETA if scale < 1.0 else 0)
