import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_gauss import tensor_algebra as ta
from rough_gauss.tensor_algebra import (
    GroupElement,
    LieElement,
    TruncatedTensor,
    bch_bound_check,
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
    tensor_to_lie,
    unit_tensor,
    zero_tensor,
)

import oracles


def dense_from_words(entries, d):
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
        want = dense_from_words(SIG_E1_E2, 2)
        for got, ref in zip(g.tensor.levels(), want.levels()):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_log_of_product(self):
        g = tensor_mul(basis_exp(0, 2), basis_exp(1, 2))
        want = dense_from_words(LOG_E1_E2, 2)
        for got, ref in zip(log_trunc(g).levels(), want.levels()):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_inverse_of_product(self):
        g = tensor_mul(basis_exp(0, 2), basis_exp(1, 2))
        want = dense_from_words(INV_E1_E2, 2)
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
def test_norm_homogeneous_under_dilation(a, lam):
    g = exp_trunc(a)
    n = homogeneous_norm(g)
    np.testing.assert_allclose(homogeneous_norm(dilate(lam, g)), lam * n, rtol=1e-10)


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

    def test_tensor_to_lie_rejects_non_lie(self):
        t = unit_tensor(2)
        sym = TruncatedTensor(
            2, np.zeros(()), np.zeros(2), np.eye(2), np.zeros((2, 2, 2))
        )
        with pytest.raises(ValueError):
            tensor_to_lie(sym)
        del t


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
                np.testing.assert_allclose(x[i], y, rtol=1e-13, atol=1e-13)
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


def random_levels(rng, d, batch, scalar):
    """Levels with entries of magnitude 1e-8 to 1e8, random signs and a
    share of signed zeros."""
    out = [np.full(batch, scalar)]
    for k in (1, 2, 3):
        shape = batch + (d,) * k
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


class TestWordFirstKernelsBitExact:
    """The word-first kernels, reached through the _to_words/_from_words
    boundary, reproduce the batch-first kernels in tests/oracles.py bit for
    bit.  d = 6 has 216 level-3 words, past numpy's 128-term pairwise
    block, so the recursive split of the Frobenius sum is exercised."""

    @settings(max_examples=40, deadline=None)
    @given(level_cases(), st.booleans())
    def test_mul(self, case, broadcast):
        d, batch, rng = case
        a = random_levels(rng, d, batch, 1.0)
        b = random_levels(rng, d, batch[1:] if broadcast else batch, 1.0)
        ndim = len(batch)
        got = ta._from_words(ta._mul(ta._to_words(a, ndim), ta._to_words(b, ndim)))
        for g, w in zip(got, oracles._mul(a, b)):
            assert_same_bits(g, w)

    @settings(max_examples=40, deadline=None)
    @given(level_cases())
    def test_inverse_exp_log(self, case):
        d, batch, rng = case
        g = random_levels(rng, d, batch, 1.0)
        x = random_levels(rng, d, batch, 0.0)
        for kernel, oracle, arg in ((ta._inverse, oracles._inverse, g),
                                    (ta._exp, oracles._exp, x),
                                    (ta._log, oracles._log, g)):
            got = ta._from_words(kernel(ta._to_words(arg)))
            for a, w in zip(got, oracle(arg)):
                assert_same_bits(a, w)

    @settings(max_examples=40, deadline=None)
    @given(level_cases())
    def test_norm_and_shuffle_residual(self, case):
        d, batch, rng = case
        g = random_levels(rng, d, batch, 1.0)
        words = ta._to_words(g)
        assert_same_bits(ta._norm(words), oracles._norm(g))
        assert_same_bits(ta._shuffle_residual(words), oracles._shuffle_residual(g))
