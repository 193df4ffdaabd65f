"""Finite-rank Cameron-Martin elements, inner products, and the variation
embedding against the covariance's 2D variation."""

import tracemalloc

import numpy as np
import pytest

from rough_gauss.cameron_martin import (
    CMElement,
    cm_eval,
    cm_inner,
    cm_norm_sq,
    embedding_check,
    fbm_increment_response_check,
    pvar_1d,
)
from rough_gauss.covariance import bm_cov, bridge_cov, fbm_cov, ou_cov
from rough_gauss.variation_2d import EXACT_INTERVAL_CAP, YOUNG_INTERVAL_CAP

from oracles import pvar_enumeration

EMBED_KERNELS = [
    bm_cov(),
    fbm_cov(0.3),
    fbm_cov(0.4),
    fbm_cov(0.5),
    ou_cov(theta=1.3),
    bridge_cov(bm_cov()),
]


class TestElements:
    def test_zero_weights_give_zero_element(self):
        h = CMElement(bm_cov(), np.array([0.2, 0.7]), np.zeros(2))
        assert np.all(cm_eval(h, np.linspace(0, 1, 9)) == 0.0)
        assert cm_inner(h, h) == 0.0

    def test_bm_single_node_is_unit_slope_path(self):
        # h(t) = min(1, t) = t on [0,1]; <h,h> = R(1,1) = 1
        h = CMElement(bm_cov(), np.array([1.0]), np.array([1.0]))
        t = np.linspace(0.0, 1.0, 11)
        assert np.allclose(cm_eval(h, t), t, atol=0.0)
        assert cm_inner(h, h) == 1.0

    def test_eval_scalar_time(self):
        h = CMElement(bm_cov(), np.array([1.0]), np.array([2.0]))
        assert cm_eval(h, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_inner_symmetry_and_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        for k in EMBED_KERNELS:
            for _ in range(20):
                a = CMElement(k, np.sort(rng.uniform(0, 1, 3)), rng.normal(size=3))
                b = CMElement(k, np.sort(rng.uniform(0, 1, 2)), rng.normal(size=2))
                ab = cm_inner(a, b)
                assert ab == pytest.approx(cm_inner(b, a), rel=1e-12, abs=1e-14)
                assert ab * ab <= cm_norm_sq(a) * cm_norm_sq(b) * (1 + 1e-10) + 1e-14

    def test_norm_sq_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = CMElement(fbm_cov(0.35), np.sort(rng.uniform(0, 1, 4)),
                          rng.normal(size=4) * 3)
            assert cm_norm_sq(h) >= 0.0

    def test_inner_holds_one_row_block(self):
        # the 2 048-node Gram form alone is 32 MiB, and fBM's kernel forms
        # more arrays of its size; a block of its rows is about 1 MiB.  A
        # form of one block keeps the bytes of the whole matrix product.
        rng = np.random.default_rng(12)
        h = CMElement(fbm_cov(0.4), np.sort(rng.uniform(0, 1, 2048)), rng.normal(size=2048))
        tracemalloc.start()
        try:
            got = cm_norm_sq(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        gram = h.kernel.eval(h.nodes[:, None], h.nodes[None, :])
        assert got == pytest.approx(h.weights @ gram @ h.weights, rel=1e-12)
        small = CMElement(h.kernel, h.nodes[:4], h.weights[:4])
        assert cm_inner(small, h) == float(small.weights @ gram[:4] @ h.weights)

    def test_kernel_mismatch_rejected(self):
        a = CMElement(bm_cov(), np.array([0.5]), np.array([1.0]))
        b = CMElement(fbm_cov(0.4), np.array([0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            cm_inner(a, b)

    def test_same_kernel_fresh_instance_accepted(self):
        # equality is by (name, params), not object identity
        a = CMElement(fbm_cov(0.3), np.array([0.5]), np.array([1.0]))
        b = CMElement(fbm_cov(0.3), np.array([0.25]), np.array([-1.0]))
        assert np.isfinite(cm_inner(a, b))

    def test_invalid_element_data(self):
        with pytest.raises(ValueError):
            CMElement(bm_cov(), np.array([0.2, 1.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            CMElement(bm_cov(), np.array([0.2]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CMElement(bm_cov(), np.array([0.2]), np.array([np.nan]))


class TestPvar1D:
    def test_monotone_path_any_rho(self):
        x = np.array([0.0, 0.5, 0.7, 1.3, 2.0])
        for rho in (1.0, 1.5, 2.0, 3.7):
            assert pvar_1d(x, rho) == pytest.approx(2.0, rel=1e-14)

    def test_zigzag_rho_one_counts_every_increment(self):
        assert pvar_1d(np.array([0.0, 1.0, 0.0, 1.0]), 1.0) == pytest.approx(3.0)

    def test_dp_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for n in (5, 9, 12):
            x = np.cumsum(rng.normal(size=n))
            for rho in (1.0, 1.3, 2.2):
                want = pvar_enumeration(lambda i, j: abs(x[j] - x[i]), n, rho)
                assert pvar_1d(x, rho) ** rho == pytest.approx(want, rel=1e-12)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 3, 10)).cumsum(axis=-1)
        batched = pvar_1d(xs, 1.8)
        for i in range(4):
            for j in range(3):
                assert batched[i, j] == pytest.approx(pvar_1d(xs[i, j], 1.8))

    def test_degenerate_and_errors(self):
        assert pvar_1d(np.array([3.0]), 2.0) == 0.0
        with pytest.raises(ValueError):
            pvar_1d(np.array([0.0, 1.0]), 0.5)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="finite"):
            pvar_1d(np.array([0.0, 1.0, 0.5]), rho)

    def test_overflowing_sum_rejected(self):
        # 0.5^2000 underflows and 1.5^2000 overflows; both sums are taken
        # again over M = the largest pair value, whose term is exactly 1
        assert pvar_1d(np.array([0.0, 0.5]), 2000.0) == 0.5
        assert pvar_1d(np.array([0.0, -0.75, 0.75]), 2000.0) == 1.5
        # a pair value that itself overflows has no scale to take it again
        # over; one such path of a batch is enough
        message = "the rho = 2000.0 variation sum is not finite"
        with pytest.raises(ValueError, match=message):
            pvar_1d(np.array([[0.0, 1.0, 0.0], [0.0, -1e308, 1e308]]), 2000.0)

    def test_large_rho_sum_is_scaled(self):
        # 10^400 overflows and 0.01^400 underflows to 0; the variation is
        # homogeneous of degree 1, and a path whose plain sum is finite and
        # non-zero keeps its bits
        x = np.array([0.0, 1.0, 0.0])
        base = pvar_1d(x, 400.0)
        assert base == 2.0 ** (1.0 / 400.0)
        got = pvar_1d(np.stack([x, 10.0 * x, 0.01 * x, np.full(3, 1e300)]), 400.0)
        assert got[0] == base and got[3] == 0.0
        np.testing.assert_allclose(got[1:3], [10.0 * base, 0.01 * base], rtol=1e-12)


class TestEmbedding:
    def test_zero_element_trivially_ok(self):
        h = CMElement(bm_cov(), np.array([0.5]), np.array([0.0]))
        res = embedding_check(h, grid_intervals=8)
        assert res.ok and res.lhs == 0.0

    def test_bm_unit_slope_is_sharp(self):
        # LHS = |t|_{1-var} = 1; RHS = sqrt(1) * sqrt(1-var of min) = 1
        h = CMElement(bm_cov(), np.array([1.0]), np.array([1.0]))
        res = embedding_check(h, rho=1.0, grid_intervals=16)
        assert res.ok and res.mode == "exact"
        assert res.lhs == pytest.approx(1.0, abs=1e-10)
        assert res.rhs == pytest.approx(1.0, abs=1e-10)
        assert abs(res.slack) <= 1e-10

    def test_fbm_three_node_positive_slack(self):
        rng = np.random.default_rng(7)
        h = CMElement(fbm_cov(0.4), np.sort(rng.uniform(0, 1, 3)),
                      rng.normal(size=3))
        res = embedding_check(h, rho=1.25, grid_intervals=16)
        assert res.ok and res.mode == "exact"
        assert res.slack > 0.0

    def test_random_elements_across_kernels(self):
        rng = np.random.default_rng(901)
        for k in EMBED_KERNELS:
            for _ in range(25):
                m = int(rng.integers(1, 5))
                h = CMElement(k, np.sort(rng.uniform(0, 1, m)),
                              rng.normal(size=m) * 2.0)
                res = embedding_check(h, grid_intervals=16)
                assert res.ok, (k.name, res)

    def test_large_grid_reports_consistent(self):
        h = CMElement(bm_cov(), np.array([1.0]), np.array([1.0]))
        res = embedding_check(h, grid_intervals=EXACT_INTERVAL_CAP * 2)
        assert res.ok
        assert res.mode == "consistent"

    @pytest.mark.parametrize("n", [0, YOUNG_INTERVAL_CAP + 1, 10**12])
    def test_grid_intervals_bounded(self, n):
        # rejected before the grid is built
        h = CMElement(bm_cov(), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match=r"grid_intervals must be (>= 1|<= 4096)"):
            embedding_check(h, grid_intervals=n)


class TestFbmIncrementResponse:
    def test_ratio_is_exactly_one(self):
        # h(u) = E(B_u B_{s,t}) is monotone on [s,t], so its rho-variation is
        # the full increment E(B_{s,t}^2) = |t-s|^{2H}: the bound holds with
        # C = 1 and equality, uniformly over dyadic intervals.
        for H in (0.3, 0.4, 0.5):
            out = fbm_increment_response_check(H)
            assert out["max_ratio"] == pytest.approx(1.0, abs=1e-12)
            assert out["ratio_spread"] <= 1e-12

    def test_rejects_h_above_half(self):
        with pytest.raises(ValueError):
            fbm_increment_response_check(0.6)
