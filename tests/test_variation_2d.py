import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest

from rough_gauss import variation_2d
from rough_gauss.variation_2d import (
    Control2D,
    GridFunction2D,
    _dp_best_columns,
    _exact_sum,
    _longest_path,
    _upper_rows,
    bilinear_eval,
    control_from_variation,
    rect_increment,
    rho_prime_limit_check,
    rho_variation,
    young_bound_check,
    young_constant,
    young_integral_2d,
)

import oracles


def grid_fn(values, s=None, t=None):
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    s = np.linspace(0, 1, m) if s is None else np.asarray(s, dtype=float)
    t = np.linspace(0, 1, n) if t is None else np.asarray(t, dtype=float)
    return GridFunction2D(s, t, values)


def min_cov(n):
    g = np.linspace(0.0, 1.0, n)
    return GridFunction2D(g, g, np.minimum.outer(g, g))


def fbm_cov_grid(n, H):
    g = np.linspace(0.0, 1.0, n)
    S, T = np.meshgrid(g, g, indexing="ij")
    V = 0.5 * (S ** (2 * H) + T ** (2 * H) - np.abs(S - T) ** (2 * H))
    return GridFunction2D(g, g, V)


class TestRectIncrement:
    def test_degenerate_is_zero(self):
        f = min_cov(5)
        assert rect_increment(f, 0.25, 0.25, 0.0, 1.0) == 0.0

    def test_bm_overlap_length(self):
        f = min_cov(5)
        assert rect_increment(f, 0.0, 0.5, 0.25, 0.75) == pytest.approx(0.25, abs=1e-15)
        assert rect_increment(f, 0.0, 0.25, 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_separable_factorizes(self):
        rng = np.random.default_rng(0)
        gv, hv = rng.standard_normal(6), rng.standard_normal(6)
        f = grid_fn(np.outer(gv, hv))
        s, t = f.s_grid, f.t_grid
        got = rect_increment(f, s[1], s[4], t[0], t[3])
        assert got == pytest.approx((gv[4] - gv[1]) * (hv[3] - hv[0]), rel=1e-12)

    def test_additive_under_splits(self):
        rng = np.random.default_rng(1)
        f = grid_fn(rng.standard_normal((7, 7)))
        s, t = f.s_grid, f.t_grid
        whole = rect_increment(f, s[0], s[5], t[1], t[6])
        parts = rect_increment(f, s[0], s[3], t[1], t[6]) + rect_increment(
            f, s[3], s[5], t[1], t[6]
        )
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError):
            rect_increment(min_cov(5), 0.0, 0.3, 0.0, 1.0)


class TestLongestPath:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_best_columns_is_heaviest_dissection(self, n):
        rng = np.random.default_rng(n)
        B = np.triu(rng.random((n, n)), k=1)
        cols = _dp_best_columns(B)
        assert cols[0] == 0 and cols[-1] == n - 1
        assert all(a < b for a, b in zip(cols[:-1], cols[1:]))
        total = 0.0
        for a, b in zip(cols[:-1], cols[1:]):
            total += B[a, b]
        assert total == _longest_path(_upper_rows(B))[-1]
        best = 0.0
        for inner in itertools.product([False, True], repeat=n - 2):
            pts = [0] + [i + 1 for i in range(n - 2) if inner[i]] + [n - 1]
            best = max(best, sum(B[a, b] for a, b in zip(pts[:-1], pts[1:])))
        assert total == pytest.approx(best, rel=1e-12)

    def test_batched_matches_per_element(self):
        rng = np.random.default_rng(3)
        W = rng.random((3, 4, 7, 7))
        got = _longest_path(_upper_rows(W))
        assert got.shape == (3, 4, 7)
        for i in range(3):
            for j in range(4):
                np.testing.assert_array_equal(got[i, j], _longest_path(_upper_rows(W[i, j])))


class TestRhoVariation:
    def test_exact_matches_double_enumeration(self):
        rng = np.random.default_rng(2)
        for shape in [(5, 5), (6, 4), (7, 7)]:
            for _ in range(4):
                V = rng.standard_normal(shape)
                f = grid_fn(V)
                for rho in (1.0, 1.5, 2.5):
                    ref = oracles.rho_var_enumeration_2d(V, rho) ** (1 / rho)
                    got = rho_variation(f, rho, mode="exact")
                    assert got.exact and got.lower_bound
                    assert got.value == pytest.approx(ref, rel=1e-12)

    def test_exact_sum_equals_per_mask_loop(self):
        rng = np.random.default_rng(7)
        shapes = [(2, 6), (6, 2), (3, 5), (5, 3), (7, 4), (4, 9), (8, 8)]
        for shape in shapes:
            V = rng.standard_normal(shape)
            for rho in (1.0, 2.0, rng.uniform(1.0, 3.0)):
                assert _exact_sum(V, rho) == oracles.exact_sum_by_mask(V, rho)

    def test_exact_sum_equals_per_mask_loop_at_cap(self):
        V = fbm_cov_grid(17, 0.4).values
        assert _exact_sum(V, 1.25) == oracles.exact_sum_by_mask(V, 1.25)

    def test_exact_sum_memory_is_block_bounded(self):
        # the row-pair table plus one block of dissections, never all of them
        grids = [(fbm_cov_grid(17, 0.4).values, 8e6),
                 (np.random.default_rng(8).standard_normal((9, 200)), 20e6)]
        for V, limit in grids:
            tracemalloc.start()
            try:
                _exact_sum(V, 1.25)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, V.shape

    @pytest.mark.parametrize("mode", ["exact", "local-search", "common-subdivision"])
    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_non_finite_rho_rejected(self, mode, rho):
        with pytest.raises(ValueError, match="finite"):
            rho_variation(min_cov(5), rho, mode=mode)

    def test_min_kernel_rho1_is_one(self):
        for n in (5, 9):
            res = rho_variation(min_cov(n), 1.0, mode="exact")
            assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_separable_product_bound(self):
        rng = np.random.default_rng(3)
        rho = 1.5
        for _ in range(5):
            gv, hv = rng.standard_normal(6), rng.standard_normal(6)
            f = grid_fn(np.outer(gv, hv))
            var2d = rho_variation(f, rho, mode="exact").value
            var_g = oracles.pvar_enumeration(lambda i, j: abs(gv[j] - gv[i]), 6, rho) ** (1 / rho)
            var_h = oracles.pvar_enumeration(lambda i, j: abs(hv[j] - hv[i]), 6, rho) ** (1 / rho)
            assert var2d <= var_g * var_h * (1 + 1e-10)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(4)
        V = rng.standard_normal((6, 6))
        V = V + V.T
        f = grid_fn(V)
        vals = [rho_variation(f, r, mode="exact").value for r in (1.0, 1.3, 1.8, 2.5)]
        assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))

    def test_local_search_never_above_exact(self):
        rng = np.random.default_rng(5)
        hits = 0
        total = 40
        for _ in range(total):
            V = rng.standard_normal((7, 7))
            f = grid_fn(V)
            ex = rho_variation(f, 1.8, mode="exact").value
            ls = rho_variation(f, 1.8, mode="local-search", seed=11)
            assert not ls.exact and ls.lower_bound
            assert ls.value <= ex * (1 + 1e-10)
            hits += ls.value >= ex * (1 - 1e-10)
        assert hits >= 0.9 * total

    def test_common_subdivision_sandwich(self):
        for f in (min_cov(8), fbm_cov_grid(8, 0.35)):
            rho = 1.4
            ex = rho_variation(f, rho, mode="exact").value
            cs = rho_variation(f, rho, mode="common-subdivision")
            assert cs.value <= ex * (1 + 1e-10)
            assert ex <= cs.metadata["upper_bound"] * (1 + 1e-10)
            factor = cs.metadata["comparison_factor_power_scale"]
            assert factor == pytest.approx(3.0 ** (rho - 1.0))

    def test_restricted_rectangle(self):
        f = min_cov(9)
        res = rho_variation(f, 1.0, rect=(0.25, 0.75, 0.25, 0.75), mode="exact")
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_errors(self):
        f = min_cov(20)
        with pytest.raises(ValueError):
            rho_variation(f, 1.5, mode="exact")  # both axes above the cap
        with pytest.raises(ValueError):
            rho_variation(min_cov(5), 0.8)
        with pytest.raises(ValueError):
            rho_variation(grid_fn(np.zeros((4, 5))), 1.2, mode="common-subdivision")
        with pytest.raises(ValueError):
            rho_variation(f, 1.0, mode="diagonal")


class TestRhoPrimeLimit:
    def test_bm_monotone_to_limit(self):
        rep = rho_prime_limit_check(min_cov(7), 1.0)
        assert rep["monotone_increasing_to_limit"]
        assert rep["limit_value"] == pytest.approx(1.0, rel=1e-12)
        assert rep["values"][-1] <= rep["limit_value"] + 1e-12

    def test_separable_smooth(self):
        g = np.linspace(0, 1, 7) ** 2
        rep = rho_prime_limit_check(grid_fn(np.outer(g, g)), 1.2)
        assert rep["monotone_increasing_to_limit"]

    def test_constant_function(self):
        rep = rho_prime_limit_check(grid_fn(np.full((5, 5), 3.0)), 1.0)
        assert rep["limit_value"] == 0.0
        assert all(v == 0.0 for v in rep["values"])


class TestYoungIntegral:
    def test_product_measure_of_constant(self):
        g = np.linspace(0, 1, 9)
        st = GridFunction2D(g, g, np.outer(g, g))
        ones = GridFunction2D(g, g, np.ones((9, 9)))
        res = young_integral_2d(partial(bilinear_eval, ones), partial(bilinear_eval, st),
                                g, g, levels=3)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.converged

    def test_bm_against_bm_approaches_half(self):
        # dR_BM is the unit mass on the diagonal, so the integral of R_BM
        # against it is \int_0^1 u du = 1/2; left sums give (1 - h)/2
        ker = lambda S, T: np.minimum.outer(S, T)
        g = np.linspace(0.0, 1.0, 17)
        res = young_integral_2d(ker, ker, g, g, levels=4)
        assert res.value == pytest.approx(0.5 * (1 - 1 / 256), abs=1e-12)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=3e-3)

    def test_zero_integrand(self):
        g = np.linspace(0, 1, 5)
        zero = GridFunction2D(g, g, np.zeros((5, 5)))
        res = young_integral_2d(partial(bilinear_eval, zero),
                                partial(bilinear_eval, min_cov(5)), g, g, levels=2)
        assert res.value == 0.0

    def test_nan_between_grid_points_rejected(self):
        # finite on the base grid, NaN at every refined point
        g = np.linspace(0, 1, 5)

        def f_eval(S, T):
            on_grid = np.isin(S, g)[:, None] & np.isin(T, g)[None, :]
            return np.where(on_grid, 1.0, np.nan)

        ker = lambda S, T: np.minimum.outer(S, T)
        with pytest.raises(ValueError, match="non-finite grid values"):
            young_integral_2d(f_eval, ker, g, g, levels=2)

    def test_refinement_cap_rejected_before_evaluation(self):
        def never(S, T):
            raise AssertionError("evaluated past the refinement cap")

        # 8 << 9 intervals is the cap itself; one more level exceeds it
        g = np.linspace(0, 1, 9)
        for levels in (10, 12, 10**6):
            with pytest.raises(ValueError, match=f"levels={levels} refines the 8 x 8"):
                young_integral_2d(never, never, g, g, levels=levels)


class TestYoungBound:
    def test_zero_f_trivially_true(self):
        g = np.linspace(0, 1, 6)
        zero = GridFunction2D(g, g, np.zeros((6, 6)))
        assert young_bound_check(zero, min_cov(6), q=1.5, p=1.5)

    def test_random_separable(self):
        rng = np.random.default_rng(6)
        g = np.linspace(0, 1, 7)
        for _ in range(5):
            a = np.cumsum(rng.uniform(0, 0.3, size=7))
            b = np.cumsum(rng.uniform(0, 0.3, size=7))
            f = GridFunction2D(g, g, np.outer(a, b))
            h = GridFunction2D(g, g, np.outer(b, a))
            assert young_bound_check(f, h, q=1.3, p=1.4, levels=2)

    def test_grid_mismatch_rejected(self):
        a = min_cov(5)
        b = min_cov(6)
        with pytest.raises(ValueError):
            young_bound_check(a, b, q=1.5, p=1.5)

    def test_bm_bm(self):
        ker = lambda S, T: np.minimum.outer(S, T)
        f = min_cov(9)
        assert young_bound_check(f, f, q=1.0, p=1.0, levels=3, f_eval=ker, g_eval=ker)

    def test_exponent_condition_enforced(self):
        with pytest.raises(ValueError):
            young_constant(2.5, 2.5)
        for p, q in ((np.nan, 2.0), (2.0, np.nan)):
            with pytest.raises(ValueError):
                young_constant(p, q)
        assert young_constant(1.0, 1.0) == pytest.approx((1 + np.pi**2 / 6) ** 2)

    def test_nan_exponent_rejected_before_integration(self, monkeypatch):
        def no_integral(*args, **kwargs):
            raise AssertionError("integral computed before the exponent check")

        monkeypatch.setattr(variation_2d, "young_integral_2d", no_integral)
        f = min_cov(5)
        with pytest.raises(ValueError):
            young_bound_check(f, f, 2.0, np.nan)


class TestControl:
    def test_bm_control_is_length(self):
        ctrl = control_from_variation(min_cov(9), 1.0)
        assert ctrl(0.25, 0.75, 0.25, 0.75) == pytest.approx(0.5, rel=1e-12)
        assert ctrl(0.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_rectangle_is_zero(self):
        ctrl = control_from_variation(min_cov(5), 1.0)
        assert ctrl(0.5, 0.5, 0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            ctrl(0.75, 0.25, 0.0, 1.0)

    def test_superadditivity_on_random_splits_rho_one(self):
        # at rho = 1 refining any axis can only grow the sum (triangle
        # inequality), so concatenating optimal dissections proves
        # super-additivity; at rho > 1 it can genuinely fail (next test)
        rng = np.random.default_rng(7)
        g = np.linspace(0, 1, 9)
        W = rng.standard_normal((9, 9))
        f = GridFunction2D(g, g, (W + W.T) / 2)
        ctrl = control_from_variation(f, 1.0)
        for _ in range(40):
            lo, mid, hi = sorted(rng.choice(range(9), size=3, replace=False))
            u, v = sorted(rng.choice(range(9), size=2, replace=False))
            left = ctrl(g[lo], g[mid], g[u], g[v])
            right = ctrl(g[mid], g[hi], g[u], g[v])
            whole = ctrl(g[lo], g[hi], g[u], g[v])
            assert left + right <= whole * (1 + 1e-10)
            # and in the second slot by symmetry of the construction
            left2 = ctrl(g[u], g[v], g[lo], g[mid])
            right2 = ctrl(g[u], g[v], g[mid], g[hi])
            whole2 = ctrl(g[u], g[v], g[lo], g[hi])
            assert left2 + right2 <= whole2 * (1 + 1e-10)

    def test_power_sum_not_superadditive_above_rho_one(self):
        # known limitation: |f|^rho_{rho-var} with rho > 1 is not
        # super-additive for general f, because the two sub-rectangles can
        # use incompatible dissections of the shared axis.  Frozen
        # counterexample found by random search (seed 7, rho = 1.5): the
        # split at row 5 of this 9 x 8 block beats the whole rectangle.
        rng = np.random.default_rng(7)
        g = np.linspace(0, 1, 9)
        W = rng.standard_normal((9, 9))
        f = GridFunction2D(g, g, (W + W.T) / 2)
        ctrl = control_from_variation(f, 1.5)
        left = ctrl(g[0], g[5], g[0], g[7])
        right = ctrl(g[5], g[8], g[0], g[7])
        whole = ctrl(g[0], g[8], g[0], g[7])
        assert left + right > whole * (1 + 1e-6)

    def test_covariance_grid_superadditivity_boundary(self):
        # rho = 1 (overlap measure): super-additive, as proved by refinement
        # monotonicity.  For rho > 1 even smooth covariance grids violate
        # the property by ~1%, so nothing downstream may rely on it.
        ctrl1 = control_from_variation(min_cov(9), 1.0)
        g = np.linspace(0, 1, 9)
        for lo, mid, hi in [(0, 3, 6), (2, 4, 8), (0, 4, 8)]:
            for u, v in [(0, 8), (1, 5)]:
                whole = ctrl1(g[lo], g[hi], g[u], g[v])
                parts = ctrl1(g[lo], g[mid], g[u], g[v]) + ctrl1(g[mid], g[hi], g[u], g[v])
                assert parts <= whole * (1 + 1e-10)
        ctrl = control_from_variation(fbm_cov_grid(9, 0.4), 1.25)
        parts = ctrl(g[0], g[4], g[0], g[8]) + ctrl(g[4], g[8], g[0], g[8])
        whole = ctrl(g[0], g[8], g[0], g[8])
        assert parts == pytest.approx(1.195039, abs=1e-4)
        assert whole == pytest.approx(1.181115, abs=1e-4)
        assert parts > whole  # mild but real violation

    def test_diagonal_restriction_is_1d_control(self):
        f = fbm_cov_grid(9, 0.4)
        ctrl = control_from_variation(f, 1.25)
        g = f.s_grid
        for lo, mid, hi in [(0, 2, 5), (1, 4, 8), (0, 4, 8)]:
            a = ctrl(g[lo], g[mid], g[lo], g[mid])
            b = ctrl(g[mid], g[hi], g[mid], g[hi])
            c = ctrl(g[lo], g[hi], g[lo], g[hi])
            assert a + b <= c * (1 + 1e-10)
        assert ctrl(g[3], g[3], g[3], g[3]) == 0.0


class TestInterpAndIO:
    def test_bilinear_matches_grid_and_midpoints(self):
        rng = np.random.default_rng(8)
        f = grid_fn(rng.standard_normal((5, 6)))
        np.testing.assert_allclose(
            bilinear_eval(f, f.s_grid, f.t_grid), f.values, atol=1e-14
        )
        s_mid = (f.s_grid[:-1] + f.s_grid[1:]) / 2
        got = bilinear_eval(f, s_mid, f.t_grid)
        want = (f.values[:-1] + f.values[1:]) / 2
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction2D(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            GridFunction2D(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Control2D(lambda s, t, u, v: 1.0)(0.0, 1.0, 1.0, 0.0)
