import itertools
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_gauss import variation_2d
from rough_gauss.covariance import bm_cov, fbm_cov
from rough_gauss.variation_2d import (
    GridFunction2D,
    YOUNG_INTERVAL_CAP,
    _dp_best_columns,
    _dyadic_grid,
    _exact_sum,
    _from_corner,
    _longest_path,
    _uniform_grid,
    _upper_rows,
    _zeta,
    bilinear_eval,
    rect_increment,
    rho_variation,
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


class TestGrids:
    @pytest.mark.parametrize("n, end", [(1, 1.0), (8, 0.25), (64, 1.0),
                                        (YOUNG_INTERVAL_CAP, 1.0)])
    def test_uniform_is_linspace(self, n, end):
        assert np.array_equal(_uniform_grid(n, end), np.linspace(0.0, end, n + 1))

    @pytest.mark.parametrize("n, message", [
        (0, "grid_intervals must be >= 1, got 0"),
        (-3, "grid_intervals must be >= 1, got -3"),
        (YOUNG_INTERVAL_CAP + 1, "grid_intervals must be <= 4096, got 4097"),
        (10**12, "grid_intervals must be <= 4096"),
    ])
    def test_uniform_count_bounded(self, n, message):
        with pytest.raises(ValueError, match=message):
            _uniform_grid(n)

    def test_dyadic_levels(self):
        for level in (0, 5, 12):
            assert np.array_equal(_dyadic_grid(level),
                                  np.linspace(0.0, 1.0, 2 ** level + 1))

    @pytest.mark.parametrize("level, message", [
        (-1, "grid_level must be >= 0, got -1"),
        (13, "grid_level needs 2^13 grid intervals, more than the 4096 allowed"),
        (10**6, "grid_level needs 2^1000000 grid intervals"),
    ])
    def test_dyadic_level_bounded(self, level, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _dyadic_grid(level)

    def test_dyadic_names_its_field(self):
        with pytest.raises(ValueError, match="levels must be >= 0"):
            _dyadic_grid(-2, "levels")


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
        cols, weight = _dp_best_columns(B)
        assert cols[0] == 0 and cols[-1] == n - 1
        assert all(a < b for a, b in zip(cols[:-1], cols[1:]))
        total = 0.0
        for a, b in zip(cols[:-1], cols[1:]):
            total += B[a, b]
        assert total == _longest_path(_upper_rows(B))[-1] == weight
        best = 0.0
        for inner in itertools.product([False, True], repeat=n - 2):
            pts = [0] + [i + 1 for i in range(n - 2) if inner[i]] + [n - 1]
            best = max(best, sum(B[a, b] for a, b in zip(pts[:-1], pts[1:])))
        assert weight == pytest.approx(best, rel=1e-12)

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
                    assert got == pytest.approx(ref, rel=1e-12)

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

    def test_local_search_memory_is_step_bounded(self):
        # two n x n weight matrices per step, never one per interval; the
        # warm-up call keeps numpy.random's first import out of the peak
        f = fbm_cov_grid(129, 0.4)
        rho_variation(min_cov(5), 1.25, mode="local-search")
        tracemalloc.start()
        try:
            rho_variation(f, 1.25, mode="local-search")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * f.values.nbytes

    @pytest.mark.parametrize("mode", ["exact", "local-search"])
    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_non_finite_rho_rejected(self, mode, rho):
        with pytest.raises(ValueError, match="finite"):
            rho_variation(min_cov(5), rho, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "local-search"])
    def test_overflowing_sum_rejected(self, mode):
        # cell increments of 3 overflow at the 700th power, and so do those
        # of the scaled sum: M = 1 is the power of two above max |f| = 0.75
        g = np.linspace(0.0, 1.0, 5)
        sign = (-1.0) ** np.add.outer(np.arange(5), np.arange(5))
        with pytest.raises(ValueError, match="the rho = 700.0 variation sum is not finite"):
            rho_variation(GridFunction2D(g, g, 0.75 * sign), 700.0, mode=mode)
        assert rho_variation(min_cov(5), 400.0, mode=mode) == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["exact", "local-search"])
    def test_vanishing_increments_are_not_rescaled(self, mode):
        # every rectangular increment of a constant is 0, so its variation
        # is 0 whatever max |f| is; a zero sum is taken again, and raises if
        # it stays 0, only where some cell increment is not 0
        g = np.linspace(0.0, 1.0, 5)
        assert rho_variation(GridFunction2D(g, g, np.full((5, 5), 3.0)), 400.0, mode=mode) == 0.0
        # increments of at most 2.5e-171 under max |f| = 1: their squares
        # underflow to 0 with or without the scale
        V = np.ones((5, 5))
        V[:2] = 1e-170 * min_cov(5).values[:2]
        with pytest.raises(ValueError, match="variation sum is not finite, or underflows to 0"):
            rho_variation(GridFunction2D(g, g, V), 2.0, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "local-search"])
    @pytest.mark.parametrize("scale", [2.0**-600, 100.0, 2.0**600])
    def test_large_rho_sum_is_scaled(self, mode, scale):
        # |increment|^400 underflows to 0 at the first scale and overflows
        # at the others; the variation is homogeneous of degree 1
        f = min_cov(5)
        big = GridFunction2D(f.s_grid, f.t_grid, scale * f.values)
        want = scale * rho_variation(f, 400.0, mode=mode)
        assert rho_variation(big, 400.0, mode=mode) == pytest.approx(want, rel=1e-12)

    def test_min_kernel_rho1_is_one(self):
        for n in (5, 9):
            res = rho_variation(min_cov(n), 1.0, mode="exact")
            assert res == pytest.approx(1.0, rel=1e-12)

    def test_separable_product_bound(self):
        rng = np.random.default_rng(3)
        rho = 1.5
        for _ in range(5):
            gv, hv = rng.standard_normal(6), rng.standard_normal(6)
            f = grid_fn(np.outer(gv, hv))
            var2d = rho_variation(f, rho, mode="exact")
            var_g = oracles.pvar_enumeration(lambda i, j: abs(gv[j] - gv[i]), 6, rho) ** (1 / rho)
            var_h = oracles.pvar_enumeration(lambda i, j: abs(hv[j] - hv[i]), 6, rho) ** (1 / rho)
            assert var2d <= var_g * var_h * (1 + 1e-10)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(4)
        V = rng.standard_normal((6, 6))
        V = V + V.T
        f = grid_fn(V)
        vals = [rho_variation(f, r, mode="exact") for r in (1.0, 1.3, 1.8, 2.5)]
        assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))

    def test_local_search_never_above_exact(self):
        rng = np.random.default_rng(5)
        hits = 0
        total = 40
        for _ in range(total):
            V = rng.standard_normal((7, 7))
            f = grid_fn(V)
            ex = rho_variation(f, 1.8, mode="exact")
            ls = rho_variation(f, 1.8, mode="local-search", seed=11)
            assert ls <= ex * (1 + 1e-10)
            hits += ls >= ex * (1 - 1e-10)
        assert hits >= 0.9 * total

    def test_errors(self):
        f = min_cov(20)
        with pytest.raises(ValueError):
            rho_variation(f, 1.5, mode="exact")  # both axes above the cap
        with pytest.raises(ValueError):
            rho_variation(min_cov(5), 0.8)
        with pytest.raises(ValueError):
            rho_variation(f, 1.0, mode="diagonal")


def whole_grid_levels(f_eval, g_eval, s, t, levels):
    """The left-point sum of every refinement level, each from one
    evaluation of f and g on the whole grid."""
    vals = []
    for level in range(levels + 1):
        if level:
            s = np.sort(np.concatenate([s, (s[:-1] + s[1:]) / 2]))
            t = np.sort(np.concatenate([t, (t[:-1] + t[1:]) / 2]))
        F, G = f_eval(s, t), g_eval(s, t)
        vals.append(float(np.sum(F[:-1, :-1] * np.diff(np.diff(G, axis=0), axis=1))))
    return vals


# block budgets in bytes: one row per block; odd row counts (13, 7, 3, 1
# rows at 9, 17, 33, 65 columns, and 11, 5, 3, 1 at 11 to 81); one block
YOUNG_BLOCKINGS = [1, 1000, 1 << 40]


class TestYoungIntegral:
    @pytest.mark.parametrize("nbytes", YOUNG_BLOCKINGS)
    def test_blocking_never_moves_bits(self, monkeypatch, nbytes):
        monkeypatch.setattr(variation_2d, "_YOUNG_BLOCK_BYTES", nbytes)
        cells = []
        left_point_sum = variation_2d._left_point_sum

        def counted(F, G, out):
            # the tracer counts cells from the shape of the first argument
            cells.append((F.shape[0] - 1) * (F.shape[1] - 1))
            return left_point_sum(F, G, out)

        monkeypatch.setattr(variation_2d, "_left_point_sum", counted)
        h = GridFunction2D(np.linspace(0, 1, 5), np.linspace(0, 1, 7),
                           np.random.default_rng(3).standard_normal((5, 7)))
        bm, fbm = bm_cov().grid_eval, fbm_cov(0.3).grid_eval
        square, wide, two = (np.linspace(0, 1, 9), np.linspace(0, 1, 11),
                             np.linspace(0, 1, 2))
        cases = [
            (bm, bm, square, square, 3),
            (fbm, fbm, square, square, 3),
            (_from_corner(fbm, 0.25, 0.5), bm, square, square, 3),
            (partial(bilinear_eval, h), fbm, square, wide, 3),
            (fbm, partial(bilinear_eval, h), wide, square, 3),
            (fbm, bm, two, two, 2),
        ]
        for f_eval, g_eval, s, t, levels in cases:
            cells.clear()
            res = young_integral_2d(f_eval, g_eval, s, t, levels=levels)
            assert res.level_values == whole_grid_levels(f_eval, g_eval, s, t, levels)
            assert sum(cells) == sum(((s.size - 1) << k) * ((t.size - 1) << k)
                                     for k in range(levels + 1))

    @pytest.mark.parametrize("nbytes", YOUNG_BLOCKINGS)
    def test_nan_in_closing_corner_rejected(self, monkeypatch, nbytes):
        # F(1, 1) closes the last cell but is never summed
        monkeypatch.setattr(variation_2d, "_YOUNG_BLOCK_BYTES", nbytes)

        def f_eval(S, T):
            corner = (S == 1.0)[:, None] & (T == 1.0)[None, :]
            return np.where(corner, np.nan, np.minimum.outer(S, T))

        g = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="non-finite grid values at refinement level 0"):
            young_integral_2d(f_eval, bm_cov().grid_eval, g, g, levels=2)

    def test_memory_is_one_product_array(self):
        # young2d's shape: 1 025^2 points at the finest level, whose
        # product array is 8 MiB; f and g come one block of rows at a time
        bm = bm_cov().grid_eval
        young_integral_2d(bm, bm, np.linspace(0, 1, 3), np.linspace(0, 1, 3), levels=1)
        tracemalloc.start()
        try:
            young_integral_2d(bm, bm, np.linspace(0, 1, 65), np.linspace(0, 1, 65),
                              levels=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20

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

    @pytest.mark.parametrize("levels", [1, 2])
    def test_short_ladder_not_called_monotone(self, levels):
        # the sums jump 0.034 -> 29.6 -> 11.9: one or two refinement steps
        # say nothing about monotone convergence
        ev = lambda S, T: np.outer(np.sin(40 * S), np.cos(37 * T))
        g = np.linspace(0.0, 1.0, 3)
        res = young_integral_2d(ev, ev, g, g, levels=levels)
        assert len(res.diffs) == levels
        assert not res.converged

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
    def test_exponent_condition_enforced(self):
        with pytest.raises(ValueError):
            young_constant(2.5, 2.5)
        for p, q in ((np.nan, 2.0), (2.0, np.nan)):
            with pytest.raises(ValueError):
                young_constant(p, q)
        assert young_constant(1.0, 1.0) == pytest.approx((1 + np.pi**2 / 6) ** 2)


class TestZeta:
    """_zeta ports the cephes Hurwitz zeta at q = 1, which scipy runs for
    zeta(x, 1), so the two agree bit for bit; scipy's zeta(2) is one ulp
    above the double nearest pi^2/6, so an accurate formula alone would not."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1.0, max_value=2.0, exclude_min=True))
    def test_bits_equal_scipy_on_young_exponents(self, x):
        # 1/p + 1/q lies in (1, 2] for the exponents young_constant accepts
        special = pytest.importorskip("scipy.special")
        assert _zeta(x) == float(special.zeta(x, 1))

    @pytest.mark.parametrize("x", [1.0 + 2.0**-52, 1.0 + 1e-9, 1.001, 1.5, 2.0, 2.5, 3.0,
                                   np.pi, 7.0, 9.75, 12.0, 20.0, 33.3, 53.0, 54.0,
                                   64.5, 100.0, 257.0, 999.9, 1e3])
    def test_bits_equal_scipy_at_fixed_values(self, x):
        # past x ~ 53 the first term below the sum's last bit ends the sum
        special = pytest.importorskip("scipy.special")
        assert _zeta(x) == float(special.zeta(x, 1))

    def test_zeta_two(self):
        assert _zeta(2.0) == 1.6449340668482266

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
