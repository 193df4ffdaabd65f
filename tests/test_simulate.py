"""Seeded Gaussian sampling, ensemble lifts, and the Monte Carlo checks."""

import tracemalloc

import numpy as np
import pytest

from rough_gauss.covariance import CovarianceKernel, ProcessSpec, bm_cov, fbm_cov
from rough_gauss.path_lift import (
    PiecewisePath,
    _chen_prefixes,
    holder_dist,
    lift_s3,
    pvar_norm,
    restrict_to,
)
from rough_gauss.simulate import (
    CHEN_ROWS,
    CHUNK,
    _factor,
    _one_blas_thread,
    _path_blocks,
    dyadic_convergence,
    fernique_tail,
    level2_variance_check,
    level_bounds_check,
    lift_endpoint,
    mc_mean,
    perturbation_continuity,
    sample,
    sample_endpoint,
    weak_limit_fbm,
    young_wiener_check,
)

import oracles

BM2 = ProcessSpec((bm_cov(), bm_cov()))
# the zero covariance: a component that stays at 0
FLAT = CovarianceKernel("flat", lambda s, t: np.zeros(np.broadcast(s, t).shape), 1.0)


def grid(level):
    return np.linspace(0.0, 1.0, 2 ** level + 1)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampling:
    def test_equals_one_generator_per_row(self):
        # resetting one Philox state per row draws the same normals as a
        # fresh Philox(key, counter) per row, chunked into the same products
        spec = ProcessSpec((bm_cov(), fbm_cov(0.3)))
        g, n, seed, stream = grid(4), CHUNK + 44, 11, 3
        want = np.empty((n, g.size, spec.dim))
        for c, kernel in enumerate(spec.kernels):
            factor = _factor(kernel, g)
            for lo in range(0, n, CHUNK):
                rows = range(lo, min(lo + CHUNK, n))
                Z = np.stack([oracles.normals(seed, stream, i, c, g.size) for i in rows])
                want[lo : lo + len(rows), :, c] = Z @ factor.T
        got = sample(spec, g, n, seed=seed, stream=stream).points
        assert np.all(got == want)

    def test_seed_and_stream_change_samples(self):
        a = sample(BM2, grid(4), 50, seed=9)
        b = sample(BM2, grid(4), 50, seed=10)
        c = sample(BM2, grid(4), 50, seed=9, stream=1)
        assert not np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_bm_endpoint_variance(self):
        n = 40_000
        ens = sample(ProcessSpec((bm_cov(),)), np.array([0.0, 1.0]), n, seed=3)
        x1 = ens.points[:, 1, 0]
        est = mc_mean(x1 ** 2, 3)
        assert abs(est.value - 1.0) <= 5 * est.stderr

    def test_mc_mean_rejects_one_value(self):
        # one value has no spread, so its standard error would read 0
        with pytest.raises(ValueError, match="at least two samples"):
            mc_mean([1.5], 0)

    def test_mc_mean_rejects_non_finite(self):
        # a statistic that overflowed must not read as a nan or inf estimate
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                mc_mean([1.5, bad], 0)

    def test_fbm_disjoint_increment_negative(self):
        n = 40_000
        k = fbm_cov(0.4)
        ens = sample(ProcessSpec((k,)), np.array([0.0, 0.5, 1.0]), n, seed=5)
        x = ens.points[:, :, 0]
        prod = (x[:, 1] - x[:, 0]) * (x[:, 2] - x[:, 1])
        est = mc_mean(prod, 5)
        want = float(k.eval(0.5, 1.0) - k.eval(0.5, 0.5)
                     - k.eval(0.0, 1.0) + k.eval(0.0, 0.5))
        assert want < 0.0
        assert abs(est.value - want) <= 5 * est.stderr

    def test_components_independent(self):
        n = 40_000
        ens = sample(BM2, np.array([0.0, 1.0]), n, seed=7)
        prod = ens.points[:, 1, 0] * ens.points[:, 1, 1]
        est = mc_mean(prod, 7)
        assert abs(est.value) <= 5 * est.stderr

    def test_empirical_covariance_matches_gram(self):
        n = 20_000
        g = grid(3)
        ens = sample(ProcessSpec((bm_cov(),)), g, n, seed=11)
        x = ens.points[:, :, 0]
        emp = x.T @ x / n
        G = bm_cov().grid_eval(g, g)
        band = 5.0 / np.sqrt(n) * np.max(np.abs(G))
        assert np.max(np.abs(emp - G)) <= band
        assert np.max(np.abs(x.mean(axis=0))) <= band

    def test_indefinite_gram_aborts(self):
        bad = CovarianceKernel("wiggle", lambda s, t: np.sin(3 * np.pi * np.minimum(s, t)), 1.0)
        with pytest.raises(ValueError, match="indefinite"):
            sample(ProcessSpec((bad,)), grid(3), 4, seed=0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample(BM2, grid(3), 0, seed=0)
        with pytest.raises(ValueError):
            sample(BM2, np.array([0.0, 0.5]), 4, seed=0)


class TestRestrictAndGap:
    def test_full_restriction_is_identity(self):
        ens = sample(BM2, grid(4), 12, seed=1)
        r = restrict_to(ens, ens.times)
        assert np.array_equal(r.points, ens.points)

    def test_endpoints_only(self):
        ens = sample(BM2, grid(4), 12, seed=1)
        r = restrict_to(ens, np.array([0.0, 1.0]))
        assert r.points.shape == (12, 2, 2)
        assert np.array_equal(r.points[:, -1], ens.points[:, -1])

    def test_non_subset_rejected(self):
        ens = sample(BM2, grid(3), 4, seed=1)
        with pytest.raises(ValueError):
            restrict_to(ens, np.array([0.0, 0.3, 1.0]))

    def test_invalid_dissection_rejected(self):
        ens = sample(BM2, grid(3), 4, seed=1)
        with pytest.raises(ValueError):
            restrict_to(ens, [1.0, 0.5, 0.5])


class TestLayout:
    def test_samples_are_path_by_grid_by_component(self):
        ens = sample(ProcessSpec((bm_cov(), FLAT)), grid(3), 5, seed=2)
        assert ens.points.shape == (5, 9, 2)
        assert np.all(ens.points[..., 1] == 0.0)
        assert np.any(ens.points[..., 0] != 0.0)
        assert type(ens) is PiecewisePath
        assert np.array_equal(ens.times, grid(3))


class TestLifts:
    def test_zero_kernel_gives_constant_lift(self):
        ens = sample(ProcessSpec((FLAT, FLAT)), grid(3), 6, seed=2)
        assert np.all(ens.points == 0.0)
        lifted = lift_s3(ens)
        assert float(np.max(np.asarray(pvar_norm(lifted, 2.5)))) == 0.0

    def test_scalar_lift_closed_form(self):
        ens = sample(ProcessSpec((bm_cov(),)), grid(4), 9, seed=4)
        incs = np.diff(ens.points, axis=-2)
        end = lift_endpoint(incs)
        total = ens.points[:, -1, 0] - ens.points[:, 0, 0]
        assert np.allclose(end.level2[0, 0], total ** 2 / 2, rtol=1e-10, atol=1e-12)
        assert np.allclose(end.level3[0, 0, 0], total ** 3 / 6, rtol=1e-10, atol=1e-12)

    def test_endpoint_matches_full_lift(self):
        ens = sample(BM2, grid(4), 7, seed=6)
        incs = np.diff(ens.points, axis=-2)
        end = lift_endpoint(incs)
        full = lift_s3(ens)
        assert np.allclose(end.level3, full.values.tensor.level3[..., -1], atol=1e-14)

    def test_bm_area_mean_zero(self):
        ens = sample(BM2, grid(5), 4000, seed=8)
        incs = np.diff(ens.points, axis=-2)
        end = lift_endpoint(incs)
        area = 0.5 * (end.level2[0, 1] - end.level2[1, 0])
        est = mc_mean(area, 8)
        assert abs(est.value) <= 5 * est.stderr

    def test_memory_is_batch_sized(self):
        # the Chen loop moves one increment step at a time to word-first
        # layout, so the traced peak stays below the increments themselves
        incs = np.random.default_rng(2).standard_normal((2000, 256, 2))
        tracemalloc.start()
        try:
            lift_endpoint(incs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < incs.nbytes

    def test_overflowing_endpoint_rejected(self):
        incs = np.array([[[1e110, 0.0], [0.0, 1e110]]])
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            lift_endpoint(incs)

    def test_empty_increments_lift_to_identity(self):
        end = lift_endpoint(np.zeros((5, 0, 2)))
        assert np.all(end.level1 == 0.0) and np.all(end.level2 == 0.0)


class TestLevel2Variance:
    def test_bm_bm_half(self):
        rep = level2_variance_check(BM2, n=4000, seed=1, grid_level=6)
        assert rep["ok"]
        assert rep["young_value"] == pytest.approx(0.5, abs=2e-3)
        assert abs(rep["mc"]["value"] - 0.5) <= rep["tolerance"] + 1e-3

    def test_mixed_kernels_consistent(self):
        spec = ProcessSpec((fbm_cov(0.4), bm_cov()))
        rep = level2_variance_check(spec, n=4000, seed=2, grid_level=6)
        assert rep["ok"]

    def test_degenerate_interval(self):
        rep = level2_variance_check(BM2, interval=(0.5, 0.5), n=10, seed=0)
        assert rep["ok"] and rep["mc"]["value"] == 0.0 and rep["young_value"] == 0.0

    def test_subinterval(self):
        rep = level2_variance_check(BM2, interval=(0.25, 0.75), n=4000,
                                    seed=3, grid_level=6)
        # BM increments from 1/4: Young side is int_0^{1/2} u du = 1/8
        assert rep["young_value"] == pytest.approx(0.125, abs=2e-3)
        assert rep["ok"]

    def test_off_grid_interval_rejected(self):
        with pytest.raises(ValueError):
            level2_variance_check(BM2, interval=(0.0, 0.3), n=10, grid_level=3)


class TestLevelBounds:
    def test_bm_scaling_slopes(self):
        spec = ProcessSpec((bm_cov(),) * 3)
        rep = level_bounds_check(spec, n=3000, seed=4, grid_level=5)
        # Brownian scaling forces moment exponents 1, 2, 3 per level
        assert rep["words"]["1"]["log2_slope"] == pytest.approx(1.0, abs=0.15)
        assert rep["words"]["12"]["log2_slope"] == pytest.approx(2.0, abs=0.3)
        assert rep["words"]["123"]["log2_slope"] == pytest.approx(3.0, abs=0.45)
        for w in rep["words"].values():
            assert np.isfinite(w["smallest_C"]) and w["smallest_C"] > 0.0

    def test_fbm_constants_stable(self):
        spec = ProcessSpec((fbm_cov(0.4),) * 3)
        rep = level_bounds_check(spec, n=3000, seed=5, grid_level=5)
        for w in rep["words"].values():
            consts = w["envelope_constants"]
            assert max(consts) / min(consts) < 4.0

    def test_requirements(self):
        with pytest.raises(ValueError):
            level_bounds_check(BM2, n=10)
        # a level finer than the grid would lift zero increments
        with pytest.raises(ValueError, match="interval levels"):
            level_bounds_check(ProcessSpec((bm_cov(),) * 3), n=10, grid_level=2)
        with pytest.raises(ValueError):
            level_bounds_check(ProcessSpec((bm_cov(), bm_cov(), fbm_cov(0.4))), n=10)


class TestDyadicConvergence:
    def test_bm_negative_slope(self):
        rep = dyadic_convergence(BM2, p=2.5, levels=(3, 4, 5), n=60, seed=4)
        assert rep["ok"] and rep["log2_slope"] < 0.0
        assert all(a > b for a, b in zip(rep["l2_means"][:-1], rep["l2_means"][1:]))

    def test_reference_roundtrip_is_zero(self):
        ens = sample(BM2, grid(5), 10, seed=6)
        ref = lift_s3(ens)
        again = lift_s3(restrict_to(ens, ens.times))
        d = np.asarray(holder_dist(again, ref, 0.4))
        assert float(np.max(d)) < 1e-3


class TestPerturbation:
    def test_zero_epsilon_distance_vanishes(self):
        # the zero rung rides on a valid ladder: each rung is computed on its
        # own, and a ladder needs two positive rungs to fit the exponent
        rep = perturbation_continuity(BM2, epsilons=(0.2, 0.1, 0.0), p=2.5,
                                      n=30, seed=7, grid_level=4)
        assert rep["l2_means"][-1] < 1e-3

    def test_ladder_decreasing_theta_positive(self):
        rep = perturbation_continuity(BM2, epsilons=(0.2, 0.1, 0.05), p=2.5,
                                      n=150, seed=7, grid_level=5)
        assert rep["strictly_decreasing"] and rep["theta_hat"] > 0.0 and rep["ok"]


class TestFernique:
    def test_tail_and_chaos(self):
        rep = fernique_tail(BM2, p=2.5, n=3000, seed=6, grid_level=5)
        assert rep["tail_ok"] and rep["tail_slope"] < 0.0 and rep["eta_hat"] > 0.0
        assert rep["chaos_ok"]
        for row in rep["chaos"]:
            assert row["ratio"] <= row["bound"]
        lams = rep["tail_lambdas"]
        assert all(a < b for a, b in zip(lams[:-1], lams[1:]))


class TestYoungWiener:
    def test_constant_integrand_unit_variance(self):
        rep = young_wiener_check(lambda t: np.ones_like(t),
                                 ProcessSpec((bm_cov(),)), n=4000, seed=7,
                                 grid_level=8)
        assert rep["young_value"] == pytest.approx(1.0, abs=1e-12)
        assert rep["ok"] and rep["upper_ok"]
        assert rep["centered_value"] == 0.0

    def test_linear_integrand_third(self):
        rep = young_wiener_check(lambda t: np.asarray(t, dtype=float),
                                 ProcessSpec((bm_cov(),)), n=4000, seed=7,
                                 grid_level=8)
        assert rep["young_value"] == pytest.approx(1 / 3, abs=1e-3)
        assert rep["ok"] and rep["upper_ok"]
        assert abs(rep["mc"]["value"] - 1 / 3) <= rep["tolerance"] + 1e-3

    def test_zero_integrand(self):
        rep = young_wiener_check(lambda t: np.zeros_like(t),
                                 ProcessSpec((bm_cov(),)), n=50, seed=1,
                                 grid_level=5)
        assert rep["mc"]["value"] == 0.0 and rep["young_value"] == 0.0

    def test_exponent_condition_enforced(self):
        with pytest.raises(ValueError):
            young_wiener_check(lambda t: t, ProcessSpec((fbm_cov(0.3),)),
                               q=3.0, n=10)
        with pytest.raises(ValueError):
            young_wiener_check(lambda t: t, BM2, n=10)


class TestWeakLimit:
    def test_brownian_endpoint_matches(self):
        # every rung draws the same normals, so the H = 1/2 rung is the
        # Brownian statistic whatever rung precedes it
        rep = weak_limit_fbm((0.48, 0.5), n=3000, seed=2, grid_level=6)
        est = rep["statistics"][-1]
        assert abs(est["value"] - 0.5) <= 3 * est["stderr"] + 0.01

    def test_kernel_gaps_decrease(self):
        rep = weak_limit_fbm((0.45, 0.48, 0.5), n=200, seed=2, grid_level=5)
        assert rep["kernel_gaps_decreasing"]
        assert rep["kernel_sup_gaps"][-1] == 0.0

    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            weak_limit_fbm((0.48, 0.45), n=10)

    def test_rung_above_half_rejected(self):
        # such a rung used to be sampled as Brownian motion
        with pytest.raises(ValueError, match="at most 1/2"):
            weak_limit_fbm((0.45, 0.7), n=10)



# a Chen block and a sampler chunk both end inside the ensemble
N_CUT = 8 * CHUNK + 44


class TestStreaming:
    """The checks that read no pair of grid times sample and reduce block by
    block; each must give the bytes of the whole-batch computation."""

    def test_blocks_concatenate_to_sample(self):
        spec = ProcessSpec((bm_cov(), fbm_cov(0.3)))
        want = sample(spec, grid(4), N_CUT, seed=13).points
        for rows in (CHUNK, CHEN_ROWS):
            blocks = list(_path_blocks(spec, grid(4), N_CUT, 13, rows))
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert np.all(np.concatenate(blocks) == want)

    def test_depth2_levels_equal_depth3(self):
        incs = np.random.default_rng(5).standard_normal((40, 12, 3))
        pairs = zip(_chen_prefixes(incs, depth=2), _chen_prefixes(incs, depth=3))
        for shallow, deep in pairs:
            assert len(shallow) == 3 and len(deep) == 4
            for a, b in zip(shallow, deep):
                assert np.array_equal(a, b)

    def test_level2_variance_equals_whole_batch(self):
        spec = ProcessSpec((fbm_cov(0.4), bm_cov()))
        rep = level2_variance_check(spec, interval=(0.25, 0.75), n=N_CUT,
                                    seed=3, grid_level=4)
        x = sample(spec, grid(4), N_CUT, seed=3).points
        end = lift_endpoint(np.diff(x[:, 4:13, :2], axis=-2))
        assert rep["mc"] == mc_mean(end.level2[0, 1] ** 2, 3).to_dict()

    def test_young_wiener_equals_whole_batch(self):
        spec = ProcessSpec((fbm_cov(0.4),))
        rep = young_wiener_check(np.sin, spec, n=N_CUT, seed=4, grid_level=5)
        x = sample(spec, grid(5), N_CUT, seed=4).points
        with _one_blas_thread():
            integrals = np.diff(x[:, :, 0], axis=-1) @ np.sin(grid(5))[:-1]
        assert rep["mc"] == mc_mean(integrals ** 2, 4).to_dict()

    def test_weak_limit_equals_one_sample_per_rung(self):
        rep = weak_limit_fbm((0.45, 0.5), n=N_CUT, seed=6, grid_level=4)
        for k, got in zip((fbm_cov(0.45), bm_cov()), rep["statistics"]):
            x = sample(ProcessSpec((k, k)), grid(4), N_CUT, seed=6).points
            end = lift_endpoint(np.diff(x, axis=-2))
            assert got == mc_mean(end.level2[0, 1] ** 2, 6).to_dict()

    def test_level_bounds_equals_lift_per_interval(self):
        spec = ProcessSpec((fbm_cov(0.4),) * 3)
        rep = level_bounds_check(spec, n=N_CUT, seed=2, grid_level=5)
        x = sample(spec, grid(5), N_CUT, seed=2).points
        for i, step in enumerate((16, 8, 4, 2)):
            levels = lift_endpoint(np.diff(x[:, : step + 1], axis=-2)).levels()
            for w in ((0,), (0, 1), (0, 0, 1), (0, 1, 2)):
                got = rep["words"]["".join(str(a + 1) for a in w)]["moments"][i]
                assert got == mc_mean(levels[len(w)][w] ** 2, 2).to_dict()

    def test_sample_endpoint_equals_lift_endpoint(self):
        end = sample_endpoint(BM2, grid(3), N_CUT, seed=8)
        want = lift_endpoint(np.diff(sample(BM2, grid(3), N_CUT, seed=8).points, axis=-2))
        for a, b in zip(end.tensor.levels(), want.levels()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("check", [
        lambda n: young_wiener_check(np.sin, ProcessSpec((bm_cov(),)), n=n,
                                     seed=1, grid_level=8),
        lambda n: weak_limit_fbm((0.45, 0.48, 0.5), n=n, seed=1, grid_level=8),
    ], ids=["young_wiener", "weak_limit"])
    def test_memory_does_not_grow_with_samples(self, check):
        # 6 144 more paths of 257 points are 12 MiB per component; the
        # per-sample statistics the checks keep are a few hundred KiB, inside
        # the slack.  The first call also pays one-off import and cache
        # allocations, so it is left out.
        check(2_048)
        small = traced_peak(lambda: check(2_048))
        large = traced_peak(lambda: check(8_192))
        assert large - small < 2 * 2**20
