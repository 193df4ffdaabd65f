"""Seeded Gaussian sampling, ensemble lifts, and the Monte Carlo checks."""

import tracemalloc

import numpy as np
import pytest

from rough_gauss import cli, simulate
from rough_gauss.covariance import CovarianceKernel, ProcessSpec, bm_cov, fbm_cov, ou_cov
from rough_gauss.path_lift import (
    PiecewisePath,
    _chen_prefixes,
    _take,
    holder_dist,
    lift_s3,
    pvar_dist,
    pvar_norm,
    refine_path,
    restrict_to,
)
from rough_gauss.regularity import grr_holder_check
from rough_gauss.simulate import (
    CHEN_ROWS,
    CHUNK,
    _chaos_ratios,
    _factor,
    _one_blas_thread,
    _path_blocks,
    dyadic_convergence,
    fernique_tail,
    grr_check,
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
from rough_gauss.tensor_algebra import GroupElement

import oracles

BM2 = ProcessSpec((bm_cov(), bm_cov()))
BM3 = ProcessSpec((bm_cov(),) * 3)
ROUGH = ProcessSpec((fbm_cov(0.1),) * 3)
NO_AREA = r"1/rho_1 \+ 1/rho_2 = 1/5 \+ 1/5 must exceed 1 for fbm H = 0.1"
# the zero covariance: a component that stays at 0
FLAT = CovarianceKernel("flat", lambda s, t: np.zeros(np.broadcast(s, t).shape), 1.0)


def grid(level):
    return np.linspace(0.0, 1.0, 2 ** level + 1)


def l2_rungs(dists, seed):
    """Per-rung L2 means and delta-method stderrs, written out per rung."""
    means, errs = [], []
    for d in dists:
        est = mc_mean(np.asarray(d) ** 2, seed)
        means.append(np.sqrt(est.value))
        errs.append(est.stderr / (2.0 * means[-1]))
    return means, errs


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

    @pytest.mark.parametrize("check", [fernique_tail, perturbation_continuity])
    def test_p_checked_before_sampling(self, monkeypatch, check):
        def no_draws(*args):
            raise AssertionError("sampled before checking p")

        monkeypatch.setattr(simulate, "_normals", no_draws)
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            check(BM2, p=0.5, n=10, seed=0)

    @pytest.mark.parametrize("check, message", [
        (lambda: level2_variance_check(BM2, n=1), "at least two samples, got 1"),
        (lambda: level_bounds_check(BM3, n=1), "at least two samples, got 1"),
        (lambda: young_wiener_check(np.sin, ProcessSpec((bm_cov(),)), n=1),
         "at least two samples, got 1"),
        # rho = 5 for H = 0.1: no Levy area, so no rough path at any p
        (lambda: level2_variance_check(ROUGH, n=10), NO_AREA),
        (lambda: level_bounds_check(ROUGH, n=10), NO_AREA),
        (lambda: dyadic_convergence(ROUGH, p=11, levels=(1, 2), n=10), NO_AREA),
        (lambda: perturbation_continuity(ROUGH, p=11, n=10), NO_AREA),
        (lambda: fernique_tail(ROUGH, p=11, n=10), NO_AREA),
        (lambda: fernique_tail(ROUGH, p=10, n=10), r"p = 10 must exceed 2 rho = 10 for fbm"),
        (lambda: perturbation_continuity(BM2, epsilons=(0.05, 0.1, 0.2), n=10),
         r"epsilon ladder must be strictly decreasing and >= 0, got \[0.05, 0.1, 0.2\]"),
        # omega^(3/rho) underflows to 0 on [0, 1/16]^2 while omega does not
        (lambda: level_bounds_check(ProcessSpec((ou_cov(theta=1e300),) * 3), n=10),
         r"rho=1.0 underflows the envelope omega\^\(level/rho\)"),
    ], ids=["level2_n", "level_bounds_n", "young_wiener_n", "level2_area",
            "level_bounds_area", "dyadic_area", "perturbation_area", "fernique_area",
            "fernique_p", "perturbation_ladder", "level_bounds_envelope"])
    def test_rejected_before_factoring(self, monkeypatch, check, message):
        def no_factor(*args):
            raise AssertionError("formed a Gram factor before checking the input")

        monkeypatch.setattr(simulate, "_factor", no_factor)
        with pytest.raises(ValueError, match=message):
            check()


    @pytest.mark.parametrize("check", [
        lambda band: level2_variance_check(BM2, n=8, grid_level=3, band=band),
        lambda band: young_wiener_check(np.sin, ProcessSpec((bm_cov(),)), n=8,
                                        grid_level=3, band=band),
    ])
    @pytest.mark.parametrize("band", [np.nan, np.inf])
    def test_band_must_be_finite(self, check, band):
        with pytest.raises(ValueError, match="band must be >= 0 and finite"):
            check(band)


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

    def test_tail_without_spread_rejected(self):
        # every path of the zero kernel is 0, and so is every tail quantile
        # of its norms: no slope can be fitted
        with pytest.raises(ValueError, match="the p-variation norms of flat have no tail spread"):
            fernique_tail(ProcessSpec((FLAT, FLAT)), n=10, grid_level=3)


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

    @pytest.mark.parametrize("ladder", [(0.1, 0.2), (0.25, 0.5), (0.2, 0.45, 0.5)])
    def test_rung_without_levy_area_rejected(self, ladder):
        # rho = 1/(2H) >= 2 once H <= 1/4: that rung has no level-2 lift
        with pytest.raises(ValueError, match="every H rung must exceed 1/4"):
            weak_limit_fbm(ladder, n=10)


class TestGridLevelBounds:
    # a negative level is rejected by name before 2**level reaches linspace
    def test_fernique_negative_level(self):
        with pytest.raises(ValueError, match="grid_level must be >= 0, got -1"):
            fernique_tail(BM2, p=2.5, n=10, grid_level=-1)

    def test_level2_negative_level(self):
        with pytest.raises(ValueError, match="grid_level must be >= 0, got -1"):
            level2_variance_check(BM2, n=10, grid_level=-1)



# a Chen block and a sampler chunk both end inside the ensemble
N_CUT = 8 * CHUNK + 44


class TestStreaming:
    """Every Monte Carlo check samples and reduces block by block; each must
    give the bytes of the whole-batch computation."""

    def test_blocks_concatenate_to_sample(self):
        spec = ProcessSpec((bm_cov(), fbm_cov(0.3)))
        want = sample(spec, grid(4), N_CUT, seed=13).points
        # sample joins CHUNK-row blocks, so both cases block differently
        for rows in (3 * CHUNK, CHEN_ROWS):
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

    def test_dyadic_convergence_equals_whole_batch(self):
        spec = ProcessSpec((bm_cov(), fbm_cov(0.4)))
        rep = dyadic_convergence(spec, p=2.8, levels=(1, 2), n=N_CUT, seed=5)
        ens = sample(spec, grid(3), N_CUT, seed=5)
        ref = lift_s3(ens)
        dists = [holder_dist(lift_s3(refine_path(restrict_to(ens, grid(lev)), grid(3))),
                             ref, 1.0 / 2.8) for lev in (1, 2)]
        assert (rep["l2_means"], rep["l2_stderrs"]) == l2_rungs(dists, 5)

    def test_perturbation_equals_whole_batch(self):
        spec = ProcessSpec((bm_cov(), fbm_cov(0.4)))
        rep = perturbation_continuity(spec, epsilons=(0.2, 0.1), p=2.8, n=N_CUT,
                                      seed=9, grid_level=3)
        x = sample(spec, grid(3), N_CUT, seed=9, stream=0).points
        w = sample(spec, grid(3), N_CUT, seed=9, stream=1).points
        lift_x = lift_s3(PiecewisePath(grid(3), x))
        dists = [pvar_dist(lift_s3(PiecewisePath(grid(3), x + eps * w)), lift_x, 2.8)
                 for eps in (0.2, 0.1)]
        assert (rep["l2_means"], rep["l2_stderrs"]) == l2_rungs(dists, 9)

    def test_fernique_equals_whole_batch(self):
        rep = fernique_tail(BM2, p=2.5, n=N_CUT, seed=11, grid_level=3)
        lifted = lift_s3(sample(BM2, grid(3), N_CUT, seed=11))
        norms = pvar_norm(lifted, 2.5)
        assert rep["norm_mean"] == mc_mean(norms, 11).to_dict()
        lams = np.quantile(norms, [1.0 - q for q in rep["tail_probs"]])
        assert rep["tail_lambdas"] == lams.tolist()
        end = GroupElement(_take(lifted.values.tensor, -1))
        assert rep["chaos"] == _chaos_ratios(end, 11)

    def test_grr_equals_whole_batch(self):
        rep = grr_check(BM2, n=N_CUT, seed=7, grid_level=3)
        lifted = lift_s3(sample(BM2, grid(3), N_CUT, seed=7))
        assert rep == grr_holder_check(lifted, r=2.6, alpha=0.3)

    def test_grr_memory_is_below_one_block_lift(self):
        # a block of 2 048 paths on grr's 65 points lifts to 15 MiB of
        # levels, and lifting each block whole peaked at 23 MiB; the pair
        # stream lifts about 1 MiB of them at a time
        cfg = cli.ExperimentConfig.from_dict({"experiment": "grr", "samples": 4_096})
        cli.EXPERIMENTS["grr"](cfg)
        assert traced_peak(lambda: cli.EXPERIMENTS["grr"](cfg)) < 12 * 2**20

    @pytest.mark.parametrize("check", [
        lambda n: young_wiener_check(np.sin, ProcessSpec((bm_cov(),)), n=n,
                                     seed=1, grid_level=8),
        lambda n: weak_limit_fbm((0.45, 0.48, 0.5), n=n, seed=1, grid_level=8),
        lambda n: fernique_tail(BM2, p=2.5, n=n, seed=1, grid_level=4),
        lambda n: dyadic_convergence(BM2, p=2.5, levels=(1, 2), n=n, seed=1),
        lambda n: perturbation_continuity(BM2, p=2.5, n=n, seed=1, grid_level=3),
        lambda n: cli.EXPERIMENTS["grr"](
            cli.ExperimentConfig.from_dict({"experiment": "grr", "samples": n})),
    ], ids=["young_wiener", "weak_limit", "fernique", "dyadic_convergence",
            "perturbation", "grr"])
    def test_memory_does_not_grow_with_samples(self, check):
        # 6 144 more paths of 257 points are 12 MiB per component, and the
        # step-3 lifts of 6 144 more 65-point grr paths would be 46 MiB, of
        # which the pair stream holds about 1 MiB at a time; the per-sample
        # statistics the checks keep are under 1 MiB (fernique's endpoint
        # levels, 120 B a path, are the largest), inside the slack.  The
        # first call also pays one-off import and cache allocations, so it
        # is left out.
        check(2_048)
        small = traced_peak(lambda: check(2_048))
        large = traced_peak(lambda: check(8_192))
        assert large - small < 2 * 2**20
