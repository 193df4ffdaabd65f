"""Seeded Gaussian sampling, ensemble lifts, and the Monte Carlo checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rough_gauss.covariance import ProcessSpec, bm_cov, fbm_cov, martingale_cov
from rough_gauss.path_lift import PiecewisePath, holder_dist, lift_s3, pvar_norm
from rough_gauss.simulate import (
    CHUNK,
    SampleEnsemble,
    _factor,
    dyadic_convergence,
    fernique_tail,
    level2_variance_check,
    level_bounds_check,
    lift_endpoint,
    lift_ensemble,
    mc_mean,
    perturbation_continuity,
    pl_covariance_gap_check,
    product_moment_surface_check,
    restrict_to,
    sample,
    weak_limit_fbm,
    young_wiener_check,
)

import oracles

BM2 = ProcessSpec((bm_cov(), bm_cov()))


def grid(level):
    return np.linspace(0.0, 1.0, 2 ** level + 1)


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
        got = sample(spec, g, n, seed=seed, stream=stream).samples
        assert np.all(got == want)

    def test_seed_and_stream_change_samples(self):
        a = sample(BM2, grid(4), 50, seed=9)
        b = sample(BM2, grid(4), 50, seed=10)
        c = sample(BM2, grid(4), 50, seed=9, stream=1)
        assert not np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_bm_endpoint_variance(self):
        n = 40_000
        ens = sample(ProcessSpec((bm_cov(),)), np.array([0.0, 1.0]), n, seed=3)
        x1 = ens.samples[:, 1, 0]
        est = mc_mean(x1 ** 2, 3)
        assert abs(est.value - 1.0) <= 5 * est.stderr

    def test_fbm_disjoint_increment_negative(self):
        n = 40_000
        k = fbm_cov(0.4)
        ens = sample(ProcessSpec((k,)), np.array([0.0, 0.5, 1.0]), n, seed=5)
        x = ens.samples[:, :, 0]
        prod = (x[:, 1] - x[:, 0]) * (x[:, 2] - x[:, 1])
        est = mc_mean(prod, 5)
        want = float(k.eval(0.5, 1.0) - k.eval(0.5, 0.5)
                     - k.eval(0.0, 1.0) + k.eval(0.0, 0.5))
        assert want < 0.0
        assert abs(est.value - want) <= 5 * est.stderr

    def test_components_independent(self):
        n = 40_000
        ens = sample(BM2, np.array([0.0, 1.0]), n, seed=7)
        prod = ens.samples[:, 1, 0] * ens.samples[:, 1, 1]
        est = mc_mean(prod, 7)
        assert abs(est.value) <= 5 * est.stderr

    def test_empirical_covariance_matches_gram(self):
        n = 20_000
        g = grid(3)
        ens = sample(ProcessSpec((bm_cov(),)), g, n, seed=11)
        x = ens.samples[:, :, 0]
        emp = x.T @ x / n
        G = bm_cov().grid_eval(g, g)
        band = 5.0 / np.sqrt(n) * np.max(np.abs(G))
        assert np.max(np.abs(emp - G)) <= band
        assert np.max(np.abs(x.mean(axis=0))) <= band

    def test_indefinite_gram_aborts(self):
        bad = martingale_cov(lambda t: np.sin(3 * np.pi * np.asarray(t)),
                             name="wiggle")
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
        r = restrict_to(ens, ens.grid)
        assert np.array_equal(r.samples, ens.samples)

    def test_endpoints_only(self):
        ens = sample(BM2, grid(4), 12, seed=1)
        r = restrict_to(ens, np.array([0.0, 1.0]))
        assert r.samples.shape == (12, 2, 2)
        assert np.array_equal(r.samples[:, -1], ens.samples[:, -1])

    def test_non_subset_rejected(self):
        ens = sample(BM2, grid(3), 4, seed=1)
        with pytest.raises(ValueError):
            restrict_to(ens, np.array([0.0, 0.3, 1.0]))

    def test_invalid_dissection_rejected(self):
        ens = sample(BM2, grid(3), 4, seed=1)
        with pytest.raises(ValueError):
            restrict_to(ens, [1.0, 0.5, 0.5])

    def test_pl_gap_bm_exact(self):
        # BM: worst interpolation variance is h/4 at cell midpoints
        rep = pl_covariance_gap_check(bm_cov(), grid(2), grid(6))
        assert rep["ok"]
        assert rep["sup_gap"] == pytest.approx(1 / 16, abs=1e-14)
        assert rep["envelope"] == pytest.approx(0.25, abs=1e-12)

    def test_pl_gap_fbm(self):
        rep = pl_covariance_gap_check(fbm_cov(0.4), grid(2), grid(6))
        assert rep["ok"] and rep["sup_gap"] > 0.0


class TestLayout:
    def test_samples_are_path_by_grid_by_component(self):
        flat = martingale_cov(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                              name="flat")
        ens = sample(ProcessSpec((bm_cov(), flat)), grid(3), 5, seed=2)
        assert ens.samples.shape == (5, 9, 2)
        assert np.all(ens.samples[..., 1] == 0.0)
        assert np.any(ens.samples[..., 0] != 0.0)
        assert [f.name for f in dataclasses.fields(SampleEnsemble)] == [
            "grid", "samples"]

    def test_lift_ensemble_is_lift_of_samples(self):
        ens = sample(BM2, grid(4), 7, seed=6)
        got = lift_ensemble(ens).values.tensor.levels()
        want = lift_s3(PiecewisePath(ens.grid, ens.samples)).values.tensor.levels()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestLifts:
    def test_zero_kernel_gives_constant_lift(self):
        flat = martingale_cov(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                              name="flat")
        ens = sample(ProcessSpec((flat, flat)), grid(3), 6, seed=2)
        assert np.all(ens.samples == 0.0)
        lifted = lift_ensemble(ens)
        assert float(np.max(np.asarray(pvar_norm(lifted, 2.5)))) == 0.0

    def test_scalar_lift_closed_form(self):
        ens = sample(ProcessSpec((bm_cov(),)), grid(4), 9, seed=4)
        incs = np.diff(ens.samples, axis=-2)
        end = lift_endpoint(incs)
        total = ens.samples[:, -1, 0] - ens.samples[:, 0, 0]
        assert np.allclose(end.level2[:, 0, 0], total ** 2 / 2, rtol=1e-10, atol=1e-12)
        assert np.allclose(end.level3[:, 0, 0, 0], total ** 3 / 6, rtol=1e-10, atol=1e-12)

    def test_endpoint_matches_full_lift(self):
        ens = sample(BM2, grid(4), 7, seed=6)
        incs = np.diff(ens.samples, axis=-2)
        end = lift_endpoint(incs)
        full = lift_ensemble(ens)
        assert np.allclose(end.level3, full.values.tensor.level3[:, -1], atol=1e-14)

    def test_bm_area_mean_zero(self):
        ens = sample(BM2, grid(5), 4000, seed=8)
        incs = np.diff(ens.samples, axis=-2)
        end = lift_endpoint(incs)
        area = 0.5 * (end.level2[:, 0, 1] - end.level2[:, 1, 0])
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

    def test_same_component_rejected(self):
        with pytest.raises(ValueError):
            level2_variance_check(BM2, i=1, j=1, n=10)

    def test_off_grid_interval_rejected(self):
        with pytest.raises(ValueError):
            level2_variance_check(BM2, interval=(0.0, 0.3), n=10, grid_level=3)


class TestLevelBounds:
    def test_bm_scaling_slopes(self):
        spec = ProcessSpec((bm_cov(),) * 3)
        rep = level_bounds_check(spec, interval_levels=(1, 2, 3), n=3000,
                                 seed=4, grid_level=5)
        # Brownian scaling forces moment exponents 1, 2, 3 per level
        assert rep["words"]["1"]["log2_slope"] == pytest.approx(1.0, abs=0.15)
        assert rep["words"]["12"]["log2_slope"] == pytest.approx(2.0, abs=0.3)
        assert rep["words"]["123"]["log2_slope"] == pytest.approx(3.0, abs=0.45)
        for w in rep["words"].values():
            assert np.isfinite(w["smallest_C"]) and w["smallest_C"] > 0.0

    def test_fbm_constants_stable(self):
        spec = ProcessSpec((fbm_cov(0.4),) * 3)
        rep = level_bounds_check(spec, interval_levels=(1, 2, 3), n=3000,
                                 seed=5, grid_level=5)
        for w in rep["words"].values():
            consts = w["envelope_constants"]
            assert max(consts) / min(consts) < 4.0

    def test_requirements(self):
        with pytest.raises(ValueError):
            level_bounds_check(BM2, n=10)
        # a level finer than the grid would lift zero increments
        for levels in ((1, 2, 3), (-1, 1)):
            with pytest.raises(ValueError, match="interval levels"):
                level_bounds_check(ProcessSpec((bm_cov(),) * 3), n=10,
                                   interval_levels=levels, grid_level=2)
        with pytest.raises(ValueError):
            level_bounds_check(ProcessSpec((bm_cov(), bm_cov(), fbm_cov(0.4))), n=10)


class TestDyadicConvergence:
    def test_bm_negative_slope(self):
        rep = dyadic_convergence(BM2, p=2.5, levels=(3, 4, 5), n=60, seed=4)
        assert rep["ok"] and rep["log2_slope"] < 0.0
        assert all(a > b for a, b in zip(rep["l2_means"][:-1], rep["l2_means"][1:]))

    def test_reference_roundtrip_is_zero(self):
        ens = sample(BM2, grid(5), 10, seed=6)
        ref = lift_ensemble(ens)
        again = lift_ensemble(restrict_to(ens, ens.grid))
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
        rep = weak_limit_fbm((0.5,), n=3000, seed=2, grid_level=6)
        est = rep["statistics"][0]
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


class TestProductSurface:
    def test_edges_zero_and_constant_stable(self):
        rep = product_moment_surface_check(BM2, n=1500, seed=3)
        assert rep["edges_zero"]
        assert rep["constant_spread"] < 3.0
        for row in rep["rows"]:
            assert row["variation"] > 0.0
