import numpy as np
import pytest

from rough_gauss.covariance import (
    CovarianceKernel,
    ProcessSpec,
    bm_cov,
    bridge_cov,
    coutin_qian_check,
    fbm_cov,
    gram_matrix,
    kernel_from_config,
    kernel_to_config,
    ou_cov,
    square_variation,
)
from rough_gauss.simulate import sample
from rough_gauss.variation_2d import (EXACT_INTERVAL_CAP, YOUNG_INTERVAL_CAP, GridFunction2D,
                                      rho_variation)

from oracles import fbm_rhovar_bound_check


class TestKernelCatalog:
    def test_bm_values(self):
        k = bm_cov()
        assert k(0.3, 0.7) == 0.3
        assert k(0.7, 0.3) == 0.3
        assert k.rho == 1.0

    def test_fbm_half_is_bm(self):
        rng = np.random.default_rng(0)
        k = fbm_cov(0.5)
        s, t = rng.uniform(size=100), rng.uniform(size=100)
        np.testing.assert_allclose(k(s, t), np.minimum(s, t), atol=1e-12)

    def test_fbm_parameters(self):
        assert fbm_cov(0.25).rho == pytest.approx(2.0)
        assert fbm_cov(0.75).rho == 1.0
        with pytest.raises(ValueError):
            fbm_cov(0.0)
        with pytest.raises(ValueError):
            fbm_cov(1.0)

    def test_symmetry_everywhere(self):
        rng = np.random.default_rng(1)
        s, t = rng.uniform(size=50), rng.uniform(size=50)
        for k in (bm_cov(), fbm_cov(0.3), ou_cov(2.0), ou_cov(1.5, stationary=False),
                  bridge_cov(bm_cov())):
            np.testing.assert_allclose(k(s, t), k(t, s), atol=1e-14)

    def test_ou_variants(self):
        k = ou_cov(2.0, sigma=1.5)
        assert k(0.4, 0.4) == pytest.approx(1.5**2 / 4.0)
        k0 = ou_cov(2.0, stationary=False)
        np.testing.assert_allclose(k0(0.0, np.linspace(0, 1, 5)), 0.0, atol=1e-15)
        assert k0(0.5, 0.5) < k(0.5, 0.5) / (1.5**2 / 1.0)
        with pytest.raises(ValueError):
            ou_cov(0.0)
        with pytest.raises(ValueError):
            ou_cov(1.0, sigma=-1.0)
        for theta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="theta"):
                ou_cov(theta)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                ou_cov(1.0, sigma=sigma)

    def test_bridge_of_bm(self):
        k = bridge_cov(bm_cov())
        rng = np.random.default_rng(2)
        s, t = rng.uniform(size=60), rng.uniform(size=60)
        np.testing.assert_allclose(k(s, t), np.minimum(s, t) - s * t, atol=1e-14)
        np.testing.assert_allclose(k(s, np.ones(60)), 0.0, atol=1e-14)
        np.testing.assert_allclose(k(np.ones(60), t), 0.0, atol=1e-14)


class TestGram:
    def test_single_point(self):
        G = gram_matrix(fbm_cov(0.4), [0.6])
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(0.6**0.8)

    def test_bm_frozen_matrix(self):
        G = gram_matrix(bm_cov(), [0.25, 0.5, 1.0])
        np.testing.assert_allclose(
            G,
            [[0.25, 0.25, 0.25], [0.25, 0.5, 0.5], [0.25, 0.5, 1.0]],
            atol=1e-15,
        )

    @pytest.mark.parametrize(
        "k",
        [bm_cov(), fbm_cov(0.3), fbm_cov(0.7), ou_cov(1.0), ou_cov(2.0, stationary=False),
         bridge_cov(fbm_cov(0.4))],
        ids=lambda k: k.name,
    )
    def test_psd_on_grids(self, k):
        grid = np.linspace(0.0, 1.0, 33)
        G = gram_matrix(k, grid)
        lam = np.linalg.eigvalsh(G)
        assert lam[0] >= -1e-10 * np.max(np.abs(lam))

    def test_non_psd_reported(self):
        # kernels with Gram trace <= 0: the clipped mass is all of the mass
        for ev in (lambda s, t: -np.minimum(s, t),
                   lambda s, t: -np.ones(np.broadcast(s, t).shape)):
            fake = CovarianceKernel("fake", ev, 1.0)
            with pytest.raises(ValueError, match="indefinite"):
                sample(ProcessSpec((fake,)), np.linspace(0, 1, 5), 3, seed=0)


class TestCoutinQian:
    def test_bm_constants(self):
        rep = coutin_qian_check(bm_cov(), 0.5)
        assert rep["c_ass1"] == pytest.approx(1.0, rel=1e-12)
        assert rep["c_ass2"] == pytest.approx(0.0, abs=1e-14)
        rep2 = coutin_qian_check(bm_cov(), 0.5, c_H=1.5)
        assert rep2["passes"]

    def test_fbm_self_consistent(self):
        rep = coutin_qian_check(fbm_cov(0.3), 0.3)
        assert np.isfinite(rep["c_ass1"]) and np.isfinite(rep["c_ass2"])
        assert rep["c_ass1"] == pytest.approx(1.0, rel=1e-10)  # E|B_{s,t}|^2 = |t-s|^{2H}
        assert coutin_qian_check(fbm_cov(0.3), 0.3, c_H=1.1 * max(rep["c_ass1"], rep["c_ass2"]))["passes"]

    def test_exponent_mismatch_blows_up(self):
        # with H = 0.45 against the kernel's 0.3, c_ass1 is the max over the
        # grid of |t-s|^{-0.3}, reached on the shortest step 1/64: 64^0.3
        matched = coutin_qian_check(fbm_cov(0.3), 0.3)
        mismatched = coutin_qian_check(fbm_cov(0.3), 0.45)
        assert mismatched["c_ass1"] == pytest.approx(64 ** 0.3, rel=1e-10)
        assert mismatched["c_ass1"] > 3.0 * matched["c_ass1"]
        assert not coutin_qian_check(fbm_cov(0.3), 0.45,
                                     c_H=1.1 * matched["c_ass1"])["passes"]


    @pytest.mark.parametrize("H", [np.nan, 0.0, 1.0])
    def test_h_outside_unit_interval_rejected(self, H):
        with pytest.raises(ValueError, match=r"H must lie in \(0, 1\)"):
            coutin_qian_check(bm_cov(), H)

    def test_nan_constant_rejected(self):
        with pytest.raises(ValueError, match="c_H must be finite"):
            coutin_qian_check(bm_cov(), 0.5, c_H=np.nan)


class TestFbmVariationEnvelope:
    def test_h_half_is_exact_length(self):
        rep = fbm_rhovar_bound_check(0.5)
        np.testing.assert_allclose(rep["ratios"], 1.0, rtol=1e-12)
        assert rep["disjoint_increment_cov"] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("H", [0.3, 0.4])
    def test_self_similar_scaling_and_envelope(self, H):
        rep = fbm_rhovar_bound_check(H)
        v1 = rep["values"][0]
        # exact self-similarity: value over [0,w]^2 = w^{2H} * value over [0,1]^2
        for w, v in zip(rep["sizes"], rep["values"]):
            assert v == pytest.approx(w ** (2 * H) * v1, rel=1e-10)
        assert rep["ratio_spread"] == pytest.approx(4.0 ** (1 - 2 * H), rel=1e-10)
        assert rep["ratio_spread"] < 2.0
        assert rep["disjoint_nonpositive"]
        assert rep["disjoint_increment_cov"] < 0

    def test_h_out_of_range(self):
        with pytest.raises(ValueError):
            fbm_rhovar_bound_check(0.6)


class TestSquareVariation:
    def test_exact_to_cap_then_local_search(self):
        k = fbm_cov(0.4)
        for n, mode in ((EXACT_INTERVAL_CAP, "exact"),
                        (EXACT_INTERVAL_CAP + 1, "local-search")):
            g = np.linspace(0.0, 1.0, n + 1)
            f = GridFunction2D(g, g, k.grid_eval(g, g))
            assert square_variation(k, 1.0, n, 1.25) == rho_variation(f, 1.25, mode=mode)

    @pytest.mark.parametrize("n", [0, YOUNG_INTERVAL_CAP + 1, 10**12])
    def test_interval_count_bounded(self, n):
        # rejected before the grid is built
        with pytest.raises(ValueError, match=r"grid_intervals must be (>= 1|<= 4096)"):
            square_variation(bm_cov(), 1.0, n, 1.0)


class TestHContinuity:
    def test_sup_distance_decreases(self):
        g = np.linspace(0, 1, 65)
        base = fbm_cov(0.4).grid_eval(g, g)
        gaps = []
        for k_ in (1, 2, 3, 4):
            other = fbm_cov(0.4 + 0.1 * 2.0**-k_).grid_eval(g, g)
            gaps.append(np.max(np.abs(other - base)))
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
        assert gaps[-1] < 0.02


class TestConfig:
    def test_dict_and_string_forms(self):
        k1 = kernel_from_config({"kernel": "fbm", "H": 0.4})
        k2 = kernel_from_config("fbm:H=0.4")
        assert k1.params == k2.params == {"H": 0.4}
        k3 = kernel_from_config("ou:theta=2.0,sigma=0.5,stationary=false")
        assert k3.params["stationary"] is False
        assert kernel_from_config("bm").name == "bm"

    def test_bridge_wrapper(self):
        k = kernel_from_config("bridge(bm)")
        assert k(0.5, 0.5) == pytest.approx(0.25)

    def test_errors(self):
        with pytest.raises(ValueError):
            kernel_from_config("levy")
        with pytest.raises(ValueError):
            kernel_from_config({"kernel": "fbm"})
        with pytest.raises(ValueError):
            kernel_from_config({"kernel": "bm", "H": 0.3})
        with pytest.raises(ValueError):
            kernel_from_config("fbm:H0.4")

    def test_ou_alone_is_unit_stationary(self):
        k = kernel_from_config("ou")
        assert k.params == {"theta": 1.0, "sigma": 1.0, "stationary": True}
        assert k(0.3, 0.7) == pytest.approx(0.5 * np.exp(-0.4), rel=1e-15)

    @pytest.mark.parametrize("spec, kernel", [
        ({"kernel": "fbm"}, "'fbm'"),
        ("fbm:H=0.4,theta=2", "'fbm'"),
        ({"kernel": "bm", "H": 0.3}, "'bm'"),
        ("ou:kappa=1", "'ou'"),
        ("bridge(ou):sigma=1,H=0.2", "'ou'"),
        ({"kernel": "ou", "stationary": "false"}, "'ou': parameter 'stationary'"),
        ("ou:stationary=no", "'ou': parameter 'stationary'"),
        ("ou:theta=true", "'ou': parameter 'theta'"),
        ("fbm:H=abc", "'fbm': parameter 'H'"),
    ])
    def test_bad_parameter_names_kernel(self, spec, kernel):
        with pytest.raises(ValueError, match=f"kernel {kernel}"):
            kernel_from_config(spec)

    def test_roundtrip(self):
        for spec in ({"kernel": "bm"}, {"kernel": "fbm", "H": 0.3},
                     {"kernel": "ou", "theta": 2.0, "sigma": 1.0, "stationary": True},
                     {"kernel": "bridge(fbm)", "H": 0.4},
                     {"kernel": "bridge(ou)", "theta": 2.0, "sigma": 0.5,
                      "stationary": False}):
            k = kernel_from_config(spec)
            again = kernel_from_config(kernel_to_config(k))
            assert again.name == k.name
            assert again.params == k.params


def test_process_spec():
    ps = ProcessSpec((bm_cov(), fbm_cov(0.4)))
    assert ps.dim == 2
    assert ps.rho == pytest.approx(1.25)
    with pytest.raises(ValueError):
        ProcessSpec(())
