import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_gauss.covariance import ProcessSpec, bm_cov, fbm_cov
from rough_gauss.path_lift import (
    PiecewisePath,
    holder_dist,
    holder_norm,
    lift_s3,
)
from rough_gauss.regularity import (
    BesovStats,
    besov_distance_check,
    besov_functional,
    chaos_ratio_check,
    grr_holder_check,
    path_holder_norm,
    q0_grr,
)
from rough_gauss.simulate import lift_endpoint, lift_ensemble, restrict_to, sample
from rough_gauss.tensor_algebra import GroupElement, hall_log_signature


def _line(n=128):
    t = np.linspace(0.0, 1.0, n + 1)
    return t, PiecewisePath(t, t[:, None])


def _bm_spec(d=2):
    return ProcessSpec((bm_cov(),) * d)


class TestQ0:
    def test_values(self):
        # 0.5/(1 - 0.5) = 1 loses to 4r = 4
        assert q0_grr(1.0, 0.5) == 4.0
        # 0.5/(1/2.6 - 0.3) ~ 5.91 loses to 4r = 10.4
        assert q0_grr(2.6, 0.3) == pytest.approx(10.4)
        # branch where the variance term wins
        assert q0_grr(1.0, 0.9) == pytest.approx(5.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            q0_grr(0.5, 0.1)
        with pytest.raises(ValueError):
            q0_grr(2.0, 0.5)  # alpha = 1/r not allowed
        with pytest.raises(ValueError):
            q0_grr(1.0, -0.1)


class TestFunctional:
    def test_constant_path_zero(self):
        t = np.linspace(0, 1, 9)
        flat = PiecewisePath(t, np.full((9, 3), 2.5))
        assert besov_functional(flat, 2.0, 1.0) == 0.0
        lifted = lift_s3(flat)
        assert besov_functional(lifted, 2.0, 1.0) == 0.0

    def test_line_q2_r1(self):
        # integrand is identically 1; the trapezoid rule gives
        # (sum w)^2 - sum w^2 = 1 - (1/n - 1/(2 n^2)) on the uniform grid
        n, (t, line) = 128, (None, None)
        t, line = _line(n)
        got = besov_functional(line, 2.0, 1.0)
        assert got == pytest.approx(1.0 - (1.0 / n - 0.5 / n**2), rel=1e-12)
        assert got == pytest.approx(1.0, rel=0.01)

    def test_batch_matches_loop(self):
        spec = _bm_spec()
        grid = np.linspace(0, 1, 33)
        ens = sample(spec, grid, 6, seed=4)
        gp = lift_ensemble(ens)
        batch = besov_functional(gp, 4.0, 2.5)
        pts = ens.paths().points
        for i in range(ens.n):
            single = besov_functional(lift_s3(PiecewisePath(grid, pts[i])), 4.0, 2.5)
            assert single == pytest.approx(batch[i], rel=1e-12)

    def test_refinement_consistency(self):
        # relative change < 5% from the 2^7 to the 2^8 grid
        spec = _bm_spec()
        fine = np.linspace(0, 1, 2**8 + 1)
        ens = sample(spec, fine, 30, seed=7)
        f_fine = besov_functional(lift_ensemble(ens), 4.0, 2.5)
        f_coarse = besov_functional(
            lift_ensemble(restrict_to(ens, fine[::2])), 4.0, 2.5)
        rel = np.abs(f_coarse - f_fine) / f_fine
        assert np.max(rel) < 0.05

    def test_invalid_args(self):
        _, line = _line(8)
        with pytest.raises(ValueError):
            besov_functional(line, 0.5, 1.0)
        with pytest.raises(ValueError):
            besov_functional(line, 2.0, 0.9)
        with pytest.raises(TypeError):
            besov_functional(np.zeros((4, 2)), 2.0, 1.0)


class TestHolderNorm:
    def test_line(self):
        _, line = _line(64)
        assert path_holder_norm(line, 1.0) == pytest.approx(1.0, abs=1e-12)
        # sup (t-s)^{1-alpha} is attained at the full interval
        assert path_holder_norm(line, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_group_path_equals_path_lift_holder_norm(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 1.0, 17)
        gp = lift_s3(PiecewisePath(t, np.cumsum(rng.standard_normal((3, 17, 2)), axis=1)))
        for a in (0.3, 0.5, 1.0):
            np.testing.assert_array_equal(path_holder_norm(gp, a), holder_norm(gp, a))

    def test_invalid_alpha(self):
        _, line = _line(8)
        with pytest.raises(ValueError):
            path_holder_norm(line, 0.0)
        with pytest.raises(ValueError):
            path_holder_norm(line, 1.5)


class TestGrrHolder:
    def test_constant_path(self):
        t = np.linspace(0, 1, 17)
        rep = grr_holder_check(PiecewisePath(t, np.ones((17, 2))), r=1.0, alpha=0.5)
        assert rep["ok"] and rep["violations"] == 0
        assert rep["slack"] == pytest.approx(0.0, abs=1e-15)

    def test_line_closed_form(self):
        n = 64
        _, line = _line(n)
        rep = grr_holder_check(line, r=1.0, alpha=0.5)
        assert rep["q"] == 4.0 and rep["stats"].constants == (4.0, 64.0)
        # both sides in closed form: ||f|| = 1, F = 1 - (1/n - 1/(2n^2))
        F = 1.0 - (1.0 / n - 0.5 / n**2)
        assert rep["slack"] == pytest.approx(64.0 * F**0.25 - 1.0, rel=1e-12)
        assert rep["ok"]

    def test_fbm_sweep(self):
        spec = ProcessSpec((fbm_cov(0.4),) * 2)
        grid = np.linspace(0, 1, 65)
        gp = lift_ensemble(sample(spec, grid, 100, seed=11))
        rep = grr_holder_check(gp, r=2.6, alpha=0.3)
        assert rep["ok"] and rep["violations"] == 0
        assert rep["n_checked"] == 100
        assert rep["worst_ratio"] < 1.0

    def test_stats_equal_separate_calls(self):
        # one distance matrix per path serves both sides of the inequality
        spec = ProcessSpec((fbm_cov(0.4),) * 2)
        gp = lift_ensemble(sample(spec, np.linspace(0, 1, 33), 5, seed=2))
        rep = grr_holder_check(gp, r=2.6, alpha=0.3)
        q = rep["q"]
        assert rep["stats"].double_integral == np.max(besov_functional(gp, q, 2.6))
        assert rep["stats"].holder_norm == np.max(path_holder_norm(gp, 0.3))

    def test_explicit_q_above_q0(self):
        _, line = _line(32)
        rep = grr_holder_check(line, r=1.0, alpha=0.5, q=6.0)
        assert rep["ok"] and rep["q"] == 6.0

    def test_preconditions(self):
        _, line = _line(8)
        with pytest.raises(ValueError):
            grr_holder_check(line, r=1.0, alpha=0.5, q=3.0)  # below q0 = 4
        with pytest.raises(ValueError):
            grr_holder_check(line, r=2.0, alpha=0.6)  # alpha >= 1/r
        with pytest.raises(ValueError):
            grr_holder_check(line, r=0.8, alpha=0.1)
        with pytest.raises(ValueError):
            grr_holder_check(line, r=1.0, alpha=0.0)  # Holder needs alpha > 0

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_never_fails_on_random_paths(self, data):
        # the inequality is unconditional, so any grid path must satisfy it
        n = data.draw(st.integers(min_value=2, max_value=12), label="segments")
        vals = data.draw(
            st.lists(
                st.tuples(
                    st.floats(-4.0, 4.0, allow_nan=False),
                    st.floats(-4.0, 4.0, allow_nan=False),
                ),
                min_size=n + 1,
                max_size=n + 1,
            ),
            label="points",
        )
        r = data.draw(st.floats(1.0, 2.0), label="r")
        frac = data.draw(st.floats(0.05, 0.95), label="alpha_frac")
        alpha = frac / r
        t = np.linspace(0, 1, n + 1)
        path = PiecewisePath(t, np.asarray(vals))
        assert grr_holder_check(path, r=r, alpha=alpha)["ok"]
        assert grr_holder_check(lift_s3(path), r=r, alpha=alpha)["ok"]


class TestBesovDistance:
    def _pair(self, eps, seed=3, n=65):
        spec = _bm_spec()
        grid = np.linspace(0, 1, n)
        x = sample(spec, grid, 1, seed=seed).samples[0]
        w = sample(spec, grid, 1, seed=seed, stream=1).samples[0]
        return (lift_s3(PiecewisePath(grid, x)),
                lift_s3(PiecewisePath(grid, x + eps * w)))

    def test_identical_paths(self):
        x, _ = self._pair(0.0)
        rep = besov_distance_check(x, x, r=2.2, alpha=0.3)
        assert rep["hypotheses_ok"]
        # cube roots of float zeros: the distance reads as ~1e-5, not 0
        assert rep["distance"] < 1e-4
        assert rep["c_required"] < 1e-3

    def test_perturbed_instance(self):
        x, y = self._pair(0.05)
        rep = besov_distance_check(x, y, r=2.2, alpha=0.3)
        assert rep["hypotheses_ok"]
        assert 0.0 < rep["theta"] < 1.0
        assert np.isfinite(rep["c_required"]) and rep["c_required"] > 0
        judged = besov_distance_check(
            x, y, r=2.2, alpha=0.3, C=rep["c_required"] * 1.1)
        assert judged["ok"]

    def test_distance_is_holder_dist(self):
        x, y = self._pair(0.05)
        rep = besov_distance_check(x, y, r=2.2, alpha=0.3)
        assert rep["distance"] == float(holder_dist(x, y, 0.3))

    def test_theta_formula(self):
        x, y = self._pair(0.1)
        rep = besov_distance_check(x, y, r=2.0, alpha=0.25)
        a_p = (0.25 + 0.5) / 2
        assert rep["alpha_prime"] == pytest.approx(a_p)
        assert rep["theta"] == pytest.approx((a_p - 0.25) / (a_p * 9.0))

    def test_delta_ladder_regression(self):
        # distances must decay at least like delta^theta along the ladder
        reps = [besov_distance_check(*self._pair(eps), r=2.2, alpha=0.3)
                for eps in (0.2, 0.1, 0.05)]
        deltas = np.array([r["delta"] for r in reps])
        dists = np.array([r["distance"] for r in reps])
        assert np.all(np.diff(deltas) < 0)
        assert np.all(np.diff(dists) < 0)
        slope = np.polyfit(np.log(deltas), np.log(dists), 1)[0]
        assert slope >= reps[0]["theta"]

    def test_bad_hypotheses_reported_not_raised(self):
        x, y = self._pair(0.1)
        rep = besov_distance_check(x, y, r=2.2, alpha=0.3, M=1e-6, delta=1.0)
        assert not rep["hypotheses_ok"]
        assert not rep["hypotheses"]["x_functional"]

    def test_grid_mismatch(self):
        x, _ = self._pair(0.1, n=65)
        y, _ = self._pair(0.1, n=33)
        with pytest.raises(ValueError):
            besov_distance_check(x, y, r=2.2, alpha=0.3)


class TestChaosRatios:
    def test_gaussian_level1(self):
        rng = np.random.default_rng(0)
        rep = chaos_ratio_check(rng.standard_normal(10_000), 1)
        assert rep["ok"] and not rep["degenerate"]
        by_q = {row["q"]: row for row in rep["rows"]}
        # true L4/L2 ratio for a Gaussian is 3^{1/4}
        assert by_q[4]["ratio"] == pytest.approx(3.0**0.25, abs=0.02)
        assert by_q[4]["bound"] == pytest.approx(2.0 * 3.0**0.5)
        ratios = [row["ratio"] for row in rep["rows"]]
        assert ratios == sorted(ratios)

    def test_second_chaos_closed_form(self):
        # Z = g^2 - 1: E Z^2 = 2, E Z^4 = 60, so L4/L2 = (60)^{1/4}/2^{1/2}
        rng = np.random.default_rng(1)
        g = rng.standard_normal(200_000)
        rep = chaos_ratio_check(g**2 - 1.0, 2, qs=(4,))
        row = rep["rows"][0]
        assert row["ratio"] == pytest.approx(60.0**0.25 / 2.0**0.5, rel=0.02)
        assert row["bound"] == pytest.approx(9.0)
        assert rep["ok"]

    def test_levy_area_coordinate(self):
        spec = _bm_spec()
        grid = np.linspace(0, 1, 129)
        ens = sample(spec, grid, 4000, seed=21)
        end = lift_endpoint(np.diff(ens.samples, axis=-2))
        area = hall_log_signature(GroupElement(end)).coords[..., 2]
        rep = chaos_ratio_check(area, 2, qs=(4,))
        assert rep["ok"]
        assert rep["rows"][0]["ratio"] < rep["rows"][0]["bound"]

    def test_zero_samples_trivial(self):
        rep = chaos_ratio_check(np.zeros(500), 3)
        assert rep["ok"] and rep["degenerate"] and rep["rows"] == []

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            chaos_ratio_check(np.ones(10), 4)


class TestBesovStats:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BesovStats(-1.0, 0.0, (4.0, 64.0))
        with pytest.raises(ValueError):
            BesovStats(1.0, np.inf, (4.0, 64.0))

    def test_constants_tuple(self):
        s = BesovStats(1.0, 0.5, [4.0, 64.0])
        assert s.constants == (4.0, 64.0)
