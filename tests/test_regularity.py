import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_gauss.covariance import ProcessSpec, bm_cov, fbm_cov
from rough_gauss.path_lift import (
    PiecewisePath,
    holder_norm,
    increment,
    lift_s3,
    restrict_to,
)
from rough_gauss.regularity import (
    BesovStats,
    besov_functional,
    chaos_ratio_check,
    grr_holder_check,
    q0_grr,
)
from rough_gauss.simulate import lift_endpoint, sample
from rough_gauss.tensor_algebra import GroupElement, hall_log_signature, homogeneous_norm


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
        # a lone path sums its pairs in the same order as a batch entry, for
        # the lifted and for the unlifted ensemble
        grid = np.linspace(0, 1, 33)
        ens = sample(_bm_spec(), grid, 6, seed=4)
        for lift in (lift_s3, lambda path: path):
            batch = besov_functional(lift(ens), 4.0, 2.5)
            for i, pts in enumerate(ens.points):
                assert besov_functional(lift(PiecewisePath(grid, pts)), 4.0, 2.5) == batch[i]

    @staticmethod
    def _terms(gp, q, r):
        """(n(n-1)/2, *batch) Besov terms in row-major pair order, from the
        public increment and norm."""
        t = gp.times
        w = np.empty_like(t)
        w[0], w[-1] = (t[1] - t[0]) / 2, (t[-1] - t[-2]) / 2
        w[1:-1] = (t[2:] - t[:-2]) / 2
        pairs = [(i, j) for i in range(t.size) for j in range(i + 1, t.size)]
        norms = np.array([homogeneous_norm(increment(gp, t[i], t[j])) for i, j in pairs])
        dt = np.array([t[j] - t[i] for i, j in pairs])
        weights = np.array([w[i] * w[j] for i, j in pairs])
        col = (-1,) + (1,) * (norms.ndim - 1)
        return (norms / (dt ** (1.0 / r)).reshape(col)) ** q * weights.reshape(col)

    @pytest.mark.parametrize("d, n", [(1, 9), (2, 9), (2, 17)])
    def test_pair_order_is_pinned(self, d, n):
        # a batch sums its pairs left to right in row-major order, and so
        # does a single path
        q, r = 4.0, 2.5
        grid = np.linspace(0, 1, n)
        ens = sample(_bm_spec(d), grid, 3, seed=d + n)
        gp = lift_s3(ens)
        acc = np.zeros(3)
        for term in self._terms(gp, q, r):
            acc = acc + term
        assert np.array_equal(besov_functional(gp, q, r), 2.0 * acc)
        for k in range(3):
            single = lift_s3(PiecewisePath(grid, ens.points[k]))
            acc = 0.0
            for term in self._terms(single, q, r):
                acc = acc + term
            assert besov_functional(single, q, r) == 2.0 * acc

    def test_refinement_consistency(self):
        # relative change < 5% from the 2^7 to the 2^8 grid
        spec = _bm_spec()
        fine = np.linspace(0, 1, 2**8 + 1)
        ens = sample(spec, fine, 30, seed=7)
        f_fine = besov_functional(lift_s3(ens), 4.0, 2.5)
        f_coarse = besov_functional(
            lift_s3(restrict_to(ens, fine[::2])), 4.0, 2.5)
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

    @pytest.mark.parametrize("name", ["q", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_exponents_must_be_finite(self, name, value):
        _, line = _line(8)
        args = {"q": 2.0, "r": 1.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 1"):
            besov_functional(line, **args)

    def test_blocks_equal_whole_lift(self):
        ens = sample(_bm_spec(), np.linspace(0, 1, 17), 6, seed=3)
        whole = besov_functional(lift_s3(ens), 4.0, 2.5)
        blocks = (lift_s3(PiecewisePath(ens.times, x)) for x in np.split(ens.points, [2]))
        got = besov_functional(blocks, 4.0, 2.5)
        assert got.shape == (6,) and (got == whole).all()

    def test_blocks_need_paths_on_one_grid(self):
        with pytest.raises(ValueError):
            besov_functional(iter(()), 2.0, 1.0)
        ens = sample(_bm_spec(), np.linspace(0, 1, 9), 4, seed=1)
        blocks = [lift_s3(ens), lift_s3(restrict_to(ens, np.linspace(0, 1, 5)))]
        with pytest.raises(ValueError, match="share one grid"):
            besov_functional(blocks, 2.0, 1.0)


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
        gp = lift_s3(sample(spec, grid, 100, seed=11))
        rep = grr_holder_check(gp, r=2.6, alpha=0.3)
        assert rep["ok"] and rep["violations"] == 0
        assert rep["n_checked"] == 100
        assert rep["worst_ratio"] < 1.0

    def test_stats_equal_separate_calls(self):
        # one pass over the pair rows serves both sides of the inequality
        spec = ProcessSpec((fbm_cov(0.4),) * 2)
        gp = lift_s3(sample(spec, np.linspace(0, 1, 33), 5, seed=2))
        rep = grr_holder_check(gp, r=2.6, alpha=0.3)
        q = rep["q"]
        assert rep["stats"].double_integral == np.max(besov_functional(gp, q, 2.6))
        assert rep["stats"].holder_norm == np.max(holder_norm(gp, 0.3))

    def test_memory_stays_below_pair_distances(self):
        # the n(n-1)/2 x 100 pair distances alone would fill 25 MiB
        gp = lift_s3(sample(_bm_spec(), np.linspace(0, 1, 257), 100, seed=0))
        tracemalloc.start()
        try:
            grr_holder_check(gp, r=2.6, alpha=0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 257 * 256 // 2 * 100 * 8

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

    @pytest.mark.parametrize("q", [np.nan, np.inf])
    def test_q_must_be_finite(self, q):
        # an infinite q used to pass with a double integral of 0
        _, line = _line(8)
        with pytest.raises(ValueError, match="q must be finite and >= 1"):
            grr_holder_check(line, r=2.0, alpha=0.3, q=q)

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
        rep = chaos_ratio_check(g**2 - 1.0, 2)
        row = rep["rows"][0]
        assert row["ratio"] == pytest.approx(60.0**0.25 / 2.0**0.5, rel=0.02)
        assert row["bound"] == pytest.approx(9.0)
        assert rep["ok"]

    def test_levy_area_coordinate(self):
        spec = _bm_spec()
        grid = np.linspace(0, 1, 129)
        ens = sample(spec, grid, 4000, seed=21)
        end = lift_endpoint(np.diff(ens.points, axis=-2))
        area = hall_log_signature(GroupElement(end)).coords[..., 2]
        rep = chaos_ratio_check(area, 2)
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
