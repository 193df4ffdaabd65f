import io
import tracemalloc

import numpy as np
import pytest

from rough_gauss import path_lift
from rough_gauss.path_lift import (
    GroupPath,
    PiecewisePath,
    _blocks,
    _pair_rows,
    dist_0,
    dist_inf,
    holder_dist,
    holder_norm,
    increment,
    lift_increments,
    lift_s3,
    path_inf_norm,
    pvar_dist,
    pvar_norm,
    read_path_csv,
    refine_path,
    restrict_to,
    write_path_csv,
)
from rough_gauss.tensor_algebra import (
    GroupElement,
    TruncatedTensor,
    cc_distance,
    exp_trunc,
    hall_log_signature,
    homogeneous_norm,
    identity_element,
    shuffle_residual,
    tensor_mul,
)
from rough_gauss.variation_2d import (
    GridFunction2D,
    _longest_path,
    _positions,
    _upper_rows,
    rect_increment,
)

import oracles


def random_path(rng, n, d, batch=()):
    times = np.concatenate([[0.0], np.sort(rng.uniform(size=n - 2)), [1.0]])
    pts = np.cumsum(rng.standard_normal(batch + (n, d)), axis=-2)
    pts = pts - pts[..., :1, :]
    return PiecewisePath(times, pts)


def pair_matrix(x, y=None):
    """(..., n, n) pair distances from the public functions: upper triangle
    d(x_{s,t}, y_{s,t}), or ||x_{s,t}|| when y is None; the rest is 0."""
    t = x.times
    m = np.zeros(x.batch_shape + (x.n_times, x.n_times))
    for i in range(x.n_times):
        for j in range(i + 1, x.n_times):
            inc = increment(x, t[i], t[j])
            m[..., i, j] = (homogeneous_norm(inc) if y is None
                            else cc_distance(inc, increment(y, t[i], t[j])))
    return m


def l_shaped():
    return PiecewisePath(
        np.array([0.0, 0.5, 1.0]),
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
    )


class TestLift:
    def test_constant_path_lifts_to_identity(self):
        p = PiecewisePath(np.array([0.0, 0.3, 1.0]), np.full((3, 2), 1.7))
        gp = lift_s3(p)
        assert np.all(gp.values.tensor.level1 == 0)
        assert np.all(gp.values.tensor.level2 == 0)
        assert np.all(gp.values.tensor.level3 == 0)

    def test_straight_segment_level2_and_zero_area(self):
        p = PiecewisePath(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 1.0]]))
        gp = lift_s3(p)
        v = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            gp.values.tensor.level2[..., 1], 0.5 * np.outer(v, v), atol=1e-15
        )
        log = hall_log_signature(increment(gp, 0.0, 1.0))
        assert log.coords[2] == pytest.approx(0.0, abs=1e-15)  # [e1,e2] area

    def test_l_shape_area_is_half(self):
        gp = lift_s3(l_shaped())
        log = hall_log_signature(increment(gp, 0.0, 1.0))
        # matches the symbolic exp(e1) (x) exp(e2) product entries
        assert log.coords[2] == pytest.approx(0.5, abs=1e-15)

    def test_level1_reproduces_path_increments(self):
        rng = np.random.default_rng(0)
        p = random_path(rng, 9, 3)
        gp = lift_s3(p)
        np.testing.assert_allclose(
            gp.values.tensor.level1, (p.points - p.points[:1]).T, atol=1e-13
        )

    def test_chen_identity_on_grid(self):
        rng = np.random.default_rng(1)
        p = random_path(rng, 7, 2)
        gp = lift_s3(p)
        t = p.times
        left = tensor_mul(increment(gp, t[1], t[3]), increment(gp, t[3], t[6]))
        right = increment(gp, t[1], t[6])
        for a, b in zip(left.tensor.levels(), right.tensor.levels()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_increment_ss_is_identity_and_endpoint(self):
        rng = np.random.default_rng(2)
        p = random_path(rng, 5, 2)
        gp = lift_s3(p)
        e = increment(gp, p.times[2], p.times[2])
        assert np.all(e.tensor.level1 == 0)
        end = increment(gp, 0.0, 1.0)
        last = gp.values.tensor
        np.testing.assert_allclose(end.tensor.level3, last.level3[..., -1], atol=1e-12)

    def test_off_grid_time_rejected(self):
        gp = lift_s3(l_shaped())
        with pytest.raises(ValueError):
            increment(gp, 0.0, 0.25)

    def test_group_path_rejects_shifted_start(self):
        rng = np.random.default_rng(3)
        p = random_path(rng, 4, 2)
        gp = lift_s3(p)
        shift = increment(gp, 0.0, 1.0)  # some non-identity element
        with pytest.raises(ValueError):
            GroupPath(gp.times, tensor_mul(shift, gp.values))


class TestMetrics:
    def test_self_distances_vanish(self):
        # zero only up to roundoff: g^-1 (x) g leaves ~1e-16 residues that
        # the homogeneous norm amplifies through the level-3 cube root
        rng = np.random.default_rng(4)
        gp = lift_s3(random_path(rng, 8, 2))
        assert dist_inf(gp, gp) < 1e-4
        assert dist_0(gp, gp) < 1e-4
        assert holder_dist(gp, gp, 0.5) < 1e-3
        assert pvar_dist(gp, gp, 2.5) < 1e-3

    def test_dinf_below_d0(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = lift_s3(random_path(rng, 8, 2))
            y = lift_s3(PiecewisePath(x.times, random_path(rng, 8, 2).points))
            assert dist_inf(x, y) <= dist_0(x, y) + 1e-12

    def test_d0_dinf_holder_equivalence_bound(self):
        # d0 <= C max(dinf, dinf^(1/3) (|x|_inf + |y|_inf)^(2/3)), step N = 3;
        # the constant is empirical, the point is a uniform finite ratio
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(25):
            x = lift_s3(random_path(rng, 10, 2))
            y = lift_s3(PiecewisePath(x.times, random_path(rng, 10, 2).points))
            d0 = dist_0(x, y)
            di = dist_inf(x, y)
            cap = max(di, di ** (1 / 3) * (path_inf_norm(x) + path_inf_norm(y)) ** (2 / 3))
            worst = max(worst, d0 / cap)
        assert worst <= 12.0

    def test_holder_norm_of_straight_line(self):
        v = np.array([3.0, -4.0])
        p = PiecewisePath(np.array([0.0, 0.5, 1.0]), np.outer([0.0, 0.5, 1.0], v))
        assert holder_norm(lift_s3(p), 1.0) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e52, 1e60, 1e90])
    def test_holder_norm_scales_past_squared_overflow(self, scale):
        # level entries above ~1e154 overflow when squared
        p = PiecewisePath(np.linspace(0.0, 1.0, 3), np.array([[0, 0], [1.3, 0.7], [0.2, 1.9]]))
        big = PiecewisePath(p.times, scale * p.points)
        np.testing.assert_allclose(holder_norm(lift_s3(big), 0.5) / scale,
                                   holder_norm(lift_s3(p), 0.5), rtol=1e-12)

    def test_holder_dist_to_constant_is_norm(self):
        rng = np.random.default_rng(7)
        x = lift_s3(random_path(rng, 9, 2))
        const = lift_s3(PiecewisePath(x.times, np.zeros((9, 2))))
        np.testing.assert_allclose(
            holder_dist(x, const, 0.4), holder_norm(x, 0.4), rtol=1e-13
        )

    def test_interpolation_inequality(self):
        # d_{a'} <= 2^{a'/a} (|x|_a v |y|_a)^{a'/a} d0^{1 - a'/a}: each pair
        # contributes min(2 M (t-s)^a, d0) / (t-s)^{a'}, maximized in (t-s)
        rng = np.random.default_rng(8)
        a, ap = 0.5, 0.3
        for _ in range(10):
            x = lift_s3(random_path(rng, 9, 2))
            y = lift_s3(PiecewisePath(x.times, random_path(rng, 9, 2).points))
            m = max(holder_norm(x, a), holder_norm(y, a))
            lhs = holder_dist(x, y, ap)
            rhs = (2 * m) ** (ap / a) * dist_0(x, y) ** (1 - ap / a)
            assert lhs <= rhs * (1 + 1e-12)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        x = lift_s3(random_path(rng, 6, 2))
        y = lift_s3(random_path(rng, 7, 2))
        for fn in (dist_inf, dist_0):
            with pytest.raises(ValueError):
                fn(x, y)
        with pytest.raises(ValueError):
            pvar_dist(x, y, 2.0)

    def test_batch_mismatch_rejected(self):
        # the pair stream slices both paths by the same batch rows
        rng = np.random.default_rng(9)
        x = lift_s3(random_path(rng, 5, 2, (3,)))
        y = lift_s3(PiecewisePath(x.times, random_path(rng, 5, 2).points))
        for a, b in ((x, y), (y, x)):
            for fn in (dist_inf, dist_0, lambda a, b: pvar_dist(a, b, 2.0)):
                with pytest.raises(ValueError, match="one batch shape"):
                    fn(a, b)

    def test_invalid_parameters_rejected(self):
        rng = np.random.default_rng(10)
        x = lift_s3(random_path(rng, 6, 2))
        y = lift_s3(PiecewisePath(x.times, random_path(rng, 6, 2).points))
        for p in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                pvar_norm(x, p)
            with pytest.raises(ValueError):
                pvar_dist(x, y, p)
        with pytest.raises(ValueError):
            holder_norm(x, 1.5)


class TestPVariation:
    def test_monotone_straight_path_p1_is_displacement(self):
        p = PiecewisePath(
            np.array([0.0, 0.25, 0.6, 1.0]),
            np.array([[0.0], [0.5], [1.2], [2.0]]),
        )
        assert pvar_norm(lift_s3(p), 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_dp_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for n in (5, 8, 10):
            for _ in range(6):
                x = lift_s3(random_path(rng, n, 2))
                y = lift_s3(PiecewisePath(x.times, random_path(rng, n, 2).points))
                t = x.times
                # each pair distance once; the oracle looks them up for
                # every dissection and every p
                table = {
                    (i, j): float(
                        cc_distance(increment(x, t[i], t[j]), increment(y, t[i], t[j]))
                    )
                    for i in range(n)
                    for j in range(i + 1, n)
                }

                def dist(i, j):
                    return table[i, j]

                for p in (1.0, 1.7, 2.5):
                    ref = oracles.pvar_enumeration(dist, n, p) ** (1 / p)
                    got = float(pvar_dist(x, y, p))
                    assert got == pytest.approx(ref, rel=1e-10)

    def test_pvar_monotone_in_p(self):
        rng = np.random.default_rng(12)
        x = lift_s3(random_path(rng, 10, 3))
        vals = [float(pvar_norm(x, p)) for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))

    def test_reparametrization_invariance(self):
        # duplicating segment directions on a refined grid leaves the
        # p-variation of the lift unchanged
        rng = np.random.default_rng(13)
        p = random_path(rng, 6, 2)
        refined_times = np.union1d(p.times, (p.times[:-1] + p.times[1:]) / 2)
        q = refine_path(p, refined_times)
        for pp in (1.0, 2.2, 3.1):
            a = float(pvar_norm(lift_s3(p), pp))
            b = float(pvar_norm(lift_s3(q), pp))
            assert abs(a - b) < 1e-10 * max(1.0, a)


class TestRefineAndIO:
    def test_refine_preserves_geometry(self):
        rng = np.random.default_rng(14)
        p = random_path(rng, 5, 2)
        grid = np.union1d(p.times, rng.uniform(size=7))
        grid = np.union1d(grid, [0.0, 1.0])
        q = refine_path(p, grid)
        end_p = increment(lift_s3(p), 0.0, 1.0)
        end_q = increment(lift_s3(q), 0.0, 1.0)
        # roundoff through the cube root again, see above
        assert float(cc_distance(end_p, end_q)) < 1e-4
        np.testing.assert_allclose(end_p.tensor.level3, end_q.tensor.level3, atol=1e-12)

    @pytest.mark.parametrize("batch", [(), (2, 3)])
    def test_refine_equals_interp_loop(self, batch):
        rng = np.random.default_rng(17)
        p = random_path(rng, 9, 3, batch)
        grid = np.union1d(p.times, rng.uniform(size=20))
        q = refine_path(p, grid)
        assert np.array_equal(q.points, oracles.refine_path_interp(p, grid))

    @pytest.mark.parametrize("batch", [(), (2, 3)])
    def test_restrict_undoes_refine(self, batch):
        rng = np.random.default_rng(19)
        p = random_path(rng, 9, 2, batch)
        q = restrict_to(refine_path(p, np.union1d(p.times, rng.uniform(size=20))), p.times)
        assert np.array_equal(q.times, p.times)
        assert np.array_equal(q.points, p.points)

    def test_refine_requires_superset(self):
        rng = np.random.default_rng(15)
        p = random_path(rng, 5, 2)
        with pytest.raises(ValueError):
            refine_path(p, np.array([0.0, 0.5, 1.0]))

    def test_csv_roundtrip_is_deterministic(self):
        rng = np.random.default_rng(16)
        p = random_path(rng, 7, 3)
        buf = io.StringIO()
        write_path_csv(p, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "t,x1,x2,x3"
        q = read_path_csv(io.StringIO(text))
        np.testing.assert_array_equal(p.times, q.times)
        np.testing.assert_array_equal(p.points, q.points)
        buf2 = io.StringIO()
        write_path_csv(q, buf2)
        assert buf2.getvalue() == text

    def test_invalid_paths_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePath(np.array([0.0, 0.5]), np.zeros((2, 1)))  # last != 1
        with pytest.raises(ValueError):
            PiecewisePath(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            PiecewisePath(np.array([0.0, 1.0]), np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((2, 3, 4, 2))
        pts[1, 2, 3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PiecewisePath(np.linspace(0.0, 1.0, 4), pts)


class TestGridLookup:
    @pytest.mark.parametrize("bad", [1.5, np.nan])
    def test_off_grid_value_raises_value_error(self, bad):
        p = random_path(np.random.default_rng(18), 5, 2)
        with pytest.raises(ValueError):
            _positions(p.times, bad, "x")
        with pytest.raises(ValueError):
            increment(lift_s3(p), 0.0, bad)
        with pytest.raises(ValueError):
            rect_increment(GridFunction2D(p.times, p.times, np.zeros((5, 5))),
                           0.0, bad, 0.0, 1.0)
        with pytest.raises(ValueError):
            restrict_to(p, [0.0, 0.5, bad])
        with pytest.raises(ValueError):
            refine_path(p, np.array([0.0, 0.5, bad]))


class TestBatched:
    def test_metrics_match_per_sample_loop(self):
        rng = np.random.default_rng(17)
        b, n, d = 6, 7, 2
        times = np.linspace(0.0, 1.0, n)
        pts_x = np.cumsum(rng.standard_normal((b, n, d)), axis=1)
        pts_x -= pts_x[:, :1, :]
        pts_y = np.cumsum(rng.standard_normal((b, n, d)), axis=1)
        pts_y -= pts_y[:, :1, :]
        X = lift_s3(PiecewisePath(times, pts_x))
        Y = lift_s3(PiecewisePath(times, pts_y))
        assert X.batch_shape == (b,)
        batched = {
            "inf": dist_inf(X, Y),
            "zero": dist_0(X, Y),
            "hol": holder_dist(X, Y, 0.45),
            "pvar": pvar_dist(X, Y, 2.3),
            "norm": pvar_norm(X, 2.3),
        }
        for i in range(b):
            xi = lift_s3(PiecewisePath(times, pts_x[i]))
            yi = lift_s3(PiecewisePath(times, pts_y[i]))
            assert batched["inf"][i] == pytest.approx(float(dist_inf(xi, yi)), rel=1e-12)
            assert batched["zero"][i] == pytest.approx(float(dist_0(xi, yi)), rel=1e-12)
            assert batched["hol"][i] == pytest.approx(float(holder_dist(xi, yi, 0.45)), rel=1e-12)
            assert batched["pvar"][i] == pytest.approx(float(pvar_dist(xi, yi, 2.3)), rel=1e-12)
            assert batched["norm"][i] == pytest.approx(float(pvar_norm(xi, 2.3)), rel=1e-12)

    def test_metrics_across_blocks_equal_per_path_loop(self):
        # the batch spans three blocks of the pair stream and the last block
        # holds one row; a large d keeps the per-path loop short
        d, n = 8, 5
        rows = path_lift._BLOCK_BYTES // (8 * (1 + d + d * d + d**3) * n)
        b = 2 * rows + 1
        rng = np.random.default_rng(19)
        x = random_path(rng, n, d, (b,))
        y = PiecewisePath(x.times, x.points + 0.3 * rng.standard_normal(x.points.shape))
        metrics = {
            "dist_inf": dist_inf,
            "dist_0": dist_0,
            "holder_dist": lambda X, Y: holder_dist(X, Y, 0.45),
            "holder_norm": lambda X, Y: holder_norm(X, 0.45),
            "pvar_dist": lambda X, Y: pvar_dist(X, Y, 2.3),
            "pvar_norm": lambda X, Y: pvar_norm(X, 2.3),
        }
        X, Y = lift_s3(x), lift_s3(y)
        assert [lx[0].shape[-2] for lx, _ in _blocks(X, Y)] == [rows, rows, 1]
        batched = {name: f(X, Y) for name, f in metrics.items()}
        loop = {name: [] for name in metrics}
        for i in range(b):
            xi = lift_s3(PiecewisePath(x.times, x.points[i]))
            yi = lift_s3(PiecewisePath(y.times, y.points[i]))
            for name, f in metrics.items():
                loop[name].append(f(xi, yi))
        for name in metrics:
            assert np.array_equal(batched[name], loop[name]), name

    def test_lift_increments_shape(self):
        rng = np.random.default_rng(18)
        incs = rng.standard_normal((4, 5, 6, 2))
        g = lift_increments(incs)
        assert g.batch_shape == (4, 5, 7)


class TestPairStream:
    """Every metric reduces the one pair-distance stream; reducing the
    filled matrix instead must give the same bits."""

    def _pair(self, b=4, n=9, d=2):
        rng = np.random.default_rng(23)
        x = random_path(rng, n, d, (b,))
        y = PiecewisePath(x.times, x.points + 0.3 * rng.standard_normal((b, n, d)))
        return lift_s3(x), lift_s3(y)

    def test_pvar_equals_dp_over_matrix(self):
        x, y = self._pair()
        p = 2.3
        for got, M in ((pvar_dist(x, y, p), pair_matrix(x, y)),
                       (pvar_norm(x, p), pair_matrix(x))):
            want = _longest_path(_upper_rows(M ** p))[..., -1] ** (1.0 / p)
            np.testing.assert_array_equal(got, want)

    def test_dist0_is_matrix_max(self):
        x, y = self._pair()
        M = pair_matrix(x, y)
        iu = np.triu_indices(x.n_times, k=1)
        np.testing.assert_array_equal(dist_0(x, y), np.max(M[..., iu[0], iu[1]], axis=-1))

    def test_pvar_norm_memory_is_row_sized(self):
        # the streamed DP holds O(batch x grid) at a time, so its traced peak
        # stays well below one batch x n x n float64 pair matrix
        rng = np.random.default_rng(5)
        b, n = 20, 257
        gp = lift_s3(random_path(rng, n, 2, (b,)))
        matrix_bytes = b * n * n * 8
        tracemalloc.start()
        try:
            pvar_norm(gp, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes / 2

    @pytest.mark.parametrize("metric", [
        lambda gp: holder_norm(gp, 0.4), lambda gp: pvar_norm(gp, 2.5)],
        ids=["holder_norm", "pvar_norm"])
    def test_pair_stream_memory_is_block_sized(self, metric):
        # the pair stream copies one block of the batch at a time, so its
        # traced peak stays below the levels of the lifted path itself
        rng = np.random.default_rng(6)
        gp = lift_s3(random_path(rng, 33, 2, (4000,)))
        level_bytes = sum(a.nbytes for a in gp.values.tensor.levels())
        tracemalloc.start()
        try:
            metric(gp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < level_bytes


class TestOneImplementation:
    """The Chen loop and the pair stream run the same raw kernels as the
    public functions, so they agree bit for bit, not just to roundoff."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_lift_equals_public_fold(self, d):
        rng = np.random.default_rng(31)
        incs = rng.standard_normal((3, 6, d))
        batch = incs.shape[:-2]
        zeros = (np.zeros(batch), np.zeros((d, d) + batch), np.zeros((d, d, d) + batch))
        cur = identity_element(d, batch)
        want = [cur]
        for j in range(incs.shape[-2]):
            seg = TruncatedTensor(d, zeros[0], np.moveaxis(incs[..., j, :], -1, 0), zeros[1], zeros[2])
            cur = tensor_mul(cur, exp_trunc(seg))
            want.append(cur)
        got = lift_increments(incs).tensor.levels()
        for k, level in enumerate(got):
            for j, w in enumerate(want):
                assert np.all(level[..., j] == w.tensor.levels()[k])

    @pytest.mark.parametrize("d", [2, 3])
    def test_pair_rows_equal_public_distances(self, d):
        rng = np.random.default_rng(32)
        x = random_path(rng, 7, d, (3,))
        y = PiecewisePath(x.times, x.points + 0.3 * rng.standard_normal(x.points.shape))
        x, y = lift_s3(x), lift_s3(y)
        mxy, mx = pair_matrix(x, y), pair_matrix(x)
        (bx, by), = _blocks(x, y)
        for i, (rxy, rx) in enumerate(zip(_pair_rows(bx, by), _pair_rows(bx))):
            assert np.all(rxy == mxy[..., i, i + 1 :])
            assert np.all(rx == mx[..., i, i + 1 :])

    def test_overflowing_lift_rejected(self):
        pts = np.array([[0.0, 0.0], [1e110, 0.0], [1e110, 1e110]])
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            lift_s3(PiecewisePath(np.array([0.0, 0.5, 1.0]), pts))

    def test_nan_shuffle_residual_rejected(self):
        # the levels are finite, but the shuffle residual divides the
        # overflowed square of 1e200 by the overflowed squared norm; the
        # resulting nan must fail the check
        l1 = np.array([[0.0, 1e200], [0.0, 0.0]])
        values = GroupElement(TruncatedTensor(
            2, np.ones(2), l1, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2))))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(shuffle_residual(values)[1])
            with pytest.raises(ValueError, match="not group-like"):
                GroupPath(np.array([0.0, 1.0]), values)
            with pytest.raises(ValueError, match="not group-like"):
                hall_log_signature(values)
