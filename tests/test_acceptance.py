"""Full-scale acceptance checks.

Each test prints one PASS/FAIL line and enforces the stated tolerance and
runtime budget at the stated sample counts, so this file is slower than the
unit suites.
"""

import itertools
import time

import numpy as np

from rough_gauss.cameron_martin import CMElement, embedding_check, pvar_1d
from rough_gauss.cli import main as cli_main
from rough_gauss.covariance import (
    ProcessSpec,
    bm_cov,
    bridge_cov,
    fbm_cov,
    fbm_rhovar_bound_check,
    ou_cov,
)
from rough_gauss.path_lift import PiecewisePath, _take
from rough_gauss.regularity import grr_holder_check
from rough_gauss.simulate import (
    dyadic_convergence,
    fernique_tail,
    level2_variance_check,
    lift_endpoint,
    lift_ensemble,
    perturbation_continuity,
    sample,
    weak_limit_fbm,
    young_wiener_check,
)
from rough_gauss.tensor_algebra import (
    GroupElement,
    LieElement,
    bch_bound_check,
    exp_trunc,
    hall_log_signature,
    lie_dim,
    lie_to_tensor,
    log_trunc,
    shuffle_residual,
    tensor_mul,
    tensor_to_lie,
)
from rough_gauss.variation_2d import GridFunction2D, rho_variation, young_integral_2d


def _verdict(tag: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}" + (f"  {detail}" if detail else ""))
    assert ok, f"{tag}: {detail}"


def _max_rel(got: GroupElement, want: GroupElement) -> float:
    worst = 0.0
    for name in ("level1", "level2", "level3"):
        a = np.asarray(getattr(got.tensor, name))
        b = np.asarray(getattr(want.tensor, name))
        worst = max(worst, float(np.max(np.abs(a - b) / (1.0 + np.abs(b)))))
    return worst


def test_01_algebra_exact_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_roundtrip = worst_assoc = worst_chen = worst_shuffle = 0.0
    for d in (2, 3, 4, 5):
        n = 2500
        x = exp_trunc(lie_to_tensor(
            LieElement(d, rng.uniform(-1.0, 1.0, (n, lie_dim(d))))))
        worst_roundtrip = max(worst_roundtrip,
                              _max_rel(exp_trunc(log_trunc(x)), x))
        third = n // 3
        a = GroupElement(_take(x.tensor, slice(0, third)))
        b = GroupElement(_take(x.tensor, slice(third, 2 * third)))
        c = GroupElement(_take(x.tensor, slice(2 * third, 3 * third)))
        worst_assoc = max(worst_assoc, _max_rel(
            tensor_mul(tensor_mul(a, b), c),
            tensor_mul(a, tensor_mul(b, c))))
        incs = rng.uniform(-1.0, 1.0, (n, 4, d))
        full = GroupElement(lift_endpoint(incs))
        halves = tensor_mul(GroupElement(lift_endpoint(incs[:, :2])),
                            GroupElement(lift_endpoint(incs[:, 2:])))
        worst_chen = max(worst_chen, _max_rel(halves, full))
        scale = (1.0 + np.max(np.abs(np.asarray(x.tensor.level1)),
                              axis=-1)) ** 2
        worst_shuffle = max(worst_shuffle,
                            float(np.max(shuffle_residual(x) / scale)))
    elapsed = time.monotonic() - t0
    ok = (worst_roundtrip <= 1e-10 and worst_assoc <= 1e-10
          and worst_chen <= 1e-10 and worst_shuffle <= 1e-10
          and elapsed < 10.0)
    _verdict("01 algebra exactness on 1e4 group elements", ok,
             f"roundtrip={worst_roundtrip:.2e} assoc={worst_assoc:.2e} "
             f"chen={worst_chen:.2e} shuffle={worst_shuffle:.2e} "
             f"t={elapsed:.1f}s")


def test_02_hall_log_signature_matches_generic_log():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for d in (2, 3):
        incs = rng.uniform(-1.0, 1.0, (500, 8, d))
        end = GroupElement(lift_endpoint(incs))
        closed = hall_log_signature(end).coords
        generic = tensor_to_lie(log_trunc(end)).coords
        worst = max(worst, float(np.max(
            np.abs(closed - generic) / (1.0 + np.abs(generic)))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict("02 hall log-signature closed form on 1e3 paths", ok,
             f"max_rel={worst:.2e} t={elapsed:.1f}s")


def test_03_bch_norm_bounds_no_violations():
    rng = np.random.default_rng(303)
    violations = 0
    for d in (2, 3, 4, 5):
        a = LieElement(d, rng.uniform(-1.0, 1.0, (2500, lie_dim(d))))
        b = LieElement(d, rng.uniform(-1.0, 1.0, (2500, lie_dim(d))))
        violations += int(np.sum(~bch_bound_check(a, b)))
    _verdict("03 bch level bounds on 1e4 lie pairs",
             violations == 0, f"violations={violations}")


def _enum_pvar_1d(values: np.ndarray, rho: float) -> float:
    n = values.size
    best = 0.0
    for k in range(n - 1):
        for interior in itertools.combinations(range(1, n - 1), k):
            idx = (0, *interior, n - 1)
            s = float(np.sum(np.abs(np.diff(values[list(idx)])) ** rho))
            best = max(best, s)
    return best ** (1.0 / rho)


def _enum_rho_var_2d(V: np.ndarray, rho: float) -> float:
    ns, nt = V.shape
    best = 0.0
    for ks in range(ns - 1):
        for s_int in itertools.combinations(range(1, ns - 1), ks):
            rows = np.diff(V[[0, *s_int, ns - 1], :], axis=0)
            for kt in range(nt - 1):
                for t_int in itertools.combinations(range(1, nt - 1), kt):
                    R = np.diff(rows[:, [0, *t_int, nt - 1]], axis=1)
                    best = max(best, float(np.sum(np.abs(R) ** rho)))
    return best ** (1.0 / rho)


def test_04_variation_matches_exhaustive_enumeration():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    # 1D: the DP is exact on every grid with <= 12 intervals
    worst_1d = 0.0
    for intervals in range(2, 13):
        for _ in range(3):
            values = rng.standard_normal(intervals + 1)
            rho = float(rng.uniform(1.0, 2.5))
            dp = pvar_1d(values, rho)
            enum = _enum_pvar_1d(values, rho)
            worst_1d = max(worst_1d, abs(dp - enum) / (1.0 + enum))
    # 2D: local search never exceeds the enumerated optimum and almost
    # always attains it
    hits = 0
    above = 0
    n_inst = 200
    for i in range(n_inst):
        if i % 10 == 0:
            ns, nt = int(rng.integers(9, 13)), int(rng.integers(2, 4))
        else:
            ns, nt = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        V = np.cumsum(np.cumsum(
            rng.standard_normal((ns + 1, nt + 1)), axis=0), axis=1)
        rho = float(rng.uniform(1.0, 2.0))
        grid_s = np.linspace(0.0, 1.0, ns + 1)
        grid_t = np.linspace(0.0, 1.0, nt + 1)
        ls = rho_variation(GridFunction2D(grid_s, grid_t, V), rho,
                           mode="local-search", seed=i).value
        opt = _enum_rho_var_2d(V, rho)
        if ls > opt * (1.0 + 1e-9):
            above += 1
        if ls >= opt * (1.0 - 1e-9):
            hits += 1
    elapsed = time.monotonic() - t0
    ok = (worst_1d <= 1e-12 and above == 0 and hits >= 0.95 * n_inst
          and elapsed < 120.0)
    _verdict("04 variation oracles vs enumeration", ok,
             f"1d_err={worst_1d:.2e} 2d_hits={hits}/{n_inst} "
             f"above={above} t={elapsed:.1f}s")


def test_05_young_bm_half_and_level2_mc():
    t0 = time.monotonic()
    k = bm_cov()
    grid = np.linspace(0.0, 1.0, 2 ** 6 + 1)
    f = GridFunction2D(grid, grid, k.eval(grid[:, None], grid[None, :]))
    res = young_integral_2d(
        f, f, levels=4,
        f_eval=lambda S, T: k.eval(S[:, None], T[None, :]),
        g_eval=lambda S, T: k.eval(S[:, None], T[None, :]))
    young_ok = abs(res.value - 0.5) <= 1e-3 * 0.5
    spec = ProcessSpec((bm_cov(), bm_cov()))
    rep = level2_variance_check(spec, n=10_000, seed=0, grid_level=8)
    mc, se = rep["mc"]["value"], rep["mc"]["stderr"]
    mc_ok = abs(mc - 0.5) <= 3.0 * se + 0.01
    elapsed = time.monotonic() - t0
    ok = young_ok and mc_ok and elapsed < 120.0
    _verdict("05 2d young and level-2 variance match 1/2", ok,
             f"young={res.value:.6f} mc={mc:.4f}+-{se:.4f} t={elapsed:.1f}s")


def test_06_fbm_variation_linear_envelope():
    details = []
    ok = True
    for H in (0.3, 0.4):
        rep = fbm_rhovar_bound_check(H, grid_intervals=8,
                                     sizes=(1.0, 0.5, 0.25))
        ok = ok and rep["ratio_spread"] <= 2.0 and rep["disjoint_nonpositive"]
        details.append(f"H={H}: spread={rep['ratio_spread']:.3f} "
                       f"disjoint_max={rep['max_disjoint_rect']:.1e}")
    _verdict("06 fbm rho-variation linear envelope", ok, "; ".join(details))


def test_07_cm_embedding_sweep_and_bm_sharpness():
    kernels = [fbm_cov(0.3), fbm_cov(0.4), fbm_cov(0.5), ou_cov(1.3),
               bridge_cov(bm_cov())]
    rng = np.random.default_rng(707)
    violations = 0
    non_exact = 0
    for k in kernels:
        for _ in range(200):
            nodes = np.sort(rng.uniform(0.0, 1.0, 4))
            weights = rng.standard_normal(4)
            res = embedding_check(CMElement(k, nodes, weights),
                                  grid_intervals=16)
            violations += not res.ok
            non_exact += not res.exact
    # h(t) = t for BM: both sides equal 1 exactly
    sharp = embedding_check(CMElement(bm_cov(), [1.0], [1.0]),
                            grid_intervals=16)
    tight = abs(sharp.lhs - sharp.rhs) <= 1e-10 and abs(sharp.lhs - 1.0) <= 1e-10
    ok = violations == 0 and non_exact == 0 and sharp.ok and tight
    _verdict("07 cameron-martin embedding, 1e3 elements x 5 kernels", ok,
             f"violations={violations} non_exact={non_exact} "
             f"bm_gap={abs(sharp.lhs - sharp.rhs):.1e}")


def test_08_dyadic_convergence_rate():
    t0 = time.monotonic()
    bm = dyadic_convergence(ProcessSpec((bm_cov(),) * 2), p=2.5,
                            levels=(3, 4, 5, 6, 7), n=200, seed=0)
    fbm = dyadic_convergence(ProcessSpec((fbm_cov(0.4),) * 2), p=2.8,
                             levels=(3, 4, 5, 6, 7), n=200, seed=0)
    elapsed = time.monotonic() - t0
    ok = (bm["log2_slope"] <= -0.1 and fbm["log2_slope"] <= -0.1
          and elapsed < 600.0)
    _verdict("08 dyadic approximation converges geometrically", ok,
             f"bm_slope={bm['log2_slope']:.3f} "
             f"fbm_slope={fbm['log2_slope']:.3f} t={elapsed:.0f}s")


def test_09_perturbation_continuity():
    rep = perturbation_continuity(ProcessSpec((bm_cov(),) * 2),
                                  epsilons=(0.2, 0.1, 0.05), n=400, seed=0)
    ok = rep["strictly_decreasing"] and rep["theta_hat"] > 0.0
    _verdict("09 covariance perturbation ladder", ok,
             f"means={[f'{m:.3f}' for m in rep['l2_means']]} "
             f"theta_hat={rep['theta_hat']:.3f}")


def test_10_fernique_tail_and_chaos_ratios():
    rep = fernique_tail(ProcessSpec((bm_cov(),) * 2), p=2.5, n=10_000,
                        seed=0, grid_level=5)
    levels = {row["level"] for row in rep["chaos"]}
    qs = {row["q"] for row in rep["chaos"]}
    coverage = levels == {1, 2, 3} and qs == {4, 6, 8}
    ok = rep["tail_ok"] and rep["chaos_ok"] and coverage
    worst = max(row["ratio"] / row["bound"] for row in rep["chaos"])
    _verdict("10 gaussian tail of the lift norm + chaos moments", ok,
             f"tail_slope={rep['tail_slope']:.3f} "
             f"worst_chaos_ratio/bound={worst:.3f}")


def test_11_young_wiener_isometry():
    spec = ProcessSpec((bm_cov(),))
    one = young_wiener_check(lambda u: np.ones_like(u), spec, n=10_000,
                             seed=1, grid_level=10)
    lin = young_wiener_check(lambda u: np.asarray(u), spec, n=10_000,
                             seed=1, grid_level=10)
    gap1 = abs(one["mc"]["value"] - 1.0)
    gap2 = abs(lin["mc"]["value"] - 1.0 / 3.0)
    ok = (gap1 <= 3.0 * one["mc"]["stderr"] + 1e-3
          and gap2 <= 3.0 * lin["mc"]["stderr"] + 1e-3
          and one["ok"] and lin["ok"])
    _verdict("11 young-wiener integral variances 1 and 1/3", ok,
             f"|mc-1|={gap1:.2e} |mc-1/3|={gap2:.2e}")


def test_12_holder_bound_with_explicit_constant():
    spec = ProcessSpec((fbm_cov(0.4),) * 2)
    grid = np.linspace(0.0, 1.0, 65)
    gp = lift_ensemble(sample(spec, grid, 1000, seed=12))
    sampled = grr_holder_check(gp, r=2.6, alpha=0.3)

    det_violations = 0
    t = np.linspace(0.0, 1.0, 65)
    params = [(1.0, 0.25), (1.5, 0.4), (2.0, 0.3), (2.5, 0.15)]
    for i in range(100):
        kind = i % 5
        if kind == 0:
            pts = np.stack([t, (i + 1) * t ** 2], axis=-1)
        elif kind == 1:
            pts = np.stack([np.cos(2 * np.pi * (i % 3 + 1) * t),
                            np.sin(2 * np.pi * (i % 3 + 1) * t)], axis=-1)
        elif kind == 2:
            pts = np.stack([np.abs(((i + 2) * t) % 2 - 1), t], axis=-1)
        elif kind == 3:
            pts = np.stack([t ** 3 - t, np.sqrt(t)], axis=-1)
        else:
            pts = np.stack([np.sin(5 * t + i), t * (1 - t)], axis=-1)
        r, alpha = params[i % 4]
        rep = grr_holder_check(PiecewisePath(t, pts), r=r, alpha=alpha)
        det_violations += rep["violations"]
    ok = sampled["ok"] and sampled["violations"] == 0 and det_violations == 0
    _verdict("12 holder norm bounded by 64/r times besov integral", ok,
             f"sampled_violations={sampled['violations']} "
             f"worst_ratio={sampled['worst_ratio']:.3f} "
             f"deterministic_violations={det_violations}")


def test_13_weak_limit_of_level2_moment():
    rep = weak_limit_fbm(h_ladder=(0.45, 0.48, 0.5), n=10_000, seed=3,
                         grid_level=8)
    gaps = rep["gaps_to_half"]
    ok = all(a > b for a, b in zip(gaps[:-1], gaps[1:])) and gaps[-1] < 0.05
    _verdict("13 level-2 moment approaches brownian value", ok,
             f"gaps={[f'{g:.4f}' for g in gaps]}")


def test_14_reports_byte_identical_across_workers(tmp_path, capsys):
    checks = []
    for experiment, extra in (
        ("level2-variance", ["--grid", "6", "--samples", "2000"]),
        ("dyadic-convergence", ["--samples", "40", "--set", "levels=[3,4]"]),
        ("fernique", ["--grid", "4", "--samples", "1500"]),
    ):
        blobs = []
        for workers in ("1", "4"):
            out = tmp_path / f"{experiment}_w{workers}"
            rc = cli_main(["run", experiment, "--kernel", "bm", "--seed",
                           "42", "--workers", workers, "--out-dir", str(out),
                           *extra])
            assert rc == 0
            blobs.append(
                ((out / f"{experiment}_report.json").read_bytes(),
                 (out / f"{experiment}_table.csv").read_bytes()))
        checks.append(blobs[0] == blobs[1])
    with capsys.disabled():
        _verdict("14 artifacts byte-identical across worker counts",
                 all(checks), f"experiments_ok={checks}")
