"""Config-driven experiment runner.

JSON config in, deterministic artifacts out: ``<experiment>_report.json``,
``<experiment>_table.csv``, plus a ``<experiment>_run_meta.json`` sidecar.
Wall-clock time lives only in the sidecar, so report and table bytes depend
on nothing but the resolved config: same config and seed means identical
files, at any worker count.

Exit codes: 0 when every check passes, 2 when a check fails, 1 on config or
runtime errors (in which case no artifacts are written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cameron_martin import CMElement, embedding_check, fbm_increment_response_check
from .covariance import (
    ProcessSpec,
    coutin_qian_check,
    kernel_from_config,
    kernel_to_config,
)
from .path_lift import _take, lift_s3, read_path_csv
from .regularity import chaos_ratio_check, grr_holder_check
from .simulate import (
    dyadic_convergence,
    fernique_tail,
    level2_variance_check,
    level_bounds_check,
    lift_endpoint,
    lift_ensemble,
    perturbation_continuity,
    sample,
    weak_limit_fbm,
    young_wiener_check,
)
from .tensor_algebra import (
    GroupElement,
    hall_basis_labels,
    hall_log_signature,
    homogeneous_norm,
    shuffle_residual,
)
from .variation_2d import GridFunction2D, rho_variation, young_integral_2d

OUT_DIR_ENV = "ROUGH_GAUSS_OUT"


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters.  Unknown JSON fields are rejected and
    the full resolved mapping is echoed into every report."""

    experiment: str
    kernel: str = "bm"
    kernel2: str | None = None
    dim: int | None = None
    grid_level: int | None = None
    samples: int | None = None
    seed: int = 0
    workers: int = 1
    p: float | None = None
    rho: float | None = None
    q: float | None = None
    r: float | None = None
    alpha: float | None = None
    H: float | None = None
    band: float | None = None
    levels: tuple | None = None
    epsilons: tuple | None = None
    h_ladder: tuple | None = None
    interval: tuple | None = None
    elements: int | None = None
    nodes: int | None = None
    grid_intervals: int | None = None
    integrand: str | None = None
    path: str | None = None
    c_H: float | None = None
    mode: str | None = None
    out_prefix: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; know {sorted(EXPERIMENTS)}")
        for name in ("levels", "epsilons", "h_ladder", "interval"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, (int, float)):
                object.__setattr__(self, name, tuple(v))
        if self.seed is None:
            raise ValueError("an explicit seed is required")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "experiment" not in data:
            raise ValueError("config needs an 'experiment' field")
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _default(value, fallback):
    return fallback if value is None else value


def _spec(cfg: ExperimentConfig, default_dim: int = 2) -> ProcessSpec:
    k = kernel_from_config(cfg.kernel)
    if cfg.kernel2 is not None:
        return ProcessSpec((k, kernel_from_config(cfg.kernel2)))
    return ProcessSpec((k,) * int(_default(cfg.dim, default_dim)))


def _default_p(kernel) -> float:
    # above 2 for BM, above 1/H for the rougher kernels used here
    return 2.5 if kernel.rho == 1.0 else 2.8


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns checks, a results payload, CSV rows and a
# scalar summary used by generic parameter sweeps.


def _run_lift(cfg: ExperimentConfig) -> dict:
    if cfg.path is None:
        raise ValueError("lift needs a 'path' pointing at a path CSV")
    with open(cfg.path, newline="", encoding="utf-8") as fh:
        path = read_path_csv(fh)
    gp = lift_s3(path)
    residual = float(np.max(shuffle_residual(gp.values)))
    end = GroupElement(_take(gp.values.tensor, -1))
    coords = hall_log_signature(end).coords
    labels = hall_basis_labels(path.dim)
    rows = [
        {"coordinate": lab, "value": float(c)}
        for lab, c in zip(labels, np.asarray(coords))
    ]
    norm = float(homogeneous_norm(end))
    return {
        "checks": [{"name": "group_like", "ok": residual <= 1e-8,
                    "residual": residual}],
        "results": {
            "n_times": path.n_times,
            "dim": path.dim,
            "endpoint_norm": norm,
            "shuffle_residual": residual,
            "signature_level1": np.asarray(end.tensor.level1).tolist(),
            "signature_level2": np.asarray(end.tensor.level2).tolist(),
            "signature_level3": np.asarray(end.tensor.level3).tolist(),
            "hall_log_signature": dict(zip(labels, np.asarray(coords).tolist())),
        },
        "columns": ["coordinate", "value"],
        "rows": rows,
        "primary": {"estimate": norm},
    }


def _run_variation(cfg: ExperimentConfig) -> dict:
    k = kernel_from_config(cfg.kernel)
    intervals = int(_default(cfg.grid_intervals, 8))
    rho = float(_default(cfg.rho, k.rho))
    grid = np.linspace(0.0, 1.0, intervals + 1)
    f = GridFunction2D(grid, grid, k.eval(grid[:, None], grid[None, :]))
    search = rho_variation(f, rho, mode="local-search", seed=cfg.seed)
    rows = [{"mode": "local-search", "value": float(search.value),
             "exact": False}]
    checks = []
    results = {"rho": rho, "grid_intervals": intervals,
               "local_search_value": float(search.value)}
    estimate = float(search.value)
    if intervals <= 12 and cfg.mode != "local-search":
        exact = rho_variation(f, rho, mode="exact")
        rows.insert(0, {"mode": "exact", "value": float(exact.value),
                        "exact": True})
        checks.append({
            "name": "search_below_exact",
            "ok": bool(search.value <= exact.value * (1.0 + 1e-9)),
            "exact": float(exact.value),
            "local_search": float(search.value),
        })
        results["exact_value"] = float(exact.value)
        estimate = float(exact.value)
    return {"checks": checks, "results": results,
            "columns": ["mode", "value", "exact"], "rows": rows,
            "primary": {"estimate": estimate}}


def _run_young2d(cfg: ExperimentConfig) -> dict:
    k1 = kernel_from_config(cfg.kernel)
    k2 = kernel_from_config(_default(cfg.kernel2, cfg.kernel))
    intervals = int(_default(cfg.grid_intervals, 8))
    levels = cfg.levels
    if levels is not None and not isinstance(levels, (int, float)):
        raise ValueError("young2d expects an integer 'levels'")
    levels = int(_default(levels, 4))
    grid = np.linspace(0.0, 1.0, intervals + 1)
    f = GridFunction2D(grid, grid, k1.eval(grid[:, None], grid[None, :]))
    g = GridFunction2D(grid, grid, k2.eval(grid[:, None], grid[None, :]))
    res = young_integral_2d(
        f, g, levels=levels,
        f_eval=lambda S, T: k1.eval(S[:, None], T[None, :]),
        g_eval=lambda S, T: k2.eval(S[:, None], T[None, :]),
    )
    rows = [
        {"level": i, "value": float(v),
         "diff": float(res.diffs[i - 1]) if i else None}
        for i, v in enumerate(res.level_values)
    ]
    return {
        "checks": [{"name": "refinement_converged", "ok": bool(res.converged)}],
        "results": {"value": float(res.value), "levels": levels,
                    "level_values": [float(v) for v in res.level_values],
                    "converged": bool(res.converged)},
        "columns": ["level", "value", "diff"],
        "rows": rows,
        "primary": {"estimate": float(res.value)},
    }


def _run_level2_variance(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg, default_dim=2)
    rep = level2_variance_check(
        spec,
        interval=tuple(_default(cfg.interval, (0.0, 1.0))),
        n=int(_default(cfg.samples, 10_000)),
        seed=cfg.seed,
        grid_level=int(_default(cfg.grid_level, 8)),
        workers=cfg.workers,
        band=float(_default(cfg.band, 0.01)),
    )
    mc = rep["mc"]
    rows = [{"mc_value": mc["value"], "mc_stderr": mc["stderr"],
             "young_value": rep["young_value"], "gap": rep["gap"],
             "tolerance": rep["tolerance"], "ok": rep["ok"]}]
    return {
        "checks": [{"name": "mc_matches_young", "ok": rep["ok"],
                    "gap": rep["gap"], "tolerance": rep["tolerance"]}],
        "results": rep,
        "columns": list(rows[0]),
        "rows": rows,
        "primary": {"estimate": mc["value"], "stderr": mc["stderr"],
                    "band": rep["tolerance"]},
    }


def _run_level_bounds(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg, default_dim=3)
    rep = level_bounds_check(
        spec,
        rho=cfg.rho,
        n=int(_default(cfg.samples, 2000)),
        seed=cfg.seed,
        grid_level=int(_default(cfg.grid_level, 6)),
        workers=cfg.workers,
    )
    checks = []
    rows = []
    for word, info in rep["words"].items():
        finite = bool(np.all(np.isfinite(info["envelope_constants"])))
        shrinking = bool(info["log2_slope"] > 0.0)
        checks.append({"name": f"word_{word}_bounded",
                       "ok": finite and shrinking,
                       "smallest_C": info["smallest_C"],
                       "log2_slope": info["log2_slope"]})
        rows.append({"word": word, "level": info["level"],
                     "smallest_C": info["smallest_C"],
                     "log2_slope": info["log2_slope"],
                     "ok": finite and shrinking})
    worst = max(info["smallest_C"] for info in rep["words"].values())
    return {"checks": checks, "results": rep,
            "columns": ["word", "level", "smallest_C", "log2_slope", "ok"],
            "rows": rows, "primary": {"estimate": worst}}


def _run_dyadic(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg, default_dim=2)
    rep = dyadic_convergence(
        spec,
        p=float(_default(cfg.p, _default_p(spec.kernels[0]))),
        levels=tuple(_default(cfg.levels, (3, 4, 5, 6, 7))),
        n=int(_default(cfg.samples, 200)),
        seed=cfg.seed,
        workers=cfg.workers,
    )
    rows = [
        {"level": lev, "l2_mean": m, "stderr": e}
        for lev, m, e in zip(rep["levels"], rep["l2_means"], rep["l2_stderrs"])
    ]
    return {
        "checks": [{"name": "negative_log2_slope", "ok": rep["ok"],
                    "log2_slope": rep["log2_slope"]}],
        "results": rep,
        "columns": ["level", "l2_mean", "stderr"],
        "rows": rows,
        "primary": {"estimate": rep["log2_slope"]},
    }


def _run_perturbation(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg, default_dim=2)
    rep = perturbation_continuity(
        spec,
        epsilons=tuple(_default(cfg.epsilons, (0.2, 0.1, 0.05))),
        p=float(_default(cfg.p, _default_p(spec.kernels[0]))),
        n=int(_default(cfg.samples, 400)),
        seed=cfg.seed,
        grid_level=int(_default(cfg.grid_level, 6)),
        workers=cfg.workers,
    )
    rows = [
        {"epsilon": e, "l2_mean": m, "stderr": s, "cov_gap": g}
        for e, m, s, g in zip(rep["epsilons"], rep["l2_means"],
                              rep["l2_stderrs"], rep["cov_gaps"])
    ]
    return {
        "checks": [
            {"name": "strictly_decreasing", "ok": rep["strictly_decreasing"]},
            {"name": "positive_rate", "ok": bool(rep["theta_hat"] > 0.0),
             "theta_hat": rep["theta_hat"]},
        ],
        "results": rep,
        "columns": ["epsilon", "l2_mean", "stderr", "cov_gap"],
        "rows": rows,
        "primary": {"estimate": rep["theta_hat"]},
    }


def _run_fernique(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg, default_dim=2)
    rep = fernique_tail(
        spec,
        p=float(_default(cfg.p, _default_p(spec.kernels[0]))),
        n=int(_default(cfg.samples, 10_000)),
        seed=cfg.seed,
        grid_level=int(_default(cfg.grid_level, 5)),
        workers=cfg.workers,
    )
    rows = [
        {"tail_prob": p, "lambda": lam, "log_prob": lp}
        for p, lam, lp in zip(rep["tail_probs"], rep["tail_lambdas"],
                              rep["tail_log_probs"])
    ]
    return {
        "checks": [
            {"name": "gaussian_tail_slope", "ok": rep["tail_ok"],
             "tail_slope": rep["tail_slope"], "eta_hat": rep["eta_hat"]},
            {"name": "chaos_ratios", "ok": rep["chaos_ok"]},
        ],
        "results": rep,
        "columns": ["tail_prob", "lambda", "log_prob"],
        "rows": rows,
        "primary": {"estimate": rep["eta_hat"]},
    }


_INTEGRANDS = {
    "one": lambda u: np.ones_like(u),
    "linear": lambda u: np.asarray(u),
}


def _run_young_wiener(cfg: ExperimentConfig) -> dict:
    name = _default(cfg.integrand, "linear")
    if name not in _INTEGRANDS:
        raise ValueError(f"unknown integrand {name!r}; know {sorted(_INTEGRANDS)}")
    spec = _spec(cfg, default_dim=1)
    rep = young_wiener_check(
        _INTEGRANDS[name],
        spec,
        q=float(_default(cfg.q, 1.0)),
        n=int(_default(cfg.samples, 10_000)),
        seed=cfg.seed,
        grid_level=int(_default(cfg.grid_level, 10)),
        band=float(_default(cfg.band, 1e-3)),
        workers=cfg.workers,
    )
    rows = [{"integrand": name, "mc_value": rep["mc"]["value"],
             "mc_stderr": rep["mc"]["stderr"], "young_value": rep["young_value"],
             "gap": rep["gap"], "tolerance": rep["tolerance"],
             "upper_bound": rep["upper_bound"], "ok": rep["ok"]}]
    return {
        "checks": [
            {"name": "isometry_band", "ok": rep["ok"], "gap": rep["gap"],
             "tolerance": rep["tolerance"]},
            {"name": "variation_upper_bound", "ok": rep["upper_ok"],
             "upper_bound": rep["upper_bound"]},
        ],
        "results": {"integrand": name, **rep},
        "columns": list(rows[0]),
        "rows": rows,
        "primary": {"estimate": rep["mc"]["value"],
                    "stderr": rep["mc"]["stderr"], "band": rep["tolerance"]},
    }


def _run_weak_limit(cfg: ExperimentConfig) -> dict:
    rep = weak_limit_fbm(
        h_ladder=tuple(_default(cfg.h_ladder, (0.45, 0.48, 0.5))),
        n=int(_default(cfg.samples, 10_000)),
        seed=cfg.seed,
        grid_level=int(_default(cfg.grid_level, 8)),
        workers=cfg.workers,
    )
    rows = [
        {"H": h, "estimate": st["value"], "stderr": st["stderr"],
         "gap_to_half": g, "kernel_sup_gap": kg}
        for h, st, g, kg in zip(rep["h_ladder"], rep["statistics"],
                                rep["gaps_to_half"], rep["kernel_sup_gaps"])
    ]
    return {
        "checks": [
            {"name": "gaps_decreasing", "ok": rep["gaps_decreasing"]},
            {"name": "kernel_gaps_decreasing",
             "ok": rep["kernel_gaps_decreasing"]},
        ],
        "results": rep,
        "columns": ["H", "estimate", "stderr", "gap_to_half", "kernel_sup_gap"],
        "rows": rows,
        "primary": {"estimate": rep["gaps_to_half"][-1],
                    "stderr": rep["statistics"][-1]["stderr"]},
    }


def _run_cm_embedding(cfg: ExperimentConfig) -> dict:
    k = kernel_from_config(cfg.kernel)
    n_elements = int(_default(cfg.elements, 100))
    n_nodes = int(_default(cfg.nodes, 4))
    intervals = int(_default(cfg.grid_intervals, 16))
    rng = np.random.default_rng(cfg.seed)
    rows = []
    violations = 0
    min_slack = math.inf
    for i in range(n_elements):
        nodes = np.sort(rng.uniform(0.0, 1.0, n_nodes))
        weights = rng.standard_normal(n_nodes)
        res = embedding_check(
            CMElement(k, nodes, weights), rho=cfg.rho,
            grid_intervals=intervals,
        )
        violations += not res.ok
        min_slack = min(min_slack, res.slack)
        rows.append({"element": i, "lhs": res.lhs, "rhs": res.rhs,
                     "slack": res.slack, "mode": res.mode, "ok": res.ok})
    checks = [{"name": "variation_embedding", "ok": violations == 0,
               "violations": violations, "min_slack": min_slack}]
    results = {"kernel": kernel_to_config(k), "elements": n_elements,
               "nodes": n_nodes, "grid_intervals": intervals,
               "violations": violations, "min_slack": min_slack}
    kcfg = kernel_to_config(k)
    if kcfg.get("kernel") == "fbm" and kcfg.get("H", 1.0) <= 0.5:
        resp = fbm_increment_response_check(kcfg["H"])
        checks.append({"name": "increment_response_exact",
                       "ok": bool(resp["max_ratio"] <= 1.0 + 1e-9),
                       "max_ratio": resp["max_ratio"]})
        results["increment_response"] = resp
    return {"checks": checks, "results": results,
            "columns": ["element", "lhs", "rhs", "slack", "mode", "ok"],
            "rows": rows, "primary": {"estimate": min_slack}}


def _run_grr(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg, default_dim=2)
    grid = np.linspace(0.0, 1.0, 2 ** int(_default(cfg.grid_level, 6)) + 1)
    n = int(_default(cfg.samples, 200))
    gp = lift_ensemble(sample(spec, grid, n, cfg.seed, workers=cfg.workers))
    rep = grr_holder_check(
        gp,
        r=float(_default(cfg.r, 2.6)),
        alpha=float(_default(cfg.alpha, 0.3)),
        q=cfg.q,
    )
    rows = [{"n_checked": rep["n_checked"], "violations": rep["violations"],
             "worst_ratio": rep["worst_ratio"], "min_slack": rep["slack"],
             "ok": rep["ok"]}]
    results = dict(rep)
    results["stats"] = dataclasses.asdict(rep["stats"])
    return {
        "checks": [{"name": "holder_bound", "ok": rep["ok"],
                    "violations": rep["violations"],
                    "worst_ratio": rep["worst_ratio"]}],
        "results": results,
        "columns": list(rows[0]),
        "rows": rows,
        "primary": {"estimate": rep["worst_ratio"]},
    }


def _run_chaos_ratio(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg, default_dim=2)
    grid = np.linspace(0.0, 1.0, 2 ** int(_default(cfg.grid_level, 5)) + 1)
    n = int(_default(cfg.samples, 10_000))
    ens = sample(spec, grid, n, cfg.seed, workers=cfg.workers)
    end = lift_endpoint(np.diff(ens.samples.swapaxes(-1, -2), axis=-2))
    coords = np.asarray(hall_log_signature(GroupElement(end)).coords)
    labels = hall_basis_labels(spec.dim)
    d = spec.dim
    sizes = [d, (d * (d - 1)) // 2, (d ** 3 - d) // 3]
    rows = []
    worst = 0.0
    all_ok = True
    idx = 0
    for level, size in enumerate(sizes, start=1):
        for _ in range(size):
            rep = chaos_ratio_check(coords[:, idx], level)
            for row in rep["rows"]:
                ratio_over = row["ratio"] / row["bound"]
                worst = max(worst, ratio_over)
                all_ok = all_ok and row["ok"]
                rows.append({"level": level, "coordinate": labels[idx],
                             "q": row["q"], "ratio": row["ratio"],
                             "band": row["band"], "bound": row["bound"],
                             "ok": row["ok"]})
            idx += 1
    return {
        "checks": [{"name": "moment_equivalence", "ok": all_ok,
                    "worst_ratio_over_bound": worst}],
        "results": {"n": n, "grid_points": grid.size, "rows": rows,
                    "worst_ratio_over_bound": worst},
        "columns": ["level", "coordinate", "q", "ratio", "band", "bound", "ok"],
        "rows": rows,
        "primary": {"estimate": worst},
    }


def _run_coutin_qian(cfg: ExperimentConfig) -> dict:
    k = kernel_from_config(cfg.kernel)
    kcfg = kernel_to_config(k)
    H = cfg.H
    if H is None:
        if kcfg.get("kernel") == "fbm":
            H = kcfg["H"]
        elif kcfg.get("kernel") == "bm":
            H = 0.5
        else:
            raise ValueError("coutin-qian needs an 'H' for this kernel")
    elif kcfg.get("kernel") in ("fbm", "bm"):
        # an explicit H (e.g. from a sweep) rebuilds the matching kernel
        k = kernel_from_config("bm" if float(H) == 0.5 else f"fbm:H={float(H)!r}")
    rep = coutin_qian_check(k, float(H), c_H=cfg.c_H)
    finite = bool(np.isfinite(rep["c_ass1"]) and np.isfinite(rep["c_ass2"]))
    ok = bool(rep["passes"]) if "passes" in rep else finite
    rows = [{"H": rep["H"], "c_ass1": rep["c_ass1"], "c_ass2": rep["c_ass2"],
             "ok": ok}]
    return {
        "checks": [{"name": "increment_conditions", "ok": ok,
                    "c_ass1": rep["c_ass1"], "c_ass2": rep["c_ass2"]}],
        "results": rep,
        "columns": ["H", "c_ass1", "c_ass2", "ok"],
        "rows": rows,
        "primary": {"estimate": rep["c_ass1"]},
    }


EXPERIMENTS = {
    "lift": _run_lift,
    "variation": _run_variation,
    "young2d": _run_young2d,
    "level2-variance": _run_level2_variance,
    "level-bounds": _run_level_bounds,
    "dyadic-convergence": _run_dyadic,
    "perturbation": _run_perturbation,
    "fernique": _run_fernique,
    "young-wiener": _run_young_wiener,
    "weak-limit": _run_weak_limit,
    "cm-embedding": _run_cm_embedding,
    "grr": _run_grr,
    "chaos-ratio": _run_chaos_ratio,
    "coutin-qian": _run_coutin_qian,
}


# ---------------------------------------------------------------------------
# Serialization: identical configs must produce identical bytes.


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    return obj


def _dumps(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


def _resolve_out_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path("out")


def _write_artifacts(out_dir: Path, prefix: str, cfg: ExperimentConfig,
                     body: dict, columns, rows, wall: float) -> None:
    """Write ``<prefix>report.json`` (common header plus ``body``),
    ``<prefix>table.csv`` and the ``<prefix>run_meta.json`` sidecar."""
    # worker count cannot influence results, so it lives in the sidecar with
    # the wall clock; report bytes depend on the science parameters only
    echo = cfg.to_dict()
    echo.pop("workers")
    report = {
        "schema_version": 1,
        "tool": {"name": "rough-gauss", "version": __version__},
        "experiment": cfg.experiment,
        "config": echo,
        **body,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{prefix}report.json").write_text(_dumps(report),
                                                  encoding="utf-8")
    _write_csv(out_dir / f"{prefix}table.csv", columns, rows)
    meta = {"experiment": cfg.experiment, "wall_clock_s": wall,
            "workers": cfg.workers,
            "artifacts": [f"{prefix}report.json", f"{prefix}table.csv"]}
    (out_dir / f"{prefix}run_meta.json").write_text(_dumps(meta),
                                                    encoding="utf-8")


def _execute(cfg: ExperimentConfig, out_dir: Path) -> int:
    t0 = time.monotonic()
    outcome = EXPERIMENTS[cfg.experiment](cfg)
    wall = time.monotonic() - t0
    ok = all(c["ok"] for c in outcome["checks"])
    prefix = _default(cfg.out_prefix, cfg.experiment) + "_"
    body = {"seed": cfg.seed, "checks": outcome["checks"], "ok": ok,
            "results": outcome["results"]}
    _write_artifacts(out_dir, prefix, cfg, body, outcome["columns"],
                     outcome["rows"], wall)
    for c in outcome["checks"]:
        detail = {k: v for k, v in c.items() if k not in ("name", "ok")}
        tail = f" {detail}" if detail else ""
        print(f"[{'ok' if c['ok'] else 'FAIL'}] {c['name']}{tail}")
    print(f"{'PASS' if ok else 'FAIL'}: wrote {prefix}report.json, "
          f"{prefix}table.csv in {out_dir}")
    return 0 if ok else 2


def _parse_set(items) -> dict:
    out = {}
    for item in items or ():
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def _config_from_args(args) -> ExperimentConfig:
    target = args.config
    if target.endswith(".json") or os.path.sep in target or os.path.exists(target):
        data = _load_json(target)
    else:
        data = {"experiment": target}
    overrides = _parse_set(args.set)
    for key, flag in (("kernel", args.kernel), ("kernel2", args.kernel2),
                      ("grid_level", args.grid), ("samples", args.samples),
                      ("seed", args.seed), ("workers", args.workers),
                      ("path", args.path)):
        if flag is not None:
            overrides[key] = flag
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


SWEEP_COLUMNS = ("param", "estimate", "stderr", "band", "ok")


def _sweep_rows(experiment: str, param: str, values, base: dict,
                workers: int) -> list:
    rows = []
    if experiment == "dyadic-convergence" and param == "level":
        cfg = ExperimentConfig.from_dict({**base, "levels": list(values)})
        out = EXPERIMENTS[experiment](cfg)
        ok = all(c["ok"] for c in out["checks"])
        for row in out["rows"]:
            rows.append({"param": row["level"], "estimate": row["l2_mean"],
                         "stderr": row["stderr"], "band": None, "ok": True})
        rows.append({"param": "slope",
                     "estimate": out["results"]["log2_slope"],
                     "stderr": None, "band": None, "ok": ok})
        return rows
    if experiment == "weak-limit" and param == "H":
        cfg = ExperimentConfig.from_dict({**base, "h_ladder": list(values)})
        out = EXPERIMENTS[experiment](cfg)
        ok = all(c["ok"] for c in out["checks"])
        for row in out["rows"]:
            rows.append({"param": row["H"], "estimate": row["gap_to_half"],
                         "stderr": row["stderr"], "band": None, "ok": ok})
        return rows
    if experiment == "perturbation" and param == "epsilon":
        cfg = ExperimentConfig.from_dict({**base, "epsilons": list(values)})
        out = EXPERIMENTS[experiment](cfg)
        ok = all(c["ok"] for c in out["checks"])
        for row in out["rows"]:
            rows.append({"param": row["epsilon"], "estimate": row["l2_mean"],
                         "stderr": row["stderr"], "band": row["cov_gap"],
                         "ok": ok})
        return rows
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    if param not in known:
        raise ValueError(f"cannot sweep unknown parameter {param!r}")
    for value in values:
        cfg = ExperimentConfig.from_dict({**base, param: value})
        out = EXPERIMENTS[experiment](cfg)
        primary = out["primary"]
        rows.append({"param": value, "estimate": primary.get("estimate"),
                     "stderr": primary.get("stderr"),
                     "band": primary.get("band"),
                     "ok": all(c["ok"] for c in out["checks"])})
    return rows


def _run_table(args) -> int:
    data = _load_json(args.config)
    sweep = data.pop("sweep", None)
    if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
        raise ValueError("sweep config needs {'sweep': {'param':..., 'values': [...]}}")
    param = sweep["param"]
    values = list(sweep["values"])
    if args.seed is not None:
        data["seed"] = args.seed
    if args.workers is not None:
        data["workers"] = args.workers
    base_cfg = ExperimentConfig.from_dict(dict(data))  # validates early
    experiment = base_cfg.experiment
    t0 = time.monotonic()
    rows = _sweep_rows(experiment, param, values, data, base_cfg.workers)
    wall = time.monotonic() - t0
    ok = all(r["ok"] for r in rows)
    out_dir = _resolve_out_dir(args.out_dir)
    prefix = _default(base_cfg.out_prefix, experiment) + "_sweep_"
    body = {"sweep": {"param": param, "values": values}, "rows": rows,
            "ok": ok}
    _write_artifacts(out_dir, prefix, base_cfg, body, SWEEP_COLUMNS, rows,
                     wall)
    print(f"{'PASS' if ok else 'FAIL'}: {len(rows)} sweep rows in "
          f"{out_dir / (prefix + 'table.csv')}")
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rough-gauss",
        description="Gaussian rough path experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config",
                       help="config JSON path or bare experiment name")
    run_p.add_argument("--kernel")
    run_p.add_argument("--kernel2")
    run_p.add_argument("--grid", type=int, help="dyadic grid level")
    run_p.add_argument("--samples", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--workers", type=int)
    run_p.add_argument("--out-dir")
    run_p.add_argument("--path", help="input path CSV (lift)")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="set any other config field")
    table_p = sub.add_parser("table", help="run a one-parameter sweep")
    table_p.add_argument("config", help="sweep config JSON path")
    table_p.add_argument("--seed", type=int)
    table_p.add_argument("--workers", type=int)
    table_p.add_argument("--out-dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            return _execute(cfg, _resolve_out_dir(args.out_dir))
        return _run_table(args)
    except (ValueError, TypeError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
