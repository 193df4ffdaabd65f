"""Config-driven experiment runner.

JSON config in, deterministic artifacts out: ``<experiment>_report.json``,
``<experiment>_table.csv``, plus a ``<experiment>_run_meta.json`` sidecar.
Wall-clock time lives only in the sidecar, so report and table bytes depend
on nothing but the resolved config: same config and seed means identical
files, at any worker count, with one BLAS thread.  A different OpenBLAS
thread count sums the Monte Carlo matrix products in another order and
moves those reports in the last digits.

Each experiment reads the config fields listed for it in ``FIELDS``.  Unset
fields take the defaults of the library function they are forwarded to, and
a config that sets a field its experiment does not read is rejected.

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
import typing
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
    perturbation_continuity,
    sample,
    sample_endpoint,
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
from .variation_2d import (EXACT_INTERVAL_CAP, GridFunction2D, rho_variation,
                           young_integral_2d)

OUT_DIR_ENV = "ROUGH_GAUSS_OUT"

# fields every experiment accepts
COMMON = ("experiment", "seed", "workers", "out_prefix")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters.  Numbers are coerced to their field's
    type here and nowhere else; unknown fields, and fields the experiment
    does not read, are rejected.  The full resolved mapping is echoed into
    every report."""

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
    levels: int | tuple[int, ...] | None = None
    epsilons: tuple[float, ...] | None = None
    h_ladder: tuple[float, ...] | None = None
    interval: tuple[float, ...] | None = None
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
        for name, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _coerce(name, hint, value))
        if self.seed is None or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.grid_level is not None and self.grid_level < 0:
            raise ValueError(f"grid_level must be >= 0, got {self.grid_level}")
        if self.grid_intervals is not None and self.grid_intervals < 1:
            raise ValueError(f"grid_intervals must be >= 1, got {self.grid_intervals}")
        if self.workers is None or self.workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        extra = set(data) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "experiment" not in data:
            raise ValueError("config needs an 'experiment' field")
        cfg = cls(**data)
        unread = set(data) - set(COMMON) - set(FIELDS[cfg.experiment])
        if unread:
            raise ValueError(f"{cfg.experiment} does not read config fields "
                             f"{sorted(unread)}; it reads {sorted(FIELDS[cfg.experiment])}")
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _number(name: str, kind: type, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config field {name!r} needs a number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"config field {name!r} needs an integer, got {value!r}")
        return int(value)
    # false for nan, and exact for integers too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"config field {name!r} needs a finite number, got {value!r}")
    return float(value)


def _coerce(name: str, hint, value):
    """``value`` as the number, or tuple of numbers, that the field's
    annotation ``hint`` declares; strings are checked by their readers."""
    kinds = typing.get_args(hint) or (hint,)
    items = [typing.get_args(k)[0] for k in kinds if typing.get_origin(k) is tuple]
    if str in kinds:
        return value
    if items and isinstance(value, (list, tuple)):
        if not value:
            raise ValueError(f"config field {name!r} needs at least one value")
        return tuple(_number(name, items[0], v) for v in value)
    if int not in kinds and float not in kinds:
        raise ValueError(f"config field {name!r} needs a list, got {value!r}")
    return _number(name, int if int in kinds else float, value)


def _default(value, fallback):
    return fallback if value is None else value


def _kwargs(cfg: ExperimentConfig, **fallback) -> dict:
    """The library keywords of the set fields ``cfg``'s experiment forwards,
    over ``fallback``; unset fields keep the library defaults."""
    given = {kw: getattr(cfg, name)
             for name, kw in FIELDS[cfg.experiment].items()
             if kw is not None and getattr(cfg, name) is not None}
    return {**fallback, **given}


def _spec(cfg: ExperimentConfig, default_dim: int = 2) -> ProcessSpec:
    k = kernel_from_config(cfg.kernel)
    if cfg.kernel2 is not None:
        return ProcessSpec((k, kernel_from_config(cfg.kernel2)))
    return ProcessSpec((k,) * _default(cfg.dim, default_dim))


def _default_p(spec: ProcessSpec) -> float:
    # above 2 for BM, above 1/H for the rougher kernels used here
    return 2.5 if spec.kernels[0].rho == 1.0 else 2.8


def _grid(cfg: ExperimentConfig, grid_level: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, 2 ** _default(cfg.grid_level, grid_level) + 1)


def _sample(cfg: ExperimentConfig, grid_level: int, n: int):
    return sample(_spec(cfg), _grid(cfg, grid_level), _default(cfg.samples, n), cfg.seed)


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns checks, a results payload, CSV columns and
# rows, and a scalar summary used by generic parameter sweeps.


def _outcome(checks, results, columns, rows, **primary) -> dict:
    return {"checks": checks, "results": results, "columns": columns,
            "rows": rows, "primary": primary}


def _zip(columns: dict):
    """CSV columns and rows from parallel per-row value lists."""
    return list(columns), [dict(zip(columns, values))
                           for values in zip(*columns.values(), strict=True)]


def _check(name: str, rep: dict, ok: str, *details: str) -> dict:
    return {"name": name, "ok": rep[ok], **{k: rep[k] for k in details}}


def _ok(outcome: dict) -> bool:
    return all(c["ok"] for c in outcome["checks"])


def _run_lift(cfg: ExperimentConfig) -> dict:
    if cfg.path is None:
        raise ValueError("lift needs a 'path' pointing at a path CSV")
    with open(cfg.path, newline="", encoding="utf-8") as fh:
        path = read_path_csv(fh)
    gp = lift_s3(path)
    residual = float(np.max(shuffle_residual(gp.values)))
    end = GroupElement(_take(gp.values.tensor, -1))
    coords = np.asarray(hall_log_signature(end).coords)
    labels = hall_basis_labels(path.dim)
    norm = float(homogeneous_norm(end))
    results = {
        "n_times": path.n_times,
        "dim": path.dim,
        "endpoint_norm": norm,
        "shuffle_residual": residual,
        **{f"signature_level{i}": np.asarray(level).tolist() for i, level
           in enumerate((end.tensor.level1, end.tensor.level2,
                         end.tensor.level3), start=1)},
        "hall_log_signature": dict(zip(labels, coords.tolist())),
    }
    return _outcome(
        [{"name": "group_like", "ok": residual <= 1e-8, "residual": residual}],
        results, *_zip({"coordinate": labels, "value": coords.tolist()}),
        estimate=norm)


def _run_variation(cfg: ExperimentConfig) -> dict:
    k = kernel_from_config(cfg.kernel)
    intervals = _default(cfg.grid_intervals, 8)
    if cfg.mode not in (None, "exact", "local-search"):
        raise ValueError(f"mode must be 'exact' or 'local-search', got {cfg.mode!r}")
    rho = _default(cfg.rho, k.rho)
    grid = np.linspace(0.0, 1.0, intervals + 1)
    f = GridFunction2D(grid, grid, k.eval(grid[:, None], grid[None, :]))
    search = rho_variation(f, rho, mode="local-search", seed=cfg.seed)
    rows = [{"mode": "local-search", "value": search, "exact": False}]
    checks = []
    results = {"rho": rho, "grid_intervals": intervals,
               "local_search_value": search}
    # unset, exact runs up to the cap; set, rho_variation rejects a larger grid
    if cfg.mode == "exact" or (cfg.mode is None and intervals <= EXACT_INTERVAL_CAP):
        exact = rho_variation(f, rho, mode="exact")
        rows.insert(0, {"mode": "exact", "value": exact, "exact": True})
        checks.append({"name": "search_below_exact",
                       "ok": bool(search <= exact * (1.0 + 1e-9)),
                       "exact": exact, "local_search": search})
        results["exact_value"] = exact
    return _outcome(checks, results, ["mode", "value", "exact"], rows,
                    estimate=results.get("exact_value", search))


def _run_young2d(cfg: ExperimentConfig) -> dict:
    k1 = kernel_from_config(cfg.kernel)
    k2 = kernel_from_config(_default(cfg.kernel2, cfg.kernel))
    intervals = _default(cfg.grid_intervals, 8)
    levels = _default(cfg.levels, 4)
    if not isinstance(levels, int):
        raise ValueError("young2d expects an integer 'levels'")
    grid = np.linspace(0.0, 1.0, intervals + 1)
    res = young_integral_2d(k1.grid_eval, k2.grid_eval, grid, grid, levels=levels)
    values = [float(v) for v in res.level_values]
    rows = [{"level": i, "value": v,
             "diff": float(res.diffs[i - 1]) if i else None}
            for i, v in enumerate(values)]
    return _outcome(
        [{"name": "refinement_converged", "ok": bool(res.converged)}],
        {"value": float(res.value), "levels": levels, "level_values": values,
         "converged": bool(res.converged)},
        ["level", "value", "diff"], rows, estimate=float(res.value))


def _run_level2_variance(cfg: ExperimentConfig) -> dict:
    rep = level2_variance_check(_spec(cfg), seed=cfg.seed, **_kwargs(cfg))
    mc = rep["mc"]
    row = {"mc_value": mc["value"], "mc_stderr": mc["stderr"],
           **{k: rep[k] for k in ("young_value", "gap", "tolerance", "ok")}}
    return _outcome([_check("mc_matches_young", rep, "ok", "gap", "tolerance")],
                    rep, list(row), [row], estimate=mc["value"],
                    stderr=mc["stderr"], band=rep["tolerance"])


def _run_level_bounds(cfg: ExperimentConfig) -> dict:
    rep = level_bounds_check(_spec(cfg, default_dim=3), seed=cfg.seed,
                             **_kwargs(cfg))
    rows = [{"word": word, "level": info["level"],
             "smallest_C": info["smallest_C"], "log2_slope": info["log2_slope"],
             "ok": bool(np.all(np.isfinite(info["envelope_constants"]))
                        and info["log2_slope"] > 0.0)}
            for word, info in rep["words"].items()]
    checks = [_check(f"word_{row['word']}_bounded", row, "ok", "smallest_C",
                     "log2_slope") for row in rows]
    return _outcome(checks, rep, list(rows[0]), rows,
                    estimate=max(row["smallest_C"] for row in rows))


def _run_dyadic(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg)
    rep = dyadic_convergence(spec, seed=cfg.seed,
                             **_kwargs(cfg, p=_default_p(spec)))
    return _outcome(
        [_check("negative_log2_slope", rep, "ok", "log2_slope")], rep,
        *_zip({"level": rep["levels"], "l2_mean": rep["l2_means"],
               "stderr": rep["l2_stderrs"]}),
        estimate=rep["log2_slope"])


def _run_perturbation(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg)
    rep = perturbation_continuity(spec, seed=cfg.seed,
                                  **_kwargs(cfg, p=_default_p(spec)))
    return _outcome(
        [_check("strictly_decreasing", rep, "strictly_decreasing"),
         {"name": "positive_rate", "ok": bool(rep["theta_hat"] > 0.0),
          "theta_hat": rep["theta_hat"]}],
        rep,
        *_zip({"epsilon": rep["epsilons"], "l2_mean": rep["l2_means"],
               "stderr": rep["l2_stderrs"], "cov_gap": rep["cov_gaps"]}),
        estimate=rep["theta_hat"])


def _run_fernique(cfg: ExperimentConfig) -> dict:
    spec = _spec(cfg)
    rep = fernique_tail(spec, seed=cfg.seed,
                        **_kwargs(cfg, p=_default_p(spec)))
    return _outcome(
        [_check("gaussian_tail_slope", rep, "tail_ok", "tail_slope", "eta_hat"),
         _check("chaos_ratios", rep, "chaos_ok")],
        rep,
        *_zip({"tail_prob": rep["tail_probs"], "lambda": rep["tail_lambdas"],
               "log_prob": rep["tail_log_probs"]}),
        estimate=rep["eta_hat"])


_INTEGRANDS = {
    "one": lambda u: np.ones_like(u),
    "linear": lambda u: np.asarray(u),
}


def _run_young_wiener(cfg: ExperimentConfig) -> dict:
    name = _default(cfg.integrand, "linear")
    if name not in _INTEGRANDS:
        raise ValueError(f"unknown integrand {name!r}; know {sorted(_INTEGRANDS)}")
    rep = young_wiener_check(_INTEGRANDS[name], _spec(cfg, default_dim=1),
                             seed=cfg.seed, **_kwargs(cfg))
    mc = rep["mc"]
    row = {"integrand": name, "mc_value": mc["value"],
           "mc_stderr": mc["stderr"],
           **{k: rep[k] for k in ("young_value", "gap", "tolerance",
                                  "upper_bound", "ok")}}
    return _outcome(
        [_check("isometry_band", rep, "ok", "gap", "tolerance"),
         _check("variation_upper_bound", rep, "upper_ok", "upper_bound")],
        {"integrand": name, **rep}, list(row), [row], estimate=mc["value"],
        stderr=mc["stderr"], band=rep["tolerance"])


def _run_weak_limit(cfg: ExperimentConfig) -> dict:
    rep = weak_limit_fbm(seed=cfg.seed, **_kwargs(cfg))
    stats = rep["statistics"]
    return _outcome(
        [_check("gaps_decreasing", rep, "gaps_decreasing"),
         _check("kernel_gaps_decreasing", rep, "kernel_gaps_decreasing")],
        rep,
        *_zip({"H": rep["h_ladder"], "estimate": [s["value"] for s in stats],
               "stderr": [s["stderr"] for s in stats],
               "gap_to_half": rep["gaps_to_half"],
               "kernel_sup_gap": rep["kernel_sup_gaps"]}),
        estimate=rep["gaps_to_half"][-1], stderr=stats[-1]["stderr"])


def _run_cm_embedding(cfg: ExperimentConfig) -> dict:
    k = kernel_from_config(cfg.kernel)
    n_elements = _default(cfg.elements, 100)
    n_nodes = _default(cfg.nodes, 4)
    intervals = _default(cfg.grid_intervals, 16)
    if n_elements < 1 or n_nodes < 1:
        raise ValueError("cm-embedding needs elements >= 1 and nodes >= 1")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(n_elements):
        nodes = np.sort(rng.uniform(0.0, 1.0, n_nodes))
        weights = rng.standard_normal(n_nodes)
        res = embedding_check(CMElement(k, nodes, weights),
                              grid_intervals=intervals, **_kwargs(cfg))
        rows.append({"element": i, "lhs": res.lhs, "rhs": res.rhs,
                     "slack": res.slack, "mode": res.mode, "ok": res.ok})
    violations = sum(not row["ok"] for row in rows)
    min_slack = min((row["slack"] for row in rows), default=math.inf)
    checks = [{"name": "variation_embedding", "ok": violations == 0,
               "violations": violations, "min_slack": min_slack}]
    kcfg = kernel_to_config(k)
    results = {"kernel": kcfg, "elements": n_elements,
               "nodes": n_nodes, "grid_intervals": intervals,
               "violations": violations, "min_slack": min_slack}
    if kcfg["kernel"] == "fbm" and kcfg["H"] <= 0.5:
        resp = fbm_increment_response_check(kcfg["H"])
        checks.append({"name": "increment_response_exact",
                       "ok": bool(resp["max_ratio"] <= 1.0 + 1e-9),
                       "max_ratio": resp["max_ratio"]})
        results["increment_response"] = resp
    return _outcome(checks, results,
                    ["element", "lhs", "rhs", "slack", "mode", "ok"], rows,
                    estimate=min_slack)


def _run_grr(cfg: ExperimentConfig) -> dict:
    gp = lift_s3(_sample(cfg, grid_level=6, n=200))
    rep = grr_holder_check(gp, **_kwargs(cfg, r=2.6, alpha=0.3))
    row = {"n_checked": rep["n_checked"], "violations": rep["violations"],
           "worst_ratio": rep["worst_ratio"], "min_slack": rep["slack"],
           "ok": rep["ok"]}
    return _outcome(
        [_check("holder_bound", rep, "ok", "violations", "worst_ratio")],
        rep, list(row), [row], estimate=rep["worst_ratio"])


def _run_chaos_ratio(cfg: ExperimentConfig) -> dict:
    grid, n = _grid(cfg, 5), _default(cfg.samples, 10_000)
    lie = hall_log_signature(sample_endpoint(_spec(cfg), grid, n, cfg.seed))
    labels = iter(hall_basis_labels(lie.dim))
    rows = []
    for level, block in enumerate(lie.split(), start=1):
        for coords, label in zip(np.asarray(block).T, labels):
            for row in chaos_ratio_check(coords, level)["rows"]:
                rows.append({"level": level, "coordinate": label,
                             **{k: row[k] for k in ("q", "ratio", "band",
                                                    "bound", "ok")}})
    worst = float(max((row["ratio"] / row["bound"] for row in rows), default=0.0))
    return _outcome(
        [{"name": "moment_equivalence", "ok": all(row["ok"] for row in rows),
          "worst_ratio_over_bound": worst}],
        {"n": n, "grid_points": grid.size, "rows": rows,
         "worst_ratio_over_bound": worst},
        ["level", "coordinate", "q", "ratio", "band", "bound", "ok"], rows,
        estimate=worst)


def _run_coutin_qian(cfg: ExperimentConfig) -> dict:
    k = kernel_from_config(cfg.kernel)
    kcfg = kernel_to_config(k)
    H = _default(cfg.H, {"fbm": kcfg.get("H"), "bm": 0.5}.get(kcfg["kernel"]))
    if H is None:
        raise ValueError("coutin-qian needs an 'H' for this kernel")
    if cfg.H is not None and kcfg["kernel"] in ("fbm", "bm"):
        # an explicit H (e.g. from a sweep) rebuilds the matching kernel
        k = kernel_from_config("bm" if H == 0.5 else f"fbm:H={H!r}")
    rep = coutin_qian_check(k, H, **_kwargs(cfg))
    finite = bool(np.isfinite(rep["c_ass1"]) and np.isfinite(rep["c_ass2"]))
    ok = bool(rep["passes"]) if "passes" in rep else finite
    row = {"H": rep["H"], "c_ass1": rep["c_ass1"], "c_ass2": rep["c_ass2"],
           "ok": ok}
    return _outcome([{"name": "increment_conditions", "ok": ok,
                      "c_ass1": rep["c_ass1"], "c_ass2": rep["c_ass2"]}],
                    rep, list(row), [row], estimate=rep["c_ass1"])


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

# The config fields each experiment reads, besides COMMON.  A field maps to
# the library keyword it is forwarded as when set, or to None when the runner
# reads it itself.  This one table drives the forwarded keywords, the
# rejection of fields an experiment does not read, and what a sweep may vary.
_PROCESS = {"kernel": None, "kernel2": None, "dim": None}
_MC = {"samples": "n", "grid_level": "grid_level"}
FIELDS = {
    "lift": {"path": None},
    "variation": {"kernel": None, "grid_intervals": None, "rho": None,
                  "mode": None},
    "young2d": {"kernel": None, "kernel2": None, "grid_intervals": None,
                "levels": None},
    "level2-variance": {**_PROCESS, **_MC, "interval": "interval",
                        "band": "band"},
    "level-bounds": {**_PROCESS, **_MC, "rho": "rho"},
    "dyadic-convergence": {**_PROCESS, "samples": "n", "p": "p",
                           "levels": "levels"},
    "perturbation": {**_PROCESS, **_MC, "p": "p", "epsilons": "epsilons"},
    "fernique": {**_PROCESS, **_MC, "p": "p"},
    "young-wiener": {**_PROCESS, **_MC, "integrand": None, "q": "q",
                     "band": "band"},
    "weak-limit": {**_MC, "h_ladder": "h_ladder"},
    "cm-embedding": {"kernel": None, "elements": None, "nodes": None,
                     "grid_intervals": None, "rho": "rho"},
    "grr": {**_PROCESS, "samples": None, "grid_level": None, "r": "r",
            "alpha": "alpha", "q": "q"},
    "chaos-ratio": {**_PROCESS, "samples": None, "grid_level": None},
    "coutin-qian": {"kernel": None, "H": None, "c_H": "c_H"},
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
    # the library is single-threaded, so the worker count cannot influence
    # results: it lives in the sidecar with the wall clock
    echo = cfg.to_dict()
    echo.pop("workers")
    report = {"schema_version": 1,
              "tool": {"name": "rough-gauss", "version": __version__},
              "experiment": cfg.experiment, "config": echo, **body}
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
    ok = _ok(outcome)
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


def _flags(args) -> dict:
    # each field flag's argparse dest is the config field it sets
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return {k: v for k, v in vars(args).items() if k in fields and v is not None}


def _config_from_args(args) -> ExperimentConfig:
    target = args.config
    if target.endswith(".json") or os.path.sep in target or os.path.exists(target):
        data = _load_json(target)
    else:
        data = {"experiment": target}
    data.update({**_parse_set(args.set), **_flags(args)})
    return ExperimentConfig.from_dict(data)


SWEEP_COLUMNS = ("param", "estimate", "stderr", "band", "ok")

# A ladder sweep runs its experiment once over the whole list of values:
# (experiment, sweep param) -> (list-valued config field, estimate column,
# band column, label of a closing row with the run's primary estimate).  The
# sweep param names the table column that carries each rung's value.
_LADDERS = {
    ("dyadic-convergence", "level"): ("levels", "l2_mean", None, "slope"),
    ("weak-limit", "H"): ("h_ladder", "gap_to_half", None, None),
    ("perturbation", "epsilon"): ("epsilons", "l2_mean", "cov_gap", None),
}


def _summary(param, outcome: dict) -> dict:
    primary = outcome["primary"]
    return {"param": param, "estimate": primary.get("estimate"),
            "stderr": primary.get("stderr"), "band": primary.get("band"),
            "ok": _ok(outcome)}


def _run_config(data: dict) -> dict:
    cfg = ExperimentConfig.from_dict(data)
    return EXPERIMENTS[cfg.experiment](cfg)


def _sweep_rows(experiment: str, param: str, values, base: dict) -> list:
    ladder = _LADDERS.get((experiment, param))
    if ladder is None:
        return [_summary(v, _run_config({**base, param: v})) for v in values]
    field, estimate, band, closing = ladder
    out = _run_config({**base, field: values})
    ok = _ok(out)
    rows = [{"param": row[param], "estimate": row[estimate],
             "stderr": row["stderr"], "band": row.get(band), "ok": ok}
            for row in out["rows"]]
    return rows + ([_summary(closing, out)] if closing else [])


def _run_table(args) -> int:
    data = _load_json(args.config)
    sweep = data.pop("sweep", None)
    if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
        raise ValueError("sweep config needs {'sweep': {'param':..., 'values': [...]}}")
    param = sweep["param"]
    values = list(sweep["values"])
    data.update(_flags(args))
    base_cfg = ExperimentConfig.from_dict(dict(data))  # validates early
    experiment = base_cfg.experiment
    sweepable = {*FIELDS[experiment], "seed",
                 *(p for e, p in _LADDERS if e == experiment)}
    if param not in sweepable:
        raise ValueError(f"{experiment} cannot sweep {param!r}; "
                         f"it can sweep {sorted(sweepable)}")
    t0 = time.monotonic()
    rows = _sweep_rows(experiment, param, values, data)
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
    run_p.add_argument("--grid", dest="grid_level", type=int, metavar="LEVEL",
                       help="dyadic grid level")
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
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
