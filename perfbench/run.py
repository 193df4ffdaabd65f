#!/usr/bin/env python3
"""rough-gauss benchmark: the shipped experiment configs, end to end.

    python3 perfbench/run.py --workload mc-endpoint --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-reference

Run from the root of a checkout.  Each workload is a list of configs from
``scripts/configs``.  A pass runs them in order, one process at a time, each
as its own ``rough_gauss.cli.main`` invocation in a fresh interpreter with
``--workers 1``, so no cache survives from one config to the next and peak
RSS is read per process (``os.wait4``).  Passes repeat while another one
fits in ``--seconds`` (at least one).  The workload seed picks an offset
from SEED_OFFSETS that is added to each config's shipped seed; seed 0 keeps
the shipped seeds.

--trace 0 prints the end-to-end metrics:
  setup_s      interpreter launch until ``rough_gauss.cli`` is imported,
               median over every launch in the run (5 bare launches plus
               one per config execution)
  pass_s       wall time of one pass, median over passes
  peak_rss_mb  largest peak RSS of any config process in a pass, median
  ok_frac      config executions that exit 0 with correct outputs, over
               executions attempted (1 - failed_frac)
--trace 1 runs one untraced pass and one traced pass (tracer.py) and prints
the per-layer metrics derived from the traced pass's spans, plus the tracing
overhead and the share of traced process time no span covers.

Correctness: at offset 0 every execution must exit 0 and match the outputs
recorded in ``perfbench/reference`` (identical bytes, or every number within
REL_TOL; see ``outputs_match``).  At other offsets an execution must exit 0
and, from the second pass on, reproduce the first pass's bytes exactly (a
traced pass is compared with the untraced one).  The last stdout line is the
JSON result; details, including the environment record, go to
``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "scripts" / "configs"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 0
# Offsets added to the shipped config seeds, chosen by the workload seed
# modulo their count.  With the sources the reference outputs were recorded
# from, every config's checks pass at each of these offsets.  Offsets 1 and
# 10 are left out: there weak-limit's gaps_decreasing check, which compares
# Monte Carlo gaps of similar size, reports a failure (exit 2).
SEED_OFFSETS = (0, 2, 3, 4, 5, 6, 7, 8, 9, 11)
SETUP_LAUNCHES = 5
RUN_DEADLINE_S = 170.0
# roundoff-level kernel changes move report numbers by far less than this;
# a different RNG draw layout moves Monte Carlo estimates by far more
REL_TOL = 1e-6
ABS_TOL = 1e-12

# --workers is not a workload dimension: every config runs with --workers 1
# until the project decides whether the option stays.  Why each workload
# was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    # Monte Carlo endpoint lifts: 10 000-path batches through a 256-step
    # sequential Chen chain (tensor_algebra via simulate.lift_endpoint)
    "mc-endpoint": [
        ("level2_variance", ()), ("weak_limit", ()), ("young_wiener", ()),
        ("chaos_ratio", ()),
    ],
    # O(grid^2) all-pairs homogeneous metrics (path_lift over tensor_algebra);
    # dyadic_convergence keeps its 257-point reference grid with fewer
    # samples, since the shipped 200 samples take over a minute alone
    "pair-metrics": [
        ("fernique", ()), ("perturbation", ()), ("grr", ()),
        ("dyadic_level_sweep", ()), ("dyadic_convergence", ("--samples", "8")),
    ],
    # exact 2D rho-variation enumeration plus short configs where process
    # start, import and serialization are a large share of the pass
    "exact-variation": [
        ("cm_embedding", ()), ("level_bounds", ()), ("variation", ()),
        ("young2d", ()), ("coutin_qian", ()), ("lift", ()),
    ],
}

EXPERIMENTS = (
    "lift", "variation", "young2d", "level2-variance", "level-bounds",
    "dyadic-convergence", "perturbation", "fernique", "young-wiener",
    "weak-limit", "cm-embedding", "grr", "chaos-ratio", "coutin-qian",
)
TENSOR_KERNELS = ("tensor_mul", "exp_trunc", "group_inverse",
                  "homogeneous_norm", "shuffle_residual", "hall_log_signature")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Child processes


class Launcher:
    """Starts child interpreters one at a time and kills any still running
    when the run's deadline passes."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        nproc = len(os.sched_getaffinity(0))
        # this process waits while a child runs; child BLAS threads plus
        # this one stay within the CPUs the run may use
        self.blas_threads = max(1, nproc - 1)
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(self.blas_threads)
        # an installed package imports from cached bytecode; the untimed
        # first launch of a run writes it (into the ignored __pycache__)
        for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "ROUGH_GAUSS_OUT"):
            self.env.pop(var, None)

    def launch(self, record: Path, log: Path, trace: bool, cli_args=()) -> dict:
        """Run child.py; return wall, set-up time, exit code, peak RSS and
        the child's record."""
        record.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(SRC),
                str(record), "1" if trace else "0", *cli_args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        with open(log, "wb") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            old = signal.signal(signal.SIGALRM,
                                lambda *_: os.kill(proc.pid, signal.SIGKILL))
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            t1 = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise BenchError("run deadline passed; child killed")
        data = json.loads(record.read_text()) if record.exists() else {}
        return {
            "exit": code,
            "wall_s": t1 - t0,
            "setup_s": data["imported"] - t0 if "imported" in data else None,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "record": data,
        }


def config_argv(name: str, extra, offset: int, out_dir: Path) -> list:
    path = CONFIGS / f"{name}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    sub = "table" if "sweep" in data else "run"
    # children run in ROOT, where a config's "path" field resolves
    argv = [sub, str(path), "--out-dir", str(out_dir),
            "--seed", str(int(data["seed"]) + offset), "--workers", "1"]
    return argv + list(extra)


def read_outputs(out_dir: Path) -> dict:
    """Report and table bytes; run_meta holds wall-clock time and is skipped."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))
            if p.is_file() and not p.name.endswith("_run_meta.json")}


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.glob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Correctness


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _tree_close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return _close(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_tree_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_tree_close, a, b))
    return a == b


def _cell_close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return _close(float(a), float(b))
    except ValueError:
        return False


def _file_close(name: str, a: bytes, b: bytes) -> bool:
    if name.endswith(".json"):
        return _tree_close(json.loads(a), json.loads(b))
    if name.endswith(".csv"):
        ra = list(csv.reader(io.StringIO(a.decode("utf-8"))))
        rb = list(csv.reader(io.StringIO(b.decode("utf-8"))))
        return len(ra) == len(rb) and all(
            len(x) == len(y) and all(map(_cell_close, x, y))
            for x, y in zip(ra, rb))
    return False


def outputs_match(expected: dict, got: dict, tolerant: bool) -> str | None:
    """None when ``got`` matches ``expected``: the same files, each with
    identical bytes or, if ``tolerant``, with every number within REL_TOL
    and every other value equal.  Otherwise the reason it does not."""
    if expected.keys() != got.keys():
        return f"files {sorted(got)} != {sorted(expected)}"
    for name, ref in expected.items():
        if got[name] != ref and not (tolerant and _file_close(name, ref, got[name])):
            return f"{name} differs"
    return None


def load_reference(name: str) -> dict | None:
    d = REFERENCE / name
    return read_outputs(d) if d.is_dir() else None


# ---------------------------------------------------------------------------
# Passes


def run_pass(launcher: Launcher, workload: str, offset: int, trace: bool,
             pass_dir: Path, first_pass: dict | None) -> dict:
    """Run every config of the workload once; check each execution."""
    configs = []
    t0 = time.monotonic()
    for name, extra in WORKLOADS[workload]:
        out = pass_dir / name
        out.mkdir(parents=True)
        res = launcher.launch(pass_dir / f"{name}.record.json",
                              pass_dir / f"{name}.log", trace,
                              config_argv(name, extra, offset, out))
        res["name"] = name
        res["outputs"] = read_outputs(out)
        res["artifact_bytes"] = artifact_bytes(out)
        configs.append(res)
    wall = time.monotonic() - t0
    for res in configs:
        res["error"] = None
        if res["exit"] != 0:
            res["error"] = f"exit {res['exit']}"
            continue
        expected = None
        if offset == 0:
            expected = load_reference(res["name"])
            if expected is None:
                res["error"] = "no reference recorded"
                continue
        elif first_pass is not None:
            expected = next(c["outputs"] for c in first_pass["configs"]
                            if c["name"] == res["name"])
        if expected is not None:
            res["error"] = outputs_match(expected, res["outputs"], offset == 0)
    return {"wall_s": wall, "trace": trace, "configs": configs}


def setup_samples(launcher: Launcher, run_dir: Path, count: int) -> list:
    out = []
    for i in range(count):
        res = launcher.launch(run_dir / "setup.record.json",
                              run_dir / "setup.log", False)
        if res["exit"] != 0 or res["setup_s"] is None:
            raise BenchError(f"bare import failed; see {run_dir / 'setup.log'}")
        out.append(res["setup_s"])
    return out


# ---------------------------------------------------------------------------
# Statistics and metrics


def summarize(values) -> dict:
    """Median, plus the highest of p90/p99/p99.9 that has at least ten
    samples beyond it (none below 100 samples), with the sample count."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100.0) >= 10:
            k = min(len(values) - 1, math.ceil(p / 100.0 * len(values)) - 1)
            out[f"p{p:g}"] = values[k]
            break
    return out


def end_to_end(passes: list, setups: list) -> dict:
    timed = [p for p in passes if not p["trace"]]
    execs = [c for p in passes for c in p["configs"]]
    failed = sum(c["error"] is not None for c in execs)
    return {
        "setup_s": (summarize(setups), "s"),
        "pass_s": (summarize([p["wall_s"] for p in timed]), "s"),
        "peak_rss_mb": (summarize([max(c["rss_mb"] for c in p["configs"])
                                   for p in timed]), "MB"),
        "ok_frac": ({"n": len(execs),
                     "median": (len(execs) - failed) / len(execs)}, "ratio"),
    }


def _merge_spans(configs: list) -> tuple:
    spans = {}
    reg_paths = 0
    for c in configs:
        rec = c["record"]
        reg_paths += rec.get("regularity_paths", 0)
        for name, st in rec.get("spans", {}).items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0, "counts": {}})
            acc["calls"] += st["calls"]
            acc["self_s"] += st["self_s"]
            acc["total_s"] += st["total_s"]
            for k, v in st["counts"].items():
                acc["counts"][k] = acc["counts"].get(k, 0) + v
    return spans, reg_paths


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def coverage(configs: list) -> list:
    """Per traced config: the process wall time split into set-up, the root
    span (cli.main, which the layer self times partition), and the part
    neither covers (tracer installation, record writing, interpreter exit)."""
    rows = []
    for c in configs:
        spans = c["record"].get("spans", {})
        root = spans.get("cli.main", {}).get("total_s", 0.0)
        self_sum = sum(st["self_s"] for st in spans.values())
        unattributed = c["wall_s"] - c["setup_s"] - root
        rows.append({"name": c["name"], "wall_s": c["wall_s"],
                     "setup_s": c["setup_s"], "root_s": root,
                     "self_sum_s": self_sum,
                     "root_covered": abs(self_sum - root) <= 1e-6 * max(root, 1.0),
                     "unattributed_s": unattributed})
    return rows


# Per-layer metrics read straight off one span: "<span>.<field>", where the
# field is calls (or count), self_s, total_s, a work counter, or a counter
# with _per_s (counter per second of the span's total time).
SPAN_METRICS = (
    [f"tensor_algebra.{k}.{f}" for k in TENSOR_KERNELS
     for f in ("calls", "self_s", "elements", "elements_per_s")]
    + ["tensor_algebra.tensor_mul.flops",
       "tensor_algebra.tensor_mul.bytes_computed",
       "tensor_algebra.validate.count", "tensor_algebra.validate.self_s",
       "simulate.sample.self_s", "simulate.sample.values",
       "simulate.sample.values_per_s",
       "simulate.lift_endpoint.total_s", "simulate.lift_endpoint.self_s",
       "simulate.lift_endpoint.increments",
       "simulate.lift_endpoint.increments_per_s",
       "simulate.battery.self_s",
       "path_lift.pair_metric.total_s", "path_lift.pair_metric.self_s",
       "path_lift.pair_metric.pairs", "path_lift.pair_metric.pairs_per_s",
       "path_lift.lift.total_s", "path_lift.lift.increments_per_s",
       "path_lift.refine_path.total_s",
       "variation_2d.exact.total_s", "variation_2d.exact.masks",
       "variation_2d.exact.masks_per_s", "variation_2d.local_search.total_s",
       "variation_2d.young.total_s", "variation_2d.young.cells",
       "cameron_martin.embedding_check.calls",
       "cameron_martin.embedding_check.total_s",
       "cameron_martin.pvar_1d.total_s",
       "covariance.gram_matrix.total_s", "covariance.grid_eval.total_s",
       "covariance.grid_eval.entries",
       "regularity.grr_holder_check.self_s",
       "regularity.chaos_ratio_check.total_s"]
)
_EMPTY_SPAN = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}}


def _span_metric(spans: dict, metric: str) -> tuple:
    span, field = metric.rsplit(".", 1)
    s = spans.get(span, _EMPTY_SPAN)
    if field in ("calls", "count"):
        return s["calls"], "count"
    if field.endswith("_per_s"):
        return _ratio(s["counts"].get(field[:-6], 0), s["total_s"]), "1/s"
    if field in ("self_s", "total_s"):
        return s[field], "s"
    unit = {"flops": "flop", "bytes_computed": "B"}.get(field, "count")
    return s["counts"].get(field, 0), unit


def layer_self(spans: dict) -> dict:
    out = {layer: 0.0 for layer in LAYERS}
    for name, s in spans.items():
        out[name.split(".", 1)[0]] += s["self_s"]
    return out


def per_layer(untraced: dict, traced: dict) -> dict:
    configs = traced["configs"]
    spans, reg_paths = _merge_spans(configs)
    m = {name: _span_metric(spans, name) for name in SPAN_METRICS}
    kernel_calls = sum(spans.get(f"tensor_algebra.{k}", _EMPTY_SPAN)["calls"]
                       for k in TENSOR_KERNELS)
    m["tensor_algebra.validate.per_kernel_call"] = (
        _ratio(m["tensor_algebra.validate.count"][0], kernel_calls), "ratio")
    r_var = spans.get("cameron_martin.r_variation", _EMPTY_SPAN)["counts"]
    m["cameron_martin.rvar_cache_hit_ratio"] = (
        _ratio(r_var.get("hits", 0), r_var.get("lookups", 0)), "ratio")
    pair = spans.get("path_lift.pair_metric", _EMPTY_SPAN)["counts"]
    m["regularity.pair_matrix_per_path"] = (
        _ratio(pair.get("regularity_pair_matrices", 0), reg_paths), "ratio")
    for layer, self_s in layer_self(spans).items():
        m[f"{layer}.self_s"] = (self_s, "s")
    m["cli.artifact_bytes"] = (sum(c["artifact_bytes"] for c in configs), "B")
    for exp in EXPERIMENTS:
        m[f"cli.experiment_s.{exp}"] = (
            spans.get(f"cli.experiment.{exp}", _EMPTY_SPAN)["total_s"], "s")
    cov = coverage(configs)
    m["trace.pass_s"] = (traced["wall_s"], "s")
    m["trace.untraced_pass_s"] = (untraced["wall_s"], "s")
    m["trace.overhead_frac"] = (
        (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"], "ratio")
    m["trace.unattributed_frac"] = (
        _ratio(sum(r["unattributed_s"] for r in cov),
               sum(r["wall_s"] for r in cov)), "ratio")
    return m


# ---------------------------------------------------------------------------
# Environment record


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "rough_gauss").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(launcher: Launcher) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({k: _read(str(idx / k)) for k in ("level", "type", "size")})
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, platform, numpy, scipy\n"
         "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
         "print(json.dumps({'python': platform.python_version(),"
         " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
         " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))"],
        capture_output=True, text=True, env=launcher.env, cwd=ROOT, timeout=60)
    versions = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "caches": caches, **versions,
            "blas_threads": launcher.blas_threads,
            "commit": _commit(), "src_sha256": _src_digest()}


# ---------------------------------------------------------------------------
# Runs


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    launcher = Launcher(deadline)
    run_dir = _fresh_dir(WORK / "runs" / workload)
    offset = SEED_OFFSETS[seed % len(SEED_OFFSETS)]
    env = environment(launcher)
    # the first import after a fresh checkout compiles bytecode; users pay
    # that once, so it is not a set-up sample
    setup_samples(launcher, run_dir, 1)
    passes = []
    setups = []
    if trace:
        untraced = run_pass(launcher, workload, offset, False, run_dir / "pass0", None)
        traced = run_pass(launcher, workload, offset, True, run_dir / "pass1", untraced)
        passes = [untraced, traced]
    else:
        setups = setup_samples(launcher, run_dir, SETUP_LAUNCHES)
        start = time.monotonic()
        while True:
            first = passes[0] if passes else None
            passes.append(run_pass(launcher, workload, offset, False,
                                   run_dir / f"pass{len(passes)}", first))
            elapsed = time.monotonic() - start
            longest = max(p["wall_s"] for p in passes)
            if elapsed + longest > seconds:
                break
    setups += [c["setup_s"] for p in passes for c in p["configs"]
               if c["setup_s"] is not None]
    return {"workload": workload, "seed": seed, "offset": offset, "seconds": seconds,
            "trace": trace, "environment": env, "passes": passes,
            "setups": setups}


def result_line(run: dict) -> tuple:
    """(printed JSON object, metric details) for one measured run."""
    passes = run["passes"]
    execs = [c for p in passes for c in p["configs"]]
    failed = sum(c["error"] is not None for c in execs)
    if run["trace"]:
        details = {k: ({"n": 1, "median": v}, unit)
                   for k, (v, unit) in per_layer(*passes).items()}
    else:
        details = end_to_end(passes, run["setups"])
    metrics = {k: {"value": d["median"], "unit": unit}
               for k, (d, unit) in details.items()}
    line = {"correct": failed == 0, "attempted": len(execs),
            "failed": failed, "metrics": metrics}
    return line, details


def _public(run: dict) -> dict:
    """The run without output bytes, for the results file."""
    out = dict(run)
    out["passes"] = [{**p, "configs": [{k: v for k, v in c.items()
                                        if k != "outputs"}
                                       for c in p["configs"]]}
                     for p in run["passes"]]
    return out


def report(run: dict, line: dict, details: dict) -> None:
    env = run["environment"]
    print(f"# {run['workload']} seed={run['seed']} offset={run['offset']} "
          f"trace={int(run['trace'])} "
          f"passes={len(run['passes'])} commit={env['commit']} "
          f"src={env['src_sha256'][:12]}")
    print(f"# {env['nproc']} cpu {env['cpu_model']}; python {env.get('python')} "
          f"numpy {env.get('numpy')} scipy {env.get('scipy')} "
          f"{env.get('blas')} {env.get('blas_version')} x{env['blas_threads']}")
    for i, p in enumerate(run["passes"]):
        kind = "traced" if p["trace"] else "untraced"
        print(f"# pass {i} ({kind}): {p['wall_s']:.3f} s")
        for c in p["configs"]:
            status = "ok" if c["error"] is None else c["error"]
            print(f"#   {c['name']:<20} {c['wall_s']:7.3f} s "
                  f"{c['rss_mb']:7.1f} MB  {status}")
    if run["trace"]:
        spans, _ = _merge_spans(run["passes"][1]["configs"])
        shares = layer_self(spans)
        total = sum(shares.values())
        print("# self time by layer: " + ", ".join(
            f"{layer} {_ratio(v, total):.1%}" for layer, v in
            sorted(shares.items(), key=lambda kv: -kv[1])))
        for row in coverage(run["passes"][1]["configs"]):
            flag = "" if row["root_covered"] else "  SELF TIMES DO NOT COVER ROOT"
            print(f"#   {row['name']:<20} root {row['root_s']:.3f} s, "
                  f"unattributed {row['unattributed_s']:.3f} s{flag}")
    else:
        for k, (d, unit) in details.items():
            extra = "".join(f" {q} {v:.6g}" for q, v in d.items()
                            if q.startswith("p"))
            print(f"# {k}: median {d['median']:.6g} {unit} (n={d['n']}){extra}")
    print(f"# failed_frac {_ratio(line['failed'], line['attempted']):.6g} "
          f"({line['failed']}/{line['attempted']})")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}.json"
    path.write_text(json.dumps({"result": line, "details": details,
                                "run": _public(run)}, indent=1, default=str))


# ---------------------------------------------------------------------------
# Self-check and reference recording


def self_check(deadline_per_workload: float) -> int:
    """Run every workload once (one untraced, one traced pass) at the
    default seed; fail on a metric missing from or absent in BENCHMARK.json,
    a wrong unit, self times that do not cover the root span, or a failed
    execution."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        run = measure(workload, DEFAULT_SEED, 0.0, True,
                      time.monotonic() + deadline_per_workload)
        untraced = dict(run, trace=False, passes=run["passes"][:1])
        for trace, key in ((untraced, "end_to_end"), (run, "per_layer")):
            line, _ = result_line(trace)
            for metric in spec[key]:
                got = line["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{workload}: {metric['name']} missing")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} unit "
                                    f"{got.get('unit')!r} != {metric['unit']!r}")
            extra = set(line["metrics"]) - {m["name"] for m in spec[key]}
            problems += [f"{workload}: {name} not in BENCHMARK.json"
                         for name in sorted(extra)]
        problems += [f"{workload}: {row['name']}: span self times do not "
                     f"add up to the root span"
                     for row in coverage(run["passes"][1]["configs"])
                     if not row["root_covered"]]
        line, _ = result_line(run)
        if line["failed"]:
            problems.append(f"{workload}: failed_frac "
                            f"{line['failed']}/{line['attempted']}")
        print(f"# {workload}: {line['attempted']} executions, "
              f"{line['failed']} failed")
    for p in problems:
        print(f"self-check: {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_reference(deadline: float) -> int:
    """Store report and table bytes of every config at the default seed."""
    launcher = Launcher(deadline)
    run_dir = _fresh_dir(WORK / "runs" / "reference")
    for workload in WORKLOADS:
        for name, extra in WORKLOADS[workload]:
            out = _fresh_dir(run_dir / name)
            res = launcher.launch(run_dir / f"{name}.record.json",
                                  run_dir / f"{name}.log", False,
                                  config_argv(name, extra, 0, out))
            if res["exit"] != 0:
                print(f"{name}: exit {res['exit']}; see {run_dir}")
                return 1
            dest = _fresh_dir(REFERENCE / name)
            for fname, data in read_outputs(out).items():
                (dest / fname).write_bytes(data)
            print(f"recorded {name}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time; passes repeat while another fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload once and validate the metrics")
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference outputs at the default seed")
    args = ap.parse_args(argv)
    if not (SRC / "rough_gauss" / "cli.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no rough-gauss sources under {ROOT}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(RUN_DEADLINE_S)
    if args.record_reference:
        return record_reference(time.monotonic() + 600.0)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      time.monotonic() + RUN_DEADLINE_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    line, details = result_line(run)
    report(run, line, details)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
