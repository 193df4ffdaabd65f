#!/usr/bin/env python3
"""Time the library layers that dominate the benchmark, at fixed sizes.

    python3 scripts/bench_layers.py

Brownian motion in d = 2 on a uniform grid over [0, 1], seeded:

  holder_dist      two lifted 200-path ensembles on 257 points, alpha 0.4
  pvar_norm        one lifted 200-path ensemble on 257 points, p 2.5
  pvar_norm_33     one lifted 2 048-path ensemble on 33 points, p 2.5:
                   one Chen block of fernique_tail's shape
  norm             homogeneous_norm of that ensemble's 51 400 group elements
  grr              grr_holder_check of that ensemble, r 2.6, alpha 0.3
  lift_endpoint    10 000 paths of 256 increments, final Chen product only
  sample           10 000 paths on 257 points
  weak_limit       weak_limit_fbm over the shipped H ladder 0.45, 0.48, 0.5,
                   10 000 paths on 257 points
  young_wiener     young_wiener_check of f(t) = t against scalar BM,
                   10 000 paths on 1 025 points
  fernique         fernique_tail, 10 000 paths on 33 points, p 2.5
  perturbation     perturbation_continuity, 400 paths on 65 points, p 2.5,
                   three epsilon rungs on one reference
  dyadic_8         dyadic_convergence, 8 paths on 257 points, p 2.5, five
                   dyadic rungs on one reference
  grr_4096         the grr experiment runner at 4 096 samples on 65 points:
                   two Chen blocks, each lifted and reduced in turn

and the fBM (H = 0.4) covariance on uniform grids of [0, 1]^2:

  exact_variation  exact-mode rho_variation at rho 1.25 on 17 x 17 points;
                   16 intervals is the exact-mode cap, so this enumerates
                   2^15 dissections
  local_search     local-search rho_variation at rho 1.25 on 257 x 257 points

and the Brownian covariance against itself:

  young_2d         young_integral_2d on 65 points a side and 4 refinements,
                   1 025 x 1 025 points at the finest: young2d's shape

Each layer runs 5 times after its inputs are built.  For each, the script
prints the median wall time and the median count of minor page faults
(``ru_minflt`` of this process) per run, and the tracemalloc peak of one
extra untimed call, then all of it as one JSON line.
It runs the library under ``src/`` next to this script, with one OpenBLAS
thread unless OPENBLAS_NUM_THREADS is set.
"""

import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rough_gauss.cli import EXPERIMENTS, ExperimentConfig  # noqa: E402
from rough_gauss.covariance import ProcessSpec, bm_cov, fbm_cov  # noqa: E402
from rough_gauss.path_lift import holder_dist, lift_s3, pvar_norm  # noqa: E402
from rough_gauss.regularity import grr_holder_check  # noqa: E402
from rough_gauss.simulate import (  # noqa: E402
    dyadic_convergence,
    fernique_tail,
    lift_endpoint,
    perturbation_continuity,
    sample,
    weak_limit_fbm,
    young_wiener_check,
)
from rough_gauss.tensor_algebra import homogeneous_norm  # noqa: E402
from rough_gauss.variation_2d import (  # noqa: E402
    EXACT_INTERVAL_CAP,
    GridFunction2D,
    rho_variation,
    young_integral_2d,
)

RUNS = 5
SPEC = ProcessSpec((bm_cov(), bm_cov()))


def _grid(points: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def measure(fn) -> dict:
    """Median seconds and minor page faults of RUNS calls of fn(), and the
    tracemalloc peak of one more call, which tracing would slow."""
    secs, faults = [], []
    for _ in range(RUNS):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn()
        secs.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"median_s": round(statistics.median(secs), 4),
            "min_s": round(min(secs), 4),
            "minflt": int(statistics.median(faults)),
            "peak_mib": round(peak / 2**20, 2)}


def main() -> int:
    x = lift_s3(sample(SPEC, _grid(257), 200, seed=0))
    y = lift_s3(sample(SPEC, _grid(257), 200, seed=1))
    wide = lift_s3(sample(SPEC, _grid(33), 2_048, seed=4))
    increments = np.diff(sample(SPEC, _grid(257), 10_000, seed=2).points, axis=-2)
    g = _grid(EXACT_INTERVAL_CAP + 1)
    cov = GridFunction2D(g, g, fbm_cov(0.4).grid_eval(g, g))
    g = _grid(257)
    cov_257 = GridFunction2D(g, g, fbm_cov(0.4).grid_eval(g, g))
    bm = bm_cov().grid_eval
    grr_4096 = ExperimentConfig.from_dict({"experiment": "grr", "samples": 4_096})
    layers = {
        "holder_dist": lambda: holder_dist(x, y, 0.4),
        "pvar_norm": lambda: pvar_norm(x, 2.5),
        "pvar_norm_33": lambda: pvar_norm(wide, 2.5),
        "norm": lambda: homogeneous_norm(x.values),
        "grr": lambda: grr_holder_check(x, r=2.6, alpha=0.3),
        "lift_endpoint": lambda: lift_endpoint(increments),
        "sample": lambda: sample(SPEC, _grid(257), 10_000, seed=3),
        "weak_limit": lambda: weak_limit_fbm((0.45, 0.48, 0.5), n=10_000, seed=3,
                                             grid_level=8),
        "young_wiener": lambda: young_wiener_check(
            lambda t: np.asarray(t, dtype=float), ProcessSpec((bm_cov(),)),
            n=10_000, seed=1, grid_level=10),
        "fernique": lambda: fernique_tail(SPEC, 2.5, n=10_000, seed=0, grid_level=5),
        "perturbation": lambda: perturbation_continuity(SPEC, p=2.5, n=400, seed=0,
                                                        grid_level=6),
        "dyadic_8": lambda: dyadic_convergence(SPEC, p=2.5, n=8, seed=0),
        "grr_4096": lambda: EXPERIMENTS["grr"](grr_4096),
        "exact_variation": lambda: rho_variation(cov, 1.25, mode="exact"),
        "local_search": lambda: rho_variation(cov_257, 1.25, mode="local-search"),
        "young_2d": lambda: young_integral_2d(bm, bm, _grid(65), _grid(65), levels=4),
    }
    out = {}
    for name, fn in layers.items():
        out[name] = measure(fn)
        r = out[name]
        print(f"{name:<16} {r['median_s']:8.3f} s  (min {r['min_s']:.3f})"
              f"  {r['minflt']:>8} minor faults  {r['peak_mib']:8.2f} MiB peak")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
