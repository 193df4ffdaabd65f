"""In-process span tracer for one rough-gauss CLI invocation.

``install`` wraps every public function of each package module, plus the
private kernels the per-layer metrics need, in a span.  A span name is
``<module>.<group>``; the module is the layer.  Spans are aggregated as they
close, so the traced process keeps a few counters per name, not a span log:

* ``calls``    spans closed
* ``self_s``   span time minus the time covered by child spans
* ``total_s``  time covered by the outermost spans of the name (nested spans
               of the same name are not counted twice)
* ``counts``   work counters taken from argument and result shapes

The wrappers are installed by rebinding names in the package's module
namespaces, so library code is not edited and calls between modules are
seen at the callee's boundary.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "covariance", "simulate", "tensor_algebra", "path_lift",
          "variation_2d", "cameron_martin", "regularity")

# Function -> span name where several functions share one metric group.
GROUPS = {
    "path_lift": {
        "holder_dist": "pair_metric", "holder_norm": "pair_metric",
        "pvar_dist": "pair_metric", "pvar_norm": "pair_metric",
        "dist_0": "pair_metric", "dist_inf": "pair_metric",
        "_pair_matrix": "pair_metric", "_pairwise_reduce": "pair_metric",
        "lift_s3": "lift", "lift_increments": "lift",
    },
    "simulate": {name: "battery" for name in (
        "level2_variance_check", "level_bounds_check", "dyadic_convergence",
        "perturbation_continuity", "fernique_tail", "young_wiener_check",
        "weak_limit_fbm", "product_moment_surface_check",
        "pl_covariance_gap_check")},
    "variation_2d": {
        "_exact_sum": "exact", "_alternating_sum": "local_search",
        "_common_subdivision_sum": "common_subdivision",
        "young_integral_2d": "young", "_left_point_sum": "young",
    },
}


def _size(shape) -> int:
    return math.prod(int(s) for s in shape)


def _batch(obj) -> int:
    return _size(obj.batch_shape)


def _first(args, kwargs):
    """The call's first argument, however it was passed."""
    return args[0] if args else next(iter(kwargs.values()))


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = defaultdict(float)

    def to_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s, "counts": dict(self.counts)}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self._stack = []          # one [name, child_seconds] per open span
        self._depth = defaultdict(int)
        # paths whose pair matrix was built under a regularity span; the
        # references keep ids unique while the process runs
        self.regularity_paths = {}

    def in_layer(self, layer: str) -> bool:
        return any(f[0].startswith(layer + ".") for f in self._stack)

    def wrap(self, name: str, fn, count=None, pre=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(result, args, kwargs, pre_value)`` returns work counters for
        the span; ``pre(args, kwargs)`` is evaluated before the call.
        """
        stats, stack, depth = self.stats, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += dt
                st = stats[name]
                st.calls += 1
                st.self_s += dt - frame[1]
                if depth[name] == 0:
                    st.total_s += dt
            if count is not None:
                for key, value in count(out, args, kwargs, before).items():
                    stats[name].counts[key] += value
            return out

        return traced

    def snapshot(self) -> dict:
        return {"spans": {name: st.to_dict() for name, st in self.stats.items()},
                "regularity_paths": len(self.regularity_paths)}


# ---------------------------------------------------------------------------
# Work counters.  Each returns {counter: value} for one call.

def _tensor_mul_work(out, args, kwargs, _):
    n = _batch(out)
    d = out.dim
    coeffs = 1 + d + d * d + d ** 3
    # levels 0..3 as implemented: 1 + 3d + 5d^2 + 7d^3 multiply-adds;
    # bytes are two operands read and one result written, in float64
    return {"elements": n, "flops": n * (1 + 3 * d + 5 * d * d + 7 * d ** 3),
            "bytes_computed": n * 3 * coeffs * 8}


def _elements_out(out, args, kwargs, _):
    return {"elements": _batch(out)}


def _elements_arg(out, args, kwargs, _):
    return {"elements": _batch(_first(args, kwargs))}


def _sample_values(out, args, kwargs, _):
    return {"values": int(out.samples.size)}


def _increments(out, args, kwargs, _):
    shape = getattr(_first(args, kwargs), "shape", None)
    return {"increments": _size(shape[:-1])} if shape else {}


def _grid_entries(out, args, kwargs, _):
    return {"entries": int(out.size)}


def _exact_masks(out, args, kwargs, _):
    m = min(_first(args, kwargs).shape)
    return {"masks": 2 ** max(m - 2, 0)}


def _young_cells(out, args, kwargs, _):
    F = _first(args, kwargs)
    return {"cells": (F.shape[0] - 1) * (F.shape[1] - 1)}


def install(tracer: Tracer) -> None:
    """Wrap the package's functions in spans.  Call after importing
    ``rough_gauss.cli`` so every package module is loaded."""
    pkg = "rough_gauss"
    modules = {name[len(pkg) + 1:]: mod for name, mod in sys.modules.items()
               if name.startswith(pkg + ".") and mod is not None}
    ta = modules["tensor_algebra"]
    cm = modules["cameron_martin"]

    def pair_counts(out, args, kwargs, _):
        x = _first(args, kwargs)
        n = x.n_times
        return {"pairs": _batch(x) * n * (n - 1) // 2}

    def pair_matrix_counts(out, args, kwargs, _):
        work = pair_counts(out, args, kwargs, _)
        if tracer.in_layer("regularity"):
            x = _first(args, kwargs)
            tracer.regularity_paths[id(x)] = x
            work["regularity_pair_matrices"] = 1
        return work

    special = {
        ("tensor_algebra", "tensor_mul"): _tensor_mul_work,
        ("tensor_algebra", "exp_trunc"): _elements_out,
        ("tensor_algebra", "group_inverse"): _elements_out,
        ("tensor_algebra", "homogeneous_norm"): _elements_arg,
        ("tensor_algebra", "shuffle_residual"): _elements_arg,
        ("tensor_algebra", "hall_log_signature"): _elements_arg,
        ("simulate", "sample"): _sample_values,
        ("simulate", "lift_endpoint"): _increments,
        ("path_lift", "lift_increments"): _increments,
        ("path_lift", "_pair_matrix"): pair_matrix_counts,
        ("path_lift", "_pairwise_reduce"): pair_counts,
        ("variation_2d", "_exact_sum"): _exact_masks,
        ("variation_2d", "_left_point_sum"): _young_cells,
    }

    originals = {}
    for layer in LAYERS[1:]:
        mod = modules[layer]
        groups = GROUPS.get(layer, {})
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in groups:
                continue
            name = f"{layer}.{groups.get(attr, attr)}"
            originals[fn] = tracer.wrap(name, fn, special.get((layer, attr)))

    # _r_variation memoizes the 2D variation of R; a call that leaves the
    # cache size unchanged was served from it
    r_var = vars(cm)["_r_variation"]
    originals[r_var] = tracer.wrap(
        "cameron_martin.r_variation", r_var,
        count=lambda out, a, k, size: {"lookups": 1,
                                       "hits": int(len(cm._RVAR_CACHE) == size)},
        pre=lambda a, k: len(cm._RVAR_CACHE))
    # the CLI entry point is the root span of every traced process
    originals[modules["cli"].main] = tracer.wrap("cli.main", modules["cli"].main)

    for mod in modules.values():
        updates = {attr: originals[val] for attr, val in vars(mod).items()
                   if inspect.isfunction(val) and val in originals}
        for attr, wrapped in updates.items():
            setattr(mod, attr, wrapped)

    cli = modules["cli"]
    for exp, runner in list(cli.EXPERIMENTS.items()):
        cli.EXPERIMENTS[exp] = tracer.wrap(f"cli.experiment.{exp}", runner)

    ta.TruncatedTensor.__post_init__ = tracer.wrap(
        "tensor_algebra.validate", ta.TruncatedTensor.__post_init__)
    path_lift = modules["path_lift"]
    path_lift.GroupPath.__post_init__ = tracer.wrap(
        "path_lift.group_path", path_lift.GroupPath.__post_init__)
    cov = modules["covariance"]
    cov.CovarianceKernel.grid_eval = tracer.wrap(
        "covariance.grid_eval", cov.CovarianceKernel.grid_eval, _grid_entries)
