"""Spans around the public functions of symentropy, recorded from outside it.

:class:`Tracer` wraps every public function of the package's modules and
the ``GaussianMixture`` kernel methods, and patches each wrapper into every
module that binds the name (``from .estimators import entropy_mc`` leaves
a second reference in ``harness`` and ``cli``).  A span is
``[id, name, start, end, parent id, pass id, counts]``; counts come from the
call's arguments and result.  Spans stay in memory until the run writes
them out, and :meth:`Tracer.uninstall` restores every patched attribute.
"""

import functools
import hashlib
import importlib
import inspect
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("bases", "cli", "estimators", "fixtures", "harness", "heat_flow", "mixtures", "streams")
KERNEL_METHODS = ("log_density", "score", "sample")
# The module-level ``mixtures.sample`` only forwards to the method, and no
# src caller uses it; leaving it unwrapped keeps ``mixtures.sample`` one layer.
SKIP = {"mixtures.sample"}


# Computed floating-point operations per (point, component) pair, from the
# per-component algorithm in mixtures.GaussianMixture; not measured.
#   log_density: centre n, triangular solve n^2, squared norm 2n,
#                scale and shift 3, log-sum-exp share 3.
#   score:       the log_density terms, responsibilities 2, two triangular
#                solves 2n^2, centre n, weighted accumulate 2n.
def log_density_flops(n):
    return n * n + 3 * n + 6


def score_flops(n):
    return 3 * n * n + 6 * n + 8


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _rows(x):
    shape = np.shape(x)
    return 1 if len(shape) == 1 else int(shape[0])


def _kernel(flops):
    def count(args, kwargs, result):
        mix = args[0]
        points = _rows(_arg(args, kwargs, 1, "x"))
        pairs = points * mix.n_components
        return {"points": points, "point_components": pairs, "flops_computed": pairs * flops(mix.dim)}

    return count


def _fingerprint(law):
    digest = hashlib.sha256()
    for array in (law.weights, law.means, law.covs):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _chunks(args, kwargs, result):
    from symentropy.streams import CHUNK_SIZE

    count = int(_arg(args, kwargs, 1, "count"))
    return {"chunks": math.ceil(count / int(_arg(args, kwargs, 3, "chunk_size", CHUNK_SIZE)))}


COUNTERS = {
    "mixtures.log_density": _kernel(log_density_flops),
    "mixtures.score": _kernel(score_flops),
    "mixtures.sample": lambda a, k, r: {"points": int(_arg(a, k, 1, "count"))},
    "mixtures.push_forward_linear": lambda a, k, r: {
        "components_in": a[0].n_components,
        "components_out": r.n_components,
    },
    "mixtures.check_symmetry": lambda a, k, r: {
        "points": int(_arg(a, k, 1, "probes", 32)) * 2 ** a[0].dim
    },
    "estimators.entropy_mc": lambda a, k, r: {
        "samples": int(_arg(a, k, 1, "count")),
        "key": (_fingerprint(a[0]), int(_arg(a, k, 1, "count")), int(_arg(a, k, 2, "seed"))),
    },
    "estimators.fisher_mc": lambda a, k, r: {"samples": int(_arg(a, k, 1, "count"))},
    "estimators.entropy_quadrature_1d": lambda a, k, r: {"nodes": r.count},
    "estimators.entropy_knn": lambda a, k, r: {"samples": _rows(_arg(a, k, 0, "samples"))},
    "heat_flow.entropy_via_debruijn": lambda a, k, r: {"reported": r.count},
    "streams.mc_mean": _chunks,
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.names = set()  # every span name the wrappers can record
        self.pass_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def install(self):
        package = importlib.import_module("symentropy")
        modules = {name: importlib.import_module(f"symentropy.{name}") for name in MODULES}
        owners = [package, *modules.values()]
        for short, module in modules.items():
            public = [
                (attr, fn)
                for attr, fn in vars(module).items()
                if not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and f"{short}.{attr}" not in SKIP
            ]
            for attr, fn in public:
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for owner in owners:
                    if getattr(owner, attr, None) is fn:
                        self._patch(owner, attr, wrapper)
        mixture = modules["mixtures"].GaussianMixture
        for attr in KERNEL_METHODS:
            self._patch(mixture, attr, self._wrap(f"mixtures.{attr}", vars(mixture)[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        self.names.add(name)
        counter = COUNTERS.get(name)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [next(ids), name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id, None]
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced


def _self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {s[0]: s[3] - s[2] - child[s[0]] for s in spans}


def pass_layers(spans):
    """Per-layer figures of one pass: ``name.calls``, ``name.self_s`` and counts."""
    self_s = _self_times(spans)
    by_id = {s[0]: s for s in spans}
    out = defaultdict(float)
    keys = []
    fisher_calls = fisher_samples = 0
    for span in spans:
        span_id, name, _, _, parent, _, counts = span
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s[span_id]
        for key, value in (counts or {}).items():
            if key == "key":
                keys.append(value)
            else:
                out[f"{name}.{key}"] += value
        if name == "estimators.fisher_mc":
            while parent is not None and by_id[parent][1] != "heat_flow.entropy_via_debruijn":
                parent = by_id[parent][4]
            if parent is not None:
                fisher_calls += 1
                fisher_samples += counts["samples"] if counts else 0
    out["trace.self_total_s"] = sum(self_s.values())
    out["trace.spans"] = len(spans)

    def ratio(num, den):
        return num / den if den else 0.0

    for kernel in ("mixtures.log_density", "mixtures.score"):
        out[f"{kernel}.ns_per_point_component"] = ratio(
            1e9 * out[f"{kernel}.self_s"], out[f"{kernel}.point_components"]
        )
    push = "mixtures.push_forward_linear"
    out[f"{push}.component_ratio"] = ratio(out[f"{push}.components_out"], out[f"{push}.components_in"])
    out["estimators.entropy_mc.repeat_ratio"] = ratio(len(keys) - len(set(keys)), len(keys))
    debruijn = "heat_flow.entropy_via_debruijn"
    out[f"{debruijn}.fisher_calls"] = fisher_calls
    out[f"{debruijn}.sample_yield"] = ratio(out[f"{debruijn}.reported"], fisher_samples)
    return out


def layer_metrics(spans):
    """Median over traced passes of each per-pass layer figure."""
    passes = defaultdict(list)
    for span in spans:
        passes[span[5]].append(span)
    per_pass = [pass_layers(group) for group in passes.values()]
    names = set().union(*per_pass)
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names}
