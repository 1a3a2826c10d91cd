"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``qfidet`` modules from outside the
program: each listed function is replaced, in every loaded ``qfidet`` module
that holds it by name, with a wrapper that records one span per call.  Spans
stay in memory (one tuple each) while a campaign runs; the harness drains
them after each traced campaign, outside its timed region.

A span is ``(name, start, end, parent, instance, bucket)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``instance`` the derived seed
of the instance being verified (the seed passed to ``prepare_random``), and
``bucket`` a size label (``n4``, ``N6``) for the functions whose cost depends
on the matrix size.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import time
from collections import defaultdict

# module -> public functions wrapped in the traced run
TRACED = {
    "linalg": ("hermitian_eigen", "det_real_symmetric", "det_antisymmetric", "numeric_rank"),
    "monotone": ("dominates", "mean", "parse_function_spec"),
    "states": (
        "random_density",
        "random_observable",
        "density",
        "eigenframe",
        "offdiagonal_dependence",
        "pinching",
        "random_partition",
        "derive_seed",
    ),
    "covariance": ("cov_matrix_frame", "qov_matrix_frame", "metric_inner"),
    "inequalities": (
        "prepare_random",
        "check_main",
        "check_conj1",
        "check_conj2",
        "check_firey",
        "check_robertson",
        "classify_equality",
        "check_metric_contraction",
    ),
    "campaign": ("run_campaign", "emit_report"),
}

# size buckets reported for the size-dependent linear algebra
EIGEN_SIZES = (2, 3, 4, 6, 8)
DET_SIZES = (1, 2, 3, 4, 6)


def _size(args, kwargs, name):
    return len(args[0] if args else kwargs[name])


# qualname -> function of the call's arguments giving its size bucket
BUCKETS = {
    "linalg.hermitian_eigen": lambda args, kwargs: f"n{_size(args, kwargs, 'h')}",
    "linalg.det_real_symmetric": lambda args, kwargs: f"N{_size(args, kwargs, 'm')}",
}


class Tracer:
    """Patches the traced functions while active and records their spans."""

    def __init__(self):
        self.spans: list = []
        self.instance = None
        self.firey_interior = 0
        self.dominance_pairs: set = set()
        self._stack: list[int] = []
        self._patched: list = []
        self.sites: set[str] = set()  # ``module.attr`` names replaced, e.g. ``campaign.check_firey``

    def _wrap(self, qualname: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        bucket_of = BUCKETS.get(qualname)
        is_campaign = qualname.startswith("campaign.")
        is_prepare = qualname == "inequalities.prepare_random"
        is_firey = qualname == "inequalities.check_firey"
        is_dominates = qualname == "monotone.dominates"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_campaign:
                self.instance = None
            elif is_prepare:
                self.instance = args[2] if len(args) > 2 else kwargs["seed"]
            elif is_firey:
                t = args[2] if len(args) > 2 else kwargs["t"]
                self.firey_interior += 0.0 < t < 1.0
            elif is_dominates:
                f = args[0] if args else kwargs["f"]
                g = args[1] if len(args) > 1 else kwargs["g"]
                self.dominance_pairs.add((f.label, f.params, g.label, g.params))
            instance = self.instance
            bucket = bucket_of(args, kwargs) if bucket_of else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (qualname, start, end, parent, instance, bucket)

        return traced

    def __enter__(self):
        package = importlib.import_module("qfidet")
        modules = [
            importlib.import_module(f"qfidet.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        for module_name, names in TRACED.items():
            home = sys.modules[f"qfidet.{module_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patched.append((module, attr, original))
                            self.sites.add(f"{module.__name__.removeprefix('qfidet.')}.{attr}")
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def drain(self) -> list:
        """Hand over the spans recorded so far and reset the span list and counters."""
        spans = self.spans[:]
        self.spans.clear()
        self.firey_interior = 0
        self.dominance_pairs = set()
        return spans


SPAN_HEADER = "campaign,span,name,bucket,start_s,end_s,parent,instance\n"


def write_spans(out, spans, campaign: int) -> None:
    """Append one campaign's spans as CSV rows, times relative to its first span."""
    base = spans[0][1] if spans else 0.0
    for i, (name, start, end, parent, inst, bucket) in enumerate(spans):
        out.write(f"{campaign},{i},{name},{bucket or ''},{start - base:.9f},{end - base:.9f},{parent},{inst}\n")


def self_times(spans) -> dict:
    """Per-function and per-bucket ``{"calls": int, "self_s": float}`` from a span list."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, (name, start, end, _, _, bucket) in enumerate(spans):
        own = end - start - child[i]
        for key in (name, f"{name}.{bucket}") if bucket else (name,):
            stats[key]["calls"] += 1
            stats[key]["self_s"] += own
    return stats


def instance_ms(spans) -> list[float]:
    """Wall time per instance: from its ``prepare_random`` start to its last span's end."""
    first: dict = {}
    last: dict = {}
    for name, start, end, _, inst, _ in spans:
        if inst is None:
            continue
        if name == "inequalities.prepare_random" and inst not in first:
            first[inst] = start
        last[inst] = max(last.get(inst, end), end)
    return [1e3 * (last[i] - first[i]) for i in first]


def percentile(values, q: float) -> float:
    """Inclusive percentile q in (0, 100) as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]
