"""Spans and work counters for the traced benchmark run.

The library carries no instrumentation of its own, so the tracer replaces
public functions of modunits with timing wrappers at the places where their
callers look them up (``modunits.theorem.enumerate_units``,
``modunits.units.batch_invertible_mask``, ...).  Each call records one span
(id, parent id, name, start, end) in memory; a site may also add work
counters.  ``close`` puts every original attribute back.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict

import numpy as np
from modunits.errors import EngelInconclusive


def _resolve(path: str):
    """A module, or a class inside a module, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


# counter hooks: (counters, args, kwargs, result, exc, duration) -> None;
# result is None when the call raised exc

def _count_mask(c, args, kwargs, result, exc, duration):
    mats, p = args[0], args[1]
    shape = f"p{p}_n{mats.shape[1]}"
    c["batch_invertible_mask.candidates"] += mats.shape[0]
    c[f"batch_invertible_mask.candidates.{shape}"] += mats.shape[0]
    c["batch_invertible_mask.input_bytes"] += mats.nbytes  # computed, not measured
    c[f"batch_invertible_mask.time_s.{shape}"] += duration
    if result is not None:
        c["batch_invertible_mask.kept"] += int(np.count_nonzero(result))


def _count_len(key):
    def hook(c, args, kwargs, result, exc, duration):
        if result is not None:
            c[key] += len(result)
    return hook


def _count_members(c, args, kwargs, result, exc, duration):
    c["verify_closure.members"] += len(args[0])


def _count_cells(c, args, kwargs, result, exc, duration):
    if result is not None:
        c["as_abstract_group.cells"] += result.order * result.order


def _count_found(c, args, kwargs, result, exc, duration):
    if result is not None:
        c["find_non_engel_pair.found"] += 1


def _count_engel(c, args, kwargs, result, exc, duration):
    if result is not None:
        c["engel_test.steps"] += result.steps
    elif isinstance(exc, EngelInconclusive):
        c["engel_test.inconclusive"] += 1
        # an inconclusive test ran n_max steps; 256 is engel_test's default
        c["engel_test.steps"] += kwargs.get("n_max", args[2] if len(args) > 2 else 256)


def _count_non_units(c, args, kwargs, result, exc, duration):
    if exc is None and result is None:
        c["try_inverse.non_units"] += 1


# (span name, layer, attribute, owners where callers look the attribute up, hook)
SITES = (
    ("batch_invertible_mask", "_gflinalg", "batch_invertible_mask",
     ("modunits.units",), _count_mask),
    ("enumerate_units", "units", "enumerate_units",
     ("modunits.theorem", "modunits"), _count_len("enumerate_units.units_kept")),
    ("verify_closure", "units", "verify_closure",
     ("modunits.units.UnitGroup",), _count_members),
    ("filter_unitary", "units", "filter_unitary",
     ("modunits.theorem", "modunits"), _count_len("filter_unitary.kept")),
    ("as_abstract_group", "units", "as_abstract_group",
     ("modunits.theorem",), _count_cells),
    ("find_non_engel_pair", "units", "find_non_engel_pair",
     ("modunits.theorem",), _count_found),
    ("engel_test", "units", "engel_test", ("modunits.units",), _count_engel),
    ("closure_subgroup", "units", "closure_subgroup", ("modunits.theorem",), None),
    ("nilpotency_class", "groups", "nilpotency_class", ("modunits.groups",), None),
    ("lower_central_series", "groups", "lower_central_series",
     ("modunits.groups",), _count_len("lower_central_series.terms")),
    ("AlgebraElement.__mul__", "algebra", "__mul__",
     ("modunits.algebra.AlgebraElement",), None),
    ("try_inverse", "algebra", "try_inverse",
     ("modunits.algebra.AlgebraElement",), _count_non_units),
    ("verify_equivalence", "theorem", "verify_equivalence", ("modunits.report",), None),
    ("group_criterion", "theorem", "group_criterion", ("modunits.theorem",), None),
    ("witness_skew", "theorem", "witness_skew",
     ("modunits.report", "modunits.theorem"), None),
    ("witness_char2", "theorem", "witness_char2", ("modunits.report",), None),
    ("witness_dihedral", "theorem", "witness_dihedral", ("modunits.report",), None),
    ("centralizer_power_property", "theorem", "centralizer_power_property",
     ("modunits.report",), None),
    ("verify_engel_expansion", "theorem", "verify_engel_expansion",
     ("modunits.report",), None),
    ("emit_report", "report", "emit_report", ("modunits",), _count_len("emit_report.bytes")),
    ("build_group", "catalog", "build_group", ("modunits.report", "modunits"), None),
)

LAYER_OF = {name: layer for name, layer, *_ in SITES}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Installs the wrappers in SITES; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, _, attr, owners, hook in SITES:
                targets = [_resolve(path) for path in owners]
                original = getattr(targets[0], attr)
                for target in targets:
                    if getattr(target, attr) is not original:
                        raise RuntimeError(f"{attr} differs between {owners}")
                wrapper = self._wrap(name, original, hook)
                for target in targets:
                    setattr(target, attr, wrapper)
                    self._patched.append((target, attr, original))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
                if hook is not None:
                    hook(counters, args, kwargs, result, exc, end - start)

        return traced

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, time_s (inclusive), self_s, top_s (time of top-level spans)."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "top_s": 0.0}
                 for name in LAYER_OF}
        for sid, parent, name, start, end in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["time_s"] += end - start
            s["self_s"] += end - start - child_time[sid]
            if parent < 0:
                s["top_s"] += end - start
        return stats


def layer_metrics(stats: dict, c: dict, traced_wall: float, untraced_wall: float,
                  timings_s: list[float]) -> dict:
    """Every per-layer number of a traced pass, keyed by metric name.

    ``stats`` and ``c`` are the tracer's span statistics and counters;
    ``timings_s`` is the pass's ``report.timings_s`` (empty for a scan).
    """
    m = {}
    for name, s in stats.items():
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.time_s"] = s["time_s"]
        m[f"{name}.self_s"] = s["self_s"]
    for key in ("candidates", "kept"):
        m[f"batch_invertible_mask.{key}"] = c[f"batch_invertible_mask.{key}"]
    for shape in ("p2_n20", "p3_n12"):
        busy = c[f"batch_invertible_mask.time_s.{shape}"]
        m[f"batch_invertible_mask.candidates_per_s.{shape}"] = (
            c[f"batch_invertible_mask.candidates.{shape}"] / busy if busy else 0.0)
    candidates = c["batch_invertible_mask.candidates"]
    m["batch_invertible_mask.yield"] = (
        c["batch_invertible_mask.kept"] / candidates if candidates else 0.0)
    for key in ("enumerate_units.units_kept", "verify_closure.members", "filter_unitary.kept",
                "as_abstract_group.cells", "find_non_engel_pair.found", "engel_test.steps",
                "engel_test.inconclusive", "lower_central_series.terms",
                "try_inverse.non_units", "emit_report.bytes"):
        m[key] = c[key]
    entry_s = sum(timings_s)
    witness_s = sum(stats[f"witness_{case}"]["top_s"] for case in ("skew", "char2", "dihedral"))
    m["entry.time_s"] = entry_s
    m["property_suite.self_s"] = (
        entry_s - stats["verify_equivalence"]["top_s"] - witness_s if entry_s else 0.0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(s["self_s"] for name, s in stats.items()
                                         if LAYER_OF[name] == layer)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.uncovered_s"] = traced_wall - sum(s["top_s"] for s in stats.values())
    return m
