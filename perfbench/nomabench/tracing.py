"""Span recording around the library's public functions.

The tracer replaces module attributes at the sites where the library looks
them up (for example `nomacell.outage.invert_2d`, which the outage
operators resolve at call time), so no library code changes.  Spans are
kept in memory as flat records and written out once, after the run.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# `near_outage_average` is left out: no workload op calls it (see the
# README's correctness section).
_OUTAGE_OPS = ("far_outage_conditional", "far_outage_average",
               "near_outage_conditional_exact", "near_outage_conditional_approx",
               "single_stream_outage_conditional")
_MC_OPS = ("estimate_outage", "estimate_goodput")


def _transform_points(result):
    return int(np.size(result))


def _degraded(result):
    return bool(isinstance(result, tuple) and result[1])


def _flagged(result):
    return result.flag is not None


def _mc_trials(result):
    return result.n if hasattr(result, "n") else result.far.n


# (module, attribute, span name, attribute extractor).  Library-internal
# sites come first; the public entry points are patched on the package,
# where the workloads look them up.
SITES = (
    ("nomacell.outage", "invert_1d", "laplace.invert_1d", None),
    ("nomacell.outage", "invert_2d", "laplace.invert_2d", None),
    ("nomacell.laplace", "epsilon_accelerate", "laplace.epsilon_accelerate",
     _degraded),
    ("nomacell.outage", "policy_laplace_factor",
     "geometry.policy_laplace_factor", None),
    ("nomacell.montecarlo", "sample_error_matrix", "model.sample_error_matrix",
     None),
    ("nomacell.scenario", "build_precoder", "design.build_precoder", None),
    ("nomacell.scenario", "effective_channel", "outage.effective_channel", None),
    ("nomacell.design", "alignment_nullspace", "design.alignment_nullspace",
     None),
    ("nomacell.design", "maximize_goodput", "design.maximize_goodput", None),
    *(("nomacell.design", op, f"outage.{op}", _flagged)
      for op in ("far_outage_conditional", "near_outage_conditional_exact",
                 "near_outage_conditional_approx",
                 "single_stream_outage_conditional")),
    *(("nomacell", op, f"outage.{op}", _flagged) for op in _OUTAGE_OPS),
    ("nomacell", "optimize_chernoff_far", "asymptotic.optimize_chernoff", None),
    ("nomacell", "optimize_chernoff_near", "asymptotic.optimize_chernoff", None),
    ("nomacell", "maximize_goodput", "design.maximize_goodput", None),
    ("nomacell", "baseline_goodput", "design.baseline_goodput", None),
    ("nomacell", "build_scenario", "scenario.build_scenario", None),
    *(("nomacell", op, f"montecarlo.{op}", _mc_trials) for op in _MC_OPS),
)

_INVERSIONS = ("laplace.invert_1d", "laplace.invert_2d")

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("laplace.epsilon_accelerate.calls", "count"),
    ("laplace.epsilon_accelerate.self_s", "s"),
    ("laplace.epsilon_accelerate.degraded_ratio", "1"),
    ("laplace.invert_2d.calls", "count"),
    ("laplace.invert_2d.self_s", "s"),
    ("laplace.invert_2d.transform_s", "s"),
    ("laplace.invert_2d.transform_points", "count"),
    ("laplace.invert_1d.calls", "count"),
    ("laplace.invert_1d.self_s", "s"),
    ("laplace.invert_1d.transform_s", "s"),
    ("geometry.policy_laplace_factor.calls", "count"),
    ("geometry.policy_laplace_factor.self_s", "s"),
    *((f"outage.{op}.{field}", unit)
      for op in (*_OUTAGE_OPS, "effective_channel")
      for field, unit in (("calls", "count"), ("self_s", "s"))),
    ("outage.near_exact.inverted_ratio", "1"),
    ("outage.flagged_ratio", "1"),
    ("asymptotic.optimize_chernoff.calls", "count"),
    ("asymptotic.optimize_chernoff.self_s", "s"),
    ("design.maximize_goodput.calls", "count"),
    ("design.maximize_goodput.self_s", "s"),
    ("design.maximize_goodput.outage_evals", "count"),
    ("design.baseline_goodput.calls", "count"),
    ("design.baseline_goodput.self_s", "s"),
    ("design.build_precoder.calls", "count"),
    ("design.build_precoder.self_s", "s"),
    ("design.alignment_nullspace.calls", "count"),
    ("scenario.build_scenario.calls", "count"),
    ("scenario.build_scenario.self_s", "s"),
    ("montecarlo.estimate_outage.calls", "count"),
    ("montecarlo.estimate_outage.self_s", "s"),
    ("montecarlo.estimate_goodput.calls", "count"),
    ("montecarlo.estimate_goodput.self_s", "s"),
    ("montecarlo.trials_per_s", "1/s"),
    ("model.sample_error_matrix.calls", "count"),
    ("model.sample_error_matrix.self_s", "s"),
    ("trace.ops", "count"),
    ("trace.overhead_ratio", "1"),
)


class Tracer:
    """Collects spans as [name, start, end, parent index, attribute] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, extract=None):
        """Return `fn` recording one span per call; `extract(result)`
        supplies the span's attribute."""
        is_inversion = name in _INVERSIONS

        def traced(*args, **kwargs):
            if is_inversion:
                args = (self.wrap(args[0], f"{name}.transform",
                                  _transform_points),) + args[1:]
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, None]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                record[4] = extract(result)
            return result

        return traced

    @contextmanager
    def installed(self, sites=SITES):
        """Patch every site for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, extract in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, extract))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attr) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0,
                                     "attr": attr}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, ops: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of one traced replay, keyed by PER_LAYER name."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    attr_sum = defaultdict(float)
    child_calls = defaultdict(int)  # (parent name, child name) -> count
    for (name, start, end, parent, attr), st in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += st
        total_s[name] += end - start
        if attr is not None:
            attr_sum[name] += float(attr)
        if parent >= 0:
            child_calls[(spans[parent][0], name)] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    outage_names = [f"outage.{op}" for op in _OUTAGE_OPS]
    mc_names = [f"montecarlo.{op}" for op in _MC_OPS]
    values = {
        "laplace.epsilon_accelerate.degraded_ratio": ratio(
            attr_sum["laplace.epsilon_accelerate"],
            calls["laplace.epsilon_accelerate"]),
        "laplace.invert_2d.transform_s": total_s["laplace.invert_2d.transform"],
        "laplace.invert_2d.transform_points":
            attr_sum["laplace.invert_2d.transform"],
        "laplace.invert_1d.transform_s": total_s["laplace.invert_1d.transform"],
        "outage.near_exact.inverted_ratio": ratio(
            child_calls[("outage.near_outage_conditional_exact",
                         "laplace.invert_2d")],
            calls["outage.near_outage_conditional_exact"]),
        "outage.flagged_ratio": ratio(sum(attr_sum[n] for n in outage_names),
                                      sum(calls[n] for n in outage_names)),
        "design.maximize_goodput.outage_evals": sum(
            child_calls[("design.maximize_goodput", n)] for n in outage_names),
        "montecarlo.trials_per_s": ratio(sum(attr_sum[n] for n in mc_names),
                                         sum(total_s[n] for n in mc_names)),
        "trace.ops": ops,
        "trace.overhead_ratio": ratio(traced_s - untraced_s, untraced_s),
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in values:
            value = values[metric]
        elif metric.endswith(".calls"):
            value = calls[metric[:-len(".calls")]]
        elif metric.endswith(".self_s"):
            value = self_s[metric[:-len(".self_s")]]
        else:
            raise KeyError(f"no rule for per-layer metric {metric}")
        out[metric] = (float(value), unit)
    return out


def self_time_shares(spans, wall_s: float) -> list[tuple[str, float, float]]:
    """(span name, self seconds, share of wall time), largest first."""
    totals = defaultdict(float)
    for (name, *_), st in zip(spans, self_times(spans)):
        totals[name] += st
    rows = [(name, s, s / wall_s if wall_s else 0.0) for name, s in totals.items()]
    return sorted(rows, key=lambda r: -r[1])
