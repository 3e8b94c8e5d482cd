"""Tests of the benchmark harness itself (inputs, failure counting, spans,
metric names).  Run from the repository root with `src` on PYTHONPATH:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
import json
import math
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

from nomabench import clock, harness, tracing  # noqa: E402
from nomabench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _inputs(workload, seed, rounds=3):
    return list(islice(workload.inputs(seed), rounds * workload.round_size))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    first = _inputs(workload, 7)
    assert first == _inputs(workload, 7)
    assert first != _inputs(workload, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_holds_the_same_strata(name):
    workload = WORKLOADS[name]
    inputs = _inputs(workload, 3, rounds=4)
    n = workload.round_size

    def stratum(spec):
        if name == "cond_sweep":
            return spec.axis, spec.lambda_b
        if name == "avg_sweep":
            return (spec.policy, spec.interference_limited,
                    None if spec.interference_limited
                    else math.floor(math.log10(spec.lambda_b)))
        if name == "mc_network":
            return spec.kind, spec.exclusion, spec.lambda_b
        return spec.scheme

    rounds = [sorted(map(stratum, inputs[i:i + n]), key=repr)
              for i in range(0, len(inputs), n)]
    assert all(r == rounds[0] for r in rounds)


def test_goodput_rounds_pair_both_links_of_each_point():
    workload = WORKLOADS["goodput_opt"]
    inputs = _inputs(workload, 5, rounds=2)
    for i in range(0, len(inputs), workload.round_size):
        points = {}
        for spec in inputs[i:i + workload.round_size]:
            points.setdefault(spec.k_factor_db, set()).add(spec.scheme)
        assert list(points.values()) == [{"aligned", "plain"}]


class _Fake:
    """Workload stand-in whose op result is chosen by the spec."""

    round_size = 1
    min_ops = 3

    def run(self, ctx, spec):
        if spec == "raise":
            raise ValueError("boom")
        return {"p": {"nan": math.nan, "inf": math.inf}.get(spec, 0.5)}, None


def test_raising_or_nonfinite_op_counts_as_failed():
    records = [harness.run_op(_Fake(), None, s)
               for s in ("ok", "raise", "nan", "inf", "ok")]
    assert [r.error is None for r in records] == [True, False, False, False, True]
    assert "ValueError" in records[1].error
    # A gate failure on a finite op counts too, and no op is counted twice.
    assert harness.failed_indices(records, {1: "gate", 4: "gate"}) == [1, 2, 3, 4]


def test_timed_loop_runs_at_least_min_ops_in_whole_rounds():
    records, elapsed = harness.timed_loop(_Fake(), None, iter(["ok"] * 10), 0.0)
    assert len(records) == 3 and elapsed >= 0.0


def test_min_ops_leaves_ten_samples_beyond_the_tail_percentile():
    for name, workload in WORKLOADS.items():
        n = workload.min_ops
        assert n % workload.round_size == 0
        if name != "goodput_opt":  # one round of two slow ops, documented
            assert n - math.ceil(n * workload.tail_percentile / 100.0) >= 10


def test_end_to_end_throughput_is_ops_per_second_of_op_time():
    m = harness.end_to_end([0.1, 0.2, 0.3, 0.4], 1.5, 50.0, 75.0)
    assert m["ops_per_s"][0] == pytest.approx(4.0)
    assert m["op_p50_ms"][0] == pytest.approx(250.0)
    assert m["op_tail_ms"][0] == pytest.approx(325.0)


def test_reference_clock_scales_by_the_kernel_time_around_an_interval():
    clk = clock.ReferenceClock()
    clk.starts = [0.1 * i for i in range(100)]                 # 0 .. 9.9 s
    clk.durations = [2e-3 if t < 5.0 else 1e-3 for t in clk.starts]
    ref = clock.REF_KERNEL_S
    assert clk.scale(1.0, 4.0) == pytest.approx(ref / 2e-3)
    assert clk.scale(6.0, 9.0) == pytest.approx(ref / 1e-3)
    # A short interval takes the samples of a window around its midpoint.
    assert clk.scale(2.0, 2.01) == pytest.approx(ref / 2e-3)
    assert clk.scale(20.0, 20.01) == pytest.approx(ref / 1.5e-3)


def test_reference_clock_samples_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clk = clock.ReferenceClock()
    clk.start()
    try:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    finally:
        clk.stop()
    assert len(clk.durations) >= 1 and clk.spent >= sum(clk.durations)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_op_leaves_out_the_clock_handler_time():
    class Clock:
        spent = 0.0

    class Slow(_Fake):
        def run(self, ctx, spec):
            Clock.spent += 10.0     # as if a handler had run for 10 s
            return super().run(ctx, spec)

    record = harness.run_op(Slow(), None, "ok", Clock)
    assert record.latency_s == pytest.approx(-10.0, abs=0.5)
    assert record.end >= record.start


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],     # child of root
        ["b", 3.0, 6.0, 0, None],     # overlaps a: root covered 1..6 once
        ["a.x", 1.5, 2.5, 1, None],   # grandchild
        ["c", 9.0, 12.0, 0, None],    # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_from_spans():
    spans = [
        ["outage.near_outage_conditional_exact", 0.0, 4.0, -1, True],
        ["laplace.invert_2d", 1.0, 3.0, 0, None],
        ["laplace.invert_2d.transform", 1.0, 1.5, 1, 100],
        ["laplace.epsilon_accelerate", 2.0, 2.5, 1, True],
        ["laplace.epsilon_accelerate", 2.5, 3.0, 1, False],
        ["outage.near_outage_conditional_exact", 5.0, 6.0, -1, False],
    ]
    m = {k: v for k, (v, _) in
         tracing.layer_metrics(spans, ops=2, untraced_s=5.0, traced_s=5.5).items()}
    assert m["laplace.invert_2d.calls"] == 1
    assert m["laplace.invert_2d.self_s"] == pytest.approx(0.5)
    assert m["laplace.invert_2d.transform_s"] == pytest.approx(0.5)
    assert m["laplace.invert_2d.transform_points"] == 100
    assert m["laplace.epsilon_accelerate.degraded_ratio"] == pytest.approx(0.5)
    assert m["outage.near_outage_conditional_exact.self_s"] == pytest.approx(3.0)
    assert m["outage.near_exact.inverted_ratio"] == pytest.approx(0.5)
    assert m["outage.flagged_ratio"] == pytest.approx(0.5)
    assert m["trace.overhead_ratio"] == pytest.approx(0.1)


def test_tracer_records_nested_library_spans_and_restores_sites():
    import nomacell
    from nomacell import NetworkParams, PairConfig

    params = NetworkParams()
    original = nomacell.outage.invert_1d
    sc = nomacell.build_scenario(params, PairConfig(), seed=20240717)
    link = sc.link(1)
    tracer = tracing.Tracer()
    with tracer.installed():
        nomacell.far_outage_conditional(link.eff_far, link.pair, params)
    assert nomacell.outage.invert_1d is original
    names = [s[0] for s in tracer.spans]
    assert names == ["outage.far_outage_conditional", "laplace.invert_1d",
                     "laplace.invert_1d.transform"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[2][4] == 27  # Q + M + 1 contour points


def test_printed_metric_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert e2e == list(harness.END_TO_END)
    printed = harness.end_to_end([0.01 * (i + 1) for i in range(20)], 0.5,
                                 100.0, 90.0)
    assert [(k, u) for k, (_, u) in printed.items()] == e2e

    layers = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert layers == list(tracing.PER_LAYER)
    printed = tracing.layer_metrics([], ops=1, untraced_s=1.0, traced_s=1.0)
    assert [(k, u) for k, (_, u) in printed.items()] == layers


def test_inversion_gate_flags_range_drift_and_raising_reevaluation():
    from nomabench import workloads

    def rec(far):
        return harness.OpRecord(None, 0.0, {"far": far}, None, None)

    records = [rec(0.5), rec(-2e-4), rec(0.3), rec(0.7)]

    def alt(record):
        far = record.values["far"]
        if far == 0.7:
            raise FloatingPointError("non-finite transform")
        return {"far": far + (1e-3 if far == 0.3 else 1e-5)}

    bad = workloads._check_inversions(records, None, ("far",), 10, alt)
    assert sorted(bad) == [1, 2, 3]
    assert "outside" in bad[1] and "moves by" in bad[2]
    assert "FloatingPointError" in bad[3]


def test_mc_gate_uses_the_standard_error_at_the_analytic_value(monkeypatch):
    from nomacell import McEstimate
    from nomabench.workloads import McNetwork, McPoint

    workload = McNetwork()
    monkeypatch.setattr(workload, "_scenario", lambda ctx, p: None)
    monkeypatch.setattr(McNetwork, "analytic", staticmethod(
        lambda sc, mode: {"far": 1e-3, "near": 0.2, "goodput": 1.0}))

    def rec(far_hat, near_hat, exclusion="none"):
        spec = McPoint("outage", "conditional", exclusion, 1e-5, 1.0, 0.5, 1)
        state = {"far": McEstimate.from_count(round(far_hat * 2000), 2000, 1),
                 "near": McEstimate.from_count(round(near_hat * 2000), 2000, 1)}
        return harness.OpRecord(spec, 0.0, {}, state, None)

    records = [
        rec(0.0, 0.2),               # no far outage seen: its own error is 0
        rec(1e-3, 0.26),             # near 6.7 stderr above the analytic value
        rec(1e-3, 0.10, "serving"),  # serving exclusion may only lower outage
        rec(1e-3, 0.26, "serving"),
    ]
    bad = workload.check(None, records, None)
    assert sorted(bad) == [1, 3]


def test_cond_sweep_settings_pass_the_gate_where_the_defaults_miss():
    # Ops 63 and 254 of this seed: with the default 1D Euler orders the far
    # outage came out at -7.8e-4 and 9.7e-4, where the Chernoff bound is
    # below 1e-13.
    from nomabench.workloads import CondSweep

    workload = CondSweep()
    seed = 409560124
    ctx = workload.setup(seed)
    specs = list(islice(workload.inputs(seed), 255))
    records = [harness.run_op(workload, ctx, specs[i]) for i in (63, 254)]
    assert all(r.error is None for r in records)
    assert workload.check(ctx, records, np.random.default_rng(0)) == {}


def test_mc_window_holds_enough_stations_in_the_average_modes():
    from nomabench.workloads import McNetwork, McPoint

    def window(mode, lam):
        return McNetwork.window(McPoint("outage", mode, "none", lam, 1.0, 0.5, 1))

    assert window("conditional", 1e-7) == 5000.0
    assert window("average-random", 1e-5) == window("average-distance", 1e-4) == 5000.0
    assert window("average-distance", 1e-7) == pytest.approx(19_947.0, abs=1.0)
