"""The observability layer: tracer, metrics, export, provenance, CLI.

Covers the obs package contracts PR 3 is built on:

* ring-buffer eviction and exact counts under sampling;
* span nesting depths and the disabled no-op path;
* deterministic (order-independent) histogram/snapshot merges;
* the ``gated`` perf-counter helper;
* JSONL schema validation and the Chrome ``trace_event`` envelope;
* provenance chains naming the causing instruction and the SMT verdicts
  for every annotation/error of the seeded-failure binaries;
* the ``python -m repro trace`` verb in all three formats.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.corpus.failures import ALL_FAILURES, buffer_overflow
from repro.elf import BinaryBuilder, save_binary
from repro.hoare import lift
from repro.obs.export import (
    chrome_trace_json,
    events_jsonl,
    to_chrome_trace,
    validate_event_obj,
    validate_jsonl,
)
from repro.obs.metrics import (
    Histogram,
    Metrics,
    canonical_snapshot,
    merge_snapshots,
    percentile,
    percentiles,
)
from repro.obs.report import merge_rollup, render_obs_rollup, task_obs_data
from repro.obs.tracer import Event, Tracer
from repro.perf.counters import counters, gated


@pytest.fixture(autouse=True)
def _obs_off_after():
    """Every test leaves the process-global obs layer off and empty."""
    yield
    obs.disable()
    obs.reset()


# -- tracer ----------------------------------------------------------------

def test_disabled_tracer_span_is_the_shared_noop():
    tracer = Tracer()
    span = tracer.span("work", n=1)
    with span:
        pass
    assert tracer.events() == []
    assert tracer.counts == {}
    # The very same object every time: zero allocation when disabled.
    assert tracer.span("other") is span


def test_span_nesting_records_depths_and_durations():
    tracer = Tracer()
    tracer.configure(enabled=True)
    with tracer.span("outer", binary="b"):
        with tracer.span("inner"):
            pass
    spans = [event for event in tracer.events() if event.kind == "span"]
    assert [s.detail["name"] for s in spans] == ["inner", "outer"]
    assert spans[0].detail["depth"] == 1
    assert spans[1].detail["depth"] == 0
    assert spans[1].detail["binary"] == "b"
    assert all(s.detail["dur"] >= 0.0 for s in spans)


def test_ring_buffer_evicts_oldest_but_counts_exactly():
    tracer = Tracer(capacity=4)
    tracer.configure(enabled=True)
    for n in range(10):
        tracer.emit("tick", n, seq=n)
    assert len(tracer) == 4
    assert [event.detail["seq"] for event in tracer.events()] == [6, 7, 8, 9]
    assert tracer.counts == {"tick": 10}
    assert tracer.tail(2)[-1].detail["seq"] == 9
    assert tracer.capacity == 4


def test_sampling_records_one_in_n_but_counts_all():
    tracer = Tracer()
    tracer.configure(enabled=True, sampling=4)
    for n in range(10):
        tracer.emit_sampled("hot", n, seq=n)
    recorded = [event.detail["seq"] for event in tracer.events()]
    assert recorded == [0, 4, 8]
    assert tracer.counts == {"hot": 10}
    # reset clears the per-kind sample phase: the next stream samples
    # identically (the determinism contract the corpus runner relies on).
    tracer.reset()
    for n in range(10):
        tracer.emit_sampled("hot", n, seq=n)
    assert [event.detail["seq"] for event in tracer.events()] == recorded


def test_sample_record_pair_matches_emit_sampled():
    """``sample()`` + ``record()`` (the allocation-free split used on the
    SMT cached-query path) behaves exactly like ``emit_sampled``."""
    split, fused = Tracer(), Tracer()
    split.configure(enabled=True, sampling=4)
    fused.configure(enabled=True, sampling=4)
    for n in range(10):
        if split.sample("hot"):
            split.record("hot", {"seq": n})
        fused.emit_sampled("hot", seq=n)
    assert split.counts == fused.counts == {"hot": 10}
    assert ([event.detail for event in split.events()]
            == [event.detail for event in fused.events()])


def test_detail_keys_may_shadow_emit_parameters():
    tracer = Tracer()
    tracer.configure(enabled=True)
    tracer.emit("annotation", 7, kind="unresolved-jump", addr="shadow")
    event = tracer.events()[0]
    assert event.addr == 7
    assert event.detail == {"kind": "unresolved-jump", "addr": "shadow"}


def test_configure_rejects_bad_sampling():
    with pytest.raises(ValueError):
        Tracer().configure(sampling=0)


# -- metrics ---------------------------------------------------------------

def test_histogram_uses_power_of_two_buckets():
    histogram = Histogram()
    for value in (0, 1, 5, 5, 300):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 5
    assert snap["max"] == 300
    assert snap["sum"] == 311
    assert snap["buckets"]["0"] == 1     # value 0
    assert snap["buckets"]["1"] == 1     # value 1
    assert snap["buckets"]["7"] == 2     # values in [4, 7]
    assert snap["buckets"]["511"] == 1   # values in [256, 511]


def test_snapshot_merge_is_order_independent():
    parts = []
    for base in (1, 10, 100):
        metrics = Metrics()
        metrics.inc("smt.queries", base)
        metrics.add_time("smt.wall", base / 10.0)
        for value in range(base):
            metrics.observe("depth", value)
        parts.append(metrics.snapshot())
    forward: dict = {}
    backward: dict = {}
    for part in parts:
        merge_snapshots(forward, part)
    for part in reversed(parts):
        merge_snapshots(backward, part)
    assert forward == backward
    assert forward["counters"]["smt.queries"] == 111
    assert forward["histograms"]["depth"]["count"] == 111


def test_canonical_snapshot_strips_timers_only():
    metrics = Metrics()
    metrics.inc("smt.queries")
    metrics.add_time("smt.wall", 0.5)
    metrics.observe("depth", 3)
    canonical = canonical_snapshot(metrics.snapshot())
    assert "timers" not in canonical
    assert canonical["counters"] == {"smt.queries": 1}
    assert canonical["histograms"]["depth"]["count"] == 1


# -- the gated counter helper ----------------------------------------------

def test_gated_increments_only_when_counters_enabled():
    counters.reset()
    previous = counters.enabled
    try:
        counters.enabled = False
        gated("expr_new")
        assert counters.expr_new == 0
        counters.enabled = True
        gated("expr_new")
        gated("expr_new", 5)
        assert counters.expr_new == 6
    finally:
        counters.enabled = previous
        counters.reset()


# -- export ----------------------------------------------------------------

def _sample_events() -> list[Event]:
    return [
        Event(0.5, "span", None, {"name": "lift", "dur": 0.25, "depth": 0}),
        Event(0.6, "annotation", 0x401000,
              {"kind": "unresolved-jump", "detail": object()}),
    ]


def test_jsonl_round_trip_passes_schema_validation():
    text = events_jsonl(_sample_events())
    assert validate_jsonl(text) == []
    objs = [json.loads(line) for line in text.splitlines()]
    # Non-JSON detail values are stringified at export time.
    assert isinstance(objs[1]["detail"]["detail"], str)


def test_jsonl_validator_rejects_malformed_events():
    assert validate_event_obj([]) != []
    assert any("missing" in e for e in validate_event_obj({"ts": 1.0}))
    bad_type = {"ts": "late", "kind": "x", "addr": None, "detail": {}}
    assert any("expected" in e for e in validate_event_obj(bad_type))
    bool_ts = {"ts": True, "kind": "x", "addr": None, "detail": {}}
    assert any("bool" in e for e in validate_event_obj(bool_ts))
    extra = {"ts": 1.0, "kind": "x", "addr": None, "detail": {}, "pid": 1}
    assert any("unknown" in e for e in validate_event_obj(extra))
    empty = {"ts": 1.0, "kind": "", "addr": None, "detail": {}}
    assert any("empty" in e for e in validate_event_obj(empty))


def test_chrome_trace_shapes_spans_and_instants():
    trace = to_chrome_trace(_sample_events())
    events = trace["traceEvents"]
    assert events[0]["ph"] == "M"                 # process_name metadata
    span = next(e for e in events if e["ph"] == "X")
    assert span["name"] == "lift"
    assert span["ts"] == pytest.approx(500_000.0)  # seconds -> microseconds
    assert span["dur"] == pytest.approx(250_000.0)
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["name"] == "annotation"
    assert instant["s"] == "t"
    assert instant["args"]["addr"] == hex(0x401000)
    # The serialized form is plain JSON.
    json.loads(chrome_trace_json(_sample_events()))


# -- provenance ------------------------------------------------------------

def test_provenance_names_instruction_and_verdicts_for_buffer_overflow():
    obs.enable(sampling=1)
    obs.reset()
    result = lift(buffer_overflow())
    report = obs.build_provenance(result, obs.tracer.events())
    assert not report.verified
    by_kind = {chain.kind: chain for chain in report.chains}
    chain = by_kind["return-address"]
    assert chain.instruction is not None and "ret" in chain.instruction
    assert chain.smt_verdicts, "the rejection must carry SMT verdicts"
    verdicts = {c.detail["verdict"] for c in chain.smt_verdicts}
    assert "UNKNOWN" in verdicts
    assert "SMT" in report.render()


def test_provenance_covers_every_seeded_failure_annotation():
    for make in ALL_FAILURES.values():
        obs.enable(sampling=1)
        obs.reset()
        result = lift(make())
        report = obs.build_provenance(result, obs.tracer.events())
        assert len(report.chains) == (len(result.annotations)
                                      + len(result.errors))
        for chain in report.chains:
            # Every chain names the causing instruction when one was
            # decoded at that address; undecodable bytes report as absent.
            decoded = result.graph.instructions.get(chain.addr)
            assert (chain.instruction is None) == (decoded is None)
            assert chain.causes, "chains must carry supporting events"


def test_provenance_for_unresolved_register_jump():
    builder = BinaryBuilder("jmpreg")
    builder.text.label("main")
    builder.text.emit("jmp", "rax")
    obs.enable(sampling=1)
    obs.reset()
    result = lift(builder.build(entry="main"))
    assert result.stats.annotations_by_kind == {"unresolved-jump": 1}
    report = obs.build_provenance(result, obs.tracer.events())
    chain = report.chains[0]
    assert chain.kind == "unresolved-jump"
    assert "jmp rax" in chain.instruction


# -- stats surfacing -------------------------------------------------------

def test_summary_reports_annotation_counts_by_kind():
    # A rejected lift's annotation set is partial — exploration aborts on
    # the first sanity error, so which annotations land first depends on
    # the bag order.  Pin the address schedule: it reaches the weird
    # 0x41 return target (lowest address) before the rejecting state.
    result = lift(buffer_overflow(), schedule="address")
    assert result.stats.annotations_by_kind == {"undecodable": 1}
    assert "annotations: undecodable=1" in result.summary()


# -- rollup ----------------------------------------------------------------

def test_task_rollup_merges_in_sorted_order():
    def task(kind_count: int) -> dict:
        tracer = Tracer()
        tracer.configure(enabled=True)
        metrics = Metrics()
        for n in range(kind_count):
            tracer.emit("annotation", n, kind="unresolved-jump")
            metrics.inc("smt.queries")
        return task_obs_data(tracer, metrics)

    rollup = merge_rollup({"b": task(2), "a": task(3)}, sampling=1)
    assert list(rollup["tasks"]) == ["a", "b"]
    assert rollup["totals"]["events"] == {"annotation": 5}
    assert rollup["totals"]["metrics"]["counters"]["smt.queries"] == 5
    text = render_obs_rollup(rollup)
    assert "annotation" in text and "sampling level 1" in text


# -- the trace CLI verb ----------------------------------------------------

@pytest.fixture(scope="module")
def overflow_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("obs") / "overflow.elf"
    save_binary(buffer_overflow(), str(path))
    return str(path)


def test_trace_verb_text_report(overflow_path, capsys):
    from repro.__main__ import main

    assert main(["trace", overflow_path]) == 0
    out = capsys.readouterr().out
    assert "Trace:" in out
    assert "Provenance report" in out
    assert "return-address" in out
    assert not obs.is_enabled(), "trace must restore the prior obs state"


def test_trace_verb_jsonl_validates(overflow_path, tmp_path, capsys):
    from repro.__main__ import main

    out_path = tmp_path / "trace.jsonl"
    assert main(["trace", overflow_path, "--format", "jsonl",
                 "-o", str(out_path)]) == 0
    assert validate_jsonl(out_path.read_text()) == []


def test_trace_verb_chrome_trace_is_loadable(overflow_path, tmp_path):
    from repro.__main__ import main

    out_path = tmp_path / "trace.json"
    assert main(["trace", overflow_path, "--format", "chrome",
                 "-o", str(out_path)]) == 0
    trace = json.loads(out_path.read_text())
    assert isinstance(trace["traceEvents"], list)
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert "X" in phases and "i" in phases


# -- ring overflow accounting (PR 8) ---------------------------------------

def test_ring_overflow_increments_the_dropped_counter():
    tracer = Tracer(capacity=4)
    tracer.configure(enabled=True)
    for n in range(10):
        tracer.emit("state.explore", n)
    assert len(tracer.events()) == 4
    assert tracer.dropped == 6
    # Exact counts still cover every emission, dropped or not.
    assert tracer.counts["state.explore"] == 10
    tracer.reset()
    assert tracer.dropped == 0


def test_trace_summary_warns_about_dropped_events():
    tracer = Tracer(capacity=2)
    tracer.configure(enabled=True)
    for n in range(5):
        tracer.emit("join", n)
    text = obs.render_trace_summary(tracer.events(), Metrics().snapshot(),
                                    dict(tracer.counts), tracer.capacity,
                                    dropped=tracer.dropped)
    assert "3 events dropped" in text
    clean = obs.render_trace_summary([], Metrics().snapshot(), {}, 2)
    assert "dropped" not in clean


def test_provenance_fails_loudly_on_a_truncated_stream():
    result = lift(buffer_overflow())
    with pytest.raises(obs.TruncatedTraceError, match="7 events dropped"):
        obs.build_provenance(result, [], dropped=7)
    # A complete stream (dropped == 0) still builds.
    assert obs.build_provenance(result, []) is not None


def test_trace_verb_exits_nonzero_on_truncation(overflow_path, capsys):
    from repro.__main__ import main

    capacity = obs.tracer.capacity
    assert main(["trace", overflow_path, "--capacity", "16"]) == 1
    captured = capsys.readouterr()
    assert "events dropped" in captured.out      # summary warning
    assert "trace ring wrapped" in captured.err  # the hard failure
    assert "--capacity" in captured.err          # ... with the remedy
    # The verb's ring size does not outlive it.
    assert obs.tracer.capacity == capacity


def test_task_obs_data_reports_dropped_and_phases():
    tracer = Tracer(capacity=2)
    tracer.configure(enabled=True)
    for n in range(5):
        tracer.emit("join", n)
    from repro.obs.profile import PhaseTimer

    timer = PhaseTimer()
    timer.start("decode")
    timer.stop()
    data = task_obs_data(tracer, Metrics(), phases=timer)
    assert data["events_dropped"] == 3
    assert data["phases"]["decode"]["count"] == 1
    rollup = merge_rollup({"t": data}, sampling=1)
    assert rollup["totals"]["events_dropped"] == 3
    assert rollup["totals"]["phases"]["decode"]["count"] == 1
    text = render_obs_rollup(rollup)
    assert "Phase self-time" in text and "3 events dropped" in text


# -- percentiles from power-of-two buckets (PR 8) --------------------------

def test_percentile_of_empty_and_single_value_histograms():
    assert percentile(Histogram().snapshot(), 50) == 0.0
    histogram = Histogram()
    histogram.observe(5)
    snap = histogram.snapshot()
    # One sample: every percentile is that sample (max caps the bucket).
    assert percentile(snap, 50) == 5.0
    assert percentile(snap, 99) == 5.0


def test_percentiles_are_monotone_and_bounded_by_max():
    histogram = Histogram()
    for value in range(1, 101):
        histogram.observe(value)
    snap = histogram.snapshot()
    estimates = percentiles(snap)
    assert set(estimates) == {"p50", "p90", "p99"}
    assert estimates["p50"] <= estimates["p90"] <= estimates["p99"] <= 100
    # Power-of-two buckets bound the error by 2x on either side.
    assert 25 <= estimates["p50"] <= 100
    assert estimates["p99"] >= 64


def test_percentiles_agree_on_merged_snapshots():
    parts = []
    for base in (3, 17, 60):
        histogram = Histogram()
        for value in range(base):
            histogram.observe(value)
        parts.append({"histograms": {"depth": histogram.snapshot()}})
    forward: dict = {}
    backward: dict = {}
    for part in parts:
        merge_snapshots(forward, part)
    for part in reversed(parts):
        merge_snapshots(backward, part)
    assert (percentiles(forward["histograms"]["depth"])
            == percentiles(backward["histograms"]["depth"]))


def test_histogram_tables_render_percentiles():
    metrics = Metrics()
    for value in (1, 2, 3, 40):
        metrics.observe("join.depth", value)
    text = obs.render_trace_summary([], metrics.snapshot(), {}, 64)
    assert "p50=" in text and "p90=" in text and "p99=" in text
