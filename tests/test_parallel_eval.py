"""Parallel corpus lifting: ordering contract, determinism, timing split.

``run_corpus`` promises that its report is *identical in canonical form*
whether the corpus is lifted serially or by a worker pool, and that rows
and records come back in a documented sort order regardless of corpus
iteration order.  These tests exercise both promises on a corpus small
enough for CI, plus the build/lift timing split in the scaling experiment.
"""

from __future__ import annotations

import json

import pytest

from repro.corpus import Corpus, CorpusBinary, CorpusLibrary
from repro.eval.runner import CorpusReport, DirectoryRow, run_corpus
from repro.minicc import compile_source


@pytest.fixture(scope="module")
def tiny_corpus() -> Corpus:
    """Two binaries and a two-function library, deliberately unsorted."""
    corpus = Corpus()
    # Names and directories in reverse order: the report must sort them.
    corpus.binaries.append(CorpusBinary(
        name="zeta", directory="usr-bin",
        binary=compile_source("long main(long n) { return n * 3; }",
                              name="zeta"),
        expected="lifted",
    ))
    corpus.binaries.append(CorpusBinary(
        name="alpha", directory="bin",
        binary=compile_source(
            "long main(long n) { long s = 0;"
            " for (long i = 0; i < n; i = i + 1) { s = s + i; }"
            " return s; }",
            name="alpha"),
        expected="lifted",
    ))
    library = compile_source(
        "long inc(long n) { return n + 1; }\n"
        "long twice(long n) { return n + n; }\n",
        name="tinylib.so", entry="inc", export_labels=True,
    )
    corpus.libraries.append(CorpusLibrary(
        name="tinylib.so", directory="lib", binary=library,
        functions=["twice", "inc"],  # unsorted on purpose
    ))
    return corpus


def test_records_and_rows_follow_the_ordering_contract(tiny_corpus):
    report = run_corpus(corpus=tiny_corpus)
    record_keys = [(r.kind, r.directory, r.name) for r in report.records]
    assert record_keys == sorted(record_keys)
    row_keys = [(r.kind, r.directory) for r in report.rows]
    assert row_keys == sorted(row_keys)
    # All four tasks made it through, every one lifted.
    assert len(report.records) == 4
    assert all(r.outcome == "lifted" for r in report.records)


def test_serial_and_parallel_reports_are_canonically_identical(tiny_corpus):
    serial = run_corpus(corpus=tiny_corpus, jobs=1)
    parallel = run_corpus(corpus=tiny_corpus, jobs=2)
    assert serial.canonical_json() == parallel.canonical_json()


def test_serial_and_parallel_obs_rollups_are_canonically_identical(tiny_corpus):
    from repro.obs.report import canonical_obs
    from repro.obs.tracer import tracer

    serial = run_corpus(corpus=tiny_corpus, jobs=1, obs=True)
    parallel = run_corpus(corpus=tiny_corpus, jobs=2, obs=True)
    assert serial.obs is not None and parallel.obs is not None
    # The canonical rollup (no timers/timestamps, no cache-dependent
    # content) is a pure function of the corpus — worker count invisible.
    assert canonical_obs(serial.obs) == canonical_obs(parallel.obs)
    # The rollup rides inside the canonical report comparison too.
    assert serial.canonical_json() == parallel.canonical_json()
    # ... and matches a run without obs apart from the obs key itself.
    plain = run_corpus(corpus=tiny_corpus, jobs=1)
    stripped = serial.canonical()
    stripped.pop("obs")
    assert stripped == plain.canonical()
    # The caller's tracer configuration was restored (off by default).
    assert not tracer.enabled


def test_obs_rollup_counts_real_events(tiny_corpus):
    report = run_corpus(corpus=tiny_corpus, obs=True, obs_sampling=1)
    totals = report.obs["totals"]
    assert totals["events"]["lift.done"] == len(report.records)
    assert totals["events"]["state.explore"] > 0
    assert totals["metrics"]["counters"]["smt.queries"] > 0
    histogram = totals["metrics"]["histograms"]["function.instructions"]
    assert histogram["count"] == len(report.records)


def test_records_carry_annotation_counts(tiny_corpus):
    report = run_corpus(corpus=tiny_corpus)
    # The tiny corpus lifts cleanly: every record exists and is empty.
    assert all(record.annotations == {} for record in report.records)
    canonical = report.canonical()
    assert all("annotations" in record for record in canonical["records"])


def test_parallel_run_still_reports_counters(tiny_corpus):
    report = run_corpus(corpus=tiny_corpus, jobs=2)
    # Worker deltas are merged back into the report.
    assert report.counters.get("expr_new", 0) > 0
    assert report.counters.get("intern_hits", 0) > 0


def test_canonical_excludes_timing_but_keeps_outcomes(tiny_corpus):
    report = run_corpus(corpus=tiny_corpus)
    canonical = report.canonical()
    for row in canonical["rows"] + canonical["records"]:
        assert "seconds" not in row
    assert canonical["records"][0]["outcome"] == "lifted"
    # canonical_json round-trips and is stable under re-serialization.
    assert json.loads(report.canonical_json()) == canonical


def _stub_report() -> CorpusReport:
    report = CorpusReport()
    report.rows.append(DirectoryRow(directory="bin", kind="binary", total=2,
                                    lifted=2, instructions=100, states=120,
                                    seconds=4.0))
    report.rows.append(DirectoryRow(directory="lib", kind="function", total=3,
                                    lifted=3, instructions=400, states=410,
                                    seconds=6.0))
    return report


def test_run_scaling_separates_build_time_from_lift_time(monkeypatch):
    import repro.eval.scaling as scaling

    built = []
    monkeypatch.setattr(scaling, "build_corpus",
                        lambda scale: built.append(scale) or f"corpus-{scale}")
    monkeypatch.setattr(
        scaling, "run_corpus",
        lambda corpus=None, timeout_seconds=0, max_states=0, jobs=1,
        cache=None, cache_dir=None: _stub_report(),
    )
    points = scaling.run_scaling(scales=(1, 2), jobs=1)
    assert built == [1, 2]
    for point in points:
        assert point.build_seconds >= 0.0
        assert point.seconds >= 0.0
        assert point.instructions == 500   # binary + function totals
        assert point.functions == 5
    text = scaling.format_scaling(points)
    assert "build(s)" in text and "lift(s)" in text
    assert "more lift time" in text

