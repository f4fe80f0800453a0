"""The benchmark's own tests: tiny runs of every workload, and a fault the
correctness counts must catch.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
WORKLOADS = ("lift-cold", "step2-replay", "serve-relift")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, trace: int, *extra: str) -> dict:
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = _spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert result["metrics"]["trace.count_drift"]["value"] == 0


def test_known_defects_are_counted_not_filtered():
    """The tiny step2 draw holds fillbuf and localbuf graphs, which carry
    FAILED triples at the commit that defined the benchmark: they count as
    failed operations although the run stays correct."""
    result = _run("step2-replay", 0)
    assert result["correct"] is True
    assert result["failed"] >= 2


@pytest.mark.parametrize("fault", ("tau-jcc-cond-swap", "join-keeps-left"))
def test_fault_is_caught(fault):
    """A τ bug puts wrong postconditions into the graphs, and replay against
    the independent emulator turns them into FAILED triples outside the
    known defects.  A join bug stops a localbuf graph from verifying: that
    stratum is a known defect for FAILED triples only, so a graph that no
    longer verifies still makes the run incorrect."""
    clean = _run("step2-replay", 0)
    faulty = _run("step2-replay", 0, "--fault", fault)
    assert faulty["correct"] is False
    assert faulty["failed"] > 0
    # Every drawn task stays an operation, whatever the fault does to it.
    assert faulty["attempted"] == clean["attempted"]


def test_bare_checkout_fails_without_a_result(tmp_path):
    """With nothing but the benchmark's files there is no program to
    measure: the command must fail and print no result line."""
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lift-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_spans_are_written_and_self_time_adds_up():
    """The traced pass writes every span; its parent links nest, each task
    is a request id, and self time is span time minus direct children."""
    result = _run("step2-replay", 1)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from spans import load_spans

    spans = load_spans(os.path.join(ROOT, ".perfbench", "step2-replay-s3-t1",
                                    "traced-1", "spans"))
    metrics = result["metrics"]
    assert len(spans) == metrics["trace.spans"]["value"]
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]
            children[span["parent"]] += span["end"] - span["start"]
    self_check = sum(span["end"] - span["start"] - children[index]
                     for index, span in enumerate(spans)
                     if span["name"] == "export.check")
    assert abs(self_check - metrics["export.check.self_s"]["value"]) < 1e-6
    assert {span["task"] for span in spans} == set(range(result["attempted"]))
