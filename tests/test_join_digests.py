"""Exactness guard for the join: one corpus task per template kind.

The join is rewritten for speed from time to time; none of those
rewrites may change a lift.  This test lifts the first task (by name) of
every stratum of ``build_corpus(1)`` — a stratum is a binary's or a
library function's template kind, the split the lift-cold benchmark
draws from — under the Table 1 budgets, and compares the full result
(:func:`test_ascent_probe.render`) and the number of changing joins with
``fixtures/join_digests.json``.

Re-record the fixture with :func:`record_fixture` only in a change that
means to change lift results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.corpus import build_corpus, function_binary
from repro.hoare import lift, lift_function
from repro.perf.counters import counters
from tests.test_ascent_probe import digest

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "join_digests.json")

#: The budgets Table 1 (and the lift-cold benchmark) lifts under.
BUDGETS = {"max_states": 10_000, "timeout_seconds": 10}


def _stratum(name: str) -> str:
    if ":" in name:
        return "function:" + name.split(":")[1].split("_")[0]
    match = re.match(r"^(?:bin|xen|sbin|libexec)_([a-z]+)", name)
    return "binary:" + (match.group(1) if match else name)


def stratum_tasks() -> dict[str, tuple[str, object, str | None]]:
    """Stratum -> (task name, binary, function or None) of the first task
    of every stratum of ``build_corpus(1)``."""
    corpus = build_corpus(1)
    tasks = [(item.name, item.binary, None) for item in corpus.binaries]
    for library in corpus.libraries:
        for function in library.functions:
            tasks.append((f"{library.name}:{function}",
                          function_binary(library, function), function))
    picked: dict[str, tuple] = {}
    for task in sorted(tasks, key=lambda task: task[0]):
        picked.setdefault(_stratum(task[0]), task)
    return dict(sorted(picked.items()))


def lift_counting_joins(task) -> tuple[object, int]:
    _, binary, function = task
    before = counters.lift_joins
    if function is None:
        result = lift(binary, cache=False, **BUDGETS)
    else:
        result = lift_function(binary, function, cache=False, **BUDGETS)
    return result, counters.lift_joins - before


def record_fixture(path: str = FIXTURE) -> None:
    """Write every stratum's task, digest and join count under the
    running tree."""
    data = {}
    for stratum, task in stratum_tasks().items():
        result, joins = lift_counting_joins(task)
        data[stratum] = {"task": task[0], "digest": digest(result),
                         "joins": joins}
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def tasks() -> dict:
    return stratum_tasks()


def test_every_stratum_is_recorded(tasks, recorded):
    assert len(tasks) == 25
    assert {stratum: task[0] for stratum, task in tasks.items()} \
        == {stratum: entry["task"] for stratum, entry in recorded.items()}


def test_each_stratum_lifts_to_the_recorded_result(tasks, recorded):
    drifted = {}
    for stratum, task in tasks.items():
        result, joins = lift_counting_joins(task)
        want = recorded[stratum]
        if (digest(result), joins) != (want["digest"], want["joins"]):
            drifted[stratum] = (joins, want["joins"])
    assert not drifted, drifted
