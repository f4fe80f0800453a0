"""Exactness guard for Step-2 replay: the reports themselves.

Replay is made faster from time to time; none of those changes may move
a report.  This test replays, with :func:`check_triples`'s defaults, the
four template functions that carry FAILED triples (``fillbuf``,
``localbuf``, ``walk`` and ``fsm``, each lifted on its own as the corpus
lifts library functions) and the guard, loop and stack QA targets, and
compares a sha256 of every triple's ``(src, instr_addr, status,
witnesses, detail)`` with ``fixtures/step2_reports.json``.  The status
counts are recorded beside each digest, so a drift shows where it went.

Re-record the fixture with :func:`record_fixture` only in a change that
means to change Step-2 reports, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.corpus import templates as T
from repro.export.checker import check_triples
from repro.hoare import lift, lift_function
from repro.minicc import compile_source
from repro.qa.targets import build_target

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "step2_reports.json")

#: Template functions with FAILED triples: (name, template builder).
TEMPLATES = (
    ("fillbuf", T.make_buffer_writer_extern),
    ("localbuf", T.make_local_buffer),
    ("walk", T.make_global_table_walk),
    ("fsm", T.make_state_machine),
)

QA_TARGETS = ("guard", "loop", "stack")


def lift_subjects() -> dict:
    """Name -> lift result of every subject the fixture records."""
    results = {}
    for name, make in TEMPLATES:
        function = f"{name}_s"
        binary = compile_source(make("s"), name=name, entry=function,
                                export_labels=True)
        results[name] = lift_function(binary, function, cache=False)
    for name in QA_TARGETS:
        results[name] = lift(build_target(name), cache=False)
    return results


def report_entry(result) -> dict:
    report = check_triples(result)
    rows = [[str(check.src), check.instr_addr, check.status,
             check.witnesses, check.detail] for check in report.checks]
    return {"digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
            "statuses": report.status_counts()}


def record_fixture(path: str = FIXTURE) -> None:
    """Write every subject's report digest under the running tree."""
    data = {name: report_entry(result)
            for name, result in lift_subjects().items()}
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_every_subject_replays_to_the_recorded_report(recorded):
    results = lift_subjects()
    assert sorted(results) == sorted(recorded)
    drifted = {name: (entry["statuses"], recorded[name]["statuses"])
               for name, entry in ((name, report_entry(result))
                                   for name, result in results.items())
               if entry != recorded[name]}
    assert not drifted, drifted


def test_the_fixture_keeps_the_known_failed_triples(recorded):
    # The four templates are recorded while they still FAIL (ROADMAP,
    # "Zero FAILED Step-2 triples"); a change that clears them re-records.
    for name, _ in TEMPLATES:
        assert recorded[name]["statuses"]["FAILED"] > 0, name
