"""The lift and Step-2 hot paths make no cyclic garbage.

Reference cycles are freed only by the cyclic collector, whose pauses
grow with the heap the lifter keeps alive; a self-recursive nested
function is one such cycle per call.  The lift engine, theory export and
triple replay run with the collector paused (:class:`collector_paused`),
which is safe only while they leave nothing for ``gc.collect()`` to free.
That is checked here on the QA targets, on one task of every lift-cold
stratum and on two coreutils, each with no warm-up lift before it, and
on the first lift of a fresh interpreter.

The pause itself must give the collector back in the state it found it:
on return, on an exception out of τ, inside an outer pause, and on the
serve worker's CPU-budget exception.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pytest

import repro.hoare.lifter as lifter_mod
from repro.corpus import build_coreutils
from repro.export import check_triples, export_theory
from repro.hoare.lifter import lift
from repro.perf import collector_paused
from repro.qa.targets import build_target, target_names
from repro.serve.pool import _CpuBudgetExceeded, execute_payload
from tests.test_join_digests import lift_task, recorded_strata, stratum_tasks

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Coreutils whose lifts are the largest the Step-2 benchmark replays.
COREUTILS = ("du", "hexdump")


def _cyclic_garbage(make_result) -> tuple[int, int, int]:
    """Objects ``gc.collect()`` frees after the lift, the theory export
    and the replay, run in that order with the collector off."""
    gc.collect()
    gc.disable()
    try:
        result = make_result()
        lifted = gc.collect()
        export_theory(result)
        exported = gc.collect()
        check_triples(result)
        replayed = gc.collect()
    finally:
        gc.enable()
    return lifted, exported, replayed


@pytest.fixture(scope="module")
def strata() -> dict:
    return stratum_tasks()


@pytest.fixture(scope="module")
def coreutils() -> dict:
    return build_coreutils()


@pytest.mark.parametrize("name", target_names())
def test_lift_and_replay_leave_no_cyclic_garbage(name):
    binary = build_target(name)
    assert _cyclic_garbage(lambda: lift(binary, cache=False)) == (0, 0, 0)


@pytest.mark.parametrize("stratum", recorded_strata())
def test_strata_leave_no_cyclic_garbage(strata, stratum):
    task = strata[stratum]
    assert _cyclic_garbage(lambda: lift_task(task)) == (0, 0, 0)


@pytest.mark.parametrize("name", COREUTILS)
def test_coreutils_leave_no_cyclic_garbage(coreutils, name):
    binary = coreutils[name]
    assert _cyclic_garbage(lambda: lift(binary, cache=False)) == (0, 0, 0)


_FIRST_LIFT = """
import gc
from repro.hoare import lift
from repro.minicc import compile_source
binary = compile_source("long main(long n) { return n + 1; }")
gc.collect()
gc.disable()
lift(binary, cache=False)
print(gc.collect())
"""


def test_the_first_lift_of_a_process_leaves_no_cyclic_garbage():
    # Module imports the lift triggers lazily run inside it: importing
    # pickle there left its pure-Python exception classes as garbage.
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, "-c", _FIRST_LIFT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "0"


# -- the collector pause ---------------------------------------------------


@pytest.fixture
def collector_on():
    """Start enabled, and leave the collector enabled whatever a test did."""
    gc.enable()
    yield
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_the_pause_restores_the_prior_state(collector_on, enabled):
    if not enabled:
        gc.disable()
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() == enabled


def test_the_pause_restores_the_collector_when_a_lift_raises(
        collector_on, monkeypatch):
    seen = []

    def failing_step(*_args, **_kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("τ failed")

    monkeypatch.setattr(lifter_mod, "step", failing_step)
    with pytest.raises(RuntimeError, match="τ failed"):
        lift(build_target(target_names()[0]), cache=False)
    assert seen == [False]
    assert gc.isenabled()


def test_a_nested_pause_leaves_the_outer_one_paused(collector_on):
    binary = build_target(target_names()[0])
    with collector_paused():
        lift(binary, cache=False)
        assert not gc.isenabled()
        with collector_paused():
            pass
        assert not gc.isenabled()
    assert gc.isenabled()


def test_the_cpu_budget_exception_restores_the_collector(
        collector_on, monkeypatch):
    # The serve worker's SIGXCPU handler raises _CpuBudgetExceeded from
    # wherever the lift is; here τ raises it.
    from repro.eval.runner import LiftTask

    def exhausted(*_args, **_kwargs):
        raise _CpuBudgetExceeded()

    monkeypatch.setattr(lifter_mod, "step", exhausted)
    task = LiftTask(name="loop", directory="qa", kind="binary",
                    binary=build_target("loop"), function=None,
                    timeout_seconds=10, max_states=10_000)
    result = execute_payload({"type": "task", "task": task}, 1)
    assert result["error"]["code"] == "budget-cpu"
    assert gc.isenabled()
