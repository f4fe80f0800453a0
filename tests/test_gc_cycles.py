"""The lift and Step-2 hot paths make no cyclic garbage.

Reference cycles are freed only by the cyclic collector, whose pauses
grow with the heap the lifter keeps alive; a self-recursive nested
function is one such cycle per call.  With the collector off, lifting
each QA target and replaying its triples must leave nothing for
``gc.collect()`` to free.
"""

from __future__ import annotations

import gc

import pytest

from repro.export import check_triples
from repro.hoare.lifter import lift
from repro.qa.targets import build_target, target_names


@pytest.mark.parametrize("name", target_names())
def test_lift_and_replay_leave_no_cyclic_garbage(name):
    binary = build_target(name)
    gc.collect()
    gc.disable()
    try:
        result = lift(binary, cache=False)
        lifted = gc.collect()
        check_triples(result)
        replayed = gc.collect()
    finally:
        gc.enable()
    assert (lifted, replayed) == (0, 0)
