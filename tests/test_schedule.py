"""Loop-aware scheduling: SCC ranks, loop heads, and the join A/B.

The schedule must (a) rank SCCs topologically with every loop exit
strictly after its loop, (b) change *nothing* about lift outcomes —
address order and SCC order reach the same fixpoint on every QA target
and on one corpus task per template kind — and (c) actually
save work on layouts where address order is pessimal: a jump-over loop
(body placed after the exit block) re-joins the exit region once per
iteration under address order, and drains the loop first under SCC order.
"""

from __future__ import annotations

import pytest

from repro.elf import BinaryBuilder
from repro.eval.runner import _outcome as outcome_class
from repro.hoare.cfg import build_cfg
from repro.hoare.lifter import lift
from repro.hoare.schedule import build_schedule
from repro.isa import Imm
from repro.perf.counters import counters
from repro.qa.targets import build_target, target_names
from tests.test_join_digests import lift_task, recorded_strata, stratum_tasks


def jump_over_loop_nest() -> "Binary":
    """A two-level counted loop whose exit block sits *below* the bodies.

    Address order pops the low-address ``done`` block eagerly on every
    iteration; SCC order holds it back until both loops reach fixpoint.
    """
    builder = BinaryBuilder("jump_over_nest")
    t = builder.text
    t.label("main")
    t.emit("mov", "rax", Imm(0, 32))
    t.emit("mov", "rcx", Imm(3, 32))
    t.emit("jmp", "outer_head")
    t.label("done")                    # exit continuation, lowest address
    t.emit("ret")
    t.label("outer_head")
    t.emit("cmp", "rcx", Imm(0, 32))
    t.emit("je", "done")
    t.emit("mov", "rdx", Imm(3, 32))
    t.emit("jmp", "inner_head")
    t.label("outer_next")
    t.emit("sub", "rcx", Imm(1, 32))
    t.emit("jmp", "outer_head")
    t.label("inner_head")
    t.emit("cmp", "rdx", Imm(0, 32))
    t.emit("je", "outer_next")
    t.emit("add", "rax", "rdx")
    t.emit("sub", "rdx", Imm(1, 32))
    t.emit("jmp", "inner_head")
    return builder.build(entry="main")


# -- rank structure ---------------------------------------------------------

def test_acyclic_targets_have_no_loops_and_topological_ranks():
    for name in ("branch", "guard"):
        binary = build_target(name)
        schedule = build_schedule(binary, binary.entry)
        assert schedule.loops == 0, name
        assert not schedule.loop_heads, name
        # Every static edge that leaves an SCC must increase the rank.
        for src, dsts in schedule.successors.items():
            for dst in dsts:
                assert schedule.ranks[dst] >= schedule.ranks[src], name


def test_loop_target_ranks_the_exit_after_the_loop():
    binary = build_target("loop")
    schedule = build_schedule(binary, binary.entry)
    assert schedule.loops == 1
    assert schedule.loop_heads
    head = min(schedule.loop_heads)
    loop_rank = schedule.ranks[head]
    assert schedule.is_loop_member(head)
    # Edges leaving the loop SCC land on strictly higher ranks.
    exits = [
        dst
        for src, dsts in schedule.successors.items()
        if schedule.ranks.get(src) == loop_rank
        for dst in dsts
        if schedule.ranks.get(dst) != loop_rank
    ]
    assert exits
    assert all(schedule.ranks[dst] > loop_rank for dst in exits)
    # Loop heads pop before same-rank non-heads; unknown addresses last.
    assert schedule.priority(head) < schedule.priority(head + 1)
    assert schedule.priority(0xDEAD_0000) == (schedule.default_rank, 1,
                                              0xDEAD_0000)


def test_jump_over_nest_ranks_exit_after_both_loops():
    binary = jump_over_loop_nest()
    schedule = build_schedule(binary, binary.entry)
    assert schedule.loops >= 1
    ret_addr = max(schedule.ranks)  # highest address is the inner jmp...
    # Find the ret: the one statically-terminal address below outer_head.
    terminals = [a for a, succs in schedule.successors.items() if not succs]
    assert len(terminals) == 1
    (done,) = terminals
    loop_ranks = {schedule.ranks[a] for a in schedule.ranks
                  if schedule.is_loop_member(a)}
    assert loop_ranks
    assert all(schedule.ranks[done] > rank for rank in loop_ranks)
    assert ret_addr is not None  # silence the unused hint


def test_build_schedule_is_deterministic():
    binary = build_target("loop")
    first = build_schedule(binary, binary.entry)
    second = build_schedule(binary, binary.entry)
    assert first.ranks == second.ranks
    assert first.loop_heads == second.loop_heads
    assert first.successors == second.successors


# -- outcome identity and join savings --------------------------------------

def _lift_fingerprint(result) -> tuple:
    return (
        result.verified,
        sorted(error.kind for error in result.errors),
        len(result.graph.vertices),
        len(result.graph.edges),
        sorted(result.instructions),
        result.stats.instructions,
    )


@pytest.fixture(scope="module")
def strata() -> dict:
    return stratum_tasks()


@pytest.mark.parametrize("name", target_names() + recorded_strata())
def test_schedules_agree_on_every_qa_target(name, strata):
    if name in strata:
        by_address, by_scc = (lift_task(strata[name], schedule=schedule)
                              for schedule in ("address", "scc"))
    else:
        binary = build_target(name)
        by_address = lift(binary, cache=False, schedule="address")
        by_scc = lift(binary, cache=False, schedule="scc")
    # The verdict and its Table 1 class must always agree.  Full graph
    # content is only comparable for accepted lifts: a rejection aborts
    # exploration after the state that raised it, so the partial remainder
    # depends on the bag order.  On the QA targets even the error kinds
    # agree; on corpus tasks they need not (binary:rsp stops after one
    # return-address error under address order, and after three errors
    # raised by a different first bad state under SCC order).
    assert by_address.verified == by_scc.verified
    assert outcome_class(by_address) == outcome_class(by_scc)
    if name not in strata:
        assert (sorted(e.kind for e in by_address.errors)
                == sorted(e.kind for e in by_scc.errors))
    if by_scc.verified:
        assert _lift_fingerprint(by_address) == _lift_fingerprint(by_scc)


def symbolic_jump_over_loop() -> "Binary":
    """A count-up loop with a symbolic bound and its exit laid out *below*.

    ``rcx`` counts 0,1,2,… against unconstrained ``rdi``, so the head's
    interval hull grows for many join rounds and a fresh state escapes to
    the low-address ``done`` block on every round.  Under address order
    each stale escape re-joins (and re-explores) the exit region; under
    SCC order the loop drains first and the newest escape — carrying the
    fixpoint hull — reaches ``done`` before its stale siblings, which
    then join as no-ops.  (A concrete trip count would hide the effect:
    the exit branch stays provably infeasible until the last iteration.)
    """
    builder = BinaryBuilder("jump_over_symbolic")
    t = builder.text
    t.label("main")
    t.emit("mov", "rax", Imm(0, 32))
    t.emit("mov", "rcx", Imm(0, 32))
    t.emit("jmp", "head")
    t.label("done")                    # exit region, lowest addresses
    t.emit("add", "rax", Imm(1, 32))
    t.emit("add", "rax", "rcx")
    t.emit("ret")
    t.label("head")
    t.emit("cmp", "rcx", "rdi")
    t.emit("jge", "done")
    t.emit("add", "rax", "rcx")
    t.emit("add", "rcx", Imm(1, 32))
    t.emit("jmp", "head")
    return builder.build(entry="main")


def test_scc_order_saves_joins_on_the_jump_over_loop():
    binary = symbolic_jump_over_loop()
    joins = {}
    results = {}
    for mode in ("address", "scc"):
        counters.reset()
        results[mode] = lift(binary, cache=False, schedule=mode)
        joins[mode] = counters.lift_joins
    assert results["scc"].verified
    assert results["address"].verified
    assert (_lift_fingerprint(results["address"])
            == _lift_fingerprint(results["scc"]))
    assert joins["scc"] < joins["address"], joins


# -- satellite: deterministic CFG flood fill --------------------------------

def test_cfg_function_partition_is_deterministic():
    binary = build_target("branch")
    result = lift(binary, cache=False)
    first = build_cfg(result)
    second = build_cfg(result)
    assert first.functions == second.functions
    assert set(first.functions) == {result.entry}
    # Every block is reachable from the entry in the partition.
    assert set(first.blocks) == first.functions[result.entry]
