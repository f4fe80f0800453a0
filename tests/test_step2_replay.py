"""Step-2 triple replay: the witness plan, skipped emulator traps, faults
caught with warm memos, and reports (and the lift results they replay)
that do not depend on the hash seed."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

from repro.export.checker import (
    _WitnessSampler, _construct_witness, _draw, _randint_bits, build_witness,
    check_triples,
)
from repro.hoare import lift, lift_function
from repro.expr import Var, const
from repro.expr.simplify import sub
from repro.machine.cpu import CPU, STACK_TOP
from repro.memmodel import model_holds
from repro.pred.clause import Clause
from repro.perf import cache_stats, reset_caches
from repro.qa import faults
from repro.qa.targets import build_target
from repro.smt.solver import Region

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The memos compiled evaluation adds (expressions, clauses, predicates).
COMPILED_MEMOS = ("expr.compiled", "pred.compiled_clause", "pred.compiled")


def _witness_digest(witness) -> tuple | None:
    if witness is None:
        return None
    cpu, env = witness
    return (sorted(cpu.regs.items()), sorted(cpu.flags.items()),
            sorted(cpu.memory.bytes.items()), sorted(env.variables.items()))


def test_one_plan_draws_the_same_witnesses_as_a_fresh_plan_per_attempt():
    # The plan holds only what the state determines: reusing it across
    # attempts must give exactly the witnesses a new plan per attempt gives.
    result = lift(build_target("guard"))
    for key, state in sorted(result.graph.vertices.items(), key=str)[:8]:
        shared = _WitnessSampler(state)
        rng_shared, rng_fresh = random.Random(5), random.Random(5)
        for _ in range(4):
            reused = build_witness(shared, result.binary, rng_shared)
            fresh = build_witness(_WitnessSampler(state), result.binary,
                                  rng_fresh)
            assert _witness_digest(reused) == _witness_digest(fresh), key
        assert rng_shared.getstate() == rng_fresh.getstate()


def test_a_witness_keeps_a_sampled_rsp_of_zero():
    # The witness CPU is built in exactly the sampled state: an rsp of 0
    # is not replaced by the emulator's default stack, and no stack
    # sentinel is written into the witness's memory.
    result = lift(build_target("guard"))
    _, state = min(result.graph.vertices.items(), key=str)
    regs = tuple((reg, const(0) if reg == "rsp" else value)
                 for reg, value in state.pred.regs)
    zero = state.with_pred(dataclasses.replace(state.pred, regs=regs))
    witness = build_witness(_WitnessSampler(zero), result.binary,
                            random.Random(7))
    assert witness is not None
    cpu, env = witness
    assert cpu.regs["rsp"] == 0 and env.registers["rsp"] == 0
    assert STACK_TOP not in cpu.memory.bytes


def test_bounded_draws_make_the_rng_calls_of_randint():
    # Witness values are drawn with getrandbits directly; each draw must
    # consume and return exactly what randint would, or the stream moves.
    for lo, hi in ((0, 64), (0, 255), (5, 5), (-3, 40), (0, (1 << 32) - 2)):
        drawn, reference = random.Random(lo ^ hi), random.Random(lo ^ hi)
        for _ in range(50):
            value = lo + _draw(drawn, *_randint_bits(lo, hi))
            assert value == reference.randint(lo, hi)
        assert drawn.getstate() == reference.getstate()


#: sha256 of the first three witnesses drawn from every state of the
#: guard, loop and stack QA targets (see the test below).
WITNESS_STREAM_DIGEST = (
    "e52269cdf309f7858bc56761a3babf57d3225b9884b1eaa01935c7c1a2b875cf")


def test_the_witness_stream_is_pinned():
    # Witnesses are a function of the rng sequence, and Step-2 reports are
    # a function of the witnesses: a change that skips, adds or reorders
    # one rng call (a guided value's second randint, a lazy byte draw, a
    # flag bit) changes this digest before it changes any report.  Only a
    # change to the lifted graphs themselves should ever move it.
    digest = hashlib.sha256()
    for name in ("guard", "loop", "stack"):
        result = lift(build_target(name))
        for _, state in sorted(result.graph.vertices.items(), key=str):
            sampler = _WitnessSampler(state)
            rng = random.Random(2022 ^ (state.rip or 0))
            for _ in range(3):
                witness = build_witness(sampler, result.binary, rng)
                digest.update(b"none" if witness is None
                              else repr(_witness_digest(witness)).encode())
    assert digest.hexdigest() == WITNESS_STREAM_DIGEST


def _with_valuations(state, valuations):
    """*state* with extra memory valuations ``(rsp0 offset, size, value)``."""
    rsp0 = Var("rsp0")
    mem = state.pred.mem_dict()
    for offset, size, value in valuations:
        mem[Region(sub(rsp0, const(offset)), size)] = value
    return state.with_pred(state.pred.with_mem(mem))


def _residual_outcomes(states, binary) -> Counter:
    """Build three witnesses per state as build_witness does, and check
    each with both the residual precondition and the full s ⊢ P."""
    outcomes = Counter()
    for state in states:
        sampler = _WitnessSampler(state)
        rng = random.Random(2022 ^ (state.rip or 0))
        for _ in range(3):
            witness = _construct_witness(sampler, binary, rng)
            if witness is None:
                outcomes["unbuilt"] += 1
                continue
            cpu, env = witness
            residual = sampler.residual_holds(env, cpu.memory)
            drawn = rng.getstate()
            full = state.pred.holds(env, read_current=cpu.memory.read)
            assert residual == full, (state, env.variables)
            # What the residual check skips was drawn during construction.
            assert rng.getstate() == drawn, state
            overlap = len(cpu.memory.bytes) < sampler.mem_bytes
            outcomes[("holds" if full else "fails")
                     + (" after overlap" if overlap else "")] += 1
            if residual:
                # As build_witness does, so later attempts draw as replay's.
                model_holds(state.model, env)
    return outcomes


def test_the_residual_precondition_agrees_with_the_full_check():
    # build_witness checks only what construction does not establish; on
    # every attempt that must decide exactly what Predicate.holds decides,
    # with the same rng draws, or replay reports move.
    outcomes = Counter()
    for binary, function in replay_subjects().values():
        result = lift_subject(binary, function)
        states = [state for _, state
                  in sorted(result.graph.vertices.items(), key=str)]
        outcomes += _residual_outcomes(states, result.binary)
    # Lifted states overlap valuations (aliased regions), but their
    # clauses hold on every witness drawn here.
    assert outcomes["holds"] > 100 and outcomes["fails after overlap"] > 10, \
        outcomes
    # So clauses that fail are added by hand, beside the overlap and width
    # exceptions: two valuations whose spans overlap (consistently or
    # not), and values wider than their regions (fitting in them or not).
    result = lift(build_target("guard"))
    _, state = min(result.graph.vertices.items(), key=str)
    rsp0 = Var("rsp0")
    fails, holds = Clause(rsp0, "eq", const(0)), Clause(rsp0, "ne", const(0))
    extra = [
        state.with_pred(state.pred.with_clauses([fails])),
        state.with_pred(state.pred.with_clauses([fails, holds])),
        state.with_pred(state.pred.with_clauses([holds])),
        _with_valuations(state, [(0x1000, 8, const(0x1111)),
                                 (0x0FFC, 8, const(0x2222))]),
        _with_valuations(state, [(0x1000, 8, const(0x1111)),
                                 (0x1000, 4, const(0x1111, 32))]),
        _with_valuations(state, [(0x1000, 1, const(0x1234))]),
        _with_valuations(state, [(0x1000, 1, const(0x12))]),
    ]
    assert _residual_outcomes(extra, result.binary) == {
        "fails": 3 * 3, "holds": 3 * 2,
        "fails after overlap": 3, "holds after overlap": 3}


def test_a_witness_the_emulator_cannot_execute_is_not_evidence(monkeypatch):
    result = lift(build_target("guard"))
    report = check_triples(result, samples=2)
    assert report.proven > 0

    def trap(self, instr):
        raise RuntimeError("unmodelled")

    monkeypatch.setattr(CPU, "execute", trap)
    trapped = check_triples(result, samples=2)
    assert trapped.proven == 0 and trapped.failed == 0
    for before, after in zip(report.checks, trapped.checks):
        assert after.witnesses == 0
        if before.status == "proven":
            assert after.status == "untested"
        else:
            assert after.status == before.status


def test_jcc_fault_fails_triples_after_the_memos_are_warm():
    target = build_target("guard")
    reset_caches()
    assert check_triples(lift(target)).failed == 0
    stats = cache_stats()
    assert all(stats[name]["size"] > 0 for name in COMPILED_MEMOS)
    with faults.inject("tau-jcc-cond-swap"):
        # inject() starts from empty memos: every compiled memo is registered.
        stats = cache_stats()
        assert all(stats[name]["size"] == 0 for name in COMPILED_MEMOS)
        faulty = check_triples(lift(target))
    assert faulty.failed > 0


# -- the same reports under every hash seed -----------------------------------


def replay_subjects() -> dict:
    """Name -> (binary, function lifted on its own or None) of every
    program the hash-seed test below lifts."""
    from repro.corpus import templates as T
    from repro.minicc import compile_source

    subjects = {name: (build_target(name), None)
                for name in ("guard", "loop", "stack", "branch")}
    subjects["localbuf"] = (compile_source(
        T.make_local_buffer("s")
        + "long main(long n) { return localbuf_s(n); }",
        name="localbuf"), None)
    subjects["fsm"] = (compile_source(
        T.make_state_machine("s") + "long main(long n) { return fsm_s(n, 2); }",
        name="fsm"), None)
    # Two loops whose ascent probe commits (tests/test_ascent_probe.py).
    subjects["loopsum"] = (compile_source(
        T.make_loop_sum("s") + "long main(long n) { return loopsum_s(n); }",
        name="loopsum"), None)
    subjects["scan"] = (compile_source(
        T.make_byte_scanner("s") + "long main(long n) { return scan_s(n); }",
        name="scan"), None)
    # A library function, lifted on its own as the corpus does.  Its lift
    # builds a model that holds one region in two nodes, where the region
    # index must pick a node that does not depend on set order.
    subjects["localbuf_fn"] = (compile_source(
        T.make_local_buffer("sb"), name="localbuf", entry="localbuf_sb",
        export_labels=True), "localbuf_sb")
    return subjects


def lift_subject(binary, function):
    if function is None:
        return lift(binary, cache=False)
    return lift_function(binary, function, cache=False)


_REPORTER = """
import hashlib, json, pickle
from repro.export.checker import check_triples
from tests.test_step2_replay import lift_subject, replay_subjects

out = {"payloads": {}, "replays": {}}
for name, (binary, function) in replay_subjects().items():
    result = lift_subject(binary, function)
    result.stats.seconds = 0.0
    # The bytes a lift-store entry would hold.
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    out["payloads"][name] = hashlib.sha256(blob).hexdigest()
    if name not in ("guard", "loop", "stack"):
        continue
    graph = result.graph
    report = check_triples(result)
    out["replays"][name] = {
        "vertices": sorted(f"{key} {state}" for key, state
                           in graph.vertices.items()),
        "edges": sorted(str(edge) for edge in graph.edges),
        "checks": [[str(c.src), c.instr_addr, c.status, c.witnesses, c.detail]
                   for c in report.checks],
    }
# No corpus lift builds a tree with several regions or children; this
# model does, so the order a tree pickles its sets in is checked too.
from repro.expr import Var
from repro.memmodel.model import MemModel, MemTree
from repro.smt.solver import Region

regions = [Region(Var(f"p{i}"), 8) for i in range(6)]
tree = MemTree(frozenset(regions[:3]),
               frozenset(MemTree.leaf(region) for region in regions[3:]))
model = MemModel(frozenset({tree}), frozenset(regions[3:]))
blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
out["payloads"]["tree"] = hashlib.sha256(blob).hexdigest()
print(json.dumps(out))
"""


def _report_under_seed(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join((os.path.join(REPO, "src"), REPO)))
    out = subprocess.run([sys.executable, "-c", _REPORTER], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout)


def test_reports_and_graphs_do_not_depend_on_the_hash_seed():
    # Replay reports, graphs and lift-result pickle bytes alike.
    first, *others = (_report_under_seed(seed) for seed in (1, 2, 3))
    replays = first["replays"]
    assert all(len(replays[name]["checks"]) > 10 for name in replays)
    assert len(first["payloads"]) == 10
    for other in others:
        assert other == first
