"""τ's once-per-operand plumbing against the bodies it replaced.

:func:`repro.semantics.tau.step` evaluates each memory operand through a
memo (:func:`repro.semantics.tau.eval_mem_region`), writes registers by
replacing one entry of the name-sorted register tuple
(:meth:`repro.pred.Predicate.with_reg`), and inserts a written memory
valuation at its place in ``region_key`` order
(:func:`repro.semantics.memory.write_region`).  The bodies they replaced
evaluated every operand afresh and rebuilt and re-sorted a dict per write;
they are kept below as references.  Every ``step`` of real lifts is run
twice, once with the references patched in, and the two must agree by
value and by rendering, fresh-name counter included.

The QA τ faults patch :func:`repro.semantics.tau.mem_addr_expr`,
``_alu`` and ``condition_clause``; the last test checks that each still
changes a lift after the operand memo is warm.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import random
import sys

import pytest

import repro.hoare.lifter as lifter_mod
import repro.semantics.tau as tau
from repro.expr import Const, simplify as s
from repro.hoare import lift, lift_function
from repro.isa.registers import family_of, reg_width
from repro.minicc import compile_source
from repro.perf import cache_stats, reset_caches
from repro.pred import Predicate
from repro.isa import Reg
from repro.qa import diffsweep, faults
from repro.qa.targets import build_target, target_names
from repro.smt.solver import Region, Relation
from tests.test_ascent_probe import digest
from tests.test_join_digests import BUDGETS, stratum_tasks

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Each QA τ fault and a QA target whose lift it changes (no one target
#: shows all three: ``frame`` has no branch, ``guard`` no ``add`` by an
#: immediate).
TAU_FAULTS = {"tau-add-imm-off-by-one": "frame",
              "tau-jcc-cond-swap": "guard",
              "tau-mem-disp-off-by-one": "frame"}


# -- the replaced bodies -------------------------------------------------------


def _reference_eval_mem_region(mem, instr, pred):
    addr = pred.eval(tau.mem_addr_expr(mem, instr))
    if addr is None:
        return None
    return Region(addr, mem.width // 8)


def _reference_with_reg(pred, name, value):
    regs = pred.reg_dict()
    if value is None:
        regs.pop(name, None)
    else:
        regs[name] = value
    return pred.with_regs(regs)


def _reference_write_reg(pred, name, value):
    family = family_of(name)
    regs = pred.reg_dict()
    width = reg_width(name)
    if value is None:
        regs.pop(family, None)
        return pred.with_regs(regs)
    if width == 64:
        regs[family] = value
    elif width == 32:
        regs[family] = s.zext(s.low(value, 32) if value.width > 32 else value, 64)
    else:
        old = regs.get(family)
        if old is None:
            regs.pop(family, None)
            return pred.with_regs(regs)
        keep_mask = ~((1 << width) - 1)
        narrowed = s.low(value, width) if value.width > width else value
        regs[family] = s.or_(
            s.and_(old, Const(keep_mask)), s.zext(narrowed, 64)
        )
    return pred.with_regs(regs)


def _reference_advance(pred, instr):
    regs = pred.reg_dict()
    regs["rip"] = Const(instr.end)
    return pred.with_regs(regs)


def _reference_write_region(state, region, value, ctx):
    from repro.semantics.memory import _relation

    new_mem = {}
    for key, old in state.pred.mem:
        relation = _relation(state, region, key)
        if relation is Relation.SEPARATE:
            new_mem[key] = old
    width = region.size * 8
    if value.width > width:
        value = s.low(value, width)
    new_mem[region] = value
    return state.pred.with_mem(new_mem)


@contextlib.contextmanager
def _reference_plumbing():
    patches = [
        (tau, "eval_mem_region", _reference_eval_mem_region),
        (tau, "_write_reg", _reference_write_reg),
        (tau, "_advance", _reference_advance),
        (tau, "write_region", _reference_write_region),
        (Predicate, "with_reg", _reference_with_reg),
    ]
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, value in patches:
        setattr(obj, name, value)
    try:
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


# -- every step of real lifts ------------------------------------------------------


def _rendered(successors) -> list:
    return [(str(succ.state), [str(a) for a in succ.assumptions],
             [str(e) for e in succ.events]) for succ in successors]


@pytest.fixture
def checked_steps(monkeypatch):
    """Route the lifter's ``step`` through the reference comparison; yields
    the list of checked instructions."""
    step = tau.step
    checked = []

    def compared_step(state, instr, ctx):
        names = ctx.names
        counter = names._counter
        with _reference_plumbing():
            want = step(state, instr, ctx)
        want_counter, names._counter = names._counter, counter
        got = step(state, instr, ctx)
        assert names._counter == want_counter, instr
        assert got == want, instr
        assert _rendered(got) == _rendered(want), instr
        checked.append(instr)
        return got

    monkeypatch.setattr(lifter_mod, "step", compared_step)
    return checked


def _serve_programs() -> list:
    """The tiny serve-relift draw at seed 1: the warm-up program and the
    four the measured stream lifts."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    rng = random.Random("serve-relift:1")
    return [compile_source(workloads.serve_program(index, rng),
                           name=f"p{index}") for index in range(5)]


def test_qa_targets_step_as_the_reference(checked_steps):
    for name in target_names():
        lift(build_target(name), cache=False)
    assert len(checked_steps) > 50


def test_join_strata_step_as_the_reference(checked_steps):
    for _, binary, function in stratum_tasks().values():
        if function is None:
            lift(binary, cache=False, **BUDGETS)
        else:
            lift_function(binary, function, cache=False, **BUDGETS)
    assert {"lea", "push", "pop", "leave", "ret"} \
        <= {instr.mnemonic for instr in checked_steps}
    assert cache_stats()["semantics.operand"]["hits"] > 0


def test_serve_relift_programs_step_as_the_reference(checked_steps):
    for binary in _serve_programs():
        lift(binary, cache=False)
    assert len(checked_steps) > 100


def test_sweep_forms_step_as_the_reference(checked_steps):
    # The differential sweep's one-instruction programs reach what the
    # compiled corpus does not: sub-register writes, string and rep
    # operations, xchg, cmov and set.
    for form in diffsweep.forms():
        body, _ = form.build(random.Random(f"2022:{form.name}"))
        cc = body[1] if isinstance(body, tuple) else None
        lift(diffsweep._build_binary(None if cc else body, cc), cache=False)
    assert {"mov", "movzx", "xchg", "rep_stosb", "movsq", "lodsb"} \
        <= {instr.mnemonic for instr in checked_steps}
    assert any(op.width < 64 for instr in checked_steps
               for op in instr.operands[:1] if isinstance(op, Reg))


def test_with_reg_equals_the_dict_update():
    pred = Predicate.make(regs={"rax": Const(1), "rcx": Const(2),
                                "rip": Const(3)})
    for name in ("rax", "rbx", "rcx", "rdi", "rip", "zz", "a"):
        for value in (Const(7), None):
            got = pred.with_reg(name, value)
            want = _reference_with_reg(pred, name, value)
            assert got == want and got.regs == want.regs


# -- the τ fault seams still bite with warm memos ------------------------------------


@pytest.mark.parametrize("fault", sorted(TAU_FAULTS))
def test_tau_fault_changes_a_warm_lift(fault):
    target = build_target(TAU_FAULTS[fault])
    reset_caches()
    baseline = digest(lift(target, cache=False))
    assert digest(lift(target, cache=False)) == baseline
    assert cache_stats()["semantics.operand"]["size"] > 0
    with faults.inject(fault):
        # inject() starts from empty memos: the operand memo is registered.
        assert cache_stats()["semantics.operand"]["size"] == 0
        faulty = digest(lift(target, cache=False))
    assert faulty != baseline
    assert digest(lift(target, cache=False)) == baseline
