"""Symbolic memory access: reads and writes routed through the memory model.

Writes record ``*[a, n] == value`` valuation clauses in the predicate and
drop every clause the write may invalidate, as directed by the memory
model's (possibly forked) relations.  Reads consult, in order: the
valuation clauses, the destroyed set, and finally *initial* memory — binary
sections for constant addresses, ``Deref`` terms for epoch-0 symbolic
addresses, epoch-tagged unknowns after an external call has havocked
memory.

Every imprecision degrades to a fresh havoc variable, never to a wrong
value: that is the overapproximation contract.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.elf import Binary
from repro.expr import Const, Deref, Expr, Var, simplify as s
from repro.memmodel import MemModel, relation_in_model
from repro.pred import Predicate
from repro.smt.linear import difference, linearize
from repro.smt.solver import (
    Region,
    Relation,
    decide_relation,
    is_stack_pointer,
    region_key,
)
from repro.semantics.state import LiftContext, SymState


def _relation(
    state: SymState, r0: Region, r1: Region
) -> Relation | None:
    """Relation per the model's structure, falling back to the solver."""
    relation = relation_in_model(state.model, r0, r1)
    if relation is not None:
        return relation
    return decide_relation(r0, r1, state.pred).relation


def _overlaps_destroyed(state: SymState, region: Region) -> bool:
    return any(
        decide_relation(region, other, state.pred).relation
        is not Relation.SEPARATE
        for other in state.model.destroyed
    )


def read_region(state: SymState, region: Region, ctx: LiftContext) -> Expr:
    """The symbolic value of ``*[region]`` in *state* (always succeeds;
    unknown contents become fresh variables)."""
    width = region.size * 8
    if _overlaps_destroyed(state, region):
        return ctx.names.fresh("havoc", width)

    for key, value in state.pred.mem:
        relation = _relation(state, region, key)
        if relation is Relation.SEPARATE:
            continue
        if relation is Relation.ALIAS:
            return s.low(value, width) if value.width > width else value
        if relation is Relation.ENCLOSED:
            offset = difference(region.addr, key.addr)
            if offset.is_const and offset.const + region.size <= key.size:
                shifted = s.shr(value, Const(8 * offset.const), key.size * 8)
                return s.low(shifted, width)
            return ctx.names.fresh("havoc", width)
        # ENCLOSES or unknown: the tracked value only partially covers us.
        return ctx.names.fresh("havoc", width)

    return _initial_read(state, region, ctx)


def _initial_read(state: SymState, region: Region, ctx: LiftContext) -> Expr:
    """Read memory never (visibly) written by the lifted code."""
    width = region.size * 8
    linear = linearize(region.addr)
    if linear.is_const:
        addr = linear.const
        binary = ctx.binary
        section = binary.section_at(addr)
        in_section = section is not None and addr + region.size <= section.end
        if in_section and not section.writable:
            return Const(
                int.from_bytes(binary.read(addr, region.size), "little"), width
            )
        if (
            in_section
            and section.writable
            and ctx.trust_data
            and state.epoch == 0
        ):
            return Const(
                int.from_bytes(binary.read(addr, region.size), "little"), width
            )
        if state.epoch > 0:
            # Globals were havocked by an opaque call: unknown value.
            return ctx.names.fresh("mem", width)
        return Deref(region.addr, region.size)
    if is_stack_pointer(region.addr) or state.epoch == 0:
        # The local frame survives external calls (calling convention);
        # any epoch-0 address still denotes initial memory.
        return Deref(region.addr, region.size)
    return ctx.names.fresh("mem", width)


def write_region(
    state: SymState, region: Region, value: Expr, ctx: LiftContext
) -> Predicate:
    """Predicate after storing *value* at *region*.

    Valuation clauses the write may touch are dropped; an aliasing clause is
    replaced.  The memory model is expected to already contain *region*
    (step Σ inserts operand regions before calling τ)."""
    kept = [
        (key, old) for key, old in state.pred.mem
        if _relation(state, region, key) is Relation.SEPARATE
    ]
    # ALIAS is replaced below; ENCLOSED/ENCLOSES/unknown clobber the
    # clause (a precise byte-merge would also be sound, but clobbering
    # is simpler and only loses precision).
    width = region.size * 8
    if value.width > width:
        value = s.low(value, width)
    # The kept clauses are still in region_key order: insert the new one
    # after any that render alike, where a stable re-sort would put it.
    at = bisect_right(kept, region_key(region), key=_entry_key)
    kept.insert(at, (region, value))
    pred = state.pred
    return Predicate(pred.regs, pred.flags, tuple(kept), pred.clauses)


def _entry_key(entry: tuple[Region, Expr]) -> str:
    return region_key(entry[0])


def havoc_non_stack(state: SymState, ctx: LiftContext, keep=None,
                    epoch: int = 1) -> SymState:
    """External-call cleaning (Section 4.2.1): keep only local-stack-frame
    clauses and model trees; everything else (heap, globals) is destroyed.

    *keep* optionally admits additional non-stack regions (``keep(region)
    -> bool``): the pointer-summary feedback passes the callee's
    disjointness test here so clauses a callee provably cannot write
    survive the cleaning.  *epoch* is the post-call taint value — 1 by
    default; a caller may pass ``state.epoch`` when the callee provably
    writes no non-local memory at all."""
    kept_mem = {
        key: value
        for key, value in state.pred.mem
        if is_stack_pointer(key.addr) or (keep is not None and keep(key))
    }
    kept_trees = frozenset(
        tree for tree in state.model.trees
        if all(
            is_stack_pointer(r.addr) or (keep is not None and keep(r))
            for r in tree.all_regions()
        )
    )
    pred = state.pred.with_mem(kept_mem)
    model = MemModel(kept_trees, state.model.destroyed)
    # epoch is a taint bit ("globals are no longer initial"), not a counter:
    # a counter would ascend at every call inside a loop and block the
    # join fixpoint.  It must never decrease.
    return SymState(
        pred=pred, model=model, epoch=max(epoch, state.epoch),
        reachable=state.reachable,
    )
