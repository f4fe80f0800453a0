"""Ascent probes: spotting a loop-head hull that no guard caps.

The join grows a loop counter's interval hull by one stride per trip
(``[0, 1]``, ``[0, 2]``, …).  Without a guard that caps it, the ascent
only stops when the lifter widens the vertex after ``widen_after`` joins
(INTERNALS §7), so an unguarded counter costs that many trips of τ and
join.  The lifter therefore *probes* the ascent at a loop head: it
extrapolates every grown hull to the hull plain iteration would hold when
the fallback fires, explores one more trip, and looks at what reaches the
head.  This module holds the pure part of that probe: which hulls a join
grew, and their extrapolation.  The speculation itself (snapshot,
decision, rollback) lives in :class:`repro.hoare.lifter._Lifter`.

A *hull* is the interval the ``>=u``/``<=u`` constant bound clauses give
one of the vertex's own join variables (``join@<rip>@<part>``).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.expr import Const, Var, mask
from repro.pred import Predicate
from repro.pred.clause import Clause, intersect_intervals
from repro.semantics import SymState
from repro.smt.intervals import Interval

#: The bound clauses that make up a hull.
_HULL_OPS = ("geu", "leu")


class Growth(NamedTuple):
    """One hull's growth across a join."""

    before: Interval
    after: Interval
    #: The width the hull's clauses compare at.
    width: int

    @property
    def stride(self) -> tuple[int, int]:
        """How far the low and the high end moved."""
        return self.before.lo - self.after.lo, self.after.hi - self.before.hi


def _split(clauses, own_prefix: str) -> tuple[dict[Var, list], frozenset]:
    """Own-variable hull clauses by variable, and every other clause."""
    hulls: dict[Var, list[Clause]] = {}
    rest = []
    for clause in clauses:
        lhs = clause.lhs
        if (isinstance(lhs, Var) and lhs.name.startswith(own_prefix)
                and clause.op in _HULL_OPS and isinstance(clause.rhs, Const)):
            hulls.setdefault(lhs, []).append(clause)
        else:
            rest.append(clause)
    return hulls, frozenset(rest)


def grown_hulls(old: SymState, new: SymState, rip: int) -> dict[Var, Growth]:
    """The own join-variable hulls that grew from *old* to *new*.

    Empty unless the join only grew hulls: the epoch, memory model,
    valuations, flags and every other clause are the same on both sides,
    and each hull of *new* contains the one of *old*.  Maps each strictly
    grown variable to its growth."""
    if (old.epoch != new.epoch or old.model != new.model
            or old.pred.regs != new.pred.regs or old.pred.mem != new.pred.mem
            or old.pred.flags != new.pred.flags):
        return {}
    own_prefix = f"join@{rip:#x}@"
    old_hulls, old_rest = _split(old.pred.clauses, own_prefix)
    new_hulls, new_rest = _split(new.pred.clauses, own_prefix)
    if old_rest != new_rest:
        return {}
    grown: dict[Var, Growth] = {}
    for var in set(old_hulls) | set(new_hulls):
        before = intersect_intervals(var, old_hulls.get(var, ()))
        after = intersect_intervals(var, new_hulls.get(var, ()))
        if after.intersect(before) != before:
            return {}  # shrank or moved: not an ascent
        if after != before:
            if var not in new_hulls:
                return {}  # the join dropped the hull: nothing to stride
            # The join writes a hull at the width of the joined values,
            # which may be narrower than the variable's.
            grown[var] = Growth(before, after, new_hulls[var][0].width)
    return grown


def extrapolate(state: SymState, grown: dict[Var, Growth],
                trips: int) -> tuple[SymState, dict[str, tuple[int, int]]]:
    """*state* with every grown hull pushed *trips* more strides out.

    A hull that grew from ``[lo, hi]`` to ``[lo - a, hi + b]`` becomes
    ``[lo - a - a·trips, hi + b + b·trips]``, clipped to the width its
    clauses compare at.  Returns the new state and the extrapolated bounds by variable
    name."""
    replaced = set()
    added = []
    bounds: dict[str, tuple[int, int]] = {}
    for var in sorted(grown, key=lambda var: var.name):
        after, width = grown[var].after, grown[var].width
        down, up = grown[var].stride
        lo = max(0, after.lo - down * trips)
        hi = min(mask(width), after.hi + up * trips)
        replaced.add(var)
        if lo > 0:
            added.append(Clause(var, "geu", Const(lo, width), width))
        if hi < mask(width):
            added.append(Clause(var, "leu", Const(hi, width), width))
        bounds[var.name] = (lo, hi)
    kept = frozenset(
        clause for clause in state.pred.clauses
        if not (clause.lhs in replaced and clause.op in _HULL_OPS
                and isinstance(clause.rhs, Const))
    )
    pred = state.pred
    return state.with_pred(Predicate(
        regs=pred.regs, flags=pred.flags, mem=pred.mem,
        clauses=kept | frozenset(added),
    )), bounds


def steps_on(grown: dict[Var, Growth],
             strides: dict[Var, tuple[int, int]]) -> bool:
    """True iff some hull in *grown* moved on by at most the stride it had
    when it was extrapolated (*strides*): a linear ascent that went on
    past the extrapolation.  A hull that jumps further (a doubling value,
    a counter stepped by another) proves nothing about where plain
    iteration would stand, so it does not count."""
    for var, growth in grown.items():
        down, up = growth.stride
        max_down, max_up = strides.get(var, (0, 0))
        if down <= max_down and up <= max_up:
            return True
    return False
