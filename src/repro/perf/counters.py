"""Global hot-path performance counters.

The lifter's hot loops (expression interning, the canonical-sum memo, the
SMT verdict cache, state joins) increment plain integer slots on a single
module-level :data:`counters` object.  Increment sites are guarded by
``counters.enabled`` so a disabled counter set costs one attribute load and
a branch — cheap enough to leave in production code paths.

This module is intentionally dependency-free: every layer of the stack
imports it, so it must import nothing from :mod:`repro`.
"""

from __future__ import annotations


class PerfCounters:
    """A bag of integer counters for the lifter's hot paths."""

    _FIELDS = (
        "expr_new",              # interned expression nodes constructed
        "intern_hits",           # constructor calls served from the tables
        "solver_hits",           # SMT verdict cache hits
        "solver_misses",
        "lift_joins",            # vertex joins that actually changed a state
        "cache_lift_hits",       # persistent lift-store hits
        "cache_lift_misses",     # persistent lift-store misses
        "cache_lift_stores",     # persistent lift-store writes
        "pointer_refined_havocs",  # cleaning havocs that kept extra clauses
    )

    __slots__ = _FIELDS + ("enabled",)

    def __init__(self) -> None:
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        """Zero every counter (does not touch ``enabled``)."""
        for name in self._FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain dict copy of the current counter values."""
        return {name: getattr(self, name) for name in self._FIELDS}

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        """Counter-wise ``after - before``."""
        return {name: after[name] - before.get(name, 0) for name in after}

    @staticmethod
    def merge(into: dict[str, int], other: dict[str, int]) -> dict[str, int]:
        """Counter-wise accumulate *other* into *into* (returns *into*)."""
        for name, value in other.items():
            into[name] = into.get(name, 0) + value
        return into


#: The process-global counter set.  Hot sites call ``gated("name")``.
counters = PerfCounters()


def gated(counter: str, n: int = 1) -> None:
    """Increment ``counters.<counter>`` by *n* iff counters are enabled.

    The shared guard idiom: one enabled check, then the increment.  At the
    measured site frequencies (~3.7M interning calls over a ~170s scale-3
    lift) the call overhead versus an inlined guard is <0.3% of lift time,
    so every increment site uses this helper instead of copy-pasting the
    ``if counters.enabled: counters.x += 1`` pattern.  Unknown counter
    names raise ``AttributeError`` (the counter set is slotted).
    """
    c = counters
    if c.enabled:
        setattr(c, counter, getattr(c, counter) + n)

