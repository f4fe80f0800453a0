"""Decision procedures for the memory-relation queries of Definition 3.6.

The paper discharges "necessarily aliasing / separate / enclosed" queries by
translating pointer expressions to Z3 bit-vectors.  Z3 is not available in
this environment, so this module implements a sound specialized procedure
for the query shapes the lifter produces:

* pointer expressions are put in linear normal form (``Σ cᵢ·tᵢ + k``);
* a **constant difference** decides the relation exactly;
* otherwise the difference is bounded with **interval arithmetic**, where
  term intervals come from the current predicate's clauses (the
  :class:`BoundsProvider` hook);
* two **domain assumptions** — recorded explicitly, never silent — mirror
  the implicit assumptions the paper notes must be exported to Isabelle
  (Section 5.2):

  - *stack/global separation*: pointers into the local stack frame
    (linear in ``rsp0``) do not overlap constant-address global regions;
  - *access alignment*: an ``n``-byte access (n ∈ {1,2,4,8}) is ``n``-
    aligned, so two differently-based accesses never *partially* overlap —
    they alias, enclose, or are separate.  This is what lets the lifter
    fork a clean aliasing/separation case split (Figure 1) instead of
    destroying memory; for non-power-of-two regions the fork is abandoned
    and memory is destroyed, as in Section 1.

Every answer is either a proven relation, a set of *possible* relations to
fork over, or "may partially overlap" (→ destroy).  Unknown never becomes a
claim: precision can be lost, soundness cannot.
"""

from __future__ import annotations

import enum
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol

from repro.expr.ast import App, Const, Deref, Expr, MASK64, Var, expr_key
from repro.expr.simplify import sub
from repro.obs.metrics import metrics as _M
from repro.obs.profile import phases as _phases
from repro.obs.tracer import tracer as _T
from repro.perf import register_cache, register_lru
from repro.perf.counters import gated as _gated
from repro.smt.intervals import TOP, Interval, from_width, singleton
from repro.smt.linear import Linear, difference, linearize


class Relation(enum.Enum):
    """The four total region relations of Definition 3.6."""

    ALIAS = "≡"
    SEPARATE = "⋈"
    ENCLOSED = "⪯"   # r0 within r1
    ENCLOSES = "⪰"   # r1 within r0

    def flipped(self) -> "Relation":
        if self is Relation.ENCLOSED:
            return Relation.ENCLOSES
        if self is Relation.ENCLOSES:
            return Relation.ENCLOSED
        return self


@dataclass(frozen=True)
class Region:
    """A memory region ``[addr, size]``: constant-expression address, byte size."""

    addr: Expr
    size: int

    #: The cached hash sits in a slot beside the instance dict, which
    #: keeps only the fields.
    __slots__ = ("__dict__", "__weakref__", "_hash")

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash, cached on first use:
        # regions key the memory valuations and the model's region index.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.addr, self.size))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # The fields only: the cached hash is salted per process and stays
        # out of pickles, so a region pickles to the same bytes hashed or not.
        return self.__dict__

    def __str__(self) -> str:
        return f"[{self.addr}, {self.size}]"


@lru_cache(maxsize=1 << 16)
def region_key(region: Region) -> str:
    """Memoized ``str(region)`` for deterministic sort keys.

    Rendering an expression tree is linear in its size; predicates sort
    their memory valuations on every functional update, so the string is
    worth caching (regions are interned-expression keyed and long-lived)."""
    return str(region)


register_lru("smt.region_key", region_key)


@dataclass(frozen=True)
class Assumption:
    """An explicitly recorded assumption the verdict depends on."""

    kind: str  # "stack-global-separation" | "alignment" | ...
    detail: str

    def __str__(self) -> str:
        return f"ASSUME {self.kind}: {self.detail}"


class BoundsProvider(Protocol):
    """Supplies unsigned intervals for non-constant terms (from predicate
    clauses); return ``None`` when nothing is known."""

    def interval_of(self, term: Expr) -> Interval | None: ...


class NoBounds:
    """A BoundsProvider that knows nothing."""

    def interval_of(self, term: Expr) -> Interval | None:
        return None


NO_BOUNDS = NoBounds()

#: The distinguished initial-stack-pointer variable.
STACK_BASE = "rsp0"


def expr_interval(expr: Expr, bounds: BoundsProvider) -> Interval:
    """A conservative unsigned interval for *expr*."""
    if isinstance(expr, Const):
        return singleton(expr.value)
    linear = linearize(expr)
    if linear.is_const:
        return singleton(linear.const)
    total = singleton(linear.const)
    for term, coeff in linear.terms:
        term_iv = _term_interval(term, bounds)
        scaled = term_iv.scale(coeff) if coeff >= 0 else TOP
        total = total.add(scaled)
        if total.is_top:
            return TOP
    return total


def _term_interval(term: Expr, bounds: BoundsProvider) -> Interval:
    provided = bounds.interval_of(term)
    width_iv = from_width(term.width)
    if isinstance(term, App) and term.op == "zext":
        width_iv = from_width(term.args[0].width)
        inner = bounds.interval_of(term.args[0])
        if inner is not None:
            clipped = inner.intersect(width_iv)
            width_iv = clipped if clipped is not None else width_iv
    if provided is None:
        return width_iv
    clipped = provided.intersect(width_iv)
    return clipped if clipped is not None else width_iv


# -- pointer base classification ------------------------------------------------

def pointer_bases(expr: Expr) -> frozenset[Expr]:
    """The non-constant terms a pointer is built from."""
    return frozenset(term for term, _ in linearize(expr).terms)


def is_stack_pointer(expr: Expr) -> bool:
    """Linear in ``rsp0`` with coefficient 1 (a local-frame address)."""
    for term, coeff in linearize(expr).terms:
        if isinstance(term, Var) and term.name == STACK_BASE:
            return coeff == 1
    return False


def is_global_pointer(expr: Expr) -> bool:
    """A concrete constant address (global/rodata/data space)."""
    return linearize(expr).is_const


# -- relation decisions ----------------------------------------------------------

@dataclass(frozen=True)
class Decision:
    """Outcome of a necessary-relation query.

    ``relation`` is a proven Relation or None (unknown); ``assumptions``
    lists the domain assumptions the verdict relies on.
    """

    relation: Relation | None
    assumptions: tuple[Assumption, ...] = ()


def _decide_const_diff(diff: int, n0: int, n1: int) -> Relation | None:
    """Exact relation of [e, n0] and [e+diff, n1] for a known diff (mod 2^64)."""
    diff &= MASK64
    if diff == 0 and n0 == n1:
        return Relation.ALIAS
    # r0 fully before r1 (no wrap of either region into the other).
    if n0 <= diff <= (1 << 64) - n1:
        return Relation.SEPARATE
    back = (1 << 64) - diff  # e0 - e1
    if n1 <= back <= (1 << 64) - n0:
        return Relation.SEPARATE
    # r0 within r1: 0 <= e0-e1 and e0-e1 + n0 <= n1.
    if back <= MASK64 and back + n0 <= n1:
        return Relation.ENCLOSED
    if diff + n1 <= n0:
        return Relation.ENCLOSES
    if diff == 0:
        return Relation.ENCLOSED if n0 <= n1 else Relation.ENCLOSES
    # Anything else partially overlaps; callers treat it as "no total
    # relation", which is exactly what destroy handles.
    return None


# -- verdict cache ---------------------------------------------------------------
#
# Relation queries dominate the lifter's profile: the same (r0, r1) pair is
# re-decided at every re-visit of a store instruction.  Verdicts depend
# only on the two address expressions, the two sizes, and the intervals the
# BoundsProvider supplies for the *terms* of those addresses — every
# interval the decision procedure can consult flows through
# ``bounds.interval_of`` on a term of one of the two (linearized) addresses
# or the ``zext`` argument of such a term.  Keying the cache on that
# fingerprint makes it exact: a verdict that relied on a term having *no*
# bound (a TOP interval) carries ``None`` for that term in its key, so a
# later query under a predicate that does bound the term can never be
# served the stale TOP-dependent verdict.


class VerdictCache:
    """A small LRU mapping query keys to verdicts, with hit/miss counters."""

    def __init__(self, maxsize: int = 1 << 16) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self._data.get(key, _MISSING)
        if entry is _MISSING:
            self.misses += 1
            _gated("solver_misses")
            return _MISSING
        self._data.move_to_end(key)
        self.hits += 1
        _gated("solver_hits")
        return entry

    def put(self, key, value) -> None:
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._data)}


_MISSING = object()
_DECIDE_CACHE = VerdictCache()
_FORK_CACHE = VerdictCache()

register_cache("smt.decide", _DECIDE_CACHE.stats, _DECIDE_CACHE.clear)
register_cache("smt.fork", _FORK_CACHE.stats, _FORK_CACHE.clear)


def reset_solver_caches() -> None:
    """Drop every cached verdict (used by tests and the bench harness)."""
    _DECIDE_CACHE.clear()
    _FORK_CACHE.clear()


def solver_cache_stats() -> dict[str, dict]:
    return {"decide": _DECIDE_CACHE.stats(), "fork": _FORK_CACHE.stats()}


def _bounds_fingerprint(r0: Region, r1: Region,
                        bounds: BoundsProvider) -> tuple:
    """The portion of *bounds* a relation query can observe.

    Every interval the procedures consult comes from
    ``bounds.interval_of(t)`` where ``t`` is a term of ``linearize`` of one
    of the two addresses (or of their canonical difference, whose terms are
    a subset), or the inner argument of such a term when it is a ``zext``
    (see :func:`_term_interval`).  The simplified differences are included
    explicitly: simplification may synthesize terms (e.g. folding a shared
    subtraction) that appear in neither address's own linear form."""
    terms = _fingerprint_terms(r0.addr, r1.addr)
    if not terms:
        return ()
    fingerprint = []
    for term in terms:
        interval = bounds.interval_of(term)
        fingerprint.append(
            (term, None if interval is None else (interval.lo, interval.hi))
        )
    return tuple(fingerprint)


@lru_cache(maxsize=1 << 16)
def _fingerprint_terms(a0: Expr, a1: Expr) -> tuple[Expr, ...]:
    """The terms whose bounds a relation query on (a0, a1) can consult,
    in deterministic order.  Pure in the address pair, so memoized — the
    same pair is re-queried under many different predicates."""
    terms: set[Expr] = set()
    for expr in (a0, a1, sub(a1, a0), sub(a0, a1)):
        for term, _ in linearize(expr).terms:
            terms.add(term)
            if isinstance(term, App) and term.op == "zext":
                terms.add(term.args[0])
    return tuple(sorted(terms, key=expr_key))


register_lru("smt.fingerprint_terms", _fingerprint_terms)

#: Relation queries asked in this process, from the verdict caches or not.
#: A one-slot list, not a rebound global: the semantics fingerprint
#: (:mod:`repro.perf.store`) compares this module's namespace between
#: calls, and a counter rebound on every query would defeat that check.
_queries = [0]


def query_count() -> int:
    """How many relation queries (:func:`decide_relation` and
    :func:`possible_relations` calls) this process has asked.  The memory
    model's insertion memo records how many one insertion asked, so that a
    memo hit can count them again."""
    return _queries[0]


def _decision_verdict(decision: Decision) -> str:
    return "UNKNOWN" if decision.relation is None else decision.relation.name


def _fork_verdict(fork: "Fork") -> str:
    cases = "|".join(relation.name for relation in fork.relations)
    return f"{cases}+PARTIAL" if fork.may_partial else cases


def _query_detail(op: str, r0: Region, r1: Region, verdict: str,
                  assumptions, cached: bool) -> dict:
    detail = dict(op=op, r0=r0, r1=r1, verdict=verdict, cached=cached)
    if assumptions:
        detail["assumptions"] = [a.kind for a in assumptions]
    return detail


def decide_relation(
    r0: Region, r1: Region, bounds: BoundsProvider = NO_BOUNDS
) -> Decision:
    """Try to prove a *necessary* relation between two regions (cached).

    Query volume: the traced seed-1 lift-cold draw of the repository
    benchmark (50 tasks) asks about 26k queries, seven in eight of them
    cache hits.  It asked 159k before the memory model memoized ``ins``,
    whose consistency check re-decided every pair of the forest after
    every insertion; a hit of that memo asks none and counts the queries
    it stands for (:mod:`repro.memmodel.model`).

    Tracing discipline: the hit path pays only the exact-count
    bookkeeping (``_M.inc`` + ``_T.sample``) and builds the event detail
    solely for the 1-in-``sampling`` occurrences that enter the ring.
    Decisions actually computed are always recorded (provenance chains
    cite them) and contribute to the SMT wall-time accumulator.
    """
    _queries[0] += 1
    key = (r0.addr, r0.size, r1.addr, r1.size,
           _bounds_fingerprint(r0, r1, bounds))
    cached = _DECIDE_CACHE.get(key)
    if cached is not _MISSING:
        if _T.enabled:
            _M.inc("smt.queries")
            if _T.sample("smt.query"):
                _T.record("smt.query", _query_detail(
                    "decide", r0, r1, _decision_verdict(cached),
                    cached.assumptions, True))
        return cached
    if _T.enabled:
        # The smt *phase* attributes solver self-time to the pipeline
        # profile; its wall total doubles as the smt.wall timer.
        _phases.start("smt")
        try:
            decision = _decide_relation_uncached(r0, r1, bounds)
        finally:
            wall = _phases.stop()
        _M.inc("smt.queries")
        _M.add_time("smt.wall", wall)
        _T.emit("smt.query", **_query_detail(
            "decide", r0, r1, _decision_verdict(decision),
            decision.assumptions, False))
    else:
        decision = _decide_relation_uncached(r0, r1, bounds)
    _DECIDE_CACHE.put(key, decision)
    return decision


def _decide_relation_uncached(
    r0: Region, r1: Region, bounds: BoundsProvider = NO_BOUNDS
) -> Decision:
    """The actual decision procedure behind :func:`decide_relation`."""
    diff = difference(r1.addr, r0.addr)  # e1 - e0
    if diff.is_const:
        relation = _decide_const_diff(diff.const, r0.size, r1.size)
        return Decision(relation)

    # Interval reasoning on the difference, both directions.
    forward = expr_interval(sub(r1.addr, r0.addr), bounds)
    if not forward.is_top:
        if forward.lo >= r0.size and forward.hi <= (1 << 64) - r1.size:
            return Decision(Relation.SEPARATE)
        if forward.hi == 0 and forward.lo == 0 and r0.size == r1.size:
            return Decision(Relation.ALIAS)
        if forward.hi + r1.size <= r0.size:
            return Decision(Relation.ENCLOSES)
    backward = expr_interval(sub(r0.addr, r1.addr), bounds)
    if not backward.is_top:
        if backward.lo >= r1.size and backward.hi <= (1 << 64) - r0.size:
            return Decision(Relation.SEPARATE)
        if backward.hi + r0.size <= r1.size:
            return Decision(Relation.ENCLOSED)

    # Domain rule: local stack frame vs. constant-address global space.
    # "Global" includes bounded address *ranges* such as a jump-table access
    # [table + 8*idx, 8] with idx bounded by a branch condition.
    stack0, stack1 = is_stack_pointer(r0.addr), is_stack_pointer(r1.addr)
    global0 = is_global_pointer(r0.addr) or not expr_interval(r0.addr, bounds).is_top
    global1 = is_global_pointer(r1.addr) or not expr_interval(r1.addr, bounds).is_top
    if (stack0 and global1) or (stack1 and global0):
        assumption = Assumption(
            "stack-global-separation",
            f"{r0} and {r1} do not overlap (local frame vs global space)",
        )
        return Decision(Relation.SEPARATE, (assumption,))

    # Domain rule: the function's *private* frame (at or below the return-
    # address slot [rsp0, 8]) vs. externally-derived pointers (arguments,
    # heap values).  Well-formed callers cannot hold addresses into a frame
    # that did not exist before the call; the assumption is recorded, and
    # its violations are exactly the paper's "weird" executions (Sec. 5.3).
    for mine, other in ((r0, r1), (r1, r0)):
        if _is_private_frame_region(mine) and _is_external_pointer(other.addr):
            assumption = Assumption(
                "frame-privacy",
                f"externally-derived {other} does not overlap private frame {mine}",
            )
            return Decision(Relation.SEPARATE, (assumption,))
    return Decision(None)


def _is_private_frame_region(region: Region) -> bool:
    """[rsp0 + c, n] entirely at or below the return-address slot."""
    linear = linearize(region.addr)
    terms = linear.term_dict()
    if len(terms) != 1:
        return False
    (term, coeff), = terms.items()
    if coeff != 1 or not isinstance(term, Var) or term.name != STACK_BASE:
        return False
    offset = linear.const
    if offset >= (1 << 63):
        offset -= 1 << 64
    return offset + region.size <= 8


def _is_external_pointer(addr: Expr) -> bool:
    """Linear in exactly one non-rsp0 variable with coefficient 1."""
    linear = linearize(addr)
    terms = linear.term_dict()
    if len(terms) != 1:
        return False
    (term, coeff), = terms.items()
    return (
        coeff == 1
        and isinstance(term, Var)
        and term.name != STACK_BASE
        and not term.name.startswith("join@")
    )


_POW2_SIZES = frozenset({1, 2, 4, 8})


@dataclass(frozen=True)
class Fork:
    """Outcome of a possible-relations query for an undecided pair.

    ``relations`` are the cases to fork over; ``may_partial`` signals that a
    partial overlap cannot be excluded (→ destroy, Section 1)."""

    relations: tuple[Relation, ...]
    may_partial: bool
    assumptions: tuple[Assumption, ...] = ()


def possible_relations(
    r0: Region, r1: Region, bounds: BoundsProvider = NO_BOUNDS
) -> Fork:
    """Enumerate the relations an undecided pair may stand in (cached)."""
    _queries[0] += 1
    key = (r0.addr, r0.size, r1.addr, r1.size,
           _bounds_fingerprint(r0, r1, bounds))
    cached = _FORK_CACHE.get(key)
    if cached is not _MISSING:
        if _T.enabled:
            _M.inc("smt.queries")
            if _T.sample("smt.query"):
                _T.record("smt.query", _query_detail(
                    "fork", r0, r1, _fork_verdict(cached),
                    cached.assumptions, True))
        return cached
    if _T.enabled:
        _phases.start("smt")
        try:
            fork = _possible_relations_uncached(r0, r1, bounds)
        finally:
            wall = _phases.stop()
        _M.inc("smt.queries")
        _M.add_time("smt.wall", wall)
        _T.emit("smt.query", **_query_detail(
            "fork", r0, r1, _fork_verdict(fork), fork.assumptions, False))
    else:
        fork = _possible_relations_uncached(r0, r1, bounds)
    _FORK_CACHE.put(key, fork)
    return fork


def _possible_relations_uncached(
    r0: Region, r1: Region, bounds: BoundsProvider = NO_BOUNDS
) -> Fork:
    """Enumerate the relations an undecided pair may stand in.

    Under the recorded alignment assumption, power-of-two-sized accesses
    never partially overlap, so the fork is a clean case split."""
    if r0.size in _POW2_SIZES and r1.size in _POW2_SIZES:
        assumption = Assumption(
            "alignment",
            f"{r0} and {r1} are size-aligned accesses (no partial overlap)",
        )
        if r0.size == r1.size:
            cases = (Relation.ALIAS, Relation.SEPARATE)
        elif r0.size < r1.size:
            cases = (Relation.ENCLOSED, Relation.SEPARATE)
        else:
            cases = (Relation.ENCLOSES, Relation.SEPARATE)
        # Drop cases refuted by interval reasoning.
        cases = tuple(
            c for c in cases if not _refuted(c, r0, r1, bounds)
        ) or (Relation.SEPARATE,)
        return Fork(cases, may_partial=False, assumptions=(assumption,))
    return Fork(
        (Relation.ALIAS, Relation.SEPARATE, Relation.ENCLOSED, Relation.ENCLOSES),
        may_partial=True,
    )


def _refuted(relation: Relation, r0: Region, r1: Region,
             bounds: BoundsProvider) -> bool:
    """Can interval reasoning exclude *relation* outright?"""
    forward = expr_interval(sub(r1.addr, r0.addr), bounds)
    if forward.is_top:
        return False
    if relation is Relation.ALIAS:
        return not forward.contains(0)
    if relation is Relation.ENCLOSED:
        # e0 >= e1 requires e1 - e0 to admit a "negative" (wrapped) value or 0.
        return forward.lo > 0 and forward.hi <= MASK64 - (1 << 63)
    return False
