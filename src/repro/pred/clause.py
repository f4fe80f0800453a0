"""Relational clauses ``E □ C`` (Section 3.1).

A clause relates a symbolic expression to another; the lifter produces them
from branch conditions (``ja`` not-taken after ``cmp eax, 0xc3`` yields
``eax0 ≤ 0xc3``).  Clauses whose right-hand side is a constant feed the
solver's interval reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.expr import Const, EvalEnv, Expr, compile_expr, mask, to_signed
from repro.perf import register_lru
from repro.smt.intervals import Interval, TOP, from_width

#: Relations, paper Section 3.1: {=, ≠, <, <s, ≥, ≥s} plus their closures.
OPS = ("eq", "ne", "ltu", "leu", "gtu", "geu", "lts", "les", "gts", "ges")

_NEGATION = {
    "eq": "ne", "ne": "eq",
    "ltu": "geu", "geu": "ltu", "leu": "gtu", "gtu": "leu",
    "lts": "ges", "ges": "lts", "les": "gts", "gts": "les",
}

_FLIP = {  # a OP b  <=>  b FLIP[OP] a
    "eq": "eq", "ne": "ne",
    "ltu": "gtu", "gtu": "ltu", "leu": "geu", "geu": "leu",
    "lts": "gts", "gts": "lts", "les": "ges", "ges": "les",
}


@dataclass(frozen=True)
class Clause:
    """``lhs op rhs``, both constant expressions, compared at ``width`` bits."""

    lhs: Expr
    op: str
    rhs: Expr
    width: int = 64

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown clause relation: {self.op}")

    #: The cached hash sits in a slot beside the instance dict, which
    #: keeps only the fields.
    __slots__ = ("__dict__", "__weakref__", "_hash")

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash, cached on first use:
        # clause sets are built, intersected and differenced on every join.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.lhs, self.op, self.rhs, self.width))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # The fields only: the cached hash is salted per process and stays
        # out of pickles, so a clause pickles to the same bytes hashed or not.
        return self.__dict__

    def negated(self) -> "Clause":
        return Clause(self.lhs, _NEGATION[self.op], self.rhs, self.width)

    def flipped(self) -> "Clause":
        """The same fact with operands swapped."""
        return Clause(self.rhs, _FLIP[self.op], self.lhs, self.width)

    def normalized(self) -> "Clause":
        """Keep the non-constant side on the left when possible."""
        if isinstance(self.lhs, Const) and not isinstance(self.rhs, Const):
            return self.flipped()
        return self

    def holds(self, env: EvalEnv) -> bool:
        """Evaluate the clause in a concrete environment (``s ⊢ clause``)."""
        return compile_clause(self)(env)

    def __str__(self) -> str:
        symbol = {
            "eq": "==", "ne": "!=", "ltu": "<u", "leu": "<=u", "gtu": ">u",
            "geu": ">=u", "lts": "<s", "les": "<=s", "gts": ">s", "ges": ">=s",
        }[self.op]
        return f"{self.lhs} {symbol} {self.rhs}"


_RELATIONS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "ltu": lambda a, b: a < b, "leu": lambda a, b: a <= b,
    "gtu": lambda a, b: a > b, "geu": lambda a, b: a >= b,
}

#: Signed relations and the unsigned relation they apply to signed values.
_SIGNED = {"lts": "ltu", "les": "leu", "gts": "gtu", "ges": "geu"}


@lru_cache(maxsize=1 << 16)
def compile_clause(clause: Clause):
    """A closure ``env -> bool`` checking *clause* (memoized).

    Both sides are evaluated, left first, before comparing."""
    left_fn, right_fn = compile_expr(clause.lhs), compile_expr(clause.rhs)
    width, m = clause.width, mask(clause.width)
    if clause.op in _SIGNED:
        relation = _RELATIONS[_SIGNED[clause.op]]

        def check_signed(env: EvalEnv) -> bool:
            left = left_fn(env)
            return relation(to_signed(left, width),
                            to_signed(right_fn(env), width))

        return check_signed
    relation = _RELATIONS[clause.op]

    def check(env: EvalEnv) -> bool:
        left = left_fn(env) & m
        return relation(left, right_fn(env) & m)

    return check


register_lru("pred.compiled_clause", compile_clause)


def clause_interval(clause: Clause, term: Expr) -> Interval | None:
    """The unsigned interval *clause* imposes on *term*, or None.

    Only unsigned relations against constants are translated; signed
    relations against non-negative constants give the obvious sound bound.
    """
    normalized = clause.normalized()
    if normalized.lhs != term or not isinstance(normalized.rhs, Const):
        return None
    bound = normalized.rhs.value & mask(normalized.width)
    top = from_width(normalized.width)
    half = 1 << (normalized.width - 1)
    op = normalized.op
    if op == "eq":
        return Interval(bound, bound)
    if op == "ltu":
        return Interval(0, bound - 1) if bound else None
    if op == "leu":
        return Interval(0, bound)
    if op == "gtu":
        return Interval(bound + 1, top.hi) if bound < top.hi else None
    if op == "geu":
        return Interval(bound, top.hi)
    if op == "ges" and bound < half:
        # x >=s c with c >= 0: the sign bit is clear, so unsigned
        # x in [c, half-1].
        return Interval(bound, half - 1)
    if op == "gts" and bound + 1 < half:
        return Interval(bound + 1, half - 1)
    return None


def _signed_upper(clause: Clause, term: Expr) -> int | None:
    """The inclusive upper bound from ``x <s c`` / ``x <=s c`` with c >= 0.

    Only sound once the term is known non-negative (handled by the caller's
    second pass)."""
    normalized = clause.normalized()
    if normalized.lhs != term or not isinstance(normalized.rhs, Const):
        return None
    bound = normalized.rhs.value & mask(normalized.width)
    half = 1 << (normalized.width - 1)
    if bound >= half:
        return None
    if normalized.op == "lts":
        return bound - 1 if bound else None
    if normalized.op == "les":
        return bound
    return None


def intersect_intervals(term: Expr, clauses) -> Interval:
    """Intersect every interval the clauses impose on *term*.

    Memoized on ``(term, clauses)``: clause sets are long-lived frozensets
    whose hashes are cached, and the same term is bounded against the same
    predicate's clauses thousands of times per join fixpoint."""
    if type(clauses) is not frozenset:
        clauses = frozenset(clauses)
    return _intersect_cached(term, clauses)


@lru_cache(maxsize=1 << 16)
def _intersect_cached(term: Expr, clauses: frozenset) -> Interval:
    """Two passes: unsigned (and sign-bit-clearing) bounds first, then signed
    upper bounds, which become plain unsigned bounds once the first pass
    has pinned the term below the sign bit.

    Contradictory unsigned bounds give the whole width interval: the
    result must not depend on which clauses the set happens to yield
    before the contradiction (frozenset order follows the hash seed)."""
    width_interval = from_width(term.width)
    result = width_interval
    for clause in clauses:
        bound = clause_interval(clause, term)
        if bound is not None:
            clipped = result.intersect(bound)
            if clipped is None:
                return width_interval  # contradictory; stay conservative
            result = clipped
    half = 1 << (term.width - 1)
    if result.hi < half:
        for clause in clauses:
            upper = _signed_upper(clause, term)
            if upper is not None:
                clipped = result.intersect(Interval(0, upper))
                if clipped is not None:
                    result = clipped
    return result


register_lru("pred.intervals", _intersect_cached)
