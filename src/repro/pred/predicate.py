"""Symbolic predicates: valuation clauses, relational clauses, and the join.

A predicate (Section 3.1) is a set of clauses ``E □ C``.  For efficiency we
split it by clause shape:

* ``regs``    — equality clauses ``reg == C`` (one per 64-bit register
  family, plus ``rip``); a missing entry is the paper's ⊥ (unknown value);
* ``mem``     — equality clauses ``*[a, n] == C`` for written regions;
* ``flags``   — the operation that last set the status flags;
* ``clauses`` — the remaining relational clauses (branch conditions,
  range-abstraction bounds from joins).

The join implements Definition 3.3 / Example 3.4: equality clauses for the
same part with different constants merge into range bounds over a
deterministic *join variable*; everything else incomparable is dropped.
Per part the abstraction ladder is  exact value → bounded join variable →
unbounded join variable.  The middle rung can ascend forever (a counter's
hull grows by one stride per join), so the join alone does not terminate:
the lifter jumps to the top rung with :func:`widen_predicate`, after
``widen_after`` changing joins at a vertex or as soon as an ascent probe
shows that no guard caps the loop (:mod:`repro.hoare.ascent`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from repro.expr import (
    App,
    Const,
    Deref,
    EvalEnv,
    EvalError,
    Expr,
    RegRef,
    Var,
    compile_expr,
    mask,
    substitute,
)
from repro.expr.ast import expr_key, variable_names
from repro.expr.simplify import add as simplify_add, mul as _mul
from repro.obs.metrics import metrics as _M
from repro.obs.tracer import tracer as _T
from repro.perf import register_cache, register_lru
from repro.pred.clause import Clause, compile_clause, intersect_intervals
from repro.pred.flags import FlagState
from repro.smt.intervals import Interval
from repro.smt.linear import linearize
from repro.smt.solver import Region, expr_interval, region_key


def simplify_mul(term: Expr, coeff: int, width: int) -> Expr:
    return _mul(term, Const(coeff, width), width)


class _ClauseBounds:
    """BoundsProvider over one clause set."""

    def __init__(self, clauses):
        self.clauses = clauses

    def interval_of(self, term: Expr) -> Interval | None:
        interval = intersect_intervals(term, self.clauses)
        return None if interval.is_top else interval


@dataclass(frozen=True)
class Predicate:
    """An immutable symbolic predicate."""

    regs: tuple[tuple[str, Expr], ...] = ()
    flags: FlagState | None = None
    mem: tuple[tuple[Region, Expr], ...] = ()
    clauses: frozenset[Clause] = frozenset()

    # -- constructors -------------------------------------------------------
    @staticmethod
    def make(
        regs: dict[str, Expr] | None = None,
        flags: FlagState | None = None,
        mem: dict[Region, Expr] | None = None,
        clauses=frozenset(),
    ) -> "Predicate":
        return Predicate(
            regs=tuple(sorted((regs or {}).items())),
            flags=flags,
            mem=tuple(sorted((mem or {}).items(),
                             key=lambda kv: region_key(kv[0]))),
            clauses=frozenset(clauses),
        )

    def __hash__(self) -> int:
        # Same value the generated frozen-dataclass hash would produce,
        # cached on first use: memo keys hash whole predicates, and the
        # field walk (17 register pairs plus mem regions) is measurable at
        # that frequency.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.regs, self.flags, self.mem, self.clauses))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # Rebuild from the four fields only.  The cached hash is salted
        # per process and must not travel, nor need the other per-instance
        # caches (rip, variable names); the clauses go in a fixed order
        # so the pickled bytes do not depend on the hash seed either.
        return (_rebuild_predicate, (
            self.regs, self.flags, self.mem,
            tuple(sorted(self.clauses, key=_clause_sort_key)),
        ))

    # -- views ---------------------------------------------------------------
    def reg_dict(self) -> dict[str, Expr]:
        return dict(self.regs)

    def mem_dict(self) -> dict[Region, Expr]:
        return dict(self.mem)

    def get_reg(self, name: str) -> Expr | None:
        for reg, value in self.regs:
            if reg == name:
                return value
        return None

    @property
    def rip(self) -> Expr | None:
        # Cached: the lifter asks every state for its rip several times.
        try:
            return self.__dict__["_rip"]
        except KeyError:
            rip = self.get_reg("rip")
            object.__setattr__(self, "_rip", rip)
            return rip

    # -- functional updates ----------------------------------------------------
    def with_regs(self, regs: dict[str, Expr]) -> "Predicate":
        return Predicate(regs=tuple(sorted(regs.items())), flags=self.flags,
                         mem=self.mem, clauses=self.clauses)

    def with_reg(self, name: str, value: Expr | None) -> "Predicate":
        """This predicate with register *name* valued *value*, or unvalued
        when *value* is None.  Equal to :meth:`with_regs` of the updated
        dict, without the dict: one entry of the name-sorted tuple is
        replaced, inserted or removed in place."""
        regs = self.regs
        i = bisect_left(regs, name, key=_reg_name)
        found = i < len(regs) and regs[i][0] == name
        if value is None:
            if not found:
                return self
            regs = regs[:i] + regs[i + 1:]
        else:
            regs = regs[:i] + ((name, value),) + regs[i + 1 if found else i:]
        return Predicate(regs, self.flags, self.mem, self.clauses)

    def with_mem(self, mem: dict[Region, Expr]) -> "Predicate":
        return Predicate(
            regs=self.regs, flags=self.flags,
            mem=tuple(sorted(mem.items(), key=lambda kv: region_key(kv[0]))),
            clauses=self.clauses,
        )

    def with_flags(self, flags: FlagState | None) -> "Predicate":
        return Predicate(regs=self.regs, flags=flags, mem=self.mem,
                         clauses=self.clauses)

    def with_clause(self, clause: Clause) -> "Predicate":
        return Predicate(regs=self.regs, flags=self.flags, mem=self.mem,
                         clauses=self.clauses | {clause})

    def with_clauses(self, clauses) -> "Predicate":
        return Predicate(regs=self.regs, flags=self.flags, mem=self.mem,
                         clauses=self.clauses | frozenset(clauses))

    # -- evaluation (Definition 4.1) ---------------------------------------------
    def eval(self, expr: Expr) -> Expr | None:
        """Map an expression over current registers to a constant expression.

        Returns None (the paper's ⊥) when some register is unvalued.
        """
        missing = False

        def resolve(node: Expr) -> Expr | None:
            nonlocal missing
            if isinstance(node, RegRef):
                value = self.get_reg(node.name)
                if value is None:
                    missing = True
                    return node
                return value
            return None

        result = substitute(expr, resolve)
        return None if missing else result

    # -- solver integration ---------------------------------------------------
    def interval_of(self, term: Expr) -> Interval | None:
        """BoundsProvider hook: interval implied by relational clauses.

        Handles one level of transitivity through variable bounds:
        ``i ≤ n`` with ``n ≤ 15`` caps ``i`` at 15 (the variable-bounded
        loop shape).  Memoized on ``(term, clauses)``: predicates are
        immutable and the solver asks for the same term's bounds on every
        relation query it fingerprints."""
        return _interval_of_cached(term, self.clauses)

    # -- concrete satisfaction: s ⊢ P --------------------------------------------
    def holds(self, env: EvalEnv, read_current=None) -> bool:
        """Check every clause of the predicate in a concrete environment.

        ``env.read_mem`` is the *initial* memory (what ``Deref`` denotes);
        *read_current* reads the state's current memory for checking the
        ``*[a, n] == C`` valuation clauses (defaults to ``env.read_mem``,
        which is correct before any store has executed).
        """
        return compile_predicate(self)(env, read_current)

    def __str__(self) -> str:
        parts = [f"{reg} == {value}" for reg, value in self.regs]
        parts += [f"*{region} == {value}" for region, value in self.mem]
        parts += [str(clause) for clause in sorted(self.clauses, key=str)]
        if self.flags is not None:
            parts.append(str(self.flags))
        return "{" + ", ".join(parts) + "}"


_reg_name = itemgetter(0)


def _rebuild_predicate(regs, flags, mem, clauses) -> Predicate:
    return Predicate(regs, flags, mem, frozenset(clauses))


def _clause_sort_key(clause: Clause) -> tuple:
    return (str(clause), clause.width, clause.lhs.width, clause.rhs.width)


@lru_cache(maxsize=1 << 12)
def compile_predicate(pred: Predicate):
    """A closure ``(env, read_current) -> bool`` deciding ``s ⊢ P`` (memoized).

    Registers, then memory valuations, then relational clauses, each check
    stopping at the first that fails.  The clauses go in
    :func:`_clause_sort_key` order, a function of the clause set alone, so a
    memo hit on an equal predicate checks them in the same order."""
    regs = tuple((reg, compile_expr(value), mask(value.width))
                 for reg, value in pred.regs)
    mem = tuple((compile_expr(region.addr), region.size,
                 compile_expr(value), mask(value.width))
                for region, value in pred.mem)
    clauses = tuple(compile_clause(clause) for clause
                    in sorted(pred.clauses, key=_clause_sort_key))

    def check(env: EvalEnv, read_current) -> bool:
        if read_current is None:
            read_current = env.read_mem
        try:
            for reg, value_fn, m in regs:
                expected = value_fn(env)
                actual = env.registers.get(reg)
                if actual is None or (actual & m) != expected:
                    return False
            for addr_fn, size, value_fn, m in mem:
                if read_current is None:
                    return False
                actual = read_current(addr_fn(env), size)
                if (actual & m) != value_fn(env):
                    return False
            for clause_fn in clauses:
                if not clause_fn(env):
                    return False
        except EvalError:
            return False
        return True

    return check


register_lru("pred.compiled", compile_predicate)


@lru_cache(maxsize=1 << 16)
def _interval_of_cached(term: Expr, clauses: frozenset) -> Interval | None:
    interval = intersect_intervals(term, clauses)
    half = 1 << (term.width - 1)
    for clause in clauses:
        normalized = clause.normalized()
        if normalized.lhs != term or isinstance(normalized.rhs, Const):
            continue
        rhs_interval = intersect_intervals(normalized.rhs, clauses)
        if rhs_interval.is_top:
            continue
        op = normalized.op
        if op == "leu":
            capped = interval.intersect(Interval(0, rhs_interval.hi))
        elif op == "ltu" and rhs_interval.hi > 0:
            capped = interval.intersect(Interval(0, rhs_interval.hi - 1))
        elif op in ("les", "lts") and rhs_interval.hi < half \
                and interval.hi < half:
            hi = rhs_interval.hi if op == "les" else rhs_interval.hi - 1
            capped = interval.intersect(Interval(0, hi)) if hi >= 0 else None
        elif op == "geu":
            capped = interval.intersect(
                Interval(rhs_interval.lo, (1 << term.width) - 1)
            )
        else:
            continue
        if capped is not None:
            interval = capped
    return None if interval.is_top else interval


register_lru("pred.interval_of", _interval_of_cached)


# -- the join (Definition 3.3, Example 3.4) -------------------------------------

def _join_values(
    part_name: str,
    rip: int,
    v0: Expr | None,
    v1: Expr | None,
    bounds0: frozenset[Clause],
    bounds1: frozenset[Clause],
) -> tuple[Expr | None, tuple[Clause, ...]]:
    """Join two valuations of one state part (memoized).

    The result is a pure function of the values and of the clauses the
    join can read: those whose normalized left-hand side is a term in
    :func:`_join_shape`'s term set.  The memo keys on that projection of
    each side's clause set, not on the whole set, which changes on every
    fixpoint iteration while the projected part settles."""
    if v0 is None or v1 is None:
        return None, ()
    if v0 is v1:
        terms: tuple[Expr, ...] = (v0,)  # only v0's own bounds are read
    else:
        terms = _join_shape(part_name, rip, v0, v1).terms
    return _join_values_cached(part_name, rip, v0, v1,
                               _project(bounds0, terms),
                               _project(bounds1, terms))


@lru_cache(maxsize=1 << 16)
def _join_values_cached(
    part_name: str,
    rip: int,
    v0: Expr,
    v1: Expr,
    proj0: frozenset[Clause],
    proj1: frozenset[Clause],
) -> tuple[Expr | None, tuple[Clause, ...]]:
    value, clauses = _join_values_impl(part_name, rip, v0, v1, proj0, proj1)
    return value, tuple(clauses)


def _project(clauses: frozenset[Clause], terms) -> frozenset[Clause]:
    """The clauses whose normalized left-hand side is one of *terms*."""
    index = _clause_index(clauses)
    if not index:
        return _NO_CLAUSES
    groups = [index[term] for term in terms if term in index]
    if not groups:
        return _NO_CLAUSES
    return frozenset(clause for group in groups for clause in group)


_NO_CLAUSES: frozenset[Clause] = frozenset()


class _ClauseIndex(dict):
    """``normalized().lhs -> clauses`` for one clause set, plus
    ``join_vars``: the join variables among the keys, in key order."""

    __slots__ = ("join_vars",)


@lru_cache(maxsize=1 << 12)
def _clause_index(clauses: frozenset[Clause]) -> _ClauseIndex:
    """``normalized().lhs -> clauses`` for one clause set.  A predicate's
    clause set is projected once per joined part, so the index is shared
    by every part of a join and by later joins of the same predicate;
    the foreign-variable rule reads its join variables."""
    index: dict[Expr, list[Clause]] = {}
    for clause in clauses:
        lhs = clause.lhs
        if isinstance(lhs, Const) and not isinstance(clause.rhs, Const):
            lhs = clause.rhs  # clause.normalized().lhs
        index.setdefault(lhs, []).append(clause)
    out = _ClauseIndex((lhs, tuple(group)) for lhs, group in index.items())
    out.join_vars = tuple(lhs for lhs in out if isinstance(lhs, Var)
                          and lhs.name.startswith("join@"))
    return out


register_lru("pred.clause_index", _clause_index)


class _JoinShape(NamedTuple):
    """The clause-independent part of joining two distinct values."""

    join_var: Var
    width: int
    #: The linear part both values share, in ``expr_key`` order.
    common: tuple[tuple[Expr, int], ...]
    #: What is left of each side once the common part is taken out.
    resid0: Expr
    resid1: Expr
    #: Every term whose bounds the join reads: both values, the join
    #: variable, and the linear terms (and ``zext`` arguments) of the
    #: residuals that :func:`expr_interval` bounds.
    terms: tuple[Expr, ...]


@lru_cache(maxsize=1 << 16)
def _join_shape(part_name: str, rip: int, v0: Expr, v1: Expr) -> _JoinShape:
    """Split *v0* and *v1* into a common linear part and two residuals."""
    # Range abstraction over *linear offsets* (the general form of Example
    # 3.4): when the two values share their symbolic part and differ by a
    # bounded residual, the join is ``common + OFF`` with interval-bounded
    # OFF.  Plain constants are the special case with an empty common part.
    join_var = Var(f"join@{rip:#x}@{part_name}")
    width = v0.width if v0.width == v1.width else 64
    lin0, lin1 = linearize(v0, width), linearize(v1, width)
    d0, d1 = lin0.term_dict(), lin1.term_dict()
    # The part's own join variable never belongs to the common part: a
    # self-referential value (the loop-increment shape ``X`` ⊔ ``X + 1``)
    # folds X into both residuals instead, re-deriving X's interval per
    # side — the new incarnation of X absorbs the increment.
    common = {
        t: co for t, co in d0.items() if d1.get(t) == co and t != join_var
    }

    def residual(lin, terms) -> Expr:
        expr: Expr = Const(lin.const, width)
        for term, coeff in terms.items():
            if common.get(term) != coeff:
                expr = simplify_add(expr, simplify_mul(term, coeff, width),
                                    width)
        return expr

    resid0, resid1 = residual(lin0, d0), residual(lin1, d1)
    terms = {v0: None, v1: None, join_var: None}
    for resid in (resid0, resid1):
        if isinstance(resid, Const):
            continue
        for term, _ in linearize(resid).terms:
            terms[term] = None
            if isinstance(term, App) and term.op == "zext":
                terms[term.args[0]] = None
    return _JoinShape(join_var, width,
                      tuple(sorted(common.items(),
                                   key=lambda kv: expr_key(kv[0]))),
                      resid0, resid1, tuple(terms))


register_lru("pred.join_shape", _join_shape)


def _join_values_impl(
    part_name: str,
    rip: int,
    v0: Expr,
    v1: Expr,
    bounds0: frozenset[Clause],
    bounds1: frozenset[Clause],
) -> tuple[Expr | None, list[Clause]]:
    """Join two valuations of one state part.

    The ladder: equal exprs stay; two constants become a bounded join
    variable; anything else becomes the (unbounded) join variable.  The join
    variable's name is a deterministic function of (rip, part), so repeated
    joins at the same program point reuse it: the ladder has three rungs,
    though the bounded rung's hulls may ascend (see the module docstring).
    """
    if v0 == v1:
        if not isinstance(v0, Var):
            return v0, []
        # Merge the two sides' bound clauses *semantically*: the interval
        # hull.  (A raw set intersection would drop everything whenever the
        # two sides carry different-generation bounds for the same
        # variable, losing e.g. a loop counter's `>= 0`.)
        own0 = frozenset(c for c in bounds0 if c.lhs == v0)
        own1 = frozenset(c for c in bounds1 if c.lhs == v0)
        if own0 == own1:
            return v0, list(own0)
        hull = intersect_intervals(v0, own0).union(
            intersect_intervals(v0, own1)
        )
        width = v0.width
        bounds = []
        if hull.lo > 0:
            bounds.append(Clause(v0, "geu", Const(hull.lo, width), width))
        if hull.hi < (1 << width) - 1:
            bounds.append(Clause(v0, "leu", Const(hull.hi, width), width))
        return v0, bounds
    shape = _join_shape(part_name, rip, v0, v1)
    join_var, width = shape.join_var, shape.width
    resid0, resid1 = shape.resid0, shape.resid1
    iv0 = expr_interval(resid0, _ClauseBounds(bounds0))
    iv1 = expr_interval(resid1, _ClauseBounds(bounds1))
    if iv0.is_top or iv1.is_top:
        return join_var, []

    prior: Interval | None = None
    prior_clauses: list[Clause] = []
    other_iv: Interval | None = None
    if resid0 == join_var:
        prior = iv0
        prior_clauses = [c for c in bounds0 if c.lhs == join_var]
        other_iv = iv1
    elif resid1 == join_var:
        prior = iv1
        prior_clauses = [c for c in bounds1 if c.lhs == join_var]
        other_iv = iv0

    value = join_var
    for term, coeff in shape.common:
        value = simplify_add(value, simplify_mul(term, coeff, width), width)

    if prior is not None and other_iv is not None:
        if other_iv.intersect(prior) == other_iv:
            return value, prior_clauses  # contained: fixpoint
        # Grow to the exact interval hull.  An ascending chain of hulls is
        # possible (an unbounded counter); termination is enforced one
        # level up — the lifter widens a vertex to unbounded join variables
        # after a fixed number of joins, or at once in a loop whose ascent
        # probe finds no guard capping it (see repro.hoare.ascent).
        hull = prior.union(other_iv)
        clauses: list[Clause] = []
        if hull.lo > 0:
            clauses.append(Clause(join_var, "geu", Const(hull.lo, width), width))
        if hull.hi < mask(width):
            clauses.append(Clause(join_var, "leu", Const(hull.hi, width), width))
        return value, clauses

    hull = iv0.union(iv1)
    clauses: list[Clause] = []
    if hull.lo > 0:
        clauses.append(Clause(join_var, "geu", Const(hull.lo, width), width))
    if hull.hi < mask(width):
        clauses.append(Clause(join_var, "leu", Const(hull.hi, width), width))
    return value, clauses


def join_predicates(p0: Predicate, p1: Predicate, rip: int) -> Predicate:
    """``P ⊔ Q`` at program point *rip*.

    Soundness: every produced clause is implied by P and by Q (for the join
    variables: under *some* assignment, in each).  Information only drops.

    One merge pass walks the two sides' sorted registers (by name) and
    memory valuations (by :func:`region_key`) and builds the result in
    order; when both sides hold the same register names (the common
    case) the registers are walked pairwise.  A part whose two values are
    the same object is answered on the spot (:func:`_identity_part`,
    inlined for registers); only the other parts reach the value join and
    its memo.
    """
    clauses0, clauses1 = p0.clauses, p1.clauses
    index0, index1 = _clause_index(clauses0), _clause_index(clauses1)
    extra_clauses: list[Clause] = []

    # Parts holding the *same pair* of values on the two sides stay equal
    # after the join: they share one join variable.  (A register that was
    # just loaded from a stack slot keeps its equality with the slot, so a
    # branch bound on the register also bounds the slot.)
    pair_cache: dict[tuple[Expr, Expr], tuple[Expr | None, tuple]] = {}

    def join_pair(v0: Expr, v1: Expr, part: str | Region):
        # *part* names a register or the flags, or is a memory region,
        # whose name is rendered only for a part the value join sees.
        if v0 is v1 and _identity_part(v0, index0, index1):
            _IDENTITY_ANSWERS[0] += 1
            return v0, ()
        key = (v0, v1)
        joined = pair_cache.get(key)
        if joined is None:
            if isinstance(part, Region):
                part = f"mem@{region_key(part)}"
            joined = pair_cache[key] = _join_values(
                part, rip, v0, v1, clauses0, clauses1)
        return joined

    new_regs: list[tuple[str, Expr]] = []
    regs0, regs1 = p0.regs, p1.regs
    if not _same_names(regs0, regs1):
        regs0, regs1 = _common_regs(regs0, regs1)
    identical = 0
    for (name, v0), (_, v1) in zip(regs0, regs1):
        if v0 is v1 and (not isinstance(v0, Var) or (  # _identity_part
                v0 not in index0 and v0 not in index1)):
            identical += 1
            new_regs.append((name, v0))
            continue
        value, bounds = join_pair(v0, v1, name)
        if value is not None:
            new_regs.append((name, value))
            extra_clauses += bounds
    _IDENTITY_ANSWERS[0] += identical

    new_mem: list[tuple[Region, Expr]] = []
    for region, v0, v1 in _merge_mem(p0.mem, p1.mem):
        if v0 is not None and v1 is not None:
            value, bounds = join_pair(v0, v1, region)
            if value is not None:
                new_mem.append((region, value))
                extra_clauses += bounds
                continue
        # Written on at least one path with diverging/unknown value: the
        # region stays *tracked* (its initial contents must not be
        # re-read) but its value is existentially unknown.
        new_mem.append((region, Var(f"mjoin@{rip:#x}@{region_key(region)}")))

    # Flags join through the same pair mechanism: when both sides' flags
    # come from the same kind of operation, joining the operand values
    # (sharing join variables with any register/slot holding the same
    # pair) keeps branch conditions — and hence loop bounds — alive
    # across iterations.
    flags = None
    f0, f1 = p0.flags, p1.flags
    if f0 == f1:
        flags = f0
    elif (
        f0 is not None and f1 is not None
        and f0.kind == f1.kind and f0.width == f1.width
    ):
        joined_a, bounds_a = join_pair(f0.a, f1.a, "flags.a")
        if f0.b is None and f1.b is None:
            joined_b, bounds_b = None, ()
            b_ok = True
        elif f0.b is not None and f1.b is not None:
            joined_b, bounds_b = join_pair(f0.b, f1.b, "flags.b")
            b_ok = joined_b is not None
        else:
            joined_b, bounds_b, b_ok = None, (), False
        if joined_a is not None and b_ok:
            flags = FlagState(f0.kind, joined_a, joined_b, f0.width)
            extra_clauses += [*bounds_a, *bounds_b]

    # Non-join-variable clauses (branch conditions over program values)
    # survive iff present on both sides — plain intersection.  (The sets
    # are changed with difference and union, which reuse the hashes their
    # members already carry.)
    shared = clauses0 & clauses1
    stale = [clause for clause in shared if _is_join_bound(clause)]
    if stale:
        shared = shared.difference(stale)
    clauses = shared.union(
        _join_foreign_var_clauses(p0, p1, f"join@{rip:#x}@"), extra_clauses)
    result = Predicate(tuple(new_regs), flags, tuple(new_mem), clauses)
    # Garbage-collect bounds on join variables no longer referenced by any
    # valuation: they constrain nothing, and letting stale generations
    # accumulate would keep the state changing forever (no fixpoint).
    bounds = [clause for clause in clauses if _is_join_bound(clause)]
    if bounds:
        live = _kept_valuation_names(result, p0, p1)
        if flags is not None:
            live = live.union(*(variable_names(operand)
                                for operand in (flags.a, flags.b)
                                if operand is not None))
        dead = [clause for clause in bounds if clause.lhs.name not in live]
        if dead:
            result = _replace_clauses(result, clauses.difference(dead))
    if _T.enabled:
        _T.emit_sampled("pred.join", rip,
                        clauses=len(result.clauses),
                        regs=len(result.regs), mem=len(result.mem))
        _M.observe("pred.join.clauses", len(result.clauses))
    return result


def _identity_part(value: Expr, index0: dict, index1: dict) -> bool:
    """True iff joining *value* with itself gives *value* and no bounds.

    A non-variable joins to itself.  A variable does too when neither
    side's clause index holds a clause over it: the value join's
    ``v0 == v1`` rung then finds no bound on either side to hull.  Such
    answers are exact, so they count as hits of the value-join memo."""
    return not isinstance(value, Var) or (
        value not in index0 and value not in index1)


def _same_names(regs0: tuple, regs1: tuple) -> bool:
    """True iff both sides value the same registers."""
    if len(regs0) != len(regs1):
        return False
    for (name0, _), (name1, _) in zip(regs0, regs1):
        if name0 != name1:
            return False
    return True


def _common_regs(regs0: tuple, regs1: tuple) -> tuple[list, list]:
    """The entries of the registers both sides value, aligned by name:
    one merge pass over the two name-sorted tuples."""
    common0: list[tuple[str, Expr]] = []
    common1: list[tuple[str, Expr]] = []
    i = j = 0
    while i < len(regs0) and j < len(regs1):
        name, other = regs0[i][0], regs1[j][0]
        if name == other:
            common0.append(regs0[i])
            common1.append(regs1[j])
            i += 1
            j += 1
        elif name < other:
            i += 1
        else:
            j += 1
    return common0, common1


def _merge_mem(mem0: tuple, mem1: tuple):
    """``(region, v0, v1)`` for every region of either side, in
    :func:`region_key` order; a side without the region gives None.

    Regions are matched with ``==``: equal regions need not be the same
    object.  Keys are rendered only where the two sides differ.  Distinct
    regions that render alike (the same address rendering at different
    widths) need a tie-break: where the two sides list such regions in
    the same order, that order stays; where they differ, both sides' runs
    of regions with that rendering come out in ``repr`` order."""
    i = j = 0
    while i < len(mem0) and j < len(mem1):
        (r0, v0), (r1, v1) = mem0[i], mem1[j]
        if r0 is r1 or r0 == r1:
            yield r0, v0, v1
            i += 1
            j += 1
            continue
        key = region_key(r0)
        other = region_key(r1)
        if key < other:
            yield r0, v0, None
            i += 1
        elif other < key:
            yield r1, None, v1
            j += 1
        else:
            i_end, j_end = i, j
            while i_end < len(mem0) and region_key(mem0[i_end][0]) == key:
                i_end += 1
            while j_end < len(mem1) and region_key(mem1[j_end][0]) == key:
                j_end += 1
            run0, run1 = dict(mem0[i:i_end]), dict(mem1[j:j_end])
            for region in sorted(run0.keys() | run1.keys(), key=repr):
                yield region, run0.get(region), run1.get(region)
            i, j = i_end, j_end
    for region, v0 in mem0[i:]:
        yield region, v0, None
    for region, v1 in mem1[j:]:
        yield region, None, v1


def _is_join_bound(clause: Clause) -> bool:
    lhs = clause.lhs
    return isinstance(lhs, Var) and lhs.name.startswith("join@")


#: Part joins :func:`_identity_part` answered: the hits the value-join
#: memo's registered statistics add to its own.
_IDENTITY_ANSWERS = [0]


def _join_values_stats() -> dict:
    info = _join_values_cached.cache_info()
    return {"hits": info.hits + _IDENTITY_ANSWERS[0], "misses": info.misses,
            "size": info.currsize}


def _join_values_clear() -> None:
    _join_values_cached.cache_clear()
    _IDENTITY_ANSWERS[0] = 0


register_cache("pred.join_values", _join_values_stats, _join_values_clear)


def _referenced_var_names(pred: Predicate) -> frozenset[str]:
    """Variable names occurring in the predicate's valuations (cached on
    the predicate, which every join of it on either side asks again)."""
    names = pred.__dict__.get("_refnames")
    if names is None:
        names = frozenset().union(
            *(variable_names(value) for _, value in pred.regs),
            *(variable_names(region.addr) for region, _ in pred.mem),
            *(variable_names(value) for _, value in pred.mem))
        object.__setattr__(pred, "_refnames", names)
    return names


def _kept_valuation_names(result: Predicate, p0: Predicate,
                          p1: Predicate) -> frozenset[str]:
    """:func:`_referenced_var_names` of a join *result*.  Mostly the join
    keeps one side's valuations as they were; that side's names are then
    the result's, already computed."""
    for side in (p1, p0):
        if result.regs == side.regs and result.mem == side.mem:
            names = _referenced_var_names(side)
            object.__setattr__(result, "_refnames", names)
            return names
    return _referenced_var_names(result)


def _replace_clauses(pred: Predicate, clauses: frozenset[Clause]) -> Predicate:
    """*pred* with another clause set.  The valuations stay, and so do
    their cached variable names."""
    out = Predicate(pred.regs, pred.flags, pred.mem, clauses)
    names = pred.__dict__.get("_refnames")
    if names is not None:
        object.__setattr__(out, "_refnames", names)
    return out


def _join_foreign_var_clauses(
    p0: Predicate, p1: Predicate, own_prefix: str
) -> frozenset[Clause]:
    """Join bound clauses on join variables minted at *other* vertices.

    Per variable: both sides bound it → interval hull (implied by each
    side); one side bounds it and the other side never references it → the
    bound is kept (the variable is free there, any witness works); one side
    bounds it but the other references it → dropped (unknown value)."""
    def foreign(clauses: frozenset[Clause]) -> dict[Var, list[Clause]]:
        index = _clause_index(clauses)
        out: dict[Var, list[Clause]] = {}
        for var in index.join_vars:
            if not var.name.startswith(own_prefix):
                # The group also holds ``C op var`` clauses; keep ``var op C``.
                bounds = [clause for clause in index[var]
                          if isinstance(clause.lhs, Var)]
                if bounds:
                    out[var] = bounds
        return out

    by_var0, by_var1 = foreign(p0.clauses), foreign(p1.clauses)
    if not by_var0 and not by_var1:
        return frozenset()

    def free_in(var: Var, side: int) -> bool:
        return var.name not in _references((p0, p1)[side])

    kept: set[Clause] = set()
    for var in set(by_var0) | set(by_var1):
        clauses0, clauses1 = by_var0.get(var), by_var1.get(var)
        if clauses0 and clauses1:
            hull = intersect_intervals(var, clauses0).union(
                intersect_intervals(var, clauses1)
            )
            width = var.width
            if hull.lo > 0:
                kept.add(Clause(var, "geu", Const(hull.lo, width), width))
            if hull.hi < mask(width):
                kept.add(Clause(var, "leu", Const(hull.hi, width), width))
        elif clauses0 and free_in(var, 1):
            kept.update(clauses0)
        elif clauses1 and free_in(var, 0):
            kept.update(clauses1)
    return frozenset(kept)


def _references(pred: Predicate) -> frozenset[str]:
    """Every variable name *pred* can pin (cached on the predicate).

    "Free on this side" must consider *every* place the predicate can pin
    the variable: valuations, flags operands (a branch on joined flags
    constrains them), and compound clause expressions.  Missing the flags
    made a kept one-sided bound contradict the other path's flag state —
    an unsound (unsatisfiable) join."""
    names = pred.__dict__.get("_refs")
    if names is None:
        names = _referenced_var_names(pred)
        flags = pred.flags
        operands = () if flags is None else (flags.a, flags.b)
        extra = [found for found in (
            *(variable_names(operand) for operand in operands
              if operand is not None),
            *(variable_names(clause.lhs) for clause in pred.clauses
              if not isinstance(clause.lhs, Var)),
            *(variable_names(clause.rhs) for clause in pred.clauses
              if not isinstance(clause.rhs, Const)),
        ) if not found <= names]
        if extra:  # else share the valuations' set: no copy per predicate
            names = names.union(*extra)
        object.__setattr__(pred, "_refs", names)
    return names


def less_abstract(p0: Predicate, p1: Predicate, rip: int) -> bool:
    """``p0 ⊑ p1`` iff ``p0 ⊔ p1 == p1`` (the derived partial order)."""
    return join_predicates(p0, p1, rip) == p1


def widen_predicate(pred: Predicate) -> Predicate:
    """Drop every bound clause on join variables: the terminal rung of the
    range-abstraction ladder.  Applied by the lifter on a vertex's changing
    joins past ``widen_after``, and on every changing join of a loop whose
    ascent probe committed, guaranteeing termination of ascending interval
    hulls (unbounded loop counters)."""
    kept = frozenset(
        clause for clause in pred.clauses
        if not (isinstance(clause.lhs, Var) and clause.lhs.name.startswith("join@"))
    )
    return _replace_clauses(pred, kept)
