"""Symbolic states and the lifting context.

A symbolic state (a Hoare-graph vertex, Definition 3.2) pairs a predicate
with a memory model.  The extra fields support the paper's extensions:
``epoch`` counts external-call havocs (so post-call reads get fresh-but-
deterministic unknowns) and ``reachable`` implements Section 4.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elf import Binary
from repro.expr import Const, Expr, Var
from repro.memmodel import MemModel, join_models
from repro.pred import Predicate, join_predicates
from repro.smt.solver import Region


class NameGen:
    """Deterministic fresh-name source for havoc variables."""

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, prefix: str, width: int = 64) -> Var:
        count = self._counter
        self._counter = count + 1
        return Var(f"{prefix}%{count}", width)


@dataclass
class LiftContext:
    """Everything τ needs besides the state itself."""

    binary: Binary
    names: NameGen = field(default_factory=NameGen)
    #: Whole-binary mode may read initial .data bytes; library mode may not.
    trust_data: bool = True


@dataclass(frozen=True)
class SymState:
    """A Hoare-graph vertex: predicate × memory model (+ bookkeeping)."""

    pred: Predicate
    model: MemModel
    #: Bumped when an external call (or unknown write) havocs memory.
    epoch: int = 0
    #: Known-reachable flag (Section 4.2.2: post-call states start False).
    reachable: bool = True

    @property
    def rip(self) -> int | None:
        value = self.pred.rip
        if isinstance(value, Const):
            return value.value
        return None

    # The functional updates construct directly: ``dataclasses.replace``
    # walks the field list on every call, and τ calls these per step.
    def with_pred(self, pred: Predicate) -> "SymState":
        return SymState(pred, self.model, self.epoch, self.reachable)

    def with_model(self, model: MemModel) -> "SymState":
        return SymState(self.pred, model, self.epoch, self.reachable)

    def mark_reachable(self, flag: bool = True) -> "SymState":
        return SymState(self.pred, self.model, self.epoch, flag)

    def __str__(self) -> str:
        return f"⟨{self.pred}, {self.model}, epoch={self.epoch}⟩"


def initial_state(entry: int, ret_symbol: Var | None = None) -> SymState:
    """The paper's σ_I: rsp = rsp0, *[rsp0, 8] = return symbol, rip = entry.

    All other registers hold their initial-value variables (``rdi0``...).
    """
    from repro.isa.registers import GPR64

    from repro.memmodel import MemTree

    regs: dict[str, Expr] = {"rip": Const(entry)}
    for reg in GPR64:
        regs[reg] = Var(f"{reg}0")
    mem: dict[Region, Expr] = {}
    trees: frozenset = frozenset()
    if ret_symbol is not None:
        ret_region = Region(Var("rsp0"), 8)
        mem[ret_region] = ret_symbol
        # The return-address region is tracked in the memory model from the
        # start: every later insertion decides (or forks) its relation to
        # it, so separation from the frame survives joins *structurally*.
        trees = frozenset({MemTree.leaf(ret_region)})
    return SymState(
        pred=Predicate.make(regs=regs, mem=mem), model=MemModel(trees)
    )


def join_states(s0: SymState, s1: SymState, rip: int) -> SymState:
    """Definition 3.15: component-wise join."""
    return SymState(
        pred=join_predicates(s0.pred, s1.pred, rip),
        model=join_models(s0.model, s1.model),
        epoch=max(s0.epoch, s1.epoch),
        reachable=s0.reachable or s1.reachable,
    )


def states_equal(s0: SymState, s1: SymState) -> bool:
    return (s0.epoch == s1.epoch and s0.pred == s1.pred
            and s0.model == s1.model)


def changed_parts(s0: SymState, s1: SymState) -> tuple[str, ...]:
    """The components in which *s1* differs from *s0*, in a fixed order:
    ``regs``, ``mem``, ``flags`` and ``clauses`` of the predicate, then the
    memory ``model`` and the ``epoch``."""
    p0, p1 = s0.pred, s1.pred
    return tuple(name for name, a, b in (
        ("regs", p0.regs, p1.regs), ("mem", p0.mem, p1.mem),
        ("flags", p0.flags, p1.flags), ("clauses", p0.clauses, p1.clauses),
        ("model", s0.model, s1.model), ("epoch", s0.epoch, s1.epoch),
    ) if a != b)
