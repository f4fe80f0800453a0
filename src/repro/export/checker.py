"""Independent validation of Hoare triples (the Step-2 substitute).

The paper discharges each edge's Hoare triple in Isabelle/HOL by symbolic
execution of formally-defined instruction semantics.  Isabelle cannot run
in this environment, so validation is performed by **concrete-witness
replay**: for every edge group ``{P} instr {Q₁ ∨ ... ∨ Qₙ}``,

1. sample concrete machine states satisfying the precondition ``P``
   (rejection sampling guided by the predicate's clauses and the memory
   model's aliasing structure, checked with the formal ``s ⊢ P`` and
   ``s ⊢ M`` judgements);
2. execute the labelled instruction on the *independent* concrete emulator
   (:mod:`repro.machine`, a separate implementation from τ);
3. check that the resulting state satisfies some disjunct ``Qᵢ``.

Trust argument: τ and the emulator share no code; a bug in τ that produces
a wrong postcondition is caught unless it conspires with an identical bug
in the emulator.  Edges that *compose* function contracts (call edges into
context-free callees and external stubs) cannot be replayed concretely and
are reported as ``assumed`` — exactly the proof obligations the paper also
leaves as assumptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.expr import (
    MASK64, EvalEnv, EvalError, Var, compile_expr, mask, to_signed,
    variables_of,
)
from repro.hoare import LiftResult
from repro.hoare.graph import VertexKey
from repro.hoare.resolve import is_return_symbol
from repro.isa.registers import GPR64
from repro.machine import CPU, Memory
from repro.machine.cpu import FLAGS
from repro.memmodel import MemModel, model_holds
from repro.obs.metrics import metrics as _M
from repro.obs.tracer import tracer as _T
from repro.perf import collector_paused
from repro.pred.clause import compile_clause
from repro.pred.predicate import _clause_sort_key
from repro.semantics import SymState
from repro.smt.linear import linearize
from repro.smt.solver import region_key

#: The four triple statuses, in reporting order.
STATUSES = ("proven", "assumed", "untested", "FAILED")

#: Where witness stacks live.
WITNESS_STACK = 0x7FF0_0000_0000
#: Recognizable return-address sentinel.
RETURN_SENTINEL = 0x1D_EAD0_0000
#: Scratch area for symbolic pointer bases.
SCRATCH_BASE = 0x6000_0000


@dataclass
class TripleCheck:
    """Validation outcome for one edge group {P} instr {∨ Q}."""

    src: VertexKey
    instr_addr: int
    status: str          # "proven" | "assumed" | "untested" | "FAILED"
    witnesses: int = 0
    detail: str = ""


@dataclass
class CheckReport:
    checks: list[TripleCheck] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for check in self.checks if check.status == status)

    @property
    def proven(self) -> int:
        return self.count("proven")

    @property
    def assumed(self) -> int:
        return self.count("assumed")

    @property
    def untested(self) -> int:
        return self.count("untested")

    @property
    def failed(self) -> int:
        return self.count("FAILED")

    @property
    def all_proven(self) -> bool:
        """Every replayable triple proven; none failed."""
        return self.failed == 0 and self.proven + self.assumed == len(self.checks)

    def status_counts(self) -> dict[str, int]:
        """All four statuses, zero-filled — the rollup/report shape."""
        return {status: self.count(status) for status in STATUSES}

    def summary(self) -> str:
        return (
            f"{len(self.checks)} triples: {self.proven} proven, "
            f"{self.assumed} assumed (call composition), "
            f"{self.untested} untested, {self.failed} FAILED"
        )


class _WitnessSampler:
    """The witness plan of one symbolic state.

    Everything a witness needs that depends on the state alone is worked
    out here once: the variables in sampling order with how each is drawn,
    each guided variable's own clauses, the aliasing moves, the compiled
    register and memory valuations, the flags closure and the residual
    precondition (:meth:`residual_holds`).  :func:`check_triples` builds
    one plan per ``(source, instruction)`` group, so a witness attempt only
    draws values and runs compiled expressions.

    The plan must not change what an attempt draws: every attempt calls
    the rng exactly as sampling from the state directly did, in the same
    order (both ``randint`` calls of a guided value, the lazy byte draws of
    the initial-memory reader, the random registers and flag bits).  The
    witnesses, and so every report, depend on that sequence.  Bounded and
    guided values are drawn with :func:`_randint_bits`, the
    ``getrandbits`` calls ``randint`` makes, without its frames.
    """

    def __init__(self, state: SymState):
        self.state = state
        self.rip = state.rip or 0
        pred = state.pred
        # Each variable's own clauses, in the order of the state's clause
        # set: _guided_value stops at the first clause that cannot be
        # evaluated, so the order can change a draw.
        own: dict = {}
        for clause in pred.clauses:
            own.setdefault(clause.normalized().lhs, []).append(clause)
        #: (name, kind, data) in sampling order: a fixed value, a bounded
        #: value (interval start, randint bits), or a guided value with
        #: or without own-clause checks.
        self.variables = [self._variable_plan(var, own.get(var, ()))
                          for var in sorted(self._collect_vars(), key=str)]
        #: Forced aliasing: (anchor address, [(variable, constant)]) per
        #: node of several regions; each move sets the variable so that
        #: ``variable + constant`` lands on the anchor's address.
        self.alias_moves = [self._alias_plan(group)
                            for group in self._alias_groups()]
        valued: dict[str, Callable] = {}
        #: The residual precondition (see residual_holds): the register
        #: valuations construction does not write, as (register, value,
        #: mask of its width).
        self.check_regs = []
        for reg, value in pred.regs:
            if reg in GPR64 and reg not in valued:
                valued[reg] = compile_expr(value)
            else:
                self.check_regs.append((reg, compile_expr(value),
                                        mask(value.width)))
        #: (register, compiled value or None for a random one), GPR64 order.
        self.regs = tuple((reg, valued.get(reg)) for reg in GPR64)
        #: (address, value, size, mask of size bytes, mask of the value's
        #: width) per memory valuation.
        self.mem = tuple((compile_expr(region.addr), compile_expr(value),
                          region.size, (1 << (8 * region.size)) - 1,
                          mask(value.width))
                         for region, value in pred.mem)
        #: Bytes the memory valuations write when no two of them overlap.
        self.mem_bytes = sum(region.size for region, _ in pred.mem)
        #: Some value is wider than its region: the store truncates it,
        #: and reading it back need not give the value.
        self.mem_wide = any(value.width > 8 * region.size
                            for region, value in pred.mem)
        #: Every relational clause, in the order Predicate.holds checks them.
        self.check_clauses = tuple(
            compile_clause(clause)
            for clause in sorted(pred.clauses, key=_clause_sort_key))
        #: ``env -> flags`` from the recorded flag state, or None.
        self.flags = (None if pred.flags is None
                      else _compile_flags(pred.flags))

    def _collect_vars(self) -> set[Var]:
        pred = self.state.pred
        exprs = [value for _, value in pred.regs]
        for region, value in pred.mem:
            exprs += (region.addr, value)
        for clause in pred.clauses:
            exprs += (clause.lhs, clause.rhs)
        if pred.flags is not None:
            exprs += (operand for operand in (pred.flags.a, pred.flags.b)
                      if operand is not None)
        exprs += (region.addr for region in self.state.model.all_regions())
        return set().union(*map(variables_of, exprs))

    def _variable_plan(self, var: Var, own_clauses) -> tuple:
        """How *var* is drawn; *own_clauses* are the state's clauses
        whose normalized left side is *var*."""
        name = var.name
        if name == "rsp0":
            return name, _FIXED, WITNESS_STACK
        if is_return_symbol(var) or name == "ret0":
            return name, _FIXED, RETURN_SENTINEL
        interval = self.state.pred.interval_of(var)
        if interval is not None and interval.size() < (1 << 32):
            return name, _BOUNDED, (interval.lo,
                                    *_randint_bits(interval.lo, interval.hi))
        if own_clauses:
            return name, _GUIDED, tuple(map(compile_clause, own_clauses))
        return name, _FREE, None

    def _alias_groups(self) -> list[list]:
        """Region groups the memory model forces to alias."""
        groups = []
        stack = list(reversed(list(self.state.model.trees)))
        while stack:
            tree = stack.pop()
            if len(tree.regions) > 1:
                groups.append(sorted(tree.regions, key=region_key))
            stack.extend(reversed(list(tree.children)))
        return groups

    @staticmethod
    def _alias_plan(group: list) -> tuple:
        moves = []
        for other in group[1:]:
            linear = linearize(other.addr)
            terms = linear.term_dict()
            if len(terms) == 1:
                (term, coeff), = terms.items()
                if coeff == 1 and isinstance(term, Var):
                    moves.append((term.name, linear.const))
        return compile_expr(group[0].addr), moves

    def sample_variables(self, rng: random.Random) -> dict[str, int] | None:
        variables: dict[str, int] = {}
        getrandbits = rng.getrandbits
        (page_n, page_bits), (small_n, small_bits) = _PAGE, _SMALL
        for name, kind, data in self.variables:
            if kind is _FREE:
                # _guided_value without clauses: both draws are made and
                # the spread pointer-ish value is taken.  Most variables
                # are free, so the two _draw calls are inlined here.
                page = getrandbits(page_bits)
                while page >= page_n:
                    page = getrandbits(page_bits)
                variables[name] = SCRATCH_BASE + 0x1000 * page
                while getrandbits(small_bits) >= small_n:
                    pass
            elif kind is _FIXED:
                variables[name] = data
            elif kind is _BOUNDED:
                lo, n, bits = data
                variables[name] = lo + _draw(rng, n, bits)
            else:
                variables[name] = _guided_value(name, data, rng)

        # Realize forced aliasing: make node-mates' addresses coincide by
        # adjusting single-variable bases.
        for anchor, moves in self.alias_moves:
            try:
                target = anchor(EvalEnv(variables=variables))
            except EvalError:
                return None
            for name, const in moves:
                variables[name] = (target - const) % (1 << 64)
        return variables

    def residual_holds(self, env: EvalEnv, memory: Memory) -> bool:
        """``s ⊢ P`` for a witness built from this plan, checking only what
        construction does not establish.

        Construction wrote each register's first valuation and every
        memory valuation from the very closures ``Predicate.holds`` runs,
        on the same env, so those checks cannot fail.  Nor can they draw:
        every initial-memory byte they read was drawn while the witness
        was built.  What is left: the other register valuations (``rip``);
        the memory valuations when two written spans overlap (fewer bytes
        written than the valuations' sizes add up to) or some value is
        wider than its region; and every relational clause, in the order
        ``Predicate.holds`` checks them.  The result, and every rng draw
        made on the way, is that of ``Predicate.holds``."""
        try:
            registers = env.registers
            for reg, value_fn, m in self.check_regs:
                actual = registers.get(reg)
                if actual is None or (actual & m) != value_fn(env):
                    return False
            if self.mem_wide or len(memory.bytes) < self.mem_bytes:
                for addr_fn, value_fn, size, _, m in self.mem:
                    actual = memory.read(addr_fn(env), size)
                    if (actual & m) != value_fn(env):
                        return False
            for clause_fn in self.check_clauses:
                if not clause_fn(env):
                    return False
        except EvalError:
            return False
        return True


#: How a witness variable is drawn (see _WitnessSampler.variables).
_FIXED, _BOUNDED, _FREE, _GUIDED = "fixed", "bounded", "free", "guided"


def _randint_bits(lo: int, hi: int) -> tuple[int, int]:
    """``(n, bits)`` such that drawing ``r = getrandbits(bits)`` until
    ``r < n`` and returning ``lo + r`` makes exactly the rng calls of
    ``randint(lo, hi)`` (CPython's ``_randbelow_with_getrandbits``)."""
    n = hi - lo + 1
    return n, n.bit_length()


#: A guided value's two draws, ``randint(0, 64)`` (its page) and
#: ``randint(0, 255)`` (its small constant), as ``(n, bits)``.
_PAGE = _randint_bits(0, 64)
_SMALL = _randint_bits(0, 255)


def _draw(rng: random.Random, n: int, bits: int) -> int:
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


def _guided_value(name: str, own_clauses, rng: random.Random) -> int:
    """A candidate value satisfying the variable's own clauses.

    Tries a spread pointer-ish value, its negative mirror, zero and a
    few small constants; accepts the first one every single-variable
    clause on the variable admits (so e.g. ``x <s 0`` paths are
    samplable)."""
    positive = SCRATCH_BASE + 0x1000 * _draw(rng, *_PAGE)
    small = _draw(rng, *_SMALL)
    candidates = (
        positive,
        (1 << 64) - positive,       # negative mirror
        0, 1, small,
        (1 << 63) | positive,       # high-bit-set pointer
    )
    env = EvalEnv()
    for candidate in candidates:
        env.variables[name] = candidate
        try:
            if all(check(env) for check in own_clauses):
                return candidate
        except EvalError:
            break
    return positive


def _make_initial_reader(binary, overlay: dict[int, int],
                         stores: list[tuple[int, bytes]], rng: random.Random):
    """The witness's initial memory, fixed byte by byte when first read.

    A byte is the first of *stores* that covers it (a memory valuation
    also defines initial memory where it is still undefined), else the
    binary's, else a random one.  *overlay* keeps every byte once read,
    so a later store cannot change it.  Resolving stores at the read
    gives the bytes that writing each store into *overlay* where still
    undefined gives, and reads are rare next to stores."""
    n, bits = _SMALL

    def read(addr: int, size: int) -> int:
        value = 0
        for i in range(size):
            a = (addr + i) & MASK64
            if a not in overlay:
                for start, data in stores:
                    offset = (a - start) & MASK64
                    if offset < len(data):
                        overlay[a] = data[offset]
                        break
                else:
                    section = binary.section_at(a)
                    if section is not None:
                        overlay[a] = section.data[a - section.addr]
                    else:
                        overlay[a] = _draw(rng, n, bits)
            value |= overlay[a] << (8 * i)
        return value

    return read


def build_witness(
    sampler: _WitnessSampler, binary, rng: random.Random
) -> tuple[CPU, EvalEnv] | None:
    """One concrete CPU state satisfying the sampler's state, or None.

    The state is filled in one pass, in the order the rng is drawn from:
    the variables, the registers in GPR64 order (valued ones from the
    predicate, the rest random), the memory valuations, then the flags.
    It is then checked against what that construction does not establish
    (:meth:`_WitnessSampler.residual_holds`) and against the memory model:
    sampled bases can break separation."""
    witness = _construct_witness(sampler, binary, rng)
    if witness is None:
        return None
    cpu, env = witness
    if not sampler.residual_holds(env, cpu.memory):
        return None
    if not model_holds(sampler.state.model, env):
        return None
    return witness


def _construct_witness(
    sampler: _WitnessSampler, binary, rng: random.Random
) -> tuple[CPU, EvalEnv] | None:
    """The witness :func:`build_witness` checks, before any check."""
    variables = sampler.sample_variables(rng)
    if variables is None:
        return None
    stores: list[tuple[int, bytes]] = []
    read_initial = _make_initial_reader(binary, {}, stores, rng)
    env = EvalEnv(variables=variables, read_mem=read_initial)
    getrandbits = rng.getrandbits
    memory = Memory(binary)
    try:
        regs = {reg: getrandbits(32) if value_fn is None else value_fn(env)
                for reg, value_fn in sampler.regs}
        # Memory valuation clauses define current memory (and, where the
        # initial bytes are still undefined, initial memory too).
        for addr_fn, value_fn, size, size_mask, _ in sampler.mem:
            addr = addr_fn(env)
            _store(memory.bytes, stores, addr,
                   (value_fn(env) & size_mask).to_bytes(size, "little"))
        # Concrete flags: derived from the recorded flag state if any.
        if sampler.flags is not None:
            flags = sampler.flags(env)
        else:
            flags = {name: getrandbits(1) for name in FLAGS}
    except EvalError:
        return None

    # Nothing CPU() would default (a stack top for an rsp of 0, its
    # sentinel return address) is made: the witness is the sampled state.
    cpu = CPU.in_state(binary, sampler.rip, regs, flags, memory)
    env.registers = {**regs, "rip": cpu.rip}
    return cpu, env


def _store(written: dict[int, int], stores: list[tuple[int, bytes]],
           addr: int, data: bytes) -> None:
    """Write *data* at *addr* into current memory, and record the store
    for the initial-memory reader."""
    size = len(data)
    if addr + size <= 1 << 64:
        written.update(zip(range(addr, addr + size), data))
    else:
        written.update(((addr + i) & MASK64, byte)
                       for i, byte in enumerate(data))
    stores.append((addr, data))


def _compile_flags(flags) -> Callable[[EvalEnv], dict[str, int]]:
    """A closure giving the concrete flags the recorded flag state sets:
    ``a`` is evaluated, then ``b`` where the operation has one."""
    width = flags.width
    m = mask(width)
    a_fn = compile_expr(flags.a)
    b_fn = None if flags.b is None else compile_expr(flags.b)
    kind = flags.kind if b_fn is not None else None

    def concrete(env: EvalEnv) -> dict[str, int]:
        a = a_fn(env) & m
        if kind == "cmp":
            b = b_fn(env) & m
            result = (a - b) & m
            cf = int(a < b)
            of = int(to_signed(a, width) - to_signed(b, width)
                     != to_signed(result, width))
        elif kind == "test":
            result = a & b_fn(env) & m
            cf = of = 0
        else:
            result = a
            cf = of = 0
        return {"cf": cf, "zf": int(result == 0),
                "sf": (result >> (width - 1)) & 1, "of": of,
                "pf": 1 - (bin(result & 0xFF).count("1") & 1)}

    return concrete


class _DestinationPlan:
    """How a destination state's existential variables are bound.

    Everything that depends on the state alone: the variables its
    register and memory valuations hold (with each region's compiled
    address), and the low bound each variable gets that only clauses or
    the flag state mention (any in-bounds witness satisfies the state).
    :func:`check_triples` builds one plan per destination, inside the
    call, and :meth:`bind` runs it on every witness that lands there."""

    def __init__(self, state: SymState):
        self.state = state
        pred = state.pred
        #: (variable, register) per Var-valued register, in regs order.
        self.regs = tuple((value.name, reg) for reg, value in pred.regs
                          if isinstance(value, Var))
        #: (variable, address, size) per Var-valued region, in mem order.
        self.mem = tuple((value.name, compile_expr(region.addr), region.size)
                         for region, value in pred.mem
                         if isinstance(value, Var))
        unbound = [clause.lhs for clause in pred.clauses]
        if pred.flags is not None:
            for operand in (pred.flags.a, pred.flags.b):
                if operand is not None:
                    unbound += operand.walk()
        lows: dict[str, int] = {}
        for node in unbound:
            if isinstance(node, Var) and node.name not in lows:
                interval = pred.interval_of(node)
                lows[node.name] = interval.lo if interval is not None else 0
        #: (variable, value) per variable only clauses or flags mention.
        self.lows = tuple(lows.items())

    def bind(self, cpu: CPU, env: EvalEnv) -> dict[str, int]:
        """Witness bindings for the destination's existential variables:
        the source's variables, then registers, regions and low bounds,
        each binding a variable that is still unbound.  A region whose
        address does not evaluate yet is skipped."""
        bindings = dict(env.variables)
        for name, reg in self.regs:
            if name not in bindings:
                bindings[name] = cpu.rip if reg == "rip" else cpu.regs.get(reg, 0)
        if self.mem:
            # Assigned, not passed: EvalEnv swaps an empty dict for a new
            # one, and each region must see the variables bound before it.
            addr_env = EvalEnv()
            addr_env.variables = bindings
            for name, addr_fn, size in self.mem:
                if name not in bindings:
                    try:
                        addr = addr_fn(addr_env)
                    except EvalError:
                        continue
                    bindings[name] = cpu.memory.read(addr, size)
        for name, low in self.lows:
            if name not in bindings:
                bindings[name] = low
        return bindings


def _post_holds(plan: _DestinationPlan, cpu: CPU, env: EvalEnv) -> bool:
    probe = EvalEnv(
        variables=plan.bind(cpu, env),
        read_mem=env.read_mem,
        registers={**cpu.regs, "rip": cpu.rip},
    )
    state = plan.state
    return state.pred.holds(probe, read_current=cpu.memory.read) and \
        model_holds(state.model, probe)


def check_triples(
    result: LiftResult, samples: int = 6, seed: int = 2022,
    max_attempts_factor: int = 12,
) -> CheckReport:
    """Replay every Hoare triple of *result* against the concrete emulator."""
    # Replay makes no reference cycles (tests/test_gc_cycles.py).
    with collector_paused():
        return _check_triples(result, samples, seed, max_attempts_factor)


def _check_triples(result: LiftResult, samples: int, seed: int,
                   max_attempts_factor: int) -> CheckReport:
    graph = result.graph
    report = CheckReport()
    #: One destination plan per destination reached, for this call only.
    plans: dict[VertexKey, _DestinationPlan] = {}
    by_source: dict[tuple[VertexKey, int], list[VertexKey]] = {}
    for edge in graph.edges:
        by_source.setdefault((edge.src, edge.instr_addr), []).append(edge.dst)

    for (src, instr_addr), dsts in sorted(by_source.items(), key=str):
        src_state = graph.vertices.get(src)
        instr = graph.instructions.get(instr_addr)
        if src_state is None or instr is None:
            report.checks.append(
                TripleCheck(src, instr_addr, "assumed", detail="external stub")
            )
            continue
        if instr.mnemonic == "call" or any(d[0] == "exit" for d in dsts) and \
                instr.mnemonic not in ("hlt", "ud2", "int3", "syscall"):
            # Composition with a context-free callee or an external stub:
            # the triple holds by the callee's own verified contract /
            # recorded obligation, not by local execution.
            report.checks.append(
                TripleCheck(src, instr_addr, "assumed",
                            detail="function-contract composition")
            )
            continue

        rng = random.Random(seed ^ instr_addr)
        sampler = _WitnessSampler(src_state)
        passed = 0
        attempts = 0
        failure = ""
        while passed < samples and attempts < samples * max_attempts_factor:
            attempts += 1
            witness = build_witness(sampler, result.binary, rng)
            if witness is None:
                continue
            cpu, env = witness
            replayed = _replay_one(cpu, env, instr, dsts, graph, plans)
            if replayed is None:
                continue
            if not replayed:
                failure = f"witness violates postcondition after {instr}"
                break
            passed += 1
        if failure:
            status = "FAILED"
        elif passed == 0:
            status = "untested"
        else:
            status = "proven"
        report.checks.append(
            TripleCheck(src, instr_addr, status, witnesses=passed, detail=failure)
        )
    if _T.enabled:
        for status, count in report.status_counts().items():
            if count:
                _M.inc(f"check.status.{status}", count)
        _T.emit("check.report", triples=len(report.checks),
                **report.status_counts())
    return report


def _replay_one(cpu: CPU, env: EvalEnv, instr, dsts, graph,
                plans: dict[VertexKey, _DestinationPlan]) -> bool | None:
    """Whether the executed witness lands in some sink of the triple.

    None when the emulator raised: the witness drove it somewhere
    unmodelled (e.g. a division by a sampled zero), so it is neither a
    counterexample nor evidence, and counts as an attempt only."""
    try:
        cpu.execute(instr)
    except Exception:
        return None
    # Sinks.
    for dst in dsts:
        if dst[0] == "ret":
            if cpu.rip == RETURN_SENTINEL:
                return True
        elif dst[0] == "exit":
            if cpu.halted:
                return True
        else:
            dst_state = graph.vertices.get(dst)
            if dst_state is None or dst_state.rip != cpu.rip:
                continue
            plan = plans.get(dst)
            if plan is None:
                plan = plans[dst] = _DestinationPlan(dst_state)
            if _post_holds(plan, cpu, env):
                return True
    return False
