"""τ-vs-emulator differential forms: one per supported mnemonic/operand shape.

Lemma 4.5's hypothesis is that every concrete transition is covered by some
symbolic successor.  The existing differential tests check this on a
handful of hand-written programs; this module *enumerates* the supported
instruction set — every mnemonic family and operand form the assembler,
decoder, τ and the emulator agree to support — and builds one tiny program
per form.  Each program is run in lockstep (concrete CPU step, symbolic τ
step, relation ``R`` checked), so any drift between
:mod:`repro.semantics.tau` and :mod:`repro.machine.cpu` fails naming the
exact instruction that diverged.

Forms that set flags append a ``setcc`` materialization block: flag
predicates are only indirectly observable through branches and ``setcc``
values, so turning each interesting condition into a register value makes
flag bugs (e.g. an inverted carry) visible to the relation check.

The same battery is the ``differential`` detector of the qa campaigns: an
injected emulator or τ fault shows up as a list of failing form names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.elf import Binary, BinaryBuilder
from repro.expr import App, EvalEnv, Var, evaluate
from repro.isa import Imm, Mem, insn
from repro.isa.instruction import (
    ALU_OPS,
    CONDITION_CODES,
    SHIFT_OPS,
    STRING_OPS,
)
from repro.machine import CPU
from repro.machine.cpu import _SENTINEL_RETURN
from repro.memmodel import model_holds
from repro.semantics import (
    LiftContext,
    RetEvent,
    TerminalEvent,
    initial_state,
    step,
)

MASK64 = (1 << 64) - 1

#: Flags materialized after flag-setting forms: zero, carry, signed-less,
#: sign.  Written to high scratch registers the forms themselves never use.
_MATERIALIZE = (("e", "r10b"), ("b", "r11b"), ("l", "r12b"), ("s", "r13b"))


@dataclass(frozen=True)
class Form:
    """One mnemonic/operand shape: a builder for a tiny two-sided program.

    ``build(rng)`` returns ``(instructions, regs)`` — the body (a trailing
    ``ret`` is appended automatically) and the initial register values.
    """

    name: str
    kind: str
    build: Callable[[random.Random], tuple[list, dict[str, int]]]


def _arg(rng: random.Random) -> int:
    """A mixed-magnitude 64-bit operand value."""
    return rng.choice([
        rng.randrange(0, 256),
        rng.randrange(0, 1 << 31),
        rng.getrandbits(64),
        (1 << 64) - rng.randrange(1, 1 << 16),   # negative-ish
    ])


def _flagged(body: list) -> list:
    """Append the setcc materialization block to a flag-setting body."""
    return body + [insn(f"set{cc}", reg) for cc, reg in _MATERIALIZE]


def _forms() -> list[Form]:
    forms: list[Form] = []

    def add(name: str, kind: str, build) -> None:
        forms.append(Form(name, kind, build))

    # -- ALU family: every mnemonic in the 00-3B opcode rows ------------------
    for mnemonic in sorted(ALU_OPS):
        def alu_rr(rng, m=mnemonic):
            return _flagged([
                insn("mov", "rax", "rdi"),
                insn(m, "rax", "rsi"),
            ]), {"rdi": _arg(rng), "rsi": _arg(rng)}

        def alu_r32(rng, m=mnemonic):
            return _flagged([
                insn("mov", "eax", "edi"),
                insn(m, "eax", "esi"),
            ]), {"rdi": _arg(rng), "rsi": _arg(rng)}

        def alu_imm8(rng, m=mnemonic):
            return _flagged([
                insn("mov", "rax", "rdi"),
                insn(m, "rax", Imm(rng.randrange(1, 128), 8)),
            ]), {"rdi": _arg(rng)}

        def alu_imm32(rng, m=mnemonic):
            return _flagged([
                insn("mov", "rax", "rdi"),
                insn(m, "rax", Imm(rng.randrange(1 << 8, 1 << 31), 32)),
            ]), {"rdi": _arg(rng)}

        # The trailing pop rebalances the stack before ret without
        # touching flags, so the setcc block still sees the ALU result.
        def alu_load(rng, m=mnemonic):
            return _flagged([
                insn("push", "rsi"),
                insn("mov", "rax", "rdi"),
                insn(m, "rax", Mem(64, base="rsp")),
                insn("pop", "rcx"),
            ]), {"rdi": _arg(rng), "rsi": _arg(rng)}

        def alu_store(rng, m=mnemonic):
            return _flagged([
                insn("push", "rdi"),
                insn(m, Mem(64, base="rsp"), "rsi"),
                insn("mov", "rax", Mem(64, base="rsp")),
                insn("pop", "rcx"),
            ]), {"rdi": _arg(rng), "rsi": _arg(rng)}

        add(f"{mnemonic}-r64-r64", "alu", alu_rr)
        add(f"{mnemonic}-r32-r32", "alu", alu_r32)
        add(f"{mnemonic}-r64-imm8", "alu", alu_imm8)
        add(f"{mnemonic}-r64-imm32", "alu", alu_imm32)
        add(f"{mnemonic}-r64-m64", "alu", alu_load)
        if mnemonic not in ("cmp", "test"):
            add(f"{mnemonic}-m64-r64", "alu", alu_store)

    # -- shifts and rotates ---------------------------------------------------
    for mnemonic in sorted(SHIFT_OPS):
        def shift_imm(rng, m=mnemonic):
            return _flagged([
                insn("mov", "rax", "rdi"),
                insn(m, "rax", Imm(rng.randrange(1, 64), 8)),
            ]), {"rdi": _arg(rng)}

        add(f"{mnemonic}-r64-imm8", "shift", shift_imm)
        if mnemonic in ("shl", "shr", "sar"):
            def shift_cl(rng, m=mnemonic):
                return _flagged([
                    insn("mov", "rax", "rdi"),
                    insn("mov", "rcx", "rsi"),
                    insn(m, "rax", "cl"),
                ]), {"rdi": _arg(rng), "rsi": rng.randrange(0, 64)}

            add(f"{mnemonic}-r64-cl", "shift", shift_cl)

    # -- unary group ----------------------------------------------------------
    for mnemonic in ("inc", "dec", "neg", "not"):
        def unary(rng, m=mnemonic):
            body = [insn("mov", "rax", "rdi"), insn(m, "rax")]
            return (body if m == "not" else _flagged(body)), \
                {"rdi": _arg(rng)}

        add(f"{mnemonic}-r64", "unary", unary)

    # -- multiply / divide ----------------------------------------------------
    def imul2(rng):
        return [insn("mov", "rax", "rdi"), insn("imul", "rax", "rsi")], \
            {"rdi": _arg(rng), "rsi": _arg(rng)}

    def imul3(rng):
        return [insn("imul", "rax", "rdi", Imm(rng.randrange(2, 100), 8))], \
            {"rdi": _arg(rng)}

    def mul1(rng):
        return [insn("mov", "rax", "rdi"), insn("mul", "rsi")], \
            {"rdi": _arg(rng), "rsi": _arg(rng)}

    def imul1(rng):
        return [insn("mov", "rax", "rdi"), insn("imul", "rsi")], \
            {"rdi": _arg(rng), "rsi": _arg(rng)}

    def div(rng):
        return [insn("mov", "rax", "rdi"), insn("xor", "rdx", "rdx"),
                insn("div", "rsi")], \
            {"rdi": _arg(rng), "rsi": rng.randrange(1, 1 << 32)}

    def idiv(rng):
        return [insn("mov", "rax", "rdi"), insn("cqo"), insn("idiv", "rsi")], \
            {"rdi": rng.randrange(0, 1 << 62), "rsi": rng.randrange(1, 1 << 31)}

    add("imul-r64-r64", "muldiv", imul2)
    add("imul-r64-r64-imm8", "muldiv", imul3)
    add("mul-r64", "muldiv", mul1)
    add("imul-r64", "muldiv", imul1)
    add("div-r64", "muldiv", div)
    add("idiv-r64", "muldiv", idiv)

    # -- moves and extensions -------------------------------------------------
    def mov_rr(rng):
        return [insn("mov", "rax", "rdi")], {"rdi": _arg(rng)}

    def mov_imm32(rng):
        return [insn("mov", "eax", Imm(rng.getrandbits(31), 32))], {}

    def movabs(rng):
        return [insn("movabs", "rax", Imm(rng.getrandbits(64), 64))], {}

    def mov_load(rng):
        return [insn("push", "rdi"), insn("mov", "rax", Mem(64, base="rsp")),
                insn("pop", "rcx")], \
            {"rdi": _arg(rng)}

    def mov_store(rng):
        return [insn("push", "rsi"),
                insn("mov", Mem(64, base="rsp"), "rdi"),
                insn("mov", "rax", Mem(64, base="rsp")),
                insn("pop", "rcx")], \
            {"rdi": _arg(rng), "rsi": _arg(rng)}

    def mov_store_imm(rng):
        return [insn("push", "rsi"),
                insn("mov", Mem(64, base="rsp"), Imm(rng.getrandbits(31), 32)),
                insn("mov", "rax", Mem(64, base="rsp")),
                insn("pop", "rcx")], \
            {"rsi": _arg(rng)}

    def movzx(rng):
        return [insn("mov", "rax", "rdi"), insn("movzx", "rcx", "al")], \
            {"rdi": _arg(rng)}

    def movsx(rng):
        return [insn("mov", "rax", "rdi"), insn("movsx", "rcx", "al")], \
            {"rdi": _arg(rng)}

    def movsxd(rng):
        return [insn("movsxd", "rax", "edi")], {"rdi": _arg(rng)}

    def lea(rng):
        return [insn("lea", "rax",
                     Mem(64, base="rdi", index="rsi", scale=rng.choice([1, 2, 4, 8]),
                         disp=rng.randrange(-64, 64)))], \
            {"rdi": _arg(rng), "rsi": rng.randrange(0, 1 << 16)}

    def xchg(rng):
        return [insn("xchg", "rdi", "rsi"), insn("mov", "rax", "rdi")], \
            {"rdi": _arg(rng), "rsi": _arg(rng)}

    add("mov-r64-r64", "mov", mov_rr)
    add("mov-r32-imm32", "mov", mov_imm32)
    add("movabs-r64-imm64", "mov", movabs)
    add("mov-r64-m64", "mov", mov_load)
    add("mov-m64-r64", "mov", mov_store)
    add("mov-m64-imm32", "mov", mov_store_imm)
    add("movzx-r64-r8", "mov", movzx)
    add("movsx-r64-r8", "mov", movsx)
    add("movsxd-r64-r32", "mov", movsxd)
    add("lea-r64-m", "mov", lea)
    add("xchg-r64-r64", "mov", xchg)

    # -- stack ----------------------------------------------------------------
    def push_pop(rng):
        return [insn("push", "rdi"), insn("pop", "rax")], {"rdi": _arg(rng)}

    def push_imm(rng):
        return [insn("push", Imm(rng.randrange(0, 1 << 31), 32)),
                insn("pop", "rax")], {}

    def frame(rng):
        return [insn("push", "rbp"), insn("mov", "rbp", "rsp"),
                insn("sub", "rsp", Imm(32, 32)),
                insn("mov", Mem(64, base="rbp", disp=-8), "rdi"),
                insn("mov", "rax", Mem(64, base="rbp", disp=-8)),
                insn("leave")], {"rdi": _arg(rng)}

    add("push-pop-r64", "stack", push_pop)
    add("push-imm32", "stack", push_imm)
    add("leave-frame", "stack", frame)

    # -- rax extensions -------------------------------------------------------
    for mnemonic in ("cdq", "cqo", "cdqe"):
        def ext(rng, m=mnemonic):
            return [insn("mov", "rax", "rdi"), insn(m)], {"rdi": _arg(rng)}

        add(f"{mnemonic}", "extend", ext)

    # -- conditions: setcc, cmovcc, jcc over every condition code -------------
    for cc in CONDITION_CODES:
        def setcc(rng, c=cc):
            return [insn("cmp", "rdi", "rsi"), insn(f"set{c}", "al"),
                    insn("movzx", "rax", "al")], \
                {"rdi": _arg(rng), "rsi": _arg(rng), "rax": 0}

        def cmovcc(rng, c=cc):
            return [insn("mov", "rax", "rdi"), insn("cmp", "rdi", "rsi"),
                    insn(f"cmov{c}", "rax", "rsi")], \
                {"rdi": _arg(rng), "rsi": _arg(rng)}

        add(f"set{cc}-r8", "setcc", setcc)
        add(f"cmov{cc}-r64-r64", "cmovcc", cmovcc)

    # jcc forms are built with labels (both paths return).
    for cc in CONDITION_CODES:
        def jcc(rng, c=cc):
            return ("branch", c), \
                {"rdi": _arg(rng), "rsi": _arg(rng)}

        add(f"j{cc}-rel", "jcc", jcc)

    # -- string operations ----------------------------------------------------
    for mnemonic in sorted(STRING_OPS):
        def string_op(rng, m=mnemonic):
            body = [
                insn("sub", "rsp", Imm(256, 32)),
                insn("mov", "rdi", "rsp"),
                insn("lea", "rsi", Mem(64, base="rsp", disp=128)),
                insn("mov", Mem(64, base="rsp", disp=128), "rdx"),
            ]
            if m.startswith("rep_"):
                body.append(insn("mov", "rcx", Imm(rng.randrange(1, 8), 32)))
            body.append(insn(m))
            body.append(insn("add", "rsp", Imm(256, 32)))
            return body, {"rdx": _arg(rng), "rax": _arg(rng)}

        add(f"{mnemonic}", "string", string_op)

    # -- terminals ------------------------------------------------------------
    def nop(rng):
        return [insn("nop"), insn("mov", "rax", "rdi")], {"rdi": _arg(rng)}

    def hlt(rng):
        return [insn("hlt")], {}

    def syscall_exit(rng):
        return [insn("mov", "eax", Imm(60, 32)), insn("syscall")], \
            {"rdi": rng.randrange(0, 256)}

    add("nop", "nullary", nop)
    add("hlt", "nullary", hlt)
    add("syscall-exit", "nullary", syscall_exit)

    return forms


_FORMS_CACHE: list[Form] | None = None


def forms() -> list[Form]:
    """The full deterministic form list (cached per process)."""
    global _FORMS_CACHE
    if _FORMS_CACHE is None:
        _FORMS_CACHE = _forms()
    return _FORMS_CACHE


def _build_binary(body, cc: str | None) -> Binary:
    """Assemble a form body (or the jcc diamond for ``cc``) plus ret."""
    builder = BinaryBuilder("diffsweep")
    text = builder.text
    text.label("main")
    if cc is not None:
        text.emit("cmp", "rdi", "rsi")
        text.emit(f"j{cc}", "taken")
        text.emit("mov", "eax", Imm(22, 32))
        text.emit("ret")
        text.label("taken")
        text.emit("mov", "eax", Imm(11, 32))
        text.emit("ret")
    else:
        for instr in body:
            text.emit(instr.mnemonic, *instr.operands)
        text.emit("ret")
    return builder.build(entry="main")


def _solve_linear(value, concrete: int, bindings: dict[str, int]) -> None:
    """Bind one unbound variable occurring (possibly nested) in *value* so
    the claim ``value == concrete`` can hold.

    The predicate relation is existential over havoc/join variables, so
    inverting width adapters and add/sub chains to propose a witness is
    exactly the right move — ``pred.holds`` re-validates every claim with
    the proposed binding, so a wrong guess only fails to relate, it can
    never mask a genuine mismatch elsewhere.
    """
    if isinstance(value, Var):
        if value.name not in bindings:
            bindings[value.name] = concrete & ((1 << value.width) - 1)
        return
    if not isinstance(value, App):
        return
    if value.op in ("zext", "sext", "low") and len(value.args) == 1:
        _solve_linear(value.args[0], concrete, bindings)
        return
    if value.op == "add":
        # n-ary add (the structural join flattens chains): solve the single
        # unevaluable addend from the residue.
        mask = (1 << value.width) - 1
        env = EvalEnv(variables=bindings)
        unknown = None
        total = 0
        for arg in value.args:
            try:
                total += evaluate(arg, env)
            except Exception:
                if unknown is not None:
                    return
                unknown = arg
        if unknown is not None:
            _solve_linear(unknown, (concrete - total) & mask, bindings)
        return
    if value.op == "sub" and len(value.args) == 2:
        mask = (1 << value.width) - 1
        a, b = value.args
        env = EvalEnv(variables=bindings)
        try:
            known_b = evaluate(b, env)
        except Exception:
            known_b = None
        if known_b is not None:
            _solve_linear(a, (concrete + known_b) & mask, bindings)
            return
        try:
            known_a = evaluate(a, env)
        except Exception:
            return
        _solve_linear(b, (known_a - concrete) & mask, bindings)


def _free_vars(expr, bindings: dict[str, int], out: set) -> None:
    if isinstance(expr, Var):
        if expr.name not in bindings:
            out.add(expr)
    elif isinstance(expr, App):
        for arg in expr.args:
            _free_vars(arg, bindings, out)


def _satisfy_clauses(state, bindings: dict[str, int]) -> None:
    """Pick witnesses for join variables constrained only by clauses.

    A structural join can introduce variables for *flag operands* (e.g.
    ``flags(cmp join@v@flags.a, …)`` with a surviving path clause over the
    join variable).  Such a variable values no register or memory cell, so
    the machine state cannot determine it — but the predicate relation is
    existential, so any value satisfying the clauses is a legitimate
    witness.  Try a handful of candidates around the evaluable side.
    """
    for clause in state.pred.clauses:
        env = EvalEnv(variables=bindings)
        try:
            clause.holds(env)
            continue
        except Exception:
            pass
        free: set = set()
        _free_vars(clause.lhs, bindings, free)
        _free_vars(clause.rhs, bindings, free)
        if len(free) != 1:
            continue
        (var,) = free
        other_side = clause.rhs if clause.lhs == var else clause.lhs
        if clause.lhs != var and clause.rhs != var:
            continue
        try:
            other = evaluate(other_side, env)
        except Exception:
            continue
        mask = (1 << clause.width) - 1
        vmask = (1 << var.width) - 1
        for cand in (other, (other + 1) & mask, (other - 1) & mask,
                     0, mask, mask >> 1, (mask >> 1) + 1):
            trial = {**bindings, var.name: cand & vmask}
            try:
                if clause.holds(EvalEnv(variables=trial)):
                    bindings[var.name] = cand & vmask
                    break
            except Exception:
                continue


def _bind_flag_witness(state, cpu: CPU, bindings: dict[str, int]) -> None:
    """Witness a flag-operand join variable from the concrete flag bits.

    A structural join can re-express the flag state over a fresh operand
    variable (``flags(cmp join@v@flags.a, rcx-join)``).  The machine keeps
    only the resulting flag *bits*, not the cmp operands, so any operand
    pair reproducing those bits is a legitimate witness.  With one side
    bound, enumerate candidates for the other and keep the first matching
    the concrete e/b/l conditions without violating a decidable clause.
    """
    flags = state.pred.flags
    if flags is None or flags.kind not in ("cmp", "arith"):
        return
    width = flags.width
    mask = (1 << width) - 1
    sign = 1 << (width - 1)

    def _signed(value: int) -> int:
        return value - (1 << width) if value & sign else value

    def _near(other: int) -> tuple[int, ...]:
        return (other, (other + 1) & mask, (other - 1) & mask, 0, 1,
                mask, mask >> 1, (mask >> 1) + 1, (other ^ sign) & mask)

    def _clauses_ok(trial: dict[str, int]) -> bool:
        trial_env = EvalEnv(variables=trial)
        for clause in state.pred.clauses:
            try:
                if not clause.holds(trial_env):
                    return False
            except Exception:
                continue     # clause still has other free variables
        return True

    want = (cpu.condition("e"), cpu.condition("b"), cpu.condition("l"))
    free_a: set = set()
    free_b: set = set()
    _free_vars(flags.a, bindings, free_a)
    _free_vars(flags.b, bindings, free_b)
    env = EvalEnv(variables=bindings)

    def _clause_candidates(name: str) -> tuple[int, ...]:
        # Values the surviving path clauses single out (e.g. an equality
        # kept as leu + geu bounds pins the variable to one constant).
        out: list[int] = []
        for clause in state.pred.clauses:
            if isinstance(clause.lhs, Var) and clause.lhs.name == name:
                other_expr = clause.rhs
            elif isinstance(clause.rhs, Var) and clause.rhs.name == name:
                other_expr = clause.lhs
            else:
                continue
            try:
                value = evaluate(other_expr, env)
            except Exception:
                continue
            out += [value & mask, (value + 1) & mask, (value - 1) & mask]
        return tuple(out)

    if flags.kind == "arith":
        # A joined result value: witness it from the concrete ZF/SF bits
        # (the only flags the arith kind models).
        if not (isinstance(flags.a, Var) and free_a):
            return
        want_zs = (cpu.condition("e"), cpu.condition("s"))
        for cand in _clause_candidates(flags.a.name) \
                + (0, 1, mask, sign, mask >> 1):
            if ((cand & mask) == 0, bool(cand & sign)) != want_zs:
                continue
            trial = {**bindings,
                     flags.a.name: cand & ((1 << flags.a.width) - 1)}
            if _clauses_ok(trial):
                bindings[flags.a.name] = cand & ((1 << flags.a.width) - 1)
                return
        return

    if free_a and free_b:
        # Both operands joined away (nested-branch merges): witness a pair.
        if not (isinstance(flags.a, Var) and isinstance(flags.b, Var)
                and flags.a.name != flags.b.name):
            return
        pool_a = _clause_candidates(flags.a.name) \
            + (0, 1, mask >> 1, (mask >> 1) + 1, mask)
        pool_b = _clause_candidates(flags.b.name)
        for a in pool_a:
            for b in pool_b + _near(a):
                if (a == b, a < b, _signed(a) < _signed(b)) != want:
                    continue
                trial = {**bindings,
                         flags.a.name: a & ((1 << flags.a.width) - 1),
                         flags.b.name: b & ((1 << flags.b.width) - 1)}
                if _clauses_ok(trial):
                    bindings.update(trial)
                    return
        return

    if len(free_a) + len(free_b) != 1:
        return
    free_side = "a" if free_a else "b"
    target = flags.a if free_side == "a" else flags.b
    if not isinstance(target, Var):
        return
    try:
        other = evaluate(flags.b if free_side == "a" else flags.a, env)
    except Exception:
        return
    for cand in _clause_candidates(target.name) + _near(other):
        a, b = (cand, other) if free_side == "a" else (other, cand)
        if (a == b, a < b, _signed(a) < _signed(b)) != want:
            continue
        trial = {**bindings, target.name: cand & ((1 << target.width) - 1)}
        if _clauses_ok(trial):
            bindings[target.name] = cand & ((1 << target.width) - 1)
            return


def _bind_unknowns(state, cpu: CPU, bindings: dict[str, int]) -> None:
    """Bind havoc/fresh variables from the concrete machine state.

    Join and havoc variables reach register claims either bare, wrapped in
    a width adapter (``zext(havoc%n)`` after a 32-bit destination write) or
    nested inside arithmetic the structural join kept (``join@v@rax +
    rsi0``); memory claims carry them bare.  Two passes so a variable
    bound from a memory slot can unlock a nested register solve; a final
    pass witnesses variables only clauses constrain.
    """
    for _ in range(2):
        for reg, value in state.pred.regs:
            concrete = cpu.rip if reg == "rip" else cpu.regs.get(reg)
            if concrete is not None:
                _solve_linear(value, concrete, bindings)
        for region, value in state.pred.mem:
            if isinstance(value, Var) and value.name not in bindings:
                try:
                    addr = evaluate(region.addr, EvalEnv(variables=bindings))
                except Exception:
                    continue
                bindings[value.name] = cpu.memory.read(addr, region.size)
    _bind_flag_witness(state, cpu, bindings)
    _satisfy_clauses(state, bindings)


def run_form(form: Form, seed: int = 2022) -> str | None:
    """Run one form in τ/CPU lockstep; None on success, else a description
    naming the exact instruction that broke the simulation relation."""
    rng = random.Random(f"{seed}:{form.name}")
    body, regs = form.build(rng)
    cc = body[1] if isinstance(body, tuple) else None
    binary = _build_binary(body if cc is None else None, cc)

    cpu = CPU(binary)
    for reg, value in regs.items():
        cpu.regs[reg] = value & MASK64
    pristine = dict(cpu.memory.bytes)

    def read_initial(addr: int, size: int) -> int:
        value = 0
        for i in range(size):
            a = (addr + i) & MASK64
            byte = pristine.get(a)
            if byte is None:
                section = binary.section_at(a)
                byte = section.data[a - section.addr] if section else 0
            value |= byte << (8 * i)
        return value

    variables = {f"{reg}0": value for reg, value in cpu.regs.items()}
    variables["ret0"] = read_initial(cpu.regs["rsp"], 8)

    ctx = LiftContext(binary)
    states = [initial_state(binary.entry, Var("ret0"))]
    for _ in range(64):
        if cpu.halted or cpu.rip == _SENTINEL_RETURN:
            break
        instr = binary.fetch(cpu.rip)
        try:
            cpu.execute(instr)
        except Exception as exc:   # unmodelled concrete trap: not a mismatch
            return (f"{form.name}: emulator error on {instr}: {exc}"
                    if "division" not in str(exc) else None)
        successors = [succ for state in states
                      for succ in step(state, instr, ctx)]
        if cpu.halted:
            # Return to the sentinel or an explicit terminal: τ must have
            # produced the matching event (RetEvent / TerminalEvent).
            if any(isinstance(event, (RetEvent, TerminalEvent))
                   for succ in successors for event in succ.events):
                return None
            return f"{form.name}: CPU halted at {instr} without a τ terminal"
        related = []
        registers = {**cpu.regs, "rip": cpu.rip}
        for succ in successors:
            state = succ.state
            bindings = dict(variables)
            _bind_unknowns(state, cpu, bindings)
            probe = EvalEnv(variables=bindings, read_mem=read_initial,
                            registers=registers)
            try:
                if state.pred.holds(probe, read_current=cpu.memory.read) and \
                        model_holds(state.model, probe):
                    related.append(state)
            except Exception:
                continue
        if not related:
            return (f"{form.name}: no related symbolic state after {instr} "
                    f"(args {sorted(regs.items())})")
        states = related
    return None


def run_battery(seed: int = 2022,
                names: list[str] | None = None) -> list[str]:
    """Run every form (or the named subset); returns sorted failure strings.

    An empty list is the healthy outcome — the campaign driver compares
    this against a fault-free baseline, so any τ/emulator fault that makes
    forms diverge shows up as a non-empty, deterministic failure list.
    """
    failures = []
    selected = forms() if names is None else \
        [form for form in forms() if form.name in set(names)]
    for form in selected:
        outcome = run_form(form, seed)
        if outcome is not None:
            failures.append(outcome)
    return sorted(failures)
