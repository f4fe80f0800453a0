"""The symbolic step function: Definition 4.2's ``step_Σ``.

``step(state, instr, ctx)`` evaluates the instruction's memory operands,
inserts their regions into the memory model (forking per Definition 3.7),
then applies the predicate transformer τ for the instruction on each forked
model.  Successors carry the assumptions recorded by the solver and events
(calls, returns, terminals, unknown writes) for the lifter.

Soundness contract (Lemma 4.5 hypothesis): for every concrete transition
``s →_B s'`` with ``s ⊢ ⟨P, M⟩``, some successor ``⟨P', M'⟩`` satisfies
``s' ⊢ ⟨P', M'⟩``.  The differential tests drive random programs through
the concrete CPU and check exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.expr import Const, Expr, RegRef, Var, simplify as s
from repro.isa import Imm, Instruction, Mem, Reg, condition_of
from repro.isa.registers import family_of, reg_width, with_width
from repro.memmodel import ins
from repro.perf import register_cache, register_lru
from repro.pred import FlagState, Predicate, condition_clause
from repro.pred.flags import condition_expr
from repro.smt.solver import Assumption, Region
from repro.semantics.events import (
    CallEvent,
    Event,
    RetEvent,
    TerminalEvent,
    UnknownWriteEvent,
)
from repro.semantics.memory import read_region, write_region
from repro.semantics.state import LiftContext, SymState


@dataclass(frozen=True)
class Successor:
    state: SymState
    assumptions: tuple[Assumption, ...] = ()
    events: tuple[Event, ...] = ()


class UnsupportedInstruction(NotImplementedError):
    """τ has no transformer for this instruction."""


def mem_addr_expr(mem: Mem, instr: Instruction) -> Expr:
    """The address computation of a memory operand, over current registers.

    It mentions no register but the operand's base and index, and reads
    *instr* only for a rip-relative operand: :func:`eval_mem_region`'s
    memo key rests on both."""
    if mem.base == "rip":
        return Const((instr.end + mem.disp) & ((1 << 64) - 1))
    expr: Expr = Const(mem.disp & ((1 << 64) - 1))
    if mem.base:
        expr = s.add(expr, RegRef(mem.base))
    if mem.index:
        expr = s.add(expr, s.mul(RegRef(mem.index), Const(mem.scale)))
    return expr


#: Bound on :data:`_OPERANDS`; past it the oldest entry goes.
_OPERANDS_MAX = 1 << 14
#: Memory-operand key -> its Region (None = ⊥).  See :func:`eval_mem_region`.
_OPERANDS: dict[tuple, Region | None] = {}
_OPERANDS_COUNTS = [0, 0]  # hits, misses


def _operands_stats() -> dict:
    hits, misses = _OPERANDS_COUNTS
    return {"hits": hits, "misses": misses, "size": len(_OPERANDS)}


def _operands_clear() -> None:
    _OPERANDS.clear()
    _OPERANDS_COUNTS[:] = [0, 0]


register_cache("semantics.operand", _operands_stats, _operands_clear)


def eval_mem_region(
    mem: Mem, instr: Instruction, pred: Predicate
) -> Region | None:
    """Evaluate a memory operand to a Region (None = ⊥, not inserted).

    The address is ``pred.eval(mem_addr_expr(mem, instr))`` (Definition
    4.1), memoized: that expression reads *pred* only at the operand's
    base and index registers and *instr* only at its end, for a
    rip-relative operand, so those values and the operand are the key.
    A step reads each operand up to three times (the fork over the
    regions, the read, the store), and one stack slot recurs across
    instructions.  A miss still goes through :func:`mem_addr_expr`, the
    seam the QA faults patch; :func:`repro.perf.reset_caches` clears the
    memo."""
    base = mem.base
    if base == "rip":
        key: tuple = (mem, instr.end)
    else:
        index = mem.index
        key = (mem, pred.get_reg(base) if base else None,
               pred.get_reg(index) if index else None)
    try:
        region = _OPERANDS[key]
    except KeyError:
        _OPERANDS_COUNTS[1] += 1
        addr = pred.eval(mem_addr_expr(mem, instr))
        region = None if addr is None else Region(addr, mem.width // 8)
        if len(_OPERANDS) >= _OPERANDS_MAX:
            del _OPERANDS[next(iter(_OPERANDS))]
        _OPERANDS[key] = region
        return region
    _OPERANDS_COUNTS[0] += 1
    return region


def _instruction_regions(
    instr: Instruction, pred: Predicate
) -> list[Region | None]:
    """All memory regions the instruction touches (Definition 4.2's R).

    ``None`` entries mark operands whose address could not be evaluated."""
    regions: list[Region | None] = []
    for op in instr.operands:
        if isinstance(op, Mem):
            regions.append(eval_mem_region(op, instr, pred))
    rsp = pred.get_reg("rsp")
    mnemonic = instr.mnemonic
    if mnemonic == "push" and rsp is not None:
        regions.append(Region(s.sub(rsp, Const(8)), 8))
    elif mnemonic in ("pop", "ret") and rsp is not None:
        regions.append(Region(rsp, 8))
    elif mnemonic == "leave":
        rbp = pred.get_reg("rbp")
        if rbp is not None:
            regions.append(Region(rbp, 8))
    elif mnemonic in ("movsb", "movsq", "stosb", "stosq", "lodsb", "lodsq"):
        size = 1 if mnemonic.endswith("b") else 8
        rdi, rsi = pred.get_reg("rdi"), pred.get_reg("rsi")
        if mnemonic.startswith(("movs", "stos")) and rdi is not None:
            regions.append(Region(rdi, size))
        if mnemonic.startswith(("movs", "lods")) and rsi is not None:
            regions.append(Region(rsi, size))
    return regions


def step(state: SymState, instr: Instruction, ctx: LiftContext) -> list[Successor]:
    """``step_Σ``: all successor symbolic states of *state* under *instr*."""
    regions = _instruction_regions(instr, state.pred)
    evaluable = [r for r in regions if r is not None]

    # Fork the memory model over the new regions (Definition 4.2).
    forks: list[tuple[SymState, tuple[Assumption, ...]]] = [(state, ())]
    for region in evaluable:
        next_forks = []
        for forked, assumptions in forks:
            for result in ins(region, forked.model, forked.pred):
                next_forks.append(
                    (forked.with_model(result.model),
                     assumptions + result.assumptions)
                )
        forks = next_forks

    successors: list[Successor] = []
    for forked, assumptions in forks:
        for succ in _transform(forked, instr, ctx):
            successors.append(
                Successor(succ.state, assumptions + succ.assumptions, succ.events)
            )
    return successors


# -- operand access -----------------------------------------------------------------


def _read_operand(
    state: SymState, op, instr: Instruction, ctx: LiftContext
) -> Expr | None:
    """Constant-expression value of an operand, or None (⊥)."""
    if isinstance(op, Reg):
        value = state.pred.get_reg(op.family)
        if value is None:
            return None
        return s.low(value, op.width) if op.width < 64 else value
    if isinstance(op, Imm):
        return Const(op.value, op.width)
    if isinstance(op, Mem):
        region = eval_mem_region(op, instr, state.pred)
        if region is None:
            return None
        return read_region(state, region, ctx)
    raise TypeError(f"bad operand {op!r}")


def _operand_width(op) -> int:
    return op.width


def _write_reg(pred: Predicate, name: str, value: Expr | None) -> Predicate:
    """Write a (possibly sub-) register; None clears the valuation."""
    family = family_of(name)
    width = reg_width(name)
    if value is None or width == 64:
        return pred.with_reg(family, value)
    if width == 32:
        return pred.with_reg(
            family, s.zext(s.low(value, 32) if value.width > 32 else value, 64))
    old = pred.get_reg(family)
    if old is None:
        return pred
    keep_mask = ~((1 << width) - 1)
    narrowed = s.low(value, width) if value.width > width else value
    return pred.with_reg(
        family, s.or_(s.and_(old, Const(keep_mask)), s.zext(narrowed, 64)))


def _store(
    state: SymState, op, value: Expr | None, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    """Write *value* to a register or memory operand."""
    if isinstance(op, Reg):
        return state.with_pred(_write_reg(state.pred, op.name, value)), ()
    if isinstance(op, Mem):
        region = eval_mem_region(op, instr, state.pred)
        if region is None:
            return _unknown_write(state, instr)
        if value is None:
            value = ctx.names.fresh("havoc", region.size * 8)
        return state.with_pred(write_region(state, region, value, ctx)), ()
    raise TypeError(f"cannot store to {op!r}")


def _unknown_write(
    state: SymState, instr: Instruction
) -> tuple[SymState, tuple[Event, ...]]:
    """A write to an unevaluable address may touch anything — including the
    return address.  Havoc all memory knowledge and flag the event."""
    from repro.memmodel import MemModel

    pred = state.pred.with_mem({})
    model = MemModel(
        frozenset(), state.model.destroyed | state.model.all_regions()
    )
    havocked = SymState(
        pred=pred, model=model, epoch=1, reachable=state.reachable
    )
    event = UnknownWriteEvent(f"write via unevaluable address at {instr}")
    return havocked, (event,)


@lru_cache(maxsize=1 << 12)
def rip_const(addr: int) -> Const:
    """``Const(addr)``, memoized: every step writes one into rip, and the
    interned constructor costs more than the rest of the write."""
    return Const(addr)


register_lru("semantics.rip_const", rip_const)


def _advance(pred: Predicate, instr: Instruction) -> Predicate:
    return pred.with_reg("rip", rip_const(instr.end))


# -- the transformer ------------------------------------------------------------------


def _transform(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> list[Successor]:
    mnemonic = instr.mnemonic
    ops = instr.operands
    pred = state.pred

    # Control flow first.
    if mnemonic in ("hlt", "ud2", "int3"):
        return [Successor(state, events=(TerminalEvent(mnemonic),))]
    if mnemonic == "syscall":
        return [Successor(state, events=(TerminalEvent("syscall"),))]
    if mnemonic == "jmp":
        return _jmp(state, instr, ctx)
    if mnemonic == "call":
        return _call(state, instr, ctx)
    if mnemonic == "ret":
        return _ret(state, instr, ctx)
    cc = condition_of(mnemonic)
    if cc is not None and mnemonic.startswith("j"):
        return _jcc(state, instr, cc)

    # Data flow: compute the new predicate, advance rip.
    new_state, events = _dataflow(state, instr, ctx)
    new_state = new_state.with_pred(_advance(new_state.pred, instr))
    return [Successor(new_state, events=events)]


def _jmp(state: SymState, instr: Instruction, ctx: LiftContext) -> list[Successor]:
    (target,) = instr.operands
    if isinstance(target, Imm):
        dest = (instr.end + target.signed) & ((1 << 64) - 1)
        return [Successor(state.with_pred(
            state.pred.with_reg("rip", rip_const(dest))))]
    value = _read_operand(state, target, instr, ctx)
    return [Successor(state.with_pred(state.pred.with_reg("rip", value)))]


def _call(state: SymState, instr: Instruction, ctx: LiftContext) -> list[Successor]:
    (target,) = instr.operands
    if isinstance(target, Imm):
        dest: Expr | None = Const((instr.end + target.signed) & ((1 << 64) - 1))
    else:
        dest = _read_operand(state, target, instr, ctx)
    event = CallEvent(target=dest, return_addr=instr.end)
    # The lifter decides where control goes.
    pred = state.pred.with_reg("rip", None)
    return [Successor(state.with_pred(pred), events=(event,))]


def _ret(state: SymState, instr: Instruction, ctx: LiftContext) -> list[Successor]:
    pred = state.pred
    rsp = pred.get_reg("rsp")
    value: Expr | None = None
    if rsp is not None:
        value = read_region(state, Region(rsp, 8), ctx)
    pred = pred.with_reg("rip", value)
    rsp_after: Expr | None = None
    if rsp is not None:
        pop_bytes = 8 + (instr.operands[0].value if instr.operands else 0)
        rsp_after = s.add(rsp, Const(pop_bytes))
        pred = pred.with_reg("rsp", rsp_after)
    event = RetEvent(target=value, rsp_after=rsp_after)
    return [Successor(state.with_pred(pred), events=(event,))]


def _jcc(state: SymState, instr: Instruction, cc: str) -> list[Successor]:
    (target,) = instr.operands
    taken_rip = rip_const((instr.end + target.signed) & ((1 << 64) - 1))
    fall_rip = rip_const(instr.end)
    flags = state.pred.flags
    successors = []
    for taken, rip in ((True, taken_rip), (False, fall_rip)):
        pred = state.pred.with_reg("rip", rip)
        if flags is not None:
            clause = condition_clause(flags, cc, taken)
            if clause is not None:
                if _trivially_false(clause):
                    continue  # this edge is infeasible
                if not _trivially_true(clause):
                    pred = pred.with_clause(clause)
        successors.append(Successor(state.with_pred(pred)))
    return successors


def _trivially_false(clause) -> bool:
    from repro.expr import Const as C

    if isinstance(clause.lhs, C) and isinstance(clause.rhs, C):
        from repro.expr import EvalEnv

        return not clause.holds(EvalEnv())
    return False


def _trivially_true(clause) -> bool:
    from repro.expr import Const as C

    if isinstance(clause.lhs, C) and isinstance(clause.rhs, C):
        from repro.expr import EvalEnv

        return clause.holds(EvalEnv())
    return False


# -- non-control-flow instructions ------------------------------------------------------


def _dataflow(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    mnemonic = instr.mnemonic
    ops = instr.operands
    pred = state.pred

    if mnemonic == "nop":
        return state, ()

    if mnemonic in ("mov", "movabs"):
        dst, src = ops
        value = _read_operand(state, src, instr, ctx)
        if isinstance(src, Imm) and isinstance(dst, (Reg, Mem)):
            # mov sign-/zero-extends immediates to the destination width.
            width = _operand_width(dst)
            value = Const(Imm(src.value, src.width).signed, width) \
                if src.width < width else value
        return _store(state, dst, value, instr, ctx)

    if mnemonic == "lea":
        dst, src = ops
        region = eval_mem_region(src, instr, pred)
        value = None if region is None else (
            s.low(region.addr, dst.width) if dst.width < 64 else region.addr
        )
        return _store(state, dst, value, instr, ctx)

    if mnemonic in ("movzx", "movsx", "movsxd"):
        dst, src = ops
        value = _read_operand(state, src, instr, ctx)
        if value is not None:
            extend = s.zext if mnemonic == "movzx" else s.sext
            value = extend(value, dst.width)
        return _store(state, dst, value, instr, ctx)

    if mnemonic in ("add", "sub", "and", "or", "xor", "cmp", "test"):
        return _alu(state, instr, ctx)

    if mnemonic in ("adc", "sbb"):
        # Carry-dependent: sound havoc of the destination and flags.
        dst = ops[0]
        havoc = ctx.names.fresh("havoc", _operand_width(dst))
        new_state, events = _store(state, dst, havoc, instr, ctx)
        return new_state.with_pred(new_state.pred.with_flags(None)), events

    if mnemonic in ("inc", "dec", "neg", "not"):
        (dst,) = ops
        width = _operand_width(dst)
        value = _read_operand(state, dst, instr, ctx)
        result = None
        if value is not None:
            if mnemonic == "inc":
                result = s.add(value, Const(1, width), width)
            elif mnemonic == "dec":
                result = s.sub(value, Const(1, width), width)
            elif mnemonic == "neg":
                result = s.neg(value, width)
            else:
                result = s.not_(value, width)
        new_state, events = _store(state, dst, result, instr, ctx)
        flags = None
        if result is not None and mnemonic != "not":
            flags = FlagState("arith", result, None, width)
        if mnemonic == "not":
            flags = state.pred.flags  # not does not touch flags
        return new_state.with_pred(new_state.pred.with_flags(flags)), events

    if mnemonic in ("shl", "shr", "sar", "rol", "ror"):
        return _shift(state, instr, ctx)

    if mnemonic == "imul":
        return _imul(state, instr, ctx)
    if mnemonic in ("mul", "div", "idiv"):
        return _muldiv(state, instr, ctx)
    if mnemonic in ("cdq", "cqo", "cdqe"):
        return _extend_rax(state, instr, ctx)

    if mnemonic == "xchg":
        dst, src = ops
        a = _read_operand(state, dst, instr, ctx)
        b = _read_operand(state, src, instr, ctx)
        new_state, ev1 = _store(state, dst, b, instr, ctx)
        new_state, ev2 = _store(new_state, src, a, instr, ctx)
        return new_state, ev1 + ev2

    if mnemonic == "push":
        return _push(state, instr, ctx)
    if mnemonic == "pop":
        return _pop(state, instr, ctx)
    if mnemonic == "leave":
        return _leave(state, instr, ctx)
    if mnemonic in ("movsb", "movsq", "stosb", "stosq", "lodsb", "lodsq") \
            or mnemonic.startswith("rep_"):
        return _string_op(state, instr, ctx)

    if mnemonic.startswith("set") and condition_of(mnemonic):
        (dst,) = ops
        cond = None
        if state.pred.flags is not None:
            cond = condition_expr(state.pred.flags, condition_of(mnemonic))
        value = s.zext(cond, 8) if cond is not None else None
        return _store(state, dst, value, instr, ctx)

    if mnemonic.startswith("cmov") and condition_of(mnemonic):
        dst, src = ops
        cond = None
        if state.pred.flags is not None:
            cond = condition_expr(state.pred.flags, condition_of(mnemonic))
        old = _read_operand(state, dst, instr, ctx)
        new = _read_operand(state, src, instr, ctx)
        value = None
        if cond is not None and old is not None and new is not None:
            value = s.ite(cond, new, old, dst.width)
        return _store(state, dst, value, instr, ctx)

    raise UnsupportedInstruction(str(instr))


_FLAG_KIND = {"cmp": "cmp", "sub": "cmp", "test": "test"}


def _alu(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    mnemonic = instr.mnemonic
    dst, src = instr.operands
    width = _operand_width(dst)
    a = _read_operand(state, dst, instr, ctx)
    b = _read_operand(state, src, instr, ctx)
    if b is not None and isinstance(src, Imm) and src.width < width:
        b = Const(Imm(src.value, src.width).signed, width)
    elif b is not None and b.width < width:
        b = s.zext(b, width)

    result = None
    if a is not None and b is not None:
        builder = {
            "add": s.add, "sub": s.sub, "cmp": s.sub,
            "and": s.and_, "or": s.or_, "xor": s.xor, "test": s.and_,
        }[mnemonic]
        result = builder(a, b, width)

    # Flags.
    if a is not None and b is not None:
        kind = _FLAG_KIND.get(mnemonic)
        if kind is not None:
            flags = FlagState(kind, a, b, width)
        else:
            flags = FlagState("arith", result, None, width)
    else:
        flags = None

    if mnemonic in ("cmp", "test"):
        return state.with_pred(state.pred.with_flags(flags)), ()
    new_state, events = _store(state, dst, result, instr, ctx)
    return new_state.with_pred(new_state.pred.with_flags(flags)), events


def _shift(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    mnemonic = instr.mnemonic
    dst, amount = instr.operands
    width = _operand_width(dst)
    a = _read_operand(state, dst, instr, ctx)
    n = _read_operand(state, amount, instr, ctx)
    result = None
    if a is not None and n is not None and mnemonic in ("shl", "shr", "sar"):
        builder = {"shl": s.shl, "shr": s.shr, "sar": s.sar}[mnemonic]
        masked = s.and_(s.zext(n, width) if n.width < width else n,
                        Const(width - 1, width), width)
        result = builder(a, masked, width)
    elif a is not None and n is not None and isinstance(n, Const):
        shift = n.value % width
        if mnemonic == "rol":
            result = s.or_(
                s.shl(a, Const(shift, width), width),
                s.shr(a, Const(width - shift, width), width), width
            ) if shift else a
        else:
            result = s.or_(
                s.shr(a, Const(shift, width), width),
                s.shl(a, Const(width - shift, width), width), width
            ) if shift else a
    new_state, events = _store(state, dst, result, instr, ctx)
    count = None
    if n is not None and isinstance(n, Const):
        count = n.value & (63 if width == 64 else 31)
    if mnemonic in ("rol", "ror"):
        # Rotates touch only CF/OF on hardware (and nothing at all in the
        # reference machine): claiming result-derived SF/ZF would be
        # unsound, so havoc the flag state.
        flags = None
    elif count == 0:
        flags = state.pred.flags   # zero-count shifts leave flags alone
    elif result is None or count is None:
        # Variable (cl) shift count: a zero count would leave the previous
        # flags in place, so a blanket result-derived claim is unsound.
        flags = None
    else:
        flags = FlagState("arith", result, None, width)
    return new_state.with_pred(new_state.pred.with_flags(flags)), events


def _imul(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    ops = instr.operands
    if len(ops) == 1:
        return _muldiv(state, instr, ctx)
    if len(ops) == 2:
        dst, src = ops
        a = _read_operand(state, dst, instr, ctx)
        b = _read_operand(state, src, instr, ctx)
        result = s.mul(a, b, dst.width) if a is not None and b is not None else None
    else:
        dst, src, imm = ops
        b = _read_operand(state, src, instr, ctx)
        result = (
            s.mul(b, Const(imm.signed, dst.width), dst.width)
            if b is not None else None
        )
    new_state, events = _store(state, dst, result, instr, ctx)
    return new_state.with_pred(new_state.pred.with_flags(None)), events


def _muldiv(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    mnemonic = instr.mnemonic
    (src,) = instr.operands
    width = _operand_width(src)
    pred = state.pred
    rax = pred.get_reg("rax")
    rdx = pred.get_reg("rdx")
    divisor = _read_operand(state, src, instr, ctx)
    rax_name = with_width("rax", width) if width != 64 else "rax"
    rdx_name = with_width("rdx", width) if width != 64 else "rdx"

    if mnemonic in ("mul", "imul"):
        low = None
        if rax is not None and divisor is not None:
            a = s.low(rax, width) if width < 64 else rax
            low = s.mul(a, divisor, width)
        new_pred = _write_reg(pred, rax_name, low)
        new_pred = _write_reg(new_pred, rdx_name,
                              ctx.names.fresh("havoc", width))
        return state.with_pred(new_pred.with_flags(None)), ()

    # div / idiv: model precisely only when the dividend fits in rax
    # (rdx == 0 for div, rdx == sign-extension for idiv).
    quotient = remainder = None
    if rax is not None and divisor is not None and rdx is not None:
        a = s.low(rax, width) if width < 64 else rax
        d = divisor
        rdx_low = s.low(rdx, width) if width < 64 else rdx
        if mnemonic == "div" and rdx_low == Const(0, width):
            quotient = s.udiv(a, d, width)
            remainder = s.urem(a, d, width)
        elif mnemonic == "idiv" and rdx_low == s.sar(a, Const(width - 1, width), width):
            quotient = s.sdiv(a, d, width)
            remainder = s.srem(a, d, width)
    if quotient is None:
        quotient = ctx.names.fresh("havoc", width)
        remainder = ctx.names.fresh("havoc", width)
    new_pred = _write_reg(pred, rax_name, quotient)
    new_pred = _write_reg(new_pred, rdx_name, remainder)
    return state.with_pred(new_pred.with_flags(None)), ()


def _extend_rax(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    pred = state.pred
    rax = pred.get_reg("rax")
    if instr.mnemonic == "cdqe":
        value = None if rax is None else s.sext(s.low(rax, 32), 64)
        return state.with_pred(_write_reg(pred, "rax", value)), ()
    width = 32 if instr.mnemonic == "cdq" else 64
    value = None
    if rax is not None:
        low = s.low(rax, width) if width < 64 else rax
        value = s.sar(low, Const(width - 1, width), width)
    name = "edx" if instr.mnemonic == "cdq" else "rdx"
    return state.with_pred(_write_reg(pred, name, value)), ()


def _push(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    (src,) = instr.operands
    value = _read_operand(state, src, instr, ctx)
    if value is not None and isinstance(src, Imm):
        value = Const(Imm(src.value, src.width).signed, 64)
    elif value is not None and value.width < 64:
        value = s.zext(value, 64)
    pred = state.pred
    rsp = pred.get_reg("rsp")
    if rsp is None:
        return _unknown_write(state, instr)
    new_rsp = s.sub(rsp, Const(8))
    region = Region(new_rsp, 8)
    if value is None:
        value = ctx.names.fresh("havoc", 64)
    new_pred = write_region(state, region, value, ctx)
    new_pred = _write_reg(new_pred, "rsp", new_rsp)
    return state.with_pred(new_pred), ()


def _pop(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    (dst,) = instr.operands
    pred = state.pred
    rsp = pred.get_reg("rsp")
    if rsp is None:
        new_state, events = _store(state, dst, None, instr, ctx)
        return new_state, events
    value = read_region(state, Region(rsp, 8), ctx)
    new_state, events = _store(state, dst, value, instr, ctx)
    new_pred = _write_reg(new_state.pred, "rsp", s.add(rsp, Const(8)))
    return new_state.with_pred(new_pred), events


#: Cap above which a constant rep count is no longer unrolled precisely.
_REP_UNROLL_LIMIT = 64
#: Span used for rep writes whose count cannot be bounded at all.
_UNBOUNDED_SPAN = 1 << 40


def _string_step(
    state: SymState, base: str, size: int, ctx: LiftContext
) -> SymState:
    """One element of movs/stos/lods with precise region accounting."""
    pred = state.pred
    rdi = pred.get_reg("rdi")
    rsi = pred.get_reg("rsi")
    if base.startswith("movs"):
        value = (
            read_region(state, Region(rsi, size), ctx)
            if rsi is not None else ctx.names.fresh("havoc", size * 8)
        )
        if rdi is None:
            new_state, _ = _unknown_write(state, Instruction(base))
            state = new_state
        else:
            state = state.with_pred(
                write_region(state, Region(rdi, size), value, ctx)
            )
        pred = state.pred
        pred = _write_reg(pred, "rdi",
                          s.add(rdi, Const(size)) if rdi is not None else None)
        pred = _write_reg(pred, "rsi",
                          s.add(rsi, Const(size)) if rsi is not None else None)
        return state.with_pred(pred)
    if base.startswith("stos"):
        rax = pred.get_reg("rax")
        value = (
            s.low(rax, size * 8) if rax is not None and size == 1 else rax
        )
        if value is None:
            value = ctx.names.fresh("havoc", size * 8)
        if rdi is None:
            new_state, _ = _unknown_write(state, Instruction(base))
            state = new_state
        else:
            state = state.with_pred(
                write_region(state, Region(rdi, size), value, ctx)
            )
        pred = state.pred
        pred = _write_reg(pred, "rdi",
                          s.add(rdi, Const(size)) if rdi is not None else None)
        return state.with_pred(pred)
    # lods
    value = (
        read_region(state, Region(rsi, size), ctx)
        if rsi is not None else ctx.names.fresh("havoc", size * 8)
    )
    pred = _write_reg(pred, "al" if size == 1 else "rax", value)
    pred = _write_reg(pred, "rsi",
                      s.add(rsi, Const(size)) if rsi is not None else None)
    return state.with_pred(pred)


def _string_op(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    mnemonic = instr.mnemonic
    rep = mnemonic.startswith("rep_")
    base = mnemonic[4:] if rep else mnemonic
    size = 1 if base.endswith("b") else 8

    if not rep:
        return _string_step(state, base, size, ctx), ()

    pred = state.pred
    rcx = pred.get_reg("rcx")
    if isinstance(rcx, Const) and rcx.value <= _REP_UNROLL_LIMIT:
        # Inlined fixed-size memcpy/memset: unroll precisely.
        for _ in range(rcx.value):
            state = _string_step(state, base, size, ctx)
        return state.with_pred(_write_reg(state.pred, "rcx", Const(0))), ()

    # Symbolic count: overapproximate the touched span.
    interval = pred.interval_of(rcx) if rcx is not None else None
    if interval is not None and interval.hi * size <= (1 << 20):
        span = interval.hi * size
    else:
        span = _UNBOUNDED_SPAN
    rdi = pred.get_reg("rdi")
    rsi = pred.get_reg("rsi")
    events: tuple[Event, ...] = ()
    if base.startswith(("movs", "stos")):
        if rdi is None:
            state, events = _unknown_write(state, instr)
        elif span:
            havoc = ctx.names.fresh("havoc", 64)
            state = state.with_pred(
                write_region(state, Region(rdi, span), havoc, ctx)
            )
    pred = state.pred
    advance = s.mul(rcx, Const(size)) if rcx is not None else None
    if base.startswith(("movs", "stos")):
        pred = _write_reg(
            pred, "rdi",
            s.add(rdi, advance) if rdi is not None and advance is not None
            else None,
        )
    if base.startswith(("movs", "lods")):
        pred = _write_reg(
            pred, "rsi",
            s.add(rsi, advance) if rsi is not None and advance is not None
            else None,
        )
    pred = _write_reg(pred, "rcx", Const(0))
    return state.with_pred(pred), events


def _leave(
    state: SymState, instr: Instruction, ctx: LiftContext
) -> tuple[SymState, tuple[Event, ...]]:
    pred = state.pred
    rbp = pred.get_reg("rbp")
    if rbp is None:
        pred = _write_reg(pred, "rsp", None)
        pred = _write_reg(pred, "rbp", None)
        return state.with_pred(pred), ()
    value = read_region(state, Region(rbp, 8), ctx)
    pred = _write_reg(pred, "rbp", value)
    pred = _write_reg(pred, "rsp", s.add(rbp, Const(8)))
    return state.with_pred(pred), ()
