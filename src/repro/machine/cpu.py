"""A concrete x86-64 emulator for the supported subset.

This is the black-box transition relation ``→_B`` of Definition 3.1, made
executable.  It serves two purposes:

* **differential testing** — the symbolic semantics τ and the Isabelle-side
  checker are validated against it on random instructions and programs;
* **simulation-soundness checks** — tests drive a concrete execution and
  assert that every step is covered by an edge of the extracted Hoare graph
  (the ``R`` relation of Lemma 4.5).

The emulator is deliberately a *separate implementation* from the symbolic
semantics: shared code would make differential testing vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.elf import Binary
from repro.isa import Instruction, Imm, Mem, Reg, condition_of
from repro.isa.registers import GPR64, family_of, reg_width, with_width

MASK64 = (1 << 64) - 1
_TOP = 1 << 64


def _mask(width: int) -> int:
    return (1 << width) - 1


def _signed(value: int, width: int) -> int:
    sign = 1 << (width - 1)
    value &= _mask(width)
    return value - (1 << width) if value & sign else value


class MachineError(RuntimeError):
    """The emulator cannot continue (bad fetch, unmapped access...)."""


@dataclass
class Memory:
    """Sparse byte-addressed memory initialized lazily from the binary."""

    binary: Binary | None = None
    bytes: dict[int, int] = field(default_factory=dict)

    def read(self, addr: int, size: int) -> int:
        # Written bytes first: a read of bytes that were all written (the
        # common case) is one dict lookup per byte, no section scan.
        if 0 <= addr and addr + size <= _TOP:
            try:
                return int.from_bytes(
                    bytes(map(self.bytes.__getitem__, range(addr, addr + size))),
                    "little")
            except KeyError:
                pass
        value = 0
        for i in range(size):
            value |= self._read_byte((addr + i) & MASK64) << (8 * i)
        return value

    def _read_byte(self, addr: int) -> int:
        if addr in self.bytes:
            return self.bytes[addr]
        if self.binary is not None:
            section = self.binary.section_at(addr)
            if section is not None:
                return section.data[addr - section.addr]
        return 0

    def write(self, addr: int, value: int, size: int) -> None:
        for i in range(size):
            self.bytes[(addr + i) & MASK64] = (value >> (8 * i)) & 0xFF


#: The status flags the emulator models, in the order a CPU holds them.
FLAGS = ("cf", "zf", "sf", "of", "pf")

#: Default initial stack pointer (16-byte aligned, well above the binary).
STACK_TOP = 0x7FFF_FFF0_0000


@dataclass
class CPU:
    """Concrete machine state + single-step executor."""

    binary: Binary
    regs: dict[str, int] = field(default_factory=dict)
    flags: dict[str, int] = field(default_factory=dict)
    memory: Memory = None  # type: ignore[assignment]
    rip: int = 0
    halted: bool = False
    exit_code: int | None = None
    #: name -> handler(cpu); called when rip enters an external stub.
    extern_handlers: dict[str, Callable[["CPU"], None]] = field(default_factory=dict)
    trace: list[int] = field(default_factory=list)
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.memory is None:
            self.memory = Memory(self.binary)
        for reg in GPR64:
            self.regs.setdefault(reg, 0)
        for flag in FLAGS:
            self.flags.setdefault(flag, 0)
        if not self.rip:
            self.rip = self.binary.entry
        if not self.regs.get("rsp"):
            self.regs["rsp"] = STACK_TOP
            # A sentinel return address so a final `ret` halts cleanly.
            self.memory.write(STACK_TOP, _SENTINEL_RETURN, 8)

    @classmethod
    def in_state(cls, binary: Binary, rip: int, regs: dict[str, int],
                 flags: dict[str, int], memory: Memory) -> "CPU":
        """A CPU holding exactly the given state.  Unlike ``CPU(...)``,
        no default is filled in or computed: an ``rsp`` of 0 stays 0, no
        stack sentinel is written, and a missing register stays missing.
        The other fields get their declared defaults."""
        cpu = cls.__new__(cls)
        cpu.__dict__.update(
            binary=binary, regs=regs, flags=flags, memory=memory, rip=rip,
            halted=False, exit_code=None, extern_handlers={}, trace=[],
            max_steps=1_000_000)
        return cpu

    # -- register access respecting sub-register semantics -----------------------
    def get_reg(self, name: str) -> int:
        width = reg_width(name)
        return self.regs[family_of(name)] & _mask(width)

    def set_reg(self, name: str, value: int) -> None:
        family = family_of(name)
        width = reg_width(name)
        value &= _mask(width)
        if width in (64, 32):
            self.regs[family] = value  # 32-bit writes zero-extend
        else:
            old = self.regs[family]
            self.regs[family] = (old & ~_mask(width)) | value

    # -- operand helpers -----------------------------------------------------------
    def mem_address(self, mem: Mem, instr: Instruction) -> int:
        if mem.base == "rip":
            return (instr.end + mem.disp) & MASK64
        addr = mem.disp
        if mem.base:
            addr += self.regs[mem.base]
        if mem.index:
            addr += self.regs[mem.index] * mem.scale
        return addr & MASK64

    def read_operand(self, op, instr: Instruction) -> int:
        if isinstance(op, Reg):
            return self.get_reg(op.name)
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, Mem):
            return self.memory.read(self.mem_address(op, instr), op.width // 8)
        raise MachineError(f"bad operand {op!r}")

    def write_operand(self, op, value: int, instr: Instruction) -> None:
        if isinstance(op, Reg):
            self.set_reg(op.name, value)
        elif isinstance(op, Mem):
            self.memory.write(self.mem_address(op, instr), value, op.width // 8)
        else:
            raise MachineError(f"cannot write operand {op!r}")

    # -- flags ------------------------------------------------------------------------
    def set_flags_arith(self, result: int, width: int, carry: int, overflow: int) -> None:
        result &= _mask(width)
        self.flags["zf"] = int(result == 0)
        self.flags["sf"] = (result >> (width - 1)) & 1
        self.flags["cf"] = carry
        self.flags["of"] = overflow
        self.flags["pf"] = 1 - (bin(result & 0xFF).count("1") & 1)

    def set_flags_logic(self, result: int, width: int) -> None:
        self.set_flags_arith(result, width, carry=0, overflow=0)

    def condition(self, cc: str) -> bool:
        f = self.flags
        table = {
            "o": f["of"], "no": 1 - f["of"],
            "b": f["cf"], "ae": 1 - f["cf"],
            "e": f["zf"], "ne": 1 - f["zf"],
            "be": f["cf"] | f["zf"], "a": 1 - (f["cf"] | f["zf"]),
            "s": f["sf"], "ns": 1 - f["sf"],
            "p": f["pf"], "np": 1 - f["pf"],
            "l": f["sf"] ^ f["of"], "ge": 1 - (f["sf"] ^ f["of"]),
            "le": (f["sf"] ^ f["of"]) | f["zf"],
            "g": 1 - ((f["sf"] ^ f["of"]) | f["zf"]),
        }
        return bool(table[cc])

    # -- stack ---------------------------------------------------------------------------
    def push(self, value: int) -> None:
        self.regs["rsp"] = (self.regs["rsp"] - 8) & MASK64
        self.memory.write(self.regs["rsp"], value, 8)

    def pop(self) -> int:
        value = self.memory.read(self.regs["rsp"], 8)
        self.regs["rsp"] = (self.regs["rsp"] + 8) & MASK64
        return value

    # -- execution --------------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            return
        extern = self.binary.external_name(self.rip)
        if extern is not None:
            handler = self.extern_handlers.get(extern)
            if handler is None:
                raise MachineError(f"no handler for external {extern}")
            handler(self)
            self.rip = self.pop()  # behave like `ret`
            if self.rip == _SENTINEL_RETURN:
                self.halted = True
            return
        if self.rip == _SENTINEL_RETURN:
            self.halted = True
            return
        instr = self.binary.fetch(self.rip)
        self.trace.append(self.rip)
        self.execute(instr)

    def run(self, max_steps: int | None = None) -> int:
        """Run until halt; returns the exit code (rax-based if none set)."""
        budget = max_steps or self.max_steps
        for _ in range(budget):
            if self.halted:
                break
            self.step()
        else:
            raise MachineError("step budget exhausted")
        if self.exit_code is None:
            self.exit_code = self.regs["rax"] & 0xFF
        return self.exit_code

    # -- the instruction interpreter -----------------------------------------------------------
    def execute(self, instr: Instruction) -> None:
        mnemonic = instr.mnemonic
        ops = instr.operands
        next_rip = instr.end

        if mnemonic in ("mov", "movabs"):
            dst, src = ops
            self.write_operand(dst, self.read_operand(src, instr), instr)
        elif mnemonic == "lea":
            dst, src = ops
            self.set_reg(dst.name, self.mem_address(src, instr))
        elif mnemonic in ("add", "sub", "cmp", "adc", "sbb"):
            dst, src = ops
            width = dst.width if isinstance(dst, (Reg, Mem)) else 64
            a = self.read_operand(dst, instr)
            b = self.read_operand(src, instr) & _mask(width)
            carry_in = self.flags["cf"] if mnemonic in ("adc", "sbb") else 0
            if mnemonic in ("add", "adc"):
                total = a + b + carry_in
                result = total & _mask(width)
                carry = int(total > _mask(width))
                overflow = int(
                    _signed(a, width) + _signed(b, width) + carry_in
                    != _signed(result, width)
                )
            else:
                total = a - b - carry_in
                result = total & _mask(width)
                carry = int(total < 0)
                overflow = int(
                    _signed(a, width) - _signed(b, width) - carry_in
                    != _signed(result, width)
                )
            self.set_flags_arith(result, width, carry, overflow)
            if mnemonic != "cmp":
                self.write_operand(dst, result, instr)
        elif mnemonic in ("and", "or", "xor", "test"):
            dst, src = ops
            width = dst.width if isinstance(dst, (Reg, Mem)) else 64
            a = self.read_operand(dst, instr)
            b = self.read_operand(src, instr) & _mask(width)
            result = {"and": a & b, "test": a & b, "or": a | b, "xor": a ^ b}[
                mnemonic
            ] & _mask(width)
            self.set_flags_logic(result, width)
            if mnemonic != "test":
                self.write_operand(dst, result, instr)
        elif mnemonic in ("inc", "dec"):
            (dst,) = ops
            width = dst.width
            a = self.read_operand(dst, instr)
            result = (a + 1 if mnemonic == "inc" else a - 1) & _mask(width)
            # inc/dec preserve CF.
            overflow = int(
                result == (1 << (width - 1)) if mnemonic == "inc"
                else result == _mask(width) >> 1
            )
            carry = self.flags["cf"]
            self.set_flags_arith(result, width, carry, overflow)
            self.write_operand(dst, result, instr)
        elif mnemonic == "neg":
            (dst,) = ops
            width = dst.width
            a = self.read_operand(dst, instr)
            result = (-a) & _mask(width)
            self.set_flags_arith(result, width, carry=int(a != 0),
                                 overflow=int(a == 1 << (width - 1)))
            self.write_operand(dst, result, instr)
        elif mnemonic == "not":
            (dst,) = ops
            width = dst.width
            self.write_operand(dst, ~self.read_operand(dst, instr) & _mask(width), instr)
        elif mnemonic in ("shl", "shr", "sar", "rol", "ror"):
            dst, amount = ops
            width = dst.width
            a = self.read_operand(dst, instr)
            n = self.read_operand(amount, instr) & (63 if width == 64 else 31)
            if n == 0:
                result = a
            elif mnemonic == "shl":
                result = (a << n) & _mask(width)
                self.set_flags_logic(result, width)
                self.flags["cf"] = (a >> (width - n)) & 1 if n <= width else 0
            elif mnemonic == "shr":
                result = (a & _mask(width)) >> n
                self.set_flags_logic(result, width)
                self.flags["cf"] = (a >> (n - 1)) & 1
            elif mnemonic == "sar":
                result = (_signed(a, width) >> n) & _mask(width)
                self.set_flags_logic(result, width)
                self.flags["cf"] = (_signed(a, width) >> (n - 1)) & 1
            elif mnemonic == "rol":
                n %= width
                result = ((a << n) | (a >> (width - n))) & _mask(width) if n else a
            else:  # ror
                n %= width
                result = ((a >> n) | (a << (width - n))) & _mask(width) if n else a
            self.write_operand(dst, result, instr)
        elif mnemonic == "imul":
            if len(ops) == 1:
                width = ops[0].width
                a = _signed(self.get_reg(with_width("rax", width)), width)
                b = _signed(self.read_operand(ops[0], instr), width)
                product = a * b
                self.set_reg(with_width("rax", width), product & _mask(width))
                self.set_reg(with_width("rdx", width),
                             (product >> width) & _mask(width))
            elif len(ops) == 2:
                dst, src = ops
                width = dst.width
                product = _signed(self.read_operand(dst, instr), width) * _signed(
                    self.read_operand(src, instr), width
                )
                self.set_reg(dst.name, product & _mask(width))
            else:
                dst, src, imm = ops
                width = dst.width
                product = _signed(self.read_operand(src, instr), width) * imm.signed
                self.set_reg(dst.name, product & _mask(width))
        elif mnemonic == "mul":
            (src,) = ops
            width = src.width
            product = self.get_reg(with_width("rax", width)) * self.read_operand(
                src, instr
            )
            self.set_reg(with_width("rax", width), product & _mask(width))
            self.set_reg(with_width("rdx", width), (product >> width) & _mask(width))
        elif mnemonic in ("div", "idiv"):
            (src,) = ops
            width = src.width
            divisor = self.read_operand(src, instr)
            hi = self.get_reg(with_width("rdx", width))
            lo = self.get_reg(with_width("rax", width))
            dividend = (hi << width) | lo
            if mnemonic == "idiv":
                dividend = _signed(dividend, width * 2)
                sdivisor = _signed(divisor, width)
                if sdivisor == 0:
                    raise MachineError("integer division by zero")
                quotient = abs(dividend) // abs(sdivisor)
                if (dividend < 0) != (sdivisor < 0):
                    quotient = -quotient
                remainder = dividend - quotient * sdivisor
            else:
                if divisor == 0:
                    raise MachineError("integer division by zero")
                quotient, remainder = divmod(dividend, divisor)
            self.set_reg(with_width("rax", width), quotient & _mask(width))
            self.set_reg(with_width("rdx", width), remainder & _mask(width))
        elif mnemonic == "cdq":
            self.set_reg("edx", _mask(32) if self.get_reg("eax") >> 31 else 0)
        elif mnemonic == "cqo":
            self.regs["rdx"] = MASK64 if self.regs["rax"] >> 63 else 0
        elif mnemonic == "cdqe":
            self.regs["rax"] = _signed(self.get_reg("eax"), 32) & MASK64
        elif mnemonic in ("movzx", "movsx", "movsxd"):
            dst, src = ops
            value = self.read_operand(src, instr)
            if mnemonic != "movzx":
                value = _signed(value, src.width) & _mask(dst.width)
            self.set_reg(dst.name, value)
        elif mnemonic == "xchg":
            dst, src = ops
            a = self.read_operand(dst, instr)
            b = self.read_operand(src, instr)
            self.write_operand(dst, b, instr)
            self.write_operand(src, a, instr)
        elif mnemonic == "push":
            (src,) = ops
            value = self.read_operand(src, instr)
            if isinstance(src, Imm):
                value = _signed(value, src.width) & MASK64
            self.push(value)
        elif mnemonic == "pop":
            (dst,) = ops
            self.write_operand(dst, self.pop(), instr)
        elif mnemonic == "leave":
            self.regs["rsp"] = self.regs["rbp"]
            self.regs["rbp"] = self.pop()
        elif mnemonic == "call":
            (target,) = ops
            self.push(next_rip)
            next_rip = self._branch_target(target, instr)
        elif mnemonic == "jmp":
            (target,) = ops
            next_rip = self._branch_target(target, instr)
        elif mnemonic == "ret":
            next_rip = self.pop()
            if ops:
                self.regs["rsp"] = (self.regs["rsp"] + ops[0].value) & MASK64
            if next_rip == _SENTINEL_RETURN:
                self.halted = True
        elif mnemonic.startswith("j") and condition_of(mnemonic):
            cc = condition_of(mnemonic)
            (target,) = ops
            if self.condition(cc):
                next_rip = (instr.end + target.signed) & MASK64
        elif mnemonic.startswith("set") and condition_of(mnemonic):
            (dst,) = ops
            self.write_operand(dst, int(self.condition(condition_of(mnemonic))), instr)
        elif mnemonic.startswith("cmov") and condition_of(mnemonic):
            dst, src = ops
            if self.condition(condition_of(mnemonic)):
                self.set_reg(dst.name, self.read_operand(src, instr))
            else:
                # A 32-bit cmov still zero-extends the destination.
                if dst.width == 32:
                    self.set_reg(dst.name, self.get_reg(dst.name))
        elif mnemonic in ("movsb", "movsq", "stosb", "stosq",
                          "lodsb", "lodsq") or mnemonic.startswith("rep_"):
            self._string_op(mnemonic)
        elif mnemonic == "nop":
            pass
        elif mnemonic in ("hlt", "ud2", "int3"):
            self.halted = True
        elif mnemonic == "syscall":
            self._syscall()
        else:
            raise MachineError(f"unimplemented instruction {instr}")

        self.rip = next_rip

    def _branch_target(self, target, instr: Instruction) -> int:
        if isinstance(target, Imm):
            return (instr.end + target.signed) & MASK64
        return self.read_operand(target, instr) & MASK64

    def _string_op(self, mnemonic: str) -> None:
        """movs/stos/lods (optionally rep-prefixed); direction flag assumed 0."""
        rep = mnemonic.startswith("rep_")
        base = mnemonic[4:] if rep else mnemonic
        size = 1 if base.endswith("b") else 8
        count = self.regs["rcx"] if rep else 1
        if count > self.max_steps:
            raise MachineError("rep count exceeds step budget")
        for _ in range(count):
            if base.startswith("movs"):
                value = self.memory.read(self.regs["rsi"], size)
                self.memory.write(self.regs["rdi"], value, size)
                self.regs["rsi"] = (self.regs["rsi"] + size) & MASK64
                self.regs["rdi"] = (self.regs["rdi"] + size) & MASK64
            elif base.startswith("stos"):
                value = self.regs["rax"] & _mask(size * 8)
                self.memory.write(self.regs["rdi"], value, size)
                self.regs["rdi"] = (self.regs["rdi"] + size) & MASK64
            else:  # lods
                value = self.memory.read(self.regs["rsi"], size)
                self.set_reg("al" if size == 1 else "rax", value)
                self.regs["rsi"] = (self.regs["rsi"] + size) & MASK64
        if rep:
            self.regs["rcx"] = 0

    def _syscall(self) -> None:
        number = self.regs["rax"]
        if number == 60:  # exit
            self.exit_code = self.regs["rdi"] & 0xFF
            self.halted = True
        else:
            raise MachineError(f"unsupported syscall {number}")


_SENTINEL_RETURN = 0xDEAD_0000_0000


def run_binary(binary: Binary, args: list[int] | None = None,
               extern_handlers=None, max_steps: int = 1_000_000) -> CPU:
    """Convenience runner: create a CPU, pass integer args per the SysV
    convention (rdi, rsi, rdx, rcx, r8, r9), run to completion."""
    cpu = CPU(binary, max_steps=max_steps)
    if extern_handlers:
        cpu.extern_handlers.update(extern_handlers)
    arg_regs = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
    for reg, value in zip(arg_regs, args or []):
        cpu.regs[reg] = value & MASK64
    cpu.run()
    return cpu
