"""Concrete emulator tests, including small end-to-end programs."""

from __future__ import annotations

import pytest

from repro.elf import BinaryBuilder
from repro.isa import Imm, Mem, abs64, insn
from repro.machine import CPU, MachineError, Memory, run_binary


def build(program) -> "Binary":
    builder = BinaryBuilder("test")
    program(builder)
    return builder.build(entry="main")


def test_mov_and_arith():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("mov", "eax", Imm(40, 32))
        t.emit("add", "eax", Imm(2, 32))
        t.emit("ret")

    cpu = run_binary(build(program))
    assert cpu.exit_code == 42


def test_function_call_and_stack():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("mov", "edi", Imm(5, 32))
        t.emit("call", "double_it")
        t.emit("add", "eax", Imm(1, 32))
        t.emit("ret")
        t.label("double_it")
        t.emit("lea", "eax", Mem(32, base="rdi", index="rdi", scale=1))
        t.emit("ret")

    cpu = run_binary(build(program))
    assert cpu.exit_code == 11


def test_loop_sums_first_n():
    def program(b):
        t = b.text
        t.label("main")            # sum 1..rdi
        t.emit("xor", "eax", "eax")
        t.label("loop")
        t.emit("test", "rdi", "rdi")
        t.emit("je", "done")
        t.emit("add", "rax", "rdi")
        t.emit("sub", "rdi", Imm(1, 32))
        t.emit("jmp", "loop")
        t.label("done")
        t.emit("ret")

    cpu = run_binary(build(program), args=[10])
    assert cpu.exit_code == 55


def test_conditional_signed_vs_unsigned():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("cmp", "rdi", "rsi")
        t.emit("jl", "less")       # signed
        t.emit("mov", "eax", Imm(0, 32))
        t.emit("ret")
        t.label("less")
        t.emit("mov", "eax", Imm(1, 32))
        t.emit("ret")

    binary = build(program)
    assert run_binary(binary, args=[3, 5]).exit_code == 1
    assert run_binary(binary, args=[5, 3]).exit_code == 0
    # -1 <s 1 even though 0xffff... >u 1.
    assert run_binary(binary, args=[(1 << 64) - 1, 1]).exit_code == 1


def test_memory_store_load_roundtrip():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("push", "rbp")
        t.emit("mov", "rbp", "rsp")
        t.emit("sub", "rsp", Imm(16, 32))
        t.emit("mov", Mem(64, base="rbp", disp=-8), Imm(1234, 32))
        t.emit("mov", "rax", Mem(64, base="rbp", disp=-8))
        t.emit("leave")
        t.emit("ret")

    assert run_binary(build(program)).exit_code == 1234 & 0xFF


def test_memory_wraps_at_two_to_the_64_on_read_and_write():
    from repro.machine import Memory

    memory = Memory()
    memory.write(2**64 - 4, 0x1122334455667788, 8)
    assert memory.read(2**64 - 4, 8) == 0x1122334455667788
    assert memory.read(0, 4) == 0x11223344


def test_jump_table_dispatch():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("cmp", "rdi", Imm(2, 32))
        t.emit("ja", "default")
        t.emit("lea", "rax", Mem(64, base="rip", disp=0))  # placeholder
        # Proper table load: rax = [table + rdi*8]
        b.text._items.pop()  # drop placeholder
        t.emit("movabs", "rax", abs64("table"))
        t.emit("mov", "rax", Mem(64, base="rax", index="rdi", scale=8))
        t.emit("jmp", "rax")
        t.label("default")
        t.emit("mov", "eax", Imm(99, 32))
        t.emit("ret")
        t.label("case0")
        t.emit("mov", "eax", Imm(10, 32))
        t.emit("ret")
        t.label("case1")
        t.emit("mov", "eax", Imm(11, 32))
        t.emit("ret")
        t.label("case2")
        t.emit("mov", "eax", Imm(12, 32))
        t.emit("ret")
        rod = b.rodata
        rod.label("table")
        rod.quad(abs64("case0"))
        rod.quad(abs64("case1"))
        rod.quad(abs64("case2"))

    binary = build(program)
    assert run_binary(binary, args=[0]).exit_code == 10
    assert run_binary(binary, args=[1]).exit_code == 11
    assert run_binary(binary, args=[2]).exit_code == 12
    assert run_binary(binary, args=[3]).exit_code == 99


def test_subregister_writes():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("movabs", "rax", Imm(0x1122334455667788, 64))
        t.emit("mov", "al", Imm(0xFF, 8))      # only low byte
        t.emit("mov", "rdx", "rax")
        t.emit("mov", "eax", Imm(0, 32))        # zero-extends
        t.emit("mov", "rax", "rdx")
        t.emit("ret")

    cpu = run_binary(build(program))
    assert cpu.regs["rdx"] == 0x11223344556677FF


def test_division():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("mov", "rax", "rdi")
        t.emit("cqo")
        t.emit("idiv", "rsi")
        t.emit("ret")

    assert run_binary(build(program), args=[100, 7]).exit_code == 14


def test_shifts_and_rotates():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("mov", "rax", "rdi")
        t.emit("shl", "rax", Imm(4, 8))
        t.emit("shr", "rax", Imm(2, 8))
        t.emit("ret")

    assert run_binary(build(program), args=[3]).exit_code == 12


def test_setcc_and_cmov():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("xor", "eax", "eax")
        t.emit("cmp", "rdi", "rsi")
        t.emit("sete", "al")
        t.emit("mov", "ecx", Imm(7, 32))
        t.emit("cmp", "rdi", Imm(0, 32))
        t.emit("cmove", "rax", "rcx")
        t.emit("ret")

    assert run_binary(build(program), args=[4, 4]).exit_code == 1
    assert run_binary(build(program), args=[0, 9]).exit_code == 7


def test_external_call_handler():
    def program(b):
        b.extern("get_seven")
        t = b.text
        t.label("main")
        t.emit("call", "get_seven")
        t.emit("add", "eax", Imm(1, 32))
        t.emit("ret")

    def get_seven(cpu):
        cpu.regs["rax"] = 7

    cpu = run_binary(build(program), extern_handlers={"get_seven": get_seven})
    assert cpu.exit_code == 8


def test_unhandled_external_raises():
    def program(b):
        b.extern("mystery")
        t = b.text
        t.label("main")
        t.emit("call", "mystery")
        t.emit("ret")

    with pytest.raises(MachineError):
        run_binary(build(program))


def test_step_budget():
    def program(b):
        t = b.text
        t.label("main")
        t.label("spin")
        t.emit("jmp", "spin")

    with pytest.raises(MachineError):
        run_binary(build(program), max_steps=100)


def test_syscall_exit():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("mov", "edi", Imm(33, 32))
        t.emit("mov", "eax", Imm(60, 32))
        t.emit("syscall")

    assert run_binary(build(program)).exit_code == 33


def test_trace_records_executed_addresses():
    def program(b):
        t = b.text
        t.label("main")
        t.emit("mov", "eax", Imm(1, 32))
        t.emit("ret")

    cpu = run_binary(build(program))
    assert cpu.trace[0] == cpu.binary.entry
    assert len(cpu.trace) == 2


def test_a_cpu_in_state_holds_exactly_that_state():
    # CPU.in_state fills in none of CPU()'s register, flag, rsp or stack
    # defaults, and gives every other field its declared default.
    def program(b):
        b.text.label("main")
        b.text.emit("ret")

    binary = build(program)
    regs, flags = {"rax": 7, "rsp": 0}, {"zf": 1}
    memory = Memory(binary)
    cpu = CPU.in_state(binary, 0x401000, regs, flags, memory)
    assert cpu.regs is regs and cpu.flags is flags and cpu.memory is memory
    assert cpu.rip == 0x401000 and memory.bytes == {}
    default = CPU(binary)
    assert vars(cpu).keys() == vars(default).keys()
    for name in ("halted", "exit_code", "extern_handlers", "trace",
                 "max_steps"):
        assert getattr(cpu, name) == getattr(default, name), name
