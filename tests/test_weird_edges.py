"""The Section 2 example: overlapping instructions and "weird" edges.

A 64-bit port of Figure 1: a jump-table dispatch whose stored pointer can
be clobbered — when the two store pointers alias — by an immediate that
happens to be the address of the *middle* of the first instruction, whose
trailing byte 0xc3 decodes as ``ret``.  A provably overapproximative HG
must contain both the intended jump-table edges and the ROP-gadget edge.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

from repro import lift
from repro.elf import BinaryBuilder
from repro.isa import Imm, Mem, abs32, abs64, insn


def build_weird_binary():
    builder = BinaryBuilder("weird")
    t = builder.text
    t.label("main")
    # 48 3d c3 00 00 00 — cmp rax, 0xc3; the byte at main+2 is c3 (= ret).
    t.emit("cmp", "rax", Imm(0xC3, 32))
    t.emit("ja", "out")
    t.emit("movabs", "rcx", abs64("table"))
    t.emit("mov", "rax", Mem(64, base="rcx", index="rax", scale=8))
    t.emit("mov", Mem(64, base="rdi"), "rax")          # *rdi = a_jt
    # *rsi = main+2: if rsi aliases rdi this redirects the jump into the
    # middle of the cmp instruction.  (The paper's 32-bit example stores a
    # dword; a 64-bit indirect jmp reads a qword, so store a qword here.)
    t.emit("mov", Mem(64, base="rsi"), abs32("main", addend=2))
    t.emit("jmp", Mem(64, base="rdi"))
    t.label("out")
    t.emit("ret")
    t.label("case0")
    t.emit("mov", "eax", Imm(10, 32))
    t.emit("ret")
    t.label("case1")
    t.emit("mov", "eax", Imm(11, 32))
    t.emit("ret")
    rod = builder.rodata
    rod.label("table")
    for index in range(0xC4):
        rod.quad(abs64("case0" if index % 2 == 0 else "case1"))
    return builder.build(entry="main")


@pytest.fixture(scope="module")
def weird_binary():
    return build_weird_binary()


def test_cmp_encoding_contains_ret_byte(weird_binary):
    entry = weird_binary.entry
    assert weird_binary.read(entry, 6) == bytes.fromhex("483dc3000000")
    weird = weird_binary.fetch(entry + 2)
    assert weird.mnemonic == "ret"


@pytest.fixture(scope="module")
def weird_result(weird_binary):
    return lift(weird_binary, max_targets=4096)


def test_lift_succeeds_with_overapproximation(weird_result):
    assert weird_result.verified


def test_jump_table_edges_present(weird_result):
    """The intended behavior: the indirect jmp reaches both cases."""
    instructions = weird_result.instructions
    jmp_addr = next(
        addr for addr, instr in instructions.items()
        if instr.mnemonic == "jmp" and instr.operands
    )
    targets = weird_result.graph.control_flow_targets(jmp_addr)
    labels = weird_result.binary if False else None
    mnemonics_at = {t: instructions[t].mnemonic for t in targets if t in instructions}
    # case0/case1 entries are movs.
    assert list(mnemonics_at.values()).count("mov") >= 2


def test_weird_edge_found(weird_result, weird_binary):
    """The aliasing fork produces an edge into the middle of the cmp
    instruction — a ROP gadget (ret) at main+2."""
    weird_addr = weird_binary.entry + 2
    assert weird_addr in weird_result.instructions
    assert weird_result.instructions[weird_addr].mnemonic == "ret"
    jmp_addr = next(
        addr for addr, instr in weird_result.instructions.items()
        if instr.mnemonic == "jmp" and instr.operands
    )
    assert weird_addr in weird_result.graph.control_flow_targets(jmp_addr)


def test_weird_ret_returns_to_caller(weird_result, weird_binary):
    """The ROP ret at main+2 executes with an untouched stack, so it
    returns to the function's return symbol — the a_r edge of Figure 1."""
    weird_addr = weird_binary.entry + 2
    ret_edges = [
        e for e in weird_result.graph.edges
        if e.instr_addr == weird_addr and e.dst[0] == "ret"
    ]
    assert ret_edges


def test_aliasing_assumption_recorded(weird_result):
    assert any(a.kind == "alignment" for a in weird_result.assumptions)


def test_overapproximation_covers_concrete_aliasing_run(weird_binary):
    """Concretely execute the aliasing scenario; every executed address
    must appear in the lifted disassembly (overapproximation witness)."""
    from repro.machine import CPU

    result = lift(weird_binary, max_targets=4096)
    scratch = 0x420000 - 0x100  # unmapped-but-usable scratch address
    cpu = CPU(weird_binary)
    cpu.regs["rax"] = 2
    cpu.regs["rdi"] = scratch
    cpu.regs["rsi"] = scratch           # aliasing!
    cpu.run(max_steps=100)
    executed = set(cpu.trace)
    lifted = set(result.instructions)
    assert executed <= lifted, f"missing: {[hex(a) for a in executed - lifted]}"
    assert weird_binary.entry + 2 in executed  # the ROP ret really runs


def test_overapproximation_covers_concrete_normal_run(weird_binary):
    from repro.machine import CPU

    result = lift(weird_binary, max_targets=4096)
    cpu = CPU(weird_binary)
    cpu.regs["rax"] = 2
    cpu.regs["rdi"] = 0x430000
    cpu.regs["rsi"] = 0x430100          # distinct: normal dispatch
    cpu.run(max_steps=100)
    assert cpu.exit_code == 10          # case0
    assert set(cpu.trace) <= set(result.instructions)


# -- the exported theory ------------------------------------------------------

_EXPORTER = """
from repro import lift
from repro.export import export_theory
from tests.test_weird_edges import build_weird_binary

print(export_theory(lift(build_weird_binary(), max_targets=4096)), end="")
"""


def _theory_under_seed(seed: int) -> str:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join([os.path.join(repo, "src"), repo]))
    out = subprocess.run([sys.executable, "-c", _EXPORTER], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return out.stdout


def test_theory_text_does_not_depend_on_the_hash_seed():
    # The jmp vertices hold text immediates in memory, so their keys carry
    # the memory model (five-element keys); their definition names must
    # not come from a salted hash of it.
    first, *others = (_theory_under_seed(seed) for seed in (1, 2, 3))
    assert all(other == first for other in others)
    names = re.findall(r'^definition "(\w+) ', first, flags=re.M)
    assert len(names) == len(set(names))
    assert sum("_m" in name for name in names) > 1
