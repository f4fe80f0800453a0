"""Feedback workloads: binaries built to exercise the pointer-summaries
refinement (``lift(..., pointer_summaries=True)``).

The minicc corpus rarely re-reads global state across calls inside loops
— its codegen keeps working values in the frame — so the call-cleaning
refinement, while *firing* on most corpus calls, barely moves the join or
SMT-query counts there.  These builders concentrate the pattern the
feedback targets:

* a global read back after a call to a **pure** callee (the
  ``writes_nothing`` path: the cleaning keeps every non-stack clause and
  leaves the epoch at 0, so the re-read still sees the initial-memory
  value);
* a global read back after a call to a callee that writes **one other**
  global (the ``keeps`` path: the cleaning havocs exactly the callee's
  MAY-written region and keeps the rest);
* both inside loops, where every clause the context-free policy drops is
  re-derived — and re-queried — once per fixpoint iteration.

``tests/test_pointer.py`` lifts each of them with summaries off and on
and requires the same verdict with no more annotations; the pointer-smoke
CI job repeats that on :func:`flag_loop`.  They are deliberately *not*
part of ``build_corpus``, so Table 1 and its golden files are untouched.
"""

from __future__ import annotations

from repro.elf import Binary, BinaryBuilder
from repro.isa import Imm, Mem, abs64


#: Globals polled per iteration of :func:`flag_loop`.  Each one is a
#: clause the context-free policy re-derives (and re-queries) once per
#: fixpoint iteration; the refinement cost/benefit scales with it.
FLAG_COUNT = 4


def flag_loop() -> Binary:
    """A loop polling ``FLAG_COUNT`` global flags, calling a pure helper
    for each one that is set.

    Context-free cleaning drops every flag clause at each call, so every
    iteration re-reads post-epoch memory; with the helper summarized as
    ``writes_nothing`` the clauses (and epoch 0) survive the calls."""
    b = BinaryBuilder("flag_loop")
    t = b.text
    t.label("main")
    t.emit("sub", "rsp", Imm(16, 32))
    t.emit("mov", Mem(64, base="rsp"), Imm(8, 32))
    t.label("loop")
    for i in range(FLAG_COUNT):
        t.emit("movabs", "rcx", abs64(f"flag{i}"))
        t.emit("mov", "rax", Mem(64, base="rcx"))
        t.emit("test", "rax", "rax")
        t.emit("je", f"skip{i}")
        t.emit("call", "helper")
        t.label(f"skip{i}")
    t.emit("mov", "rdx", Mem(64, base="rsp"))
    t.emit("sub", "rdx", Imm(1, 32))
    t.emit("mov", Mem(64, base="rsp"), "rdx")
    t.emit("test", "rdx", "rdx")
    t.emit("jne", "loop")
    t.emit("add", "rsp", Imm(16, 32))
    t.emit("xor", "rax", "rax")
    t.emit("ret")
    t.label("helper")
    t.emit("lea", "rax", Mem(64, base="rdi", disp=3))
    t.emit("ret")
    d = b.data
    for i in range(FLAG_COUNT):
        d.label(f"flag{i}")
        d.quad(1)
    return b.build(entry="main")


def keeps_loop() -> Binary:
    """A loop reading global ``kept`` around a callee that writes only
    global ``counter``: the ``keeps`` path must havoc ``counter`` and
    preserve the ``kept`` clause."""
    b = BinaryBuilder("keeps_loop")
    t = b.text
    t.label("main")
    t.emit("sub", "rsp", Imm(16, 32))
    t.emit("mov", Mem(64, base="rsp"), Imm(6, 32))
    t.label("loop")
    t.emit("movabs", "rcx", abs64("kept"))
    t.emit("mov", "rax", Mem(64, base="rcx"))
    t.emit("test", "rax", "rax")
    t.emit("je", "skip")
    t.emit("call", "bump")
    t.label("skip")
    t.emit("mov", "rdx", Mem(64, base="rsp"))
    t.emit("sub", "rdx", Imm(1, 32))
    t.emit("mov", Mem(64, base="rsp"), "rdx")
    t.emit("test", "rdx", "rdx")
    t.emit("jne", "loop")
    t.emit("add", "rsp", Imm(16, 32))
    t.emit("xor", "rax", "rax")
    t.emit("ret")
    t.label("bump")
    t.emit("movabs", "rcx", abs64("counter"))
    t.emit("mov", "rax", Mem(64, base="rcx"))
    t.emit("lea", "rax", Mem(64, base="rax", disp=1))
    t.emit("mov", Mem(64, base="rcx"), "rax")
    t.emit("ret")
    d = b.data
    d.label("kept")
    d.quad(1)
    d.label("counter")
    d.quad(0)
    return b.build(entry="main")


def pure_chain() -> Binary:
    """Straight-line calls to pure helpers between global reads: every
    call site is a refined havoc, no loop — isolates the per-call cost."""
    b = BinaryBuilder("pure_chain")
    t = b.text
    t.label("main")
    t.emit("sub", "rsp", Imm(8, 32))
    for i in range(4):
        t.emit("movabs", "rcx", abs64("table"))
        t.emit("mov", "rax", Mem(64, base="rcx", disp=8 * i))
        t.emit("mov", Mem(64, base="rsp"), "rax")
        t.emit("call", "mix")
    t.emit("mov", "rax", Mem(64, base="rsp"))
    t.emit("add", "rsp", Imm(8, 32))
    t.emit("ret")
    t.label("mix")
    t.emit("lea", "rax", Mem(64, base="rdi", index="rdi", scale=2))
    t.emit("ret")
    d = b.data
    d.label("table")
    for value in (3, 5, 7, 11):
        d.quad(value)
    return b.build(entry="main")

