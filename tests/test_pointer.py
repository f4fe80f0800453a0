"""The interprocedural pointer analysis: domain laws, per-function facts,
call-site summaries, the lifter feedback loop, and the differential
soundness gate — plus the ``AnalysisContext`` satellites that ride along
(memoized ``view_of``, the conservative def/use fallback, and the
``FunctionView`` edge cases the pointer pass must tolerate)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.elf import BinaryBuilder
from repro.expr import Const
from repro.hoare import lift
from repro.hoare.lifter import lift_uncached
from repro.isa import Imm, Instruction, Mem, abs64
from repro.perf.counters import counters
from repro.semantics import DefUse
from repro.analysis.cfgview import FunctionView, function_views
from repro.analysis.context import AnalysisContext
from repro.analysis.pointer import (
    Access,
    Global,
    Heap,
    PointerAnalysis,
    StackFrame,
    Summary,
    TOP_SUMMARY,
    UNKNOWN,
    UNKNOWN_VAL,
    classify_const,
    external_summary,
    run_gate,
)
from repro.analysis.pointer.domain import (
    ABS_SECTION,
    Span,
    exact_const,
    join_vals,
    shift_val,
    widen_vals,
)
from repro.analysis.pointer.feedback import SummaryOracle
from repro.analysis.pointer.transfer import collect_facts, pointer_problem
from repro.corpus.feedback import flag_loop, keeps_loop, pure_chain
from repro.eval.runner import _outcome as outcome_class
from tests.test_join_digests import lift_task, recorded_strata, stratum_tasks


# -- the domain ----------------------------------------------------------------


def test_join_merges_same_key_intervals_by_hull():
    a = frozenset({StackFrame(0x401000, -16, -16)})
    b = frozenset({StackFrame(0x401000, -8, -8)})
    assert join_vals(a, b) == frozenset({StackFrame(0x401000, -16, -8)})


def test_join_unknown_absorbs():
    a = frozenset({Global(".data", 0, 8)})
    assert join_vals(a, UNKNOWN_VAL) == UNKNOWN_VAL
    assert join_vals(UNKNOWN_VAL, a) == UNKNOWN_VAL


def test_join_distinct_keys_accumulate():
    a = frozenset({Global(".data", 0, 0)})
    b = frozenset({StackFrame(0x401000, -8, -8), Heap(0x401020)})
    assert join_vals(a, b) == a | b


def test_widen_is_stable_once_covered():
    old = frozenset({StackFrame(0x401000, -32, -8)})
    new = frozenset({StackFrame(0x401000, -16, -16)})
    assert widen_vals(old, new) == old


def test_widen_pushes_growth_to_unknown():
    old = frozenset({StackFrame(0x401000, -16, -16)})
    new = frozenset({StackFrame(0x401000, -24, -24)})
    assert widen_vals(old, new) == UNKNOWN_VAL


def test_shift_val_moves_intervals_not_heap():
    val = frozenset({StackFrame(0x401000, -16, -8), Heap(0x401020)})
    shifted = shift_val(val, 8)
    assert StackFrame(0x401000, -8, 0) in shifted
    assert Heap(0x401020) in shifted


def test_classify_const_section_vs_absolute():
    builder = BinaryBuilder("sections")
    t = builder.text
    t.label("main")
    t.emit("ret")
    d = builder.data
    d.label("slot")
    d.quad(0)
    binary = builder.build(entry="main")
    (data_region,) = classify_const(binary, builder.data.labels["slot"])
    assert isinstance(data_region, Global) and data_region.section == ".data"
    (abs_region,) = classify_const(binary, 42)
    assert abs_region == Global(ABS_SECTION, 42, 42)
    assert exact_const(frozenset({abs_region})) == 42
    assert exact_const(UNKNOWN_VAL) is None


def test_summary_keeps_is_separation_aware():
    key = SimpleNamespace(addr=Const(0x420000, 64), size=8)
    pure = Summary()
    assert pure.writes_nothing and pure.keeps(key)
    assert not TOP_SUMMARY.keeps(key)
    # A stack write is separate from any constant address by axiom...
    stack_writer = Summary(writes=frozenset(
        {Span(StackFrame(0x401000, -8, -8), 8)}))
    assert stack_writer.keeps(key)
    # ...an overlapping global write is not separable...
    overlapping = Summary(writes=frozenset(
        {Span(Global(".data", 0x420000, 0x420000), 8)}))
    assert not overlapping.keeps(key)
    # ...and a disjoint global write is.
    disjoint = Summary(writes=frozenset(
        {Span(Global(".data", 0x420100, 0x420100), 8)}))
    assert disjoint.keeps(key)


def test_external_summaries():
    assert external_summary("strlen").writes_nothing
    assert external_summary("memcpy").is_top
    assert external_summary("no_such_function").is_top


# -- per-function facts and summaries ------------------------------------------


def _globals_binary():
    """main reads global ``kept`` around calls; ``bump`` writes ``counter``;
    ``pure`` writes nothing non-local."""
    b = BinaryBuilder("globals")
    t = b.text
    t.label("main")
    t.emit("sub", "rsp", Imm(8, 32))
    t.emit("movabs", "rcx", abs64("kept"))
    t.emit("mov", "rax", Mem(64, base="rcx"))
    t.emit("mov", Mem(64, base="rsp"), "rax")
    t.emit("call", "bump")
    t.emit("call", "pure")
    t.emit("mov", "rax", Mem(64, base="rsp"))
    t.emit("add", "rsp", Imm(8, 32))
    t.emit("ret")
    t.label("bump")
    t.emit("movabs", "rcx", abs64("counter"))
    t.emit("mov", "rax", Mem(64, base="rcx"))
    t.emit("lea", "rax", Mem(64, base="rax", disp=1))
    t.emit("mov", Mem(64, base="rcx"), "rax")
    t.emit("ret")
    t.label("pure")
    t.emit("lea", "rax", Mem(64, base="rdi", index="rdi", scale=2))
    t.emit("ret")
    d = b.data
    d.label("kept")
    d.quad(1)
    d.label("counter")
    d.quad(0)
    binary = b.build(entry="main")
    # Expose every label (text and data) as a symbol for the tests.
    for label, addr in (b.text.labels | b.data.labels).items():
        binary.symbols.setdefault(label, addr)
    return binary


@pytest.fixture(scope="module")
def globals_analysis():
    binary = _globals_binary()
    result = lift_uncached(binary)
    assert result.verified
    return binary, result, PointerAnalysis(AnalysisContext(result)).run()


def test_pure_function_summarized_as_writes_nothing(globals_analysis):
    binary, _, analysis = globals_analysis
    pure = analysis.summaries[binary.symbols["pure"]]
    assert pure.writes_nothing and not pure.is_top


def test_global_writer_summary_is_exact(globals_analysis):
    binary, _, analysis = globals_analysis
    bump = analysis.summaries[binary.symbols["bump"]]
    counter_addr = binary.symbols["counter"]
    assert not bump.writes_nothing
    writes = {(span.region.section, span.region.lo, span.region.hi)
              for span in bump.writes}
    # Spans are byte-normalized at the summary boundary: the 8-byte
    # store becomes the byte range [counter, counter+7].
    assert writes == {(".data", counter_addr, counter_addr + 7)}
    # The exact summary keeps a clause about the *other* global...
    kept = SimpleNamespace(addr=Const(binary.symbols["kept"], 64), size=8)
    assert bump.keeps(kept)
    # ...but not one overlapping its own write.
    counter = SimpleNamespace(addr=Const(counter_addr, 64), size=8)
    assert not bump.keeps(counter)


def test_caller_summary_propagates_callee_effects(globals_analysis):
    binary, _, analysis = globals_analysis
    main = analysis.summaries[binary.symbols["main"]]
    counter_addr = binary.symbols["counter"]
    # main's non-local writes are exactly what its callees write.
    assert any(isinstance(span.region, Global)
               and span.region.lo == counter_addr
               for span in main.writes)


def test_scaled_constant_index_folds_precisely():
    # The minicc array idiom: base in a register, index scaled by 8 —
    # both exact constants, so the address is a single frame slot.
    b = BinaryBuilder("indexed")
    t = b.text
    t.label("main")
    t.emit("sub", "rsp", Imm(32, 32))
    t.emit("lea", "rcx", Mem(64, base="rsp", disp=8))
    t.emit("mov", "rdx", Imm(2, 32))
    t.emit("lea", "rcx", Mem(64, base="rcx", index="rdx", scale=8))
    t.emit("mov", Mem(64, base="rcx"), "rdi")
    t.emit("add", "rsp", Imm(32, 32))
    t.emit("xor", "rax", "rax")
    t.emit("ret")
    binary = b.build(entry="main")
    result = lift_uncached(binary)
    assert result.verified
    analysis = PointerAnalysis(AnalysisContext(result)).run()
    facts = analysis.functions[binary.entry]
    store_addr = next(addr for (addr, kind) in facts.accesses
                      if kind == "store"
                      and facts.accesses[(addr, kind)].size == 8
                      and isinstance(
                          next(iter(facts.accesses[(addr, kind)].regions)),
                          StackFrame))
    access = facts.accesses[(store_addr, "store")]
    (region,) = access.regions
    # entry_rsp - 32 + 8 + 2*8 = entry_rsp - 8: one exact slot.
    assert region == StackFrame(binary.entry, -8, -8)


def test_allocator_result_is_heap_region():
    b = BinaryBuilder("heapuse")
    b.extern("malloc")
    t = b.text
    t.label("main")
    t.emit("sub", "rsp", Imm(8, 32))
    t.emit("mov", "rdi", Imm(32, 32))
    t.emit("call", "malloc")
    t.emit("mov", Mem(64, base="rax"), Imm(7, 32))
    t.emit("add", "rsp", Imm(8, 32))
    t.emit("ret")
    binary = b.build(entry="main")
    result = lift_uncached(binary)
    analysis = PointerAnalysis(AnalysisContext(result)).run()
    facts = analysis.functions[binary.entry]
    heap_stores = [
        access for (addr, kind), access in facts.accesses.items()
        if kind == "store" and any(isinstance(r, Heap)
                                   for r in access.regions)
    ]
    assert heap_stores
    (access,) = heap_stores
    (region,) = access.regions
    assert region.site is not None  # attributed to the call site


# -- feedback into the lifter ---------------------------------------------------


def test_summary_oracle_filters_top_and_missing():
    oracle = SummaryOracle({0x401000: Summary(), 0x402000: TOP_SUMMARY})
    assert oracle.for_internal(0x401000) is not None
    assert oracle.for_internal(0x402000) is None
    assert oracle.for_internal(0x999999) is None
    assert oracle.for_external("strlen").writes_nothing
    assert oracle.for_external("memcpy") is None


@pytest.mark.parametrize("builder", [flag_loop, keeps_loop, pure_chain])
def test_feedback_lift_preserves_verdict_and_annotations(builder):
    binary = builder()
    base = lift_uncached(binary)
    before = counters.snapshot()
    refined = lift_uncached(binary, pointer_summaries=True)
    delta = counters.delta(before, counters.snapshot())
    assert refined.verified == base.verified is True
    assert len(refined.annotations) <= len(base.annotations)
    assert delta.get("pointer_refined_havocs", 0) > 0
    # The refined lift declares its analysis input.
    assert any(a.kind == "pointer-summary" for a in refined.assumptions)


@pytest.fixture(scope="module")
def strata() -> dict:
    return stratum_tasks()


@pytest.mark.parametrize("stratum", recorded_strata())
def test_summaries_keep_the_verdict_of_every_stratum(strata, stratum):
    # One corpus task per template kind: the refinement must reach the
    # same outcome (lifted, or the same rejection class) and must not add
    # annotations.
    base = lift_task(strata[stratum])
    refined = lift_task(strata[stratum], pointer_summaries=True)
    assert outcome_class(refined.errors) == outcome_class(base.errors)
    assert len(refined.annotations) <= len(base.annotations)


def test_feedback_lift_through_cache_layer(tmp_path):
    # pointer_summaries is part of the lift-store key: both variants
    # coexist and the refined entry round-trips.
    binary = flag_loop()
    plain = lift(binary, cache=True, cache_dir=str(tmp_path))
    refined = lift(binary, cache=True, cache_dir=str(tmp_path),
                   pointer_summaries=True)
    refined_again = lift(binary, cache=True, cache_dir=str(tmp_path),
                         pointer_summaries=True)
    assert plain.verified and refined.verified and refined_again.verified
    assert any(a.kind == "pointer-summary" for a in refined_again.assumptions)


# -- the differential soundness gate --------------------------------------------


def test_gate_passes_on_feedback_workloads():
    for builder in (flag_loop, keeps_loop):
        binary = builder()
        report = run_gate(binary)
        assert report.ok, report.summary()
        assert report.checked > 0
        assert not report.machine_errors


def test_gate_passes_with_heap_traffic():
    b = BinaryBuilder("heapgate")
    b.extern("malloc")
    t = b.text
    t.label("main")
    t.emit("sub", "rsp", Imm(8, 32))
    t.emit("mov", "rdi", Imm(32, 32))
    t.emit("call", "malloc")
    t.emit("mov", Mem(64, base="rax"), Imm(7, 32))
    t.emit("mov", "rax", Mem(64, base="rax"))
    t.emit("add", "rsp", Imm(8, 32))
    t.emit("ret")
    report = run_gate(b.build(entry="main"))
    assert report.ok, report.summary()
    assert report.checked > 0


def test_gate_catches_a_wrong_prediction():
    # Mutation check: corrupt one stack prediction into a bogus global
    # region and the gate must report a miss — this is what "the gate
    # would catch an unsound analysis" means.
    binary = flag_loop()
    result = lift_uncached(binary)
    analysis = PointerAnalysis(AnalysisContext(result)).run()
    facts = analysis.functions[binary.entry]
    key = next((addr, kind) for (addr, kind), access in facts.accesses.items()
               if all(isinstance(r, StackFrame) for r in access.regions))
    good = facts.accesses[key]
    facts.accesses[key] = Access(good.addr, good.kind,
                                 frozenset({Global(".data", 0, 0)}),
                                 good.size)
    report = run_gate(binary, result=result, analysis=analysis)
    assert not report.ok
    assert any(miss.instr_addr == key[0] for miss in report.misses)


# -- AnalysisContext satellites -------------------------------------------------


def test_view_of_returns_identical_objects():
    result = lift_uncached(_globals_binary())
    ctx = AnalysisContext(result)
    for view in ctx.views:
        assert ctx.view_of(view.entry) is view
    assert ctx.view_of(0xDEAD) is None


def test_def_use_falls_back_to_top_on_unsupported():
    result = lift_uncached(_globals_binary())
    ctx = AnalysisContext(result)
    weird = Instruction("cpuid", ())
    assert ctx.def_use(weird) == DefUse.unknown()
    # The fallback is cached like any other summary.
    assert ctx.def_use(weird) == DefUse.unknown()


def test_empty_function_view_yields_empty_facts():
    result = lift_uncached(_globals_binary())
    ctx = AnalysisContext(result)
    empty = FunctionView(entry=0x900000, blocks=())
    facts = collect_facts(ctx, empty, lambda *_: TOP_SUMMARY)
    assert facts.accesses == {} and facts.escapes == []
    assert facts.converged


def test_shared_tail_block_views_stay_consistent():
    # Two functions funnel into one shared tail: whatever the partition
    # decides, every view's edges must stay inside its own block set and
    # the pointer analysis must run without degrading to top.
    b = BinaryBuilder("shared_tail")
    t = b.text
    t.label("main")
    t.emit("call", "helper")
    t.emit("jmp", "tail")
    t.label("helper")
    t.emit("jmp", "tail")
    t.label("tail")
    t.emit("xor", "rax", "rax")
    t.emit("ret")
    binary = b.build(entry="main")
    result = lift_uncached(binary)
    views = function_views(result)
    assert views
    for view in views:
        members = set(view.blocks)
        for leader, succs in view.succs.items():
            assert leader in members
            assert set(succs) <= members
    analysis = PointerAnalysis(AnalysisContext(result)).run()
    assert all(facts.converged for facts in analysis.functions.values())


def test_pointer_problem_converges_on_loops():
    binary = flag_loop()
    result = lift_uncached(binary)
    ctx = AnalysisContext(result)
    view = ctx.view_of(binary.entry)
    assert view is not None
    problem = pointer_problem(ctx, view, lambda *_: TOP_SUMMARY)
    from repro.analysis.engine import solve

    solution = solve(view, problem)
    assert solution.converged
