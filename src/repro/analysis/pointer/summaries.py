"""Bottom-up interprocedural call-site summaries.

The function-level call graph (direct ``call`` targets plus direct tail
jumps out of a function) is condensed with the same iterative Tarjan the
scheduler uses (:func:`repro.hoare.schedule.condense`); SCCs arrive in
completion order, i.e. callees before callers, so one bottom-up sweep
suffices for the acyclic part.  Recursive SCCs iterate ascending from the
optimistic empty summary to a fixpoint, with a round cap that degrades —
flagged, never silently — to :data:`TOP_SUMMARY`.

A summary records the *non-local* byte footprints a callee MAY read and
write (own-frame accesses are invisible under the calling convention the
lifter separately verifies) plus escaped regions.  Callee ``StackFrame``
spans stay in callee ``RSP0`` coordinates and are translated by the stack
height at each call site when they propagate upward.
"""

from __future__ import annotations

from repro.obs.profile import phase as _phase
from repro.obs.tracer import tracer as _T
from repro.hoare.schedule import condense
from repro.analysis.context import AnalysisContext
from repro.analysis.pointer.domain import (
    Global,
    Heap,
    PtrVal,
    Region,
    Span,
    StackFrame,
    Summary,
    TOP_SUMMARY,
    UNKNOWN,
    Unknown,
)
from repro.analysis.pointer.transfer import (
    ALLOCATORS,
    FunctionFacts,
    call_target,
    collect_facts,
)

#: Externals known to leave all caller-visible memory intact (their own
#: observable effects live outside the lifted address space).
PURE_EXTERNALS = frozenset({
    "strlen", "strcmp", "strncmp", "memcmp", "strchr",
    "puts", "putchar", "getchar", "abs", "labs", "atoi", "getpid",
})

_UNKNOWN_SPAN = Span(UNKNOWN, 0)
_READS_ANYTHING = frozenset({_UNKNOWN_SPAN})

#: Summary iteration rounds per SCC before degrading to TOP.
MAX_SCC_ROUNDS = 8


def external_summary(name: str) -> Summary:
    """The modelled contract of one external function.

    Only a small whitelist is refined; everything else is TOP, which makes
    the refinement degrade exactly to the paper's context-free cleaning."""
    if name in ALLOCATORS:
        # A fresh block: no caller-visible region is read or written
        # (allocator metadata is outside the lifted address space).
        return Summary(reads=frozenset(), writes=frozenset())
    if name in PURE_EXTERNALS:
        return Summary(reads=_READS_ANYTHING, writes=frozenset())
    if name == "free":
        # Destroys one heap block: global clauses survive (heap/global
        # separation), heap-valued clauses do not.
        return Summary(reads=_READS_ANYTHING,
                       writes=frozenset({Span(Heap(None), 0)}))
    return TOP_SUMMARY


def _merge_spans(spans) -> frozenset:
    """Canonicalize a span set: one footprint hull per region key."""
    merged: dict = {}
    for span in spans:
        region = span.region
        if isinstance(region, Unknown):
            return frozenset({_UNKNOWN_SPAN})
        if isinstance(region, Heap):
            key = ("heap", region.site)
            prior = merged.get(key)
            size = span.size if prior is None else max(span.size, prior.size)
            merged[key] = Span(region, size)
            continue
        if isinstance(region, Global):
            key = ("global", region.section)
        else:
            key = ("stack", region.fn)
        lo, end = region.lo, region.hi + span.size
        prior = merged.get(key)
        if prior is not None:
            lo = min(lo, prior.region.lo)
            end = max(end, prior.region.hi + prior.size)
        if isinstance(region, Global):
            merged[key] = Span(Global(region.section, lo, end - 1), 1)
        else:
            merged[key] = Span(StackFrame(region.fn, lo, end - 1), 1)
    return frozenset(merged.values())


def _translate_stack_span(span: Span, height: int | None,
                          shift: int) -> Span:
    """Map a callee-coordinate stack span into caller coordinates.

    ``shift`` is the callee ``RSP0`` offset from the caller's: ``h - 8``
    for a call at caller height ``h``, ``h`` for a tail jump."""
    region = span.region
    if not isinstance(region, StackFrame):
        return span
    if height is None:
        return _UNKNOWN_SPAN
    base = height + shift
    return Span(
        StackFrame(0, region.lo + base, region.hi + base), span.size
    )


def _is_local(span: Span) -> bool:
    """A stack footprint entirely below the frame base is callee-private."""
    region = span.region
    return (isinstance(region, StackFrame)
            and region.hi + span.size <= 0)


def _retag(span: Span, fn: int) -> Span:
    region = span.region
    if isinstance(region, StackFrame):
        return Span(StackFrame(fn, region.lo, region.hi), span.size)
    return span


class PointerAnalysis:
    """Interprocedural pointer facts for one lifted binary."""

    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.summaries: dict[int, Summary] = {}
        self.functions: dict[int, FunctionFacts] = {}
        self._views = {view.entry: view for view in ctx.views}
        self._edges: dict[int, set[int]] = {}
        self._ran = False

    # -- call-site resolution ---------------------------------------------------------

    def summary_for_call(self, instr) -> Summary:
        """The summary governing one ``call`` instruction (TOP when the
        callee is indirect or not analyzed)."""
        kind, target = call_target(self.ctx.result.binary, instr)
        if kind == "external":
            return external_summary(target)
        if kind == "internal":
            return self.summaries.get(target, TOP_SUMMARY)
        return TOP_SUMMARY

    # -- the bottom-up sweep ----------------------------------------------------------

    def run(self) -> "PointerAnalysis":
        if self._ran:
            return self
        self._ran = True
        with _T.span("pointer.analysis",
                     binary=self.ctx.result.binary.name,
                     functions=len(self._views)):
            with _phase("pointer"):
                for scc in self._condensation():
                    self._solve_scc(scc)
        return self

    def _call_edges(self, entry: int) -> set[int]:
        cached = self._edges.get(entry)
        if cached is not None:
            return cached
        view = self._views[entry]
        edges: set[int] = set()
        binary = self.ctx.result.binary
        for leader in view.blocks:
            for instr in view.instrs.get(leader, []):
                if instr.mnemonic == "call":
                    kind, target = call_target(binary, instr)
                    if kind == "internal" and target in self._views:
                        edges.add(target)
                elif instr.mnemonic == "jmp":
                    ops = instr.operands
                    if len(ops) == 1 and hasattr(ops[0], "signed"):
                        target = (instr.end + ops[0].signed) & ((1 << 64) - 1)
                        if target in self._views and target != entry:
                            edges.add(target)
        self._edges[entry] = edges
        return edges

    def _condensation(self) -> list[list[int]]:
        nodes = sorted(self._views)
        flow = {entry: tuple(sorted(self._call_edges(entry)))
                for entry in nodes}
        return condense(nodes, flow)

    def _solve_scc(self, members: list[int]) -> None:
        recursive = len(members) > 1 or any(
            entry in self._call_edges(entry) for entry in members
        )
        for entry in members:
            self.summaries.setdefault(entry, Summary())
        if not recursive:
            # Callees are already final: one pass is the fixpoint.
            (entry,) = members
            self._resummarize(entry)
            return
        # Ascending iteration from the optimistic empty summary.
        for _ in range(MAX_SCC_ROUNDS):
            changed = [self._resummarize(entry)
                       for entry in sorted(members)]
            if not any(changed):
                return
        # The iteration did not close: degrade to the TOP summary.
        for entry in members:
            self.summaries[entry] = TOP_SUMMARY

    def _resummarize(self, entry: int) -> bool:
        """Re-analyze one function; True if its summary changed."""
        facts = collect_facts(
            self.ctx, self._views[entry], self.summary_for_call
        )
        summary = (
            self._summarize(entry, facts) if facts.converged
            else TOP_SUMMARY
        )
        self.functions[entry] = facts
        if summary == self.summaries[entry]:
            return False
        self.summaries[entry] = summary
        return True

    # -- summary construction ---------------------------------------------------------

    def _summarize(self, entry: int, facts: FunctionFacts) -> Summary:
        binary = self.ctx.result.binary
        writes: list[Span] = []
        reads: list[Span] = []
        escaped: set[Region] = set(
            escape.region for escape in facts.escapes
        )

        for (addr, kind), access in facts.accesses.items():
            sink = writes if kind == "store" else reads
            for region in access.regions:
                sink.append(Span(region, access.size))

        def absorb(summary: Summary, height: int | None,
                   shift: int) -> None:
            if summary.is_top:
                writes.append(_UNKNOWN_SPAN)
                reads.append(_UNKNOWN_SPAN)
                escaped.add(UNKNOWN)
                return
            for span in summary.writes:
                writes.append(_translate_stack_span(span, height, shift))
            for span in summary.reads:
                reads.append(_translate_stack_span(span, height, shift))
            for region in summary.escaped:
                if not isinstance(region, StackFrame):
                    escaped.add(region)

        for addr, height in facts.call_heights.items():
            instr = self.ctx.result.instructions.get(addr)
            if instr is None:
                writes.append(_UNKNOWN_SPAN)
                continue
            kind, target = call_target(binary, instr)
            if kind == "external":
                absorb(external_summary(target), height, -8)
            elif kind == "internal":
                absorb(self.summaries.get(target, TOP_SUMMARY), height, -8)
            else:
                writes.append(_UNKNOWN_SPAN)
                reads.append(_UNKNOWN_SPAN)
                escaped.add(UNKNOWN)
        for addr, (target, height) in facts.tail_calls.items():
            if isinstance(target, str):
                absorb(external_summary(target), height, 0)
            else:
                absorb(self.summaries.get(target, TOP_SUMMARY), height, 0)

        return Summary(
            writes=_merge_spans(
                _retag(s, entry) for s in writes if not _is_local(s)
            ),
            reads=_merge_spans(
                _retag(s, entry) for s in reads if not _is_local(s)
            ),
            escaped=frozenset(escaped),
        )

    # -- queries ----------------------------------------------------------------------

    def summary_of(self, entry: int) -> Summary:
        return self.summaries.get(entry, TOP_SUMMARY)

    def facts_of(self, entry: int) -> FunctionFacts | None:
        return self.functions.get(entry)

    def access_at(self, addr: int, kind: str):
        """The classified :class:`Access` at (addr, kind), if any."""
        for facts in self.functions.values():
            access = facts.accesses.get((addr, kind))
            if access is not None:
                return access
        return None
