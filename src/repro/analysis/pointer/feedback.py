"""Feeding call-site summaries back into the lifter.

Two-phase protocol: phase 1 lifts the binary context-free (the paper's
Section 4.2 policy, unchanged), the pointer analysis summarizes every
function of that graph, and phase 2 re-lifts with a
:class:`SummaryOracle` — so the cleaning havoc at each call keeps the
clauses provably disjoint from everything the callee MAY write, and the
epoch taint is only raised when the callee writes non-local memory at
all.

Soundness contract: the refinement only *keeps more* of what the caller
already proved; registers are havocked exactly as before, obligations are
still recorded, and Step-2 verification (graph extraction + sanity
properties) re-checks the refined graph in full.  Every refined lift also
records a ``pointer-summary`` assumption naming the phase-1 analysis as
input, so verdicts declare what they rest on.
"""

from __future__ import annotations

from repro.elf import Binary
from repro.analysis.context import AnalysisContext
from repro.analysis.pointer.domain import Summary
from repro.analysis.pointer.summaries import (
    PointerAnalysis,
    external_summary,
)


class SummaryOracle:
    """Resolved summaries the lifter consults at each dispatched call.

    ``None`` answers mean "no refinement": the lifter falls back to the
    context-free cleaning, so a missing or TOP summary degrades exactly
    to the paper's policy."""

    def __init__(self, internal: dict[int, Summary]) -> None:
        self.internal = dict(internal)

    def for_internal(self, entry: int) -> Summary | None:
        summary = self.internal.get(entry)
        if summary is None or summary.is_top:
            return None
        return summary

    def for_external(self, name: str) -> Summary | None:
        summary = external_summary(name)
        return None if summary.is_top else summary


def build_oracle(result) -> SummaryOracle:
    """Run the pointer analysis over one lift result and package the
    non-TOP summaries for the lifter."""
    analysis = PointerAnalysis(AnalysisContext(result)).run()
    return SummaryOracle({
        entry: summary
        for entry, summary in analysis.summaries.items()
        if not summary.is_top
    })


def lift_with_summaries(binary: Binary, **kwargs):
    """The two-phase ``lift(..., pointer_summaries=True)`` implementation.

    Both phases get the caller's full option set (including the CPU-time
    budget: the phases are independent fixpoints).  When that budget cuts
    phase 1 short, the result is marked, so the lift store keeps it out."""
    from repro.hoare.lifter import lift_uncached

    base = lift_uncached(binary, **kwargs)
    refined = lift_uncached(binary, summaries=build_oracle(base), **kwargs)
    refined.summaries_cut_by_cpu_budget = base.cpu_budget_exhausted
    return refined
