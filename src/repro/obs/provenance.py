"""Lift-provenance: *why* did the lifter annotate, reject, or time out?

The paper's Section 5.3 explains every failure narratively ("the stack
pointer becomes unknowable after the probe…"); this module reconstructs
that narrative mechanically from the trace.  For each annotation,
verification error (including timeouts), and unresolved indirect branch in
a :class:`~repro.hoare.lifter.LiftResult`, it walks the event ring buffer
and assembles the **causal chain**: the instruction at the causing address,
the SMT verdicts the decision consumed, the predicate joins that shaped the
state, and the enqueue that brought the state there.

Works best with ``sampling=1`` (the ``python -m repro trace`` default):
sampled-away SMT cache hits cannot appear in a chain.  Chains degrade
gracefully — a missing instruction or verdict is reported as absent, never
invented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.tracer import Event


class TruncatedTraceError(RuntimeError):
    """Raised when provenance is asked to reconstruct chains from a trace
    whose ring wrapped (``tracer.dropped > 0``).

    A truncated stream silently loses the *oldest* events — exactly the
    early joins and SMT verdicts a chain is built from — so reconstruction
    would fabricate confident-looking but incomplete narratives.  Callers
    should re-run with a larger capacity instead (``repro trace
    --capacity``)."""


#: Event kinds that can support a causal chain, and how many of each to
#: keep (most recent first).
_SUPPORT_KINDS = {
    "smt.query": 4,
    "join": 2,
    "join.widen": 2,
    "state.enqueue": 1,
    "state.explore": 1,
}


@dataclass
class Cause:
    """One supporting event in a causal chain."""

    kind: str
    addr: int | None
    detail: dict[str, Any]

    def describe(self) -> str:
        where = f"@{self.addr:#x}" if self.addr is not None else "@?"
        if self.kind == "smt.query":
            verdict = self.detail.get("verdict", "?")
            cached = " (cached)" if self.detail.get("cached") else ""
            assumed = self.detail.get("assumptions")
            suffix = f" under {assumed}" if assumed else ""
            return (f"SMT {self.detail.get('op', 'decide')} {where}: "
                    f"{self.detail.get('r0')} vs {self.detail.get('r1')} "
                    f"-> {verdict}{suffix}{cached}")
        if self.kind in ("join", "join.widen"):
            verb = "widened" if self.kind == "join.widen" else "joined"
            reason = self.detail.get("reason")
            because = f", {reason}" if reason else ""
            return (f"state {verb} {where} "
                    f"(join #{self.detail.get('count', '?')}{because})")
        if self.kind == "state.enqueue":
            return f"state enqueued for {where} (queue={self.detail.get('queue', '?')})"
        if self.kind == "state.explore":
            return f"state explored {where} (#{self.detail.get('explored', '?')})"
        return f"{self.kind} {where}"


@dataclass
class CauseChain:
    """The reconstructed provenance of one lift outcome."""

    subject_kind: str          # "annotation" | "error"
    kind: str                  # e.g. "unresolved-jump", "return-address"
    addr: int
    subject: str               # str(annotation) / str(error)
    instruction: str | None    # disassembly at addr, if decoded
    causes: list[Cause] = field(default_factory=list)

    @property
    def smt_verdicts(self) -> list[Cause]:
        return [c for c in self.causes if c.kind == "smt.query"]

    def lines(self) -> list[str]:
        head = f"{self.subject_kind} {self.kind} @{self.addr:#x}: {self.subject}"
        body = []
        if self.instruction is not None:
            body.append(f"instruction: {self.instruction}")
        else:
            body.append("instruction: <not decoded>")
        if self.causes:
            body.extend(cause.describe() for cause in self.causes)
        else:
            body.append("no supporting events in the trace buffer "
                        "(evicted or sampled away)")
        return [head] + ["  " + line for line in body]


@dataclass
class ProvenanceReport:
    """Causal chains for every annotation and error of one lift."""

    binary: str
    entry: int
    verified: bool
    chains: list[CauseChain] = field(default_factory=list)

    def render(self) -> str:
        flag = "OK" if self.verified else "REJECTED"
        out = [f"Provenance report: {self.binary}@{self.entry:#x} ({flag})"]
        if not self.chains:
            out.append("  clean lift: no annotations, no errors")
        for chain in self.chains:
            out.append("")
            out.extend(chain.lines())
        return "\n".join(out)


def _supporting_causes(events_at: list[Event],
                       before_index: int) -> list[Cause]:
    """The most recent supporting events (per kind budget) preceding the
    subject, most recent first."""
    budget = dict(_SUPPORT_KINDS)
    causes: list[Cause] = []
    for event in reversed(events_at[:before_index]):
        remaining = budget.get(event.kind, 0)
        if remaining <= 0:
            continue
        budget[event.kind] = remaining - 1
        causes.append(Cause(event.kind, event.addr, dict(event.detail)))
    return causes


def build_provenance(result, events: Iterable[Event],
                     dropped: int = 0) -> ProvenanceReport:
    """Reconstruct causal chains for *result* from its event stream.

    *result* is a :class:`~repro.hoare.lifter.LiftResult` (duck-typed to
    keep this module import-light): ``annotations``, ``errors``,
    ``graph.instructions``, ``binary.name``, ``entry``, ``verified``.

    *dropped* is the tracer's ring-overflow count for this capture; a
    nonzero value raises :class:`TruncatedTraceError` — loud refusal beats
    quietly truncated causal chains.
    """
    if dropped:
        raise TruncatedTraceError(
            f"trace ring wrapped: {dropped} events dropped; causal chains "
            "would be built from a truncated stream — re-run with a larger "
            "capacity (repro trace --capacity)")
    by_addr: dict[int | None, list[Event]] = {}
    for event in events:
        by_addr.setdefault(event.addr, []).append(event)

    def chain_for(subject_kind: str, kind: str, addr: int,
                  subject: str) -> CauseChain:
        instr = result.graph.instructions.get(addr)
        events_at = by_addr.get(addr, [])
        # Anchor at the subject's own trace event when present (the
        # annotation/reject emitted for this subject); support events are
        # those before it.  Fall back to the whole per-addr stream.
        anchor = len(events_at)
        for index, event in enumerate(events_at):
            if event.kind in ("annotation", "reject") \
                    and event.detail.get("kind") == kind:
                anchor = index
                break
        return CauseChain(
            subject_kind=subject_kind, kind=kind, addr=addr, subject=subject,
            instruction=None if instr is None else str(instr),
            causes=_supporting_causes(events_at, anchor),
        )

    report = ProvenanceReport(binary=result.binary.name, entry=result.entry,
                              verified=result.verified)
    for annotation in result.annotations:
        report.chains.append(chain_for(
            "annotation", annotation.kind, annotation.addr, str(annotation)
        ))
    for error in result.errors:
        report.chains.append(chain_for(
            "error", error.kind, error.addr, str(error)
        ))
    return report
