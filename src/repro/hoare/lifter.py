"""Hoare-graph extraction: Algorithm 1 plus the Section 4.2 extensions.

The exploration keeps a bag of symbolic states.  A popped state is joined
with the compatible vertex already in the graph (if any); if the join adds
nothing (``σ ⊑ σc``), exploration of that state stops — this is the
fixed-point/termination argument of the paper.  Otherwise the joined state
is stepped through τ, new edges are added, and successors go back in the
bag.  Ascending interval hulls are cut off by widening: after 64 changing
joins at a vertex, or at once in a loop whose ascent probe
(:mod:`repro.hoare.ascent`) shows that no guard caps it.

Sanity properties are checked on the fly:

* **return address integrity** — a ``ret`` must resolve to the function's
  context-free return symbol (or a concrete "weird" target); an unprovable
  return target rejects the lift;
* **bounded control flow** — unresolved indirect jumps/calls produce
  annotations (Algorithm 1 line 13) and stop exploration of that path;
* **calling-convention adherence** — at ``ret``, ``rsp == rsp0 + 8`` and
  the callee-saved registers hold their initial values, else reject.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.elf import Binary
from repro.obs.metrics import metrics as _M
from repro.obs.profile import phase as _phase
from repro.obs.tracer import tracer as _T
from repro.expr import Const, Var, simplify as s
from repro.isa import DecodeError, Instruction
from repro.isa.registers import CALLEE_SAVED
from repro.elf.image import FetchError
from repro.pred import Predicate
from repro.pred.predicate import widen_predicate
from repro.semantics import (
    CallEvent,
    LiftContext,
    RetEvent,
    SymState,
    TerminalEvent,
    UnknownWriteEvent,
    UnsupportedInstruction,
    join_states,
    step,
)
from repro.semantics.state import changed_parts, states_equal
from repro.semantics.tau import rip_const
from repro.smt.solver import Assumption, Region
from repro.hoare.annotations import Annotation, Obligation, VerificationError
from repro.hoare.ascent import extrapolate, grown_hulls, steps_on
from repro.hoare.calls import (
    after_call_state,
    call_obligation,
    callee_initial_state,
    is_concurrency_external,
    is_terminating_external,
)
from repro.hoare.graph import Edge, HoareGraph, VertexKey, code_key, exit_key, ret_key
from repro.hoare.schedule import (
    SCC_ORDER,
    SCHEDULE_MODES,
    DecodeMemo,
    Schedule,
    build_schedule,
)
from repro.perf import collector_paused, store as _store
from repro.perf.counters import gated as _gated
from repro.hoare.resolve import (
    Resolution,
    is_return_symbol,
    resolve_rip,
    return_symbol,
    symbol_entry,
)


@dataclass
class LiftStats:
    """The Table 1 measurement columns."""

    instructions: int = 0
    states: int = 0
    resolved_indirections: int = 0    # column A
    unresolved_jumps: int = 0         # column B
    unresolved_calls: int = 0         # column C
    seconds: float = 0.0
    #: Annotation counts by kind (e.g. {"unresolved-jump": 2}); columns B/C
    #: count *addresses*, this counts every annotation instance.
    annotations_by_kind: dict[str, int] = field(default_factory=dict)


#: Detail prefix of the rejection issued by the CPU-time guard.
CPU_BUDGET_DETAIL = "CPU budget"


@dataclass
class LiftResult:
    """Everything the lifter produces for one binary / library function."""

    binary: Binary
    entry: int
    graph: HoareGraph
    annotations: list[Annotation] = field(default_factory=list)
    obligations: list[Obligation] = field(default_factory=list)
    assumptions: set[Assumption] = field(default_factory=set)
    errors: list[VerificationError] = field(default_factory=list)
    stats: LiftStats = field(default_factory=LiftStats)
    #: A pointer-summary lift whose phase 1 the CPU-time guard cut short:
    #: its summaries, and so this result, depend on machine speed.
    summaries_cut_by_cpu_budget: bool = False

    @property
    def verified(self) -> bool:
        """True iff the sanity properties were proven (an HG was produced)."""
        return not self.errors

    @property
    def cpu_budget_exhausted(self) -> bool:
        """True iff the CPU-time guard rejected the lift.  Unlike the
        ``max_states`` fuel, that verdict depends on machine speed."""
        return any(error.kind == "timeout"
                   and error.detail.startswith(CPU_BUDGET_DETAIL)
                   for error in self.errors)

    @property
    def depends_on_cpu_budget(self) -> bool:
        """True iff the CPU-time guard shaped this result: it rejected the
        lift, or it cut short the phase-1 lift the summaries came from."""
        return self.cpu_budget_exhausted or self.summaries_cut_by_cpu_budget

    @property
    def instructions(self) -> dict[int, Instruction]:
        return self.graph.instructions

    def __reduce__(self):
        # The assumption set in sorted order: the pickled bytes (and so
        # lift-store payloads) do not depend on the hash seed.
        fields = dict(vars(self))
        fields["assumptions"] = tuple(sorted(self.assumptions, key=str))
        return (_rebuild_result, (fields,))

    def summary(self) -> str:
        flag = "OK" if self.verified else "REJECTED"
        text = (
            f"{self.binary.name}@{self.entry:#x}: {flag}, "
            f"{self.stats.instructions} instructions, {self.stats.states} states, "
            f"A={self.stats.resolved_indirections} B={self.stats.unresolved_jumps} "
            f"C={self.stats.unresolved_calls}"
        )
        by_kind = self.stats.annotations_by_kind
        if by_kind:
            counts = " ".join(f"{kind}={by_kind[kind]}"
                              for kind in sorted(by_kind))
            text += f", annotations: {counts}"
        return text


def _rebuild_result(fields: dict) -> LiftResult:
    return LiftResult(**{**fields, "assumptions": set(fields["assumptions"])})


@dataclass
class _Probe:
    """An ascent probe in flight (see :mod:`repro.hoare.ascent`)."""

    key: VertexKey
    rip: int
    #: The SCC rank of the head: a pop outside it ends the probe.
    rank: int
    #: The plain result of the triggering join, resumed on rollback.
    joined: SymState
    #: Extrapolated hull bounds by join-variable name.
    bounds: dict[str, tuple[int, int]]
    #: Each grown hull's (down, up) stride at the trigger.
    strides: dict[Var, tuple[int, int]]
    #: The lifter fields of :data:`_PROBE_RESTORED` at the trigger.
    saved: dict
    #: The held observability records (:func:`repro.obs.hold`).
    held: object


#: The probe verdict that commits: a hull stepped on past its
#: extrapolation, so no guard caps the ascent.
UNCAPPED = "uncapped"

#: Every ``_Lifter`` field a rolled-back probe puts back.  ``ctx`` stands
#: for its fresh-name counter, the only part of it that changes.
_PROBE_RESTORED = (
    "graph", "bag", "join_counts", "pending_returns", "returned",
    "queued_functions", "annotated", "annotations", "obligations",
    "assumptions", "errors", "resolved", "unresolved_jump_addrs",
    "unresolved_call_addrs", "explored", "ctx", "ascended",
)
#: The fields a probe leaves alone: configuration, the heap tie-break
#: counter (only the relative order of its values matters, and that
#: survives a rollback), and the probe bookkeeping itself.
_PROBE_PERSISTS = (
    "binary", "decoded", "entry", "summaries", "text_range", "max_states",
    "max_targets", "timeout_seconds", "deadline", "schedule", "_tiebreak",
    "widen_after", "probed", "probe",
)


class _Lifter:
    def __init__(self, binary: Binary, entry: int, trust_data: bool,
                 max_states: int, max_targets: int,
                 timeout_seconds: float | None = None,
                 schedule: Schedule | None = None,
                 summaries=None, decoded: DecodeMemo | None = None):
        self.binary = binary
        #: The lift's decode memo, shared with the schedule's scan.
        self.decoded = decoded or DecodeMemo(binary)
        self.entry = entry
        #: Optional pointer-summary oracle (duck-typed ``for_internal``/
        #: ``for_external``) refining the call-cleaning havoc.
        self.summaries = summaries
        self.ctx = LiftContext(binary, trust_data=trust_data)
        self.graph = HoareGraph()
        self.text_range = binary.text_range()
        self.max_states = max_states
        self.max_targets = max_targets
        self.timeout_seconds = timeout_seconds
        # The budget is *CPU* seconds, not wall-clock: process_time is
        # unaffected by scheduler time-slicing, so a function hits (or
        # clears) its budget identically whether it is lifted serially or
        # in one of several workers sharing the machine.
        self.deadline = (
            time.process_time() + timeout_seconds if timeout_seconds else None
        )

        # Priority queue ordered by (scc_rank, head?, address) when a
        # precomputed schedule is given (the default), else by plain
        # instruction address: either way loops reach their local fixpoint
        # before their exit continuations run, so transient early-iteration
        # abstractions never leak downstream.  The SCC order additionally
        # survives layouts where the loop body sits *after* its exit in
        # the address space (see repro.hoare.schedule).
        self.schedule = schedule
        #: (rank, head?, rip, tie-break, vertex key, state): the key is
        #: the one the edge into the state was drawn with, so popping the
        #: state does not compute it again.
        self.bag: list[tuple[int, int, int, int, VertexKey, SymState]] = []
        self._tiebreak = itertools.count()
        self.join_counts: dict[VertexKey, int] = {}
        self.widen_after = 64
        #: SCC ranks whose ascent probe committed: every changing join
        #: there widens.
        self.ascended: set[int] = set()
        #: Loop-head vertices already probed (each is probed once).
        self.probed: set[VertexKey] = set()
        self.probe: _Probe | None = None
        #: Callee entry -> the (vertex key, continuation) pairs parked
        #: until it returns.
        self.pending_returns: dict[int, list[tuple[VertexKey, SymState]]] = {}
        self.returned: set[int] = set()
        self.queued_functions: set[int] = set()
        self.annotated: set[VertexKey] = set()

        self.annotations: list[Annotation] = []
        self.obligations: list[Obligation] = []
        self.assumptions: set[Assumption] = set()
        self.errors: list[VerificationError] = []
        self.resolved: set[int] = set()
        self.unresolved_jump_addrs: set[int] = set()
        self.unresolved_call_addrs: set[int] = set()
        self.explored = 0

    # -- helpers ------------------------------------------------------------------

    def reject(self, kind: str, addr: int, detail: str) -> None:
        error = VerificationError(kind, addr, detail)
        if error not in self.errors:
            self.errors.append(error)
            if _T.enabled:
                _T.emit("reject", addr, kind=kind, detail=detail)

    def annotate(self, kind: str, addr: int, detail: str) -> None:
        self.annotations.append(Annotation(kind, addr, detail))
        if _T.enabled:
            _T.emit("annotation", addr, kind=kind, detail=detail)

    def enqueue(self, state: SymState, key: VertexKey | None = None) -> None:
        """Put *state* in the bag with its vertex *key* (computed here when
        the caller has not)."""
        if state.rip is not None:
            if key is None:
                key = code_key(state, self.text_range)
            if self.schedule is not None:
                rank, head = self.schedule.priority(state.rip)[:2]
                # Newest-first within one (rank, head?, addr) key: after a
                # loop drains, the most recent escape state carries the
                # widest hull, so the stale earlier escapes join as no-ops
                # and the downstream region is explored once instead of
                # once per iteration.  (The address schedule keeps its
                # historical oldest-first order.)
                tiebreak = -next(self._tiebreak)
            else:
                rank, head = 0, 0
                tiebreak = next(self._tiebreak)
            heapq.heappush(
                self.bag,
                (rank, head, state.rip, tiebreak, key, state),
            )
            if _T.enabled:
                _T.emit_sampled("state.enqueue", state.rip,
                                queue=len(self.bag))
                _M.observe("queue.length", len(self.bag))

    def queue_function(self, entry: int) -> None:
        if entry not in self.queued_functions:
            self.queued_functions.add(entry)
            self.enqueue(callee_initial_state(entry))

    def park_continuation(self, callee: int, continuation: SymState,
                          key: VertexKey) -> None:
        if callee in self.returned:
            self.enqueue(continuation.mark_reachable(True), key)
        else:
            self.pending_returns.setdefault(callee, []).append(
                (key, continuation))

    def release_returns(self, callee: int) -> None:
        if callee in self.returned:
            return
        self.returned.add(callee)
        for key, continuation in self.pending_returns.pop(callee, []):
            self.enqueue(continuation.mark_reachable(True), key)

    def add_edge(self, src: VertexKey, instr_addr: int, dst: VertexKey) -> None:
        self.graph.edges.add(Edge(src, instr_addr, dst))

    # -- main loop ------------------------------------------------------------------

    def run(self) -> None:
        self.queued_functions.add(self.entry)
        self.enqueue(callee_initial_state(self.entry))
        while True:
            if self.probe is not None and (self.errors or not self.bag):
                self.end_probe("rejected" if self.errors else "bag-empty")
                continue
            if not self.bag or self.errors:
                break
            *_, key, state = heapq.heappop(self.bag)
            if self.probe is not None:
                verdict = self.probe_verdict(state, key)
                if verdict is not None:
                    self.end_probe(verdict)
                    if verdict != UNCAPPED:
                        continue  # the popped state was speculative
            self.explore(state, key)
        if self.bag and self.errors:
            self.bag.clear()

    # -- ascent probes ------------------------------------------------------------

    def may_probe(self, key: VertexKey, rip: int, count: int) -> bool:
        """True iff this changing join at *key* may start an ascent probe:
        from the head's 2nd changing join on, once per head, one probe at
        a time."""
        return (count >= 2 and self.probe is None
                and self.schedule is not None
                and rip in self.schedule.loop_heads
                and key not in self.probed)

    def start_probe(self, key: VertexKey, rip: int, current: SymState,
                    joined: SymState) -> SymState:
        """Start a probe if the join only grew hulls; returns the state to
        store at the head (the extrapolated one while probing)."""
        grown = grown_hulls(current, joined, rip)
        if not grown:
            return joined
        self.probed.add(key)
        probe_state, bounds = extrapolate(
            joined, grown, self.widen_after - self.join_counts[key])
        self.probe = _Probe(
            key=key, rip=rip, rank=self.schedule.priority(rip)[0],
            joined=joined, bounds=bounds,
            strides={var: growth.stride for var, growth in grown.items()},
            saved=self.save(),
            held=_obs.hold())
        return probe_state

    def probe_verdict(self, state: SymState, key: VertexKey) -> str | None:
        """Decide the probe on a popped state: :data:`UNCAPPED` when the
        head receives a state that still grows a hull past the
        extrapolation by at most its stride (no guard caps a linear
        ascent), the reason to roll back when the probe must end
        otherwise, None while the trip is still under way inside the
        head's SCC."""
        probe = self.probe
        rip = state.rip
        if self.schedule.priority(rip)[0] != probe.rank:
            return "left-scc"
        if rip != probe.rip:
            return None
        if key != probe.key:
            return "other-vertex"
        current = self.graph.vertices[key]
        with _phase("join"):
            joined = join_states(state, current, rip)
        grown = grown_hulls(current, joined, rip)
        if not grown:
            return "capped"
        return UNCAPPED if steps_on(grown, probe.strides) else "nonlinear"

    def end_probe(self, verdict: str) -> None:
        """Commit the probe on :data:`UNCAPPED` (its SCC widens from now
        on); otherwise roll it back and resume the triggering join with
        its plain result, as if the probe had never run."""
        probe, self.probe = self.probe, None
        committed = verdict == UNCAPPED
        _obs.release(probe.held, keep=committed)
        if committed:
            self.ascended.add(probe.rank)
        else:
            self.restore(probe.saved)
        if _T.enabled:
            _T.addr = probe.rip
            _T.emit("join.probe", probe.rip,
                    outcome="committed" if committed else "rolled-back",
                    verdict=verdict,
                    bounds=" ".join(
                        f"{name}=[{lo:#x}, {hi:#x}]"
                        for name, (lo, hi) in sorted(probe.bounds.items())))
        if not committed:
            self.graph.vertices[probe.key] = probe.joined
            self.advance(probe.joined, probe.key, probe.rip)

    def save(self) -> dict:
        """Copies of every field in :data:`_PROBE_RESTORED`."""
        graph = self.graph
        return {
            "graph": (dict(graph.vertices), set(graph.edges),
                      dict(graph.instructions)),
            "bag": list(self.bag),
            "join_counts": dict(self.join_counts),
            "pending_returns": {callee: list(parked) for callee, parked
                                in self.pending_returns.items()},
            "returned": set(self.returned),
            "queued_functions": set(self.queued_functions),
            "annotated": set(self.annotated),
            "annotations": list(self.annotations),
            "obligations": list(self.obligations),
            "assumptions": set(self.assumptions),
            "errors": list(self.errors),
            "resolved": set(self.resolved),
            "unresolved_jump_addrs": set(self.unresolved_jump_addrs),
            "unresolved_call_addrs": set(self.unresolved_call_addrs),
            "explored": self.explored,
            "ctx": self.ctx.names._counter,
            "ascended": set(self.ascended),
        }

    def restore(self, saved: dict) -> None:
        """Put back the fields :meth:`save` copied."""
        vertices, edges, instructions = saved["graph"]
        self.graph = HoareGraph(vertices, edges, instructions)
        self.ctx.names._counter = saved["ctx"]
        for name in _PROBE_RESTORED:
            if name not in ("graph", "ctx"):
                setattr(self, name, saved[name])

    def explore(self, state: SymState, key: VertexKey) -> None:
        rip = state.rip
        if rip is None:
            return
        if _T.enabled:
            # All events fired while stepping this instruction (SMT
            # queries, joins, annotations) inherit this address.
            _T.addr = rip
            _T.emit_sampled("state.explore", rip, explored=self.explored)
        current = self.graph.vertices.get(key)
        if current is not None:
            with _phase("join"):
                joined = join_states(state, current, rip)
                if states_equal(joined, current):
                    return
                count = self.join_counts.get(key, 0) + 1
                self.join_counts[key] = count
                _gated("lift_joins")
                if _T.enabled:
                    _T.emit_sampled("join", rip, count=count, changed=" ".join(
                        changed_parts(current, joined)))
                    _M.observe("join.depth", count)
                # Interval hulls may ascend forever (unbounded counters);
                # jump to the top of the range-abstraction ladder after
                # widen_after joins, or at once in a loop whose ascent
                # probe showed that no guard caps it.
                if count > self.widen_after:
                    reason = "limit"
                elif self.ascended and self.schedule.priority(rip)[0] \
                        in self.ascended:
                    reason = "ascent"
                else:
                    reason = None
                if reason is not None:
                    joined = joined.with_pred(widen_predicate(joined.pred))
                    if _T.enabled:
                        _T.emit("join.widen", rip, count=count, reason=reason)
            if reason is None and self.may_probe(key, rip, count):
                joined = self.start_probe(key, rip, current, joined)
            self.graph.vertices[key] = joined
            state = joined
        else:
            self.graph.vertices[key] = state
        self.advance(state, key, rip)

    def advance(self, state: SymState, key: VertexKey, rip: int) -> None:
        """Step the state just stored at *key* through τ."""
        self.explored += 1
        if self.explored > self.max_states:
            self.reject("timeout", rip, "state exploration budget exhausted")
            return
        if self.deadline is not None and time.process_time() > self.deadline:
            self.reject("timeout", rip,
                        f"{CPU_BUDGET_DETAIL} ({self.timeout_seconds}s) "
                        "exhausted")
            return

        extern = self.binary.external_name(rip)
        if extern is not None:
            # Control jumped straight into an external stub (tail call).
            self.handle_external_tail(state, key, rip, extern)
            return

        with _phase("decode"):
            try:
                instr = self.decoded.fetch(rip)
            except (FetchError, DecodeError) as exc:
                self.annotate("undecodable", rip, str(exc))
                return
            self.graph.instructions[rip] = instr

        with _phase("transfer"):
            try:
                successors = step(state, instr, self.ctx)
            except UnsupportedInstruction as exc:
                self.annotate("unsupported", rip, str(exc))
                return

        with _phase("resolve"):
            for successor in successors:
                self.assumptions.update(successor.assumptions)
                self.handle_successor(state, key, instr, successor)

    # -- successor dispatch -------------------------------------------------------------

    def handle_successor(self, src_state, src_key, instr, successor) -> None:
        rip = instr.addr
        events = successor.events
        succ_state = successor.state

        for event in events:
            if isinstance(event, UnknownWriteEvent):
                self.reject("return-address", rip, event.detail)
                return
        for event in events:
            if isinstance(event, TerminalEvent):
                self.add_edge(src_key, rip, exit_key(event.reason))
                return
            if isinstance(event, CallEvent):
                self.handle_call(succ_state, src_key, rip, event)
                return
            if isinstance(event, RetEvent):
                self.handle_ret(succ_state, src_key, rip, event)
                return

        # Plain successor: follow rip.
        rip_value = succ_state.pred.rip
        if isinstance(rip_value, Const):
            self.edge_to_target(succ_state, src_key, rip, rip_value.value)
            return
        resolution = resolve_rip(
            rip_value, succ_state.pred, self.binary, self.max_targets
        )
        if resolution.kind == "targets":
            self.resolved.add(rip)
            for target in resolution.targets:
                specialized = succ_state.with_pred(
                    succ_state.pred.with_reg("rip", rip_const(target)))
                self.edge_to_target(specialized, src_key, rip, target)
        elif resolution.kind == "return":
            self.handle_return_to_symbol(
                succ_state, src_key, rip, resolution.symbol,
                succ_state.pred.get_reg("rsp"),
            )
        else:
            self.unresolved_jump_addrs.add(rip)
            self.annotate("unresolved-jump", rip, resolution.detail)

    def edge_to_target(self, state: SymState, src_key, instr_addr: int,
                       target: int) -> None:
        extern = self.binary.external_name(target)
        if extern is not None:
            self.handle_external_tail(state, src_key, instr_addr, extern)
            return
        dst_state = state
        rip = rip_const(target)
        if state.pred.rip != rip:
            dst_state = state.with_pred(state.pred.with_reg("rip", rip))
        dst_key = code_key(dst_state, self.text_range)
        self.add_edge(src_key, instr_addr, dst_key)
        self.enqueue(dst_state, dst_key)

    # -- calls ------------------------------------------------------------------------------

    def handle_call(self, state: SymState, src_key, rip: int,
                    event: CallEvent) -> None:
        target = event.target
        if isinstance(target, Const):
            self.dispatch_call(state, src_key, rip, target.value, event.return_addr)
            return
        resolution = resolve_rip(target, state.pred, self.binary, self.max_targets)
        if resolution.kind == "targets":
            self.resolved.add(rip)
            for addr in resolution.targets:
                self.dispatch_call(state, src_key, rip, addr, event.return_addr)
            return
        # Unresolved indirect call: annotate, then treat as an unknown
        # external function (Section 5.1).
        self.unresolved_call_addrs.add(rip)
        self.annotate("unresolved-call", rip, f"target = {target}")
        self.obligations.append(call_obligation(state, rip, "<indirect>"))
        continuation = after_call_state(state, event.return_addr, self.ctx)
        continuation = continuation.mark_reachable(True)
        key = code_key(continuation, self.text_range)
        self.add_edge(src_key, rip, key)
        self.enqueue(continuation, key)

    def call_summary(self, rip: int, callee: str, lookup) -> "object | None":
        """Resolve a pointer summary for one call site (None = no oracle or
        no refinement) and record the assumption the refinement rests on."""
        if self.summaries is None:
            return None
        summary = lookup()
        if summary is None:
            return None
        self.assumptions.add(Assumption(
            "pointer-summary",
            f"call to {callee} at {rip:#x} cleaned per {summary}",
        ))
        return summary

    def dispatch_call(self, state: SymState, src_key, rip: int,
                      target: int, return_addr: int) -> None:
        extern = self.binary.external_name(target)
        if extern is not None:
            if is_concurrency_external(extern):
                self.reject("concurrency", rip, f"call to {extern}")
                return
            if is_terminating_external(extern):
                self.add_edge(src_key, rip, exit_key(extern))
                return
            summary = self.call_summary(
                rip, extern, lambda: self.summaries.for_external(extern))
            self.obligations.append(call_obligation(state, rip, extern))
            continuation = after_call_state(state, return_addr, self.ctx,
                                            summary=summary)
            continuation = continuation.mark_reachable(True)
            key = code_key(continuation, self.text_range)
            self.add_edge(src_key, rip, key)
            self.enqueue(continuation, key)
            return
        if not self.binary.is_executable(target):
            self.annotate("unresolved-call", rip,
                          f"call target {target:#x} not executable")
            self.unresolved_call_addrs.add(rip)
            return
        # Internal, context-free call (Section 4.2.2).
        self.queue_function(target)
        callee_entry_state = callee_initial_state(target)
        self.add_edge(src_key, rip, code_key(callee_entry_state, self.text_range))
        obligation = call_obligation(state, rip, f"sub_{target:x}")
        if obligation.pointer_args:
            self.obligations.append(obligation)
        summary = self.call_summary(
            rip, f"sub_{target:x}",
            lambda: self.summaries.for_internal(target))
        continuation = after_call_state(state, return_addr, self.ctx,
                                        summary=summary)
        key = code_key(continuation, self.text_range)
        self.add_edge(src_key, rip, key)
        self.park_continuation(target, continuation, key)

    def handle_external_tail(self, state: SymState, src_key, rip: int,
                             extern: str) -> None:
        """A jmp (or fallthrough) into an external stub: the external runs
        and returns to *our* caller."""
        if is_concurrency_external(extern):
            self.reject("concurrency", rip, f"tail call to {extern}")
            return
        if is_terminating_external(extern):
            self.add_edge(src_key, rip, exit_key(extern))
            return
        self.obligations.append(call_obligation(state, rip, extern))
        rsp = state.pred.get_reg("rsp")
        if rsp is None:
            self.reject("return-address", rip, "rsp unknown at external tail call")
            return
        from repro.semantics import read_region

        ret_target = read_region(state, Region(rsp, 8), self.ctx)
        if is_return_symbol(ret_target):
            # The external pops our return address: net effect is a return.
            self.check_convention_and_return(
                state, src_key, rip, ret_target, expect_rsp=rsp,
                expected_offset=0,
            )
        else:
            self.reject(
                "return-address", rip,
                f"external tail call with unprovable return address {ret_target}",
            )

    # -- returns ---------------------------------------------------------------------------------

    def handle_ret(self, state: SymState, src_key, rip: int,
                   event: RetEvent) -> None:
        target = event.target
        if target is None:
            self.reject("return-address", rip, "return target is ⊥")
            return
        if is_return_symbol(target):
            self.handle_return_to_symbol(state, src_key, rip, target,
                                         event.rsp_after)
            return
        if isinstance(target, Const):
            # A concrete return address: a "weird" edge (e.g. a ROP gadget
            # returning into pushed data).  Sound — follow it.
            self.edge_to_target(state, src_key, rip, target.value)
            return
        resolution = resolve_rip(target, state.pred, self.binary, self.max_targets)
        if resolution.kind == "targets":
            self.resolved.add(rip)
            for addr in resolution.targets:
                self.edge_to_target(state, src_key, rip, addr)
            return
        self.reject(
            "return-address", rip,
            f"cannot prove integrity of return address: rip = {target}",
        )

    def handle_return_to_symbol(self, state: SymState, src_key, rip: int,
                                symbol: Var, rsp_after) -> None:
        self.check_convention_and_return(
            state, src_key, rip, symbol, expect_rsp=rsp_after, expected_offset=8
        )

    def check_convention_and_return(self, state: SymState, src_key, rip: int,
                                    symbol: Var, expect_rsp,
                                    expected_offset: int) -> None:
        """Verify stack-pointer restoration and callee-saved registers, then
        record the return edge and release parked continuations."""
        expected = s.add(Var("rsp0"), Const(expected_offset)) \
            if expected_offset else Var("rsp0")
        if expect_rsp is None or expect_rsp != expected:
            self.reject(
                "calling-convention", rip,
                f"stack pointer not restored: rsp = {expect_rsp}",
            )
            return
        for reg in CALLEE_SAVED:
            value = state.pred.get_reg(reg)
            if value != Var(f"{reg}0"):
                self.reject(
                    "calling-convention", rip,
                    f"callee-saved register {reg} not restored: {value}",
                )
                return
        function = symbol_entry(symbol)
        self.add_edge(src_key, rip, ret_key(function))
        self.release_returns(function)

    # -- result ----------------------------------------------------------------------------------

    def result(self, seconds: float) -> LiftResult:
        if _T.enabled:
            _M.observe("function.instructions", len(self.graph.instructions))
            _M.observe("function.states", self.graph.state_count())
        stats = LiftStats(
            instructions=len(self.graph.instructions),
            states=self.graph.state_count(),
            resolved_indirections=len(self.resolved),
            unresolved_jumps=len(self.unresolved_jump_addrs),
            unresolved_calls=len(self.unresolved_call_addrs),
            seconds=seconds,
            annotations_by_kind=dict(sorted(Counter(
                annotation.kind for annotation in self.annotations
            ).items())),
        )
        return LiftResult(
            binary=self.binary,
            entry=self.entry,
            graph=self.graph,
            annotations=self.annotations,
            obligations=self.obligations,
            assumptions=self.assumptions,
            errors=self.errors,
            stats=stats,
        )


def lift(
    binary: Binary,
    entry: int | None = None,
    trust_data: bool = True,
    max_states: int = 50_000,
    max_targets: int = 1024,
    timeout_seconds: float | None = None,
    schedule: str = SCC_ORDER,
    cache: "bool | object | None" = None,
    cache_dir: str | None = None,
    pointer_summaries: bool = False,
) -> LiftResult:
    """Lift *binary* starting at *entry* (default: the ELF entry point).

    Returns a :class:`LiftResult`; ``result.verified`` reports whether the
    sanity properties were proven (if False, ``result.errors`` explains the
    rejection and the graph is partial).  *timeout_seconds* is the paper's
    per-binary time budget (4 hours of wall time there; CPU
    seconds here, so worker-pool time-slicing cannot change outcomes).

    *schedule* selects the bag order: ``"scc"`` (default, loop-aware SCC
    ranks precomputed by :mod:`repro.hoare.schedule`) or ``"address"``
    (the flat pre-PR5 order, kept for A/B comparison).  Both reach the
    same fixpoint; the SCC order reaches it in fewer joins.

    *cache* controls the persistent lift store (:mod:`repro.perf.store`):
    ``None`` (default) consults the ``REPRO_CACHE`` environment variable,
    ``True`` enables it (directory from *cache_dir*, ``REPRO_CACHE_DIR``
    or the default), ``False`` disables it, and a
    :class:`~repro.perf.store.LiftStore` instance is used directly.  A
    cache hit returns the exact pickled :class:`LiftResult` the cold path
    produced — same graph, annotations, verdicts and stats.

    *pointer_summaries* enables the two-phase feedback lift
    (:mod:`repro.analysis.pointer.feedback`): a context-free phase-1 lift
    is summarized by the interprocedural pointer analysis, then the binary
    is re-lifted with call-site summaries refining the cleaning havoc.
    """
    if schedule not in SCHEDULE_MODES:
        raise ValueError(f"unknown schedule mode {schedule!r}")
    lift_store = _store.resolve_store(cache, cache_dir)
    if lift_store is not None:
        return _store.cached_lift(
            binary, entry=entry, store=lift_store, trust_data=trust_data,
            max_states=max_states, max_targets=max_targets,
            timeout_seconds=timeout_seconds, schedule=schedule,
            pointer_summaries=pointer_summaries,
        )
    return lift_uncached(
        binary, entry=entry, trust_data=trust_data, max_states=max_states,
        max_targets=max_targets, timeout_seconds=timeout_seconds,
        schedule=schedule, pointer_summaries=pointer_summaries,
    )


def lift_uncached(
    binary: Binary,
    entry: int | None = None,
    trust_data: bool = True,
    max_states: int = 50_000,
    max_targets: int = 1024,
    timeout_seconds: float | None = None,
    schedule: str = SCC_ORDER,
    pointer_summaries: bool = False,
    summaries=None,
) -> LiftResult:
    """The cold path of :func:`lift`: always runs the fixpoint engine.

    :func:`repro.perf.store.cached_lift` calls this on a miss; everything
    else should go through :func:`lift`.  *summaries* is the resolved
    pointer-summary oracle of an ongoing two-phase lift;
    *pointer_summaries* asks for the full two-phase protocol (the two are
    mutually exclusive — the feedback module passes *summaries*).
    """
    if pointer_summaries:
        from repro.analysis.pointer.feedback import lift_with_summaries

        return lift_with_summaries(
            binary, entry=entry, trust_data=trust_data,
            max_states=max_states, max_targets=max_targets,
            timeout_seconds=timeout_seconds, schedule=schedule,
        )
    start = time.perf_counter()
    resolved_entry = entry if entry is not None else binary.entry
    decoded = DecodeMemo(binary)
    # The engine makes no reference cycles (tests/test_gc_cycles.py), so
    # the cyclic collector would only rescan the memo heap.
    with collector_paused(), _T.span("lift", binary=binary.name,
                                     entry=resolved_entry):
        with _phase("schedule"):
            sched = (build_schedule(binary, resolved_entry, decoded)
                     if schedule == SCC_ORDER else None)
        lifter = _Lifter(
            binary,
            resolved_entry,
            trust_data=trust_data,
            max_states=max_states,
            max_targets=max_targets,
            timeout_seconds=timeout_seconds,
            schedule=sched,
            summaries=summaries,
            decoded=decoded,
        )
        lifter.run()
        with _phase("finish"):
            result = lifter.result(time.perf_counter() - start)
    if _T.enabled:
        _T.addr = None
        _T.emit("lift.done", lifter.entry, binary=binary.name,
                verified=result.verified,
                instructions=result.stats.instructions,
                states=result.stats.states)
    return result


def lift_function(binary: Binary, name: str, **kwargs) -> LiftResult:
    """Lift one exported function of a shared object (Section 5.1's library
    mode): starts at the function's symbol, does not trust .data contents."""
    if name not in binary.symbols:
        raise KeyError(f"no such function symbol: {name}")
    kwargs.setdefault("trust_data", False)
    return lift(binary, entry=binary.symbols[name], **kwargs)
