"""The span/event tracer at the heart of :mod:`repro.obs`.

One process-global :data:`tracer` records two things into a bounded
in-memory ring buffer:

* **spans** — named, nested, timed regions (``with tracer.span("lift")``),
  recorded as one event at span *exit* carrying the start timestamp and
  duration, so the Chrome ``trace_event`` exporter can render a flamegraph;
* **typed events** — instantaneous facts from the pipeline's hot loops
  (state enqueued, predicate joined, SMT verdict, annotation emitted,
  sanity-property rejection), each tagged with the instruction address the
  lifter is currently exploring.

Cost discipline (mirrors :mod:`repro.perf.counters`): every instrumented
site is guarded by ``tracer.enabled``, so a disabled tracer costs one
attribute load and a branch.  When enabled, ``emit`` appends one tuple to a
``collections.deque`` with a ``maxlen`` — O(1), no allocation beyond the
tuple, oldest events evicted first.  High-frequency event kinds go through
:meth:`Tracer.emit_sampled`, which records every ``sampling``-th occurrence
of that kind but *counts* all of them, so aggregate counts stay exact while
buffer pressure and overhead drop by the sampling factor.

Determinism: per-kind sample counters live on the tracer and are cleared by
:meth:`Tracer.reset`.  The corpus runner resets the tracer at the start of
every lift task, so which occurrences of a kind get sampled is a pure
function of the task — identical in serial and worker-pool runs.

This module is intentionally dependency-free (stdlib only): every layer of
the stack imports it, so it must import nothing from :mod:`repro`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Iterator, NamedTuple

#: Default ring capacity (events).  ~65k events ≈ a few MB of tuples.
DEFAULT_CAPACITY = 1 << 16

#: Default sampling level for high-frequency event kinds: record 1 in N.
#: The bench harness verifies the enabled-overhead bound at this level.
DEFAULT_SAMPLING = 16


class Event(NamedTuple):
    """One recorded occurrence.  ``ts`` is seconds since the tracer epoch.

    ``addr`` is the instruction address in effect when the event fired
    (the lifter maintains ``tracer.addr``), or None outside lifting.
    ``detail`` is a small dict; values may be arbitrary objects — they are
    stringified only at export time, never on the hot path.
    """

    ts: float
    kind: str
    addr: int | None
    detail: dict[str, Any]


class _NullSpan:
    """The no-op context manager returned by ``span()`` when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """An active span frame; records a ``span`` event on exit."""

    __slots__ = ("tracer", "name", "args", "t0", "depth")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self.depth = len(self.tracer._stack)
        self.tracer._stack.append(self)
        self.t0 = time.perf_counter() - self.tracer._epoch
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        dur = (time.perf_counter() - tracer._epoch) - self.t0
        tracer.counts["span"] = tracer.counts.get("span", 0) + 1
        tracer.append(Event(
            self.t0, "span", tracer.addr,
            {"name": self.name, "dur": dur, "depth": self.depth, **self.args},
        ))


class Tracer:
    """A bounded ring buffer of spans and typed events.

    Attributes read on hot paths (``enabled``, ``addr``, ``sampling``) are
    plain slots; everything else is bookkeeping.
    """

    __slots__ = ("enabled", "sampling", "addr", "counts", "dropped",
                 "_ring", "_stack", "_epoch", "_held")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.enabled = False
        self.sampling = DEFAULT_SAMPLING
        #: The instruction address currently being explored (lifter-owned).
        self.addr: int | None = None
        #: Exact per-kind occurrence counts (sampled kinds count every
        #: occurrence, not just the recorded ones).
        self.counts: dict[str, int] = {}
        #: Events overwritten by ring wrap-around since the last reset.
        #: A nonzero value means the buffered stream is truncated — causal
        #: reconstruction (provenance) must refuse rather than fabricate
        #: chains from the surviving suffix.
        self.dropped = 0
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._stack: list[_Span] = []
        self._epoch = time.perf_counter()
        #: Events recorded while held back (see :meth:`hold`), else None.
        self._held: list[Event] | None = None

    # -- configuration -----------------------------------------------------

    def configure(self, enabled: bool | None = None,
                  sampling: int | None = None,
                  capacity: int | None = None) -> None:
        """Adjust the tracer; changing *capacity* drops buffered events."""
        if sampling is not None:
            if sampling < 1:
                raise ValueError("sampling must be >= 1")
            self.sampling = sampling
        if capacity is not None:
            self._ring = deque(self._ring, maxlen=capacity)
        if enabled is not None:
            self.enabled = enabled

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def reset(self) -> None:
        """Drop buffered events, counts, sample state and the span stack;
        restart the timestamp epoch.  Does not touch ``enabled``."""
        self._ring.clear()
        self._stack.clear()
        self.counts = {}
        self.dropped = 0
        self.addr = None
        self._held = None
        self._epoch = time.perf_counter()

    @property
    def epoch(self) -> float:
        """The ``perf_counter`` origin of buffered timestamps."""
        return self._epoch

    # -- recording ---------------------------------------------------------

    def append(self, event: Event) -> None:
        """Append one already-built event, counting ring overwrites.

        All recording paths funnel through here so a wrapped ring is never
        silent: when the bounded deque is full, the oldest event is about
        to be overwritten and ``dropped`` counts it.  While events are
        held back they go to the side list instead."""
        held = self._held
        if held is not None:
            held.append(event)
            return
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(event)

    def emit(self, kind: str, addr: int | None = None, /,
             **detail: Any) -> None:
        """Record one event.  *addr* defaults to the current ``self.addr``.

        The leading parameters are positional-only so detail keys named
        ``kind`` or ``addr`` (e.g. an annotation's kind) never collide."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.append(Event(
            time.perf_counter() - self._epoch, kind,
            self.addr if addr is None else addr, detail,
        ))

    def emit_sampled(self, kind: str, addr: int | None = None, /,
                     **detail: Any) -> None:
        """Record every ``sampling``-th occurrence of *kind* (count all).

        The sampling phase is the pre-increment exact count, so the two
        bookkeeping jobs share one dict update — this path runs hundreds
        of thousands of times per corpus and its cost is what the <=1.05x
        enabled-overhead bound is spent on."""
        counts = self.counts
        n = counts.get(kind, 0)
        counts[kind] = n + 1
        if n % self.sampling == 0:
            self.append(Event(
                time.perf_counter() - self._epoch, kind,
                self.addr if addr is None else addr, detail,
            ))

    def sample(self, kind: str) -> bool:
        """Count one occurrence of *kind*; True iff it should be recorded.

        The allocation-free half of :meth:`emit_sampled` for sites whose
        detail is expensive to build: callers check ``sample()`` first and
        construct the detail dict (then :meth:`record` it) only for the
        1-in-``sampling`` occurrences that enter the ring.  The SMT cached-
        query path — ~1M calls per scale-1 corpus — relies on this."""
        counts = self.counts
        n = counts.get(kind, 0)
        counts[kind] = n + 1
        return n % self.sampling == 0

    def count(self, kind: str, n: int) -> None:
        """Count *n* occurrences of *kind* without recording any: for work
        a memo answered, whose events were recorded when it was done."""
        self.counts[kind] = self.counts.get(kind, 0) + n

    def record(self, kind: str, detail: dict[str, Any],
               addr: int | None = None) -> None:
        """Append one event whose occurrence was already counted by
        :meth:`sample` (does NOT bump ``counts`` — pair the two)."""
        self.append(Event(
            time.perf_counter() - self._epoch, kind,
            self.addr if addr is None else addr, detail,
        ))

    def hold(self) -> dict[str, int]:
        """Hold back every event recorded from now on until
        :meth:`release`; returns the counts to restore if they are
        discarded.  Used for speculative work the caller may undo."""
        self._held = []
        return dict(self.counts)

    def release(self, counts: dict[str, int], keep: bool) -> None:
        """End a :meth:`hold`: move the held events into the ring
        (*keep*), or drop them and restore the *counts* it returned."""
        held, self._held = self._held or [], None
        if keep:
            for event in held:
                self.append(event)
        else:
            self.counts = counts

    def span(self, name: str, /, **args: Any):
        """A context manager timing a named region (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args)

    # -- inspection --------------------------------------------------------

    def events(self) -> list[Event]:
        """The buffered events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._ring)

    def tail(self, limit: int) -> list[Event]:
        """The most recent *limit* buffered events, oldest first."""
        if limit <= 0:
            return []
        ring = self._ring
        if len(ring) <= limit:
            return list(ring)
        return list(ring)[-limit:]


#: The process-global tracer.  Hot sites do
#: ``if tracer.enabled: tracer.emit(...)``.
tracer = Tracer()
