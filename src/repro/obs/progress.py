"""Live progress heartbeats for long corpus runs.

The ``repro serve`` daemon (:mod:`repro.serve`) needs machine-readable liveness
while a corpus lifts: which task is running, how many are done, current
throughput, queue depth.  This module defines that wire format — one JSON
object per line — and a :class:`ProgressEmitter` that
:func:`repro.eval.runner.run_corpus` drives via its ``progress=`` hook.
The daemon is expected to reuse the stream verbatim, so the schema is
validated on *emission* (a malformed heartbeat is a bug here, not in the
consumer) and :func:`validate_progress_jsonl` rechecks whole streams in
tests and tooling.

Event kinds, in stream order::

    {"kind": "corpus_started",  "seq": 0, "ts": ..., "total": 12,
     "scale": 1, "jobs": 2}
    {"kind": "task_started",    "seq": 1, "ts": ..., "task": "gzip",
     "queue_depth": 11}
    {"kind": "task_finished",   "seq": 2, "ts": ..., "task": "gzip",
     "outcome": "lifted", "done": 1, "total": 12, "instructions": 4096,
     "seconds": 1.25, "instrs_total": 4096, "instrs_per_second": 3276.8,
     "queue_depth": 10}
    ...
    {"kind": "corpus_finished", "seq": N, "ts": ..., "done": 12,
     "total": 12, "instrs_total": 60000, "seconds": 18.1,
     "instrs_per_second": 3314.9}

``seq`` is a gap-free counter (consumers detect lost lines), ``ts`` is Unix
time, ``queue_depth`` counts tasks handed to the pool but not yet finished,
and throughput figures are cumulative (instructions so far / wall so far).

Stdlib-only, imports nothing from :mod:`repro` outside :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Iterable

#: kind -> {field: allowed types}; every event also carries the COMMON set.
_COMMON_FIELDS: dict[str, tuple] = {
    "kind": (str,),
    "seq": (int,),
    "ts": (int, float),
}

PROGRESS_EVENT_KINDS: dict[str, dict[str, tuple]] = {
    "corpus_started": {"total": (int,), "scale": (int,), "jobs": (int,)},
    "task_started": {"task": (str,), "queue_depth": (int,)},
    "task_finished": {
        "task": (str,),
        "outcome": (str,),
        "done": (int,),
        "total": (int,),
        "instructions": (int,),
        "seconds": (int, float),
        "instrs_total": (int,),
        "instrs_per_second": (int, float),
        "queue_depth": (int,),
    },
    "corpus_finished": {
        "done": (int,),
        "total": (int,),
        "instrs_total": (int,),
        "seconds": (int, float),
        "instrs_per_second": (int, float),
    },
    # Job-level heartbeats emitted by the repro serve daemon
    # (:mod:`repro.serve`).  They share this schema and validator so a
    # ``watch`` stream is checked exactly like a corpus progress stream;
    # a corpus job's stream interleaves them with task_started /
    # task_finished events for its per-entry units.
    "job_queued": {
        "job": (str,),
        "tenant": (str,),
        "job_kind": (str,),
        "priority": (int,),
        "queue_depth": (int,),
    },
    "job_started": {"job": (str,), "attempt": (int,)},
    "job_retried": {
        "job": (str,),
        "attempt": (int,),
        "delay": (int, float),
        "reason": (str,),
    },
    "job_finished": {
        "job": (str,),
        "state": (str,),
        "seconds": (int, float),
        "source": (str,),
    },
}

#: The outcomes a task can finish with — the runner's FunctionRecord
#: outcomes plus "error" for infrastructure failures.
TASK_OUTCOMES = frozenset(
    {"lifted", "unprovable", "concurrency", "timeout", "error"})

#: Terminal job states (mirrors ``repro.serve.jobs.JOB_STATES``) and the
#: places a finished job's answer can come from.
JOB_FINAL_STATES = frozenset({"done", "failed", "cancelled"})
JOB_SOURCES = frozenset({"worker", "store", "inflight"})


def validate_progress_obj(obj: Any) -> None:
    """Raise ``ValueError`` unless *obj* is one well-formed progress event."""
    if not isinstance(obj, dict):
        raise ValueError(f"progress event must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in PROGRESS_EVENT_KINDS:
        raise ValueError(f"unknown progress event kind: {kind!r}")
    required = dict(_COMMON_FIELDS)
    required.update(PROGRESS_EVENT_KINDS[kind])
    for name, types in required.items():
        if name not in obj:
            raise ValueError(f"{kind}: missing field {name!r}")
        value = obj[name]
        # bool is an int subclass; no progress field is boolean.
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"{kind}: field {name!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}")
    extra = set(obj) - set(required)
    if extra:
        raise ValueError(f"{kind}: unexpected fields {sorted(extra)}")
    if obj["seq"] < 0:
        raise ValueError(f"{kind}: seq must be >= 0")
    if kind == "task_finished" and obj["outcome"] not in TASK_OUTCOMES:
        raise ValueError(
            f"task_finished: outcome {obj['outcome']!r} not in "
            f"{sorted(TASK_OUTCOMES)}")
    if kind == "job_finished":
        if obj["state"] not in JOB_FINAL_STATES:
            raise ValueError(
                f"job_finished: state {obj['state']!r} not in "
                f"{sorted(JOB_FINAL_STATES)}")
        if obj["source"] not in JOB_SOURCES:
            raise ValueError(
                f"job_finished: source {obj['source']!r} not in "
                f"{sorted(JOB_SOURCES)}")


def validate_progress_jsonl(text: str) -> int:
    """Validate a whole heartbeat stream; returns the event count.

    Checks JSON well-formedness and per-event schema plus the stream
    invariants: gap-free ``seq`` from 0 and exactly one ``corpus_started``
    first / ``corpus_finished`` last when present.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    expected_seq = 0
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {i + 1}: not JSON: {exc}") from None
        validate_progress_obj(obj)
        if obj["seq"] != expected_seq:
            raise ValueError(
                f"line {i + 1}: seq {obj['seq']} != expected {expected_seq}")
        expected_seq += 1
        if obj["kind"] == "corpus_started" and i != 0:
            raise ValueError(f"line {i + 1}: corpus_started not first")
        if obj["kind"] == "corpus_finished" and i != len(lines) - 1:
            raise ValueError(f"line {i + 1}: corpus_finished not last")
    return len(lines)


class ProgressEmitter:
    """Folds runner callbacks into validated heartbeat events.

    *sink* is either a callable (receives each event dict) or a text
    stream (receives one JSON line per event, flushed so ``tail -f`` and
    pipe consumers see heartbeats immediately).  Every event is validated
    against the schema before it reaches the sink.
    """

    def __init__(self, sink: "Callable[[dict], None] | Any") -> None:
        if callable(sink):
            self._emit_obj = sink
        else:
            def _write(obj: dict, _sink=sink) -> None:
                _sink.write(json.dumps(obj, sort_keys=True) + "\n")
                flush = getattr(_sink, "flush", None)
                if flush is not None:
                    flush()
            self._emit_obj = _write
        self._seq = 0
        self._t0 = time.time()
        self._start = time.perf_counter()
        self.total = 0
        self.done = 0
        self.instrs_total = 0

    # -- internals ---------------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        event = {"kind": kind, "seq": self._seq, "ts": round(time.time(), 6),
                 **fields}
        validate_progress_obj(event)
        self._seq += 1
        self._emit_obj(event)

    def _elapsed(self) -> float:
        return time.perf_counter() - self._start

    # -- runner-facing callbacks ------------------------------------------

    def corpus_started(self, total: int, scale: int, jobs: int) -> None:
        self.total = total
        self._emit("corpus_started", total=total, scale=scale, jobs=jobs)

    def task_started(self, task: str, queue_depth: int) -> None:
        self._emit("task_started", task=task, queue_depth=queue_depth)

    def task_finished(self, task: str, outcome: str, instructions: int,
                      seconds: float, queue_depth: int) -> None:
        self.done += 1
        self.instrs_total += instructions
        elapsed = self._elapsed()
        rate = self.instrs_total / elapsed if elapsed > 0 else 0.0
        self._emit(
            "task_finished", task=task, outcome=outcome, done=self.done,
            total=self.total, instructions=instructions,
            seconds=round(seconds, 6), instrs_total=self.instrs_total,
            instrs_per_second=round(rate, 2), queue_depth=queue_depth,
        )

    def corpus_finished(self) -> None:
        elapsed = self._elapsed()
        rate = self.instrs_total / elapsed if elapsed > 0 else 0.0
        self._emit(
            "corpus_finished", done=self.done, total=self.total,
            instrs_total=self.instrs_total, seconds=round(elapsed, 6),
            instrs_per_second=round(rate, 2),
        )


def as_emitter(progress: "ProgressEmitter | Callable[[dict], None] | Any | None",
               ) -> "ProgressEmitter | None":
    """Coerce ``run_corpus``'s ``progress=`` argument: None passes through,
    a ready emitter is used as-is, anything else becomes a sink."""
    if progress is None or isinstance(progress, ProgressEmitter):
        return progress
    return ProgressEmitter(progress)


def iter_progress_objects(text: str) -> Iterable[dict]:
    """Parse a heartbeat stream into event dicts (no validation)."""
    for line in text.splitlines():
        if line.strip():
            yield json.loads(line)
