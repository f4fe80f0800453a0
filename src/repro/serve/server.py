"""The lifting-as-a-service daemon behind ``python -m repro serve``.

Architecture (three thread roles + N worker processes)::

    accept thread ──> connection handler threads (one per client)
                          │  submit/status/result/cancel/watch/stats
                          ▼
                  shared state under one lock
        jobs, units, PriorityJobQueue, backoff timers, dedup indexes
                          ▲
                          │  assign / results / crash events
    scheduler thread <──> WorkerPool (persistent spawn processes)

The **scheduler** is the only thread that touches the pool (assignment,
event wait, kills, shutdown); connection threads just mutate queue/job
state under the lock and poke the pool's wake pipe.  That single-writer
rule is what keeps worker bookkeeping race-free without per-worker locks.

Duplicate submissions (shared dedup, multi-tenant namespacing)
--------------------------------------------------------------
Jobs are namespaced by tenant — ids are only resolvable by the tenant
that created them — but the *work* is deduplicated globally:

* a lift whose content address (:func:`repro.perf.store.lift_key`) is
  already in the persistent lift store is answered instantly from the
  store (``source = "store"``, a ``cache.lift.hit``) without touching
  the queue;
* a lift identical to one already queued/running attaches to it as a
  **follower** (``source = "inflight"``): one unit runs, every attached
  job completes with its result.  Cancelling the primary promotes the
  oldest follower to owner instead of killing shared work.

Retry / failure semantics
-------------------------
A worker death orphans exactly one unit.  The unit is retried after
``backoff_delay(crashes, retry_base, retry_cap)`` — capped exponential —
and after ``max_retries`` crashes the unit fails with structured
diagnostics (exit code, attempts, pid); the job then reports ``failed``
with those diagnostics rather than hanging.  Deterministic in-worker
exceptions and budget violations fail immediately (no retry).

Graceful drain
--------------
``SIGTERM`` (or the ``drain`` op) stops new submissions (``draining``
errors), lets every queued and running unit finish, finalizes all jobs,
shuts the pool down, and exits 0.  ``drain_grace`` bounds the wait; on
expiry remaining units are failed as ``drain-timeout`` and the exit code
is 1 — drain is graceful, never a hang.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.perf.counters import counters
from repro.serve import protocol
from repro.serve.jobs import (
    IdAllocator,
    Job,
    Unit,
    backoff_delay,
    summarize_record,
)
from repro.serve.pool import WorkerPool
from repro.serve.queue import PriorityJobQueue

#: Scheduler idle tick — the longest the loop sleeps with nothing to do.
IDLE_TICK = 0.5


@dataclass
class ServerConfig:
    socket_path: str
    workers: int = 2
    max_retries: int = 3
    retry_base: float = 0.25
    retry_cap: float = 5.0
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    #: Persistent lift store: None = consult REPRO_CACHE, bools force.
    cache: bool | None = None
    cache_dir: str | None = None
    #: Accept chaos job kinds (fault-injection tests / CI smoke only).
    allow_chaos: bool = False
    #: Seconds a drain may wait for in-flight work before forcing it.
    drain_grace: float = 300.0
    start_method: str = "spawn"
    default_timeout_seconds: float = 10.0
    default_max_states: int = 10_000
    schedule: str = "scc"


@dataclass
class _Totals:
    submitted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    retries: int = 0
    store_answers: int = 0
    inflight_attach: int = 0
    instrs_total: int = 0
    lift_seconds_total: float = 0.0
    by_tenant: dict[str, int] = field(default_factory=dict)


class Server:
    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._units: dict[str, Unit] = {}
        self._queue = PriorityJobQueue()
        self._delayed: list[tuple[float, str]] = []   # (ready_at, unit_id)
        self._kill_requests: list[str] = []           # unit ids to kill
        self._inflight: dict[str, str] = {}           # lift_key -> job id
        self._job_ids = IdAllocator("j")
        self._unit_ids = IdAllocator("u")
        self._totals = _Totals()
        self._draining = False
        self._drain_started: float | None = None
        self._drain_forced = False
        self._stopped = threading.Event()
        self._started_ts = time.time()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._client_socks: set[socket.socket] = set()
        self._pool: WorkerPool | None = None
        from repro.perf.store import resolve_store

        self._store = resolve_store(config.cache, config.cache_dir)
        self._use_cache = self._store is not None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        path = self.config.socket_path
        try:
            os.unlink(path)
        except OSError:
            pass
        self._pool = WorkerPool(self.config.workers,
                                start_method=self.config.start_method)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        for target, name in ((self._scheduler_loop, "repro-serve-scheduler"),
                             (self._accept_loop, "repro-serve-accept")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def begin_drain(self) -> None:
        """Stop accepting work; finish what is in flight; then exit."""
        with self._lock:
            if not self._draining:
                self._draining = True
                self._drain_started = time.monotonic()
            self._cond.notify_all()
        if self._pool is not None:
            self._pool.wake()

    def wait(self, timeout: float | None = None) -> int:
        """Block until the server has fully stopped; returns the exit
        code (0 = clean drain, 1 = drain_grace forced it)."""
        self._stopped.wait(timeout)
        if not self._stopped.is_set():
            return 1
        for thread in self._threads:
            thread.join(timeout=5)
        return 1 if self._drain_forced else 0

    def close(self) -> None:
        """Immediate teardown (tests); prefer :meth:`begin_drain`."""
        self._stopped.set()
        with self._lock:
            self._draining = True
            self._cond.notify_all()
        if self._pool is not None:
            self._pool.wake()
        for thread in self._threads:
            thread.join(timeout=5)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._close_listener()

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        for sock in list(self._client_socks):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # -- the scheduler thread ---------------------------------------------

    def _any_work(self) -> bool:
        return bool(len(self._queue) or self._delayed or self._kill_requests
                    or (self._pool and self._pool.busy_workers()))

    def _scheduler_loop(self) -> None:
        pool = self._pool
        while not self._stopped.is_set():
            with self._lock:
                self._process_kills_locked()
                timeout = self._release_and_assign_locked()
                if self._draining:
                    if not self._any_work():
                        break
                    grace = self.config.drain_grace
                    if (self._drain_started is not None
                            and time.monotonic() - self._drain_started
                            > grace):
                        self._force_drain_locked()
                        break
            events = pool.wait(timeout)
            with self._lock:
                for event in events:
                    if event.kind == "result":
                        self._on_result_locked(event)
                    elif event.kind == "died":
                        self._on_death_locked(event)
        pool.shutdown()
        self._close_listener()
        self._stopped.set()

    def _release_and_assign_locked(self) -> float:
        """Move ripe backoff units into the queue, hand queued units to
        idle workers; returns the pool-wait timeout."""
        now = time.monotonic()
        ripe = [uid for ready_at, uid in self._delayed if ready_at <= now]
        self._delayed = [(ready_at, uid) for ready_at, uid in self._delayed
                         if ready_at > now]
        for unit_id in ripe:
            unit = self._units[unit_id]
            if unit.state == "retry-wait":
                unit.state = "queued"
                self._queue.push(unit_id, unit, unit.priority)
        while True:
            idle = self._pool.idle_workers()
            if not idle:
                break
            popped = self._queue.pop()
            if popped is None:
                break
            unit_id, unit = popped
            worker = idle[0]
            unit.attempts += 1
            unit.state = "running"
            worker.assign(unit_id, unit.attempts, unit.payload)
            unit.worker_pid = worker.pid
            self._on_unit_started_locked(unit)
        if self._delayed:
            next_ready = min(ready_at for ready_at, _ in self._delayed)
            return max(0.0, min(IDLE_TICK, next_ready - now))
        return IDLE_TICK

    def _process_kills_locked(self) -> None:
        while self._kill_requests:
            unit_id = self._kill_requests.pop()
            unit = self._units.get(unit_id)
            if unit is None or unit.state != "cancelling":
                continue
            worker = self._pool.worker_for_unit(unit_id)
            if worker is not None:
                worker.unit_id = None  # nothing to orphan: it's cancelled
                self._pool.kill_worker(worker)
            unit.state = "cancelled"
            self._maybe_finalize_job_locked(self._jobs[unit.job_id])

    def _force_drain_locked(self) -> None:
        """drain_grace expired: fail everything still pending."""
        self._drain_forced = True
        while True:
            popped = self._queue.pop()
            if popped is None:
                break
            _, unit = popped
            self._fail_unit_locked(unit, {"code": "drain-timeout",
                                          "message": "drain grace expired "
                                                     "before the unit ran"})
        for _, unit_id in self._delayed:
            unit = self._units[unit_id]
            if unit.state == "retry-wait":
                self._fail_unit_locked(unit, {"code": "drain-timeout",
                                              "message": "drain grace "
                                                         "expired in "
                                                         "backoff"})
        self._delayed.clear()
        for worker in list(self._pool.busy_workers()):
            unit = self._units.get(worker.unit_id)
            worker.unit_id = None
            self._pool.kill_worker(worker)
            if unit is not None and unit.state == "running":
                self._fail_unit_locked(unit, {"code": "drain-timeout",
                                              "message": "drain grace "
                                                         "expired mid-run"})

    # -- unit / job state machine (all under the lock) ---------------------

    def _on_unit_started_locked(self, unit: Unit) -> None:
        job = self._jobs[unit.job_id]
        if job.state == "queued":
            job.state = "running"
            job.started_ts = time.time()
            self._sync_followers_locked(job)
            job.emit("job_started", job=job.id, attempt=unit.attempts)
        if job.kind == "corpus":
            job.emit("task_started", task=self._unit_name(unit),
                     queue_depth=job.units_total - job.units_done)
        self._cond.notify_all()

    def _unit_name(self, unit: Unit) -> str:
        payload = unit.payload
        if payload.get("type") == "task":
            return payload["task"].name
        return unit.id

    def _on_result_locked(self, event) -> None:
        unit = self._units.get(event.unit_id)
        if unit is None or unit.state in ("done", "failed", "cancelled"):
            return
        if unit.state == "cancelling" and unit.id in self._kill_requests:
            # Finished before the kill landed — the result wins.
            self._kill_requests.remove(unit.id)
        result = event.result
        if result.get("status") == "ok":
            unit.state = "done"
            unit.result = result
            self._account_unit_locked(unit, result)
        else:
            self._fail_unit_locked(unit, result.get("error",
                                                    {"code": "internal",
                                                     "message": "no error "
                                                                "detail"}))
            return
        job = self._jobs[unit.job_id]
        job.units_done += 1
        if job.kind == "corpus" and result.get("record") is not None:
            record = result["record"]
            job.metrics["instructions"] = (job.metrics.get("instructions", 0)
                                           + record.instructions)
            job.metrics["seconds"] = round(
                job.metrics.get("seconds", 0.0) + record.seconds, 6)
            elapsed = max(time.time() - (job.started_ts or job.created_ts),
                          1e-9)
            job.emit("task_finished", task=self._unit_name(unit),
                     outcome=record.outcome, done=job.units_done,
                     total=job.units_total,
                     instructions=record.instructions,
                     seconds=round(record.seconds, 6),
                     instrs_total=job.metrics["instructions"],
                     instrs_per_second=round(
                         job.metrics["instructions"] / elapsed, 2),
                     queue_depth=job.units_total - job.units_done)
        self._maybe_finalize_job_locked(job)

    def _on_death_locked(self, event) -> None:
        if event.unit_id is None:
            return
        unit = self._units.get(event.unit_id)
        if unit is None or unit.state in ("done", "failed", "cancelled"):
            return
        if unit.state == "cancelling":
            if unit.id in self._kill_requests:
                self._kill_requests.remove(unit.id)
            unit.state = "cancelled"
            self._maybe_finalize_job_locked(self._jobs[unit.job_id])
            return
        unit.crashes += 1
        unit.worker_pid = None
        job = self._jobs[unit.job_id]
        if unit.crashes > self.config.max_retries:
            self._fail_unit_locked(unit, {
                "code": "worker-crashed",
                "message": f"worker died {unit.crashes} times running this "
                           f"unit (last exit code {event.exitcode}); "
                           f"retries exhausted",
                "exitcode": event.exitcode,
                "attempts": unit.attempts,
            })
            return
        delay = backoff_delay(unit.crashes, self.config.retry_base,
                              self.config.retry_cap)
        unit.state = "retry-wait"
        unit.not_before = time.monotonic() + delay
        self._delayed.append((unit.not_before, unit.id))
        self._totals.retries += 1
        job.emit("job_retried", job=job.id, attempt=unit.crashes,
                 delay=round(delay, 6),
                 reason=f"worker-crashed exit {event.exitcode}")
        self._cond.notify_all()

    def _fail_unit_locked(self, unit: Unit, error: dict) -> None:
        unit.state = "failed"
        unit.error = error
        job = self._jobs[unit.job_id]
        job.diagnostics.append({"unit": unit.id,
                                "name": self._unit_name(unit),
                                "attempts": unit.attempts, **error})
        self._maybe_finalize_job_locked(job)

    def _account_unit_locked(self, unit: Unit, result: dict) -> None:
        record = result.get("record")
        if record is not None:
            self._totals.instrs_total += record.instructions
            self._totals.lift_seconds_total += record.seconds
        delta = result.get("counters")
        if delta:
            merged = self._jobs[unit.job_id].metrics.setdefault(
                "counters", {})
            counters.merge(merged, delta)

    def _job_units_locked(self, job: Job) -> list[Unit]:
        return [u for u in self._units.values() if u.job_id == job.id]

    def _maybe_finalize_job_locked(self, job: Job) -> None:
        if job.finished:
            return
        units = self._job_units_locked(job)
        if any(u.state not in ("done", "failed", "cancelled")
               for u in units):
            return
        if any(u.state == "failed" for u in units):
            state = "failed"
        elif any(u.state == "cancelled" for u in units):
            state = "cancelled"
        else:
            state = "done"
        job.result = self._build_result_locked(job, units) \
            if state == "done" else None
        self._finalize_job_locked(job, state)

    def _finalize_job_locked(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_ts = time.time()
        key = {"done": "done", "failed": "failed",
               "cancelled": "cancelled"}[state]
        setattr(self._totals, key, getattr(self._totals, key) + 1)
        seconds = round(job.finished_ts - job.created_ts, 6)
        job.emit("job_finished", job=job.id, state=state, seconds=seconds,
                 source=job.source)
        for follower_id in job.followers:
            follower = self._jobs.get(follower_id)
            if follower is None or follower.finished:
                continue
            follower.result = job.result
            follower.metrics = dict(job.metrics)
            follower.diagnostics = list(job.diagnostics)
            follower.units_total = job.units_total
            follower.units_done = job.units_done
            self._finalize_job_locked(follower, state)
        # Drop the in-flight dedup entry pointing at this job, if any.
        for key_, owner in list(self._inflight.items()):
            if owner == job.id:
                del self._inflight[key_]
        self._cond.notify_all()

    def _build_result_locked(self, job: Job, units: list[Unit]) -> dict:
        if job.kind == "chaos":
            payload = dict(units[0].result)
            payload.pop("status", None)
            return {"chaos": payload}
        if job.kind == "lift":
            result = units[0].result
            record = result["record"]
            job.metrics.setdefault("instructions", record.instructions)
            job.metrics.setdefault("seconds", round(record.seconds, 6))
            return {"outcome": record.outcome,
                    "record": summarize_record(record),
                    "source": job.source}
        # corpus: merge exactly like run_corpus would (shared assembler).
        from repro.eval.runner import assemble_report

        outcomes = []
        for unit in sorted(units, key=lambda u: u.id):
            result = unit.result
            outcomes.append((result["record"], result.get("counters") or {},
                             result.get("obs")))
        report = assemble_report(outcomes)
        totals_bin = report.totals("binary")
        totals_fn = report.totals("function")
        return {
            "canonical_json": report.canonical_json(),
            "outcomes": {record.name: record.outcome
                         for record in report.records},
            "totals": {
                "functions": len(report.records),
                "instructions": (totals_bin.instructions
                                 + totals_fn.instructions),
                "lifted": totals_bin.lifted + totals_fn.lifted,
            },
            "source": job.source,
        }

    def _sync_followers_locked(self, job: Job) -> None:
        for follower_id in job.followers:
            follower = self._jobs.get(follower_id)
            if follower is not None and not follower.finished:
                follower.state = job.state
                follower.started_ts = job.started_ts

    # -- submission --------------------------------------------------------

    def submit(self, spec: dict, tenant: str) -> dict:
        """Validate + enqueue one job; the core of the ``submit`` op.

        Returns the response dict."""
        try:
            protocol.validate_job_spec(spec)
        except protocol.ProtocolError as exc:
            return protocol.error_response(exc.code, exc.message)
        kind = spec["kind"]
        if kind == "chaos" and not self.config.allow_chaos:
            return protocol.error_response(
                "chaos-disabled",
                "chaos jobs need a server started with --allow-chaos")
        with self._lock:
            if self._draining:
                return protocol.error_response(
                    "draining", "server is draining; not accepting jobs")
        # Build payloads outside the lock: corpus construction and binary
        # loading are the slow part of submission.
        try:
            units_payloads, dedup_key = self._build_payloads(spec)
        except protocol.ProtocolError as exc:
            return protocol.error_response(exc.code, exc.message)
        priority = spec.get("priority", 0)
        with self._lock:
            if self._draining:
                return protocol.error_response(
                    "draining", "server is draining; not accepting jobs")
            job = Job(id=self._job_ids.next(), tenant=tenant, kind=kind,
                      spec=spec, priority=priority)
            self._jobs[job.id] = job
            self._totals.submitted += 1
            self._totals.by_tenant[tenant] = (
                self._totals.by_tenant.get(tenant, 0) + 1)
            # Shared dedup, fastest first: the persistent store, then an
            # identical in-flight job (any tenant — results are content-
            # addressed, so sharing them across tenants is sound).
            if dedup_key is not None and self._store is not None \
                    and self._store.contains(dedup_key):
                stored = self._store.get(dedup_key)
                if stored is not None:
                    self._complete_from_store_locked(job, spec, stored)
                    return {"ok": True, "job_id": job.id,
                            "state": job.state, "source": job.source}
            if dedup_key is not None and dedup_key in self._inflight:
                primary = self._jobs[self._inflight[dedup_key]]
                primary.followers.append(job.id)
                job.source = "inflight"
                job.state = primary.state
                job.units_total = primary.units_total
                self._totals.inflight_attach += 1
                job.emit("job_queued", job=job.id, tenant=tenant,
                         job_kind=kind, priority=priority,
                         queue_depth=len(self._queue))
                return {"ok": True, "job_id": job.id, "state": job.state,
                        "source": "inflight", "primary": primary.id}
            job.units_total = len(units_payloads)
            for payload in units_payloads:
                unit = Unit(id=self._unit_ids.next(), job_id=job.id,
                            payload=payload, priority=priority)
                self._units[unit.id] = unit
                self._queue.push(unit.id, unit, priority)
            if dedup_key is not None:
                self._inflight[dedup_key] = job.id
            job.emit("job_queued", job=job.id, tenant=tenant, job_kind=kind,
                     priority=priority, queue_depth=len(self._queue))
            self._cond.notify_all()
        self._pool.wake()
        return {"ok": True, "job_id": job.id, "state": "queued",
                "source": "worker"}

    def _build_payloads(self, spec: dict) -> tuple[list[dict], str | None]:
        """Resolve *spec* into worker payloads + an optional dedup key."""
        kind = spec["kind"]
        budgets = {"cpu_seconds": spec.get("cpu_seconds"),
                   "memory_bytes": spec.get("memory_bytes")}
        if kind == "chaos":
            payload = {"type": "chaos", "action": spec["action"], **budgets}
            for name in ("seconds", "attempts", "bytes"):
                if name in spec:
                    payload[name] = spec[name]
            return [payload], None
        options = spec.get("options", {})
        timeout_seconds = options.get("timeout_seconds",
                                      self.config.default_timeout_seconds)
        max_states = options.get("max_states",
                                 self.config.default_max_states)
        schedule = options.get("schedule", self.config.schedule)
        pointer_summaries = options.get("pointer_summaries", False)
        use_cache = spec.get("cache", self._use_cache) and self._use_cache
        if kind == "lift":
            from repro.elf import load_binary
            from repro.eval.runner import LiftTask
            from repro.perf.store import lift_key

            try:
                binary = load_binary(spec["path"])
            except Exception as exc:  # ELF parse errors vary; all bad-job
                raise protocol.ProtocolError(
                    "bad-job", f"cannot load {spec['path']!r}: {exc}")
            task = LiftTask(
                name=os.path.basename(spec["path"]), directory="serve",
                kind="binary", binary=binary, function=None,
                timeout_seconds=timeout_seconds, max_states=max_states,
                cache=use_cache, cache_dir=self.config.cache_dir,
                schedule=schedule, pointer_summaries=pointer_summaries)
            key = None
            if self._store is not None:
                key = lift_key(binary, max_states=max_states,
                               timeout_seconds=timeout_seconds,
                               schedule=schedule,
                               pointer_summaries=pointer_summaries)
            return [{"type": "task", "task": task, **budgets}], key
        # corpus
        from repro.corpus import build_corpus
        from repro.eval.runner import corpus_tasks

        corpus = build_corpus(spec["scale"])
        tasks = corpus_tasks(corpus, timeout_seconds, max_states,
                             False, 1, use_cache, self.config.cache_dir,
                             schedule, pointer_summaries)
        return [{"type": "task", "task": task, **budgets}
                for task in tasks], None

    def _complete_from_store_locked(self, job: Job, spec: dict,
                                    stored) -> None:
        from repro.eval.runner import record_from_result

        record = record_from_result(os.path.basename(spec["path"]),
                                    "serve", "binary", stored)
        job.source = "store"
        job.units_total = job.units_done = 1
        job.metrics = {"instructions": record.instructions,
                       "seconds": round(record.seconds, 6)}
        self._totals.store_answers += 1
        job.emit("job_queued", job=job.id, tenant=job.tenant,
                 job_kind=job.kind, priority=job.priority,
                 queue_depth=len(self._queue))
        job.result = {"outcome": record.outcome,
                      "record": summarize_record(record),
                      "source": "store"}
        self._finalize_job_locked(job, "done")

    # -- the other ops -----------------------------------------------------

    def _job_for(self, job_id: str, tenant: str) -> Job | None:
        """Tenant-namespaced lookup: other tenants' jobs do not exist."""
        job = self._jobs.get(job_id)
        if job is None or job.tenant != tenant:
            return None
        return job

    def status(self, job_id: str, tenant: str) -> dict:
        with self._lock:
            job = self._job_for(job_id, tenant)
            if job is None:
                return protocol.error_response(
                    "unknown-job", f"no job {job_id!r} for this tenant")
            return {"ok": True, "job": job.status_dict()}

    def result(self, job_id: str, tenant: str) -> dict:
        with self._lock:
            job = self._job_for(job_id, tenant)
            if job is None:
                return protocol.error_response(
                    "unknown-job", f"no job {job_id!r} for this tenant")
            if not job.finished:
                return protocol.error_response(
                    "not-done", f"job {job_id} is {job.state}")
            return {"ok": True, "job": job.status_dict(),
                    "result": job.result}

    def cancel(self, job_id: str, tenant: str) -> dict:
        with self._lock:
            job = self._job_for(job_id, tenant)
            if job is None:
                return protocol.error_response(
                    "unknown-job", f"no job {job_id!r} for this tenant")
            if job.finished:
                return {"ok": True, "job_id": job.id, "cancelled": False,
                        "state": job.state}
            if job.source == "inflight":
                # A follower owns no units; detach it alone.
                for primary in self._jobs.values():
                    if job.id in primary.followers:
                        primary.followers.remove(job.id)
                self._finalize_job_locked(job, "cancelled")
                return {"ok": True, "job_id": job.id, "cancelled": True,
                        "state": "cancelled"}
            if job.followers:
                promoted = self._promote_follower_locked(job)
                if promoted is not None:
                    self._finalize_job_locked(job, "cancelled")
                    return {"ok": True, "job_id": job.id,
                            "cancelled": True, "state": "cancelled",
                            "promoted": promoted.id}
            kills = False
            for unit in self._job_units_locked(job):
                if unit.state == "queued":
                    self._queue.cancel(unit.id)
                    unit.state = "cancelled"
                elif unit.state == "retry-wait":
                    self._delayed = [(t, uid) for t, uid in self._delayed
                                     if uid != unit.id]
                    unit.state = "cancelled"
                elif unit.state == "running":
                    unit.state = "cancelling"
                    self._kill_requests.append(unit.id)
                    kills = True
            if not kills:
                self._maybe_finalize_job_locked(job)
            else:
                # Finalization happens when the scheduler processes the
                # kill (the job must not look finished before its units
                # are), but wake watchers now.
                self._cond.notify_all()
        self._pool.wake()
        return {"ok": True, "job_id": job_id, "cancelled": True,
                "state": "cancelled"}

    def _promote_follower_locked(self, job: Job) -> Job | None:
        """Hand *job*'s units to its oldest live follower (dedup must not
        let one tenant's cancel kill another tenant's job)."""
        while job.followers:
            follower = self._jobs.get(job.followers.pop(0))
            if follower is None or follower.finished:
                continue
            follower.followers = job.followers
            follower.units_total = job.units_total
            follower.units_done = job.units_done
            follower.source = "worker"
            follower.metrics = job.metrics
            job.followers = []
            for unit in self._job_units_locked(job):
                unit.job_id = follower.id
            for key, owner in list(self._inflight.items()):
                if owner == job.id:
                    self._inflight[key] = follower.id
            return follower
        return None

    def stats(self) -> dict:
        with self._lock:
            jobs_by_state: dict[str, int] = {}
            for job in self._jobs.values():
                jobs_by_state[job.state] = jobs_by_state.get(job.state,
                                                             0) + 1
            uptime = time.time() - self._started_ts
            payload = {
                "state": "draining" if self._draining else "serving",
                "uptime_seconds": round(uptime, 3),
                "protocol_version": protocol.PROTOCOL_VERSION,
                "workers": self._pool.stats() if self._pool else {},
                "queue": {
                    "depth": len(self._queue),
                    "delayed": len(self._delayed),
                    "by_priority": self._queue.depth_by_priority(),
                },
                "jobs": {
                    "submitted": self._totals.submitted,
                    "by_state": dict(sorted(jobs_by_state.items())),
                    "by_tenant": dict(sorted(
                        self._totals.by_tenant.items())),
                    "retries": self._totals.retries,
                },
                "dedup": {
                    "store_answers": self._totals.store_answers,
                    "inflight_attach": self._totals.inflight_attach,
                },
                "throughput": {
                    "instrs_total": self._totals.instrs_total,
                    "lift_seconds_total": round(
                        self._totals.lift_seconds_total, 6),
                    "instrs_per_second": round(
                        self._totals.instrs_total
                        / self._totals.lift_seconds_total, 2)
                    if self._totals.lift_seconds_total else 0.0,
                },
                "cache": {"enabled": self._use_cache},
            }
            if self._store is not None:
                store_stats = self._store.stats()
                payload["cache"].update({
                    "root": store_stats["root"],
                    "entries": store_stats["entries"],
                    "telemetry": store_stats["telemetry"],
                })
            return {"ok": True, "stats": payload}

    # -- the socket front end ---------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            listener = self._listener
            if listener is None:
                break
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(target=self._handle_connection,
                                      args=(sock,), daemon=True,
                                      name="repro-serve-conn")
            thread.start()

    def _handle_connection(self, sock: socket.socket) -> None:
        self._client_socks.add(sock)
        reader = protocol.LineReader(sock, self.config.max_line_bytes)
        try:
            while not self._stopped.is_set():
                try:
                    request = protocol.read_request(reader)
                except protocol.ProtocolError as exc:
                    self._send(sock, protocol.error_response(exc.code,
                                                             exc.message))
                    if exc.code in protocol.CLOSING_ERRORS:
                        return
                    continue
                except OSError:
                    return
                if request is None:
                    return
                try:
                    done = self._dispatch(sock, request)
                except Exception as exc:  # must never take the daemon down
                    self._send(sock, protocol.error_response(
                        "internal", f"{type(exc).__name__}: {exc}"))
                    continue
                if done:
                    return
        finally:
            self._client_socks.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _send(self, sock: socket.socket, obj: dict) -> None:
        try:
            sock.sendall(protocol.encode(obj))
        except OSError:
            pass

    def _dispatch(self, sock: socket.socket, request: dict) -> bool:
        """Handle one request; True means the connection should close."""
        op = request["op"]
        tenant = request.get("tenant", "default")
        if op == "ping":
            self._send(sock, {"ok": True, "pong": round(time.time(), 3),
                              "version": protocol.PROTOCOL_VERSION})
            return False
        if op == "submit":
            self._send(sock, self.submit(request["job"], tenant))
            return False
        if op == "status":
            self._send(sock, self.status(request["job_id"], tenant))
            return False
        if op == "result":
            self._send(sock, self.result(request["job_id"], tenant))
            return False
        if op == "cancel":
            self._send(sock, self.cancel(request["job_id"], tenant))
            return False
        if op == "stats":
            self._send(sock, self.stats())
            return False
        if op == "drain":
            with self._lock:
                pending = len(self._queue) + len(self._delayed) + len(
                    self._pool.busy_workers() if self._pool else [])
            self.begin_drain()
            self._send(sock, {"ok": True, "state": "draining",
                              "pending": pending})
            return False
        if op == "watch":
            return self._watch(sock, request["job_id"], tenant)
        raise AssertionError(f"unvalidated op {op!r}")

    def _watch(self, sock: socket.socket, job_id: str, tenant: str) -> bool:
        """Stream a job's heartbeat events until it finishes; the final
        line is the normal status response.  Closes the connection after
        (a watch is a terminal request on its connection)."""
        sent = 0
        while True:
            with self._cond:
                job = self._job_for(job_id, tenant)
                if job is None:
                    self._send(sock, protocol.error_response(
                        "unknown-job", f"no job {job_id!r} for this tenant"))
                    return True
                total = len(job.events) + job.events_dropped
                start = max(sent - job.events_dropped, 0)
                fresh = list(job.events[start:])
                sent = total
                finished = job.finished
                final = job.status_dict() if finished else None
                if not fresh and not finished:
                    self._cond.wait(timeout=0.5)
                    if self._stopped.is_set():
                        return True
                    continue
            for event in fresh:
                self._send(sock, {"event": event})
            if finished:
                self._send(sock, {"ok": True, "job": final})
                return True
