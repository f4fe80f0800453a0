"""The daemon's persistent worker pool.

Each worker is one long-lived process connected to the parent by a duplex
pipe: the scheduler sends ``(unit_id, attempt, payload)``, the worker
answers ``(unit_id, result_dict)`` and waits for the next unit — the
import and warm-up cost is paid once per worker, not per job.  Workers
are started with the ``spawn`` context: the parent is multithreaded
(accept loop, connection handlers, scheduler), and forking a threaded
process is the classic deadlock trap.

Crash semantics — the contract the fault-injection suite pins down:

* a worker death is detected via its process sentinel / pipe EOF, never
  by timeout alone, so a ``SIGKILL`` mid-job surfaces immediately;
* the dead worker's unit is the only thing it can take down: the pool
  respawns a replacement and reports the loss to the scheduler, which
  retries the unit with capped exponential backoff
  (:func:`repro.serve.jobs.backoff_delay`) and fails it with structured
  diagnostics after ``max_retries`` — never a hang;
* a **deterministic** in-job exception is not a crash: the worker stays
  alive and returns ``{"status": "error", ...}``, which fails the unit
  immediately (re-running deterministic Python raises the same thing).

Per-unit budgets are enforced *inside* the worker via ``resource``:

* ``memory_bytes`` caps the address space (``RLIMIT_AS`` soft limit for
  the duration of the unit); the resulting ``MemoryError`` becomes a
  structured ``budget-memory`` failure;
* ``cpu_seconds`` arms ``RLIMIT_CPU`` at (current usage + budget), so
  the kernel delivers ``SIGXCPU`` to a runaway unit no matter what it is
  doing; the handler raises and the worker answers ``budget-cpu``.

Budget failures are final (a second attempt would exhaust the same
budget); only worker *death* triggers the retry path.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import resource
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Any

#: Worker exit codes the parent folds into diagnostics.
EXIT_OK = 0


class _CpuBudgetExceeded(Exception):
    pass


def _sigxcpu(_signum, _frame):
    raise _CpuBudgetExceeded()


class _budgets:
    """Apply per-unit rlimits inside the worker; restore on exit."""

    def __init__(self, cpu_seconds: float | None,
                 memory_bytes: int | None) -> None:
        self.cpu_seconds = cpu_seconds
        self.memory_bytes = memory_bytes
        self._saved: list[tuple[int, tuple[int, int]]] = []
        self._old_handler = None

    def __enter__(self):
        if self.memory_bytes:
            soft_hard = resource.getrlimit(resource.RLIMIT_AS)
            self._saved.append((resource.RLIMIT_AS, soft_hard))
            resource.setrlimit(resource.RLIMIT_AS,
                               (self.memory_bytes, soft_hard[1]))
        if self.cpu_seconds:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            used = usage.ru_utime + usage.ru_stime
            soft_hard = resource.getrlimit(resource.RLIMIT_CPU)
            self._saved.append((resource.RLIMIT_CPU, soft_hard))
            self._old_handler = signal.signal(signal.SIGXCPU, _sigxcpu)
            resource.setrlimit(
                resource.RLIMIT_CPU,
                (int(used + self.cpu_seconds) + 1, soft_hard[1]))
        return self

    def __exit__(self, *_exc):
        for which, soft_hard in reversed(self._saved):
            try:
                resource.setrlimit(which, soft_hard)
            except (ValueError, OSError):
                pass
        if self._old_handler is not None:
            signal.signal(signal.SIGXCPU, self._old_handler)
        return False


def _execute_chaos(payload: dict, attempt: int) -> dict:
    """Test-suite / CI fault probes (gated behind ``allow_chaos``)."""
    action = payload["action"]
    if action == "crash":
        os._exit(137)
    if action == "crash_until":
        # Die on the first N attempts, succeed afterwards — the
        # deterministic "killed worker's job completes via retry" probe.
        if attempt <= payload.get("attempts", 1):
            os._exit(137)
        return {"status": "ok", "chaos": "survived", "attempt": attempt}
    if action == "sleep":
        time.sleep(payload.get("seconds", 1.0))
        return {"status": "ok", "chaos": "slept"}
    if action == "spin":
        deadline = time.monotonic() + payload.get("seconds", 60.0)
        n = 0
        while time.monotonic() < deadline:
            n = (n + 1) % 1_000_003
        return {"status": "ok", "chaos": "spun"}
    if action == "alloc":
        blob = bytearray(payload.get("bytes", 1 << 30))
        return {"status": "ok", "chaos": "allocated", "bytes": len(blob)}
    raise ValueError(f"unknown chaos action {action!r}")


def execute_payload(payload: dict, attempt: int) -> dict:
    """Run one unit payload; always returns a structured result dict."""
    budget = _budgets(payload.get("cpu_seconds"),
                      payload.get("memory_bytes"))
    try:
        with budget:
            if payload["type"] == "chaos":
                return _execute_chaos(payload, attempt)
            if payload["type"] == "task":
                from repro.eval.runner import run_task

                record, delta, obs_data = run_task(payload["task"])
                return {"status": "ok", "record": record,
                        "counters": delta, "obs": obs_data}
            raise ValueError(f"unknown payload type {payload['type']!r}")
    except MemoryError:
        return {"status": "error",
                "error": {"code": "budget-memory",
                          "message": f"unit exceeded its "
                                     f"{payload.get('memory_bytes')} byte "
                                     f"memory budget"}}
    except _CpuBudgetExceeded:
        return {"status": "error",
                "error": {"code": "budget-cpu",
                          "message": f"unit exceeded its "
                                     f"{payload.get('cpu_seconds')} s "
                                     f"CPU budget"}}
    except Exception as exc:  # deterministic failure — no retry
        return {"status": "error",
                "error": {"code": "exception",
                          "message": f"{type(exc).__name__}: {exc}",
                          "traceback": traceback.format_exc(limit=10)}}


def worker_main(conn, worker_id: int) -> None:
    """The worker process body: execute units off *conn* until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The parent handles SIGTERM (drain); workers finish their unit.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:  # orderly shutdown
            break
        unit_id, attempt, payload = message
        result = execute_payload(payload, attempt)
        try:
            conn.send((unit_id, result))
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass
class PoolEvent:
    """One scheduler-visible pool occurrence."""

    kind: str                  # "result" | "died"
    worker_id: int
    unit_id: str | None = None
    result: dict | None = None
    exitcode: int | None = None


class WorkerHandle:
    def __init__(self, worker_id: int, ctx) -> None:
        self.id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(target=worker_main,
                                args=(child_conn, worker_id),
                                name=f"repro-serve-worker-{worker_id}",
                                daemon=True)
        self.proc.start()
        child_conn.close()
        self.unit_id: str | None = None
        self.units_done = 0
        self.started_ts = time.time()

    @property
    def idle(self) -> bool:
        return self.unit_id is None and self.proc.is_alive()

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def assign(self, unit_id: str, attempt: int, payload: Any) -> None:
        assert self.unit_id is None, f"worker {self.id} is busy"
        self.unit_id = unit_id
        self.conn.send((unit_id, attempt, payload))

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=5)

    def close(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.kill()
        try:
            self.conn.close()
        except OSError:
            pass  # the event loop closed it when the worker died


class WorkerPool:
    """N persistent workers plus the event loop the scheduler blocks on."""

    def __init__(self, size: int, start_method: str = "spawn") -> None:
        self._ctx = multiprocessing.get_context(start_method)
        self._next_id = 0
        self.workers: list[WorkerHandle] = []
        self.respawns = 0
        for _ in range(size):
            self._spawn()
        # Self-pipe: the server pokes it to wake a blocked wait() when new
        # work arrives or a drain begins.
        self._wake_recv, self._wake_send = self._ctx.Pipe(duplex=False)

    def _spawn(self) -> WorkerHandle:
        worker = WorkerHandle(self._next_id, self._ctx)
        self._next_id += 1
        self.workers.append(worker)
        return worker

    # -- scheduler interface ----------------------------------------------

    def idle_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.idle]

    def busy_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.unit_id is not None]

    def worker_for_unit(self, unit_id: str) -> WorkerHandle | None:
        for worker in self.workers:
            if worker.unit_id == unit_id:
                return worker
        return None

    def wake(self) -> None:
        try:
            self._wake_send.send(b"!")
        except (BrokenPipeError, OSError):
            pass

    def kill_worker(self, worker: WorkerHandle) -> None:
        """Forcibly terminate *worker* (cancellation of a running unit)
        and replace it.  The caller owns the unit's bookkeeping."""
        worker.kill()
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker in self.workers:
            self.workers.remove(worker)
        self.respawns += 1
        self._spawn()

    def wait(self, timeout: float | None) -> list[PoolEvent]:
        """Block until a worker answers, dies, or the pool is poked.

        Returns the batch of events (possibly empty on timeout/poke).
        Dead workers are replaced before returning, so pool capacity is
        invariant; the scheduler only handles the orphaned unit.
        """
        conn_map = {w.conn: w for w in self.workers}
        sentinel_map = {w.proc.sentinel: w for w in self.workers}
        waitables = (list(conn_map) + list(sentinel_map)
                     + [self._wake_recv])
        ready = multiprocessing.connection.wait(waitables, timeout)
        events: list[PoolEvent] = []
        dead: list[WorkerHandle] = []
        for obj in ready:
            if obj is self._wake_recv:
                try:
                    self._wake_recv.recv()
                except (EOFError, OSError):
                    pass
                continue
            worker = conn_map.get(obj)
            if worker is not None:
                try:
                    unit_id, result = worker.conn.recv()
                except (EOFError, OSError):
                    if worker not in dead:
                        dead.append(worker)
                    continue
                worker.unit_id = None
                worker.units_done += 1
                events.append(PoolEvent("result", worker.id,
                                        unit_id=unit_id, result=result))
                continue
            worker = sentinel_map.get(obj)
            if worker is not None and not worker.proc.is_alive():
                if worker not in dead:
                    dead.append(worker)
        for worker in dead:
            # A sentinel can fire while a final result sits in the pipe
            # (worker answered, then exited) — drain it before declaring
            # the unit lost.
            drained = False
            try:
                if worker.conn.poll(0):
                    unit_id, result = worker.conn.recv()
                    worker.unit_id = None
                    events.append(PoolEvent("result", worker.id,
                                            unit_id=unit_id, result=result))
                    drained = True
            except (EOFError, OSError):
                pass
            worker.proc.join(timeout=5)
            exitcode = worker.proc.exitcode
            orphan = worker.unit_id
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker in self.workers:
                self.workers.remove(worker)
            self.respawns += 1
            self._spawn()
            if not drained or orphan is not None:
                events.append(PoolEvent("died", worker.id, unit_id=orphan,
                                        exitcode=exitcode))
        return events

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "size": len(self.workers),
            "busy": len(self.busy_workers()),
            "respawns": self.respawns,
            "pids": [w.pid for w in self.workers],
            "units_done": sum(w.units_done for w in self.workers),
        }

    def shutdown(self) -> None:
        for worker in list(self.workers):
            worker.close()
        self.workers.clear()
        for conn in (self._wake_recv, self._wake_send):
            try:
                conn.close()
            except OSError:
                pass
