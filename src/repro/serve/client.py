"""Client side of the lifting service: one connection, blocking calls.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` JSONL dialect
over a Unix socket and validates every response before surfacing it — a
malformed server reply raises :class:`ServeError` rather than leaking a
raw dict of unknown shape.  Server-side errors (``ok: false``) raise
:class:`JobError` carrying the structured code.

Responses can legitimately be larger than requests (a corpus job's result
embeds the canonical report), so the client reads with a wider line cap
than the server accepts.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Iterator

from repro.serve import protocol

#: Response lines can carry whole canonical reports — allow 64 MiB.
MAX_RESPONSE_BYTES = 64 << 20


class ServeError(RuntimeError):
    """Transport or framing failure talking to the daemon."""


class JobError(RuntimeError):
    """A structured ``ok: false`` reply."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServeClient:
    """A blocking client for one ``repro serve`` daemon.

    Usable as a context manager; every public method is one round-trip
    (except :meth:`watch`, which streams).  Not thread-safe — use one
    client per thread.
    """

    def __init__(self, socket_path: str, tenant: str = "default",
                 timeout: float | None = 60.0) -> None:
        self.socket_path = socket_path
        self.tenant = tenant
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(socket_path)
        except OSError as exc:
            self._sock.close()
            raise ServeError(
                f"cannot connect to {socket_path!r}: {exc}") from None
        self._reader = protocol.LineReader(self._sock, MAX_RESPONSE_BYTES)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- wire primitives ---------------------------------------------------

    def _read_response(self) -> dict:
        try:
            line = self._reader.readline()
        except protocol.ProtocolError as exc:
            raise ServeError(f"bad response framing: {exc.message}") from None
        except OSError as exc:
            raise ServeError(f"connection lost: {exc}") from None
        if line is None:
            raise ServeError("server closed the connection")
        import json

        try:
            obj = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"response is not JSON: {exc}") from None
        if "event" not in obj:
            try:
                protocol.validate_response(obj)
            except ValueError as exc:
                raise ServeError(str(exc)) from None
        return obj

    def request(self, op: str, **fields: Any) -> dict:
        """One validated request/response round-trip.

        Raises :class:`JobError` on a structured server error and
        :class:`ServeError` on transport/framing problems.
        """
        payload = {"op": op, "tenant": self.tenant, **fields}
        protocol.validate_request(payload)
        try:
            self._sock.sendall(protocol.encode(payload))
        except OSError as exc:
            raise ServeError(f"send failed: {exc}") from None
        response = self._read_response()
        if response.get("ok") is False:
            error = response["error"]
            raise JobError(error["code"], error["message"])
        return response

    # -- verbs -------------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def submit(self, job: dict) -> dict:
        """Submit a job spec; returns ``{job_id, state, source, ...}``."""
        return self.request("submit", job=job)

    def submit_lift(self, path: str, **spec: Any) -> dict:
        return self.submit({"kind": "lift", "path": path, **spec})

    def submit_corpus(self, scale: int = 1, **spec: Any) -> dict:
        return self.submit({"kind": "corpus", "scale": scale, **spec})

    def status(self, job_id: str, wait: float | None = None) -> dict:
        """The job's status; with *wait*, the daemon first blocks until
        the job finishes or *wait* seconds pass (see the protocol)."""
        if wait is None:
            return self.request("status", job_id=job_id)["job"]
        return self.request("status", job_id=job_id, wait=wait)["job"]

    def result(self, job_id: str) -> dict:
        """The finished job's result payload (raises ``not-done`` before)."""
        return self.request("result", job_id=job_id)

    def cancel(self, job_id: str) -> dict:
        return self.request("cancel", job_id=job_id)

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def drain(self) -> dict:
        return self.request("drain")

    def watch(self, job_id: str,
              on_event: "Callable[[dict], None] | None" = None) -> dict:
        """Stream the job's heartbeat events until it finishes.

        Calls *on_event* per event line; returns the final job status.
        The server closes the connection after a watch, so this client is
        single-use once :meth:`watch` returns.
        """
        payload = {"op": "watch", "tenant": self.tenant, "job_id": job_id}
        protocol.validate_request(payload)
        try:
            self._sock.sendall(protocol.encode(payload))
        except OSError as exc:
            raise ServeError(f"send failed: {exc}") from None
        while True:
            obj = self._read_response()
            if "event" in obj:
                if on_event is not None:
                    on_event(obj["event"])
                continue
            if obj.get("ok") is False:
                error = obj["error"]
                raise JobError(error["code"], error["message"])
            return obj["job"]

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05) -> dict:
        """Block until *job_id* reaches a terminal state; returns its
        status dict.  Raises :class:`TimeoutError` on expiry.

        Each request is a waiting ``status``, which the daemon answers
        as soon as the job finishes.  A waiting status that comes back
        early with the job unfinished (the daemon is draining) is
        followed by a *poll* second sleep, so a draining daemon is not
        asked in a busy loop."""
        deadline = time.monotonic() + timeout
        # The socket timeout must outlast the longest wait asked for.
        sock_timeout = self._sock.gettimeout()
        cap = protocol.MAX_STATUS_WAIT
        if sock_timeout is not None:
            cap = min(cap, sock_timeout / 2)
        while True:
            asked = max(0.0, min(cap, deadline - time.monotonic()))
            started = time.monotonic()
            status = self.status(job_id, wait=asked)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            now = time.monotonic()
            if now > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r} after "
                    f"{timeout}s")
            if now - started < asked:
                time.sleep(poll)


def iter_watch_events(socket_path: str, job_id: str,
                      tenant: str = "default") -> Iterator[dict]:
    """Convenience generator over one watch stream (own connection)."""
    with ServeClient(socket_path, tenant=tenant) as client:
        events: list[dict] = []
        client.watch(job_id, on_event=events.append)
        yield from events
