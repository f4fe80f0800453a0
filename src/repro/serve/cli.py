"""``python -m repro serve`` / ``python -m repro client``.

The daemon::

    python -m repro serve --socket /tmp/repro.sock --workers 2
    # SIGTERM (or `client drain`) => finish in-flight jobs, exit 0

The client (every verb prints one JSON object to stdout)::

    python -m repro client --socket /tmp/repro.sock submit-lift ./a.out
    python -m repro client --socket /tmp/repro.sock status j-1
    python -m repro client --socket /tmp/repro.sock wait j-1
    python -m repro client --socket /tmp/repro.sock result j-1
    python -m repro client --socket /tmp/repro.sock cancel j-1
    python -m repro client --socket /tmp/repro.sock watch j-1
    python -m repro client --socket /tmp/repro.sock stats
    python -m repro client --socket /tmp/repro.sock drain

Client exit codes: 0 = ok, 1 = structured server error (the JSON error
object is printed), 2 = cannot talk to the daemon at all.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.serve.client import JobError, ServeClient, ServeError
from repro.serve.server import Server, ServerConfig


def serve_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the lifting-as-a-service daemon.")
    parser.add_argument("--socket", required=True, dest="socket_path",
                        help="unix socket path to listen on")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-retries", type=int, default=3,
                        help="worker crashes tolerated per unit before it "
                             "fails with diagnostics (default 3)")
    parser.add_argument("--retry-base", type=float, default=0.25,
                        help="first retry backoff in seconds (doubles per "
                             "crash, capped by --retry-cap)")
    parser.add_argument("--retry-cap", type=float, default=5.0)
    parser.add_argument("--cache", action="store_true", default=None,
                        dest="cache",
                        help="answer duplicate lifts from the persistent "
                             "store (default: the REPRO_CACHE environment "
                             "variable)")
    parser.add_argument("--no-cache", action="store_false", dest="cache")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--allow-chaos", action="store_true",
                        help="accept chaos jobs (fault-injection tests and "
                             "CI smoke only)")
    parser.add_argument("--drain-grace", type=float, default=300.0,
                        help="seconds a drain waits for in-flight work "
                             "before forcing it (exit 1)")
    parser.add_argument("--timeout-seconds", type=float, default=10.0,
                        help="default per-lift wall budget")
    parser.add_argument("--max-states", type=int, default=10_000,
                        help="default per-lift state cap")
    args = parser.parse_args(argv)

    config = ServerConfig(
        socket_path=args.socket_path, workers=args.workers,
        max_retries=args.max_retries, retry_base=args.retry_base,
        retry_cap=args.retry_cap, cache=args.cache,
        cache_dir=args.cache_dir, allow_chaos=args.allow_chaos,
        drain_grace=args.drain_grace,
        default_timeout_seconds=args.timeout_seconds,
        default_max_states=args.max_states)
    server = Server(config)
    server.start()

    def _drain(signum, _frame):
        print(f"repro serve: signal {signum}, draining", file=sys.stderr,
              flush=True)
        server.begin_drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(f"repro serve: listening on {args.socket_path} "
          f"({args.workers} workers, cache "
          f"{'on' if server._store is not None else 'off'})", flush=True)
    code = server.wait()
    print(f"repro serve: drained, exit {code}", flush=True)
    return code


def _client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro client",
        description="Talk to a running repro serve daemon.")
    parser.add_argument("--socket", required=True, dest="socket_path")
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="socket/wait timeout in seconds")
    sub = parser.add_subparsers(dest="verb", required=True)

    submit_lift = sub.add_parser("submit-lift",
                                 help="submit one ELF lift job")
    submit_lift.add_argument("path")
    submit_corpus = sub.add_parser("submit-corpus",
                                   help="submit a corpus verification job")
    submit_corpus.add_argument("--scale", type=int, default=1)
    submit_chaos = sub.add_parser("submit-chaos",
                                  help="submit a chaos probe (server must "
                                       "allow chaos)")
    submit_chaos.add_argument("action")
    submit_chaos.add_argument("--seconds", type=float, default=None)
    submit_chaos.add_argument("--attempts", type=int, default=None)
    for submit in (submit_lift, submit_corpus, submit_chaos):
        submit.add_argument("--priority", type=int, default=0)
        submit.add_argument("--no-cache", action="store_false",
                            dest="use_cache", default=None)
        submit.add_argument("--wait", action="store_true",
                            help="block until the job finishes, then print "
                                 "its result")
    for verb in ("status", "result", "cancel", "watch", "wait"):
        verb_parser = sub.add_parser(verb)
        verb_parser.add_argument("job_id")
    sub.add_parser("stats")
    sub.add_parser("ping")
    sub.add_parser("drain")
    return parser


def _build_spec(args) -> dict:
    if args.verb == "submit-lift":
        spec: dict = {"kind": "lift", "path": args.path}
    elif args.verb == "submit-corpus":
        spec = {"kind": "corpus", "scale": args.scale}
    else:
        spec = {"kind": "chaos", "action": args.action}
        if args.seconds is not None:
            spec["seconds"] = args.seconds
        if args.attempts is not None:
            spec["attempts"] = args.attempts
    if args.priority:
        spec["priority"] = args.priority
    if args.use_cache is not None:
        spec["cache"] = args.use_cache
    return spec


def client_main(argv=None) -> int:
    args = _client_parser().parse_args(argv)
    try:
        client = ServeClient(args.socket_path, tenant=args.tenant,
                             timeout=args.timeout)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with client:
            if args.verb.startswith("submit-"):
                response = client.submit(_build_spec(args))
                if args.wait:
                    client.wait(response["job_id"], timeout=args.timeout)
                    response = client.result(response["job_id"])
            elif args.verb == "status":
                response = {"ok": True, "job": client.status(args.job_id)}
            elif args.verb == "result":
                response = client.result(args.job_id)
            elif args.verb == "cancel":
                response = client.cancel(args.job_id)
            elif args.verb == "wait":
                job = client.wait(args.job_id, timeout=args.timeout)
                response = {"ok": True, "job": job}
            elif args.verb == "watch":
                final = client.watch(
                    args.job_id,
                    on_event=lambda event: print(
                        json.dumps(event, sort_keys=True), flush=True))
                response = {"ok": True, "job": final}
            elif args.verb == "stats":
                response = {"ok": True, "stats": client.stats()}
            elif args.verb == "ping":
                response = client.ping()
            elif args.verb == "drain":
                response = client.drain()
            else:
                raise AssertionError(args.verb)
    except JobError as exc:
        print(json.dumps({"ok": False,
                          "error": {"code": exc.code,
                                    "message": exc.message}},
                         sort_keys=True))
        return 1
    except (ServeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(response, sort_keys=True))
    return 0
