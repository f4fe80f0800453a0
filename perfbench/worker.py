"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this file with ``PYTHONHASHSEED`` pinned, so every pass
starts with cold process-global memo caches and a known hash seed.  The
pass writes one JSON document (its operations, set-up times, counters and,
when traced, per-layer span statistics) to ``--out``.

    python3 perfbench/worker.py --workload lift-cold --seed 1 --seconds 10 \\
        --out result.json [--units 2] [--traced] [--size tiny] [--fault NAME]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Patches, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _gc_collections() -> int:
    return sum(stats["collections"] for stats in gc.get_stats())


def _cache_delta(before: dict, after: dict) -> dict:
    return {name: {key: after[name][key] - before.get(name, {}).get(key, 0)
                   for key in ("hits", "misses")}
            for name in after}


def run_pass(workload_name: str, seed: int, seconds: float,
             units: int | None, traced: bool, size: str,
             run_dir: str) -> dict:
    from repro.perf import cache_stats, counters, reset_caches

    workload = WORKLOADS[workload_name](seed, size, run_dir, seconds, units)
    repeats = workload.setup_repeats if units is None else 1
    setup_s = []
    state = None
    try:
        for _ in range(repeats):
            if state is not None:
                workload.teardown(state)
                state = None
            t0 = time.perf_counter()
            state = workload.setup()
            setup_s.append(time.perf_counter() - t0)

        # The timed part starts from cold memo caches whatever set-up did.
        reset_caches()
        recorder = patches = None
        if traced:
            recorder = SpanRecorder()
            patches = Patches(recorder)
            patches.install()
        gc_before = _gc_collections()
        counters_before = counters.snapshot()
        caches_before = cache_stats()
        t0 = time.perf_counter()
        try:
            ops = workload.measure(state, recorder)
        finally:
            timed_s = time.perf_counter() - t0
            if patches is not None:
                patches.uninstall()
        gc_collections = _gc_collections() - gc_before
        counter_delta = counters.delta(counters_before, counters.snapshot())
        cache_delta = _cache_delta(caches_before, cache_stats())
    finally:
        if state is not None:
            workload.teardown(state)
    extra = {}
    if isinstance(state, dict):
        extra = {key: state[key] for key in ("pings", "stats") if key in state}
    if not traced:
        workload.check(ops)
    if recorder is not None:
        recorder.save(os.path.join(run_dir, "spans"))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "workload": workload_name,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "units": units,
        "traced": traced,
        "setup_s": setup_s,
        "timed_s": timed_s,
        "ops": [dataclasses.asdict(op) for op in ops],
        "peak_rss_kb": {"self": self_rss, "children": children_rss},
        "gc_collections": gc_collections,
        "counters": counter_delta,
        "caches": cache_delta,
        "layers": recorder.layer_stats() if recorder is not None else {},
        "spans": len(recorder.name_col) if recorder is not None else 0,
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--fault", default=None,
                        help="a repro.qa.faults name to keep installed for "
                             "the whole pass (shows the checks bite)")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    fault = contextlib.nullcontext()
    if args.fault:
        from repro.qa.faults import inject

        fault = inject(args.fault)
    with fault:
        result = run_pass(args.workload, args.seed, args.seconds, args.units,
                          args.traced, args.size, args.run_dir)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
