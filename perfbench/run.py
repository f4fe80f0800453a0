"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload lift-cold --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Each pass of a workload runs in a
fresh interpreter (``perfbench/worker.py``) with ``PYTHONHASHSEED`` pinned
to a value derived from ``--seed``.

``--trace 0`` makes one untraced pass and prints the end-to-end metrics.
``--trace 1`` makes three passes over the same fixed amount of work: one
untraced, then two traced.  It prints the per-layer metrics of the first
traced pass, the tracing overhead against the untraced pass, and any
per-layer count on which the two traced passes disagree.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything a pass wrote
(its JSON result and, when traced, its spans) stays under
``.perfbench/<workload>-s<seed>-t<trace>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

#: A pass that takes longer than this is stopped and the run fails.
PASS_TIMEOUT_S = 170

#: Per-layer counts that must repeat exactly between two traced passes.
DETERMINISTIC_SUFFIXES = (".calls", ".attempts")
DETERMINISTIC_NAMES = ("hoare.joins", "hoare.states", "hoare.instructions",
                       "export.triples.proven", "export.triples.assumed",
                       "export.triples.untested", "export.triples.failed",
                       "serve.store_answers", "serve.retries",
                       "smt.cache_hits", "smt.cache_misses")
#: Span counts that depend on timing rather than on the work (status
#: polls while a serve job runs), so they are not compared.
TIMING_DEPENDENT = ("serve.request.calls",)

#: Per-layer metrics: (name, unit, better).  Every one is printed for every
#: workload; a layer a workload does not reach reads 0.
SPAN_LAYERS = ("hoare.lift", "hoare.schedule", "hoare.resolve",
               "semantics.step", "semantics.join_states",
               "semantics.states_equal", "pred.join", "memmodel.join",
               "smt.decide", "smt.possible", "isa.fetch", "export.theory",
               "export.check", "machine.execute", "pred.holds",
               "memmodel.holds", "serve.request")
PER_LAYER = (
    [(f"{layer}.{kind}", unit, "lower") for layer in SPAN_LAYERS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("pred.widen.calls", "count", "lower"),
        ("hoare.joins", "count", "lower"),
        ("hoare.states", "count", "lower"),
        ("hoare.instructions", "count", "higher"),
        ("smt.cache_hits", "count", "higher"),
        ("smt.cache_misses", "count", "lower"),
        ("smt.cache_hit_ratio", "ratio", "higher"),
        ("pred.join_values.hit_ratio", "ratio", "higher"),
        ("pred.intervals.hit_ratio", "ratio", "higher"),
        ("expr.intern.hit_ratio", "ratio", "higher"),
        ("export.witness.attempts", "count", "lower"),
        ("export.witness.useful_ratio", "ratio", "higher"),
        ("export.triples.proven", "count", "higher"),
        ("export.triples.assumed", "count", "lower"),
        ("export.triples.untested", "count", "lower"),
        ("export.triples.failed", "count", "lower"),
        ("serve.queue_wait_s", "s", "lower"),
        ("serve.run_s", "s", "lower"),
        ("serve.store_answers", "count", "higher"),
        ("serve.retries", "count", "lower"),
        ("serve.ping_rtt_ms", "ms", "lower"),
        ("serve.hit_p50_ms", "ms", "lower"),
        ("serve.hit_p90_ms", "ms", "lower"),
        ("gc.collections", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.count_drift", "count", "lower"),
    ]
)

#: End-to-end metrics: (name, unit).  Their meaning per workload is in
#: README.md; ``op`` is a lifted task, a validated graph or a fresh-lift job.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("proven_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` a run with *seed* pins (valid range 0..2**32-1)."""
    return seed % (2 ** 32)


def percentile(values: list[float], fraction: float) -> float:
    """The *fraction* quantile, linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_pass(args, run_dir: str, label: str, units: int | None,
             traced: bool) -> dict:
    pass_dir = os.path.join(run_dir, label)
    os.makedirs(pass_dir)
    out = os.path.join(pass_dir, "result.json")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(args.seed))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--size", args.size,
               "--run-dir", pass_dir, "--out", out]
    if units is not None:
        command += ["--units", str(units)]
    if traced:
        command.append("--traced")
    if args.fault:
        command += ["--fault", args.fault]
    with open(os.path.join(pass_dir, "worker.log"), "wb") as log:
        # Its own process group, so a stuck pass is stopped together with
        # the serve daemon and pool workers it started.
        process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                   stderr=subprocess.STDOUT,
                                   start_new_session=True)
        try:
            code = process.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise RuntimeError(f"{label} pass exceeded {PASS_TIMEOUT_S}s")
    if code != 0:
        with open(os.path.join(pass_dir, "worker.log"), "rb") as log:
            tail = log.read()[-4000:].decode("utf-8", "replace")
        raise RuntimeError(f"{label} pass exited {code}:\n{tail}")
    with open(out) as handle:
        return json.load(handle)


# -- end-to-end metrics --------------------------------------------------------


def end_to_end(result: dict) -> tuple[dict, dict]:
    """(metrics by name, the same numbers under per-workload names)."""
    # An op that never reached the timed part (a step2 task that did not
    # verify) counts as failed but has no time.
    ops = [op for op in result["ops"] if op["seconds"] is not None]
    workload = result["workload"]
    latencies = [op["seconds"] for op in ops if op["stratum"] != "serve:hit"]
    wall = result["timed_s"]
    work = sum(op["work"] for op in ops)
    proven = sum(op["proven"] for op in ops)
    if workload == "serve-relift":
        work_per_s = _ratio(work, wall)
        proven_ratio = _ratio(proven, len(ops))
        rss_kb = result["peak_rss_kb"]["children"]
    elif workload == "step2-replay":
        work_per_s = _ratio(work, sum(latencies))
        proven_ratio = _ratio(proven, work)
        rss_kb = result["peak_rss_kb"]["self"]
    else:
        work_per_s = _ratio(work, sum(latencies))
        proven_ratio = _ratio(proven, len(ops))
        rss_kb = result["peak_rss_kb"]["self"]
    metrics = {
        "ops_per_s": _ratio(len(ops), wall),
        "work_per_s": work_per_s,
        "op_p50_ms": 1000 * percentile(latencies, 0.5),
        "op_p90_ms": 1000 * percentile(latencies, 0.9),
        "proven_ratio": proven_ratio,
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": rss_kb / 1024,
    }
    named = {
        "lift-cold": {
            "lift_instrs_per_s": (metrics["work_per_s"], "instr/s"),
            "lift_task_p50_s": (metrics["op_p50_ms"] / 1000, "s"),
            "lift_task_p90_s": (metrics["op_p90_ms"] / 1000, "s"),
        },
        "step2-replay": {
            "step2_triples_per_s": (metrics["work_per_s"], "triples/s"),
            "step2_graph_p50_s": (metrics["op_p50_ms"] / 1000, "s"),
            "step2_graph_p90_s": (metrics["op_p90_ms"] / 1000, "s"),
            "step2_proven_ratio": (metrics["proven_ratio"], "ratio"),
        },
        "serve-relift": {
            "serve_jobs_per_s": (metrics["ops_per_s"], "jobs/s"),
            "serve_hit_p50_ms": (1000 * percentile(_hit_latencies(ops), 0.5),
                                 "ms"),
            "serve_hit_p90_ms": (1000 * percentile(_hit_latencies(ops), 0.9),
                                 "ms"),
            "serve_miss_p50_s": (metrics["op_p50_ms"] / 1000, "s"),
            "serve_miss_p90_s": (metrics["op_p90_ms"] / 1000, "s"),
        },
    }[workload]
    named["setup_s"] = (metrics["setup_s"], "s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    return metrics, named


def _hit_latencies(ops: list[dict]) -> list[float]:
    return [op["seconds"] for op in ops if op["stratum"] == "serve:hit"]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- per-layer metrics ---------------------------------------------------------


def _hit_ratio(hits: int, misses: int) -> float:
    return _ratio(hits, hits + misses)


def per_layer(result: dict, untraced: dict) -> dict:
    layers = result["layers"]
    metrics: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        stats = layers.get(layer, {})
        metrics[f"{layer}.calls"] = stats.get("calls", 0)
        metrics[f"{layer}.self_s"] = stats.get("self_s", 0.0)
    metrics["pred.widen.calls"] = layers.get("pred.widen", {}).get("calls", 0)
    witness = layers.get("export.witness", {})
    metrics["export.witness.attempts"] = witness.get("calls", 0)
    metrics["export.witness.useful_ratio"] = (
        witness["useful"] / witness["calls"] if witness.get("calls") else 0.0)

    ops = result["ops"]
    counters, caches = result["counters"], result["caches"]
    lifts = [op for op in ops if "states" in op["extra"]]
    metrics["hoare.joins"] = counters["lift_joins"]
    metrics["hoare.states"] = sum(op["extra"]["states"] for op in lifts)
    metrics["hoare.instructions"] = sum(op["work"] for op in lifts)
    metrics["smt.cache_hits"] = counters["solver_hits"]
    metrics["smt.cache_misses"] = counters["solver_misses"]
    metrics["smt.cache_hit_ratio"] = _hit_ratio(counters["solver_hits"],
                                            counters["solver_misses"])
    for cache, name in (("pred.join_values", "pred.join_values.hit_ratio"),
                        ("pred.intervals", "pred.intervals.hit_ratio"),
                        ("expr.intern", "expr.intern.hit_ratio")):
        stats = caches.get(cache, {"hits": 0, "misses": 0})
        metrics[name] = _hit_ratio(stats["hits"], stats["misses"])
    for status in ("proven", "assumed", "untested", "FAILED"):
        metrics[f"export.triples.{status.lower()}"] = sum(
            op["extra"].get("statuses", {}).get(status, 0) for op in ops)

    jobs = [op["extra"]["job"] for op in ops if "job" in op["extra"]]
    metrics["serve.queue_wait_s"] = sum(
        job["started_ts"] - job["created_ts"] for job in jobs
        if "started_ts" in job)
    metrics["serve.run_s"] = sum(
        job["finished_ts"] - job["started_ts"] for job in jobs
        if "started_ts" in job and "finished_ts" in job)
    stats = result.get("stats", {})
    metrics["serve.store_answers"] = stats.get("dedup", {}).get(
        "store_answers", 0)
    metrics["serve.retries"] = stats.get("jobs", {}).get("retries", 0)
    pings = result.get("pings", [])
    metrics["serve.ping_rtt_ms"] = (1000 * statistics.median(pings)
                                    if pings else 0.0)
    # Latency percentiles come from the untraced pass.
    hits = _hit_latencies(untraced["ops"])
    metrics["serve.hit_p50_ms"] = 1000 * percentile(hits, 0.5)
    metrics["serve.hit_p90_ms"] = 1000 * percentile(hits, 0.9)
    metrics["gc.collections"] = result["gc_collections"]
    metrics["trace.spans"] = result["spans"]
    metrics["trace.overhead_ratio"] = (result["timed_s"] / untraced["timed_s"]
                                       - 1.0)
    return metrics


def drift(first: dict, second: dict) -> dict:
    """Deterministic per-layer counts on which two traced passes differ."""
    return {
        name: (first[name], second[name]) for name in sorted(first)
        if (name.endswith(DETERMINISTIC_SUFFIXES)
            or name in DETERMINISTIC_NAMES)
        and name not in TIMING_DEPENDENT and first[name] != second[name]
    }


# -- correctness ---------------------------------------------------------------


def correctness(workload: str, ops: list[dict]) -> tuple[bool, list[dict]]:
    """(correct, failed ops).  Every failed op counts; the run stays
    correct only while each failure is of the class recorded as a known
    defect for its stratum."""
    failed = [op for op in ops if op["failure"]]
    return all(_known(workload, op) for op in failed), failed


def _known(workload: str, op: dict) -> bool:
    return KNOWN_DEFECTS[workload].get(op["stratum"]) == op["failure"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few seconds of work, for the "
                             "benchmark's own tests")
    parser.add_argument("--fault", default=None,
                        help="install this repro.qa.faults fault in every "
                             "pass (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if args.trace == 0:
            result = run_pass(args, run_dir, "untraced", None, False)
            values, named = end_to_end(result)
            units = dict(END_TO_END)
            drifted: dict = {}
        else:
            units_of_work = WORKLOADS[args.workload].trace_units
            result = run_pass(args, run_dir, "untraced", units_of_work, False)
            first = run_pass(args, run_dir, "traced-1", units_of_work, True)
            second = run_pass(args, run_dir, "traced-2", units_of_work, True)
            values = per_layer(first, result)
            drifted = drift(values, per_layer(second, result))
            values["trace.count_drift"] = len(drifted)
            named = {}
            units = {name: unit for name, unit, _ in PER_LAYER}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct, failed = correctness(args.workload, result["ops"])
    correct = correct and not drifted
    ops = result["ops"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"PYTHONHASHSEED={result['hash_seed']}  trace {args.trace}")
    print(f"  {len(ops)} ops in {result['timed_s']:.3f} s timed, "
          f"set-up {', '.join(f'{s:.3f}' for s in result['setup_s'])} s")
    for name, (value, unit) in named.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(f"  failure share {len(failed)}/{len(ops)}"
          f" = {len(failed) / len(ops):.4f}" if ops else "  no ops")
    for name in sorted({op["name"] for op in failed}):
        op = next(op for op in failed if op["name"] == name)
        known = " (known defect)" if _known(args.workload, op) else ""
        print(f"  FAILED {name}: {op['failure']}, {op['detail']}{known}")
    for name, (a, b) in drifted.items():
        print(f"  DRIFT {name}: {a} != {b} between two traced passes")
    with open(os.path.join(run_dir, "summary.json"), "w") as handle:
        json.dump({"named": named, "metrics": values, "drift": drifted,
                   "failed": failed, "hash_seed": result["hash_seed"]},
                  handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
