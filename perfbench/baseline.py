"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/baseline/first.json

Every workload in BENCHMARK.json runs on seeds 1 to 10, in one sitting,
and then once traced on seed 1.  For each end-to-end metric it stores the
median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread, the distance between the quartiles as a share of the
median.  It also stores each run's failure count and the names of the
failed operations, so a later change is judged against a failure share
that already holds the known defects.  Runs go one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


#: The seeds of the untraced runs, and of the traced run, of every workload.
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    summary = os.path.join(ROOT, ".perfbench",
                           f"{workload}-s{seed}-t{trace}", "summary.json")
    with open(summary) as handle:
        result["failed_names"] = sorted(
            {op["name"] for op in json.load(handle)["failed"]})
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    record = {
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "run_seconds": seconds,
        "hash_seed": "PYTHONHASHSEED = seed mod 2**32",
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in record["seeds"]]
        metrics = {
            entry["name"]: {"unit": entry["unit"], "bound": entry["bound"],
                            **summarize([r["metrics"][entry["name"]]["value"]
                                         for r in runs])}
            for entry in spec["end_to_end"]
        }
        traced = run(workload, TRACE_SEED, seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failure_share": summarize([r["failed"] / r["attempted"]
                                        for r in runs]),
            "failed_names": sorted({name for r in runs
                                    for name in r["failed_names"]}),
            "wall_s": [r["wall_s"] for r in runs],
            "traced": {"seed": TRACE_SEED, "correct": traced["correct"],
                       "wall_s": traced["wall_s"],
                       "per_layer": {name: entry["value"] for name, entry
                                     in traced["metrics"].items()}},
        }
        print(json.dumps({workload: {name: round(m["spread"], 4)
                                     for name, m in metrics.items()}}),
              flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
