"""The benchmark harness behind ``python -m repro.eval bench``.

Measures end-to-end corpus lifting throughput (instructions per second of
*lift* time, corpus construction excluded), reports the hot-path counters
and memo-cache statistics, and writes the results next to the checked-in
pre-optimization baseline so speedups are tracked in-repo.

The ``check_determinism`` mode runs the same corpus serially and with a
worker pool and asserts the two reports agree in canonical (timing-free)
form — the guarantee the parallel runner is built around.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.obs.history import gc_stats, peak_rss_kb
from repro.obs.tracer import DEFAULT_SAMPLING
from repro.perf import cache_stats, reset_caches
from repro.perf.counters import counters, hit_rate

#: The repo's checked-in measurement directory.
BENCHMARKS_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

#: Named comparison points, one generic registry instead of a hardcoded
#: loader per PR: ``pr2`` = pre-optimization (the totals-metric seed),
#: ``pr5`` = pre-incremental-lifting, ``pr6`` = pre-pointer-summaries.
#: New comparison points are one dict entry; rolling comparisons live in
#: the run history (:mod:`repro.obs.history`), not here.
BASELINES: dict[str, Path] = {
    "pr2": BENCHMARKS_DIR / "baseline_pr2.json",
    "pr5": BENCHMARKS_DIR / "baseline_pr5.json",
    "pr6": BENCHMARKS_DIR / "baseline_pr6.json",
}


def _instruction_totals(report) -> int:
    totals_fn = report.totals("function")
    totals_bin = report.totals("binary")
    return totals_fn.instructions + totals_bin.instructions


def run_bench(scale: int = 3, jobs: int = 1, timeout_seconds: float = 10.0,
              max_states: int = 10_000,
              check_determinism: bool = False) -> dict:
    """Lift the scale-*scale* corpus once and return the measurement dict.

    Caches and counters are reset first so the reported hit rates describe
    this run alone.  ``jobs=1`` is the default: a single process keeps the
    process-global counters meaningful (worker deltas are merged into the
    report either way, but cold per-worker caches dilute the rates).
    """
    from repro.corpus import build_corpus
    from repro.eval.runner import run_corpus

    reset_caches()

    build_start = time.perf_counter()
    corpus = build_corpus(scale)
    build_seconds = time.perf_counter() - build_start

    lift_start = time.perf_counter()
    # cache=False: the throughput bench measures the lifter, not the
    # persistent store — an ambient REPRO_CACHE must not skew it.
    report = run_corpus(corpus=corpus, timeout_seconds=timeout_seconds,
                        max_states=max_states, jobs=jobs, cache=False)
    lift_seconds = time.perf_counter() - lift_start

    instructions = _instruction_totals(report)
    stats = cache_stats()
    result = {
        "scale": scale,
        "jobs": jobs,
        "timeout_seconds": timeout_seconds,
        "max_states": max_states,
        "functions": sum(1 for _ in report.records),
        "build_seconds": round(build_seconds, 3),
        "lift_seconds": round(lift_seconds, 3),
        "instructions": instructions,
        "instrs_per_second": round(instructions / lift_seconds, 1)
        if lift_seconds else 0.0,
        "counters": dict(report.counters),
        "hit_rates": {
            "interning": round(hit_rate(report.counters.get("intern_hits", 0),
                                        report.counters.get("expr_new", 0)), 4),
            "solver": round(hit_rate(report.counters.get("solver_hits", 0),
                                     report.counters.get("solver_misses", 0)),
                            4),
        },
        "caches": stats,
        "python": platform.python_version(),
        "peak_rss_kb": peak_rss_kb(),
        "gc": gc_stats(),
    }

    if check_determinism:
        result["determinism"] = _check_determinism(corpus, timeout_seconds,
                                                   max_states, jobs, report)
    return result


def _check_determinism(corpus, timeout_seconds: float, max_states: int,
                       jobs: int, first_report) -> dict:
    """Re-lift in the *other* execution mode; compare canonical forms.

    If the measured run was serial, the check run uses a 2-worker pool
    (and vice versa), so the comparison is always serial vs parallel."""
    from repro.eval.runner import run_corpus

    check_jobs = 1 if jobs > 1 else 2
    reset_caches()
    check_report = run_corpus(corpus=corpus,
                              timeout_seconds=timeout_seconds,
                              max_states=max_states, jobs=check_jobs,
                              cache=False)
    first = first_report.canonical_json()
    check = check_report.canonical_json()
    return {"ok": first == check, "check_jobs": check_jobs,
            "first_bytes": len(first), "check_bytes": len(check)}


def trace_overhead(scale: int = 1, timeout_seconds: float = 10.0,
                   max_states: int = 10_000, rounds: int = 2,
                   sampling: int = DEFAULT_SAMPLING) -> dict:
    """Measure the enabled-tracing overhead: corpus lifts with obs off and
    on, interleaved over *rounds* so drift hits both sides.

    ``overhead_ratio`` — the quantity the <=5% acceptance bound is on —
    is the best *paired* round: each round lifts off then on back-to-back
    under near-identical machine conditions, so the per-round on/off
    ratio cancels drift that spans rounds, and the minimum over rounds is
    the least-noise estimate of the intrinsic multiplicative cost (noise
    can only inflate a ratio, exactly as it can only inflate a best-of
    absolute time).  ``round_ratios`` records every round for posterity;
    ``off_seconds``/``on_seconds`` stay the per-side minima."""
    from repro.corpus import build_corpus
    from repro.eval.runner import run_corpus

    corpus = build_corpus(scale)
    times: dict[bool, list[float]] = {False: [], True: []}
    instructions = 0
    for _ in range(rounds):
        for enabled in (False, True):
            reset_caches()
            start = time.perf_counter()
            report = run_corpus(corpus=corpus,
                                timeout_seconds=timeout_seconds,
                                max_states=max_states, jobs=1,
                                obs=enabled, obs_sampling=sampling,
                                cache=False)
            times[enabled].append(time.perf_counter() - start)
            instructions = _instruction_totals(report)
    off, on = min(times[False]), min(times[True])
    round_ratios = [round(on_i / off_i, 4)
                    for off_i, on_i in zip(times[False], times[True]) if off_i]
    return {
        "scale": scale,
        "rounds": rounds,
        "sampling": sampling,
        "instructions": instructions,
        "off_seconds": round(off, 3),
        "on_seconds": round(on, 3),
        "off_instrs_per_second": round(instructions / off, 1) if off else 0.0,
        "on_instrs_per_second": round(instructions / on, 1) if on else 0.0,
        "round_ratios": round_ratios,
        "overhead_ratio": min(round_ratios) if round_ratios else 0.0,
    }


def run_cache_bench(scale: int = 3, timeout_seconds: float = 10.0,
                    max_states: int = 10_000,
                    cache_dir: str | None = None) -> dict:
    """Cold-vs-warm lift of the same corpus through the persistent store.

    The cold pass lifts into an (empty) store; the warm pass re-runs the
    identical corpus and should be served almost entirely from disk.  Both
    passes go through ``run_corpus(cache=True)``, so the comparison also
    exercises the canonical-report identity the store guarantees.  A
    third, 2-worker warm pass checks the identity holds across a process
    pool.  Uses a private temp directory unless *cache_dir* is given.
    """
    import tempfile

    from repro.corpus import build_corpus
    from repro.eval.runner import run_corpus

    corpus = build_corpus(scale)

    def phase(jobs: int, directory: str) -> tuple[dict, str]:
        reset_caches()
        counters.reset()
        start = time.perf_counter()
        report = run_corpus(corpus=corpus, timeout_seconds=timeout_seconds,
                            max_states=max_states, jobs=jobs,
                            cache=True, cache_dir=directory)
        seconds = time.perf_counter() - start
        instructions = _instruction_totals(report)
        measurement = {
            "jobs": jobs,
            "lift_seconds": round(seconds, 3),
            "instructions": instructions,
            "instrs_per_second": round(instructions / seconds, 1)
            if seconds else 0.0,
            "cache_hits": report.counters.get("cache_lift_hits", 0),
            "cache_misses": report.counters.get("cache_lift_misses", 0),
            "cache_stores": report.counters.get("cache_lift_stores", 0),
        }
        return measurement, report.canonical_json()

    with tempfile.TemporaryDirectory() as tmp:
        directory = cache_dir or tmp
        cold, cold_canonical = phase(1, directory)
        warm, warm_canonical = phase(1, directory)
        warm2, warm2_canonical = phase(2, directory)

    cold_rate = cold["instrs_per_second"]
    warm_rate = warm["instrs_per_second"]
    return {
        "scale": scale,
        "cold": cold,
        "warm": warm,
        "warm_jobs2": warm2,
        "warm_speedup": round(warm_rate / cold_rate, 2) if cold_rate else 0.0,
        "reports_identical": cold_canonical == warm_canonical,
        "reports_identical_jobs2": cold_canonical == warm2_canonical,
    }


def run_schedule_bench(scale: int = 1, timeout_seconds: float = 10.0,
                       max_states: int = 10_000) -> dict:
    """Address-order vs SCC-order A/B over one corpus.

    Both orders must reach the same *verdict* on every corpus entry —
    ``verdicts_identical`` compares per-record outcomes — while the
    loop-aware order should need fewer productive joins (``lift_joins``)
    to get there.  Annotation counts are deliberately excluded: on
    rejected or widened lifts they describe the order-dependent partial
    remainder, not the verdict (docs/INTERNALS.md §6).
    """
    from repro.corpus import build_corpus
    from repro.eval.runner import run_corpus

    corpus = build_corpus(scale)
    sides = {}
    verdicts = {}
    for mode in ("address", "scc"):
        reset_caches()
        counters.reset()
        start = time.perf_counter()
        report = run_corpus(corpus=corpus, timeout_seconds=timeout_seconds,
                            max_states=max_states, jobs=1,
                            cache=False, schedule=mode)
        seconds = time.perf_counter() - start
        instructions = _instruction_totals(report)
        sides[mode] = {
            "lift_seconds": round(seconds, 3),
            "instructions": instructions,
            "instrs_per_second": round(instructions / seconds, 1)
            if seconds else 0.0,
            "lift_joins": report.counters.get("lift_joins", 0),
        }
        verdicts[mode] = {
            (record.kind, record.directory, record.name): record.outcome
            for record in report.records
        }

    address_joins = sides["address"]["lift_joins"]
    scc_joins = sides["scc"]["lift_joins"]
    return {
        "scale": scale,
        "address": sides["address"],
        "scc": sides["scc"],
        "join_reduction": round(1 - scc_joins / address_joins, 4)
        if address_joins else 0.0,
        "verdicts_identical": verdicts["address"] == verdicts["scc"],
    }


def run_summaries_bench(scale: int = 3, timeout_seconds: float = 10.0,
                        max_states: int = 10_000) -> dict:
    """Pointer call-site summaries off vs on: the feedback A/B.

    The "off" side is one cold context-free corpus lift.  The "on" side is
    the two-phase ``pointer_summaries=True`` lift of the same corpus; its
    per-phase accounting comes from :func:`phase2_counters`, because the
    two-phase total would double-count the context-free phase the refined
    lift is derived from (the phase-2 numbers are therefore the *marginal*
    cost/benefit of re-lifting with summaries — the honest comparison
    against the off side, which is exactly such a lift without them).
    Caches are reset between sides so neither inherits the other's SMT
    verdicts or interning tables.

    The corpus A/B proves the refinement is *safe* at scale; the crafted
    :mod:`repro.corpus.feedback` workloads (lifted off/on alongside it)
    concentrate the global-state-across-calls pattern the refinement
    *targets*, which minicc codegen rarely emits — the headline join/query
    reductions are computed over the combined totals.

    Hard guarantees checked here (and asserted by the CI smoke job):

    * every corpus and workload verdict is identical on both sides;
    * no record gains unsoundness annotations under the refinement.
    """
    from repro.corpus import build_corpus
    from repro.corpus.feedback import build_feedback_workloads
    from repro.eval.runner import run_corpus
    from repro.hoare import lift
    from repro.analysis.pointer.feedback import (
        phase2_counters,
        reset_phase_counters,
    )

    corpus = build_corpus(scale)

    def smt_queries(cnt: dict) -> int:
        return cnt.get("solver_hits", 0) + cnt.get("solver_misses", 0)

    def side(pointer_summaries: bool) -> tuple[dict, dict, dict]:
        reset_caches()
        reset_phase_counters()
        start = time.perf_counter()
        report = run_corpus(corpus=corpus, timeout_seconds=timeout_seconds,
                            max_states=max_states, jobs=1, cache=False,
                            pointer_summaries=pointer_summaries)
        seconds = time.perf_counter() - start
        instructions = _instruction_totals(report)
        cnt = phase2_counters() if pointer_summaries else dict(report.counters)
        measurement = {
            "lift_seconds": round(seconds, 3),
            "instructions": instructions,
            "instrs_per_second": round(instructions / seconds, 1)
            if seconds else 0.0,
            "lift_joins": cnt.get("lift_joins", 0),
            "smt_queries": smt_queries(cnt),
            "pointer_summary_hits": cnt.get("pointer_summary_hits", 0),
            "pointer_refined_havocs": cnt.get("pointer_refined_havocs", 0),
            "pointer_top_summaries": cnt.get("pointer_top_summaries", 0),
        }
        verdicts = {
            (record.kind, record.directory, record.name): record.outcome
            for record in report.records
        }
        annotations = {
            (record.kind, record.directory, record.name):
                sum(record.annotations.values())
            for record in report.records
        }
        return measurement, verdicts, annotations

    off, off_verdicts, off_annotations = side(False)
    on, on_verdicts, on_annotations = side(True)

    workloads: dict[str, dict] = {}
    workloads_ok = True
    for name, binary in build_feedback_workloads():
        rows = {}
        for enabled in (False, True):
            reset_caches()
            reset_phase_counters()
            before = counters.snapshot()
            result = lift(binary, timeout_seconds=timeout_seconds,
                          max_states=max_states, cache=False,
                          pointer_summaries=enabled)
            cnt = (phase2_counters() if enabled
                   else counters.delta(before, counters.snapshot()))
            rows["on" if enabled else "off"] = {
                "verified": result.verified,
                "lift_joins": cnt.get("lift_joins", 0),
                "smt_queries": smt_queries(cnt),
                "pointer_refined_havocs": cnt.get("pointer_refined_havocs", 0),
            }
        workloads[name] = rows
        workloads_ok &= rows["off"]["verified"] == rows["on"]["verified"]

    def combined(side_name: str, metric: str, base: dict) -> int:
        return base[metric] + sum(rows[side_name][metric]
                                  for rows in workloads.values())

    off_joins = combined("off", "lift_joins", off)
    on_joins = combined("on", "lift_joins", on)
    off_smt = combined("off", "smt_queries", off)
    on_smt = combined("on", "smt_queries", on)
    return {
        "scale": scale,
        "off": off,
        "on": on,
        "workloads": workloads,
        "combined": {
            "off_lift_joins": off_joins, "on_lift_joins": on_joins,
            "off_smt_queries": off_smt, "on_smt_queries": on_smt,
        },
        "join_reduction": round(1 - on_joins / off_joins, 4)
        if off_joins else 0.0,
        "smt_query_reduction": round(1 - on_smt / off_smt, 4)
        if off_smt else 0.0,
        "verdicts_identical": off_verdicts == on_verdicts and workloads_ok,
        "annotations_bounded": all(
            on_annotations.get(key, 0) <= count
            for key, count in off_annotations.items()
        ) and set(on_annotations) == set(off_annotations),
    }


def run_serve_bench(scale: int = 1, workers: int = 2,
                    timeout_seconds: float = 10.0,
                    max_states: int = 10_000) -> dict:
    """Direct ``run_corpus`` vs the same corpus through the serve daemon.

    Starts an in-process :class:`repro.serve.server.Server` (real socket,
    real worker pool), submits one corpus job, and compares its canonical
    report byte-for-byte against a direct serial :func:`run_corpus` of the
    same corpus — the server path must be a pure transport around the same
    merge (:func:`repro.eval.runner.assemble_report`), so
    ``reports_identical`` is a hard gate, not a statistic.  Both sides run
    ``cache=False`` so neither is confounded by store state.

    Also probes the dedup fast path: a duplicate lift submission must be
    answered from the store (``source == "store"``) with zero re-lifts.
    """
    import os
    import tempfile

    from repro.corpus import build_corpus
    from repro.elf import save_binary
    from repro.eval.runner import run_corpus
    from repro.serve import ServeClient, Server, ServerConfig

    corpus = build_corpus(scale)
    reset_caches()
    direct_start = time.perf_counter()
    direct_report = run_corpus(corpus=corpus,
                               timeout_seconds=timeout_seconds,
                               max_states=max_states, jobs=1, cache=False)
    direct_seconds = time.perf_counter() - direct_start
    direct_canonical = direct_report.canonical_json()
    instructions = _instruction_totals(direct_report)

    with tempfile.TemporaryDirectory() as tmp:
        socket_path = os.path.join(tmp, "serve.sock")
        elf_path = os.path.join(tmp, "dedup-probe.elf")
        save_binary(corpus.binaries[0].binary, elf_path)
        server = Server(ServerConfig(
            socket_path=socket_path, workers=workers, cache=True,
            cache_dir=os.path.join(tmp, "store"),
            default_timeout_seconds=timeout_seconds,
            default_max_states=max_states))
        server.start()
        try:
            with ServeClient(socket_path, timeout=600.0) as client:
                serve_start = time.perf_counter()
                submitted = client.submit_corpus(
                    scale=scale, cache=False,
                    options={"timeout_seconds": timeout_seconds,
                             "max_states": max_states})
                status = client.wait(submitted["job_id"], timeout=600.0)
                serve_seconds = time.perf_counter() - serve_start
                result = client.result(submitted["job_id"])["result"]
                first = client.submit_lift(
                    elf_path,
                    options={"timeout_seconds": timeout_seconds,
                             "max_states": max_states})
                client.wait(first["job_id"], timeout=600.0)
                duplicate = client.submit_lift(
                    elf_path,
                    options={"timeout_seconds": timeout_seconds,
                             "max_states": max_states})
                stats = client.stats()
        finally:
            server.close()

    serve_canonical = result["canonical_json"]
    return {
        "scale": scale,
        "workers": workers,
        "timeout_seconds": timeout_seconds,
        "max_states": max_states,
        "instructions": instructions,
        "functions": len(direct_report.records),
        "direct_seconds": round(direct_seconds, 3),
        "serve_seconds": round(serve_seconds, 3),
        "direct_instrs_per_second": round(instructions / direct_seconds, 1)
        if direct_seconds else 0.0,
        "serve_instrs_per_second": round(instructions / serve_seconds, 1)
        if serve_seconds else 0.0,
        "reports_identical": serve_canonical == direct_canonical,
        "serve_state": status["state"],
        "dedup_source": duplicate.get("source"),
        "dedup_store_answers": stats["dedup"]["store_answers"],
        "worker_respawns": stats["workers"].get("respawns", 0),
    }


def run_profile_bench(scale: int = 1, timeout_seconds: float = 10.0,
                      max_states: int = 10_000, jobs: int = 1) -> dict:
    """Corpus lift with obs on, folded into the phase cost profile.

    ``coverage`` is the fraction of summed lift wall time attributed to
    named phases (self-time, no double counting) — the quantity the >=95%
    acceptance gate is stated over.  The rollup's canonical form (phase
    counts minus ``smt``, exact event totals) is serial/parallel-identical;
    ``coverage`` itself is wall-clock and is reported, not canonicalized.
    """
    from repro.corpus import build_corpus
    from repro.eval.runner import run_corpus
    from repro.obs.profile import profile_rollup

    reset_caches()
    corpus = build_corpus(scale)
    report = run_corpus(corpus=corpus, timeout_seconds=timeout_seconds,
                        max_states=max_states, jobs=jobs, obs=True,
                        cache=False)
    lift_wall = sum(record.seconds for record in report.records)
    rollup = profile_rollup(report.obs, wall_seconds=lift_wall)
    rollup["scale"] = scale
    rollup["jobs"] = jobs
    rollup["phases"] = {
        name: {"self_seconds": round(slot["self_seconds"], 6),
               "wall_seconds": round(slot["wall_seconds"], 6),
               "count": slot["count"]}
        for name, slot in sorted(rollup["phases"].items())
    }
    return rollup


def record_history(current: dict, history_dir: "str | Path",
                   kind: str = "bench") -> dict:
    """Append one ``run_bench`` measurement to the persistent run history
    (:mod:`repro.obs.history`); returns the canonical record."""
    from repro.obs.history import HistoryStore
    from repro.perf.store import semantics_fingerprint

    cnt = current.get("counters", {})
    smt_queries = cnt.get("solver_hits", 0) + cnt.get("solver_misses", 0)
    options = {"timeout_seconds": current.get("timeout_seconds", 10.0),
               "max_states": current.get("max_states", 10_000)}
    store = HistoryStore(history_dir)
    return store.append(
        kind=kind,
        scale=current.get("scale", 0),
        jobs=current.get("jobs", 1),
        options=options,
        fingerprint=semantics_fingerprint(),
        metrics={
            "instructions": current.get("instructions", 0),
            "functions": current.get("functions", 0),
            "smt_queries": smt_queries,
            "lift_joins": cnt.get("lift_joins", 0),
        },
        timing={
            "lift_seconds": current.get("lift_seconds", 0.0),
            "build_seconds": current.get("build_seconds", 0.0),
            "instrs_per_second": current.get("instrs_per_second", 0.0),
        },
    )


def load_baseline(name: str, scale: int) -> dict | None:
    """The named checked-in baseline's scale-*scale* measurement, or None
    (unknown name, missing file, or scale not recorded)."""
    path = BASELINES.get(name)
    if path is None or not path.exists():
        return None
    data = json.loads(path.read_text())
    return data.get(f"scale_{scale}")


def bench_report(scale: int = 3, jobs: int = 1,
                 timeout_seconds: float = 10.0, max_states: int = 10_000,
                 check_determinism: bool = False,
                 check_trace_overhead: bool = False,
                 check_cache: bool = False,
                 check_schedule: bool = False,
                 check_summaries: bool = False,
                 check_profile: bool = False,
                 check_serve: bool = False,
                 serve_workers: int = 2,
                 history_dir: str | Path | None = None,
                 out_path: str | Path | None = None) -> tuple[dict, str]:
    """Run the bench, compare against the checked-in baseline, and render.

    Returns ``(payload, text)``; *payload* is also written to *out_path*
    (JSON) when given.  ``check_trace_overhead`` additionally measures the
    obs-enabled lift-time ratio on the scale-1 corpus.  ``check_cache``
    adds the cold/warm persistent-store split (``run_cache_bench``) at the
    same scale; ``check_schedule`` adds the address-vs-SCC A/B
    (``run_schedule_bench``, scale 1); ``check_summaries`` adds the
    pointer-summaries feedback A/B (``run_summaries_bench``, same scale);
    ``check_profile`` adds the phase cost profile (``run_profile_bench``,
    same scale) with its wall-attribution coverage.

    *history_dir* appends the run to the persistent history there
    (default None: benches never write history implicitly — the CLI opts
    in with the repo's ``benchmarks/history``).
    """
    current = run_bench(scale=scale, jobs=jobs,
                        timeout_seconds=timeout_seconds,
                        max_states=max_states,
                        check_determinism=check_determinism)
    baseline = load_baseline("pr2", scale)
    payload = {"baseline": baseline, "current": current}
    if baseline and baseline.get("instrs_per_second"):
        payload["speedup"] = round(
            current["instrs_per_second"] / baseline["instrs_per_second"], 2
        )
    pr5_baseline = load_baseline("pr5", scale)
    if pr5_baseline and pr5_baseline.get("instrs_per_second"):
        payload["pr5_baseline"] = pr5_baseline
        payload["pr5_speedup"] = round(
            current["instrs_per_second"] / pr5_baseline["instrs_per_second"], 2
        )
    if check_trace_overhead:
        payload["trace_overhead"] = trace_overhead(
            scale=1, timeout_seconds=timeout_seconds, max_states=max_states)
    if check_cache:
        payload["cache"] = run_cache_bench(
            scale=scale, timeout_seconds=timeout_seconds,
            max_states=max_states)
    if check_schedule:
        payload["schedule"] = run_schedule_bench(
            scale=1, timeout_seconds=timeout_seconds, max_states=max_states)
    if check_summaries:
        payload["summaries"] = run_summaries_bench(
            scale=scale, timeout_seconds=timeout_seconds,
            max_states=max_states)
        pr6_baseline = load_baseline("pr6", scale)
        if pr6_baseline:
            payload["pr6_baseline"] = pr6_baseline
    if check_profile:
        payload["profile"] = run_profile_bench(
            scale=scale, timeout_seconds=timeout_seconds,
            max_states=max_states)
    if check_serve:
        payload["serve"] = run_serve_bench(
            scale=scale, workers=serve_workers,
            timeout_seconds=timeout_seconds, max_states=max_states)
    if history_dir is not None:
        payload["history_record"] = record_history(current, history_dir)
        serve = payload.get("serve")
        if serve is not None:
            # A distinct run key (kind="serve") so the history gate tracks
            # server-path throughput separately from the direct bench.
            payload["serve_history_record"] = record_history(
                {"scale": serve["scale"], "jobs": serve["workers"],
                 "timeout_seconds": serve["timeout_seconds"],
                 "max_states": serve["max_states"],
                 "instructions": serve["instructions"],
                 "functions": serve["functions"],
                 "lift_seconds": serve["serve_seconds"],
                 "build_seconds": 0.0,
                 "instrs_per_second": serve["serve_instrs_per_second"],
                 "counters": {}},
                history_dir, kind="serve")

    lines = [
        f"Bench: scale-{scale} corpus, jobs={jobs}",
        f"  build    {current['build_seconds']:>9.3f} s",
        f"  lift     {current['lift_seconds']:>9.3f} s",
        f"  instrs   {current['instructions']:>9}",
        f"  instrs/s {current['instrs_per_second']:>9.1f}",
        f"  interning hit rate {current['hit_rates']['interning']:.1%}  "
        f"solver hit rate {current['hit_rates']['solver']:.1%}",
    ]
    if baseline:
        lines.append(
            f"  baseline {baseline['instrs_per_second']:>9.1f} instrs/s"
            f"  -> speedup {payload.get('speedup', 0):.2f}x"
        )
    determinism = current.get("determinism")
    if determinism is not None:
        lines.append(
            "  serial == parallel (canonical): "
            + ("OK" if determinism["ok"] else "MISMATCH")
        )
    overhead = payload.get("trace_overhead")
    if overhead is not None:
        lines.append(
            f"  tracing overhead (scale-{overhead['scale']}, sampling "
            f"{overhead['sampling']}): off {overhead['off_seconds']:.3f} s, "
            f"on {overhead['on_seconds']:.3f} s -> "
            f"{overhead['overhead_ratio']:.3f}x (best paired round of "
            f"{overhead['rounds']})"
        )
    cache = payload.get("cache")
    if cache is not None:
        lines.append(
            f"  lift store: cold {cache['cold']['instrs_per_second']:.1f} "
            f"instrs/s, warm {cache['warm']['instrs_per_second']:.1f} "
            f"instrs/s -> {cache['warm_speedup']:.2f}x "
            f"(hits {cache['warm']['cache_hits']}, "
            f"misses {cache['warm']['cache_misses']}); "
            "cold == warm (canonical): "
            + ("OK" if cache["reports_identical"] else "MISMATCH")
            + ", jobs=2: "
            + ("OK" if cache["reports_identical_jobs2"] else "MISMATCH")
        )
    schedule = payload.get("schedule")
    if schedule is not None:
        lines.append(
            f"  schedule A/B (scale-{schedule['scale']}): address "
            f"{schedule['address']['lift_joins']} joins, scc "
            f"{schedule['scc']['lift_joins']} joins -> "
            f"{schedule['join_reduction']:.1%} fewer; verdicts "
            + ("identical" if schedule["verdicts_identical"] else "DIFFER")
        )
    summaries = payload.get("summaries")
    if summaries is not None:
        combined = summaries["combined"]
        lines.append(
            f"  summaries A/B (scale-{summaries['scale']} corpus + "
            f"{len(summaries['workloads'])} workloads): "
            f"off {combined['off_lift_joins']} joins / "
            f"{combined['off_smt_queries']} SMT queries, "
            f"on {combined['on_lift_joins']} joins / "
            f"{combined['on_smt_queries']} SMT queries -> "
            f"{summaries['join_reduction']:.1%} fewer joins, "
            f"{summaries['smt_query_reduction']:.1%} fewer queries "
            f"({summaries['on']['pointer_refined_havocs']} corpus refined "
            "havocs); verdicts "
            + ("identical" if summaries["verdicts_identical"] else "DIFFER")
            + ", annotations "
            + ("bounded" if summaries["annotations_bounded"] else "GREW")
        )
    profile = payload.get("profile")
    if profile is not None:
        top = sorted(profile["phases"].items(),
                     key=lambda item: -item[1]["self_seconds"])[:3]
        hottest = ", ".join(f"{name} {slot['self_seconds']:.2f}s"
                            for name, slot in top)
        lines.append(
            f"  profile (scale-{profile['scale']}): "
            f"{profile.get('coverage', 0):.1%} of "
            f"{profile.get('wall_seconds', 0):.3f} s lift wall attributed; "
            f"hottest: {hottest}"
        )
    serve = payload.get("serve")
    if serve is not None:
        lines.append(
            f"  serve A/B (scale-{serve['scale']}, "
            f"{serve['workers']} workers): direct "
            f"{serve['direct_instrs_per_second']:.1f} instrs/s, served "
            f"{serve['serve_instrs_per_second']:.1f} instrs/s; "
            "direct == served (canonical): "
            + ("OK" if serve["reports_identical"] else "MISMATCH")
            + f"; dedup source {serve['dedup_source']}"
        )
    record = payload.get("history_record")
    if record is not None:
        lines.append(f"  history: recorded {record['id']} ({record['key']})")
    serve_record = payload.get("serve_history_record")
    if serve_record is not None:
        lines.append(f"  history: recorded {serve_record['id']} "
                     f"({serve_record['key']})")
    text = "\n".join(lines)

    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                                  + "\n")
    return payload, text
