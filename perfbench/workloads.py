"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` (before any
timing), runs the timed part in ``measure`` and records one :class:`Op` per
operation a user would wait for: a lifted task, a validated graph, a served
job.  Correctness is decided per operation against a reference that does
not come from the lifter, and is never filtered: an operation either
matches its reference or counts as failed.

Why these three, how their inputs are drawn and which layers each one
loads: see README.md beside this file.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: The Table 1 budgets every lift in the benchmark runs under.
TABLE1_BUDGETS = {"max_states": 10_000, "timeout_seconds": 10}

#: A percentile needs ten samples beyond it, so p90 needs 100 samples.
MIN_SAMPLES = 100

#: Failures present at the commit that defined the benchmark (see
#: README.md, "First baseline"): the failure class each stratum may show.
#: Such failures still count in ``failed``; they only keep ``correct``
#: true.  Any other failure, in any stratum, makes the run incorrect.
KNOWN_DEFECTS = {
    # sbin_big is labelled "timeout" but lifts verified well inside 10 s.
    "lift-cold": {"binary:big": "verdict lifted"},
    # FAILED triples on stack stores, mostly in library functions.
    "step2-replay": {stratum: "FAILED triples" for stratum in (
        "function:localbuf", "function:walk", "function:fsm",
        "function:fillbuf", "binary:big")},
    "serve-relift": {},
}


@dataclass
class Op:
    """One timed operation and its correctness verdict."""

    name: str
    stratum: str
    #: None when the operation never reached the timed part: a drawn
    #: step2 task that did not verify has no graph to replay.
    seconds: float | None
    #: Work done: instructions lifted (lift-cold, serve) or triples (step2).
    work: int
    #: The operation produced a proof: a verified lift, or (step2) the
    #: number of proven triples.
    proven: int
    #: Why the operation is wrong, as a class ("verdict lifted", "FAILED
    #: triples", ...); empty when it is correct.
    failure: str = ""
    detail: str = ""
    extra: dict = field(default_factory=dict)


def _binary_kind(name: str) -> str:
    match = re.match(r"^(?:bin|xen|sbin|libexec)_([a-z]+)", name)
    return match.group(1) if match else name


def corpus_tasks(corpus) -> list[tuple[str, str, str, object, str | None]]:
    """(name, stratum, expected label, binary, function or None) for every
    task of *corpus*; the stratum is the task's template kind."""
    from repro.corpus import function_binary

    tasks = [(item.name, f"binary:{_binary_kind(item.name)}", item.expected,
              item.binary, None) for item in corpus.binaries]
    for library in corpus.libraries:
        for function in library.functions:
            tasks.append((f"{library.name}:{function}",
                          f"function:{function.split('_')[0]}",
                          library.expected.get(function, "lifted"),
                          function_binary(library, function), function))
    return tasks


def by_stratum(tasks) -> dict[str, list]:
    strata: dict[str, list] = {}
    for task in sorted(tasks, key=lambda task: task[0]):
        strata.setdefault(task[1], []).append(task)
    return strata


def variant(task) -> str:
    """The build variant of a task inside its stratum: the library family
    of a function (``lowlevel`` is compiled with -O1, and the family's tag
    length sets ``unrolled``'s size) or the directory of a binary."""
    name = task[0]
    if ":" in name:
        return re.sub(r"(_\d+)?\.so$", "", name.split(":")[0])
    return name.split("_")[0]


def stratified_rounds(strata: dict[str, list], rng: random.Random,
                      count: int) -> list[list]:
    """*count* rounds, each holding one task of every stratum in stratum
    name order.  Round r takes the stratum's variant r (in name order,
    cycling), and within it the next member of a seeded permutation, so
    consecutive rounds cover every build variant and repeat a task only
    after all its variant's members were drawn.  The order is fixed, not
    seeded: the first lifts of a run pay for cold memo caches, and a
    seeded order would hand that cost to different tasks in every run."""
    groups: dict[str, list[list]] = {}
    for name in sorted(strata):
        by_variant: dict[str, list] = {}
        for task in strata[name]:
            by_variant.setdefault(variant(task), []).append(task)
        groups[name] = []
        for key in sorted(by_variant):
            members = by_variant[key]
            rng.shuffle(members)
            groups[name].append(members)
    rounds = []
    for index in range(count):
        picked = []
        for name in sorted(groups):
            variants = groups[name]
            members = variants[index % len(variants)]
            picked.append(members[(index // len(variants)) % len(members)])
        rounds.append(picked)
    return rounds


def lift_task(task):
    from repro.hoare import lift, lift_function

    _, _, _, binary, function = task
    if function is None:
        return lift(binary, cache=False, **TABLE1_BUDGETS)
    return lift_function(binary, function, cache=False, **TABLE1_BUDGETS)


def lift_record(name: str, result):
    """The corpus runner's record of one lift; its ``outcome`` speaks the
    vocabulary of the hand-written ``expected`` labels."""
    from repro.eval.runner import record_from_result

    return record_from_result(name, "perfbench", "binary", result)


class Workload:
    """Common state: the seed, the size and the run this pass belongs to.

    Every workload does a fixed amount of work, so two commits are
    measured on the same operations however fast they are.  *units* sets
    that amount (rounds, draws or jobs) for the traced comparison; None
    takes the workload's default, which gives every percentile
    :data:`MIN_SAMPLES` operations."""

    setup_repeats = 1

    def __init__(self, seed: int, size: str, run_dir: str, seconds: float,
                 units: int | None) -> None:
        self.seed = seed
        self.size = size
        self.run_dir = run_dir
        self.seconds = seconds
        self.units = units

    def teardown(self, state) -> None:
        pass

    def check(self, ops: list[Op]) -> None:
        """Correctness checks that need more than the timed loop saw."""


# -- lift-cold ---------------------------------------------------------------


class LiftCold(Workload):
    """First-pass serial lift of a stratified draw of corpus tasks."""

    name = "lift-cold"
    #: Set-up is under a second, so one VM hiccup would dominate a single
    #: timing; setup_s is the median of this many builds and draws.
    setup_repeats = 5
    #: Rounds a traced run lifts (fixed work, so traced and untraced
    #: passes can be compared).
    trace_units = 2
    #: Strata a tiny run keeps: cheap, and every outcome class.
    TINY = ("binary:big", "binary:overflow", "binary:threads",
            "function:arith", "function:clamp", "function:smash")

    def setup(self):
        from repro.corpus import build_corpus

        strata = by_stratum(corpus_tasks(build_corpus(2)))
        if self.size == "tiny":
            strata = {name: strata[name] for name in self.TINY}
        rng = random.Random(f"lift-cold:{self.seed}")
        if self.size == "tiny":
            count = 1
        else:
            # MIN_SAMPLES tasks: four rounds of the 25 strata.
            count = self.units or -(-MIN_SAMPLES // len(strata))
        return stratified_rounds(strata, rng, count)

    def measure(self, rounds, recorder) -> list[Op]:
        ops: list[Op] = []
        for tasks in rounds:
            for task in tasks:
                if recorder is not None:
                    recorder.task = len(ops)
                name, stratum, expected, _, _ = task
                t0 = time.perf_counter()
                result = lift_task(task)
                elapsed = time.perf_counter() - t0
                record = lift_record(name, result)
                wrong = record.outcome != expected
                ops.append(Op(
                    name=name, stratum=stratum, seconds=elapsed,
                    work=record.instructions, proven=int(result.verified),
                    failure=f"verdict {record.outcome}" if wrong else "",
                    detail=f"labelled {expected}" if wrong else "",
                    extra={"states": record.states}))
        return ops


# -- step2-replay ------------------------------------------------------------


class Step2Replay(Workload):
    """Step-2 validation (export + triple replay) of pre-lifted graphs."""

    name = "step2-replay"
    trace_units = 1
    #: The Table 2 coreutils analogues in the draw, each its own stratum:
    #: the middle two of Table 2's size order (tar > gzip > od > hexdump >
    #: du > wc).  Drawing one of all six would let the seed swap a 0.2 s
    #: graph for a 2 s one; lifting all six would triple set-up.
    COREUTILS = ("du", "hexdump")
    #: Strata whose every task is labelled unprovable or concurrency, so
    #: they have no graph to validate.  ``binary:big`` stays in the pool
    #: although labelled timeout: its lifts verify (a known lift-cold
    #: defect), and its graphs carry FAILED triples that must stay visible.
    UNVERIFIABLE = ("binary:overflow", "binary:probe", "binary:rsp",
                    "binary:threads", "function:smash")
    #: Strata whose graphs lift in under 0.1 s and replay in under 0.1 s
    #: at the commit that defined the benchmark.  Each gets LIGHT_EXTRA
    #: more graphs than the others, so one pass validates at least
    #: MIN_SAMPLES graphs while set-up stays short; every other stratum
    #: gets one graph.  (``arith`` and ``bits`` also lift fast, but their
    #: ~0.1 s replays would put a dense cluster right at p90.)
    LIGHT = ("function:clamp", "function:dispatch", "function:divmod",
             "function:fillbuf", "function:invoke", "function:recur",
             "function:register", "function:use")
    LIGHT_EXTRA = 10
    TINY = ("function:arith", "function:clamp", "function:fillbuf",
            "function:localbuf")
    #: A run makes round(--seconds / DRAW_SECONDS) draws, at least one, and
    #: validates each graph once: the work is fixed by --seconds, not by
    #: how fast the machine happens to be.  One draw validates in about
    #: 12 s on a 2-vCPU Xeon; two per 10 s average the machine's drifting
    #: speed over about 25 s.
    DRAW_SECONDS = 5

    def setup(self):
        from repro.corpus import build_corpus, build_coreutils

        tasks = [task for task in corpus_tasks(build_corpus(2))
                 if task[1] not in self.UNVERIFIABLE]
        coreutils = build_coreutils()
        tasks += [(f"coreutils:{name}", f"coreutils:{name}", "lifted",
                   coreutils[name], None) for name in self.COREUTILS]
        strata = by_stratum(tasks)
        if self.size == "tiny":
            strata = {name: strata[name] for name in self.TINY}
        rng = random.Random(f"step2-replay:{self.seed}")
        draws = self.units or max(1, round(self.seconds / self.DRAW_SECONDS))
        per_draw = 1 if self.size == "tiny" else 1 + self.LIGHT_EXTRA
        rounds = stratified_rounds(strata, rng, draws * per_draw)
        draw = []
        for first in range(0, len(rounds), per_draw):
            draw += rounds[first] + [
                task for tasks in rounds[first + 1:first + per_draw]
                for task in tasks if task[1] in self.LIGHT]
        return [(task[0], task[1], lift_task(task)) for task in draw]

    def measure(self, graphs, recorder) -> list[Op]:
        from repro.export import check_triples, export_theory

        ops: list[Op] = []
        for name, stratum, result in graphs:
            if not result.verified:
                outcome = lift_record(name, result).outcome
                ops.append(Op(name=name, stratum=stratum, seconds=None,
                              work=0, proven=0, failure="did not verify",
                              detail=f"outcome {outcome}"))
                continue
            if recorder is not None:
                recorder.task = len(ops)
            t0 = time.perf_counter()
            export_theory(result)
            report = check_triples(result)
            elapsed = time.perf_counter() - t0
            counts = report.status_counts()
            ops.append(Op(
                name=name, stratum=stratum, seconds=elapsed,
                work=len(report.checks), proven=counts["proven"],
                failure="FAILED triples" if counts["FAILED"] else "",
                detail=f"{counts['FAILED']} of {len(report.checks)}"
                if counts["FAILED"] else "",
                extra={"statuses": counts}))
        return ops


# -- serve-relift ------------------------------------------------------------


def serve_program(index: int, rng: random.Random) -> str:
    """A fresh small mini-C program with seeded template parameters."""
    from repro.corpus import templates as T

    cases = rng.randrange(3, 8)
    return "\n".join([
        T.make_arith("p", multiplier=rng.randrange(2, 9),
                     addend=rng.randrange(1, 50)),
        T.make_clamp("p", hi=rng.randrange(50, 500)),
        T.make_switch_dispatch("p", cases=cases, base=rng.randrange(1, 200)),
        T.make_divider("p", divisor=rng.randrange(3, 13)),
        T.make_bitops("p"),
        f"""
long main(long n) {{
    long r = arith_p(n, {index});
    r = r + clamp_p(n);
    r = r + dispatch_p(n & {cases - 1});
    r = r + divmod_p(r);
    r = r + bits_p(r);
    return r;
}}
""",
    ])


class ServeRelift(Workload):
    """A closed loop of lift jobs against ``repro serve --cache``."""

    name = "serve-relift"
    setup_repeats = 3
    trace_units = 200
    POLL_SECONDS = 0.002

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._setups = 0
        # Half the jobs are misses and half hits, MIN_SAMPLES of each.
        if self.size == "tiny":
            self.jobs = 8
        else:
            self.jobs = self.units or 2 * MIN_SAMPLES
        self.program_count = (self.jobs + 1) // 2

    def setup(self):
        from repro.elf import save_binary
        from repro.minicc import compile_source
        from repro.serve.client import ServeClient, ServeError

        self._setups += 1
        base = os.path.join(self.run_dir, f"serve{self._setups}")
        programs_dir = os.path.join(base, "programs")
        os.makedirs(programs_dir)
        rng = random.Random(f"serve-relift:{self.seed}")
        paths = []
        for index in range(self.program_count + 1):
            path = os.path.join(programs_dir, f"p{index:04d}.elf")
            save_binary(compile_source(serve_program(index, rng),
                                       name=f"p{index}"), path)
            paths.append(path)
        socket_path = os.path.relpath(os.path.join(base, "serve.sock"))
        log = open(os.path.join(base, "serve.log"), "wb")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--workers", "1",
             "--cache", "--cache-dir", os.path.join(base, "store")],
            stdout=log, stderr=subprocess.STDOUT)
        state = {"daemon": daemon, "log": log, "client": None,
                 "paths": paths[1:], "rng": rng}
        deadline = time.monotonic() + 60
        while state["client"] is None:
            if daemon.poll() is not None:
                self.teardown(state)
                raise RuntimeError(f"repro serve exited {daemon.returncode}")
            try:
                state["client"] = ServeClient(socket_path, timeout=120)
            except ServeError:
                if time.monotonic() > deadline:
                    self.teardown(state)
                    raise
                time.sleep(0.02)
        # Warm the worker pool with one job outside the measured stream.
        client = state["client"]
        warm = client.submit_lift(paths[0])
        if warm["state"] != "done":
            client.wait(warm["job_id"], timeout=120, poll=self.POLL_SECONDS)
        return state

    def measure(self, state, recorder) -> list[Op]:
        client, paths, rng = state["client"], state["paths"], state["rng"]
        pings = []
        for _ in range(20):
            t0 = time.perf_counter()
            client.ping()
            pings.append(time.perf_counter() - t0)
        state["pings"] = pings
        done_paths: list[str] = []
        misses = hits = 0
        ops: list[Op] = []
        while len(ops) < self.jobs:
            fresh = len(ops) % 2 == 0
            if fresh:
                path = paths[misses]
            else:
                path = rng.choice(done_paths)
            if recorder is not None:
                recorder.task = len(ops)
            t0 = time.perf_counter()
            submitted = client.submit_lift(path)
            if submitted["state"] != "done":
                client.wait(submitted["job_id"], timeout=120,
                            poll=self.POLL_SECONDS)
            answer = client.result(submitted["job_id"])
            elapsed = time.perf_counter() - t0
            job = answer["job"]
            record = (answer.get("result") or {}).get("record") or {}
            if fresh:
                misses += 1
                done_paths.append(path)
            else:
                hits += 1
            ops.append(Op(
                name=os.path.basename(path),
                stratum="serve:miss" if fresh else "serve:hit",
                seconds=elapsed, work=record.get("instructions", 0),
                failure="" if job["state"] == "done" else "job not done",
                proven=int(record.get("outcome") == "lifted"),
                detail="" if job["state"] == "done"
                else f"ended {job['state']}",
                extra={"path": path, "record": record, "job": job}))
        state["stats"] = client.stats()
        return ops

    def check(self, ops: list[Op]) -> None:
        """Compare every job's record with a direct lift of its bytes."""
        from repro.elf import load_binary
        from repro.hoare import lift
        from repro.serve.jobs import summarize_record

        reference: dict[str, dict] = {}
        for op in ops:
            path = op.extra["path"]
            if path not in reference:
                result = lift(load_binary(path), cache=False, **TABLE1_BUDGETS)
                reference[path] = summarize_record(
                    lift_record(os.path.basename(path), result))
                del reference[path]["seconds"]
            got = {key: op.extra["record"].get(key) for key in reference[path]}
            if not op.failure and got != reference[path]:
                op.failure = "record differs"
                op.detail = f"{got} against direct lift {reference[path]}"

    def teardown(self, state) -> None:
        """Drain the daemon and wait for it (and so its workers) to end."""
        client, daemon = state["client"], state["daemon"]
        try:
            if client is not None:
                try:
                    client.drain()
                except Exception:  # the daemon may already be gone
                    pass
                client.close()
            try:
                daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=30)
        finally:
            state["log"].close()


WORKLOADS = {cls.name: cls for cls in (LiftCold, Step2Replay, ServeRelift)}
