"""Corpus runner: lifts everything and aggregates the Table 1 statistics.

Ordering contract
-----------------
``CorpusReport.records`` is sorted by ``(kind, directory, name)`` and
``CorpusReport.rows`` by ``(kind, directory)``, regardless of corpus
iteration order or the number of worker processes.  Consumers (Table 1,
Figure 3, the serve daemon, golden files) may rely on this.

Parallelism
-----------
``run_corpus(jobs=N)`` fans the per-binary / per-library-function lift
tasks over a :class:`~concurrent.futures.ProcessPoolExecutor`.  Each task
is independent (the lifter shares no mutable state across functions
except soundness-preserving memo caches), so the merged report is the
same as the serial one apart from wall-clock ``seconds`` — and those are
excluded from :meth:`CorpusReport.canonical`, which is the comparison
form.  Both lifter budgets are
robust to parallelism: ``max_states`` counts states and
``timeout_seconds`` counts *CPU* seconds, so scheduler time-slicing does
not change which functions hit them.  (A function very close to the CPU
budget can still land on either side of it across runs; the corpus
settings leave ample headroom.)
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from repro.corpus import Corpus, build_corpus, function_binary
from repro.elf import Binary
from repro.hoare import LiftResult, lift, lift_function
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.profile import phases as _obs_phases
from repro.obs.progress import as_emitter
from repro.obs.report import canonical_obs, merge_rollup, task_obs_data
from repro.obs.tracer import DEFAULT_SAMPLING, tracer as _obs_tracer
from repro.perf.counters import counters


@dataclass
class FunctionRecord:
    """One lifted binary entry point or library function (Figure 3 data)."""

    name: str
    directory: str
    kind: str        # "binary" | "function"
    outcome: str     # "lifted" | "unprovable" | "concurrency" | "timeout"
    instructions: int
    states: int
    resolved: int
    unresolved_jumps: int
    unresolved_calls: int
    seconds: float
    #: Annotation counts by kind (``LiftStats.annotations_by_kind``).
    annotations: dict[str, int] = field(default_factory=dict)


@dataclass
class DirectoryRow:
    """One row of Table 1."""

    directory: str
    kind: str
    total: int = 0
    lifted: int = 0
    unprovable: int = 0
    concurrency: int = 0
    timeout: int = 0
    instructions: int = 0
    states: int = 0
    resolved: int = 0           # column A
    unresolved_jumps: int = 0   # column B
    unresolved_calls: int = 0   # column C
    seconds: float = 0.0
    #: Annotation counts by kind, over *all* records of the row (annotations
    #: accompany every outcome, not just lifted ones).
    annotations: dict[str, int] = field(default_factory=dict)

    def counts_cell(self) -> str:
        return (f"{self.total} = {self.lifted} + {self.unprovable} "
                f"+ {self.concurrency} + {self.timeout}")


@dataclass
class CorpusReport:
    #: Sorted by (kind, directory) — see the module ordering contract.
    rows: list[DirectoryRow] = field(default_factory=list)
    #: Sorted by (kind, directory, name) — see the module ordering contract.
    records: list[FunctionRecord] = field(default_factory=list)
    #: Perf-counter totals over all lift tasks (sum of per-task deltas, so
    #: parallel runs still report interning/solver hit counts).
    counters: dict[str, int] = field(default_factory=dict)
    #: Observability rollup (``repro.obs.report.merge_rollup`` form) when
    #: the run was made with ``obs=True``; None otherwise.
    obs: dict | None = None

    def totals(self, kind: str) -> DirectoryRow:
        total = DirectoryRow(directory="Total", kind=kind)
        for row in self.rows:
            if row.kind != kind:
                continue
            for attr in ("total", "lifted", "unprovable", "concurrency",
                         "timeout", "instructions", "states", "resolved",
                         "unresolved_jumps", "unresolved_calls", "seconds"):
                setattr(total, attr, getattr(total, attr) + getattr(row, attr))
            for ann_kind, count in row.annotations.items():
                total.annotations[ann_kind] = (
                    total.annotations.get(ann_kind, 0) + count
                )
        return total

    def canonical(self) -> dict:
        """The timing-free view of the report.

        Wall-clock ``seconds`` (and the cache-state-dependent ``counters``)
        are excluded: they are the only fields that legitimately differ
        between repeated or serial-vs-parallel runs of the same corpus.
        The obs rollup enters in its canonical form (timers, timestamps,
        and cache-dependent content stripped) for the same reason.
        """
        def strip(obj) -> dict:
            data = asdict(obj)
            data.pop("seconds")
            return data

        data = {
            "rows": [strip(row) for row in self.rows],
            "records": [strip(record) for record in self.records],
        }
        if self.obs is not None:
            data["obs"] = canonical_obs(self.obs)
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, indent=1)


def _outcome(result: LiftResult) -> str:
    if result.verified:
        return "lifted"
    kinds = {error.kind for error in result.errors}
    if "concurrency" in kinds:
        return "concurrency"
    if "timeout" in kinds:
        return "timeout"
    return "unprovable"


@dataclass(frozen=True)
class _LiftTask:
    """One unit of work, fully resolved in the parent process.

    ``binary`` is a plain picklable dataclass; ``function_binary`` is
    called *before* task submission so workers never consult the parent's
    corpus registries.
    """

    name: str
    directory: str
    kind: str           # "binary" | "function"
    binary: Binary
    function: str | None
    timeout_seconds: float
    max_states: int
    #: Capture an obs snapshot for this task (tracer reset per task so the
    #: sampled event stream is a pure function of the task — identical in
    #: serial and worker-pool runs).
    obs: bool = False
    obs_sampling: int = DEFAULT_SAMPLING
    #: Persistent lift store (resolved to an explicit bool in the parent so
    #: workers do not re-consult the environment).  Obs tasks force this
    #: off: tracing measures real lifting, and a cache hit would make the
    #: warm obs rollup differ from the cold one.
    cache: bool = False
    cache_dir: str | None = None
    #: Exploration order and the two-phase pointer-summaries lift; a
    #: corpus run keeps the defaults, the serve protocol may set both.
    schedule: str = "scc"
    pointer_summaries: bool = False


def _run_task(
    task: _LiftTask,
) -> tuple[FunctionRecord, dict[str, int], dict | None]:
    """Lift one task; also report the perf-counter delta it produced and,
    when ``task.obs`` is set, the task's obs snapshot.

    Module-level so it pickles for ProcessPoolExecutor; also used verbatim
    on the serial path so both paths build records identically.
    """
    if task.obs:
        _obs_tracer.reset()
        _obs_metrics.reset()
        _obs_phases.reset()
        _obs_tracer.configure(enabled=True, sampling=task.obs_sampling)
    before = counters.snapshot()
    use_cache = task.cache and not task.obs
    if task.function is None:
        result = lift(task.binary, max_states=task.max_states,
                      timeout_seconds=task.timeout_seconds,
                      schedule=task.schedule,
                      cache=use_cache, cache_dir=task.cache_dir,
                      pointer_summaries=task.pointer_summaries)
    else:
        result = lift_function(task.binary, task.function,
                               max_states=task.max_states,
                               timeout_seconds=task.timeout_seconds,
                               schedule=task.schedule,
                               cache=use_cache, cache_dir=task.cache_dir,
                               pointer_summaries=task.pointer_summaries)
    delta = counters.delta(before, counters.snapshot())
    obs_data = None
    if task.obs:
        obs_data = task_obs_data(_obs_tracer, _obs_metrics,
                                 phases=_obs_phases)
        _obs_tracer.configure(enabled=False)
    record = record_from_result(task.name, task.directory, task.kind, result)
    return record, delta, obs_data


def record_from_result(name: str, directory: str, kind: str,
                       result: LiftResult) -> FunctionRecord:
    """The :class:`FunctionRecord` view of one lift — shared by the
    runner's task path and the serve daemon's store-hit fast path, so a
    cached answer is summarized exactly like a fresh one."""
    outcome = _outcome(result)
    stats = result.stats
    return FunctionRecord(
        name=name, directory=directory, kind=kind,
        outcome=outcome,
        instructions=stats.instructions, states=stats.states,
        resolved=stats.resolved_indirections,
        unresolved_jumps=stats.unresolved_jumps,
        unresolved_calls=stats.unresolved_calls,
        seconds=stats.seconds,
        annotations=dict(stats.annotations_by_kind),
    )


#: Public aliases for the serve daemon (:mod:`repro.serve`), whose worker
#: pool executes the exact same task units as the in-process pool here.
run_task = _run_task
LiftTask = _LiftTask


def _corpus_tasks(corpus: Corpus, timeout_seconds: float,
                  max_states: int, obs: bool,
                  obs_sampling: int, cache: bool,
                  cache_dir: str | None, schedule: str = "scc",
                  pointer_summaries: bool = False) -> list[_LiftTask]:
    tasks = [
        _LiftTask(name=corpus_binary.name, directory=corpus_binary.directory,
                  kind="binary", binary=corpus_binary.binary, function=None,
                  timeout_seconds=timeout_seconds, max_states=max_states,
                  obs=obs, obs_sampling=obs_sampling,
                  cache=cache, cache_dir=cache_dir, schedule=schedule,
                  pointer_summaries=pointer_summaries)
        for corpus_binary in corpus.binaries
    ]
    for library in corpus.libraries:
        for function in library.functions:
            tasks.append(_LiftTask(
                name=f"{library.name}:{function}",
                directory=library.directory, kind="function",
                binary=function_binary(library, function), function=function,
                timeout_seconds=timeout_seconds, max_states=max_states,
                obs=obs, obs_sampling=obs_sampling,
                cache=cache, cache_dir=cache_dir, schedule=schedule,
                pointer_summaries=pointer_summaries,
            ))
    return tasks


corpus_tasks = _corpus_tasks


def _task_key(record: FunctionRecord) -> str:
    """The rollup key for one task — unique and sort-stable."""
    return f"{record.kind}/{record.directory}/{record.name}"


def assemble_report(outcomes, obs: bool = False,
                    obs_sampling: int = DEFAULT_SAMPLING) -> CorpusReport:
    """Fold ``run_task`` outcomes into a :class:`CorpusReport`.

    This is the single merge point behind both execution paths — the
    serial/pool runner here and the ``repro serve`` daemon's worker pool
    (:mod:`repro.serve`), whose corpus jobs must produce byte-identical
    canonical reports to a direct :func:`run_corpus` — so sorting and row
    aggregation can never drift between them.  *outcomes* is any iterable
    of ``(record, counter_delta, obs_data)`` tuples, in any order.
    """
    outcomes = list(outcomes)
    report = CorpusReport()
    for _, delta, _ in outcomes:
        counters.merge(report.counters, delta)
    report.records = sorted(
        (record for record, _, _ in outcomes),
        key=lambda r: (r.kind, r.directory, r.name),
    )
    if obs:
        report.obs = merge_rollup(
            {_task_key(record): obs_data
             for record, _, obs_data in outcomes if obs_data is not None},
            sampling=obs_sampling,
        )

    rows: dict[tuple[str, str], DirectoryRow] = {}
    for record in report.records:
        key = (record.kind, record.directory)
        row = rows.get(key)
        if row is None:
            row = rows[key] = DirectoryRow(directory=record.directory,
                                           kind=record.kind)
        row.total += 1
        setattr(row, record.outcome, getattr(row, record.outcome) + 1)
        if record.outcome == "lifted":
            row.instructions += record.instructions
            row.states += record.states
            row.resolved += record.resolved
            row.unresolved_jumps += record.unresolved_jumps
            row.unresolved_calls += record.unresolved_calls
        row.seconds += record.seconds
        for ann_kind, count in record.annotations.items():
            row.annotations[ann_kind] = row.annotations.get(ann_kind, 0) + count
    report.rows = [rows[key] for key in sorted(rows)]
    return report


def run_corpus(
    corpus: Corpus | None = None,
    scale: int = 1,
    timeout_seconds: float = 10.0,
    max_states: int = 10_000,
    jobs: int = 1,
    obs: bool = False,
    obs_sampling: int = DEFAULT_SAMPLING,
    cache: "bool | None" = None,
    cache_dir: str | None = None,
    progress=None,
) -> CorpusReport:
    """Lift every binary and library function; aggregate per directory.

    ``jobs > 1`` lifts in that many worker processes; results are merged
    by name, so the report is deterministic (see the module docstring).
    ``obs=True`` additionally captures a per-task observability snapshot
    (tracer + metrics + phase totals, reset per task) and attaches the
    merged rollup as ``CorpusReport.obs``; the caller's tracer
    configuration is restored afterwards.

    ``progress`` streams live heartbeats (:mod:`repro.obs.progress`): a
    :class:`~repro.obs.progress.ProgressEmitter`, a callable receiving
    each event dict, or a text stream receiving schema-validated JSONL
    lines.  Heartbeats never change results — on the worker-pool path
    tasks are consumed in submission order either way.

    ``cache`` enables the persistent lift store (:mod:`repro.perf.store`):
    ``None`` consults ``REPRO_CACHE``, booleans force it.  The decision is
    resolved here, once, and shipped to workers as an explicit flag, so a
    worker pool never re-reads the parent's environment.

    A warm cached run produces a byte-identical
    :meth:`CorpusReport.canonical_json` to the cold run that populated
    the store (``seconds`` and ``counters`` are already excluded from the
    canonical form).  Obs tasks bypass the cache (see :class:`_LiftTask`).
    """
    if corpus is None:
        corpus = build_corpus(scale)
    from repro.perf.store import ambient_enabled

    use_cache = bool(cache) if cache is not None else ambient_enabled()
    tasks = _corpus_tasks(corpus, timeout_seconds, max_states,
                          obs, obs_sampling, use_cache, cache_dir)

    emitter = as_emitter(progress)
    prior = (_obs_tracer.enabled, _obs_tracer.sampling)
    try:
        if emitter is not None:
            emitter.corpus_started(len(tasks), scale, jobs)
        if jobs > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                if emitter is None:
                    outcomes = list(pool.map(_run_task, tasks))
                else:
                    futures = []
                    for task in tasks:
                        futures.append(pool.submit(_run_task, task))
                        emitter.task_started(task.name,
                                             queue_depth=len(futures))
                    outcomes = []
                    for task, future in zip(tasks, futures):
                        outcome = future.result()
                        outcomes.append(outcome)
                        record = outcome[0]
                        emitter.task_finished(
                            task.name, record.outcome, record.instructions,
                            record.seconds,
                            queue_depth=len(futures) - len(outcomes))
        else:
            outcomes = []
            for task in tasks:
                if emitter is not None:
                    emitter.task_started(
                        task.name, queue_depth=len(tasks) - len(outcomes))
                outcome = _run_task(task)
                outcomes.append(outcome)
                if emitter is not None:
                    record = outcome[0]
                    emitter.task_finished(
                        task.name, record.outcome, record.instructions,
                        record.seconds,
                        queue_depth=len(tasks) - len(outcomes))
        if emitter is not None:
            emitter.corpus_finished()
    finally:
        if obs:
            _obs_tracer.configure(enabled=prior[0], sampling=prior[1])

    return assemble_report(outcomes, obs=obs, obs_sampling=obs_sampling)
