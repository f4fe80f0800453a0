"""The persistent lift store: keys, invalidation, corruption, identity.

The store's contract has two halves.  *Hits must be exact*: a warm lift
returns the same artifact the cold lift produced, down to byte-identical
canonical corpus reports, serially and under a worker pool.  *Misses must
be conservative*: any change a lift could observe — a flipped instruction
byte, a bumped ``SEMANTICS_VERSION``, an injected semantic fault
(a runtime monkeypatch, invisible to source hashing), different lifter
options — must change the key; and any storage-level damage degrades to
a silent miss, never an exception.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.corpus import Corpus, CorpusBinary, concurrency
from repro.eval.runner import run_corpus
from repro.hoare.lifter import lift
from repro.minicc import compile_source
from repro.perf import store as store_mod
from repro.perf.counters import counters
from repro.perf.store import (
    LiftStore,
    cached_lift,
    lift_key,
    resolve_store,
    semantics_fingerprint,
)
from repro.qa import faults
from repro.qa.mutants import random_mutants
from repro.qa.targets import build_target


@pytest.fixture()
def store(tmp_path) -> LiftStore:
    return LiftStore(root=tmp_path / "lift-store")


# -- hits are exact ---------------------------------------------------------

def test_roundtrip_hit_reproduces_the_cold_result(store):
    binary = build_target("loop")
    counters.reset()
    cold = lift(binary, cache=store)
    assert counters.cache_lift_misses == 1
    assert counters.cache_lift_stores == 1
    warm = lift(binary, cache=store)
    assert counters.cache_lift_hits == 1
    assert warm.verified == cold.verified
    assert len(warm.graph.vertices) == len(cold.graph.vertices)
    assert len(warm.graph.edges) == len(cold.graph.edges)
    assert sorted(warm.instructions) == sorted(cold.instructions)
    assert warm.stats.instructions == cold.stats.instructions
    assert warm.stats.states == cold.stats.states
    # Sets pickle as sorted tuples and come back as sets.
    assert isinstance(warm.graph.edges, set)
    assert warm.graph.edges == cold.graph.edges
    assert isinstance(warm.assumptions, set)
    for key, state in cold.graph.vertices.items():
        model = warm.graph.vertices[key].model
        assert model == state.model
        assert isinstance(model.trees, frozenset)
        assert all(isinstance(tree.regions, frozenset)
                   for tree in model.trees)


def test_warm_corpus_report_is_byte_identical(tmp_path):
    corpus = Corpus()
    corpus.binaries.append(CorpusBinary(
        name="sum", directory="bin",
        binary=compile_source(
            "long main(long n) { long s = 0;"
            " for (long i = 0; i < n; i = i + 1) { s = s + i; }"
            " return s; }",
            name="sum"),
        expected="lifted",
    ))
    corpus.binaries.append(CorpusBinary(
        name="mul", directory="bin",
        binary=compile_source("long main(long n) { return n * 3; }",
                              name="mul"),
        expected="lifted",
    ))
    directory = str(tmp_path / "corpus-store")
    counters.reset()
    cold = run_corpus(corpus=corpus, cache=True, cache_dir=directory)
    assert counters.cache_lift_stores == 2
    counters.reset()
    warm = run_corpus(corpus=corpus, cache=True, cache_dir=directory)
    assert counters.cache_lift_hits == 2
    assert warm.canonical_json() == cold.canonical_json()
    # The identity must survive a worker pool as well.
    warm2 = run_corpus(corpus=corpus, cache=True, cache_dir=directory,
                       jobs=2)
    assert warm2.canonical_json() == cold.canonical_json()


def test_obs_tasks_bypass_the_store(tmp_path):
    corpus = Corpus()
    corpus.binaries.append(CorpusBinary(
        name="mul", directory="bin",
        binary=compile_source("long main(long n) { return n * 3; }",
                              name="mul"),
        expected="lifted",
    ))
    directory = str(tmp_path / "obs-store")
    counters.reset()
    first = run_corpus(corpus=corpus, cache=True, cache_dir=directory,
                       obs=True)
    second = run_corpus(corpus=corpus, cache=True, cache_dir=directory,
                        obs=True)
    # No hits, no stores: tracing always measures a real lift, and the
    # warm obs rollup must equal the cold one.
    assert counters.cache_lift_hits == 0
    assert counters.cache_lift_stores == 0
    assert first.obs is not None
    assert second.canonical_json() == first.canonical_json()


# -- misses are conservative ------------------------------------------------

def test_byte_perturbed_function_misses(store):
    binary = build_target("loop")
    mutants = random_mutants(binary, "loop", random.Random(7), 1)
    assert mutants, "expected at least one applicable mutant"
    _, mutant = mutants[0]
    assert lift_key(binary) != lift_key(mutant)
    counters.reset()
    lift(binary, cache=store)
    lift(mutant, cache=store)
    assert counters.cache_lift_hits == 0
    assert counters.cache_lift_misses == 2
    assert counters.cache_lift_stores == 2


def test_semantics_version_bump_misses(store, monkeypatch):
    binary = build_target("arith")
    key_before = lift_key(binary)
    lift(binary, cache=store)
    monkeypatch.setattr(store_mod, "SEMANTICS_VERSION",
                        store_mod.SEMANTICS_VERSION + "-bumped")
    assert lift_key(binary) != key_before
    counters.reset()
    lift(binary, cache=store)
    assert counters.cache_lift_hits == 0
    assert counters.cache_lift_misses == 1


def test_injected_fault_changes_the_fingerprint():
    clean = semantics_fingerprint()
    with faults.inject("tau-jcc-cond-swap"):
        assert semantics_fingerprint() != clean
    assert semantics_fingerprint() == clean


def test_options_change_the_key():
    binary = build_target("arith")
    base = lift_key(binary)
    assert lift_key(binary, max_states=99) != base
    assert lift_key(binary, trust_data=False) != base
    assert lift_key(binary, timeout_seconds=1.0) != base
    assert lift_key(binary, schedule="address") != base


def test_corrupt_or_truncated_entry_is_a_silent_miss(store):
    binary = build_target("arith")
    key = lift_key(binary)
    lift(binary, cache=store)
    path = store.entry_path(key)

    path.write_bytes(b"not a pickle")
    assert store.get(key) is None
    assert not path.exists()  # dropped, not retried forever

    lift(binary, cache=store)  # repopulate
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert store.get(key) is None

    # A pickle of the wrong shape is also a miss.
    lift(binary, cache=store)
    path.write_bytes(pickle.dumps({"schema": -1}))
    assert store.get(key) is None

    counters.reset()
    warm = lift(binary, cache=store)  # store works again after the damage
    assert warm.verified
    assert counters.cache_lift_misses == 1
    assert counters.cache_lift_stores == 1


def test_lru_eviction_respects_the_byte_cap(tmp_path):
    binary_a = build_target("arith")
    binary_b = build_target("branch")
    probe = LiftStore(root=tmp_path / "probe")
    result = cached_lift(binary_a, store=probe)
    entry_size = probe.stats()["bytes"]
    assert result.verified and entry_size > 0

    small = LiftStore(root=tmp_path / "small",
                      max_bytes=int(entry_size * 1.5))
    cached_lift(binary_a, store=small)
    cached_lift(binary_b, store=small)  # over the cap: a must be evicted
    assert small.stats()["entries"] == 1
    assert small.get(lift_key(binary_a)) is None
    assert small.get(lift_key(binary_b)) is not None


def test_rebuilds_a_lost_index(store):
    binary = build_target("arith")
    lift(binary, cache=store)
    store.index_path.unlink()
    counters.reset()
    lift(binary, cache=store)
    assert counters.cache_lift_hits == 1


# -- only deterministic verdicts are stored ----------------------------------

def test_cpu_budget_rejection_is_not_stored(store):
    binary = build_target("loop")
    counters.reset()
    first = lift(binary, cache=store, timeout_seconds=1e-9)
    assert first.cpu_budget_exhausted and not first.verified
    assert store.stats()["entries"] == 0
    again = lift(binary, cache=store, timeout_seconds=1e-9)
    assert again.cpu_budget_exhausted
    assert counters.cache_lift_misses == 2
    assert counters.cache_lift_hits == 0
    assert counters.cache_lift_stores == 0

    # The max_states fuel is deterministic: its rejection is stored and hit.
    fuel = lift(binary, cache=store, max_states=1)
    assert [error.kind for error in fuel.errors] == ["timeout"]
    assert not fuel.cpu_budget_exhausted
    assert store.stats()["entries"] == 1
    hit = lift(binary, cache=store, max_states=1)
    assert counters.cache_lift_hits == 1
    assert hit.errors == fuel.errors


def test_summaries_from_a_cpu_budget_cut_phase_1_are_not_stored(
        store, monkeypatch):
    import repro.hoare.lifter as lifter_mod
    from repro.hoare.annotations import VerificationError

    original = lifter_mod.lift_uncached

    def cut_phase_1(binary, **kwargs):
        result = original(binary, **kwargs)
        phase_1 = (kwargs.get("summaries") is None
                   and not kwargs.get("pointer_summaries"))
        if phase_1:
            result.errors.append(VerificationError(
                "timeout", result.entry,
                f"{lifter_mod.CPU_BUDGET_DETAIL} (10s) exhausted"))
        return result

    binary = build_target("loop")
    monkeypatch.setattr(lifter_mod, "lift_uncached", cut_phase_1)
    cut = lift(binary, cache=store, pointer_summaries=True)
    # Phase 2 verified, but it ran on summaries of a cut phase 1.
    assert cut.verified and not cut.cpu_budget_exhausted
    assert cut.depends_on_cpu_budget
    assert store.stats()["entries"] == 0

    # The same two-phase lift without the cut is stored.
    monkeypatch.setattr(lifter_mod, "lift_uncached", original)
    whole = lift(binary, cache=store, pointer_summaries=True)
    assert whole.verified and not whole.depends_on_cpu_budget
    assert store.stats()["entries"] == 1


# -- resolution -------------------------------------------------------------

def test_resolve_store_env_and_overrides(tmp_path, monkeypatch):
    monkeypatch.delenv(store_mod.ENV_ENABLE, raising=False)
    assert resolve_store(None) is None
    assert resolve_store(False) is None
    monkeypatch.setenv(store_mod.ENV_ENABLE, "1")
    monkeypatch.setenv(store_mod.ENV_DIR, str(tmp_path / "ambient"))
    ambient = resolve_store(None)
    assert isinstance(ambient, LiftStore)
    assert ambient.root == tmp_path / "ambient"
    assert resolve_store(False) is None  # explicit off beats the env
    explicit = resolve_store(True, cache_dir=str(tmp_path / "explicit"))
    assert explicit.root == tmp_path / "explicit"
    passthrough = LiftStore(root=tmp_path / "given")
    assert resolve_store(passthrough) is passthrough


def test_unknown_schedule_mode_is_rejected():
    with pytest.raises(ValueError):
        lift(build_target("arith"), schedule="mystery")


# -- persisted telemetry (PR 8) ---------------------------------------------

def test_index_telemetry_counts_hits_misses_stores(store):
    binary = build_target("loop")
    lift(binary, cache=store)            # miss + store
    lift(binary, cache=store)            # hit
    lift(binary, cache=store)            # hit
    stats = store.stats()
    assert stats["telemetry"] == {"hits": 2, "misses": 1, "stores": 1,
                                  "evictions": 0}
    assert stats["hit_rate"] == pytest.approx(2 / 3)


def test_telemetry_survives_process_restart(tmp_path):
    binary = build_target("arith")
    first = LiftStore(root=tmp_path / "persist")
    lift(binary, cache=first)
    # A fresh handle over the same directory sees the lifetime counts.
    second = LiftStore(root=tmp_path / "persist")
    lift(binary, cache=second)
    telemetry = second.stats()["telemetry"]
    assert telemetry == {"hits": 1, "misses": 1, "stores": 1, "evictions": 0}


def test_telemetry_counts_evictions(tmp_path):
    binary_a = build_target("arith")
    binary_b = build_target("branch")
    probe = LiftStore(root=tmp_path / "probe")
    cached_lift(binary_a, store=probe)
    entry_size = probe.stats()["bytes"]

    small = LiftStore(root=tmp_path / "small",
                      max_bytes=int(entry_size * 1.5))
    cached_lift(binary_a, store=small)
    cached_lift(binary_b, store=small)
    assert small.stats()["telemetry"]["evictions"] == 1


def test_entry_ages_and_empty_store_defaults(store):
    stats = store.stats()
    assert stats["hit_rate"] == 0.0
    assert stats["oldest_entry_age"] is None
    assert stats["newest_entry_age"] is None
    lift(build_target("loop"), cache=store)
    stats = store.stats()
    assert stats["oldest_entry_age"] >= 0.0
    assert stats["newest_entry_age"] >= 0.0
    assert stats["oldest_entry_age"] >= stats["newest_entry_age"]


def test_entry_creation_time_survives_touches(store):
    binary = build_target("loop")
    lift(binary, cache=store)
    index = store._load_index()
    key = lift_key(binary)
    created = index["entries"][key]["created"]
    clock = index["entries"][key]["at"]
    lift(binary, cache=store)            # hit: touches the LRU stamp
    index = store._load_index()
    assert index["entries"][key]["created"] == created
    assert index["entries"][key]["at"] > clock


def test_rebuilt_index_keeps_telemetry_shape(store):
    binary = build_target("arith")
    lift(binary, cache=store)
    store.index_path.unlink()
    lift(binary, cache=store)            # rebuild from scan, then hit
    stats = store.stats()
    # The rebuilt index restarts lifetime counts but keeps the schema.
    assert set(stats["telemetry"]) == {"hits", "misses", "stores",
                                       "evictions"}
    assert stats["telemetry"]["hits"] >= 1
    assert stats["oldest_entry_age"] is not None


# -- the journaled index ----------------------------------------------------

class _RewrittenIndex:
    """The index as it was kept when every hit, miss and store rewrote
    ``index.json`` whole: the reference the journal must reproduce."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.clock = 0
        self.entries: dict[str, dict] = {}
        self.telemetry = {"hits": 0, "misses": 0, "stores": 0,
                          "evictions": 0}
        self.evicted: list[str] = []

    def _touch(self, key: str, size: int) -> None:
        self.clock += 1
        self.entries[key] = {"size": size, "at": self.clock}

    def hit(self, key: str, size: int) -> None:
        self._touch(key, size)
        self.telemetry["hits"] += 1

    def miss(self) -> None:
        self.telemetry["misses"] += 1

    def store(self, key: str, size: int) -> None:
        self.telemetry["misses"] += 1
        self._touch(key, size)
        self.telemetry["stores"] += 1
        total = sum(entry["size"] for entry in self.entries.values())
        if total <= self.max_bytes:
            return
        for victim in sorted(self.entries,
                             key=lambda k: (self.entries[k]["at"], k)):
            if total <= self.max_bytes:
                break
            total -= self.entries.pop(victim)["size"]
            self.evicted.append(victim)
            self.telemetry["evictions"] += 1


def _index_view(index: dict) -> dict:
    return {key: {"size": entry["size"], "at": entry["at"]}
            for key, entry in index["entries"].items()}


@pytest.mark.parametrize("compact_min_lines", [64, 1],
                         ids=["journal", "compact-every-line"])
def test_scripted_sequence_matches_the_rewritten_index(
        tmp_path, monkeypatch, compact_min_lines):
    from repro.hoare.lifter import lift_uncached

    monkeypatch.setattr(LiftStore, "COMPACT_MIN_LINES", compact_min_lines)
    names = ("arith", "branch", "loop", "guard", "stack")
    binaries = {name: build_target(name) for name in names}
    results = {name: lift_uncached(binary)
               for name, binary in binaries.items()}
    keys = {name: lift_key(binary) for name, binary in binaries.items()}
    sizes = {name: len(store_mod._encode_entry(keys[name], results[name]))
             for name in names}
    # Room for any three entries, never four.
    max_bytes = sum(sorted(sizes.values())[-3:])
    store = LiftStore(root=tmp_path / "scripted", max_bytes=max_bytes)
    model = _RewrittenIndex(max_bytes)
    absent = "0" * 64

    script = [("put", "arith"), ("put", "branch"), ("get", "arith"),
              ("put", "loop"), ("summary", "branch"), ("miss", None),
              ("put", "guard"), ("summary", "arith"), ("get", "guard"),
              ("put", "stack"), ("get", "stack"), ("miss", None),
              ("put", "arith")]
    for step, (op, name) in enumerate(script):
        if op == "put":
            store.put(keys[name], results[name])
            model.store(keys[name], sizes[name])
        elif op == "miss":
            assert store.get(absent) is None
            model.miss()
        else:
            assert getattr(store, op)(keys[name]) is not None, step
            model.hit(keys[name], sizes[name])
        on_disk = {path.stem for path in store.root.glob("??/*.pkl")}
        assert on_disk == set(model.entries), step
        assert _index_view(store._load_index()) == model.entries, step
        assert store._load_index()["clock"] == model.clock, step
    assert model.evicted, "the script must evict"
    stats = store.stats()
    assert stats["telemetry"] == model.telemetry
    assert stats["entries"] == len(model.entries)
    # A process that has not seen the store folds the same index.
    store_mod._INDEXES.clear()
    fresh = LiftStore(root=tmp_path / "scripted", max_bytes=max_bytes)
    assert _index_view(fresh._load_index()) == model.entries
    assert fresh.stats()["telemetry"] == model.telemetry


def test_a_store_with_only_index_json_loads(store):
    import json

    binary = build_target("arith")
    key = lift_key(binary)
    lift(binary, cache=store)
    # What a store written before the journal holds: index.json alone.
    store.journal_path.unlink()
    legacy = {"clock": 2, "telemetry": {"hits": 1, "misses": 1,
                                        "stores": 1, "evictions": 0},
              "entries": {key: {"size": 1, "at": 2, "created": 1.0}}}
    store.index_path.write_text(json.dumps(legacy))
    store_mod._INDEXES.clear()           # as a new process would
    assert store.stats()["telemetry"] == legacy["telemetry"]
    lift(binary, cache=store)            # a hit
    index = store._load_index()
    assert index["telemetry"]["hits"] == 2
    assert index["entries"][key]["at"] == 3
    assert index["entries"][key]["created"] == 1.0


def _hammer(root: str, worker: int, rounds: int, result) -> None:
    """One process's share of the concurrent-writers test."""
    store = LiftStore(root=root)
    for i in range(rounds):
        key = f"{worker:02x}{i:062x}"
        store.put(key, result)
        assert store.summary(key) is not None
        assert store.get(f"ff{worker:02x}{i:060x}") is None


def test_concurrent_processes_lose_no_count(tmp_path):
    """More writers than a 2-core runner has cores, each journaling
    stores, hits and misses through several compactions."""
    import multiprocessing

    from repro.hoare.lifter import lift_uncached

    result = lift_uncached(build_target("arith"))
    root = str(tmp_path / "shared")
    writers, rounds = 3, 40
    context = multiprocessing.get_context("spawn")
    workers = [context.Process(target=_hammer,
                               args=(root, worker, rounds, result))
               for worker in range(writers)]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
        assert process.exitcode == 0
    stats = LiftStore(root=root).stats()
    total = writers * rounds
    assert stats["telemetry"] == {"hits": total, "misses": 2 * total,
                                  "stores": total, "evictions": 0}
    assert stats["entries"] == total
    assert len(LiftStore(root=root)._load_index()["entries"]) == total


# -- the semantics-fingerprint memo -----------------------------------------

def _uncached_fingerprint() -> str:
    """The fingerprint computed from scratch, as before it was memoized:
    the reference the memo must always agree with."""
    import hashlib
    import importlib
    import platform
    import types

    def hash_callable(h, qualname, func):
        code = func.__code__
        h.update(qualname.encode())
        h.update(code.co_code)
        h.update(",".join(code.co_names).encode())
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                h.update(const.co_code)
            else:
                h.update(repr(const).encode())

    h = hashlib.sha256()
    h.update(f"repro-semantics|{store_mod.SEMANTICS_VERSION}|".encode())
    h.update(platform.python_version().encode())
    for module_name in store_mod._TRUSTED_MODULES:
        module = importlib.import_module(module_name)
        with open(module.__file__, "rb") as handle:
            h.update(hashlib.sha256(handle.read()).digest())
        for name, obj in sorted(vars(module).items()):
            if isinstance(obj, types.FunctionType):
                hash_callable(h, f"{module_name}.{name}", obj)
            elif isinstance(obj, type) and obj.__module__ == module_name:
                for attr, member in sorted(vars(obj).items()):
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if isinstance(member, types.FunctionType):
                        hash_callable(
                            h, f"{module_name}.{name}.{attr}", member)
    return h.hexdigest()


def test_memoized_fingerprint_equals_the_uncached_computation():
    assert semantics_fingerprint() == _uncached_fingerprint()
    assert semantics_fingerprint() == _uncached_fingerprint()


def test_patched_method_changes_the_memoized_fingerprint(monkeypatch):
    from repro.pred.predicate import Predicate

    clean = semantics_fingerprint()
    original = Predicate.__hash__

    def patched(self, *args, **kwargs):
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Predicate, "__hash__", patched)
    faulted = semantics_fingerprint()
    assert faulted != clean
    assert faulted == _uncached_fingerprint()
    monkeypatch.undo()
    assert semantics_fingerprint() == clean


def _impostor(expr, bindings):
    return expr


def test_reassigned_code_changes_the_memoized_fingerprint():
    from repro.expr import subst

    clean = semantics_fingerprint()
    original = subst.subst_vars.__code__
    subst.subst_vars.__code__ = _impostor.__code__
    try:
        faulted = semantics_fingerprint()
        assert faulted != clean
        assert faulted == _uncached_fingerprint()
    finally:
        subst.subst_vars.__code__ = original
    assert semantics_fingerprint() == clean


def _rebind_function(monkeypatch):
    from repro.expr import subst

    original = subst.subst_vars
    monkeypatch.setattr(subst, "subst_vars",
                        lambda *args, **kwargs: original(*args, **kwargs))


def _rebind_method(monkeypatch):
    from repro.memmodel.model import MemModel

    original = MemModel.__eq__
    monkeypatch.setattr(MemModel, "__eq__",
                        lambda self, other: original(self, other))


def _rebind_staticmethod(monkeypatch):
    from repro.memmodel.model import MemTree

    original = MemTree.leaf
    monkeypatch.setattr(MemTree, "leaf",
                        staticmethod(lambda region: original(region)))


def _reassign_code(monkeypatch):
    from repro.expr import subst

    monkeypatch.setattr(subst.subst_vars, "__code__", _impostor.__code__)


def _add_method(monkeypatch):
    from repro.pred.predicate import Predicate

    monkeypatch.setattr(Predicate, "extra_method", lambda self: None,
                        raising=False)


def _swap_module(monkeypatch):
    import sys
    import types

    # A module object like a reload would make, with one function changed;
    # the original module's namespace is untouched.
    original = sys.modules["repro.expr.subst"]
    swapped = types.ModuleType(original.__name__)
    swapped.__dict__.update(vars(original))
    swapped.subst_vars = _impostor
    monkeypatch.setitem(sys.modules, "repro.expr.subst", swapped)


def _bump_version(monkeypatch):
    monkeypatch.setattr(store_mod, "SEMANTICS_VERSION",
                        store_mod.SEMANTICS_VERSION + "-bumped")


@pytest.mark.parametrize("patch", [
    _rebind_function, _rebind_method, _rebind_staticmethod, _reassign_code,
    _add_method, _swap_module, _bump_version,
], ids=lambda patch: patch.__name__.lstrip("_"))
def test_every_patch_changes_the_fingerprint_and_undoing_restores_it(
        monkeypatch, patch):
    clean = semantics_fingerprint()
    assert clean == _uncached_fingerprint()
    patch(monkeypatch)
    faulted = semantics_fingerprint()
    assert faulted != clean
    assert faulted == _uncached_fingerprint()
    assert semantics_fingerprint() == faulted
    monkeypatch.undo()
    assert semantics_fingerprint() == clean


def test_a_steady_state_fingerprint_runs_no_walk():
    semantics_fingerprint()
    walks = store_mod.walk_count
    lift(build_target("loop"), cache=False)
    for _ in range(3):
        semantics_fingerprint()
    assert store_mod.walk_count == walks


# -- the summary header -----------------------------------------------------

@pytest.mark.parametrize("outcome, build, options", [
    ("lifted", lambda: build_target("loop"), {}),
    ("unprovable", lambda: build_target("overflow"), {}),
    ("timeout", lambda: build_target("loop"), {"max_states": 1}),
    ("concurrency", concurrency, {}),
], ids=["lifted", "unprovable", "timeout", "concurrency"])
def test_header_answer_summarizes_like_the_full_result(
        store, outcome, build, options):
    from repro.eval.runner import record_from_result, record_from_summary
    from repro.serve.jobs import summarize_record

    binary = build()
    fresh = lift(binary, cache=store, **options)
    key = lift_key(binary, **options)
    summary = store.summary(key)
    full = store.get(key)
    assert summary is not None and full is not None

    def view(record):
        data = summarize_record(record)
        del data["seconds"]
        return data

    from_header = view(record_from_summary("t", "serve", "binary",
                                           summary.stats, summary.errors))
    assert from_header["outcome"] == outcome
    assert from_header == view(record_from_result("t", "serve", "binary",
                                                  full))
    assert from_header == view(record_from_result("t", "serve", "binary",
                                                  fresh))


def _header_length(blob: bytes) -> int:
    import io

    stream = io.BytesIO(blob)
    pickle.load(stream)
    return stream.tell()


@pytest.mark.parametrize("damage", ["truncate", "flip"])
@pytest.mark.parametrize("read", ["get", "summary"])
def test_damaged_body_under_an_intact_header_misses(store, damage, read):
    binary = build_target("arith")
    key = lift_key(binary)
    lift(binary, cache=store)
    path = store.entry_path(key)
    blob = bytearray(path.read_bytes())
    header_end = _header_length(bytes(blob))
    assert header_end < len(blob)
    if damage == "truncate":
        del blob[-7:]
    else:
        blob[(header_end + len(blob)) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    assert getattr(store, read)(key) is None
    assert not path.exists()


@pytest.mark.parametrize("read", ["get", "summary"])
def test_previous_schema_entry_misses(store, read):
    binary = build_target("arith")
    key = lift_key(binary)
    result = lift(binary, cache=store)
    path = store.entry_path(key)
    path.write_bytes(pickle.dumps(
        {"schema": store_mod.STORE_SCHEMA - 1, "key": key,
         "result": result}, protocol=pickle.HIGHEST_PROTOCOL))
    assert getattr(store, read)(key) is None
    assert not path.exists()


def test_index_writes_per_miss_hit_and_summary(store, monkeypatch):
    # An index write is one journal line.
    writes = []
    record = store._record
    monkeypatch.setattr(store, "_record",
                        lambda line: (writes.append(line[0]), record(line)))
    binary = build_target("arith")
    lift(binary, cache=store)                    # miss + store
    assert len(writes) == 1
    lift(binary, cache=store)                    # hit
    assert len(writes) == 2
    assert store.summary(lift_key(binary)) is not None
    assert len(writes) == 3
    lift(build_target("loop"), cache=store, timeout_seconds=1e-9)
    assert len(writes) == 4                      # an unstored miss
    assert writes == ["store", "hit", "hit", "miss"]
    assert store.stats()["telemetry"] == {"hits": 2, "misses": 2,
                                          "stores": 1, "evictions": 0}
