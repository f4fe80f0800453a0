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
    writes = []
    save = store._save_index
    monkeypatch.setattr(store, "_save_index",
                        lambda index: (writes.append(1), save(index)))
    binary = build_target("arith")
    lift(binary, cache=store)                    # miss + store
    assert len(writes) == 1
    lift(binary, cache=store)                    # hit
    assert len(writes) == 2
    assert store.summary(lift_key(binary)) is not None
    assert len(writes) == 3
    lift(build_target("loop"), cache=store, timeout_seconds=1e-9)
    assert len(writes) == 4                      # an unstored miss
    assert store.stats()["telemetry"] == {"hits": 2, "misses": 2,
                                          "stores": 1, "evictions": 0}
