"""The memory-model insertion memo and the region path index.

``ins`` memoizes on the region, the model, the fork limit and the bounds
of every term its relation queries can read; ``relation_in_model`` answers
from a region -> path index built once per model.  These tests hold both
to the computations they replace on real lifts, check that memo hits keep
the SMT query counts of the obs rollup exact, and check that solver faults
are still caught once the memo is warm.
"""

from __future__ import annotations

import pytest

import repro.memmodel.model as model_mod
import repro.semantics.memory as memory_mod
import repro.semantics.tau as tau_mod
from repro.corpus import templates as T
from repro.expr import Var
from repro.hoare import lift, lift_function
from repro.memmodel import MemModel, MemTree
from repro.minicc import compile_source
from repro.perf import cache_stats, reset_caches
from repro.qa import faults
from repro.qa.detectors import binary_signature, signature_diff
from repro.qa.targets import build_target, target_names
from repro.smt.solver import (
    Region,
    Relation,
    query_count,
    reset_solver_caches,
)

#: Corpus library functions whose lifts insert into multi-region models.
CORPUS_FUNCTIONS = (
    (T.make_global_table_walk("m", size=8), "walk_m"),
    (T.make_local_buffer("m", size=6), "localbuf_m"),
    (T.make_state_machine("m", states=4), "fsm_m"),
    (T.make_byte_scanner("m", size=12), "scan_m"),
)


def _lift_all() -> None:
    for name in target_names():
        lift(build_target(name), cache=False, max_states=4000)
    for source, entry in CORPUS_FUNCTIONS:
        binary = compile_source(source, name="memo", entry=entry,
                                export_labels=True)
        lift_function(binary, entry, cache=False, max_states=4000)


def test_every_insertion_equals_the_uncached_insertion(monkeypatch):
    """Each ``ins`` of real lifts, memo hit or not, returns what ``_ins``
    computes from empty solver caches, and its memo entry holds the number
    of relation queries that computation asks."""
    memoized = model_mod.ins
    compared = 0

    def checked(region, model, bounds=model_mod.NO_BOUNDS, max_forks=8):
        nonlocal compared
        got = memoized(region, model, bounds, max_forks)
        reset_solver_caches()
        before = query_count()
        want = model_mod._ins(region, model, bounds, max_forks)
        queries = query_count() - before
        assert got == want, (str(region), str(model))
        assert [str(r.model) for r in got] == [str(r.model) for r in want]
        key = (region, model, max_forks,
               model_mod._ins_fingerprint(region, model, bounds))
        assert model_mod._INS_MEMO._data[key][1] == queries
        compared += 1
        return got

    reset_caches()
    monkeypatch.setattr(tau_mod, "ins", checked)
    _lift_all()
    assert compared > 500
    stats = cache_stats()["memmodel.ins"]
    assert stats["hits"] > stats["misses"]


def _tree_walk(model: MemModel, r0, r1) -> Relation | None:
    """``relation_in_model`` by searching the sorted forest for each
    region, pre-order, on every call."""
    if r0 == r1:
        return Relation.ALIAS
    if r0 in model.destroyed or r1 in model.destroyed:
        return None

    def locate(tree, region, path):
        path = path + (tree,)
        if region in tree.regions:
            return path
        for child in sorted(tree.children, key=str):
            found = locate(child, region, path)
            if found:
                return found
        return None

    paths = {}
    for region in (r0, r1):
        for tree in sorted(model.trees, key=str):
            found = locate(tree, region, ())
            if found:
                paths[region] = found
                break
    if r0 not in paths or r1 not in paths:
        return None
    path0, path1 = paths[r0], paths[r1]
    if path0[-1] is path1[-1]:
        return Relation.ALIAS
    if len(path0) < len(path1) and path1[: len(path0)] == path0:
        return Relation.ENCLOSES
    if len(path1) < len(path0) and path0[: len(path1)] == path1:
        return Relation.ENCLOSED
    return Relation.SEPARATE


def test_every_indexed_relation_equals_the_tree_walk(monkeypatch):
    indexed = model_mod.relation_in_model
    compared = 0

    def checked(model, r0, r1):
        nonlocal compared
        got = indexed(model, r0, r1)
        assert got is _tree_walk(model, r0, r1), (str(model), r0, r1)
        compared += 1
        return got

    reset_caches()
    monkeypatch.setattr(memory_mod, "relation_in_model", checked)
    _lift_all()
    assert compared > 1000


def test_a_region_in_several_nodes_resolves_to_its_first_sorted_node():
    # ``ins`` can leave one region in two nodes (the corpus's localbuf
    # lifts do); the node the index keeps must not depend on set order.
    shared = Region(Var("x"), 8)
    others = [Region(Var(f"r{i}"), 8) for i in range(8)]
    model = MemModel(frozenset(MemTree(frozenset({other, shared}))
                               for other in others))
    relations = [model_mod.relation_in_model(model, shared, other)
                 for other in others]
    assert relations == [Relation.ALIAS] + [Relation.SEPARATE] * 7
    assert relations == [_tree_walk(model, shared, other)
                         for other in others]


def test_the_index_stays_out_of_pickles():
    import pickle

    reset_caches()
    result = lift(build_target("stack"), cache=False)
    models = [state.model for state in result.graph.vertices.values()
              if state.model.trees]
    assert models
    for model in models:
        blob = pickle.dumps(model)
        for tree in model.trees:
            model_mod.relation_in_model(model, tree.representative(),
                                        tree.representative())
        model_mod._region_paths(model)
        assert "_paths" in model.__dict__
        assert pickle.dumps(model) == blob


def _obs_capture(binary) -> dict:
    import repro.obs as obs
    from repro.obs.report import canonical_obs, merge_rollup, task_obs_data

    obs.reset()
    obs.enable(sampling=1)
    try:
        lift(binary, cache=False)
        data = task_obs_data(obs.tracer, obs.metrics)
    finally:
        obs.disable()
        obs.reset()
    return canonical_obs(merge_rollup({"task": data}, sampling=1))


@pytest.mark.parametrize("target", ["loop", "stack", "guard"])
def test_memo_hits_count_the_queries_they_stand_for(target, monkeypatch):
    """The canonical obs rollup of a lift served from a warm memo equals
    that of a lift that computes every insertion."""
    binary = build_target(target)
    reset_caches()
    lift(binary, cache=False)
    hits = cache_stats()["memmodel.ins"]["hits"]
    warm = _obs_capture(binary)
    assert cache_stats()["memmodel.ins"]["hits"] > hits
    monkeypatch.setattr(tau_mod, "ins",
                        lambda region, model, bounds, max_forks=8:
                        model_mod._ins(region, model, bounds, max_forks))
    plain = _obs_capture(binary)
    assert warm["totals"]["events"]["smt.query"] > 0
    assert warm == plain


@pytest.mark.parametrize("fault", ["smt-unknown-is-separate",
                                   "smt-fork-drops-alias"])
def test_solver_fault_is_caught_after_a_warm_lift(fault):
    target = build_target("overflow")
    reset_caches()
    baseline = binary_signature(target)
    assert cache_stats()["memmodel.ins"]["size"] > 0
    with faults.inject(fault):
        # inject() starts from an empty memo: the memo is registered.
        assert cache_stats()["memmodel.ins"]["size"] == 0
        faulty = binary_signature(target)
    assert signature_diff(baseline, faulty)
