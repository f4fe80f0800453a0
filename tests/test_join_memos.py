"""The join memos: exact keys, order independence and hash-seed-free pickles.

The predicate value join memoizes on the clauses it can read (a projection
of each side's clause set), the memory-model join memoizes on its
arguments, and forests sort on cached renderings.  These tests hold each
memo to the uncached computation on real lifts, check that a join fault is
still caught once the memos are warm, and check the two determinism fixes
that ride along: interval intersection that does not depend on set order,
and predicate pickles that do not depend on the hash seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys

import pytest

import repro.memmodel.model as model_mod
import repro.pred.predicate as pred_mod
from repro.corpus import templates as T
from repro.expr import Const, Var
from repro.hoare import lift, lift_function
from repro.memmodel import MemModel, MemTree
from repro.minicc import compile_source
from repro.perf import cache_stats, reset_caches
from repro.pred import Predicate
from repro.pred.clause import Clause, _intersect_cached
from repro.qa import faults
from repro.qa.detectors import binary_signature, signature_diff
from repro.qa.targets import build_target
from repro.smt.solver import Region, region_key

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: QA targets whose lifts join (branches, loops, stack traffic).
QA_TARGETS = ("branch", "guard", "loop", "stack")

#: Corpus library functions with loop heads that re-join many times.
CORPUS_FUNCTIONS = (
    (T.make_global_table_walk("m", size=8), "walk_m"),
    (T.make_local_buffer("m", size=6), "localbuf_m"),
    (T.make_state_machine("m", states=4), "fsm_m"),
    (T.make_byte_scanner("m", size=12), "scan_m"),
)

NEW_MEMOS = ("pred.join_values", "pred.join_shape", "pred.clause_index",
             "memmodel.join")


def _lift_all() -> list:
    results = [lift(build_target(name), max_states=4000)
               for name in QA_TARGETS]
    for source, entry in CORPUS_FUNCTIONS:
        binary = compile_source(source, name="memo", entry=entry,
                                export_labels=True)
        results.append(lift_function(binary, entry, max_states=4000))
    return results


# -- differential: memoized joins equal the uncached joins ---------------------


def _same_object_parts(p0: Predicate, p1: Predicate):
    """(part name, value, where) for every part the two sides join whose
    values are one object; *where* reads that part of a joined predicate."""
    mem1 = p1.mem_dict()
    for name, value in p0.regs:
        if p1.get_reg(name) is value:
            yield name, value, lambda pred, name=name: pred.get_reg(name)
    for region, value in p0.mem:
        if mem1.get(region) is value:
            yield (f"mem@{region_key(region)}", value,
                   lambda pred, region=region: pred.mem_dict().get(region))
    f0, f1 = p0.flags, p1.flags
    if f0 is not None and f1 is not None and f0 != f1 \
            and (f0.kind, f0.width) == (f1.kind, f1.width):
        if f0.a is f1.a:
            yield "flags.a", f0.a, lambda pred: pred.flags and pred.flags.a
        if f0.b is not None and f0.b is f1.b:
            yield "flags.b", f0.b, lambda pred: pred.flags and pred.flags.b


def test_projected_value_join_equals_full_clause_join(monkeypatch):
    """Every value join of real lifts, keyed on projected clause sets or
    answered before the memo (both sides hold one object and no clause
    bounds it), gives what the join computes from the sides' whole clause
    sets."""
    import repro.semantics.state as state_mod

    original = pred_mod._join_values
    join = state_mod.join_predicates
    compared = identities = 0
    reached: list[tuple] = []   # value pairs of the current join's memo calls

    def checked(part, rip, v0, v1, bounds0, bounds1):
        nonlocal compared
        got = original(part, rip, v0, v1, bounds0, bounds1)
        reached.append((v0, v1))
        if v0 is not None and v1 is not None:
            value, clauses = pred_mod._join_values_impl(
                part, rip, v0, v1, bounds0, bounds1)
            assert got[0] == value, (part, rip, v0, v1)
            assert sorted(map(str, got[1])) == sorted(map(str, clauses))
            compared += 1
        return got

    def joined(p0, p1, rip):
        nonlocal identities
        reached.clear()
        result = join(p0, p1, rip)
        for part, value, where in _same_object_parts(p0, p1):
            if any(v0 is value and v1 is value for v0, v1 in reached):
                continue  # went through the memo, checked above
            # Answered before the memo: the value itself, no bounds.
            assert pred_mod._join_values_impl(
                part, rip, value, value, p0.clauses, p1.clauses) \
                == (value, []), (part, rip, value)
            assert where(result) is value
            identities += 1
        return result

    reset_caches()
    monkeypatch.setattr(pred_mod, "_join_values", checked)
    monkeypatch.setattr(state_mod, "join_predicates", joined)
    _lift_all()
    assert compared > 1000 and identities > 1000
    stats = cache_stats()["pred.join_values"]
    # Answers given before the memo count as its hits.
    assert stats["hits"] >= identities
    assert stats["hits"] > stats["misses"]


def test_memoized_model_join_equals_uncached_join(monkeypatch):
    """Every model join of real lifts, served by the memo at every level
    of the child-forest recursion, equals the join computed with no memo
    at any level."""
    import repro.semantics.state as state_mod

    memoized = model_mod.join_models
    compared = 0

    def uncached(m0, m1, parent=None):
        return model_mod._join_models_impl(m0, m1, parent)

    def checked(m0, m1, parent=None):
        nonlocal compared
        got = memoized(m0, m1, parent)
        model_mod.join_models = uncached   # the recursion, too
        try:
            want = uncached(m0, m1, parent)
        finally:
            model_mod.join_models = memoized
        assert got == want
        assert str(got) == str(want)
        compared += 1
        return got

    reset_caches()
    monkeypatch.setattr(state_mod, "join_models", checked)
    _lift_all()
    assert compared > 100
    assert cache_stats()["memmodel.join"]["hits"] > 0


def test_lifts_are_the_same_with_cold_and_warm_memos():
    reset_caches()
    cold = [str(result.graph.vertices) for result in _lift_all()]
    warm = [str(result.graph.vertices) for result in _lift_all()]
    assert cold == warm


def test_join_fault_is_caught_after_memos_are_warm():
    target = build_target("loop")
    reset_caches()
    baseline = binary_signature(target)
    stats = cache_stats()
    assert all(stats[name]["size"] > 0 for name in NEW_MEMOS)
    with faults.inject("join-keeps-left"):
        # inject() starts from empty memos: every join memo is registered.
        stats = cache_stats()
        assert all(stats[name]["size"] == 0 for name in NEW_MEMOS)
        faulty = binary_signature(target)
    assert signature_diff(baseline, faulty)


# -- interval intersection does not depend on set order ------------------------


def test_intersection_is_independent_of_clause_order():
    x, y = Var("x"), Var("y")
    clauses = [
        Clause(x, "leu", Const(7)), Clause(x, "geu", Const(3)),
        Clause(x, "ges", Const(8)),   # contradicts x <= 7
        Clause(x, "lts", Const(40)), Clause(x, "leu", Const(20)),
        Clause(y, "leu", Const(5)),
    ]
    # The function behind the memo, fed every iteration order outright.
    results = {_intersect_cached.__wrapped__(x, order)
               for order in itertools.permutations(clauses)}
    assert len(results) == 1
    # The same set built in two insertion orders.
    forward, backward = frozenset(clauses), frozenset(reversed(clauses))
    assert forward == backward
    assert _intersect_cached.__wrapped__(x, forward) \
        == _intersect_cached.__wrapped__(x, backward) == results.pop()


def test_contradictory_bounds_give_the_width_interval():
    x = Var("x", 32)
    built = frozenset({Clause(x, "leu", Const(7, 32), 32),
                       Clause(x, "geu", Const(9, 32), 32)})
    interval = _intersect_cached.__wrapped__(x, built)
    assert (interval.lo, interval.hi) == (0, (1 << 32) - 1)


# -- per-instance caches stay out of pickles -------------------------------------


def _sample_predicate() -> Predicate:
    x, n = Var("join@0x401000@rax"), Var("n0")
    return Predicate.make(
        regs={"rax": x, "rdi": n, "rip": Const(0x401000)},
        mem={Region(Var("rsp0"), 8): Var("ret0")},
        clauses=[Clause(x, "leu", Const(n_)) for n_ in (9, 15)]
        + [Clause(n, "ltu", Const(100)), Clause(x, "geu", Const(1)),
           Clause(Var("rsi0"), "ne", Const(0))],
    )


def test_caches_stay_out_of_pickles():
    pred = _sample_predicate()
    hash(pred)
    pred_mod._references(pred)
    caches = {"_hash", "_refnames", "_refs"}
    assert caches <= set(vars(pred))
    loaded = pickle.loads(pickle.dumps(pred))
    assert loaded == pred and not caches & set(vars(loaded))

    tree = MemTree(frozenset({Region(Var("rsp0"), 8), Region(Var("p"), 8)}))
    str(tree), tree.representative()
    assert {"_str", "_rep"} <= set(vars(tree))
    loaded_model = pickle.loads(pickle.dumps(MemModel(frozenset({tree}))))
    (loaded_tree,) = loaded_model.trees
    assert loaded_tree == tree and not {"_str", "_rep"} & set(vars(loaded_tree))


def _values_with_cached_hashes() -> list:
    x = Var("join@0x401000@rax")
    return [Clause(x, "leu", Const(9)), Clause(Var("n0"), "lts", x, 32),
            Region(Var("rsp0"), 8), Region(Const(0x404000), 4)]


@pytest.mark.parametrize("value", _values_with_cached_hashes(), ids=repr)
def test_cached_hashes_stay_out_of_pickles(value):
    fields = tuple(getattr(value, field.name)
                   for field in dataclasses.fields(value))
    fresh = type(value)(*fields)
    before = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
    assert not hasattr(fresh, "_hash")
    assert hash(fresh) == hash(fields)
    assert fresh._hash == hash(fields)  # cached
    assert pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL) == before
    loaded = pickle.loads(before)
    assert loaded == fresh and not hasattr(loaded, "_hash")
    assert hash(loaded) == hash(fields)


_PICKLER = """
import hashlib, pickle, sys
sys.path.insert(0, {tests!r})
from test_join_memos import _sample_predicate
pred = _sample_predicate()
hash(pred)
blob = pickle.dumps(pred, protocol=pickle.HIGHEST_PROTOCOL)
if len(sys.argv) > 1:
    other = pickle.loads(bytes.fromhex(sys.argv[1]))
    print(other == pred, other in {{pred}}, pred in {{other}})
else:
    print(blob.hex())
"""


def _run_under_seed(seed: int, *args: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.join(REPO, "src"))
    script = _PICKLER.format(tests=os.path.join(REPO, "tests"))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_predicate_pickles_do_not_depend_on_the_hash_seed():
    blob1 = _run_under_seed(1)
    blob2 = _run_under_seed(2)
    assert blob1 == blob2
    assert _run_under_seed(2, blob1) == "True True True"

