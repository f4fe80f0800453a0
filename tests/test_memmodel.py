"""Memory-model tests: ins (Def 3.7), holds (Def 3.9), join (Def 3.12).

Includes the paper's running examples: Figure 2 / Example 3.8 (the
three-store snippet producing the aliasing and non-aliasing models) and
Example 3.13 (joining models with different enclosed children).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import (
    Deref, EvalEnv, EvalError, const, evaluate, simplify as s, var,
)
from repro.memmodel import (
    EMPTY,
    MemModel,
    MemTree,
    compile_model,
    ins,
    join_models,
    model_holds,
    relation_in_model,
)
from repro.smt.solver import Region, Relation, region_key

RDI0 = var("rdi0")
RSI0 = var("rsi0")
RSP0 = var("rsp0")


def region(base, offset, size) -> Region:
    return Region(s.add(base, const(offset)), size)


def insert_chain(*regions, model=EMPTY):
    """Insert regions in order; returns the list of forked models."""
    models = [model]
    for reg in regions:
        next_models = []
        for m in models:
            next_models += [r.model for r in ins(reg, m)]
        models = next_models
    return models


# -- basic insertions -----------------------------------------------------------

def test_insert_into_empty():
    results = ins(region(RSP0, -8, 8), EMPTY)
    assert len(results) == 1
    model = results[0].model
    assert region(RSP0, -8, 8) in model.all_regions()


def test_provably_separate_regions_single_model():
    models = insert_chain(region(RSP0, -8, 8), region(RSP0, -16, 8))
    assert len(models) == 1
    assert relation_in_model(
        models[0], region(RSP0, -8, 8), region(RSP0, -16, 8)
    ) is Relation.SEPARATE


def test_provable_enclosure_nests():
    models = insert_chain(region(RSI0, 0, 8), region(RSI0, 4, 4))
    assert len(models) == 1
    assert relation_in_model(
        models[0], region(RSI0, 4, 4), region(RSI0, 0, 8)
    ) is Relation.ENCLOSED


def test_unknown_same_size_forks_alias_and_separate():
    """Figure 1: [edi, 4] vs [esi, 4] forks into ≡ and ⋈ models."""
    models = insert_chain(Region(RDI0, 4), Region(RSI0, 4))
    relations = {
        relation_in_model(m, Region(RDI0, 4), Region(RSI0, 4)) for m in models
    }
    assert relations == {Relation.ALIAS, Relation.SEPARATE}


def test_example_3_8_figure_2():
    """The three-store snippet: [rdi,8], [rsi+4,4], [rsi,8] produces the
    aliasing and non-aliasing models of Figure 2."""
    models = insert_chain(
        Region(RDI0, 8), region(RSI0, 4, 4), Region(RSI0, 8)
    )
    # In every model, [rsi+4, 4] is enclosed within [rsi, 8].
    for model in models:
        assert relation_in_model(
            model, region(RSI0, 4, 4), Region(RSI0, 8)
        ) is Relation.ENCLOSED
    relations = {
        relation_in_model(m, Region(RDI0, 8), Region(RSI0, 8)) for m in models
    }
    assert Relation.ALIAS in relations
    assert Relation.SEPARATE in relations
    aliasing = [
        m for m in models
        if relation_in_model(m, Region(RDI0, 8), Region(RSI0, 8)) is Relation.ALIAS
    ]
    # In the aliasing model the child is also enclosed in [rdi, 8]'s node.
    assert relation_in_model(
        aliasing[0], region(RSI0, 4, 4), Region(RDI0, 8)
    ) is Relation.ENCLOSED


def test_stack_vs_global_no_fork():
    models = insert_chain(region(RSP0, -8, 8), Region(const(0x404000), 8))
    assert len(models) == 1
    assert relation_in_model(
        models[0], region(RSP0, -8, 8), Region(const(0x404000), 8)
    ) is Relation.SEPARATE


def test_alignment_assumption_recorded_on_fork():
    results = ins(Region(RSI0, 4), MemModel(frozenset({MemTree.leaf(Region(RDI0, 4))})))
    assert all(
        any(a.kind == "alignment" for a in r.assumptions) for r in results
    )


def test_partial_overlap_possibility_destroys():
    """Odd-sized regions with unknown relation destroy the overlapping tree."""
    first = Region(RDI0, 3)
    second = Region(RSI0, 8)
    models = insert_chain(first, second)
    destroyed = [m for m in models if m.destroyed]
    assert destroyed, "expected a destroy branch"
    assert any(first in m.destroyed for m in destroyed)


def test_insert_into_destroyed_region_stays_destroyed():
    base = MemModel(destroyed=frozenset({Region(RDI0, 8)}))
    results = ins(Region(RDI0, 8), base)
    assert len(results) == 1
    assert Region(RDI0, 8) in results[0].model.destroyed


def test_reinserting_same_region_is_stable():
    models = insert_chain(region(RSP0, -8, 8))
    again = insert_chain(region(RSP0, -8, 8), model=models[0])
    assert again == models


# -- Definition 3.9: concrete satisfaction --------------------------------------------

def env_with(**variables):
    return EvalEnv(variables=variables)


def test_alias_model_holds_only_when_aliasing():
    models = insert_chain(Region(RDI0, 4), Region(RSI0, 4))
    alias_model = next(
        m for m in models
        if relation_in_model(m, Region(RDI0, 4), Region(RSI0, 4)) is Relation.ALIAS
    )
    sep_model = next(
        m for m in models
        if relation_in_model(m, Region(RDI0, 4), Region(RSI0, 4)) is Relation.SEPARATE
    )
    aliased = env_with(rdi0=0x1000, rsi0=0x1000)
    distinct = env_with(rdi0=0x1000, rsi0=0x2000)
    assert model_holds(alias_model, aliased)
    assert not model_holds(alias_model, distinct)
    assert model_holds(sep_model, distinct)
    assert not model_holds(sep_model, aliased)


def test_figure_2_model_satisfaction_example_3_10():
    models = insert_chain(Region(RDI0, 8), region(RSI0, 4, 4), Region(RSI0, 8))
    aliasing = next(
        m for m in models
        if relation_in_model(m, Region(RDI0, 8), Region(RSI0, 8)) is Relation.ALIAS
    )
    separate = next(
        m for m in models
        if relation_in_model(m, Region(RDI0, 8), Region(RSI0, 8)) is Relation.SEPARATE
    )
    assert model_holds(aliasing, env_with(rdi0=0x100, rsi0=0x100))
    assert not model_holds(aliasing, env_with(rdi0=0x100, rsi0=0x200))
    assert model_holds(separate, env_with(rdi0=0x100, rsi0=0x200))
    assert not model_holds(separate, env_with(rdi0=0x100, rsi0=0x104))


# -- Definition 3.12: join -------------------------------------------------------------

def test_join_identical_models_is_identity():
    model = insert_chain(region(RSP0, -8, 8), region(RSP0, -16, 8))[0]
    assert join_models(model, model) == model


def test_join_example_3_13():
    """[rdi,8] with child [rdi,4]  ⊔  [rdi,8] with child [rdi+4,4]
    == [rdi,8] with both children as separate siblings."""
    m0 = insert_chain(Region(RDI0, 8), region(RDI0, 0, 4))[0]
    m1 = insert_chain(Region(RDI0, 8), region(RDI0, 4, 4))[0]
    joined = join_models(m0, m1)
    assert relation_in_model(joined, region(RDI0, 0, 4), Region(RDI0, 8)) \
        is Relation.ENCLOSED
    assert relation_in_model(joined, region(RDI0, 4, 4), Region(RDI0, 8)) \
        is Relation.ENCLOSED
    assert relation_in_model(joined, region(RDI0, 0, 4), region(RDI0, 4, 4)) \
        is Relation.SEPARATE


def test_join_keeps_one_sided_tree_with_trivial_claims():
    """A single-region tree claims nothing, so it survives a join with ∅."""
    m0 = insert_chain(Region(RDI0, 8))[0]
    joined = join_models(m0, EMPTY)
    assert Region(RDI0, 8) in joined.all_regions()


def test_join_drops_one_sided_forked_claims():
    """A forked (non-necessary) alias claim must NOT survive a one-sided
    join: the other side's states need not alias."""
    models = insert_chain(Region(RDI0, 4), Region(RSI0, 4))
    alias_model = next(
        m for m in models
        if relation_in_model(m, Region(RDI0, 4), Region(RSI0, 4)) is Relation.ALIAS
    )
    joined = join_models(alias_model, EMPTY)
    assert relation_in_model(joined, Region(RDI0, 4), Region(RSI0, 4)) is None


def test_join_conflicting_relations_drops_info():
    """alias-model ⊔ separate-model keeps no claim about the pair."""
    models = insert_chain(Region(RDI0, 4), Region(RSI0, 4))
    alias_model = next(
        m for m in models
        if relation_in_model(m, Region(RDI0, 4), Region(RSI0, 4)) is Relation.ALIAS
    )
    sep_model = next(
        m for m in models
        if relation_in_model(m, Region(RDI0, 4), Region(RSI0, 4)) is Relation.SEPARATE
    )
    joined = join_models(alias_model, sep_model)
    assert relation_in_model(joined, Region(RDI0, 4), Region(RSI0, 4)) is None


def test_join_union_of_destroyed():
    m0 = MemModel(destroyed=frozenset({Region(RDI0, 8)}))
    m1 = MemModel(destroyed=frozenset({Region(RSI0, 8)}))
    joined = join_models(m0, m1)
    assert joined.destroyed == frozenset({Region(RDI0, 8), Region(RSI0, 8)})


# -- Lemma 3.14 as a property: s |= M0 or M1  =>  s |= M0 ⊔ M1 ------------------------

@settings(max_examples=200)
@given(
    rdi=st.integers(min_value=0, max_value=0x80).map(lambda v: v * 8),
    rsi=st.integers(min_value=0, max_value=0x80).map(lambda v: v * 8),
    pick_first=st.booleans(),
)
def test_prop_join_soundness_lemma_3_14(rdi, rsi, pick_first):
    models = insert_chain(Region(RDI0, 8), Region(RSI0, 8))
    env = env_with(rdi0=rdi, rsi0=rsi)
    satisfied = [m for m in models if model_holds(m, env)]
    assert satisfied, "forked models must cover every aligned state"
    chosen = satisfied[0]
    other = models[0] if not pick_first else models[-1]
    joined = join_models(chosen, other)
    assert model_holds(joined, env)


# -- Lemma 3.11 as a property: insertion covers every aligned configuration ----------

@settings(max_examples=150)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=15).map(lambda v: v * 8),
        min_size=2, max_size=4,
    )
)
def test_prop_insertion_completeness_lemma_3_11(addrs):
    """For any concrete assignment of 8-aligned addresses, some forked model
    holds after inserting one 8-byte region per distinct symbolic base."""
    bases = [var(f"p{i}") for i in range(len(addrs))]
    models = [EMPTY]
    for base in bases:
        next_models = []
        for model in models:
            next_models += [r.model for r in ins(Region(base, 8), model)]
        models = next_models
    env = env_with(**{f"p{i}": addr for i, addr in enumerate(addrs)})
    assert any(model_holds(m, env) for m in models)


@settings(max_examples=120)
@given(
    layouts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12).map(lambda v: v * 8),
            st.sampled_from([4, 8]),
        ),
        min_size=2, max_size=4,
    )
)
def test_prop_insertion_completeness_mixed_sizes(layouts):
    """Lemma 3.11 with mixed 4/8-byte regions: some forked model holds for
    every aligned concrete placement (including enclosures)."""
    bases = [var(f"q{i}") for i in range(len(layouts))]
    models = [EMPTY]
    for base, (_, size) in zip(bases, layouts):
        next_models = []
        for model in models:
            next_models += [r.model for r in ins(Region(base, size), model)]
        models = next_models
    env = env_with(**{f"q{i}": addr for i, (addr, _) in enumerate(layouts)})
    assert any(model_holds(m, env) for m in models), [str(m) for m in models]


@settings(max_examples=100)
@given(
    offsets=st.lists(st.integers(min_value=-16, max_value=16), min_size=2,
                     max_size=3),
    sizes=st.lists(st.sampled_from([4, 8]), min_size=2, max_size=3),
)
def test_prop_same_base_insertions_never_fork(offsets, sizes):
    """Same-base const-offset regions always have decidable relations:
    insertion must not fork (precision, not just soundness)."""
    model = EMPTY
    count = min(len(offsets), len(sizes))
    for offset, size in zip(offsets[:count], sizes[:count]):
        results = ins(Region(s.add(RSP0, const(offset * 4)), size), model)
        assert len(results) == 1, [str(r.model) for r in results]
        model = results[0].model


# -- Definition 3.9 on spans: intervals vs byte sets -----------------------------
#
# model_holds decides region equality, enclosure and separation on half-open
# address intervals.  The reference below is the definition on explicit byte
# sets; both must agree, including on empty (size-0) regions and on spans
# that run past 2**64 (which neither wraps).


def _bytes_of(region: Region, env) -> set:
    addr = evaluate(region.addr, env)
    return set(range(addr, addr + region.size))


def _reference_tree_holds(tree: MemTree, env) -> bool:
    try:
        spans = [_bytes_of(r, env) for r in tree.regions]
    except EvalError:
        return False
    first = spans[0]
    if any(span != first for span in spans[1:]):
        return False
    for child in tree.children:
        try:
            child_span = _bytes_of(child.representative(), env)
        except EvalError:
            return False
        if not child_span <= first or not _reference_tree_holds(child, env):
            return False
    return _reference_forest_separate(tree.children, env)


def _reference_forest_separate(trees, env) -> bool:
    try:
        spans = [_bytes_of(tree.representative(), env) for tree in trees]
    except EvalError:
        return False
    return all(not (left & right) for i, left in enumerate(spans)
               for right in spans[i + 1:])


def _reference_model_holds(model: MemModel, env) -> bool:
    return _reference_forest_separate(model.trees, env) and all(
        _reference_tree_holds(tree, env) for tree in model.trees)


# -- the tree walk: the order compile_model evaluates addresses in ---------------
#
# The definition read as a walk over intervals, stopping at the first failed
# check or unresolvable address, visiting trees and children in str order
# and a node's regions in region_key order.  compile_model must make this
# walk's first reads, in the same order, and stop where it stops: an
# address that reads initial memory draws unseen bytes at random during
# Step-2 replay, so the order is part of the witness stream.  (The walk
# evaluates a representative up to three times; the repeats read bytes
# already drawn, so compile_model evaluates each address once.)  The order
# is fixed by the model's contents, so equal models read alike however
# their sets iterate.


def _walk_span(region: Region, env) -> tuple[int, int]:
    addr = evaluate(region.addr, env)
    return addr, addr + region.size


def _walk_equal(a, b) -> bool:
    if a[1] <= a[0] or b[1] <= b[0]:
        return a[1] <= a[0] and b[1] <= b[0]
    return a == b


def _walk_within(inner, outer) -> bool:
    return inner[1] <= inner[0] or (outer[0] <= inner[0]
                                    and inner[1] <= outer[1])


def walk_tree_holds(tree: MemTree, env) -> bool:
    try:
        spans = [_walk_span(region, env)
                 for region in sorted(tree.regions, key=region_key)]
    except EvalError:
        return False
    first = spans[0]
    if any(not _walk_equal(span, first) for span in spans[1:]):
        return False
    for child in sorted(tree.children, key=str):
        try:
            child_span = _walk_span(child.representative(), env)
        except EvalError:
            return False
        if not _walk_within(child_span, first):
            return False
        if not walk_tree_holds(child, env):
            return False
    return walk_forest_separate(tree.children, env)


def walk_forest_separate(trees, env) -> bool:
    spans = []
    for tree in sorted(trees, key=str):
        try:
            spans.append(_walk_span(tree.representative(), env))
        except EvalError:
            return False
    return all(max(left[0], right[0]) >= min(left[1], right[1])
               for i, left in enumerate(spans) for right in spans[i + 1:])


def walk_model_holds(model: MemModel, env) -> bool:
    return walk_forest_separate(model.trees, env) and all(
        walk_tree_holds(tree, env) for tree in sorted(model.trees, key=str))


_TOP = 1 << 64
_BASES = st.sampled_from([RDI0, RSI0, var("unbound")])
_REGIONS = st.builds(
    lambda base, offset, size: region(base, offset, size),
    _BASES, st.sampled_from([0, 2, 4, 8, -4]), st.integers(0, 12))
_TREES = st.recursive(
    st.builds(MemTree, st.frozensets(_REGIONS, min_size=1, max_size=3)),
    lambda children: st.builds(
        MemTree, st.frozensets(_REGIONS, min_size=1, max_size=2),
        st.frozensets(children, max_size=2)),
    max_leaves=5)
_ADDRESSES = st.sampled_from(
    [0, 2, 4, 0x1000, 0x1002, 0x1004, 0x1008, _TOP - 8, _TOP - 4, _TOP - 1])


@settings(max_examples=400, deadline=None)
@given(trees=st.frozensets(_TREES, max_size=3), rdi0=_ADDRESSES,
       rsi0=_ADDRESSES)
def test_prop_span_checks_match_byte_sets(trees, rdi0, rsi0):
    model = MemModel(trees)
    env = env_with(rdi0=rdi0, rsi0=rsi0)
    expected = _reference_model_holds(model, env)
    assert model_holds(model, env) == expected
    assert compile_model(model)(env) == expected
    assert walk_model_holds(model, env) == expected
    for tree in trees:
        single = MemModel(frozenset({tree}))
        assert model_holds(single, env) == _reference_tree_holds(tree, env)
        assert walk_tree_holds(tree, env) == _reference_tree_holds(tree, env)


def test_empty_regions_behave_as_empty_byte_sets():
    empty_a, empty_b = Region(RDI0, 0), Region(RSI0, 0)
    full = Region(RSI0, 8)
    env = env_with(rdi0=0x1004, rsi0=0x1000)

    def single(tree):
        return MemModel(frozenset({tree}))

    # Two empty spans are equal wherever they sit; empty vs full is not.
    assert model_holds(single(MemTree(frozenset({empty_a, empty_b}))), env)
    assert not model_holds(single(MemTree(frozenset({empty_a, full}))), env)
    # An empty child lies inside any parent, even one it does not touch.
    parent = MemTree(frozenset({full}),
                     frozenset({MemTree.leaf(Region(var("rdx0"), 0))}))
    assert model_holds(single(parent),
                       EvalEnv(variables={"rsi0": 0x1000, "rdx0": 0x9000}))
    # An empty sibling overlaps nothing, even at the same address.
    model = MemModel(frozenset({MemTree.leaf(full),
                                MemTree.leaf(Region(RDI0, 0))}))
    assert model_holds(model, env)


def test_spans_past_two_to_the_64_do_not_wrap():
    high, low = Region(RDI0, 8), Region(RSI0, 4)
    model = MemModel(frozenset({MemTree.leaf(high), MemTree.leaf(low)}))
    env = env_with(rdi0=_TOP - 4, rsi0=0)
    assert model_holds(model, env) == _reference_model_holds(model, env)
    assert model_holds(model, env)
    clash = env_with(rdi0=_TOP - 4, rsi0=_TOP - 2)
    assert not model_holds(model, clash)


# -- read order: compile_model against the tree walk ----------------------------

#: Pointer cells: region i's address is the pointer stored in cell i.
_CELL = 0x8000


def _via_cell(index: int, size: int) -> Region:
    return Region(Deref(const(_CELL + 8 * index), 8), size)


#: Three aliasing 16-byte regions (cells 0, 1, 5) enclosing two 8-byte
#: halves (cells 2, 3), a separate leaf (cell 4) and a leaf at a plain
#: variable.
_CELL_MODEL = MemModel(frozenset({
    MemTree(frozenset({_via_cell(0, 16), _via_cell(1, 16), _via_cell(5, 16)}),
            frozenset({MemTree.leaf(_via_cell(2, 8)),
                       MemTree.leaf(_via_cell(3, 8))})),
    MemTree.leaf(_via_cell(4, 8)),
    MemTree.leaf(Region(RSI0, 8)),
}))
_CELLS = {0: 0x1000, 1: 0x1000, 2: 0x1000, 3: 0x1008, 4: 0x2000, 5: 0x1000}


def _first_reads(log: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return list(dict.fromkeys(log))


def _logging_env(cells: dict[int, int], **variables):
    log: list[tuple[int, int]] = []

    def read(addr: int, size: int) -> int:
        log.append((addr, size))
        return cells[(addr - _CELL) // 8]

    return EvalEnv(variables=variables, read_mem=read), log


@pytest.mark.parametrize("change, holds", [
    ({}, True),
    ({4: 0x1004}, False),           # top-level siblings overlap
    ({1: 0x1010}, False),           # node-mates do not alias (cell 5
                                    # is still read)
    ({3: 0x1010}, False),           # a child leaves its parent
    ({3: 0x1004}, False),           # sibling children overlap
    ({"unbound": True}, False),     # an address cannot be evaluated
])
def test_compiled_check_reads_what_the_tree_walk_reads(change, holds):
    cells = {**_CELLS, **{k: v for k, v in change.items() if k != "unbound"}}
    variables = {} if "unbound" in change else {"rsi0": 0x3000}
    env, log = _logging_env(cells, **variables)
    ref_env, ref_log = _logging_env(cells, **variables)
    assert walk_model_holds(_CELL_MODEL, ref_env) is holds
    assert compile_model(_CELL_MODEL)(env) is holds
    # Every cell is read once, in the order the walk first reads it.
    assert log == _first_reads(ref_log)
    if holds:
        assert len(log) == 6


_CELL_REGIONS = st.builds(
    lambda index, size: _via_cell(index, size),
    st.integers(0, 5), st.sampled_from([0, 4, 8, 16]))
_CELL_TREES = st.recursive(
    st.builds(MemTree, st.frozensets(_CELL_REGIONS | _REGIONS,
                                     min_size=1, max_size=3)),
    lambda children: st.builds(
        MemTree, st.frozensets(_CELL_REGIONS, min_size=1, max_size=2),
        st.frozensets(children, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(trees=st.frozensets(_CELL_TREES, max_size=3),
       cells=st.lists(st.sampled_from([0x1000, 0x1004, 0x1008, 0x1010]),
                      min_size=6, max_size=6),
       rdi0=_ADDRESSES)
def test_prop_compiled_check_reads_what_the_tree_walk_reads(trees, cells,
                                                            rdi0):
    model = MemModel(trees)
    cells = dict(enumerate(cells))
    env, log = _logging_env(cells, rdi0=rdi0, rsi0=0x1000)
    ref_env, ref_log = _logging_env(cells, rdi0=rdi0, rsi0=0x1000)
    assert compile_model(model)(env) == walk_model_holds(model, ref_env)
    assert _first_reads(log) == _first_reads(ref_log)
