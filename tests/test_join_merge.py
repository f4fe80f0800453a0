"""The merge-walk predicate join against the join it replaced.

:func:`repro.pred.predicate.join_predicates` walks the two sides' sorted
register and memory tuples in one merge pass and answers a part whose two
values are the same object without the value-join memo.  The join it
replaced built a dict per side, sorted the union of the part names and
re-sorted the result; it is kept below as :func:`_reference_join`, and
every join of real lifts and of hand-built corner cases must agree with
it by value and by rendering.

The one place the two may differ is the order of two *distinct* regions
that render alike: the reference took it from set iteration order (a
function of the hash seed), the merge walk from their ``repr``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.expr import Const, Var
from repro.expr.ast import variable_names
from repro.expr.simplify import add
from repro.hoare import lift, lift_function
from repro.minicc import compile_source
from repro.pred import Predicate
from repro.pred.clause import Clause
from repro.pred.flags import FlagState
from repro.pred.predicate import (
    _join_foreign_var_clauses,
    _join_values,
    _referenced_var_names,
    _replace_clauses,
    join_predicates,
)
from repro.qa.targets import build_target
from repro.semantics.state import initial_state
from repro.smt.solver import Region, region_key
from tests.test_join_memos import CORPUS_FUNCTIONS, QA_TARGETS


def _reference_join(p0: Predicate, p1: Predicate, rip: int) -> Predicate:
    """The dict-and-sort predicate join as it was before the merge walk."""
    regs0, regs1 = p0.reg_dict(), p1.reg_dict()
    new_regs: dict = {}
    extra_clauses: list = []
    pair_cache: dict = {}

    def join_pair(name, v0, v1):
        key = (v0, v1)
        if key not in pair_cache:
            pair_cache[key] = _join_values(name, rip, v0, v1,
                                           p0.clauses, p1.clauses)
        return pair_cache[key]

    for name in sorted(set(regs0) & set(regs1)):
        value, bounds = join_pair(name, regs0[name], regs1[name])
        if value is not None:
            new_regs[name] = value
            extra_clauses += bounds

    mem0, mem1 = p0.mem_dict(), p1.mem_dict()
    new_mem: dict = {}
    for region in sorted(set(mem0) | set(mem1), key=region_key):
        v0, v1 = mem0.get(region), mem1.get(region)
        if v0 is not None and v1 is not None:
            value, bounds = join_pair(f"mem@{region_key(region)}", v0, v1)
            if value is not None:
                new_mem[region] = value
                extra_clauses += bounds
                continue
        new_mem[region] = Var(f"mjoin@{rip:#x}@{region_key(region)}")

    flags = None
    f0, f1 = p0.flags, p1.flags
    if f0 == f1:
        flags = f0
    elif (f0 is not None and f1 is not None
          and f0.kind == f1.kind and f0.width == f1.width):
        joined_a, bounds_a = join_pair("flags.a", f0.a, f1.a)
        if f0.b is None and f1.b is None:
            joined_b, bounds_b, b_ok = None, (), True
        elif f0.b is not None and f1.b is not None:
            joined_b, bounds_b = join_pair("flags.b", f0.b, f1.b)
            b_ok = joined_b is not None
        else:
            joined_b, bounds_b, b_ok = None, (), False
        if joined_a is not None and b_ok:
            flags = FlagState(f0.kind, joined_a, joined_b, f0.width)
            extra_clauses += [*bounds_a, *bounds_b]

    def is_join_clause(clause) -> bool:
        return isinstance(clause.lhs, Var) and clause.lhs.name.startswith("join@")

    shared_clauses = frozenset(
        clause for clause in p0.clauses & p1.clauses if not is_join_clause(clause)
    )
    shared_clauses |= _join_foreign_var_clauses(p0, p1, f"join@{rip:#x}@")
    result = Predicate.make(regs=new_regs, flags=flags, mem=new_mem,
                            clauses=shared_clauses | frozenset(extra_clauses))
    live = set(_referenced_var_names(result))
    if result.flags is not None:
        for operand in (result.flags.a, result.flags.b):
            if operand is not None:
                live.update(variable_names(operand))
    cleaned = frozenset(
        clause for clause in result.clauses
        if not (isinstance(clause.lhs, Var)
                and clause.lhs.name.startswith("join@")
                and clause.lhs.name not in live)
    )
    if cleaned != result.clauses:
        result = _replace_clauses(result, cleaned)
    return result


def _assert_same_join(p0: Predicate, p1: Predicate, rip: int) -> Predicate:
    got = join_predicates(p0, p1, rip)
    want = _reference_join(p0, p1, rip)
    assert got == want
    assert str(got) == str(want)
    return got


# -- every join of real lifts ------------------------------------------------


def test_every_join_of_real_lifts_equals_the_reference(monkeypatch):
    import repro.semantics.state as state_mod

    joins = []

    def checked(p0, p1, rip):
        joins.append(rip)
        return _assert_same_join(p0, p1, rip)

    monkeypatch.setattr(state_mod, "join_predicates", checked)
    for name in QA_TARGETS:
        lift(build_target(name), max_states=4000, cache=False)
    for source, entry in CORPUS_FUNCTIONS:
        binary = compile_source(source, name="merge", entry=entry,
                                export_labels=True)
        lift_function(binary, entry, max_states=4000, cache=False)
    assert len(joins) > 500


# -- hand-built corners --------------------------------------------------------

X, Y, N = Var("x0"), Var("y0"), Var("n0")
BOUNDED = Var("join@0x401000@rbx")  # minted at the joining vertex


def _pred(regs=None, mem=None, clauses=(), flags=None) -> Predicate:
    return Predicate.make(regs={"rip": Const(0x401000), **(regs or {})},
                          mem=mem or {}, clauses=clauses, flags=flags)


def test_register_present_on_one_side_only_is_dropped():
    p0 = _pred({"rax": X, "rbx": Y, "rcx": Const(1)})
    p1 = _pred({"rax": X, "rcx": Const(2), "rdx": N})
    joined = _assert_same_join(p0, p1, 0x401000)
    assert joined.get_reg("rbx") is None and joined.get_reg("rdx") is None
    assert joined.get_reg("rax") is X


@pytest.mark.parametrize("left_only", [True, False])
def test_region_present_on_one_side_only_stays_tracked(left_only):
    shared, lone = Region(Var("rsp0"), 8), Region(X, 4)
    small = Region(Const(0x10), 8)   # sorts before the shared region
    one = {shared: Y, lone: Const(7), small: N}
    other = {shared: Y}
    p0, p1 = (_pred(mem=one), _pred(mem=other)) if left_only \
        else (_pred(mem=other), _pred(mem=one))
    joined = _assert_same_join(p0, p1, 0x401000)
    values = dict(joined.mem)
    assert values[shared] is Y
    assert values[lone] == Var(f"mjoin@0x401000@{region_key(lone)}")
    assert [region for region, _ in joined.mem] \
        == sorted(values, key=region_key)


def test_equal_but_not_identical_regions_are_matched():
    region = Region(add(X, Const(8), 64), 8)
    twin = pickle.loads(pickle.dumps(region))
    assert twin == region and twin is not region
    p0 = _pred(mem={region: Const(1)})
    p1 = _pred(mem={twin: Const(1)})
    joined = _assert_same_join(p0, p1, 0x401000)
    assert joined.mem == ((region, Const(1)),)


def test_alike_rendering_regions_get_a_defined_order():
    wide, narrow = Region(Var("p", 64), 8), Region(Var("p", 32), 8)
    assert wide != narrow and str(wide) == str(narrow)
    assert repr(narrow) < repr(wide)
    for mem0, mem1, order in (
        # The sides list them differently: repr order.
        ({wide: X, narrow: Y}, {narrow: Y, wide: X}, [narrow, wide]),
        ({narrow: Y, wide: X}, {wide: X}, [narrow, wide]),
        ({wide: X}, {narrow: Y}, [narrow, wide]),
        ({narrow: Y}, {narrow: Y, wide: Const(3)}, [narrow, wide]),
        # The sides agree: their order stays.
        ({wide: X, narrow: Y}, {wide: X, narrow: Const(3)}, [wide, narrow]),
    ):
        p0, p1 = _pred(mem=mem0), _pred(mem=mem1)
        got = join_predicates(p0, p1, 0x401000)
        want = _reference_join(p0, p1, 0x401000)
        # The reference's order within the run came from set iteration.
        assert dict(got.mem) == dict(want.mem)
        assert [region for region, _ in got.mem] == order
        assert got == join_predicates(p1, p0, 0x401000)


def test_identity_parts_keep_their_bounds_or_get_none():
    bounded = Clause(BOUNDED, "leu", Const(9))
    p0 = _pred({"rax": X, "rbx": BOUNDED, "rcx": Const(4)},
               clauses=[bounded, Clause(X, "ne", Const(0))])
    p1 = _pred({"rax": X, "rbx": BOUNDED, "rcx": Const(4)},
               clauses=[Clause(BOUNDED, "leu", Const(12))])
    joined = _assert_same_join(p0, p1, 0x401000)
    assert Clause(BOUNDED, "leu", Const(12)) in joined.clauses
    assert Clause(X, "ne", Const(0)) not in joined.clauses


def test_flags_join_operand_by_operand():
    flags0 = FlagState("sub", X, Const(3), 64)
    flags1 = FlagState("sub", X, Const(5), 64)
    joined = _assert_same_join(_pred(flags=flags0), _pred(flags=flags1),
                               0x401000)
    assert joined.flags.a is X


# -- per-state caches ------------------------------------------------------------


def test_per_state_keys_stay_out_of_pickles():
    from repro.hoare.graph import code_key

    state = initial_state(0x401000, Var("ret"))
    pred = state.pred
    before = pickle.dumps(state), pickle.dumps(pred)
    assert pred.rip == Const(0x401000) and "_rip" in vars(pred)
    code_key(state, (0x401000, 0x402000))
    assert (pickle.dumps(state), pickle.dumps(pred)) == before
    loaded = pickle.loads(before[0])
    assert loaded == state and "_rip" not in vars(loaded.pred)
