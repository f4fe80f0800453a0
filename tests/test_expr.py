"""Expression AST, simplifier soundness, substitution, concrete evaluation.

The central property (checked with hypothesis): every simplifying
constructor agrees with naive modular arithmetic on random concrete inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import (
    App,
    Const,
    Deref,
    EvalEnv,
    EvalError,
    const,
    evaluate,
    is_constant_expr,
    mask,
    simplify as s,
    subst_vars,
    to_signed,
    var,
)
from repro.expr.ast import FlagRef, RegRef, Var

X = var("x")
Y = var("y")
Z = var("z")


# -- canonical linear sums ----------------------------------------------------

def test_add_folds_constants():
    assert s.add(const(3), const(4)) == const(7)


def test_sub_cancels_equal_terms():
    assert s.sub(X, X) == const(0)


def test_stack_pointer_arithmetic_collapses():
    rsp = var("rsp0")
    pushed = s.sub(rsp, const(8))
    popped = s.add(pushed, const(8))
    assert popped == rsp


def test_sum_collects_coefficients():
    expr = s.add(s.add(X, X), s.mul(X, const(2)))
    assert expr == s.mul(X, const(4))


def test_sum_is_order_insensitive():
    left = s.add(s.add(X, Y), const(5))
    right = s.add(const(5), s.add(Y, X))
    assert left == right


def test_mul_distributes_constant_over_sum():
    expr = s.mul(s.add(X, const(3)), const(4))
    assert expr == s.add(s.mul(X, const(4)), const(12))


def test_shl_by_constant_becomes_mul():
    assert s.shl(X, const(2)) == s.mul(X, const(4))


def test_neg_absorbed_into_sum():
    assert s.add(X, s.neg(X)) == const(0)


def test_mul_by_zero_and_one():
    assert s.mul(X, const(0)) == const(0)
    assert s.mul(X, const(1)) == X


# -- bit operations -----------------------------------------------------------

def test_xor_self_is_zero():
    assert s.xor(X, X) == const(0)


def test_and_or_idempotent():
    assert s.and_(X, X) == X
    assert s.or_(X, X) == X


def test_and_with_zero_and_mask():
    assert s.and_(X, const(0)) == const(0)
    assert s.and_(X, const((1 << 64) - 1)) == X


def test_zext_of_zext_collapses():
    x8 = var("b", 8)
    assert s.zext(s.zext(x8, 32), 64) == s.zext(x8, 64)


def test_low_of_zext_narrows():
    x8 = var("b", 8)
    assert s.low(s.zext(x8, 64), 32) == s.zext(x8, 32)


def test_low_raises_on_widening():
    x8 = var("b", 8)
    with pytest.raises(ValueError):
        s.low(x8, 32)


# -- constant expressions (paper's C) -----------------------------------------

def test_is_constant_expr():
    assert is_constant_expr(s.add(X, const(4)))
    assert is_constant_expr(Deref(s.add(X, const(8)), 8))
    assert not is_constant_expr(RegRef("rax"))
    assert not is_constant_expr(s.add(RegRef("rax"), const(4)))
    assert not is_constant_expr(App("eq", (FlagRef("zf"), const(1, 1)), 1))


# -- substitution --------------------------------------------------------------

def test_subst_refolds():
    expr = s.add(X, const(5))
    assert subst_vars(expr, {"x": const(10)}) == const(15)


def test_subst_inside_deref():
    expr = Deref(s.add(X, const(8)), 8)
    result = subst_vars(expr, {"x": var("rsp0")})
    assert result == Deref(s.add(var("rsp0"), const(8)), 8)


def test_subst_cancellation():
    expr = s.sub(Y, X)
    assert subst_vars(expr, {"y": X}) == const(0)


# -- concrete evaluation: differential property against Python ints -----------

ops_and_py = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("and_", lambda a, b: a & b),
    ("or_", lambda a, b: a | b),
    ("xor", lambda a, b: a ^ b),
]


@settings(max_examples=300)
@given(
    a=st.integers(min_value=0, max_value=(1 << 64) - 1),
    b=st.integers(min_value=0, max_value=(1 << 64) - 1),
    op_index=st.integers(min_value=0, max_value=len(ops_and_py) - 1),
)
def test_prop_constructors_match_modular_arithmetic(a, b, op_index):
    name, py = ops_and_py[op_index]
    ctor = getattr(s, name)
    # Fully concrete: constructor must fold.
    folded = ctor(const(a), const(b))
    assert isinstance(folded, Const)
    assert folded.value == py(a, b) & ((1 << 64) - 1)
    # Symbolic then evaluated: must agree with the folded value.
    sym = ctor(X, Y)
    env = EvalEnv(variables={"x": a, "y": b})
    assert evaluate(sym, env) == folded.value


@settings(max_examples=200)
@given(
    a=st.integers(min_value=0, max_value=(1 << 64) - 1),
    shift=st.integers(min_value=0, max_value=63),
)
def test_prop_shifts(a, shift):
    env = EvalEnv(variables={"x": a})
    assert evaluate(s.shl(X, const(shift)), env) == (a << shift) & ((1 << 64) - 1)
    assert evaluate(s.shr(X, const(shift)), env) == a >> shift
    assert evaluate(s.sar(X, const(shift)), env) == (
        to_signed(a, 64) >> shift
    ) & ((1 << 64) - 1)


@settings(max_examples=200)
@given(
    a=st.integers(min_value=0, max_value=(1 << 64) - 1),
    b=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_prop_comparisons(a, b):
    env = EvalEnv(variables={"x": a, "y": b})
    assert evaluate(s.ltu(X, Y), env) == int(a < b)
    assert evaluate(s.leu(X, Y), env) == int(a <= b)
    assert evaluate(s.lts(X, Y), env) == int(to_signed(a, 64) < to_signed(b, 64))
    assert evaluate(s.eq(X, Y), env) == int(a == b)


@settings(max_examples=150)
@given(
    a=st.integers(min_value=0, max_value=(1 << 64) - 1),
    b=st.integers(min_value=1, max_value=(1 << 64) - 1),
)
def test_prop_division(a, b):
    env = EvalEnv(variables={"x": a, "y": b})
    assert evaluate(s.udiv(X, Y), env) == a // b
    assert evaluate(s.urem(X, Y), env) == a % b
    sa, sb = to_signed(a, 64), to_signed(b, 64)
    expected_q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        expected_q = -expected_q
    assert to_signed(evaluate(s.sdiv(X, Y), env), 64) == expected_q


@settings(max_examples=200)
@given(
    a=st.integers(min_value=0, max_value=(1 << 64) - 1),
    coeffs=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
)
def test_prop_linear_sum_canonicalization_sound(a, coeffs):
    """Building a sum term-by-term equals evaluating the canonical form."""
    expr = const(0)
    expected = 0
    for coeff in coeffs:
        expr = s.add(expr, s.mul(X, const(coeff)))
        expected = (expected + coeff * a) & ((1 << 64) - 1)
    env = EvalEnv(variables={"x": a})
    assert evaluate(expr, env) == expected


def test_deref_evaluation_uses_memory_reader():
    memory = {0x1000: 0xDEADBEEF}

    def read(addr, size):
        return memory.get(addr, 0)

    env = EvalEnv(variables={"x": 0x1000}, read_mem=read)
    assert evaluate(Deref(X, 4), env) == 0xDEADBEEF


def test_ite_evaluation():
    env = EvalEnv(variables={"x": 1, "y": 7, "z": 9})
    cond = s.eq(X, const(1))
    assert evaluate(s.ite(cond, Y, Z), env) == 7
    env2 = EvalEnv(variables={"x": 0, "y": 7, "z": 9})
    assert evaluate(s.ite(cond, Y, Z), env2) == 9


# -- compiled evaluation vs the reference tree walk ------------------------------
#
# ``evaluate`` runs the closure ``compile_expr`` builds.  The reference below
# is the direct recursive definition of evaluation; the compiled closure must
# agree with it on values, on the error raised (type and message) and on the
# sequence of memory reads, since ``Deref`` reads can draw random bytes.


def _reference_evaluate(expr, env):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env.variables:
            raise EvalError(f"unbound variable {expr.name}")
        return env.variables[expr.name] & mask(expr.width)
    if isinstance(expr, RegRef):
        if expr.name not in env.registers:
            raise EvalError(f"unbound register {expr.name}")
        return env.registers[expr.name] & mask(expr.width)
    if isinstance(expr, FlagRef):
        if expr.name not in env.flags:
            raise EvalError(f"unbound flag {expr.name}")
        return env.flags[expr.name] & 1
    if isinstance(expr, Deref):
        if env.read_mem is None:
            raise EvalError("no memory reader in environment")
        addr = _reference_evaluate(expr.addr, env)
        return env.read_mem(addr, expr.size) & mask(expr.width)
    if isinstance(expr, App):
        return _reference_app(expr, env)
    raise TypeError(f"unknown expression type: {expr!r}")


def _reference_app(expr, env):
    width = expr.width
    op = expr.op
    args = expr.args

    if op == "ite":
        cond = _reference_evaluate(args[0], env)
        return _reference_evaluate(args[1] if cond & 1 else args[2], env) & mask(width)

    vals = [_reference_evaluate(arg, env) for arg in args]

    if op == "add":
        return sum(vals) & mask(width)
    if op == "sub":
        return (vals[0] - vals[1]) & mask(width)
    if op == "mul":
        product = 1
        for val in vals:
            product *= val
        return product & mask(width)
    if op == "neg":
        return (-vals[0]) & mask(width)
    if op == "and":
        return vals[0] & vals[1] & mask(width)
    if op == "or":
        return (vals[0] | vals[1]) & mask(width)
    if op == "xor":
        return (vals[0] ^ vals[1]) & mask(width)
    if op == "not":
        return (~vals[0]) & mask(width)
    if op == "shl":
        return (vals[0] << (vals[1] & (width - 1))) & mask(width)
    if op == "shr":
        return ((vals[0] & mask(width)) >> (vals[1] & (width - 1))) & mask(width)
    if op == "sar":
        return (to_signed(vals[0], width) >> (vals[1] & (width - 1))) & mask(width)
    if op == "udiv":
        if vals[1] == 0:
            raise EvalError("division by zero")
        return (vals[0] // vals[1]) & mask(width)
    if op == "urem":
        if vals[1] == 0:
            raise EvalError("division by zero")
        return (vals[0] % vals[1]) & mask(width)
    if op == "sdiv":
        if vals[1] == 0:
            raise EvalError("division by zero")
        left, right = to_signed(vals[0], width), to_signed(vals[1], width)
        if right == 0:
            raise EvalError("division by zero")
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        return quotient & mask(width)
    if op == "srem":
        if vals[1] == 0:
            raise EvalError("division by zero")
        left, right = to_signed(vals[0], width), to_signed(vals[1], width)
        if right == 0:
            raise EvalError("division by zero")
        remainder = abs(left) % abs(right)
        if left < 0:
            remainder = -remainder
        return remainder & mask(width)
    if op == "zext":
        return vals[0] & mask(args[0].width)
    if op == "sext":
        return to_signed(vals[0], args[0].width) & mask(width)
    if op == "low":
        return vals[0] & mask(width)
    if op == "eq":
        arg_width = max(args[0].width, args[1].width)
        return int((vals[0] & mask(arg_width)) == (vals[1] & mask(arg_width)))
    if op == "ltu":
        arg_width = max(args[0].width, args[1].width)
        return int((vals[0] & mask(arg_width)) < (vals[1] & mask(arg_width)))
    if op == "leu":
        arg_width = max(args[0].width, args[1].width)
        return int((vals[0] & mask(arg_width)) <= (vals[1] & mask(arg_width)))
    if op == "lts":
        arg_width = max(args[0].width, args[1].width)
        return int(to_signed(vals[0], arg_width) < to_signed(vals[1], arg_width))
    if op == "les":
        arg_width = max(args[0].width, args[1].width)
        return int(to_signed(vals[0], arg_width) <= to_signed(vals[1], arg_width))
    if op == "bool_not":
        return 1 - (vals[0] & 1)
    if op == "bool_and":
        return vals[0] & vals[1] & 1
    if op == "bool_or":
        return (vals[0] | vals[1]) & 1
    if op == "parity":
        return 1 - (bin(vals[0] & 0xFF).count("1") & 1)
    raise EvalError(f"unhandled operator {op}")


def _recording_env(variables, registers=None, flags=None, reads=None):
    """An environment whose memory reader logs every (addr, size) it sees."""
    def read(addr, size):
        reads.append((addr, size))
        return (addr * 0x9E3779B97F4A7C15 + size) & ((1 << 64) - 1)

    return EvalEnv(variables=dict(variables), registers=registers or {},
                   flags=flags or {}, read_mem=None if reads is None else read)


def _outcome(evaluator, expr, variables, registers=None, flags=None,
             with_reader=True):
    """(value or (error type, message), memory reads) of one evaluation."""
    reads = [] if with_reader else None
    env = _recording_env(variables, registers, flags, reads)
    try:
        value = evaluator(expr, env)
    except (EvalError, TypeError) as exc:
        value = (type(exc), str(exc))
    return value, reads


def _assert_agrees(expr, variables, registers=None, flags=None,
                   with_reader=True):
    compiled = _outcome(evaluate, expr, variables, registers, flags,
                        with_reader)
    reference = _outcome(_reference_evaluate, expr, variables, registers,
                         flags, with_reader)
    assert compiled == reference, expr


def _sweep_expressions() -> set:
    """Every sub-expression of the states lifted from the sweep's forms."""
    import random

    from repro.hoare import lift
    from repro.qa.diffsweep import _build_binary, forms

    found = set()
    for form in forms():
        body, _ = form.build(random.Random(f"2022:{form.name}"))
        cc = body[1] if isinstance(body, tuple) else None
        result = lift(_build_binary(body if cc is None else None, cc))
        for state in result.graph.vertices.values():
            pred = state.pred
            roots = [value for _, value in pred.regs]
            roots += [part for region, value in pred.mem
                      for part in (region.addr, value)]
            roots += [side for clause in pred.clauses
                      for side in (clause.lhs, clause.rhs)]
            if pred.flags is not None:
                roots += [pred.flags.a, pred.flags.b]
            for root in roots:
                if root is not None:
                    found.update(root.walk())
    return found


def test_compiled_matches_tree_walk_on_sweep_expressions():
    import random

    rng = random.Random(7)
    expressions = sorted(_sweep_expressions(), key=str)
    assert len(expressions) > 200
    ops = {expr.op for expr in expressions if isinstance(expr, App)}
    assert {"add", "zext", "ite", "lts", "sdiv"} <= ops
    for expr in expressions:
        names = sorted({node.name for node in expr.walk()
                        if isinstance(node, Var)})
        for _ in range(4):
            variables = {name: rng.choice([0, 1, rng.getrandbits(64),
                                           (1 << 64) - rng.randrange(1, 99)])
                         for name in names}
            _assert_agrees(expr, variables)
        if names:  # one variable unbound
            _assert_agrees(expr, {name: 3 for name in names[1:]})
        _assert_agrees(expr, {name: 5 for name in names}, with_reader=False)


_ARITY = {
    "add": (2, 3), "mul": (2, 3), "ite": (3,),
    **{op: (1,) for op in ("neg", "not", "zext", "sext", "low", "bool_not",
                           "parity")},
}
_WIDTHS = st.sampled_from([1, 8, 16, 32, 64])
_LEAVES = st.one_of(
    st.builds(Const, st.integers(min_value=0, max_value=(1 << 64) - 1),
              _WIDTHS),
    st.builds(var, st.sampled_from(["x", "y", "z", "free"]), _WIDTHS),
    st.builds(RegRef, st.sampled_from(["rax", "rbx"]), _WIDTHS),
    st.builds(FlagRef, st.sampled_from(["zf", "cf"])),
)


def _applications(children):
    def build(draw_op, width, values):
        from repro.expr.ast import OPS

        op = sorted(OPS)[draw_op % len(OPS)]
        arity = _ARITY.get(op, (2,))
        count = arity[len(values) % len(arity)]
        args = (values * 3)[:count]
        return App(op, args, width)

    return st.one_of(
        st.builds(build, st.integers(min_value=0), _WIDTHS,
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(Deref, children, st.sampled_from([1, 2, 4, 8])),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _applications, max_leaves=12)
_WORD = st.one_of(st.sampled_from([0, 1, (1 << 63), (1 << 64) - 1]),
                  st.integers(min_value=0, max_value=(1 << 64) - 1))


@settings(max_examples=400, deadline=None)
@given(expr=_EXPRESSIONS, x=_WORD, y=_WORD, z=_WORD, rax=_WORD,
       zf=st.integers(min_value=0, max_value=1))
def test_prop_compiled_matches_tree_walk(expr, x, y, z, rax, zf):
    """Random trees over every operator: values, errors and reads agree.

    ``free`` and ``rbx``/``cf`` are never bound, so errors are raised at
    varying depths; zero operands exercise division by zero."""
    _assert_agrees(expr, {"x": x, "y": y, "z": z}, registers={"rax": rax},
                   flags={"zf": zf})


def test_compiled_error_cases_match_tree_walk():
    from repro.expr.ast import Expr

    unknown = object.__new__(App)
    for field, value in (("op", "bogus"), ("args", (X, Deref(Y, 2))),
                         ("width", 64), ("_hash", hash("bogus"))):
        object.__setattr__(unknown, field, value)
    cases = [
        (X, {}),                                         # unbound variable
        (RegRef("rax"), {}),                             # unbound register
        (FlagRef("zf"), {}),                             # unbound flag
        (s.udiv(X, Y), {"x": 1, "y": 0}),                # division by zero
        (App("srem", (X, Y), 64), {"x": 1, "y": 0}),
        (App("sdiv", (X, Const(2, 8)), 1), {"x": 1}),   # zero at width 1
        (unknown, {"x": 1, "y": 2}),                     # unknown operator
        (App("add", (Deref(X, 8), Z), 64), {"x": 1}),     # read, then unbound
    ]
    for expr, variables in cases:
        compiled, reads = _outcome(evaluate, expr, variables)
        assert isinstance(compiled, tuple), expr
        assert (compiled, reads) == _outcome(_reference_evaluate, expr,
                                             variables)
    # Unknown operator: the arguments are evaluated (and read) first.
    assert _outcome(evaluate, unknown, {"x": 1, "y": 2})[1] == [(2, 2)]
    # No memory reader: raised before the address is evaluated.
    value, _ = _outcome(evaluate, Deref(var("free"), 8), {}, with_reader=False)
    assert value == (EvalError, "no memory reader in environment")
    # Not an expression node at all.
    node = object.__new__(Expr)
    object.__setattr__(node, "_hash", 1)
    assert _outcome(evaluate, node, {}) == _outcome(_reference_evaluate,
                                                    node, {})


def test_compiled_reads_memory_in_tree_walk_order():
    # Arguments left to right, addresses before their reads, and ite
    # evaluates only the branch it takes (the reader never returns 0 here,
    # so the condition is false).
    first, second = Deref(X, 8), Deref(s.add(Y, const(8)), 4)
    expr = App("ite", (s.eq(first, const(0)), Deref(var("free"), 1),
                       App("sub", (second, Deref(Z, 2)), 64)), 64)
    value, reads = _outcome(evaluate, expr, {"x": 16, "y": 32, "z": 48})
    assert reads == [(16, 8), (40, 4), (48, 2)]
    assert (value, reads) == _outcome(_reference_evaluate, expr,
                                      {"x": 16, "y": 32, "z": 48})


def test_compiled_closures_are_memoized_and_reset():
    from repro.expr import compile_expr
    from repro.perf import cache_stats, reset_caches

    expr = s.add(X, const(5))
    assert compile_expr(expr) is compile_expr(expr)
    assert cache_stats()["expr.compiled"]["size"] > 0
    reset_caches()
    assert cache_stats()["expr.compiled"]["size"] == 0
    assert evaluate(expr, EvalEnv(variables={"x": 1})) == 6
