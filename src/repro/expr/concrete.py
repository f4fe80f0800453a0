"""Concrete evaluation of symbolic expressions.

Used to *check* symbolic artifacts against concrete machine states: the
``s ⊢ P`` judgement of the paper needs to evaluate every clause in a
concrete state, and the differential tests evaluate τ's outputs against the
real emulator.

There is one evaluator.  :func:`compile_expr` turns an expression into a
closure ``env -> int`` once; :func:`evaluate` runs that closure.  Step-2
replay evaluates the same few thousand expressions millions of times, so
the per-node dispatch (type tests, operator lookup) is paid once per
distinct expression instead of once per evaluation.  The closure behaves
like a walk of the tree: arguments are evaluated left to right, ``ite``
evaluates only the branch it takes, memory reads happen in the same order,
and an unresolvable reference raises :class:`EvalError` at the same point.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.expr.ast import (
    App,
    Const,
    Deref,
    Expr,
    FlagRef,
    RegRef,
    Var,
    mask,
    to_signed,
)
from repro.perf import register_lru


class EvalEnv:
    """Environment for concrete evaluation.

    *variables* maps Var names to unsigned integers; *read_mem* reads
    ``size`` bytes at a concrete address (little-endian) — typically the
    *initial* memory of the concrete execution, since ``Deref`` denotes
    initial-state reads; *registers*/*flags* resolve transient references.
    """

    def __init__(
        self,
        variables: dict[str, int] | None = None,
        read_mem: Callable[[int, int], int] | None = None,
        registers: dict[str, int] | None = None,
        flags: dict[str, int] | None = None,
    ):
        self.variables = variables or {}
        self.read_mem = read_mem
        self.registers = registers or {}
        self.flags = flags or {}


class EvalError(LookupError):
    """The expression references something the environment cannot resolve."""


Evaluator = Callable[[EvalEnv], int]


def evaluate(expr: Expr, env: EvalEnv) -> int:
    """Evaluate *expr* to an unsigned integer (modulo ``2**expr.width``)."""
    return compile_expr(expr)(env)


@lru_cache(maxsize=1 << 16)
def compile_expr(expr: Expr) -> Evaluator:
    """A closure evaluating *expr* in an environment (memoized).

    Sub-expressions are compiled through this memo too, so a subtree that
    many expressions share is compiled once."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name, m = expr.name, mask(expr.width)

        def variable(env: EvalEnv) -> int:
            try:
                return env.variables[name] & m
            except KeyError:
                raise EvalError(f"unbound variable {name}") from None

        return variable
    if isinstance(expr, RegRef):
        name, m = expr.name, mask(expr.width)

        def register(env: EvalEnv) -> int:
            try:
                return env.registers[name] & m
            except KeyError:
                raise EvalError(f"unbound register {name}") from None

        return register
    if isinstance(expr, FlagRef):
        name = expr.name

        def flag(env: EvalEnv) -> int:
            try:
                return env.flags[name] & 1
            except KeyError:
                raise EvalError(f"unbound flag {name}") from None

        return flag
    if isinstance(expr, Deref):
        return _compile_deref(compile_expr(expr.addr), expr.size,
                              mask(expr.width))
    if isinstance(expr, App):
        return _compile_app(expr)

    def unknown(env: EvalEnv) -> int:
        raise TypeError(f"unknown expression type: {expr!r}")

    return unknown


register_lru("expr.compiled", compile_expr)


def _compile_deref(addr_fn: Evaluator, size: int, m: int) -> Evaluator:
    def deref(env: EvalEnv) -> int:
        if env.read_mem is None:
            raise EvalError("no memory reader in environment")
        addr = addr_fn(env)
        return env.read_mem(addr, size) & m

    return deref


def _compile_app(expr: App) -> Evaluator:
    op, args, width = expr.op, expr.args, expr.width
    fns = tuple(compile_expr(arg) for arg in args)

    if op == "ite":
        cond_fn, then_fn, else_fn = fns
        m = mask(width)

        def ite(env: EvalEnv) -> int:
            if cond_fn(env) & 1:
                return then_fn(env) & m
            return else_fn(env) & m

        return ite

    make = _OPERATORS.get(op)
    kernel = _unhandled(op) if make is None else make(width, args)
    if len(fns) == 1:
        (arg_fn,) = fns
        return lambda env: kernel(arg_fn(env))
    if len(fns) == 2:
        left_fn, right_fn = fns
        if isinstance(args[1], Const):
            # Evaluating a Const has no effect and cannot fail, so reading
            # its value now is indistinguishable from evaluating it later.
            right = args[1].value
            return lambda env: kernel(left_fn(env), right)
        return lambda env: kernel(left_fn(env), right_fn(env))
    return lambda env: kernel(*[fn(env) for fn in fns])


# -- operator kernels ----------------------------------------------------------
#
# ``_OPERATORS[op](width, args)`` returns the operator as a function of the
# argument values, with every width-derived constant computed once.


def _unhandled(op: str):
    def kernel(*vals: int) -> int:
        raise EvalError(f"unhandled operator {op}")

    return kernel


def _add(width: int, args):
    m = mask(width)
    if len(args) == 2:
        return lambda a, b: (a + b) & m
    return lambda *vals: sum(vals) & m


def _mul(width: int, args):
    m = mask(width)

    def kernel(*vals: int) -> int:
        product = 1
        for val in vals:
            product *= val
        return product & m

    return kernel


def _masked(fn):
    """A binary operator whose result is reduced modulo 2**width."""
    def make(width: int, args):
        m = mask(width)
        return lambda a, b: fn(a, b, width) & m

    return make


def _division(signed: bool, remainder: bool):
    def make(width: int, args):
        m = mask(width)

        def kernel(a: int, b: int) -> int:
            if b == 0:
                raise EvalError("division by zero")
            if not signed:
                return (a % b if remainder else a // b) & m
            left, right = to_signed(a, width), to_signed(b, width)
            if right == 0:      # a wider divisor with no bits at *width*
                raise EvalError("division by zero")
            if remainder:
                result = abs(left) % abs(right)
                if left < 0:
                    result = -result
            else:
                result = abs(left) // abs(right)
                if (left < 0) != (right < 0):
                    result = -result
            return result & m

        return kernel

    return make


def _comparison(fn, signed: bool):
    """A comparison at the wider of its two arguments' widths."""
    def make(width: int, args):
        arg_width = max(args[0].width, args[1].width)
        if signed:
            return lambda a, b: int(fn(to_signed(a, arg_width),
                                       to_signed(b, arg_width)))
        m = mask(arg_width)
        return lambda a, b: int(fn(a & m, b & m))

    return make


def _extension(signed: bool):
    def make(width: int, args):
        from_width = args[0].width
        if signed:
            m = mask(width)
            return lambda a: to_signed(a, from_width) & m
        m = mask(from_width)
        return lambda a: a & m

    return make


def _unary(fn):
    def make(width: int, args):
        m = mask(width)
        return lambda a: fn(a) & m

    return make


_OPERATORS = {
    "add": _add,
    "sub": _masked(lambda a, b, width: a - b),
    "mul": _mul,
    "neg": _unary(lambda a: -a),
    "and": _masked(lambda a, b, width: a & b),
    "or": _masked(lambda a, b, width: a | b),
    "xor": _masked(lambda a, b, width: a ^ b),
    "not": _unary(lambda a: ~a),
    "shl": _masked(lambda a, b, width: a << (b & (width - 1))),
    "shr": _masked(lambda a, b, width: (a & mask(width)) >> (b & (width - 1))),
    "sar": _masked(lambda a, b, width: to_signed(a, width) >> (b & (width - 1))),
    "udiv": _division(signed=False, remainder=False),
    "urem": _division(signed=False, remainder=True),
    "sdiv": _division(signed=True, remainder=False),
    "srem": _division(signed=True, remainder=True),
    "zext": _extension(signed=False),
    "sext": _extension(signed=True),
    "low": _unary(lambda a: a),
    "eq": _comparison(lambda a, b: a == b, signed=False),
    "ltu": _comparison(lambda a, b: a < b, signed=False),
    "leu": _comparison(lambda a, b: a <= b, signed=False),
    "lts": _comparison(lambda a, b: a < b, signed=True),
    "les": _comparison(lambda a, b: a <= b, signed=True),
    "bool_not": lambda width, args: lambda a: 1 - (a & 1),
    "bool_and": lambda width, args: lambda a, b: a & b & 1,
    "bool_or": lambda width, args: lambda a, b: (a | b) & 1,
    "parity": lambda width, args: lambda a: 1 - ((a & 0xFF).bit_count() & 1),
}
