"""Smart constructors with aggressive-but-sound simplification.

All pointer arithmetic the lifter produces flows through :func:`add` /
:func:`sub` / :func:`mul`, which maintain a canonical *linear sum* form::

    App("add", (t1, mul(t2, c2), ..., Const(k)))

— non-constant terms sorted deterministically, constant folded last.  This
makes expressions like ``rsp0 - 8 + 8`` collapse to ``rsp0`` syntactically
and gives the SMT layer its linear normal form for free.

Every constructor is *sound*: the returned expression denotes the same
function of the variables as the naive application.
"""

from __future__ import annotations

from functools import lru_cache

from repro.expr.ast import (
    App,
    Const,
    Deref,
    Expr,
    MASK64,
    mask,
    to_signed,
)
from repro.perf import register_lru


def _term_key(expr: Expr) -> str:
    from repro.expr.ast import expr_key

    return expr_key(expr)


def _absorb(expr: Expr, coeff: int, width: int,
            terms: dict[Expr, int]) -> int:
    """Add coeff*expr's non-constant terms into *terms*; return its
    constant part.  (Module-level: a self-recursive closure would be a
    reference cycle per call.)"""
    if coeff == 0:
        return 0
    if isinstance(expr, Const):
        return coeff * expr.value
    if isinstance(expr, App) and expr.op == "add" and expr.width == width:
        constant = 0
        for arg in expr.args:
            constant += _absorb(arg, coeff, width, terms)
        return constant
    if (
        isinstance(expr, App)
        and expr.op == "mul"
        and expr.width == width
        and len(expr.args) == 2
        and isinstance(expr.args[1], Const)
    ):
        return _absorb(expr.args[0], coeff * expr.args[1].signed, width, terms)
    if isinstance(expr, App) and expr.op == "neg" and expr.width == width:
        return _absorb(expr.args[0], -coeff, width, terms)
    terms[expr] = terms.get(expr, 0) + coeff
    return 0


def _sum_terms(pairs: list[tuple[Expr, int]], width: int) -> Expr:
    """Build the canonical linear sum of coeff*expr pairs."""
    terms: dict[Expr, int] = {}
    constant = 0
    for expr, coeff in pairs:
        constant += _absorb(expr, coeff, width, terms)

    parts: list[Expr] = []
    for term in sorted(terms, key=_term_key):
        coeff = terms[term] % (1 << width)
        if coeff == 0:
            continue
        signed_coeff = to_signed(coeff, width)
        if signed_coeff == 1:
            parts.append(term)
        else:
            parts.append(App("mul", (term, Const(signed_coeff, width)), width))
    constant &= mask(width)
    if not parts:
        return Const(constant, width)
    if constant:
        parts.append(Const(constant, width))
    if len(parts) == 1:
        return parts[0]
    return App("add", tuple(parts), width)


# Hash-consed nodes make (a, b, width) an O(1)-hashable key, so the
# canonical-linear-sum construction — the single hottest rewrite in the
# lifter — is memoized.  The cache is sound because expressions are
# immutable value objects and _sum_terms is a pure function of its inputs.
@lru_cache(maxsize=1 << 17)
def _sum2(a: Expr, ca: int, b: Expr | None, cb: int, width: int) -> Expr:
    if b is None:
        return _sum_terms([(a, ca)], width)
    return _sum_terms([(a, ca), (b, cb)], width)


register_lru("simplify.sum", _sum2)


def add(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _sum2(a, 1, b, 1, width)


def sub(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _sum2(a, 1, b, -1, width)


def neg(a: Expr, width: int = 64) -> Expr:
    return _sum2(a, -1, None, 0, width)


def mul(a: Expr, b: Expr, width: int = 64) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value, width)
    if isinstance(a, Const):
        a, b = b, a
    if isinstance(b, Const):
        if b.value == 0:
            return Const(0, width)
        coeff = b.signed
        return _sum2(a, coeff, None, 0, width)
    args = tuple(sorted((a, b), key=_term_key))
    return App("mul", args, width)


def _bitop(op: str, a: Expr, b: Expr, width: int) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        table = {"and": a.value & b.value, "or": a.value | b.value,
                 "xor": a.value ^ b.value}
        return Const(table[op], width)
    if isinstance(a, Const):
        a, b = b, a
    if isinstance(b, Const):
        if op == "and":
            if b.value == 0:
                return Const(0, width)
            if b.value == mask(width):
                return low(a, width)
        if op in ("or", "xor") and b.value == 0:
            return low(a, width)
    if a == b:
        if op == "xor":
            return Const(0, width)
        return a  # and/or idempotent
    args = tuple(sorted((a, b), key=_term_key))
    return App(op, args, width)


def and_(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _bitop("and", a, b, width)


def or_(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _bitop("or", a, b, width)


def xor(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _bitop("xor", a, b, width)


def not_(a: Expr, width: int = 64) -> Expr:
    if isinstance(a, Const):
        return Const(~a.value, width)
    return App("not", (a,), width)


def shl(a: Expr, amount: Expr, width: int = 64) -> Expr:
    if isinstance(amount, Const):
        shift = amount.value & (width - 1)
        if shift == 0:
            return low(a, width)
        return mul(a, Const(1 << shift, width), width)
    return App("shl", (a, amount), width)


def shr(a: Expr, amount: Expr, width: int = 64) -> Expr:
    if isinstance(amount, Const):
        shift = amount.value & (width - 1)
        if shift == 0:
            return low(a, width)
        if isinstance(a, Const):
            return Const((a.value & mask(width)) >> shift, width)
    return App("shr", (a, amount), width)


def sar(a: Expr, amount: Expr, width: int = 64) -> Expr:
    if isinstance(amount, Const):
        shift = amount.value & (width - 1)
        if shift == 0:
            return low(a, width)
        if isinstance(a, Const):
            return Const(to_signed(a.value, width) >> shift, width)
    return App("sar", (a, amount), width)


def udiv(a: Expr, b: Expr, width: int = 64) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value:
        return Const(a.value // b.value, width)
    return App("udiv", (a, b), width)


def sdiv(a: Expr, b: Expr, width: int = 64) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value:
        quotient = abs(a.signed) // abs(b.signed)
        if (a.signed < 0) != (b.signed < 0):
            quotient = -quotient
        return Const(quotient, width)
    return App("sdiv", (a, b), width)


def urem(a: Expr, b: Expr, width: int = 64) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value:
        return Const(a.value % b.value, width)
    return App("urem", (a, b), width)


def srem(a: Expr, b: Expr, width: int = 64) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value:
        remainder = abs(a.signed) % abs(b.signed)
        if a.signed < 0:
            remainder = -remainder
        return Const(remainder, width)
    return App("srem", (a, b), width)


def low(a: Expr, width: int) -> Expr:
    """Truncate *a* to its low *width* bits."""
    if a.width == width:
        return a
    if isinstance(a, Const):
        return Const(a.value, width)
    if isinstance(a, App) and a.op in ("zext", "low"):
        inner = a.args[0]
        if inner.width <= width:
            return zext(inner, width) if inner.width < width else inner
        return low(inner, width)
    if a.width < width:
        raise ValueError(f"low({width}) of narrower expr (width {a.width})")
    return App("low", (a,), width)


def zext(a: Expr, width: int) -> Expr:
    """Zero-extend *a* (of its own width) to *width* bits."""
    if a.width == width:
        return a
    if a.width > width:
        return low(a, width)
    if isinstance(a, Const):
        return Const(a.value, width)
    if isinstance(a, App) and a.op == "zext":
        return zext(a.args[0], width)
    return App("zext", (a,), width)


def sext(a: Expr, width: int) -> Expr:
    """Sign-extend *a* (of its own width) to *width* bits."""
    if a.width == width:
        return a
    if a.width > width:
        return low(a, width)
    if isinstance(a, Const):
        return Const(a.signed, width)
    return App("sext", (a,), width)


# -- boolean / comparison constructors (width 1) -------------------------------

def eq(a: Expr, b: Expr, width: int = 64) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(int((a.value & mask(width)) == (b.value & mask(width))), 1)
    if a == b:
        return Const(1, 1)
    args = tuple(sorted((a, b), key=_term_key))
    return App("eq", args, 1)


def _cmp(op: str, a: Expr, b: Expr, width: int, signed: bool) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        left = to_signed(a.value, width) if signed else a.value & mask(width)
        right = to_signed(b.value, width) if signed else b.value & mask(width)
        if op in ("ltu", "lts"):
            return Const(int(left < right), 1)
        return Const(int(left <= right), 1)
    return App(op, (a, b), 1)


def ltu(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _cmp("ltu", a, b, width, signed=False)


def leu(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _cmp("leu", a, b, width, signed=False)


def lts(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _cmp("lts", a, b, width, signed=True)


def les(a: Expr, b: Expr, width: int = 64) -> Expr:
    return _cmp("les", a, b, width, signed=True)


def bool_not(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(1 - (a.value & 1), 1)
    if isinstance(a, App) and a.op == "bool_not":
        return a.args[0]
    return App("bool_not", (a,), 1)


def bool_and(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        return b if a.value else Const(0, 1)
    if isinstance(b, Const):
        return a if b.value else Const(0, 1)
    return App("bool_and", (a, b), 1)


def bool_or(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(1, 1) if a.value else b
    if isinstance(b, Const):
        return Const(1, 1) if b.value else a
    return App("bool_or", (a, b), 1)


def ite(cond: Expr, then: Expr, other: Expr, width: int = 64) -> Expr:
    if isinstance(cond, Const):
        return then if cond.value & 1 else other
    if then == other:
        return then
    return App("ite", (cond, then, other), width)


def deref(addr: Expr, size: int) -> Deref:
    return Deref(addr, size)
