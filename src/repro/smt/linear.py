"""Linear normal form for pointer expressions.

Thanks to the canonicalizing constructors in :mod:`repro.expr.simplify`,
every pointer expression the lifter produces is already a sum of
coefficient-scaled terms plus a constant.  :func:`linearize` exposes that
structure as a mapping ``{term: coeff}`` + constant, which is what the
difference-logic core of the solver works over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.expr.ast import App, Const, Expr, expr_key
from repro.perf import register_lru


@dataclass(frozen=True)
class Linear:
    """``sum(coeff * term) + const`` with signed coefficients."""

    terms: tuple[tuple[Expr, int], ...]  # sorted by str(term)
    const: int

    @property
    def is_const(self) -> bool:
        return not self.terms

    def term_dict(self) -> dict[Expr, int]:
        return dict(self.terms)


def _absorb(node: Expr, coeff: int, width: int,
            terms: dict[Expr, int]) -> int:
    """Add coeff*node's non-constant terms into *terms*; return its
    constant part.  (Module-level: a self-recursive closure would be a
    reference cycle per call.)"""
    if isinstance(node, Const):
        return coeff * node.value
    if isinstance(node, App) and node.op == "add" and node.width == width:
        const = 0
        for arg in node.args:
            const += _absorb(arg, coeff, width, terms)
        return const
    if (
        isinstance(node, App)
        and node.op == "mul"
        and node.width == width
        and len(node.args) == 2
        and isinstance(node.args[1], Const)
    ):
        return _absorb(node.args[0], coeff * node.args[1].signed, width, terms)
    terms[node] = terms.get(node, 0) + coeff
    return 0


@lru_cache(maxsize=65536)
def linearize(expr: Expr, width: int = 64) -> Linear:
    """Decompose *expr* into linear normal form at the given width.

    Expressions are immutable value objects, so the decomposition is
    memoized (this sits on the lifter's hottest path)."""
    terms: dict[Expr, int] = {}
    const = _absorb(expr, 1, width, terms)
    cleaned = tuple(
        sorted(
            ((term, coeff) for term, coeff in terms.items() if coeff),
            key=lambda pair: expr_key(pair[0]),
        )
    )
    return Linear(cleaned, const & ((1 << width) - 1))


register_lru("smt.linearize", linearize)


def base_and_offset(expr: Expr, width: int = 64) -> tuple[Expr, int] | None:
    """Decompose ``base + c`` (one unit-coefficient term plus a constant)
    into ``(base, signed c)``; None when *expr* is not of that shape.

    This is the shape every region-relative pointer takes (a register or
    probe marker plus a displacement); the pointer analysis classifies
    addresses by resolving the base and shifting by the offset."""
    linear = linearize(expr, width)
    if len(linear.terms) != 1:
        return None
    term, coeff = linear.terms[0]
    if coeff != 1:
        return None
    const = linear.const
    if const >= 1 << (width - 1):
        const -= 1 << width
    return (term, const)


def difference(a: Expr, b: Expr) -> Linear:
    """Linear form of ``a - b`` (useful: constant result decides relations)."""
    left = linearize(a)
    right = linearize(b)
    terms = left.term_dict()
    for term, coeff in right.terms:
        terms[term] = terms.get(term, 0) - coeff
    cleaned = tuple(
        sorted(
            ((term, coeff) for term, coeff in terms.items() if coeff),
            key=lambda pair: expr_key(pair[0]),
        )
    )
    return Linear(cleaned, (left.const - right.const) & ((1 << 64) - 1))
