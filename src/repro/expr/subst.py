"""Substitution over symbolic expressions.

``substitute`` rebuilds an expression bottom-up through the simplifying
constructors, so substitution doubles as re-simplification (substituting a
constant for a variable folds everything it touches).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.expr import simplify as s
from repro.expr.ast import App, Const, Deref, Expr, FlagRef, RegRef, Var
from repro.perf import register_lru


def substitute(expr: Expr, replace: Callable[[Expr], Expr | None]) -> Expr:
    """Return *expr* with every node for which *replace* returns non-None
    swapped for the replacement (applied leaf-first, then once at each
    rebuilt node)."""
    return _substitute(expr, replace, {})


def _substitute(node: Expr, replace, cache: dict[Expr, Expr]) -> Expr:
    # Module-level rather than a closure over itself: a self-recursive
    # nested function is a reference cycle that only the cyclic GC frees.
    if node in cache:
        return cache[node]
    replaced = replace(node)
    if replaced is not None:
        cache[node] = replaced
        return replaced
    if isinstance(node, (Const, Var, RegRef, FlagRef)):
        result = node
    elif isinstance(node, Deref):
        new_addr = _substitute(node.addr, replace, cache)
        rebuilt = node if new_addr is node.addr else Deref(new_addr, node.size)
        replaced = replace(rebuilt)
        result = replaced if replaced is not None else rebuilt
    elif isinstance(node, App):
        new_args = tuple([_substitute(arg, replace, cache)
                          for arg in node.args])
        rebuilt = _rebuild(node.op, new_args, node.width)
        replaced = replace(rebuilt)
        result = replaced if replaced is not None else rebuilt
    else:
        raise TypeError(f"unknown expression type: {node!r}")
    cache[node] = result
    return result


def subst_vars(expr: Expr, bindings: dict[str, Expr]) -> Expr:
    """Substitute variables by name.

    Memoized: hash-consed nodes make ``(expr, bindings)`` a cheap cache
    key, and variable substitution (unlike the general callable form of
    :func:`substitute`) is a pure function of that pair.
    """
    return _subst_vars_cached(expr, tuple(sorted(bindings.items())))


@lru_cache(maxsize=1 << 15)
def _subst_vars_cached(expr: Expr, bindings_key: tuple[tuple[str, Expr], ...]) -> Expr:
    bindings = dict(bindings_key)

    def replace(node: Expr) -> Expr | None:
        if isinstance(node, Var) and node.name in bindings:
            replacement = bindings[node.name]
            if replacement.width != node.width:
                replacement = s.low(replacement, node.width) \
                    if replacement.width > node.width else s.zext(replacement, node.width)
            return replacement
        return None

    return substitute(expr, replace)


register_lru("subst.vars", _subst_vars_cached)


def _rebuild(op: str, args: tuple[Expr, ...], width: int) -> Expr:
    """Re-apply the simplifying constructor for *op*."""
    binary = {
        "add": s.add, "sub": s.sub, "mul": s.mul, "and": s.and_, "or": s.or_,
        "xor": s.xor, "shl": s.shl, "shr": s.shr, "sar": s.sar,
        "udiv": s.udiv, "sdiv": s.sdiv, "urem": s.urem, "srem": s.srem,
        "eq": s.eq, "ltu": s.ltu, "leu": s.leu, "lts": s.lts, "les": s.les,
    }
    if op in binary and len(args) == 2:
        return binary[op](args[0], args[1], width) if op not in (
            "eq", "ltu", "leu", "lts", "les"
        ) else binary[op](args[0], args[1], max(a.width for a in args))
    if op == "add" and len(args) > 2:
        result = args[0]
        for arg in args[1:]:
            result = s.add(result, arg, width)
        return result
    if op == "not":
        return s.not_(args[0], width)
    if op == "neg":
        return s.neg(args[0], width)
    if op == "zext":
        return s.zext(args[0], width)
    if op == "sext":
        return s.sext(args[0], width)
    if op == "low":
        return s.low(args[0], width)
    if op == "ite":
        return s.ite(args[0], args[1], args[2], width)
    if op == "bool_not":
        return s.bool_not(args[0])
    if op == "bool_and":
        return s.bool_and(args[0], args[1])
    if op == "bool_or":
        return s.bool_or(args[0], args[1])
    return App(op, args, width)
