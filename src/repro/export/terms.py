"""Printing symbolic expressions as Isabelle/HOL terms.

The target theory models machine words as ``64 word`` (Isabelle's
``Word`` library) and memory as ``64 word ⇒ 8 word``; ``read_mem`` performs
little-endian multi-byte reads of the *initial* memory, matching the
meaning of :class:`~repro.expr.Deref`.
"""

from __future__ import annotations

from repro.expr import App, Const, Deref, Expr, FlagRef, RegRef, Var

_OP_NAMES = {
    "add": "+", "sub": "-", "mul": "*",
    "and": "AND", "or": "OR", "xor": "XOR",
    "shl": "<<", "shr": ">>",
}

_FUN_NAMES = {
    "sar": "sshiftr", "udiv": "udiv64", "sdiv": "sdiv64",
    "urem": "urem64", "srem": "srem64",
}

_CMP_NAMES = {
    "eq": "=", "ltu": "<", "leu": "≤", "lts": "<s", "les": "≤s",
}


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        if ch.isalnum() or ch == "_":
            out.append(ch)
        else:
            out.append("_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "v" + text
    return text


def to_isabelle(expr: Expr, memo: dict | None = None) -> str:
    """Render *expr* as an Isabelle/HOL term string.

    *memo* maps terms to their renderings; a caller rendering many terms
    that share subterms (a whole theory) passes one dict for all of them,
    so each distinct term is rendered once."""
    if memo is None:
        memo = {}
    text = memo.get(expr)
    if text is None:
        text = memo[expr] = _render(expr, memo)
    return text


def _render(expr: Expr, memo: dict) -> str:
    if isinstance(expr, Const):
        return f"({expr.value:#x} :: {expr.width} word)"
    if isinstance(expr, Var):
        return _sanitize(expr.name)
    if isinstance(expr, RegRef):
        return f"(reg σ ''{expr.name}'')"
    if isinstance(expr, FlagRef):
        return f"(flag σ ''{expr.name}'')"
    if isinstance(expr, Deref):
        return f"(read_mem mem₀ {to_isabelle(expr.addr, memo)} {expr.size})"
    if isinstance(expr, App):
        return _app_to_isabelle(expr, memo)
    raise TypeError(f"unknown expression {expr!r}")


def _app_to_isabelle(expr: App, memo: dict) -> str:
    op = expr.op
    args = [to_isabelle(arg, memo) for arg in expr.args]
    if op in _OP_NAMES and len(expr.args) >= 2:
        joined = f" {_OP_NAMES[op]} ".join(args)
        return f"({joined})"
    if op in _FUN_NAMES:
        return f"({_FUN_NAMES[op]} {' '.join(args)})"
    if op in _CMP_NAMES:
        return f"(if {args[0]} {_CMP_NAMES[op]} {args[1]} then 1 else 0 :: 1 word)"
    if op == "not":
        return f"(NOT {args[0]})"
    if op == "neg":
        return f"(- {args[0]})"
    if op == "zext":
        return f"(ucast {args[0]} :: {expr.width} word)"
    if op == "sext":
        return f"(scast {args[0]} :: {expr.width} word)"
    if op == "low":
        return f"(ucast {args[0]} :: {expr.width} word)"
    if op == "ite":
        return f"(if {args[0]} = 1 then {args[1]} else {args[2]})"
    if op == "bool_not":
        return f"(1 - {args[0]})"
    if op == "bool_and":
        return f"({args[0]} AND {args[1]})"
    if op == "bool_or":
        return f"({args[0]} OR {args[1]})"
    if op == "parity":
        return f"(parity8 {args[0]})"
    return f"({op} {' '.join(args)})"
