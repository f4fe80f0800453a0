"""Symbolic expression language (Section 3.1): AST, simplifier, evaluation."""

from repro.expr.ast import (
    App,
    Const,
    Deref,
    Expr,
    FlagRef,
    MASK64,
    RegRef,
    Var,
    const,
    is_constant_expr,
    mask,
    to_signed,
    var,
    variables_of,
)
from repro.expr.concrete import EvalEnv, EvalError, compile_expr, evaluate
from repro.expr.subst import subst_vars, substitute
from repro.expr import simplify

__all__ = [
    "App", "Const", "Deref", "Expr", "FlagRef", "MASK64", "RegRef", "Var",
    "const", "is_constant_expr", "mask", "to_signed", "var", "variables_of",
    "EvalEnv", "EvalError", "compile_expr", "evaluate", "subst_vars",
    "substitute", "simplify",
]
