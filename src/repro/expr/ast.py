"""Symbolic expression AST (Section 3.1), hash-consed.

The paper's grammar::

    E ::= R | F | W | V | E x N | Op x [E]

maps onto five immutable node types:

* :class:`Const`   — machine words ``W`` (unsigned, modulo ``2**width``);
* :class:`Var`     — variables ``V``: *initial* register values (``rdi0``),
  havoc values introduced by external calls, and return-address symbols;
* :class:`RegRef`  — a *current* register ``R`` (only meaningful transiently,
  while evaluating an instruction's operands);
* :class:`FlagRef` — a *current* flag ``F``;
* :class:`Deref`   — a memory region read ``E x N`` (address expr, byte size);
* :class:`App`     — operator application ``Op x [E]``.

"Constant expressions" (the paper's ``C``) are expressions built without
``RegRef``/``FlagRef``: combinations of words, variables, and reads from
regions with constant-expression addresses.  :func:`is_constant_expr` tests
this.

All arithmetic is fixed-width two's-complement; ``width`` is in bits.

**Hash-consing.**  Every constructor interns its node in a per-class
weak-value table: structurally equal nodes built anywhere in the process
are the *same object*, so ``a == b ⇔ a is b`` while both are alive, deep
structural comparisons short-circuit on identity, and each node's hash is
computed once at construction.  The tables hold weak references, so nodes
are reclaimed normally when the lifter drops them.  Equality keeps a
structural fallback (identity first), which also keeps pre-reset nodes
comparable after :func:`repro.perf.reset_caches`.  Pickling re-interns via
``__reduce__`` — hashes are *not* assumed stable across processes.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

from repro.perf import register_cache, register_lru
from repro.perf.counters import counters as _C, gated as _gated

MASK64 = (1 << 64) - 1


def mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned *width*-bit value as two's-complement."""
    sign = 1 << (width - 1)
    value &= mask(width)
    return value - (1 << width) if value & sign else value


class Expr:
    """Base class for all symbolic expressions (interned value objects)."""

    __slots__ = ("_hash", "__weakref__")
    width: int

    def __hash__(self) -> int:
        return self._hash

    # Subclasses override __eq__ with direct field comparisons; interning
    # makes the identity fast path the common case, and the structural
    # fallback keeps nodes from before a cache reset comparable.
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self):
        """Yield self and all transitive sub-expressions."""
        yield self
        for child in self.children():
            yield from child.walk()


_set = object.__setattr__

#: Per-class intern tables (weak values: unreferenced nodes are reclaimed).
_INTERN_TABLES: dict[str, weakref.WeakValueDictionary] = {}


def _intern_table(name: str) -> weakref.WeakValueDictionary:
    table = weakref.WeakValueDictionary()
    _INTERN_TABLES[name] = table
    return table


def reset_intern_tables() -> None:
    """Drop every intern table entry (nodes already held stay valid)."""
    for table in _INTERN_TABLES.values():
        table.clear()


def intern_table_sizes() -> dict[str, int]:
    return {name: len(table) for name, table in sorted(_INTERN_TABLES.items())}


register_cache(
    "expr.intern",
    lambda: {"hits": _C.intern_hits, "misses": _C.expr_new,
             "size": sum(intern_table_sizes().values())},
    reset_intern_tables,
)


class Const(Expr):
    """A machine word; value stored unsigned modulo ``2**width``."""

    __slots__ = ("value", "width")
    _interned = _intern_table("Const")

    def __new__(cls, value: int, width: int = 64):
        value &= mask(width)
        key = (value, width)
        self = cls._interned.get(key)
        if self is not None:
            _gated("intern_hits")
            return self
        _gated("expr_new")
        self = object.__new__(cls)
        _set(self, "value", value)
        _set(self, "width", width)
        _set(self, "_hash", hash(("C", value, width)))
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return (Const, (self.value, self.width))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Const:
            return NotImplemented
        return self.value == other.value and self.width == other.width

    __hash__ = Expr.__hash__

    def _fields(self) -> tuple:
        return (self.value, self.width)

    @property
    def signed(self) -> int:
        return to_signed(self.value, self.width)

    def __str__(self) -> str:
        return hex(self.value)

    def __repr__(self) -> str:
        return f"Const(value={self.value!r}, width={self.width!r})"


class Var(Expr):
    """A symbolic variable: an unknown but fixed machine word.

    Naming conventions used by the lifter: ``rdi0`` (initial register
    values), ``ret@<addr>`` (return-address symbols for context-free calls),
    ``havoc<n>`` (values destroyed by external calls or unmodelled reads).
    """

    __slots__ = ("name", "width")
    _interned = _intern_table("Var")

    def __new__(cls, name: str, width: int = 64):
        key = (name, width)
        self = cls._interned.get(key)
        if self is not None:
            _gated("intern_hits")
            return self
        _gated("expr_new")
        self = object.__new__(cls)
        _set(self, "name", name)
        _set(self, "width", width)
        _set(self, "_hash", hash(("V", name, width)))
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return (Var, (self.name, self.width))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name and self.width == other.width

    __hash__ = Expr.__hash__

    def _fields(self) -> tuple:
        return (self.name, self.width)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var(name={self.name!r}, width={self.width!r})"


class RegRef(Expr):
    """The *current* value of a 64-bit register family (transient)."""

    __slots__ = ("name", "width")
    _interned = _intern_table("RegRef")

    def __new__(cls, name: str, width: int = 64):
        key = (name, width)
        self = cls._interned.get(key)
        if self is not None:
            _gated("intern_hits")
            return self
        _gated("expr_new")
        self = object.__new__(cls)
        _set(self, "name", name)
        _set(self, "width", width)
        _set(self, "_hash", hash(("R", name, width)))
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return (RegRef, (self.name, self.width))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not RegRef:
            return NotImplemented
        return self.name == other.name and self.width == other.width

    __hash__ = Expr.__hash__

    def _fields(self) -> tuple:
        return (self.name, self.width)

    def __str__(self) -> str:
        return f"${self.name}"

    def __repr__(self) -> str:
        return f"RegRef(name={self.name!r}, width={self.width!r})"


class FlagRef(Expr):
    """The *current* value of a status flag (transient)."""

    __slots__ = ("name", "width")
    _interned = _intern_table("FlagRef")

    def __new__(cls, name: str, width: int = 1):
        key = (name, width)
        self = cls._interned.get(key)
        if self is not None:
            _gated("intern_hits")
            return self
        _gated("expr_new")
        self = object.__new__(cls)
        _set(self, "name", name)
        _set(self, "width", width)
        _set(self, "_hash", hash(("F", name, width)))
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return (FlagRef, (self.name, self.width))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not FlagRef:
            return NotImplemented
        return self.name == other.name and self.width == other.width

    __hash__ = Expr.__hash__

    def _fields(self) -> tuple:
        return (self.name, self.width)

    def __str__(self) -> str:
        return f"${self.name}"

    def __repr__(self) -> str:
        return f"FlagRef(name={self.name!r}, width={self.width!r})"


class Deref(Expr):
    """An ``size``-byte little-endian read from memory region ``[addr, size]``.

    A ``Deref`` whose address is a constant expression denotes the value that
    region held *in the initial state* (memory writes substitute derefs away
    or havoc them); this is exactly the paper's ``*[a, n]`` notation.
    """

    __slots__ = ("addr", "size")
    _interned = _intern_table("Deref")

    def __new__(cls, addr: "Expr", size: int):
        key = (addr, size)
        self = cls._interned.get(key)
        if self is not None:
            _gated("intern_hits")
            return self
        _gated("expr_new")
        self = object.__new__(cls)
        _set(self, "addr", addr)
        _set(self, "size", size)
        _set(self, "_hash", hash(("D", addr, size)))
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return (Deref, (self.addr, self.size))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Deref:
            return NotImplemented
        return self.size == other.size and self.addr == other.addr

    __hash__ = Expr.__hash__

    def _fields(self) -> tuple:
        return (self.addr, self.size)

    @property
    def width(self) -> int:
        return self.size * 8

    def children(self) -> tuple[Expr, ...]:
        return (self.addr,)

    def __str__(self) -> str:
        return f"*[{self.addr}, {self.size}]"

    def __repr__(self) -> str:
        return f"Deref(addr={self.addr!r}, size={self.size!r})"


#: Operators. Binary unless noted. All operate at App.width.
OPS = frozenset({
    "add", "sub", "mul",            # wrapping arithmetic
    "udiv", "sdiv", "urem", "srem",  # division (fold only when concrete)
    "and", "or", "xor",
    "not", "neg",                    # unary
    "shl", "shr", "sar",
    "zext", "sext",                  # (value, from_width Const) -> width
    "low",                           # truncate to width
    "ite",                           # (cond, then, else)
    "ltu", "leu", "lts", "les", "eq",  # comparisons -> width 1
    "bool_not", "bool_and", "bool_or",
    "parity",                        # parity of low byte -> width 1
})


class App(Expr):
    """Application of an operator to subexpressions, at a given bit width."""

    __slots__ = ("op", "args", "width")
    _interned = _intern_table("App")

    def __new__(cls, op: str, args, width: int = 64):
        args = tuple(args)
        key = (op, args, width)
        self = cls._interned.get(key)
        if self is not None:
            _gated("intern_hits")
            return self
        if op not in OPS:
            raise ValueError(f"unknown operator: {op}")
        _gated("expr_new")
        self = object.__new__(cls)
        _set(self, "op", op)
        _set(self, "args", args)
        _set(self, "width", width)
        _set(self, "_hash", hash(("A", op, args, width)))
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return (App, (self.op, self.args, self.width))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        return (self.op == other.op and self.width == other.width
                and self.args == other.args)

    __hash__ = Expr.__hash__

    def _fields(self) -> tuple:
        return (self.op, self.args, self.width)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        if self.op == "add" and len(self.args) == 2:
            return f"({self.args[0]} + {self.args[1]})"
        if self.op == "sub" and len(self.args) == 2:
            return f"({self.args[0]} - {self.args[1]})"
        if self.op == "mul" and len(self.args) == 2:
            return f"({self.args[0]} * {self.args[1]})"
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.op}{self.width}({inner})"

    def __repr__(self) -> str:
        return (f"App(op={self.op!r}, args={self.args!r}, "
                f"width={self.width!r})")


# -- convenience constructors -------------------------------------------------

ZERO = Const(0, 64)
ONE = Const(1, 64)
TRUE = Const(1, 1)
FALSE = Const(0, 1)


def const(value: int, width: int = 64) -> Const:
    return Const(value, width)


def var(name: str, width: int = 64) -> Var:
    return Var(name, width)


def is_constant_expr(expr: Expr) -> bool:
    """True if *expr* is a paper-style constant expression ``C``:
    contains no current-register/flag references."""
    return not any(isinstance(node, (RegRef, FlagRef)) for node in expr.walk())


@lru_cache(maxsize=1 << 16)
def variables_of(expr: Expr) -> frozenset[Var]:
    """All Var leaves of *expr* (memoized, so shared subtrees are visited
    once)."""
    if isinstance(expr, Var):
        return frozenset((expr,))
    children = expr.children()
    if not children:
        return frozenset()
    if len(children) == 1:
        return variables_of(children[0])
    return frozenset().union(*map(variables_of, children))


@lru_cache(maxsize=131072)
def variable_names(expr: Expr) -> frozenset[str]:
    """Memoized names of all Var leaves of *expr* (a hot join-time query)."""
    return frozenset(node.name for node in expr.walk() if isinstance(node, Var))


@lru_cache(maxsize=131072)
def expr_key(expr: Expr) -> str:
    """Memoized ``str(expr)`` for use as a deterministic sort key."""
    return str(expr)


register_lru("expr.key", expr_key)
register_lru("expr.varnames", variable_names)
register_lru("expr.vars", variables_of)
