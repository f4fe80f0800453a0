"""Memory models: forests of memory trees (Section 3.2).

Structure (Definition in the paper)::

    MemTree ::= {C x N} x Mem        Mem ::= {MemTree}

* regions in the same node **alias**;
* children are **enclosed** in their parents;
* siblings are **separate**.

:func:`ins` (Definition 3.7) inserts a region, following proven relations
where the solver can establish them and *forking* one model per possible
relation where it cannot (the paper's nondeterministic try-out).  When a
partial overlap cannot be excluded, the possibly-overlapping trees are
**destroyed** (Section 1): their regions are recorded in ``destroyed`` so
that subsequent reads produce unconstrained fresh values.

Models are immutable; every operation returns new models.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from repro.expr import EvalEnv, EvalError, Expr, compile_expr
from repro.expr.ast import expr_key
from repro.obs.metrics import metrics as _M
from repro.obs.tracer import tracer as _T
from repro.perf import register_cache, register_lru
from repro.smt.solver import (
    Assumption,
    BoundsProvider,
    NO_BOUNDS,
    Region,
    Relation,
    _fingerprint_terms,
    decide_relation,
    possible_relations,
    query_count,
    region_key,
)


@dataclass(frozen=True)
class MemTree:
    """A node of aliasing regions plus a sub-forest of enclosed children."""

    regions: frozenset[Region]
    children: frozenset["MemTree"] = frozenset()

    @staticmethod
    def leaf(region: Region) -> "MemTree":
        return MemTree(frozenset({region}))

    def all_regions(self) -> frozenset[Region]:
        out = set(self.regions)
        for child in self.children:
            out |= child.all_regions()
        return frozenset(out)

    # The rendering and the representative are cached on the instance:
    # forests are sorted by rendering on every insertion and join.  Both
    # stay out of pickles (``__reduce__`` passes the two fields only, each
    # in sorted order so the bytes do not depend on the hash seed).

    def representative(self) -> Region:
        rep = self.__dict__.get("_rep")
        if rep is None:
            rep = min(self.regions, key=region_key)
            object.__setattr__(self, "_rep", rep)
        return rep

    def __str__(self) -> str:
        text = self.__dict__.get("_str")
        if text is None:
            text = "{" + ", ".join(sorted(map(region_key, self.regions))) + "}"
            if self.children:
                inner = ", ".join(sorted(str(c) for c in self.children))
                text = f"{text}⟨{inner}⟩"
            object.__setattr__(self, "_str", text)
        return text

    def __reduce__(self):
        return (_rebuild_tree, (tuple(sorted(self.regions, key=region_key)),
                                tuple(_sorted(self.children))))


def _rebuild_tree(regions, children) -> MemTree:
    return MemTree(frozenset(regions), frozenset(children))


@dataclass(frozen=True)
class MemModel:
    """A forest of memory trees plus the set of destroyed regions."""

    trees: frozenset[MemTree] = frozenset()
    destroyed: frozenset[Region] = frozenset()

    def all_regions(self) -> frozenset[Region]:
        out = set()
        for tree in self.trees:
            out |= tree.all_regions()
        return frozenset(out)

    def __str__(self) -> str:
        body = ", ".join(sorted(str(t) for t in self.trees))
        if self.destroyed:
            destroyed = sorted(map(region_key, self.destroyed))
            body += " ☠{" + ", ".join(destroyed) + "}"
        return "⟦" + body + "⟧"

    def __reduce__(self):
        # Both sets in sorted order: the pickled bytes (and so lift-store
        # payloads) do not depend on the hash seed.
        return (_rebuild_model, (
            tuple(_sorted(self.trees)),
            tuple(sorted(self.destroyed, key=region_key)),
        ))


def _rebuild_model(trees, destroyed) -> MemModel:
    return MemModel(frozenset(trees), frozenset(destroyed))


EMPTY = MemModel()


@dataclass(frozen=True)
class InsResult:
    """One forked outcome of an insertion."""

    model: MemModel
    assumptions: tuple[Assumption, ...] = ()


# -- relation between a region and a tree ---------------------------------------

def _tree_relation(
    region: Region, tree: MemTree, bounds: BoundsProvider
) -> Relation | None:
    """Necessary relation between *region* and *tree* (paper's lifted notation).

    ≡ / ⪯ / ⪰ hold when some top-node region is necessarily so related;
    ⋈ holds when *all* regions of the tree are necessarily separate.
    """
    top_decisions = [
        decide_relation(region, other, bounds).relation for other in tree.regions
    ]
    for relation in (Relation.ALIAS, Relation.ENCLOSED):
        if any(d is relation for d in top_decisions):
            return relation
    if any(d is Relation.ENCLOSES for d in top_decisions):
        return Relation.ENCLOSES
    all_regions = tree.all_regions()
    if all(
        decide_relation(region, other, bounds).relation is Relation.SEPARATE
        for other in all_regions
    ):
        return Relation.SEPARATE
    return None


# -- insertion (Definition 3.7) ----------------------------------------------------

def ins(
    region: Region,
    model: MemModel,
    bounds: BoundsProvider = NO_BOUNDS,
    max_forks: int = 8,
) -> list[InsResult]:
    """Insert *region* into *model*; returns the forked set of models.

    Completeness (Lemma 3.11): for every possibly-true mapping of relations
    between *region* and the regions already in the model, some returned
    model realizes it — either structurally or via the destroyed set.

    Memoized on exactly what the insertion reads (see :data:`_INS_MEMO`).
    A hit while tracing counts the relation queries the insertion asked
    when it ran, so SMT query counts do not depend on how warm the memo is.
    """
    key = (region, model, max_forks, _ins_fingerprint(region, model, bounds))
    entry = _INS_MEMO.get(key)
    if entry is None:
        before = query_count()
        results = tuple(_ins(region, model, bounds, max_forks))
        entry = (results, query_count() - before)
        _INS_MEMO.put(key, entry)
    elif _T.enabled and entry[1]:
        _M.inc("smt.queries", entry[1])
        _T.count("smt.query", entry[1])
    return list(entry[0])


# -- the insertion memo ------------------------------------------------------------
#
# An insertion reads its bounds only through relation queries, on pairs of
# regions drawn from the model, its destroyed set and the new region.  Each
# query reads ``bounds.interval_of`` on the fingerprint terms of its pair
# (:func:`repro.smt.solver._fingerprint_terms`) and nothing else.  The key
# holds those intervals for the union of the terms of every such pair, each
# region paired with itself too, so a hit returns what the insertion would
# compute.  The term set is a function of (region, model) alone and is
# memoized on it; only the intervals are looked up per call.


class _InsMemo:
    """A bounded LRU of insertion outcomes with hit/miss counts."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry) -> None:
        self._data[key] = entry
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._data)}


#: (region, model, max_forks, intervals) -> (outcomes, relation queries asked).
_INS_MEMO = _InsMemo(1 << 12)
register_cache("memmodel.ins", _INS_MEMO.stats, _INS_MEMO.clear)


def _ins_fingerprint(region: Region, model: MemModel,
                     bounds: BoundsProvider) -> tuple:
    interval_of = bounds.interval_of
    return tuple(interval_of(term) for term in _ins_terms(region, model))


@lru_cache(maxsize=1 << 12)
def _ins_terms(region: Region, model: MemModel) -> tuple[Expr, ...]:
    """The terms whose bounds inserting *region* into *model* can read,
    in deterministic order: the fingerprint terms of every pair of the
    distinct addresses of the new region, the model's regions and its
    destroyed regions, each address paired with itself too."""
    regions = model.all_regions() | model.destroyed | {region}
    addrs = sorted({r.addr for r in regions}, key=expr_key)
    terms: set[Expr] = set()
    for i, a0 in enumerate(addrs):
        for a1 in addrs[i:]:
            terms.update(_fingerprint_terms(a0, a1))
    return tuple(sorted(terms, key=expr_key))


register_lru("memmodel.ins_terms", _ins_terms)


def _ins(
    region: Region,
    model: MemModel,
    bounds: BoundsProvider,
    max_forks: int,
) -> list[InsResult]:
    """The uncached body of :func:`ins`."""
    if any(
        decide_relation(region, destroyed, bounds).relation is not Relation.SEPARATE
        for destroyed in model.destroyed
    ):
        # Touching destroyed memory: the region itself is unconstrained.
        return [InsResult(MemModel(model.trees, model.destroyed | {region}))]
    results = _ins_tree(MemTree.leaf(region), list(_sorted(model.trees)), bounds)
    if len(results) > max_forks:
        # Too many case splits to track.  Truncating would silently drop
        # state-space coverage (unsound); destroying the undecided regions
        # covers *every* configuration at the cost of precision — exactly
        # the paper's escape hatch (Section 1).
        destroyed = model.destroyed | model.all_regions() | {region}
        return [InsResult(MemModel(frozenset(), destroyed))]
    out = []
    for trees, destroyed, assumptions in results:
        candidate = MemModel(frozenset(trees), model.destroyed | destroyed)
        if not _model_consistent(candidate, bounds):
            continue  # holds in no concrete state; pruning is sound
        out.append(InsResult(candidate, tuple(assumptions)))
    if not out:
        # Every structured fork was inconsistent (pathological bounds):
        # fall back to destroying the affected regions, which is always sound.
        destroyed = model.destroyed | model.all_regions() | {region}
        out.append(InsResult(MemModel(frozenset(), destroyed)))
    return out


def _model_consistent(model: MemModel, bounds: BoundsProvider) -> bool:
    """Reject models whose structural claims are refuted by the solver."""
    return _forest_ok(model.trees, None, bounds)


# _tree_ok/_forest_ok are module-level rather than closures over each
# other: mutually recursive nested functions form a reference cycle per
# call that only the cyclic GC frees.

def _tree_ok(tree: MemTree, parent: Region | None,
             bounds: BoundsProvider) -> bool:
    regions = list(tree.regions)
    for i, left in enumerate(regions):
        for right in regions[i + 1:]:
            if decide_relation(left, right, bounds).relation in (
                Relation.SEPARATE, Relation.ENCLOSED, Relation.ENCLOSES,
            ):
                return False
    rep = tree.representative()
    if parent is not None and decide_relation(
        rep, parent, bounds
    ).relation is Relation.SEPARATE:
        return False
    return _forest_ok(tree.children, rep, bounds)


def _forest_ok(trees, parent: Region | None, bounds: BoundsProvider) -> bool:
    reps = [t.representative() for t in trees]
    for i, left in enumerate(reps):
        for right in reps[i + 1:]:
            if decide_relation(left, right, bounds).relation in (
                Relation.ALIAS, Relation.ENCLOSED, Relation.ENCLOSES,
            ):
                return False
    return all(_tree_ok(t, parent, bounds) for t in trees)


def _sorted(trees) -> list[MemTree]:
    return sorted(trees, key=str)


def _ins_tree(
    t0: MemTree, trees: list[MemTree], bounds: BoundsProvider
) -> list[tuple[list[MemTree], frozenset[Region], list[Assumption]]]:
    """Recursive core of Definition 3.7 over an ordered forest."""
    if not trees:
        return [([t0], frozenset(), [])]
    t1, rest = trees[0], trees[1:]
    rep = t0.representative()
    relation = _tree_relation(rep, t1, bounds)
    if relation is not None:
        return _ins_with_relation(t0, t1, rest, relation, [], bounds)

    # Unknown relation: fork over the possible cases (paper Section 1).
    fork = possible_relations(rep, t1.representative(), bounds)
    outcomes: list[tuple[list[MemTree], frozenset[Region], list[Assumption]]] = []
    for case in fork.relations:
        if not _case_consistent(case, rep, t1, bounds):
            continue
        outcomes += _ins_with_relation(
            t0, t1, rest, case, list(fork.assumptions), bounds
        )
    if fork.may_partial:
        # Destroy: drop every tree we cannot separate from t0.
        destroyed = set(t0.all_regions()) | set(t1.all_regions())
        survivors = []
        for other in rest:
            if _tree_relation(rep, other, bounds) is Relation.SEPARATE:
                survivors.append(other)
            else:
                destroyed |= other.all_regions()
        outcomes.append((survivors, frozenset(destroyed), list(fork.assumptions)))
    return outcomes


def _case_consistent(
    case: Relation, region: Region, tree: MemTree, bounds: BoundsProvider
) -> bool:
    """Can *case* between *region* and *tree*'s top node coexist with the
    proven relations to the rest of the tree?  Refutes forks that would
    build models holding in no state (e.g. a SEPARATE sibling that provably
    encloses one of the tree's children)."""
    if case is Relation.SEPARATE:
        return all(
            decide_relation(region, other, bounds).relation
            in (Relation.SEPARATE, None)
            for other in tree.all_regions()
        )
    if case is Relation.ENCLOSES:
        return all(
            decide_relation(region, other, bounds).relation
            is not Relation.SEPARATE
            for other in tree.regions
        )
    return True


def _ins_with_relation(
    t0: MemTree,
    t1: MemTree,
    rest: list[MemTree],
    relation: Relation,
    assumptions: list[Assumption],
    bounds: BoundsProvider,
) -> list[tuple[list[MemTree], frozenset[Region], list[Assumption]]]:
    if relation is Relation.ALIAS:
        # insAL: merge nodes, re-insert the union of the children forests.
        merged_children = _fold_forest(
            list(t0.children) + list(t1.children), bounds
        )
        out = []
        for children, destroyed, child_assumptions in merged_children:
            merged = MemTree(t0.regions | t1.regions, frozenset(children))
            out.append(([merged] + rest, destroyed,
                        assumptions + child_assumptions))
        return out
    if relation is Relation.SEPARATE:
        # insSEP: keep t1, recurse into the remainder.
        out = []
        for trees, destroyed, more in _ins_tree(t0, rest, bounds):
            out.append(([t1] + trees, destroyed, assumptions + more))
        return out
    if relation is Relation.ENCLOSED:
        # insENC: push t0 down into t1's children.
        out = []
        for children, destroyed, more in _ins_tree(
            t0, _sorted(t1.children), bounds
        ):
            out.append(
                ([MemTree(t1.regions, frozenset(children))] + rest,
                 destroyed, assumptions + more)
            )
        return out
    # insCON: t1 goes inside t0, then the grown t0 is inserted into the rest.
    out = []
    for children, destroyed, more in _ins_tree(t1, _sorted(t0.children), bounds):
        grown = MemTree(t0.regions, frozenset(children))
        for trees, destroyed2, more2 in _ins_tree(grown, rest, bounds):
            out.append((trees, destroyed | destroyed2,
                        assumptions + more + more2))
    return out


def _fold_forest(
    trees: list[MemTree], bounds: BoundsProvider
) -> list[tuple[list[MemTree], frozenset[Region], list[Assumption]]]:
    """Insert every tree into an initially empty forest (fold of ins)."""
    states: list[tuple[list[MemTree], frozenset[Region], list[Assumption]]] = [
        ([], frozenset(), [])
    ]
    for tree in _sorted(trees):
        next_states = []
        for forest, destroyed, assumptions in states:
            for forest2, destroyed2, more in _ins_tree(tree, forest, bounds):
                next_states.append(
                    (forest2, destroyed | destroyed2, assumptions + more)
                )
        states = next_states
    return states


# -- relation lookup within a model ------------------------------------------------

def relation_in_model(model: MemModel, r0: Region, r1: Region) -> Relation | None:
    """The relation the model's *structure* records between two regions."""
    if r0 == r1:
        return Relation.ALIAS
    if r0 in model.destroyed or r1 in model.destroyed:
        return None
    paths = _region_paths(model)
    path0, path1 = paths.get(r0), paths.get(r1)
    if path0 is None or path1 is None:
        return None
    if path0[-1] is path1[-1]:
        return Relation.ALIAS
    if len(path0) < len(path1) and path1[: len(path0)] == path0:
        return Relation.ENCLOSES  # r1 is below r0's node
    if len(path1) < len(path0) and path0[: len(path1)] == path1:
        return Relation.ENCLOSED
    return Relation.SEPARATE


def _region_paths(model: MemModel) -> dict[Region, tuple[MemTree, ...]]:
    """Each region's path of nodes, from its root down to the first node
    holding it in a pre-order walk of the sorted forest.  (``ins`` can
    leave one region in two nodes; the sorted walk picks the same one
    under any hash seed.)  Built once per model and cached on it, out of
    pickles like a tree's rendering."""
    paths = model.__dict__.get("_paths")
    if paths is None:
        paths = {}
        for tree in _sorted(model.trees):
            _walk_paths(tree, (), paths)
        object.__setattr__(model, "_paths", paths)
    return paths


def _walk_paths(tree: MemTree, path: tuple[MemTree, ...],
                paths: dict[Region, tuple[MemTree, ...]]) -> None:
    path += (tree,)
    for region in tree.regions:
        paths.setdefault(region, path)
    for child in _sorted(tree.children):
        _walk_paths(child, path, paths)


# -- concrete satisfaction (Definition 3.9) ------------------------------------------

# A region's concrete span is the half-open byte interval ``(lo, hi)``;
# ``hi <= lo`` is the empty span.  The checks below are the byte-set
# definitions (equal sets, subset, disjoint) decided on the bounds, so an
# empty span equals every other empty span, lies inside every span, and
# overlaps nothing.  Spans are not wrapped at 2**64, as the byte sets were
# not.

def _span_empty(span: tuple[int, int]) -> bool:
    return span[1] <= span[0]


def _spans_equal(a: tuple[int, int], b: tuple[int, int]) -> bool:
    if _span_empty(a) or _span_empty(b):
        return _span_empty(a) and _span_empty(b)
    return a == b


def _span_within(inner: tuple[int, int], outer: tuple[int, int]) -> bool:
    if _span_empty(inner):
        return True
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _spans_separate(spans) -> bool:
    """No two non-empty spans overlap.  Sorted by start, a set of spans
    has an overlapping pair exactly when some span starts before its
    predecessor ends."""
    live = sorted([span for span in spans if span[0] < span[1]])
    end = -1
    for lo, hi in live:
        if lo < end:
            return False
        end = hi
    return True


def model_holds(model: MemModel, env: EvalEnv) -> bool:
    """``s ⊢ M`` (Definition 3.9); destroyed regions impose nothing."""
    return compile_model(model)(env)


@lru_cache(maxsize=1 << 12)
def compile_model(model: MemModel):
    """A closure ``env -> bool`` deciding ``s ⊢ M`` (memoized).

    The closure is the tree walk of the definition: the top-level trees'
    representatives are separate; then per tree, every region of its node
    aliases the representative; per child, the child's representative
    lies inside the node and the child holds; the children's
    representatives are separate.  Trees and children are visited in
    ``str`` order and a node's regions in ``region_key`` order, so the
    order depends on the model's contents only, never on how its sets
    happen to iterate (equal models share one closure).  Each region's
    address is evaluated once, at the first point the walk needs it, and
    the closure stops where the walk stops: at the first failed check or
    unresolvable address.  The order is part of the Step-2 witness stream:
    an address that reads initial memory draws its unseen bytes at random,
    lazily.  Separation is decided on the sorted spans."""
    trees = [_compile_tree(tree) for tree in _sorted(model.trees)]
    reps = tuple(rep for rep, _ in trees)
    # A single-region leaf holds whenever its span exists: no walk to run.
    walks = tuple((i, holds) for i, (_, holds) in enumerate(trees)
                  if holds is not None)

    def check(env: EvalEnv) -> bool:
        try:
            spans = [(lo := addr_fn(env), lo + size) for addr_fn, size in reps]
            if not _spans_separate(spans):
                return False
            return all(holds(env, spans[i]) for i, holds in walks)
        except EvalError:
            return False

    return check


register_lru("memmodel.compiled", compile_model)


def _compile_tree(tree: MemTree):
    """``(representative, holds)`` for *tree*: the representative as
    ``(address closure, size)``, and ``holds(env, span)`` given the
    representative's span, or None for a single-region leaf.  Both raise
    EvalError on an unresolvable address."""
    rep, *others = [(compile_expr(region.addr), region.size)
                    for region in sorted(tree.regions, key=region_key)]
    if not others and not tree.children:
        return rep, None
    children = tuple(_compile_tree(child) for child in _sorted(tree.children))

    def holds(env: EvalEnv, first: tuple[int, int]) -> bool:
        spans = [(lo := addr_fn(env), lo + size) for addr_fn, size in others]
        if not all(_spans_equal(span, first) for span in spans):
            return False
        child_spans = []
        for (addr_fn, size), child_holds in children:
            lo = addr_fn(env)
            span = (lo, lo + size)
            if not _span_within(span, first):
                return False
            if child_holds is not None and not child_holds(env, span):
                return False
            child_spans.append(span)
        return _spans_separate(child_spans)

    return rep, holds


# -- join (Definition 3.12) -----------------------------------------------------------

def join_models(m0: MemModel, m1: MemModel,
                parent: Region | None = None) -> MemModel:
    """Partition trees by shared top-level regions (the paper's ``C⁺``
    equivalence); per class, intersect the region sets and join the child
    forests.  A class represented on only one side is dropped: the join is
    a *disjunction*, and the other side's states support no claim about
    those regions.  *parent* is set when joining a node's child forests:
    one-sided children survive only with provable enclosure in it.

    Memoized: the join reads nothing but its arguments (every solver query
    in it runs without predicate bounds), and a loop head re-joins the
    same pair of models on every fixpoint iteration."""
    return _join_models_cached(m0, m1, parent)


@lru_cache(maxsize=1 << 14)
def _join_models_cached(m0: MemModel, m1: MemModel,
                        parent: Region | None) -> MemModel:
    return _join_models_impl(m0, m1, parent)


register_lru("memmodel.join", _join_models_cached)


def _join_models_impl(m0: MemModel, m1: MemModel,
                      parent: Region | None) -> MemModel:
    distinct = list(m0.trees | m1.trees)
    classes: list[list[MemTree]] = []
    for tree in sorted(distinct, key=str):
        touching = [
            members for members in classes
            if any(member.regions & tree.regions for member in members)
        ]
        merged = [tree]
        for members in touching:
            merged += members
            classes.remove(members)
        classes.append(merged)

    joined = set()
    one_sided: list[MemTree] = []
    for members in classes:
        in0 = [t for t in members if t in m0.trees]
        in1 = [t for t in members if t in m1.trees]
        if not in0 or not in1:
            one_sided += members
            continue
        common = frozenset.intersection(*(t.regions for t in members))
        if not common:
            continue
        # Within one side, grouped trees all hold conjunctively, so their
        # children pool; across sides, children forests are joined.
        children0 = frozenset().union(*(t.children for t in in0))
        children1 = frozenset().union(*(t.children for t in in1))
        child_join = join_models(
            MemModel(children0), MemModel(children1),
            parent=min(common, key=region_key),
        )
        joined.add(MemTree(common, child_join.trees))

    # A tree known on one side only survives the (disjunctive) join exactly
    # when its relations are *necessary* — provable in every state, hence in
    # the other side's states too (this is what makes Example 3.13 work).
    # "Necessary" shows up as a deterministic, destruction-free insertion.
    forest = _sorted(joined)
    for tree in _sorted(one_sided):
        if not _tree_necessary(tree):
            continue
        if parent is not None and decide_relation(
            tree.representative(), parent
        ).relation is not Relation.ENCLOSED:
            # The enclosure in the (new) parent must itself be provable.
            continue
        outcomes = _ins_tree(tree, forest, NO_BOUNDS)
        if len(outcomes) == 1 and not outcomes[0][1]:
            forest = outcomes[0][0]
    return MemModel(frozenset(forest), m0.destroyed | m1.destroyed)


def _tree_necessary(tree: MemTree) -> bool:
    """All of the tree's internal claims are provable in every state."""
    regions = list(tree.regions)
    for i, left in enumerate(regions):
        for right in regions[i + 1:]:
            if decide_relation(left, right).relation is not Relation.ALIAS:
                return False
    reps = [child.representative() for child in tree.children]
    rep = tree.representative()
    for child_rep in reps:
        if decide_relation(child_rep, rep).relation is not Relation.ENCLOSED:
            return False
    for i, left in enumerate(reps):
        for right in reps[i + 1:]:
            if decide_relation(left, right).relation is not Relation.SEPARATE:
                return False
    return all(_tree_necessary(child) for child in tree.children)
