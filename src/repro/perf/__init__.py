"""Performance layer: counters and the cache registry.

Every memoization table in the hot path (expression interning, the
canonical-sum memo, ``linearize``, the SMT verdict cache) registers itself
here so that:

* :func:`reset_caches` gives tests and the benchmark (``perfbench/``) a
  clean slate (no cross-test bleed through interning tables or memos);
* :func:`cache_stats` aggregates hit/miss statistics for the benchmark's
  per-layer metrics and ``repro profile`` without each module exposing
  its own accessors.

:class:`collector_paused` keeps the cyclic garbage collector off over
paths that make no reference cycles (the lift engine, theory export,
triple replay).
"""

from __future__ import annotations

import gc
from typing import Callable

from repro.perf.counters import PerfCounters, counters, gated

#: name -> (stats_fn, clear_fn).  stats_fn returns a small dict
#: (e.g. {"hits": h, "misses": m, "size": n}); clear_fn drops the cache.
_REGISTRY: dict[str, tuple[Callable[[], dict], Callable[[], None]]] = {}


def register_cache(name: str, stats_fn: Callable[[], dict],
                   clear_fn: Callable[[], None]) -> None:
    """Register a cache for aggregate stats and global reset."""
    _REGISTRY[name] = (stats_fn, clear_fn)


def register_lru(name: str, cached_fn) -> None:
    """Register a :func:`functools.lru_cache`-wrapped function."""
    def stats() -> dict:
        info = cached_fn.cache_info()
        return {"hits": info.hits, "misses": info.misses,
                "size": info.currsize}

    register_cache(name, stats, cached_fn.cache_clear)


def cache_stats() -> dict[str, dict]:
    """Current statistics of every registered cache."""
    return {name: stats_fn() for name, (stats_fn, _) in sorted(_REGISTRY.items())}


def reset_caches() -> None:
    """Clear every registered cache and zero the global counters.

    Interned expression nodes constructed before the reset stay valid:
    expression equality falls back to a structural check, so a node from
    before the reset still compares equal to its re-interned twin.
    """
    for _, clear_fn in _REGISTRY.values():
        clear_fn()
    counters.reset()


class collector_paused:
    """``with collector_paused():`` runs its block with the cyclic garbage
    collector off.

    Reference counting frees everything a cycle-free path drops, so the
    collector would only rescan the long-lived memo heap: in the seed-1
    lift-cold draw most of its collections, and all of its full ones,
    fell inside the lift.  Use it only over paths that
    ``tests/test_gc_cycles.py`` checks make no cyclic garbage.

    Re-entrant: each entry records whether the collector was on, and its
    exit restores exactly that, also when the block raises.  A nested
    span leaves the collector off; the outermost one turns it back on.
    Allocations made while paused still count towards the next
    collection, which runs as usual once the collector is back on.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *_exc) -> bool:
        if self._was_enabled:
            gc.enable()
        return False


__all__ = [
    "PerfCounters", "counters", "gated", "collector_paused",
    "register_cache", "register_lru", "cache_stats", "reset_caches",
]
