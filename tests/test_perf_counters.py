"""Guards for the performance layer: counters, cache registry, resets.

The perf counters and the cache registry sit on the lifter's hottest
paths; these tests pin down the contracts the rest of the PR relies on:
counters are near-free when disabled, reset cleanly, and no state bleeds
between tests through the interning tables or memo caches.
"""

from __future__ import annotations

import pytest

from repro.perf import cache_stats, reset_caches
from repro.perf.counters import PerfCounters, counters


@pytest.fixture(autouse=True)
def _clean_perf_state():
    """Every test starts and ends with empty caches and zeroed counters."""
    reset_caches()
    counters.enabled = True
    yield
    counters.enabled = True
    reset_caches()


def test_reset_zeroes_every_field():
    counters.expr_new += 7
    counters.solver_hits += 3
    counters.reset()
    assert all(getattr(counters, name) == 0 for name in counters._FIELDS)


def test_reset_preserves_enabled_flag():
    counters.enabled = False
    counters.reset()
    assert counters.enabled is False


def test_snapshot_is_a_detached_copy():
    snap = counters.snapshot()
    counters.expr_new += 5
    assert snap["expr_new"] + 5 == counters.expr_new
    assert set(snap) == set(counters._FIELDS)


def test_delta_and_merge_arithmetic():
    before = {"expr_new": 10, "solver_hits": 2}
    after = {"expr_new": 25, "solver_hits": 2, "solver_misses": 4}
    delta = PerfCounters.delta(before, after)
    assert delta == {"expr_new": 15, "solver_hits": 0, "solver_misses": 4}

    total: dict[str, int] = {"expr_new": 1}
    PerfCounters.merge(total, delta)
    PerfCounters.merge(total, delta)
    assert total == {"expr_new": 31, "solver_hits": 0, "solver_misses": 8}


def test_disabled_counters_do_not_count():
    from repro.expr.ast import Var

    counters.enabled = False
    before = counters.snapshot()
    # Both a fresh construction (miss) and a re-construction (hit).
    Var("perfcounters_disabled_probe")
    Var("perfcounters_disabled_probe")
    assert counters.snapshot() == before

    counters.enabled = True
    Var("perfcounters_enabled_probe")
    assert counters.expr_new > before["expr_new"]


def test_construction_counts_hits_and_misses():
    from repro.expr.ast import Const

    counters.reset()
    a = Const(0xBEEF_0001)   # miss: not interned yet this test
    b = Const(0xBEEF_0001)   # hit
    assert a is b
    assert counters.expr_new >= 1
    assert counters.intern_hits >= 1


def test_cache_stats_shape():
    stats = cache_stats()
    # The core hot-path caches must all be registered.
    for name in ("expr.intern", "simplify.sum", "smt.decide",
                 "smt.fingerprint_terms", "pred.interval_of"):
        assert name in stats, f"{name} not registered"
        assert {"hits", "misses", "size"} <= set(stats[name])


def test_reset_caches_clears_registered_state():
    from repro.expr.ast import Var
    from repro.expr.simplify import add

    add(Var("pc_reset_x"), Var("pc_reset_y"))
    assert cache_stats()["simplify.sum"]["size"] > 0
    reset_caches()
    stats = cache_stats()
    assert stats["simplify.sum"]["size"] == 0
    assert stats["smt.decide"] == {"hits": 0, "misses": 0, "size": 0}
    assert counters.snapshot() == dict.fromkeys(counters._FIELDS, 0)


def test_no_cross_test_bleed_through_intern_tables():
    """After a reset, re-construction re-interns (no stale table entries)."""
    from repro.expr.ast import Var

    first = Var("pc_bleed_probe")
    reset_caches()
    counters.reset()
    second = Var("pc_bleed_probe")
    # The table was dropped, so this construction is a fresh miss ...
    assert counters.expr_new == 1
    # ... and pre-reset nodes stay comparable via the structural fallback.
    assert first == second and hash(first) == hash(second)

