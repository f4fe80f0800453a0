"""Named counters, timers, and histograms for the observability layer.

Extends the flat integer slots of :mod:`repro.perf.counters` with the
shapes the paper's evaluation needs (join depth, SMT wall time, queue
length, instructions per function) while keeping two properties:

* **one-branch gating** — callers guard on ``tracer.enabled`` (a single
  switch for the whole obs layer), so the disabled cost is unchanged;
* **deterministic aggregation** — histograms use fixed power-of-two
  buckets, so merging per-worker snapshots is order-independent and a
  serial corpus run and a worker-pool run roll up to identical canonical
  content.  Wall-clock timers are the exception and are therefore excluded
  from :func:`canonical_snapshot`, exactly like ``seconds`` in the corpus
  report.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Any


class Histogram:
    """A power-of-two-bucket histogram of non-negative integers.

    Value ``v`` lands in bucket ``v.bit_length()``: bucket 0 holds the
    value 0, bucket ``i`` holds ``[2**(i-1), 2**i)``.  Fixed boundaries
    make merges associative and deterministic.
    """

    __slots__ = ("counts", "total", "sum", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0
        self.sum = 0
        self.max = 0

    def observe(self, value: int) -> None:
        bucket = int(value).bit_length() if value > 0 else 0
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.total += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy: bucket keys are the inclusive upper bound."""
        buckets = {
            str((1 << b) - 1 if b else 0): n
            for b, n in sorted(self.counts.items())
        }
        return {"count": self.total, "sum": self.sum, "max": self.max,
                "buckets": buckets}

    @staticmethod
    def merge(into: dict[str, Any], other: dict[str, Any]) -> dict[str, Any]:
        """Merge one snapshot into another (returns *into*)."""
        into["count"] = into.get("count", 0) + other.get("count", 0)
        into["sum"] = into.get("sum", 0) + other.get("sum", 0)
        into["max"] = max(into.get("max", 0), other.get("max", 0))
        buckets = into.setdefault("buckets", {})
        for key, n in other.get("buckets", {}).items():
            buckets[key] = buckets.get(key, 0) + n
        return into


def percentile(snapshot: dict[str, Any], q: float) -> float:
    """The *q*-th percentile (0 < q <= 100) estimated from a snapshot.

    Works on the bucket form :meth:`Histogram.snapshot` emits (and hence
    on merged snapshots): the rank lands in one power-of-two bucket
    ``[lo, hi]`` and the estimate interpolates linearly inside it.  A
    derived view only — nothing is stored, so ``canonical_snapshot``
    merges stay order-independent.
    """
    total = snapshot.get("count", 0)
    if not total:
        return 0.0
    rank = q / 100.0 * total
    seen = 0.0
    buckets = sorted((int(upper), n)
                     for upper, n in snapshot.get("buckets", {}).items())
    for upper, n in buckets:
        if seen + n >= rank:
            lo = 0 if upper == 0 else (upper + 1) // 2
            if n <= 1 or upper == lo:
                return float(min(upper, snapshot.get("max", upper)))
            fraction = (rank - seen) / n
            estimate = lo + fraction * (upper - lo)
            return float(min(estimate, snapshot.get("max", estimate)))
        seen += n
    return float(snapshot.get("max", 0))


def percentiles(snapshot: dict[str, Any],
                qs: tuple[float, ...] = (50, 90, 99)) -> dict[str, float]:
    """p50/p90/p99-style estimates for one histogram snapshot."""
    return {f"p{q:g}": percentile(snapshot, q) for q in qs}


class Metrics:
    """A registry of named counters, wall-time accumulators and histograms.

    All three families are created on first use; names are dotted strings
    (``"smt.queries"``, ``"join.depth"``).  Not thread-safe by design —
    the lifter is single-threaded per process, and worker processes each
    own their module-global instance.
    """

    __slots__ = ("counters", "timers", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, list] = {}   # name -> [seconds, count]
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = [0.0, 0]
        timer[0] += seconds
        timer[1] += 1

    def observe(self, name: str, value: int) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def reset(self) -> None:
        self.counters = {}
        self.timers = {}
        self.histograms = {}

    def checkpoint(self) -> tuple:
        """The counters and histograms, to :meth:`restore` later.  Timers
        are wall-clock and keep running."""
        histograms = {}
        for name, histogram in self.histograms.items():
            copy = histograms[name] = Histogram()
            copy.counts = dict(histogram.counts)
            copy.total, copy.sum, copy.max = \
                histogram.total, histogram.sum, histogram.max
        return dict(self.counters), histograms

    def restore(self, state: tuple) -> None:
        self.counters, self.histograms = state

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy of everything (JSON-ready)."""
        return {
            "counters": dict(self.counters),
            "timers": {name: {"seconds": t[0], "count": t[1]}
                       for name, t in self.timers.items()},
            "histograms": {name: h.snapshot()
                           for name, h in self.histograms.items()},
        }


def canonical_snapshot(snapshot: dict[str, Any]) -> dict[str, Any]:
    """The deterministic view of a metrics snapshot.

    Drops the ``timers`` family (wall-clock) — counters and histograms of
    the quantities this repo instruments are pure functions of the lifted
    task, so they survive into canonical report comparisons.
    """
    return {
        "counters": dict(snapshot.get("counters", {})),
        "histograms": {name: dict(h, buckets=dict(h.get("buckets", {})))
                       for name, h in snapshot.get("histograms", {}).items()},
    }


def merge_snapshots(into: dict[str, Any], other: dict[str, Any]) -> dict:
    """Accumulate one :meth:`Metrics.snapshot` dict into another."""
    counters = into.setdefault("counters", {})
    for name, n in other.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + n
    timers = into.setdefault("timers", {})
    for name, t in other.get("timers", {}).items():
        slot = timers.setdefault(name, {"seconds": 0.0, "count": 0})
        slot["seconds"] += t["seconds"]
        slot["count"] += t["count"]
    histograms = into.setdefault("histograms", {})
    for name, h in other.get("histograms", {}).items():
        Histogram.merge(histograms.setdefault(name, {}), h)
    return into


#: The process-global metrics registry, switched together with the tracer
#: (see :func:`repro.obs.enable`).
metrics = Metrics()
