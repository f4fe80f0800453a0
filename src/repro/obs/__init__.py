"""Observability: structured tracing, metrics, and lift provenance.

The pipeline (lifter → solver → predicate join → export → eval runner) is
instrumented with one process-global :data:`tracer` and one
:data:`metrics` registry.  Both are **off by default** and every
instrumented site is guarded by a single ``tracer.enabled`` branch, so the
disabled overhead matches the ``counters.enabled`` discipline of
:mod:`repro.perf` — one attribute load and a jump.

Typical uses::

    from repro import obs

    obs.enable()                  # default sampling (bench-verified <=5%)
    result = lift(binary)
    print(obs.tracer.events())    # the raw event stream
    obs.disable()

    # Full-fidelity single-binary forensics (what `python -m repro trace`
    # does): record everything, then reconstruct causal chains.
    obs.enable(sampling=1)
    result = lift(binary)
    report = obs.build_provenance(result, obs.tracer.events())
    print(report.render())

The package is zero-dependency (stdlib only) and imports nothing from the
rest of :mod:`repro`, so every layer may import it without cycles.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace_json,
    event_to_obj,
    events_jsonl,
    to_chrome_trace,
    validate_event_obj,
    validate_jsonl,
)
from repro.obs.metrics import (
    Histogram,
    Metrics,
    canonical_snapshot,
    merge_snapshots,
    metrics,
    percentile,
    percentiles,
)
from repro.obs.profile import (
    PhaseTimer,
    Profile,
    build_profile,
    canonical_profile,
    collapsed_stacks,
    phase,
    phases,
    render_profile,
)
from repro.obs.progress import (
    PROGRESS_EVENT_KINDS,
    ProgressEmitter,
    validate_progress_jsonl,
    validate_progress_obj,
)
from repro.obs.provenance import (
    Cause,
    CauseChain,
    ProvenanceReport,
    TruncatedTraceError,
    build_provenance,
)
from repro.obs.report import (
    canonical_obs,
    merge_rollup,
    render_obs_rollup,
    render_trace_summary,
    task_obs_data,
)
from repro.obs.tracer import (
    DEFAULT_CAPACITY,
    DEFAULT_SAMPLING,
    Event,
    Tracer,
    tracer,
)


def enable(sampling: int = DEFAULT_SAMPLING,
           capacity: int | None = None) -> None:
    """Switch the whole obs layer on (tracer + metrics, one switch)."""
    tracer.configure(enabled=True, sampling=sampling, capacity=capacity)


def disable() -> None:
    """Switch the obs layer off (buffered events are kept until reset)."""
    tracer.configure(enabled=False)


def is_enabled() -> bool:
    return tracer.enabled


def reset() -> None:
    """Clear buffered events, counts, metrics, and phase totals (keeps
    enabled state)."""
    tracer.reset()
    metrics.reset()
    phases.reset()


def hold() -> tuple | None:
    """Start recording speculative work: events are held back and the
    deterministic counts can be put back.  None while the layer is off."""
    if not tracer.enabled:
        return None
    return tracer.hold(), metrics.checkpoint(), phases.counts()


def release(token: tuple | None, keep: bool) -> None:
    """End a :func:`hold`.  *keep* records the held events as if nothing
    had been held; otherwise the events are dropped, and event counts,
    metrics and phase counts go back to what they were at the hold."""
    if token is None:
        return
    counts, metric_state, phase_counts = token
    tracer.release(counts, keep)
    if not keep:
        metrics.restore(metric_state)
        phases.restore_counts(phase_counts)


def save_state() -> tuple:
    """Capture (enabled, sampling, capacity) so a scoped user can restore
    it: a ``--capacity`` given to one verb must not shrink the next one's
    ring."""
    return (tracer.enabled, tracer.sampling, tracer.capacity)


def restore_state(state: tuple) -> None:
    enabled, sampling, capacity = state
    tracer.configure(enabled=enabled, sampling=sampling, capacity=capacity)


__all__ = [
    "DEFAULT_CAPACITY", "DEFAULT_SAMPLING", "Event", "Tracer", "tracer",
    "Histogram", "Metrics", "metrics", "percentile", "percentiles",
    "canonical_snapshot", "merge_snapshots",
    "PhaseTimer", "Profile", "build_profile", "canonical_profile",
    "collapsed_stacks", "phase", "phases", "render_profile",
    "PROGRESS_EVENT_KINDS", "ProgressEmitter",
    "validate_progress_jsonl", "validate_progress_obj",
    "chrome_trace_json", "event_to_obj", "events_jsonl",
    "to_chrome_trace", "validate_event_obj", "validate_jsonl",
    "Cause", "CauseChain", "ProvenanceReport", "TruncatedTraceError",
    "build_provenance",
    "canonical_obs", "merge_rollup", "render_obs_rollup",
    "render_trace_summary", "task_obs_data",
    "enable", "disable", "is_enabled", "reset", "hold", "release",
    "save_state", "restore_state",
]
