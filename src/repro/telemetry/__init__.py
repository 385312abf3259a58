"""Unified tracing, metrics, and profiling for the reproduction.

Three layers, each independently usable and all off by default:

* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, histograms, and timers.  Instrumentation sites throughout the
  package report through module-level helpers (:func:`counter_inc`,
  :func:`timer`, ...) that resolve the *context-scoped active registry*;
  with no registry active every helper is a cheap no-op, so production
  paths pay only a context-variable read.
* :mod:`repro.telemetry.hooks` — the per-tick engine hook API.  Both
  simulation engines and the stepping session accept an optional
  :class:`EngineHooks` observer and report spikes fired, synaptic
  deliveries, voltage probes, fault realizations, and the stop reason.
  ``hooks=None`` (the default) costs one branch per event site.
* :mod:`repro.telemetry.trace` / :mod:`repro.telemetry.profiler` —
  consumers: a bounded ring-buffer :class:`TraceRecorder` exporting
  JSON / CSV / Chrome ``trace_event`` timelines, and a :class:`Profiler`
  that wraps algorithm entry points with phase timers and reconciles the
  measured spike counts against :class:`~repro.core.cost.CostReport`.

See ``docs/telemetry.md`` for the full schema and overhead guarantees.
"""

from repro.telemetry.metrics import (
    MetricsRegistry,
    RollingWindow,
    active_registry,
    counter_inc,
    gauge_set,
    observe,
    percentile,
    timer,
    use_registry,
)
from repro.telemetry.hooks import EngineHooks, compose_hooks
from repro.telemetry.trace import TraceEvent, TraceRecorder
from repro.telemetry.profiler import PhaseStat, Profiler, ProfileReport

__all__ = [
    "MetricsRegistry",
    "RollingWindow",
    "active_registry",
    "use_registry",
    "counter_inc",
    "gauge_set",
    "observe",
    "percentile",
    "timer",
    "EngineHooks",
    "compose_hooks",
    "TraceEvent",
    "TraceRecorder",
    "Profiler",
    "ProfileReport",
    "PhaseStat",
]
