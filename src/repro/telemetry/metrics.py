"""Counters, gauges, histograms, and timers with a context-scoped registry.

Instrumentation sites inside the package call the module-level helpers
(:func:`counter_inc`, :func:`timer`, ...).  Each helper resolves the
*active* :class:`MetricsRegistry` from a :class:`contextvars.ContextVar`;
when none is active (the default) the helper returns immediately, so
uninstrumented runs pay one context-variable read and one ``None`` check
per site — no allocation, no locking, no I/O.

Activate a registry for a scope with :func:`use_registry`::

    reg = MetricsRegistry("sssp-profile")
    with use_registry(reg):
        spiking_sssp_pseudo(g, 0)
    print(reg.snapshot()["counters"]["spikes.total"])

Registries are plain in-process objects; they are not thread-registered
anywhere, and because the active registry is a context variable, concurrent
tasks each see their own activation.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = [
    "MetricsRegistry",
    "RollingWindow",
    "active_registry",
    "use_registry",
    "counter_inc",
    "gauge_set",
    "merge_raw_into_active",
    "observe",
    "percentile",
    "timer",
]

_ACTIVE: contextvars.ContextVar[Optional["MetricsRegistry"]] = contextvars.ContextVar(
    "repro_telemetry_registry", default=None
)


class _NullTimer:
    """Reusable no-op context manager returned when no registry is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _Timer:
    """Times one ``with`` block and records the duration on exit."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._registry.timer_observe(self._name, time.perf_counter() - self._t0)
        return False


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (``0 <= q <= 1``) of ``values`` by nearest rank.

    Returns the sorted value at index ``round(q * (len(values) - 1))``, an
    observed latency rather than an interpolation between two; 0.0 when
    ``values`` is empty.  Every latency report of the package uses it.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return float(ordered[idx])


def _series_summary(values: List[float]) -> Dict[str, float]:
    n = len(values)
    ordered = sorted(values)
    return {
        "count": n,
        "total": float(sum(ordered)),
        "min": float(ordered[0]),
        "max": float(ordered[-1]),
        "mean": float(sum(ordered) / n),
        "p50": float(ordered[n // 2]),
        "p95": float(ordered[min(n - 1, (n * 95) // 100)]),
    }


class RollingWindow:
    """Fixed-capacity ring of float observations with O(1) mean.

    The building block for *rolling-rate* decisions (the serving layer's
    circuit breakers feed it 1.0 per failure and 0.0 per success and read
    :meth:`mean` as the windowed error rate).  Unlike a histogram it
    forgets: only the last ``capacity`` observations contribute, so a
    burst of old failures cannot pin a rate high forever.  Not
    thread-safe; callers serialize access (the breaker holds its own lock).
    """

    __slots__ = ("capacity", "_values", "_next", "_count", "_total")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"RollingWindow capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._values: List[float] = []
        self._next = 0
        self._count = 0
        self._total = 0.0

    def push(self, value: float) -> None:
        value = float(value)
        if self._count < self.capacity:
            self._values.append(value)
            self._count += 1
        else:
            self._total -= self._values[self._next]
            self._values[self._next] = value
        self._total += value
        self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return self._count

    def mean(self) -> float:
        """Mean of the retained observations (0.0 when empty)."""
        if self._count == 0:
            return 0.0
        return self._total / self._count

    def reset(self) -> None:
        self._values.clear()
        self._next = 0
        self._count = 0
        self._total = 0.0


class MetricsRegistry:
    """In-process metric store: counters, gauges, histograms, timers.

    Counters accumulate (:meth:`counter_inc`), gauges hold the last value
    set (:meth:`gauge_set`), histograms keep every observation
    (:meth:`observe`) and summarize on export, and timers are histograms of
    seconds fed by the :meth:`timer` context manager.  :meth:`snapshot`
    renders everything to plain JSON-serializable dicts.
    """

    def __init__(self, name: str = "default"):
        self.name = name
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}
        self._timers: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ #

    def counter_inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        self._histograms.setdefault(name, []).append(float(value))

    def timer(self, name: str) -> _Timer:
        return _Timer(self, name)

    def timer_observe(self, name: str, seconds: float) -> None:
        self._timers.setdefault(name, []).append(float(seconds))

    # ------------------------------------------------------------------ #

    def timer_total(self, name: str) -> float:
        """Total seconds recorded under ``name`` (0.0 if never observed)."""
        return float(sum(self._timers.get(name, ())))

    def timer_names(self) -> List[str]:
        return sorted(self._timers)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's observations into this one."""
        for k, v in other.counters.items():
            self.counter_inc(k, v)
        self.gauges.update(other.gauges)
        for k, vs in other._histograms.items():
            self._histograms.setdefault(k, []).extend(vs)
        for k, vs in other._timers.items():
            self._timers.setdefault(k, []).extend(vs)

    def export_raw(self) -> Dict[str, object]:
        """Lossless, picklable dump for cross-process transport.

        Unlike :meth:`snapshot` (which summarizes histogram/timer series),
        this keeps every raw observation so a parent process can
        :meth:`merge_raw` a worker's registry and still compute exact
        percentiles.  The format is plain dicts/lists of floats — safe to
        send over a ``multiprocessing`` pipe or as JSON.
        """
        return {
            "name": self.name,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: list(v) for k, v in self._histograms.items()},
            "timers": {k: list(v) for k, v in self._timers.items()},
        }

    def merge_raw(self, raw: Dict[str, object]) -> None:
        """Fold an :meth:`export_raw` dump (e.g. from a worker process) in."""
        counters = raw.get("counters", {})
        if isinstance(counters, dict):
            for k, v in counters.items():
                self.counter_inc(str(k), float(v))
        gauges = raw.get("gauges", {})
        if isinstance(gauges, dict):
            for k, v in gauges.items():
                self.gauge_set(str(k), float(v))
        for field, store in (
            ("histograms", self._histograms),
            ("timers", self._timers),
        ):
            series = raw.get(field, {})
            if isinstance(series, dict):
                for k, vs in series.items():
                    store.setdefault(str(k), []).extend(float(v) for v in vs)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self._histograms.clear()
        self._timers.clear()

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable summary of everything recorded so far."""
        return {
            "name": self.name,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                k: _series_summary(v) for k, v in self._histograms.items() if v
            },
            "timers": {k: _series_summary(v) for k, v in self._timers.items() if v},
        }


# --------------------------------------------------------------------- #
# Context-scoped activation and no-op module-level helpers
# --------------------------------------------------------------------- #


def active_registry() -> Optional[MetricsRegistry]:
    """The registry instrumentation currently reports into, if any."""
    return _ACTIVE.get()


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the active registry within the ``with`` block.

    Activations nest; the previous registry is restored on exit.
    """
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def counter_inc(name: str, value: float = 1) -> None:
    """Increment ``name`` on the active registry; no-op when none is active."""
    reg = _ACTIVE.get()
    if reg is not None:
        reg.counter_inc(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` on the active registry; no-op when none is active."""
    reg = _ACTIVE.get()
    if reg is not None:
        reg.gauge_set(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation; no-op when no registry is active."""
    reg = _ACTIVE.get()
    if reg is not None:
        reg.observe(name, value)


def merge_raw_into_active(raw: Dict[str, object]) -> None:
    """Fold an :meth:`MetricsRegistry.export_raw` dump into the active
    registry; no-op when none is active (cross-process merge helper)."""
    reg = _ACTIVE.get()
    if reg is not None:
        reg.merge_raw(raw)


def timer(name: str):
    """Context manager timing a block on the active registry.

    Returns a shared no-op context manager when no registry is active, so
    ``with timer("phase.build"):`` costs a context-variable read on
    uninstrumented runs.
    """
    reg = _ACTIVE.get()
    if reg is None:
        return _NULL_TIMER
    return reg.timer(name)
