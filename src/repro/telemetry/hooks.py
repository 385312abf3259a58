"""Per-tick engine observation hooks.

Every simulation engine (:func:`~repro.core.engine.simulate_dense`,
:func:`~repro.core.event_engine.simulate_event_driven`,
:func:`~repro.core.sparse.simulate_sparse`, the batched dense engine) and
the stepping :class:`~repro.core.session.DenseSession` accept an optional
``hooks`` argument.  When given, the engine reports each observable event to the
corresponding callback; when ``None`` (the default), every call site is a
single ``if hooks is not None`` branch, which is what keeps the disabled
path effectively free.

The contract the engine-equivalence tests enforce: on any network two
engines both support, equivalent runs report **identical totals** through this
API — same spike counts, same scheduled/dropped delivery counts, same
forced and suppressed fault realizations — even though the engines visit
the work in different orders (the dense engine aggregates each tick, the
event and sparse engines each active tick's batch).

This module deliberately imports nothing from :mod:`repro.core`, so the
engines can import it without cycles.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["EngineHooks", "compose_hooks"]


class EngineHooks:
    """Observer interface for engine events; every method is a no-op.

    Subclass and override the callbacks you need (see
    :class:`~repro.telemetry.trace.TraceRecorder` for the canonical
    consumer).  Engines only invoke callbacks for events that actually
    occur: ticks with no spikes, deliveries, faults, or probes are silent,
    which is what lets the event engine skip quiet stretches without
    breaking cross-engine totals.

    ``ids`` arguments are NumPy int arrays owned by the engine — copy them
    if you retain them beyond the callback.
    """

    def on_run_start(self, n_neurons: int, max_steps: int, engine: str) -> None:
        """A run (or stepping session) over ``n_neurons`` neurons began."""

    def on_spikes(self, tick: int, ids: np.ndarray) -> None:
        """``ids`` fired at ``tick`` (recorded spikes only, never empty)."""

    def on_deliveries(self, tick: int, scheduled: int, dropped: int) -> None:
        """Synaptic events emitted at ``tick``: ``scheduled`` survived
        fault masking and entered the delivery structure, ``dropped`` were
        lost to :class:`~repro.core.transient.SpikeDrop`-style faults."""

    def on_probe(self, tick: int, ids: Sequence[int], values: np.ndarray) -> None:
        """Voltages of the probed neurons after the ``tick`` update."""

    def on_fault_forced(self, tick: int, ids: np.ndarray) -> None:
        """The fault model forced ``ids`` to fire at ``tick`` (non-empty)."""

    def on_fault_suppressed(self, tick: int, ids: np.ndarray) -> None:
        """Would-be spikes of ``ids`` at ``tick`` were suppressed
        ("fired but lost") by the fault model (non-empty)."""

    def on_stop(self, tick: int, reason: object, diagnostic: object = None) -> None:
        """The run ended at ``tick`` with
        :class:`~repro.core.result.StopReason` ``reason``; ``diagnostic``
        carries the watchdog report when one was attached."""


class _MultiHooks(EngineHooks):
    """Fans every callback out to several observers, in order."""

    def __init__(self, parts: Sequence[EngineHooks]):
        self.parts = tuple(parts)

    def on_run_start(self, n_neurons, max_steps, engine):
        for p in self.parts:
            p.on_run_start(n_neurons, max_steps, engine)

    def on_spikes(self, tick, ids):
        for p in self.parts:
            p.on_spikes(tick, ids)

    def on_deliveries(self, tick, scheduled, dropped):
        for p in self.parts:
            p.on_deliveries(tick, scheduled, dropped)

    def on_probe(self, tick, ids, values):
        for p in self.parts:
            p.on_probe(tick, ids, values)

    def on_fault_forced(self, tick, ids):
        for p in self.parts:
            p.on_fault_forced(tick, ids)

    def on_fault_suppressed(self, tick, ids):
        for p in self.parts:
            p.on_fault_suppressed(tick, ids)

    def on_stop(self, tick, reason, diagnostic=None):
        for p in self.parts:
            p.on_stop(tick, reason, diagnostic)


def compose_hooks(*hooks: Optional[EngineHooks]) -> Optional[EngineHooks]:
    """Combine observers; ``None`` entries are skipped.

    Returns ``None`` when nothing remains (so the engines keep their
    zero-branch disabled path), the sole observer when one remains, and a
    fan-out wrapper otherwise.
    """
    parts = [h for h in hooks if h is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return _MultiHooks(parts)
