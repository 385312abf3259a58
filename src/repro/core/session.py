"""Interactive stepping sessions over the dense engine.

:class:`DenseSession` exposes the tick loop of
:func:`repro.core.engine.simulate_dense` as an object you can drive
incrementally: step a few ticks, inspect voltages and spikes, inject
external spikes mid-run, continue.  Useful for debugging compiled
circuits, teaching, and closed-loop experiments where stimuli depend on
observed activity (which a one-shot ``simulate`` call cannot express).

Semantics are identical to the batch engine — the test suite replays the
same stimulus through both and compares spike trains tick for tick.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Union

import numpy as np

from repro.core.engine import DenseDelivery
from repro.core.network import CompiledNetwork, Network
from repro.core.stepping import NO_IDS, RunCore
from repro.core.transient import FaultModel
from repro.core.watchdog import Watchdog
from repro.errors import SimulationError, ValidationError
from repro.telemetry.hooks import EngineHooks

__all__ = ["DenseSession"]


class DenseSession:
    """A resumable dense LIF simulation.

    >>> session = DenseSession(net)
    >>> session.inject([0])           # stimulus for the *next* tick boundary
    >>> session.step()                # advance one tick
    >>> session.fired_last            # ids that fired this tick
    >>> session.voltages[3]           # inspect state between ticks

    ``faults`` injects per-tick transient faults with the same semantics as
    the batch engines (``fault_horizon`` bounds the ticks fault schedules are
    generated for).  A ``watchdog`` always *raises* on a runaway spike
    rate (as with ``raise_on_trip``) — a session has no result object to
    carry a diagnostic stop reason.
    ``hooks`` observes per-tick events with the same semantics as the batch
    engines (no stop event: a session never stops by itself).
    """

    def __init__(
        self,
        network: Union[Network, CompiledNetwork],
        *,
        faults: Optional[FaultModel] = None,
        watchdog: Optional[Watchdog] = None,
        fault_horizon: int = 1_000_000,
        hooks: Optional[EngineHooks] = None,
    ):
        self.net = network.compile() if isinstance(network, Network) else network
        self._core = RunCore(
            self.net,
            None,
            engine="session",
            max_steps=fault_horizon,
            faults=faults,
            watchdog=replace(watchdog, raise_on_trip=True) if watchdog is not None else None,
            hooks=hooks,
        )
        self._delivery = DenseDelivery(self._core)
        self.fired_ever = self._core.fired_ever
        self.first_spike = self._core.first_spike
        self.spike_counts = self._core.spike_counts
        self.tick = -1  # step() advances to 0 first (the stimulus tick)
        self._fired_last: np.ndarray = NO_IDS

    # ------------------------------------------------------------------ #

    @property
    def voltages(self) -> np.ndarray:
        """Membrane voltages after the most recent tick."""
        return self._delivery.v

    @property
    def fired_last(self) -> np.ndarray:
        """Neuron ids that fired on the most recent tick."""
        return self._fired_last

    def inject(self, ids: Iterable[int]) -> None:
        """Queue induced spikes for the next processed tick."""
        self._core.stimulate(self.tick + 1, ids)

    def step(self, ticks: int = 1) -> np.ndarray:
        """Advance the simulation; returns the ids fired on the last tick."""
        if ticks < 1:
            raise ValidationError(f"ticks must be >= 1, got {ticks}")
        core = self._core
        for _ in range(ticks):
            self.tick += 1
            self._fired_last = core.step(self.tick, self._delivery)
            if core.wd is not None:
                core.runaway(self.tick, self._fired_last)  # raises on a trip
        return self._fired_last

    def run_until(self, predicate, *, max_ticks: int = 1_000_000) -> int:
        """Step until ``predicate(session)`` is true; returns the tick.

        Raises :class:`SimulationError` if the budget runs out first.
        """
        for _ in range(max_ticks):
            self.step()
            if predicate(self):
                return self.tick
        raise SimulationError(f"predicate not satisfied within {max_ticks} ticks")
