"""Dense (per-tick, vectorized) LIF simulation engine.

Advances every neuron every tick.  All per-tick state is held in flat NumPy
arrays: a voltage vector, a circular ``(max_delay + 1, n)`` delivery buffer,
and CSR synapse arrays; spike scatter uses ``np.add.at`` on the flattened
buffer.  No Python-level per-neuron work happens inside the loop except the
final bookkeeping of fired ids.

Use this engine for circuit-style networks where most ticks carry activity.
For delay-encoded graph algorithms whose simulated horizon vastly exceeds
the number of spikes, prefer
:func:`repro.core.event_engine.simulate_event_driven`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.core.network import CompiledNetwork, Network
from repro.core.result import SimulationResult
from repro.core.stepping import NO_IDS, RunCore, StimulusSpec, run_every_tick
from repro.core.transient import FaultModel
from repro.core.watchdog import Watchdog
from repro.telemetry.hooks import EngineHooks

__all__ = ["simulate_dense"]


class DenseDelivery:
    """Delivery backend of the dense engine: a ``(max_delay + 1, n)`` ring buffer.

    Row ``t % (max_delay + 1)`` accumulates the synaptic input arriving at
    tick ``t``; every tick decays and integrates all ``n`` voltages.
    """

    def __init__(self, core: RunCore) -> None:
        net = core.net
        self.net = net
        self.core = core
        self.n_slots = net.max_delay + 1
        self.buf = np.zeros((self.n_slots, net.n), dtype=np.float64)
        self.slot_counts = np.zeros(self.n_slots, dtype=np.int64)
        self.v = net.v_reset.copy()
        self._any_one_shot = bool(net.one_shot.any())

    def integrate(self, t: int) -> np.ndarray:
        if t == 0:
            return NO_IDS
        net = self.net
        slot = t % self.n_slots
        syn = self.buf[slot]
        self.slot_counts[slot] = 0
        # Eq. (1): decay toward reset, then integrate synaptic input.
        self.v = self.v + (net.v_reset - self.v) * net.tau + syn
        syn[:] = 0.0
        fire = self.v > net.v_threshold  # Eq. (2), strict
        if self._any_one_shot:
            fire &= ~(net.one_shot & self.core.fired_ever)
        return np.flatnonzero(fire)

    def reset(self, ids: np.ndarray, t: int) -> None:
        self.v[ids] = self.net.v_reset[ids]  # Eq. (3)

    def propagate(self, ids: np.ndarray, t: int) -> None:
        net = self.net
        syn, weights = self.core.deliveries(t, net.gather_out_synapses(ids))
        if not syn.size:
            return
        slots = (t + net.syn_delay[syn]) % self.n_slots
        np.add.at(self.buf.reshape(-1), slots * net.n + net.syn_dst[syn], weights)
        np.add.at(self.slot_counts, slots, 1)

    def in_flight(self) -> bool:
        return bool(self.slot_counts.any())


def simulate_dense(
    network: Union[Network, CompiledNetwork],
    stimulus: Optional[StimulusSpec] = None,
    *,
    max_steps: int,
    terminal: Optional[int] = None,
    watch: Optional[Iterable[int]] = None,
    stop_when_quiescent: bool = True,
    record_spikes: bool = False,
    probe_voltages: Optional[Iterable[int]] = None,
    faults: Optional[FaultModel] = None,
    watchdog: Optional[Watchdog] = None,
    hooks: Optional[EngineHooks] = None,
) -> SimulationResult:
    """Simulate a network tick by tick.

    Parameters
    ----------
    network:
        A :class:`Network` (compiled on the fly) or :class:`CompiledNetwork`.
    stimulus:
        Neuron ids induced to spike at tick 0, or a mapping
        ``{tick: ids}`` for multi-wave inputs (circuit pipelining tests).
    max_steps:
        Hard tick budget; the run stops with :attr:`StopReason.MAX_STEPS`
        when exhausted.
    terminal:
        Neuron whose first spike terminates the run (defaults to the
        network's designated terminal, if any).
    watch:
        Stop once every neuron in this set has fired.  Out-of-range
        ``terminal`` or ``watch`` ids raise
        :class:`~repro.errors.ValidationError`.
    stop_when_quiescent:
        Stop early when no deliveries remain scheduled and nothing fired in
        the current tick (never triggers while pacemaker neurons exist).
    record_spikes:
        Keep the full tick -> fired-ids record (memory proportional to total
        spikes).
    probe_voltages:
        Neuron ids whose voltage trace to record each tick.
    faults:
        Optional :class:`~repro.core.transient.FaultModel` injecting
        per-tick transient faults (delivery drops, spurious/stuck neurons,
        weight drift).  Semantics are identical in every engine.
    watchdog:
        Optional :class:`~repro.core.watchdog.Watchdog`.  A runaway spike
        rate stops the run (stop reason ``RUNAWAY``) with a diagnostic
        report (or raises with ``raise_on_trip``); exhausting ``max_steps``
        while activity continues attaches a non-quiescence report.
    hooks:
        Optional :class:`~repro.telemetry.hooks.EngineHooks` observer
        receiving per-tick spikes, synaptic-delivery counts, voltage-probe
        samples, fault realizations, and the stop reason.  ``None`` (the
        default) keeps the loop free of telemetry work.
    """
    net = network.compile() if isinstance(network, Network) else network
    core = RunCore(
        net,
        stimulus,
        engine="dense",
        max_steps=max_steps,
        terminal=terminal,
        watch=watch,
        record_spikes=record_spikes,
        probes=probe_voltages,
        faults=faults,
        watchdog=watchdog,
        hooks=hooks,
    )
    return run_every_tick(core, DenseDelivery(core), stop_when_quiescent)
