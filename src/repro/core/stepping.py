"""The run core every simulation engine shares.

The paper's results are statements about LIF semantics (Definitions 1–3)
and about execution time, the tick ``T`` at which a run stops.  Neither
depends on how an engine moves spikes, so :class:`RunCore` holds, once,
everything else a run does: the prologue (validation, stimulus, watch set,
terminal, faults, watchdog, ``on_run_start``), per-tick firing (induced and
forced spikes, suppression, recording), the stop rules (RUNAWAY, TERMINAL,
WATCH_SET, QUIESCENT, MAX_STEPS) and the epilogue (diagnostic, ``on_stop``,
``engine.*`` counters, the result).  Its per-run firing rules live in
the base class :class:`FiringState`, which works over arrays its caller
owns, so the batched dense engine applies the same rules to each item.

An engine supplies the two seams: a delivery backend (:class:`Delivery`)
and a tick policy, :func:`run_every_tick` (dense) or
:func:`run_active_ticks` (event, sparse).  Both policies stop on the same
tick, so every engine agrees on ``final_tick``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.core.network import CompiledNetwork
from repro.core.result import SimulationResult, StopReason
from repro.core.transient import BoundFaults, FaultModel
from repro.core.watchdog import Watchdog, WatchdogState
from repro.errors import NonQuiescenceError, RunawaySpikesError, ValidationError
from repro.telemetry.hooks import EngineHooks
from repro.telemetry.metrics import counter_inc

__all__ = ["RunCore", "normalize_stimulus", "run_every_tick", "run_active_ticks"]

StimulusSpec = Union[Sequence[int], Mapping[int, Sequence[int]]]

#: Shared empty id array; never written to.
NO_IDS = np.empty(0, dtype=np.int64)

#: Fired sets up to this size are recorded neuron by neuron.  Delay-encoded
#: runs fire one or two neurons per active tick, and on those the event
#: engine spends about half its time in vectorized recording without this.
_SCALAR_IDS = 4


def check_max_steps(max_steps: int) -> None:
    """Reject a negative tick budget."""
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")


def _in_range(arr: np.ndarray, n: int, what: str) -> np.ndarray:
    """``arr`` (``int64`` ids), after checking each lies in ``[0, n)``."""
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValidationError(f"{what} out of range for network of {n} neurons")
    return arr


def _neuron_ids(ids: Iterable[int], n: int, what: str) -> np.ndarray:
    """Sorted unique ``int64`` ids, each checked to lie in ``[0, n)``."""
    return _in_range(np.asarray(sorted(set(int(i) for i in ids)), dtype=np.int64), n, what)


def _probe_ids(probes: Iterable[int], n: int) -> List[int]:
    """Validated voltage probe ids, duplicates dropped (first occurrence kept)."""
    out = list(dict.fromkeys(int(p) for p in probes))
    for pid in out:
        if not (0 <= pid < n):
            raise ValidationError(
                f"voltage probe id {pid} out of range for network of {n} neurons"
            )
    return out


def normalize_stimulus(stimulus: Optional[StimulusSpec], n: int) -> Dict[int, np.ndarray]:
    """``{tick: sorted ids}`` with the tick-0 default, range-checked.

    Ticks listed with no ids are kept: like any stimulus tick, they hold
    off quiescence until they have passed.
    """
    if stimulus is None:
        return {}
    if not isinstance(stimulus, Mapping):
        return {0: _neuron_ids(stimulus, n, "stimulus neuron id")}
    out = {}
    for tick, ids in stimulus.items():
        if tick < 0:
            raise ValidationError(f"stimulus tick must be >= 0, got {tick}")
        out[int(tick)] = _neuron_ids(ids, n, "stimulus neuron id")
    return out


def resolve_terminal(terminal: Optional[int], net: CompiledNetwork) -> Optional[int]:
    """The terminal neuron (``terminal`` or the network's own), range-checked."""
    term = terminal if terminal is not None else net.terminal
    if term is None:
        return None
    term = int(term)
    if not (0 <= term < net.n):
        raise ValidationError(
            f"terminal neuron id {term} out of range for network of {net.n} neurons"
        )
    return term


def watch_mask(watch: Optional[Iterable[int]], n: int) -> Optional[np.ndarray]:
    """Boolean mask of the watched neurons, or ``None`` without a watch set."""
    if watch is None:
        return None
    mask = np.zeros(n, dtype=bool)
    mask[_in_range(np.fromiter(watch, dtype=np.int64), n, "watch neuron id")] = True
    return mask


class Delivery(Protocol):
    """An engine's delivery backend: how spikes reach their targets.

    ``integrate`` consumes the input arriving at tick ``t`` and returns the
    sorted ids whose voltage crossed threshold (never anything at tick 0,
    which carries induced spikes only).  ``reset`` returns the given
    neurons to ``v_reset``; ``propagate`` schedules the deliveries of the
    given fired neurons, passing their synapse ids through
    :meth:`RunCore.deliveries` for fault masking and hooks (or, with no
    fault model bound, just reporting their count to
    :meth:`RunCore.delivered`).
    """

    def integrate(self, t: int) -> np.ndarray: ...

    def reset(self, ids: np.ndarray, t: int) -> None: ...

    def propagate(self, ids: np.ndarray, t: int) -> None: ...


class TickDelivery(Delivery, Protocol):
    """Backend of the every-tick policy: exposes voltages and in-flight work."""

    v: np.ndarray

    def in_flight(self) -> bool: ...


class EventDelivery(Delivery, Protocol):
    """Backend of the active-tick policy: names the next arrival tick."""

    def next_arrival(self) -> Optional[int]: ...


class FiringState:
    """The firing and recording rules of one run, over caller-owned arrays.

    Holds the pending induced input, the bound fault realization and the
    terminal and watch-set progress, updates ``first_spike``,
    ``spike_counts`` and ``fired_ever`` in place, and fault-masks the
    synaptic events the run emits.  :class:`RunCore` is one per run; the
    batched dense engine keeps one per item, over rows of its ``(B, n)``
    arrays.
    """

    def __init__(
        self,
        net: CompiledNetwork,
        stim: Dict[int, np.ndarray],
        first_spike: np.ndarray,
        spike_counts: np.ndarray,
        fired_ever: np.ndarray,
        *,
        term: Optional[int],
        watch_mask: Optional[np.ndarray],
        record_spikes: bool,
        rf: Optional[BoundFaults],
        hooks: Optional[EngineHooks],
    ) -> None:
        self.net = net
        self.stim = stim
        self.first_spike = first_spike
        self.spike_counts = spike_counts
        self.fired_ever = fired_ever
        self.term = term
        self.watch_mask = watch_mask
        self.watch_remaining = int(watch_mask.sum()) if watch_mask is not None else 0
        self.spike_events: Optional[Dict[int, np.ndarray]] = {} if record_spikes else None
        self.rf = rf
        self.next_forced = rf.next_forced_tick(-1) if rf is not None else None
        self.hooks = hooks

    def awaiting_input(self) -> bool:
        """Whether stimulus or forced fault spikes are still to come."""
        return bool(self.stim) or self.next_forced is not None

    def next_input(self) -> Optional[int]:
        """Earliest tick still to come with stimulus or forced fault spikes."""
        nxt = min(self.stim) if self.stim else None
        forced = self.next_forced
        if forced is not None and (nxt is None or forced < nxt):
            return forced
        return nxt

    def fire(self, t: int, crossed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Firing at tick ``t`` given the sorted threshold crossings.

        Induced spikes fire unconditionally.  Returns ``(reset, fired)``:
        every neuron that fired, whose voltage resets, and the subset that
        survived fault suppression, which is recorded and propagates.
        Suppressed spikes are "fired but lost".
        """
        ids = crossed
        if self.stim:
            induced = self.stim.pop(t, None)
            if induced is not None and induced.size:
                ids = np.union1d(ids, induced)
        rf = self.rf
        if rf is not None and self.next_forced == t:
            forced = rf.forced_at(t)
            if forced.size:
                if self.hooks is not None:
                    self.hooks.on_fault_forced(t, forced)
                ids = np.union1d(ids, forced)
            self.next_forced = rf.next_forced_tick(t)
        fired = ids
        if rf is not None and ids.size:
            sup = rf.suppressed(t, ids)
            if sup.any():
                if self.hooks is not None:
                    self.hooks.on_fault_suppressed(t, ids[sup])
                fired = ids[~sup]
        if fired.size:
            self._record(t, fired)
        return ids, fired

    def _record(self, t: int, ids: np.ndarray) -> None:
        fired_ever, watch = self.fired_ever, self.watch_mask
        if ids.size <= _SCALAR_IDS:
            # per-call NumPy overhead dominates tiny sets, the common case
            # of delay-encoded runs, so walk them as Python ints
            for nid in ids.tolist():
                if not fired_ever[nid]:
                    fired_ever[nid] = True
                    self.first_spike[nid] = t
                    if watch is not None and watch[nid]:
                        self.watch_remaining -= 1
                self.spike_counts[nid] += 1
        else:
            newly = ids[~fired_ever[ids]]
            if newly.size:
                self.first_spike[newly] = t
                fired_ever[newly] = True
                if watch is not None:
                    self.watch_remaining -= int(watch[newly].sum())
            self.spike_counts[ids] += 1
        if self.spike_events is not None:
            self.spike_events[t] = ids
        if self.hooks is not None:
            self.hooks.on_spikes(t, ids)

    def deliveries(self, t: int, syn: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fault-mask the synaptic events emitted at ``t``.

        ``syn`` holds synapse ids.  Returns the surviving ids and their
        (possibly drifted) weights, and reports both counts to the hooks.
        Fault decisions hash ``(seed, tick, synapse)``, so they do not
        depend on the order a backend gathers synapses in.
        """
        weights = self.net.syn_weight[syn]
        if not syn.size:
            return syn, weights
        dropped = 0
        rf = self.rf
        if rf is not None:
            keep = rf.keep_deliveries(t, syn)
            if not keep.all():
                dropped = int(syn.size - keep.sum())
                syn = syn[keep]
                weights = weights[keep]
            if syn.size:
                weights = rf.deliver_weights(t, syn, weights)
        self.delivered(t, int(syn.size), dropped)
        return syn, weights

    def delivered(self, t: int, scheduled: int, dropped: int = 0) -> None:
        """Report the synaptic events emitted at ``t`` (none: no report)."""
        if self.hooks is not None and (scheduled or dropped):
            self.hooks.on_deliveries(t, scheduled, dropped)

    def settled(self) -> Optional[StopReason]:
        """TERMINAL once the terminal fired, else WATCH_SET once all watched did."""
        if self.term is not None and self.fired_ever[self.term]:
            return StopReason.TERMINAL
        if self.watch_mask is not None and self.watch_remaining == 0:
            return StopReason.WATCH_SET
        return None

    def close(
        self,
        t: int,
        reason: StopReason,
        diagnostic: Optional[object] = None,
        voltages: Optional[Dict[int, np.ndarray]] = None,
    ) -> SimulationResult:
        """End the run at tick ``t``: ``on_stop``, ``engine.*`` counters, the result."""
        if self.hooks is not None:
            self.hooks.on_stop(t, reason, diagnostic)
        counter_inc("engine.runs", 1)
        counter_inc("engine.spikes", int(self.spike_counts.sum()))
        counter_inc("engine.ticks", t)
        return SimulationResult(
            first_spike=self.first_spike.copy(),
            spike_counts=self.spike_counts.copy(),
            final_tick=t,
            stop_reason=reason,
            spike_events=self.spike_events,
            voltages=voltages,
            diagnostic=diagnostic,
        )


class RunCore(FiringState):
    """Engine-independent state and rules of one simulation run.

    Constructing it runs the prologue; :meth:`step` processes one tick
    against a delivery backend; :meth:`stop_reason` and :meth:`finish`
    apply the stop rules and the epilogue.  ``first_spike``,
    ``spike_counts`` and ``fired_ever`` are updated in place, so a backend
    (or a :class:`~repro.core.session.DenseSession`) may hold on to them.
    """

    def __init__(
        self,
        net: CompiledNetwork,
        stimulus: Optional[StimulusSpec],
        *,
        engine: str,
        max_steps: int,
        terminal: Optional[int] = None,
        watch: Optional[Iterable[int]] = None,
        record_spikes: bool = False,
        probes: Optional[Iterable[int]] = None,
        faults: Optional[FaultModel] = None,
        watchdog: Optional[Watchdog] = None,
        hooks: Optional[EngineHooks] = None,
    ) -> None:
        check_max_steps(max_steps)
        n = net.n
        super().__init__(
            net,
            normalize_stimulus(stimulus, n),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=bool),
            term=resolve_terminal(terminal, net),
            watch_mask=watch_mask(watch, n),
            record_spikes=record_spikes,
            rf=faults.bind(net, max_steps) if faults is not None else None,
            hooks=hooks,
        )
        self.max_steps = max_steps
        self.probes = _probe_ids(probes, n) if probes is not None else []
        self._probe_arr = np.asarray(self.probes, dtype=np.int64)
        self._traces: List[List[float]] = [[] for _ in self.probes]
        self.watchdog = watchdog
        self.wd = WatchdogState(watchdog, n, net.names) if watchdog is not None else None
        self.diagnostic: Optional[object] = None
        if hooks is not None:
            hooks.on_run_start(n, max_steps, engine)

    def stimulate(self, t: int, ids: Iterable[int]) -> None:
        """Add induced spikes at tick ``t`` (which must not have run yet)."""
        ids_arr = _neuron_ids(ids, self.net.n, "stimulus neuron id")
        self.stim[t] = np.union1d(self.stim[t], ids_arr) if t in self.stim else ids_arr

    def step(self, t: int, delivery: Delivery) -> np.ndarray:
        """Process tick ``t``; returns the recorded (propagating) spikes."""
        reset, fired = self.fire(t, delivery.integrate(t))
        if reset.size:
            delivery.reset(reset, t)
        if fired.size:
            delivery.propagate(fired, t)
        return fired

    def sample(self, t: int, v: np.ndarray) -> None:
        """Record the probed voltages after tick ``t``."""
        values = v[self._probe_arr]
        for trace, value in zip(self._traces, values.tolist()):
            trace.append(value)
        if self.hooks is not None:
            self.hooks.on_probe(t, self.probes, values)

    def runaway(self, t: int, fired: np.ndarray) -> bool:
        """Feed the watchdog; True when it trips (raises with ``raise_on_trip``)."""
        assert self.wd is not None and self.watchdog is not None
        report = self.wd.observe(t, fired)
        if report is None:
            return False
        if self.watchdog.raise_on_trip:
            raise RunawaySpikesError(report.describe(), report)
        self.diagnostic = report
        return True

    def stop_reason(self, t: int, fired: np.ndarray) -> Optional[StopReason]:
        """RUNAWAY, TERMINAL or WATCH_SET after tick ``t``, in that order."""
        if self.wd is not None and self.runaway(t, fired):
            return StopReason.RUNAWAY
        return self.settled()

    def finish(self, t: int, reason: StopReason) -> SimulationResult:
        """End the run at tick ``t``, with the non-quiescence diagnostic and probe traces."""
        if reason is StopReason.MAX_STEPS and self.wd is not None:
            assert self.watchdog is not None
            report = self.wd.non_quiescence(t)
            if report is not None:
                if self.watchdog.raise_on_trip:
                    raise NonQuiescenceError(report.describe(), report)
                self.diagnostic = report
        voltages = (
            {p: np.asarray(trace, dtype=np.float64) for p, trace in zip(self.probes, self._traces)}
            if self.probes
            else None
        )
        return self.close(t, reason, self.diagnostic, voltages)


# --------------------------------------------------------------------- #
# Tick policies


def run_every_tick(
    core: RunCore, delivery: TickDelivery, stop_when_quiescent: bool
) -> SimulationResult:
    """Visit every tick from 0 until a stop rule fires.

    A run is quiescent at the first tick ``t >= 1`` on which nothing fired,
    no delivery is in flight and no induced input is still to come.
    Pacemaker neurons fire without input, so they rule quiescence out.
    """
    quiescible = stop_when_quiescent and not core.net.has_pacemakers
    probing = bool(core.probes)
    guarded = core.wd is not None
    max_steps = core.max_steps
    t = 0
    while True:
        fired = core.step(t, delivery)
        if probing:
            core.sample(t, delivery.v)
        reason = core.stop_reason(t, fired) if guarded else core.settled()
        if reason is None:
            if (
                quiescible
                and t
                and not fired.size
                and not delivery.in_flight()
                and not core.awaiting_input()
            ):
                reason = StopReason.QUIESCENT
            elif t >= max_steps:
                reason = StopReason.MAX_STEPS
        if reason is not None:
            return core.finish(t, reason)
        t += 1


def run_active_ticks(
    core: RunCore, delivery: EventDelivery, stop_when_quiescent: bool
) -> SimulationResult:
    """Jump from tick 0 through the ticks that carry activity.

    A tick is active when a delivery arrives or induced input is due; the
    quiet ticks between change nothing but voltage decay, which the backend
    closes analytically.  Stops land where :func:`run_every_tick` puts
    them: once nothing is left, the run is quiescent one tick after its
    last active tick if something fired then, on that tick otherwise, and
    never before tick 1.
    """
    guarded = core.wd is not None
    max_steps = core.max_steps
    t = 0
    while True:
        fired = core.step(t, delivery)
        reason = core.stop_reason(t, fired) if guarded else core.settled()
        if reason is not None:
            return core.finish(t, reason)
        nxt = delivery.next_arrival()
        pending = core.next_input()
        if pending is not None and (nxt is None or pending < nxt):
            nxt = pending
        if nxt is None:
            quiet_at = t + 1 if fired.size or not t else t
            if stop_when_quiescent and quiet_at <= max_steps:
                return core.finish(quiet_at, StopReason.QUIESCENT)
            return core.finish(max_steps, StopReason.MAX_STEPS)
        if nxt > max_steps:
            return core.finish(max_steps, StopReason.MAX_STEPS)
        t = nxt
