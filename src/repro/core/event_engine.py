"""Event-driven LIF simulation engine.

Processes spike *deliveries* from a priority queue instead of advancing
every neuron every tick.  Voltage decay between deliveries is closed
analytically: after ``dt`` quiet ticks the excess over ``v_reset`` shrinks by
``(1 - tau) ** dt``, which equals the tick-by-tick Eq. (1) update exactly
(up to floating-point associativity for fractional ``tau``).

This engine is what makes the pseudopolynomial algorithms of Sections 3–4
practical to simulate: their simulated horizon is ``T = O(L)`` (path length)
while only ``O(n + m)`` spikes ever occur, so stepping each tick would waste
``Omega(L * n)`` work.  The engine's wall-clock is ``O(S log S)`` in the
number of deliveries ``S``; the *reported* execution time is still the
simulated tick count, which is what the paper's theorems bound.

Restrictions (validated up front):

* no pacemaker neurons (``v_reset > v_threshold``) — they fire with no
  incoming events, defeating laziness; use the dense engine;
* semantics otherwise identical to :func:`repro.core.engine.simulate_dense`,
  stop metadata included, which the test suite checks on randomized
  networks.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.network import CompiledNetwork, Network
from repro.core.result import SimulationResult
from repro.core.stepping import NO_IDS, RunCore, StimulusSpec, run_active_ticks
from repro.core.transient import FaultModel
from repro.core.watchdog import Watchdog
from repro.errors import UnsupportedNetworkError
from repro.telemetry.hooks import EngineHooks

__all__ = ["simulate_event_driven"]


class HeapDelivery:
    """Delivery backend of the event engine: a heap of single deliveries.

    Heap entries are ``(arrival tick, target, weight)``.  A neuron's voltage
    is only touched when a delivery reaches it, closing the decay of the
    quiet ticks since its last update in one step.  Per-neuron state and
    parameters live in Python lists, since every access is a scalar one.
    """

    def __init__(self, core: RunCore) -> None:
        net = core.net
        self.net = net
        self.core = core
        self.heap: List[Tuple[int, int, float]] = []
        self.v: List[float] = net.v_reset.tolist()
        self.last_update = [0] * net.n
        self.v_reset: List[float] = net.v_reset.tolist()
        self.v_threshold: List[float] = net.v_threshold.tolist()
        self.decay_keep: List[float] = (1.0 - net.tau).tolist()  # per-tick retention
        self.one_shot: List[bool] = net.one_shot.tolist()
        self.indptr: List[int] = net.indptr.tolist()
        self.syn_delay: List[int] = net.syn_delay.tolist()
        self.syn_dst: List[int] = net.syn_dst.tolist()
        self.syn_weight: List[float] = net.syn_weight.tolist()

    def integrate(self, t: int) -> np.ndarray:
        heap = self.heap
        # Drain the whole batch at tick t: deliveries to one neuron sum
        # before the threshold comparison, matching v_syn of Eq. (4).
        delivered: Dict[int, float] = {}
        while heap and heap[0][0] == t:
            _, nid, w = heapq.heappop(heap)
            delivered[nid] = delivered.get(nid, 0.0) + w
        v, last_update, fired_ever = self.v, self.last_update, self.core.fired_ever
        crossed: List[int] = []
        for nid, syn in delivered.items():
            dt = t - last_update[nid]
            keep = self.decay_keep[nid]
            if dt > 0 and keep != 1.0:
                reset = self.v_reset[nid]
                v[nid] = reset + (v[nid] - reset) * keep**dt
            vhat = v[nid] + syn
            v[nid] = vhat
            last_update[nid] = t
            if vhat > self.v_threshold[nid] and not (self.one_shot[nid] and fired_ever[nid]):
                crossed.append(nid)
        if not crossed:
            return NO_IDS
        crossed.sort()
        return np.asarray(crossed, dtype=np.int64)

    def reset(self, ids: np.ndarray, t: int) -> None:
        for nid in ids.tolist():
            self.v[nid] = self.v_reset[nid]
            self.last_update[nid] = t

    def propagate(self, ids: np.ndarray, t: int) -> None:
        heap, delay, dst = self.heap, self.syn_delay, self.syn_dst
        core = self.core
        if core.rf is None:
            # no fault can mask or reweight a delivery: walk the CSR directly
            indptr, weight = self.indptr, self.syn_weight
            scheduled = 0
            for nid in ids.tolist():
                lo, hi = indptr[nid], indptr[nid + 1]
                scheduled += hi - lo
                for s in range(lo, hi):
                    heapq.heappush(heap, (t + delay[s], dst[s], weight[s]))
            core.delivered(t, scheduled)
            return
        syn, weights = core.deliveries(t, self.net.gather_out_synapses(ids))
        for s, w in zip(syn.tolist(), weights.tolist()):
            heapq.heappush(heap, (t + delay[s], dst[s], w))

    def next_arrival(self) -> Optional[int]:
        return self.heap[0][0] if self.heap else None


def simulate_event_driven(
    network: Union[Network, CompiledNetwork],
    stimulus: Optional[StimulusSpec] = None,
    *,
    max_steps: int,
    terminal: Optional[int] = None,
    watch: Optional[Iterable[int]] = None,
    stop_when_quiescent: bool = True,
    record_spikes: bool = False,
    faults: Optional[FaultModel] = None,
    watchdog: Optional[Watchdog] = None,
    hooks: Optional[EngineHooks] = None,
) -> SimulationResult:
    """Simulate a network by processing spike deliveries in time order.

    Same parameters and result semantics as
    :func:`repro.core.engine.simulate_dense` (without voltage probes, which
    are only meaningful per tick), stop metadata included: ``final_tick``
    and ``stop_reason`` follow the dense engine's tick-by-tick rules.
    Transient ``faults``, the ``watchdog`` guards and ``hooks`` observe the
    same semantics as in the dense engine; forced fault spikes are merged
    into the event stream in time order, so laziness is preserved between
    them, and because hook events are emitted per *active* tick,
    equivalent runs report identical totals on every engine.
    """
    net = network.compile() if isinstance(network, Network) else network
    if net.has_pacemakers:
        raise UnsupportedNetworkError(
            "network contains pacemaker neurons (v_reset > v_threshold); "
            "use the dense engine"
        )
    core = RunCore(
        net,
        stimulus,
        engine="event",
        max_steps=max_steps,
        terminal=terminal,
        watch=watch,
        record_spikes=record_spikes,
        faults=faults,
        watchdog=watchdog,
        hooks=hooks,
    )
    return run_active_ticks(core, HeapDelivery(core), stop_when_quiescent)
