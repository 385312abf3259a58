"""Temporal abstract interpretation: sound spike-time intervals per neuron.

The linter's SC130/SC131 interval analysis answers *whether* a neuron can
ever fire (supremum-voltage argument over the LIF dynamics).  This module
generalizes it to *when*: for each neuron a sound interval
``[earliest, latest]`` such that every spike the engines can produce falls
inside it, plus a certified **quiescence bound** — a tick by which every
run (dense, event, or sparse; solo or batched) is provably silent.

The analysis rests on one causation lemma over the engine dynamics of
:mod:`repro.core.lif` (Eqs. 1-3, strict threshold):

    A non-pacemaker neuron (``v_reset <= v_threshold``, decay in
    ``[0, 1]``) entering any tick satisfies ``v <= v_threshold`` by
    induction (reset after a fire, sub-threshold otherwise), and
    ``v + (v_reset - v) * tau`` is a convex combination of two
    sub-threshold values.  Crossing the strict threshold therefore
    requires strictly positive net synaptic input that tick, which
    requires at least one **positive-weight delivery arriving at exactly
    that tick**.

Every spike thus traces back through a chain of positive-weight synapse
deliveries to a *forced origin*: an induced stimulus spike or a pacemaker.
Two consequences drive the two passes:

* **Earliest** (lower bounds): multi-source Dijkstra over the
  positive-weight synapse graph, seeded with each stimulated neuron's
  first stimulus tick and every pacemaker at tick 1 — no causal chain can
  outrun the shortest delay-weighted path.

* **Latest** (upper bounds): process the strongly connected components of
  the live positive subgraph in topological order.  A trivial SCC fires no
  later than its latest arriving cause.  Inside a non-trivial SCC every
  *caused* spike consumes one firing of its neuron, so when every member
  has a finite spike-count cap (``one_shot`` neurons cap at one; explicit
  construction contracts may cap others) a causal chain can linger at most
  ``(sum(caps) - 1) * max_internal_delay`` ticks past its entry.  A live
  cycle without such caps (or a pacemaker) is unbounded: ``latest = inf``
  for the component and everything downstream.

From the intervals: ``last_spike_bound = max(latest)`` over live neurons
and ``quiescence_bound = last_spike_bound + max_delay`` (all in-flight
deliveries from the last possible spike have landed; the dense engine's
quiescence stop triggers at or before that tick).

The model deliberately excludes **fault injection**: forced/spurious
spikes break the causation lemma, so admission decisions for fault-bearing
requests must keep their dynamic guards.  It assumes the structural
contract the linter enforces (finite params, decay in ``[0, 1]``, delays
``>= 1``); lint first.

:func:`repropagate` re-analyzes incrementally after a weight/delay patch:
only the *affected cone* — the forward closure of the patched synapses'
targets under positive synapses — can change, because no positive edge
leaves its own closure; values outside the cone are spliced from the
previous analysis and the two passes run restricted to the cone with
boundary seeding from the unchanged outside values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.core.stepping import StimulusSpec, normalize_stimulus
from repro.core.network import CompiledNetwork, Network
from repro.errors import ValidationError
from repro.staticcheck.rules import _max_voltage
from repro.telemetry.metrics import counter_inc

__all__ = [
    "NO_SPIKE",
    "TemporalAnalysis",
    "analyze_temporal",
    "repropagate",
]

#: Sentinel in ``earliest`` / ``latest`` for provably-silent neurons.
NO_SPIKE: int = -1


@dataclass(frozen=True)
class TemporalAnalysis:
    """Per-neuron sound spike-time intervals for one (network, stimulus).

    ``earliest[v] <= t <= latest[v]`` for every tick ``t`` at which neuron
    ``v`` can fire in any fault-free run; ``live[v]`` is False when ``v``
    provably never fires (both sentinels are then :data:`NO_SPIKE`).
    ``latest`` is ``inf`` for neurons downstream of an uncapped live cycle
    or a pacemaker.
    """

    net: CompiledNetwork
    live: np.ndarray
    earliest: np.ndarray
    latest: np.ndarray
    #: per-neuron first/last stimulus tick (-1 where unstimulated); kept so
    #: :func:`repropagate` re-analyzes under the identical stimulus.
    stim_min: np.ndarray
    stim_max: np.ndarray
    #: extra per-neuron spike-count caps beyond ``one_shot`` (construction
    #: contracts, e.g. the Figure-1B latch gadget's relay), sorted.
    spike_caps: Tuple[Tuple[int, int], ...] = ()

    @property
    def n(self) -> int:
        return int(self.net.n)

    @property
    def live_count(self) -> int:
        return int(self.live.sum())

    @property
    def unbounded_count(self) -> int:
        """Live neurons whose latest-spike bound is infinite."""
        return int(np.isinf(self.latest[self.live]).sum())

    @property
    def bounded(self) -> bool:
        """True when every live neuron has a finite latest-spike tick."""
        return self.unbounded_count == 0

    @property
    def last_spike_bound(self) -> Optional[int]:
        """Tick after which no neuron can fire (None when unbounded)."""
        if not self.bounded:
            return None
        if not self.live.any():
            return NO_SPIKE
        return int(self.latest[self.live].max())

    @property
    def quiescence_bound(self) -> Optional[int]:
        """Tick by which every engine's quiescence stop has fired.

        The last possible spike lands its final delivery ``max_delay``
        ticks later; the dense/sparse loops then observe an empty buffer
        and stop (final tick never below 1).  ``None`` when the network is
        not provably quiescent (pacemakers or uncapped live cycles).
        """
        last = self.last_spike_bound
        if last is None:
            return None
        if last == NO_SPIKE:
            return 1
        return max(1, last + self.net.max_delay)

    def interval(self, nid: int) -> Optional[Tuple[int, Optional[int]]]:
        """``(earliest, latest)`` for one neuron; latest None when
        unbounded; the whole interval None when provably silent."""
        if not (0 <= nid < self.n):
            raise ValidationError(f"neuron id {nid} out of range for n={self.n}")
        if not self.live[nid]:
            return None
        hi = self.latest[nid]
        return int(self.earliest[nid]), (None if np.isinf(hi) else int(hi))

    def to_dict(self) -> Dict[str, object]:
        return {
            "neurons": self.n,
            "live": self.live_count,
            "never": self.n - self.live_count,
            "unbounded": self.unbounded_count,
            "bounded": self.bounded,
            "last_spike_bound": self.last_spike_bound,
            "quiescence_bound": self.quiescence_bound,
            "max_delay": int(self.net.max_delay),
        }

    def summary(self) -> str:
        q = self.quiescence_bound
        tail = f"quiesce<={q}" if q is not None else "unbounded"
        return (
            f"temporal: {self.live_count}/{self.n} live, "
            f"{self.unbounded_count} unbounded, {tail}"
        )


def _stim_bounds(
    stimulus: Optional[StimulusSpec], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First/last stimulus tick per neuron (-1 where unstimulated)."""
    stim = normalize_stimulus(stimulus, n)
    stim_min = np.full(n, -1, dtype=np.int64)
    stim_max = np.full(n, -1, dtype=np.int64)
    for tick, ids in stim.items():
        cur = stim_min[ids]
        stim_min[ids] = np.where(cur < 0, tick, np.minimum(cur, tick))
        stim_max[ids] = np.maximum(stim_max[ids], tick)
    return stim_min, stim_max


def _normalize_caps(
    spike_caps: Optional[Mapping[int, int]], n: int
) -> Tuple[Tuple[int, int], ...]:
    if not spike_caps:
        return ()
    out: List[Tuple[int, int]] = []
    for nid, cap in spike_caps.items():
        nid, cap = int(nid), int(cap)
        if not (0 <= nid < n):
            raise ValidationError(f"spike-cap neuron id {nid} out of range")
        if cap < 1:
            raise ValidationError(f"spike cap for neuron {nid} must be >= 1")
        out.append((nid, cap))
    return tuple(sorted(out))


def analyze_temporal(
    network: Union[Network, CompiledNetwork],
    stimulus: Optional[StimulusSpec] = None,
    *,
    spike_caps: Optional[Mapping[int, int]] = None,
) -> TemporalAnalysis:
    """Compute sound per-neuron spike-time intervals for ``network``.

    ``stimulus`` uses the engine convention: a sequence of neuron ids
    induced to spike at tick 0, or a mapping ``{tick: ids}``.
    ``spike_caps`` optionally asserts construction contracts — per-neuron
    total spike-count caps beyond the automatic ``one_shot`` cap of 1 —
    which tighten the latest-pass bound inside cycles.  Caps are *trusted*
    (they come from a gadget's documented behaviour, not from this
    analysis); pass only caps you can argue for.
    """
    net = network.compile() if isinstance(network, Network) else network
    stim_min, stim_max = _stim_bounds(stimulus, net.n)
    caps = _normalize_caps(spike_caps, net.n)
    counter_inc("staticcheck.temporal.analyses", 1)
    counter_inc("staticcheck.temporal.nodes", net.n)
    return _analyze(net, stim_min, stim_max, caps, cone=None, prev=None)


def repropagate(
    prev: TemporalAnalysis,
    network: Union[Network, CompiledNetwork],
    changed_synapses: Iterable[int],
) -> TemporalAnalysis:
    """Incrementally re-analyze after a weight/delay patch.

    ``network`` must share ``prev.net``'s topology (same neuron count and
    synapse endpoints, same stimulus); only the weights/delays of
    ``changed_synapses`` (global synapse indices) may differ.  Values are
    recomputed only inside the affected cone — the forward closure of the
    changed synapses' target neurons under the new positive synapse graph
    — and spliced into the previous analysis; :func:`analyze_temporal`
    from scratch provably agrees (differential-tested).
    """
    net = network.compile() if isinstance(network, Network) else network
    if net.n != prev.net.n or net.m != prev.net.m:
        raise ValidationError(
            "repropagate requires an unchanged topology "
            f"(got n={net.n}/m={net.m}, previous n={prev.net.n}/m={prev.net.m})"
        )
    changed = np.unique(np.asarray(list(changed_synapses), dtype=np.int64))
    if changed.size and (changed[0] < 0 or changed[-1] >= net.m):
        raise ValidationError("changed synapse index out of range")
    counter_inc("staticcheck.temporal.incremental", 1)
    if changed.size == 0:
        return replace(prev, net=net)
    # Forward closure of the patched targets under positive synapses: no
    # positive edge leaves its own closure, so everything outside is
    # unaffected by construction.
    cone = np.zeros(net.n, dtype=bool)
    frontier = np.unique(net.syn_dst[changed])
    cone[frontier] = True
    while frontier.size:
        syn = net.gather_out_synapses(frontier)
        syn = syn[net.syn_weight[syn] > 0] if syn.size else syn
        dsts = np.unique(net.syn_dst[syn]) if syn.size else np.empty(0, np.int64)
        frontier = dsts[~cone[dsts]] if dsts.size else dsts
        cone[frontier] = True
    counter_inc("staticcheck.temporal.cone_nodes", int(cone.sum()))
    return _analyze(
        net, prev.stim_min, prev.stim_max, prev.spike_caps, cone=cone, prev=prev
    )


# --------------------------------------------------------------------------- #
# Core analysis
# --------------------------------------------------------------------------- #

_INF_TICK = np.iinfo(np.int64).max


def _analyze(
    net: CompiledNetwork,
    stim_min: np.ndarray,
    stim_max: np.ndarray,
    caps: Tuple[Tuple[int, int], ...],
    *,
    cone: Optional[np.ndarray],
    prev: Optional[TemporalAnalysis],
) -> TemporalAnalysis:
    n, m = net.n, net.m
    sup = _max_voltage(net)
    # can the neuron ever cross threshold from synaptic drive alone?
    can_fire = sup > net.v_threshold
    pacemaker = net.v_reset > net.v_threshold
    src_of = (
        np.repeat(np.arange(n), np.diff(net.indptr)) if m else np.empty(0, np.int64)
    )
    pos = net.syn_weight > 0 if m else np.zeros(0, dtype=bool)
    in_cone = cone if cone is not None else np.ones(n, dtype=bool)

    # ---- earliest pass: multi-source Dijkstra over positive synapses ---- #
    dist = np.full(n, _INF_TICK, dtype=np.int64)
    if prev is not None:
        outside = ~in_cone
        dist[outside] = np.where(prev.live[outside], prev.earliest[outside], _INF_TICK)
    heap: List[Tuple[int, int]] = []

    def push(v: int, t: int) -> None:
        if t < dist[v]:
            dist[v] = t
            heapq.heappush(heap, (t, v))

    for v in np.flatnonzero(in_cone & (stim_min >= 0)):
        push(int(v), int(stim_min[v]))
    for v in np.flatnonzero(in_cone & pacemaker):
        push(int(v), 1)
    if prev is not None and m:
        # boundary: positive edges entering the cone from unchanged nodes
        border = (
            pos
            & ~in_cone[src_of]
            & in_cone[net.syn_dst]
            & prev.live[src_of]
            & can_fire[net.syn_dst]
        )
        for s in np.flatnonzero(border):
            push(int(net.syn_dst[s]), int(prev.earliest[src_of[s]] + net.syn_delay[s]))

    while heap:
        t, u = heapq.heappop(heap)
        if t > dist[u]:
            continue  # stale entry
        sl = net.out_synapses(u)
        w = net.syn_weight[sl]
        d = net.syn_delay[sl]
        dsts = net.syn_dst[sl]
        ok = (w > 0) & in_cone[dsts] & can_fire[dsts]
        for v, delay in zip(dsts[ok], d[ok]):
            push(int(v), t + int(delay))

    live = dist < _INF_TICK

    # ---- latest pass: SCC condensation in topological order ------------- #
    latest = np.full(n, np.inf)
    if prev is not None:
        latest[~in_cone] = prev.latest[~in_cone]

    # spike-count cap per neuron: one_shot neurons fire at most once from
    # synaptic causes; explicit contracts may cap others.
    cap = np.where(net.one_shot, 1.0, np.inf)
    for nid, c in caps:
        cap[nid] = min(cap[nid], float(c))

    dst = net.syn_dst
    elig = (
        pos & live[src_of] & live[dst] & can_fire[dst] & in_cone[dst]
        if m
        else np.zeros(0, dtype=bool)
    )
    internal = elig & in_cone[src_of] if m else elig
    external = elig & ~in_cone[src_of] if m else elig

    # latest arrival from seeds and from outside the cone
    base = np.full(n, -np.inf)
    seeded = in_cone & (stim_max >= 0)
    base[seeded] = stim_max[seeded]
    base[in_cone & pacemaker] = np.inf
    if prev is not None and external.any():
        np.maximum.at(
            base,
            dst[external],
            prev.latest[src_of[external]] + net.syn_delay[external],
        )

    if internal.any():
        graph = sp.csr_matrix(
            (
                np.ones(int(internal.sum()), dtype=np.int8),
                (src_of[internal], dst[internal]),
            ),
            shape=(n, n),
        )
        ncomp, comp = connected_components(graph, directed=True, connection="strong")
    else:
        ncomp, comp = n, np.arange(n)

    intra = internal & (comp[src_of] == comp[dst]) if m else internal
    cross = internal & (comp[src_of] != comp[dst]) if m else internal

    comp_dmax = np.zeros(ncomp, dtype=np.int64)
    comp_cyclic = np.zeros(ncomp, dtype=bool)
    if intra.any():
        np.maximum.at(comp_dmax, comp[src_of[intra]], net.syn_delay[intra])
        comp_cyclic[comp[src_of[intra]]] = True
    comp_capsum = np.zeros(ncomp)
    live_cone = live & in_cone
    if live_cone.any():
        np.add.at(comp_capsum, comp[live_cone], cap[live_cone])

    # members per component, restricted to live cone nodes
    member_ids = np.flatnonzero(live_cone)
    member_order = np.argsort(comp[member_ids], kind="stable")
    member_ids = member_ids[member_order]
    member_ptr = np.searchsorted(comp[member_ids], np.arange(ncomp + 1))

    # Kahn over the condensation using cross edges
    cross_idx = np.flatnonzero(cross)
    indeg = np.bincount(comp[dst[cross_idx]], minlength=ncomp)
    order = np.argsort(comp[src_of[cross_idx]], kind="stable")
    cross_idx = cross_idx[order]
    cross_ptr = np.searchsorted(comp[src_of[cross_idx]], np.arange(ncomp + 1))

    queue: List[int] = np.flatnonzero(indeg == 0).tolist()
    while queue:
        c = queue.pop()
        members = member_ids[member_ptr[c] : member_ptr[c + 1]]
        if members.size:
            b = float(base[members].max())
            if comp_cyclic[c]:
                if np.isinf(b) or np.isinf(comp_capsum[c]):
                    hi = np.inf
                else:
                    hi = b + (comp_capsum[c] - 1.0) * float(comp_dmax[c])
            else:
                hi = b
            # a live node always has a seed or a live in-edge, so b is
            # finite-or-inf; clamp to earliest for interval well-formedness
            latest[members] = np.maximum(hi, dist[members].astype(np.float64))
            # relax this component's outgoing cross edges
            es = cross_idx[cross_ptr[c] : cross_ptr[c + 1]]
            if es.size:
                np.maximum.at(
                    base, dst[es], latest[src_of[es]] + net.syn_delay[es]
                )
        else:
            es = cross_idx[cross_ptr[c] : cross_ptr[c + 1]]
        for e in es:
            dc = int(comp[dst[e]])
            indeg[dc] -= 1
            if indeg[dc] == 0:
                queue.append(dc)

    earliest = np.where(live, dist, NO_SPIKE)
    latest = np.where(live, latest, float(NO_SPIKE))
    return TemporalAnalysis(
        net=net,
        live=live,
        earliest=earliest,
        latest=latest,
        stim_min=stim_min,
        stim_max=stim_max,
        spike_caps=caps,
    )
