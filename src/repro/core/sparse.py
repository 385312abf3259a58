"""Sparse CSR simulation core for large delay-encoded networks.

The dense engine keeps a ``(max_delay + 1, n)`` circular delivery buffer and
touches every neuron every tick — ``O(n)`` work and ``O(n * max_delay)``
memory even when almost nothing spikes.  The event engine skips quiet ticks
but pays pure-Python heap churn per delivery.  This module is the third
point in that design space: compile the synapse table once into **per-delay
CSR slices** (`scipy.sparse` matrices, one per distinct delay) and simulate
by **vectorized gather/scatter over only the ticks that carry activity**.

Compile-time artifact (:func:`sparse_compile` →
:class:`SparseCompiledNetwork`):

* synapses are stably sorted by delay, preserving the dense engine's
  (source asc, CSR position asc) order *within* each delay bucket;
* each bucket holds a compact ``(S_k, n)`` ``scipy.sparse.csr_matrix``
  (rows = only the sources that have synapses of that delay) plus the
  global synapse ids aligned with its data — faults hash global synapse
  ids, so counter-seeded fault realizations match the dense engine exactly;
* a per-synapse bucket label lets one tick's scatter group the fired
  neurons' out-synapses by delay with a single radix sort, visiting only
  the delay buckets actually reached that tick.

Run time (:func:`simulate_sparse`): a ring buffer of ``max_delay + 1``
chunk lists holds in-flight deliveries as ``(dst, weight)`` array pairs; a
heap of arrival ticks plus the stimulus / forced-fault schedules yields the
next *active* tick, and everything between active ticks is closed
analytically (voltage decay here, quiescence by the run core's active-tick
policy in :mod:`repro.core.stepping`).  Peak memory is
``O(n + m + in-flight deliveries)`` — no ``(max_delay + 1, n)`` buffer and
never a dense ``(n, n)`` matrix, which is what lets SSSP networks reach
``n = 10^5`` (see ``docs/sparse_engine.md`` and the memory-regression
test).

Semantics are identical to :func:`repro.core.engine.simulate_dense` —
spike-for-spike, including stop metadata, fault realizations, and hook
totals — up to the same fractional-``tau`` float-associativity caveat as
the event engine.  Restrictions: no pacemaker neurons and no voltage
probes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.cache import BuildCache
from repro.core.network import CompiledNetwork, Network
from repro.core.result import SimulationResult
from repro.core.stepping import NO_IDS, RunCore, StimulusSpec, run_active_ticks
from repro.core.transient import FaultModel
from repro.core.watchdog import Watchdog
from repro.errors import UnsupportedNetworkError
from repro.telemetry.hooks import EngineHooks
from repro.telemetry.metrics import counter_inc

__all__ = [
    "SPARSE_AUTO_MIN_NEURONS",
    "SPARSE_DENSITY_THRESHOLD",
    "DelayBucket",
    "SparseCompiledNetwork",
    "network_density",
    "prefers_sparse",
    "sparse_compile",
    "simulate_sparse",
]

#: Below this neuron count the auto-dispatcher never picks the sparse
#: engine: small networks fit the dense buffers comfortably and the dense
#: per-tick loop has less per-call overhead.  Configurable at runtime
#: (tests and benchmarks lower it to exercise the sparse path on small
#: instances).
SPARSE_AUTO_MIN_NEURONS: int = 2048

#: Maximum synapse density ``m / n^2`` at which the auto-dispatcher
#: considers a network sparse.  Graph-algorithm networks sit far below
#: this (SSSP at n=10^4 with average degree 6 has density 6e-4); circuit
#: networks with broadcast fan-out sit above it and stay on dense.
SPARSE_DENSITY_THRESHOLD: float = 0.05

_MEMO_ATTR = "_sparse_artifact"


@dataclass(frozen=True, eq=False)
class DelayBucket:
    """All synapses sharing one delay, as a compact CSR slice.

    ``matrix`` is a ``(len(srcs), n)`` :class:`scipy.sparse.csr_matrix`
    whose row ``i`` holds the synapses of source neuron ``srcs[i]`` with
    this delay, in the dense engine's CSR order.  ``syn`` carries the
    global synapse index (position in ``CompiledNetwork.syn_*``) of each
    stored entry, aligned with ``matrix.data`` — the handle fault models
    hash.  ``indptr`` is an int64 copy of ``matrix.indptr`` so the hot
    gather never touches scipy's (possibly int32) pointer array.
    """

    delay: int
    srcs: np.ndarray
    matrix: "sp.csr_matrix"
    syn: np.ndarray
    indptr: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.syn.size)


@dataclass(frozen=True, eq=False)
class SparseCompiledNetwork:
    """Per-delay CSR bucketing of one :class:`CompiledNetwork`.

    ``delays`` is ascending and unique; ``buckets[k]`` holds the synapses
    with delay ``delays[k]`` as a compact CSR slice.
    """

    net: CompiledNetwork
    delays: np.ndarray
    buckets: Tuple[DelayBucket, ...]
    #: per-synapse bucket label (position of each synapse's delay in
    #: ``delays``), aligned with the compiled network's CSR synapse
    #: arrays.  The hot scatter stable-sorts a tick's gathered synapses
    #: by this small-integer key (radix sort) to group them by delay in
    #: the dense engine's (delay asc, source asc, CSR position asc)
    #: accumulation order.
    syn_bucket: np.ndarray

    @property
    def n(self) -> int:
        return int(self.net.n)

    @property
    def nnz(self) -> int:
        return int(sum(b.nnz for b in self.buckets))

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)


def network_density(net: CompiledNetwork) -> float:
    """Synapse density ``m / n^2`` (0.0 for an empty network)."""
    return float(net.density)


def prefers_sparse(net: CompiledNetwork) -> bool:
    """Whether the auto-dispatcher should run this network sparsely.

    True for large (``n >= SPARSE_AUTO_MIN_NEURONS``), low-density
    (``m / n^2 <= SPARSE_DENSITY_THRESHOLD``) networks without pacemakers.
    Both thresholds are module-level and may be reconfigured.
    """
    return (
        net.n >= SPARSE_AUTO_MIN_NEURONS
        and not net.has_pacemakers
        and network_density(net) <= SPARSE_DENSITY_THRESHOLD
    )


def sparse_compile(
    network: Union[Network, CompiledNetwork],
    *,
    cache: Optional["BuildCache"] = None,
    structure_key: Optional[str] = None,
) -> SparseCompiledNetwork:
    """Bucket a network's synapses by delay into CSR slices.

    The artifact is memoized on the :class:`CompiledNetwork` instance, so
    repeated simulations (and build-cache hits returning the same compiled
    object) pay the bucketing cost once.  When ``cache`` (a
    :class:`~repro.core.cache.BuildCache`) and ``structure_key`` are given,
    the artifact is additionally published under ``("sparse_csr",
    structure_key)`` so structure-keyed invalidation drops it together with
    the compiled network it belongs to.
    """
    net = network.compile() if isinstance(network, Network) else network
    memo = getattr(net, _MEMO_ATTR, None)
    if isinstance(memo, SparseCompiledNetwork) and memo.net is net:
        if cache is not None and structure_key is not None:
            cache.put(("sparse_csr", structure_key), memo)
        return memo
    art = _build_artifact(net)
    setattr(net, _MEMO_ATTR, art)
    counter_inc("engine.sparse.compiles", 1)
    if cache is not None and structure_key is not None:
        cache.put(("sparse_csr", structure_key), art)
    return art


def _build_artifact(net: CompiledNetwork) -> SparseCompiledNetwork:
    n, m = net.n, net.m
    out_counts = np.diff(net.indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), out_counts)
    # stable sort by delay: within each bucket the original (source asc,
    # CSR position asc) order survives, which is exactly the order the
    # dense engine's np.add.at scatter visits same-delay synapses in
    order = np.argsort(net.syn_delay, kind="stable")
    d_sorted = net.syn_delay[order]
    delays, starts = np.unique(d_sorted, return_index=True)
    bounds = np.append(starts, m)
    dst_sorted = net.syn_dst[order]
    w_sorted = net.syn_weight[order]
    src_sorted = src[order]

    buckets: List[DelayBucket] = []
    for k in range(int(delays.size)):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        srcs_k, counts_k = np.unique(src_sorted[lo:hi], return_counts=True)
        indptr_k = np.zeros(srcs_k.size + 1, dtype=np.int64)
        np.cumsum(counts_k, out=indptr_k[1:])
        matrix = sp.csr_matrix(
            (w_sorted[lo:hi], dst_sorted[lo:hi], indptr_k),
            shape=(int(srcs_k.size), n),
        )
        buckets.append(
            DelayBucket(
                delay=int(delays[k]),
                srcs=srcs_k,
                matrix=matrix,
                syn=order[lo:hi],
                indptr=np.asarray(matrix.indptr, dtype=np.int64),
            )
        )

    syn_bucket = np.searchsorted(delays, net.syn_delay) if m else np.empty(
        0, dtype=np.int64
    )
    return SparseCompiledNetwork(
        net=net,
        delays=delays,
        buckets=tuple(buckets),
        syn_bucket=np.asarray(syn_bucket, dtype=np.int64),
    )


def repatch_sparse(old_net: CompiledNetwork, new_net: CompiledNetwork) -> bool:
    """Carry a sparse artifact across an incremental recompile.

    If ``old_net`` had been sparse-compiled, eagerly re-bucket ``new_net``
    (whose ``syn_delay`` may differ after a weight patch) so the patched
    network comes out with its CSR artifact already attached instead of
    the artifact being dropped and lazily rebuilt on first use.  Returns
    whether a re-bucketing happened.  When the two networks share the very
    same delay array (pure reuse), the rebuild is skipped by the instance
    memo if ``old_net is new_net``.
    """
    if old_net is new_net:
        return False
    if not isinstance(getattr(old_net, _MEMO_ATTR, None), SparseCompiledNetwork):
        return False
    sparse_compile(new_net)
    counter_inc("engine.sparse.repatches", 1)
    return True


class CsrDelivery:
    """Delivery backend of the sparse core: delay-bucketed CSR scatter.

    A ring of ``max_delay + 1`` chunk lists holds in-flight deliveries as
    ``(dst, weight)`` array pairs.  Every delay is in ``[1, max_delay]``, so
    at any moment a slot holds chunks for at most one arrival tick, and a
    heap names the non-empty slots' ticks.
    """

    def __init__(self, core: RunCore, art: SparseCompiledNetwork) -> None:
        net = core.net
        self.net = net
        self.core = core
        self.delays = art.delays
        self.syn_bucket = art.syn_bucket
        self.n_slots = net.max_delay + 1
        self.pending: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(self.n_slots)
        ]
        self.arrival_heap: List[int] = []
        self.acc = np.zeros(net.n, dtype=np.float64)
        self.v = net.v_reset.copy()
        self.last_update = np.zeros(net.n, dtype=np.int64)
        self.decay_keep = 1.0 - net.tau
        self.has_decay = net.has_decay
        self.any_one_shot = bool(net.one_shot.any())

    def integrate(self, t: int) -> np.ndarray:
        """Consume tick ``t``'s deliveries and evaluate thresholds."""
        slot = t % self.n_slots
        chunks = self.pending[slot]
        if not chunks:
            return NO_IDS
        heapq.heappop(self.arrival_heap)
        self.pending[slot] = []
        if len(chunks) == 1:
            dst_all, w_all = chunks[0]
        else:
            dst_all = np.concatenate([c[0] for c in chunks])
            w_all = np.concatenate([c[1] for c in chunks])
        acc, v, net = self.acc, self.v, self.net
        np.add.at(acc, dst_all, w_all)
        if dst_all.size > 1:
            ds = np.sort(dst_all)
            umask = np.empty(ds.size, dtype=bool)
            umask[0] = True
            np.not_equal(ds[1:], ds[:-1], out=umask[1:])
            arrived = ds[umask]
        else:
            arrived = dst_all
        syn_in = acc[arrived]
        acc[arrived] = 0.0
        if self.has_decay:
            dt = t - self.last_update[arrived]
            keep = self.decay_keep[arrived]
            decayable = (dt > 0) & (keep != 1.0)
            if decayable.any():
                reset_a = net.v_reset[arrived]
                va = v[arrived]
                v[arrived] = np.where(decayable, reset_a + (va - reset_a) * keep**dt, va)
        vhat = v[arrived] + syn_in
        fire_m = vhat > net.v_threshold[arrived]
        if self.any_one_shot:
            fire_m &= ~(net.one_shot[arrived] & self.core.fired_ever[arrived])
        v[arrived] = vhat
        self.last_update[arrived] = t
        crossed: np.ndarray = arrived[fire_m]
        return crossed

    def reset(self, ids: np.ndarray, t: int) -> None:
        self.v[ids] = self.net.v_reset[ids]
        self.last_update[ids] = t

    def propagate(self, ids: np.ndarray, t: int) -> None:
        """Schedule all out-deliveries of ``ids`` (sorted asc) fired at ``t``.

        Gathers the fired set's out-synapses in the dense engine's
        (source asc, CSR position asc) order, then stable-sorts them by
        compile-time bucket label — a radix sort over small integers — so
        each delay group comes out in exactly the order the dense engine's
        ``np.add.at`` scatter visits same-delay synapses in.
        """
        net = self.net
        gsyn, w = self.core.deliveries(t, net.gather_out_synapses(ids))
        if gsyn.size == 0:
            return
        gb = self.syn_bucket[gsyn]
        if gsyn.size > 1:
            order = np.argsort(gb, kind="stable")
            gsyn = gsyn[order]
            gb = gb[order]
            w = w[order]
        dst = net.syn_dst[gsyn]
        cuts = np.flatnonzero(gb[1:] != gb[:-1]) + 1
        gstarts = np.concatenate((_ZERO1, cuts))
        arrives = self.delays[gb[gstarts]] + t
        # tolist() converts once in C; per-group int() calls would dominate
        # when a tick's deliveries span many distinct delays
        bounds_l = np.append(gstarts, gb.size).tolist()
        arrives_l = arrives.tolist()
        slots_l = (arrives % self.n_slots).tolist()
        pending = self.pending
        lo = bounds_l[0]
        for j, hi in enumerate(bounds_l[1:]):
            slot = slots_l[j]
            if not pending[slot]:
                heapq.heappush(self.arrival_heap, arrives_l[j])
            pending[slot].append((dst[lo:hi], w[lo:hi]))
            lo = hi

    def next_arrival(self) -> Optional[int]:
        return self.arrival_heap[0] if self.arrival_heap else None


_ZERO1 = np.zeros(1, dtype=np.int64)


def simulate_sparse(
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
    """Simulate a network on the sparse CSR core.

    Same parameters and result semantics as
    :func:`repro.core.engine.simulate_dense` (without voltage probes, which
    require per-tick state), stop metadata included, so results compare
    equal field-for-field.

    Restrictions (validated up front): no pacemaker neurons
    (``v_reset > v_threshold``) — they fire without incoming events,
    defeating activity-driven laziness; use the dense engine.
    """
    net = network.compile() if isinstance(network, Network) else network
    if net.has_pacemakers:
        raise UnsupportedNetworkError(
            "network contains pacemaker neurons (v_reset > v_threshold); "
            "use the dense engine"
        )
    art = sparse_compile(net)
    core = RunCore(
        net,
        stimulus,
        engine="sparse",
        max_steps=max_steps,
        terminal=terminal,
        watch=watch,
        record_spikes=record_spikes,
        faults=faults,
        watchdog=watchdog,
        hooks=hooks,
    )
    return run_active_ticks(core, CsrDelivery(core, art), stop_when_quiescent)
