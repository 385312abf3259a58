"""Batched dense LIF engine: B independent stimuli over one shared network.

The all-pairs and sweep workloads of this repo ask the *same* network many
questions that differ only in the stimulus (one SSSP phase per source, one
trial per fault seed).  Running them one at a time re-pays the per-tick
Python/NumPy dispatch overhead B times; this engine instead holds the state
of all B runs in ``(B, n)`` arrays — voltages, refractory/one-shot flags,
and a shared circular ``(max_delay + 1, B, n)`` delivery buffer — and steps
every run in the same vectorized tick update.

Semantics are *per item* identical to B independent
:func:`repro.core.engine.simulate_dense` calls (the differential test
harness asserts spike-for-spike equality, including under transient
faults):

* each item has its own stimulus schedule, early-stop state (terminal /
  watch-set / quiescence / tick budget), stop reason, and final tick;
* each item binds its own :class:`~repro.core.transient.FaultModel`; fault
  decisions are counter-hashed pure functions of ``(seed, tick, entity)``,
  so an item realizes exactly the faults its solo run would;
* each item may carry its own :class:`~repro.telemetry.hooks.EngineHooks`
  observer, which sees exactly the events of the solo run (per-item
  telemetry totals stay exact).

Items that stop early are masked out of every subsequent update and record
nothing further; the batch finishes when the last item stops.  Voltage
probes and watchdogs are not supported here — the
:func:`repro.core.run.simulate_batch` front end falls back to per-item
dispatch for those.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union, cast

import numpy as np

from repro.core.network import CompiledNetwork, Network
from repro.core.result import SimulationResult, StopReason
from repro.core.stepping import (
    FiringState,
    StimulusSpec,
    check_max_steps,
    normalize_stimulus,
    resolve_terminal,
    watch_mask,
)
from repro.core.transient import FaultModel
from repro.errors import ValidationError
from repro.telemetry.hooks import EngineHooks

__all__ = ["simulate_dense_batch"]

FaultsSpec = Union[None, FaultModel, Sequence[Optional[FaultModel]]]
HooksSpec = Union[None, EngineHooks, Sequence[Optional[EngineHooks]]]


def _per_item(spec, count: int, kind: type, what: str) -> list:
    """Normalize ``spec`` to a length-``count`` list of per-item values."""
    if spec is None:
        return [None] * count
    if isinstance(spec, kind):
        return [spec] * count
    items = list(spec)
    if len(items) != count:
        raise ValidationError(
            f"{what} sequence has {len(items)} entries for a batch of {count}"
        )
    for item in items:
        if item is not None and not isinstance(item, kind):
            raise ValidationError(f"{what} entries must be {kind.__name__} or None")
    return items


def simulate_dense_batch(
    network: Union[Network, CompiledNetwork],
    stimuli: Sequence[Optional[StimulusSpec]],
    *,
    max_steps: int,
    terminal: Optional[int] = None,
    watch: Optional[Iterable[int]] = None,
    stop_when_quiescent: bool = True,
    record_spikes: bool = False,
    faults: FaultsSpec = None,
    hooks: HooksSpec = None,
) -> List[SimulationResult]:
    """Simulate B independent stimuli on one network in lockstep.

    Parameters mirror :func:`~repro.core.engine.simulate_dense` except that
    ``stimuli`` is a sequence of B stimulus specs (one per batch item) and
    ``faults`` / ``hooks`` may each be a single value shared by every item
    or a length-B sequence of per-item values.  ``terminal``, ``watch``,
    ``max_steps``, and ``stop_when_quiescent`` are shared by all items
    (each item still *evaluates* them independently).

    Returns one :class:`~repro.core.result.SimulationResult` per item, in
    input order, each identical to what the solo dense engine would have
    produced for that stimulus.
    """
    net = network.compile() if isinstance(network, Network) else network
    check_max_steps(max_steps)
    B = len(stimuli)
    if B == 0:
        return []
    n = net.n
    term = resolve_terminal(terminal, net)
    watched = watch_mask(watch, n)
    stim_list = [normalize_stimulus(s, n) for s in stimuli]
    fault_models = _per_item(faults, B, FaultModel, "faults")
    hook_list = _per_item(hooks, B, EngineHooks, "hooks")

    fired_ever = np.zeros((B, n), dtype=bool)
    first_spike = np.full((B, n), -1, dtype=np.int64)
    spike_counts = np.zeros((B, n), dtype=np.int64)
    # each item's firing rules, over its rows of the shared state
    items = [
        FiringState(
            net,
            stim_list[b],
            first_spike[b],
            spike_counts[b],
            fired_ever[b],
            term=term,
            watch_mask=watched,
            record_spikes=record_spikes,
            rf=model.bind(net, max_steps) if model is not None else None,
            hooks=hook_list[b],
        )
        for b, model in enumerate(fault_models)
    ]
    # Fully vectorized firing is only exact when nothing needs per-item
    # event streams: fault realization, hook callbacks and spike recording
    # all go through each item's FiringState, and only faults and hooks
    # need each item to see its own deliveries.
    masked = any(i.rf is not None or i.hooks is not None for i in items)
    plain = not (record_spikes or masked)
    stim_by_tick: Dict[int, List[int]] = {}  # the plain path's input schedule
    for b, stim in enumerate(stim_list):
        for tick in stim:
            stim_by_tick.setdefault(tick, []).append(b)

    D = net.max_delay
    n_slots = D + 1
    buf = np.zeros((n_slots, B, n), dtype=np.float64)
    slot_counts = np.zeros((n_slots, B), dtype=np.int64)
    v = np.broadcast_to(net.v_reset, (B, n)).copy()
    any_one_shot = bool(net.one_shot.any())
    quiescible = stop_when_quiescent and not net.has_pacemakers

    active = np.ones(B, dtype=bool)
    results: List[Optional[SimulationResult]] = [None] * B

    for h in hook_list:
        if h is not None:
            h.on_run_start(n, max_steps, "dense-batch")

    def stop(b: int, reason: StopReason, t: int) -> None:
        results[b] = items[b].close(t, reason)
        active[b] = False

    buf_flat = buf.reshape(-1)
    slot_counts_flat = slot_counts.reshape(-1)

    def emit(b_arr: np.ndarray, ids: np.ndarray, t: int) -> None:
        """Schedule the out-synapses of the spikes ``(b_arr[i], ids[i])`` at ``t``.

        Pairs come sorted by item.  With faults or hooks, each item masks
        and reports its own synapses through its FiringState.  Deliveries
        of different items land in disjoint buffer cells, and within one
        item the synapse order equals the solo engine's CSR order, so
        per-cell float accumulation order matches the solo run exactly.
        """
        syn = net.gather_out_synapses(ids)
        owner = np.repeat(b_arr, net.indptr[ids + 1] - net.indptr[ids])
        if not masked:
            weights = net.syn_weight[syn]
        else:
            uniq, starts = np.unique(owner, return_index=True)
            ends = np.append(starts[1:], owner.size).tolist()
            parts = []
            for b, lo, hi in zip(uniq.tolist(), starts.tolist(), ends):
                syn_b, w_b = items[b].deliveries(t, syn[lo:hi])
                parts.append((np.full(syn_b.size, b, dtype=np.int64), syn_b, w_b))
            if not parts:
                return
            owner, syn, weights = (np.concatenate(p) for p in zip(*parts))
        slots = (t + net.syn_delay[syn]) % n_slots
        np.add.at(buf_flat, (slots * B + owner) * n + net.syn_dst[syn], weights)
        np.add.at(slot_counts_flat, slots * B + owner, 1)

    t = -1
    while active.any():
        if t >= max_steps:
            for b in np.flatnonzero(active).tolist():
                stop(b, StopReason.MAX_STEPS, t)
            break
        t += 1
        if t == 0:
            # tick 0 carries induced spikes only (Definition 3 start)
            vhat = v
            fire = np.zeros((B, n), dtype=bool)
        else:
            slot = t % n_slots
            arriving = buf[slot]
            slot_counts[slot, :] = 0
            # Eq. (1) for every item at once: decay toward reset, integrate.
            vhat = v + (net.v_reset - v) * net.tau + arriving
            arriving[:] = 0.0
            fire = vhat > net.v_threshold  # Eq. (2), strict
            if any_one_shot:
                fire &= ~(net.one_shot[None, :] & fired_ever)
        fire[~active] = False
        fired_sizes = np.zeros(B, dtype=np.int64)
        if plain:
            for b in stim_by_tick.get(t, ()):
                ids = stim_list[b].pop(t)
                if active[b] and ids.size:
                    fire[b, ids] = True
            b_all, id_all = np.nonzero(fire)
            if id_all.size:
                newly = fire & ~fired_ever
                first_spike[newly] = t
                if watched is not None:
                    for b, k in enumerate((newly & watched[None, :]).sum(axis=1).tolist()):
                        items[b].watch_remaining -= k
                fired_ever |= fire
                spike_counts += fire
                np.add.at(fired_sizes, b_all, 1)
                emit(b_all, id_all, t)
        else:
            b_all, id_all = np.nonzero(fire)
            bounds = np.searchsorted(b_all, np.arange(B + 1)).tolist()
            fired_b: List[np.ndarray] = []
            fired_ids: List[np.ndarray] = []
            for b in np.flatnonzero(active).tolist():
                item = items[b]
                lo, hi = bounds[b], bounds[b + 1]
                if lo == hi and t not in item.stim and item.next_forced != t:
                    continue  # nothing crossed, nothing induced or forced
                reset, ids = item.fire(t, id_all[lo:hi].copy())
                if reset.size != hi - lo:
                    fire[b, reset] = True
                fired_sizes[b] = ids.size
                if ids.size:
                    fired_b.append(np.full(ids.size, b, dtype=np.int64))
                    fired_ids.append(ids)
            if fired_ids:
                emit(np.concatenate(fired_b), np.concatenate(fired_ids), t)
        v = np.where(fire, net.v_reset, vhat)  # Eq. (3)
        # per-item stop checks after the full tick
        outstanding = slot_counts.sum(axis=0)
        for b in np.flatnonzero(active).tolist():
            item = items[b]
            reason = item.settled()
            if (
                reason is None
                and quiescible
                and t
                and not fired_sizes[b]
                and not outstanding[b]
                and not item.awaiting_input()
            ):
                reason = StopReason.QUIESCENT
            if reason is not None:
                stop(b, reason, t)

    return cast(List[SimulationResult], results)
