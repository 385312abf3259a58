"""Engine-dispatching front end for SNN simulation."""

from __future__ import annotations

import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import FaultsSpec, HooksSpec, _per_item, simulate_dense_batch
from repro.core.engine import simulate_dense
from repro.core.event_engine import simulate_event_driven
from repro.core.network import CompiledNetwork, Network
from repro.core.result import SimulationResult
from repro.core.sparse import prefers_sparse, simulate_sparse
from repro.core.stepping import StimulusSpec
from repro.core.transient import FaultModel
from repro.core.watchdog import Watchdog
from repro.errors import ValidationError
from repro.telemetry.hooks import EngineHooks
from repro.telemetry.metrics import counter_inc

__all__ = ["simulate", "simulate_batch", "choose_engine", "DEFAULT_MAX_STEPS", "ENGINES"]

#: Default tick budget; generous enough for every test/bench workload while
#: still bounding accidental runaway networks.
DEFAULT_MAX_STEPS: int = 1_000_000

#: Above this maximum synaptic delay the auto-dispatcher's prior assumes the
#: network is delay-encoded (Sections 3–4 algorithms) and picks an
#: activity-driven engine (sparse for large low-density networks, event
#: otherwise).
_EVENT_DELAY_CUTOFF: int = 64

#: Attribute of a compiled network holding its last run's profile.
_PROFILE_ATTR = "_run_profile"

#: Every engine name :func:`simulate` / :func:`simulate_batch` accept.  An
#: unknown name raises :class:`~repro.errors.ValidationError` (error code
#: ``INVALID``) listing these.
ENGINES: tuple = ("auto", "dense", "event", "sparse")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValidationError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )


#: A profiled network leaves its prior engine only for one predicted to run
#: at least this many times faster: with both predictions off by up to
#: ~1.4x in opposite directions, the switch still cannot make a run slower.
_PROFILE_MARGIN: float = 2.0

# Predicted wall time of one run, in microseconds, from the profile of the
# network's last run: ``(ticks, active_ticks, spikes, deliveries)``.  Fitted
# by non-negative least squares on relative error to median timings of SSSP
# and k-hop runs on every engine: path graphs (n = 10..4000, ~one spike per
# active tick over ~5n ticks), G(n, 4/n) graphs (n = 20..30000, ~75 ticks),
# and G(n, 6/n) graphs (n = 30, 300), the batched dense engine at
# B = 1, 4, 16 (2-vCPU x86 VM, Python 3.11, NumPy 2.4).  Most predictions
# land within 0.6-1.5x of the measured time; the event engine's are up to
# 2.6x low on wide frontiers, where it is never within the margin of best.
# Dense: per run, per tick and per tick-neuron (the full-width sweep), per
# delivery.
_DENSE_US = (164.0, 16.6, 0.00386, 0.104)
# Batched dense, whole batch of B: per run, per tick, per tick-neuron-item,
# per delivery-item.
_BATCH_US = (471.0, 32.8, 0.0125, 0.05)
# Event: per run, per neuron and synapse (the per-run list conversion of
# the network), per spike or delivery (heap traffic).
_EVENT_US = (91.0, 0.123, 0.99)
# Sparse: per run, per active tick (~15 NumPy calls), per delivery.
_SPARSE_US = (137.0, 43.5, 0.146)


def _predicted_us(
    net: CompiledNetwork, profile: Tuple[int, int, int, int], batched: bool, B: int
) -> Dict[str, float]:
    """Predicted microseconds per run (per item when batched) of each engine."""
    ticks, active, spikes, deliveries = profile
    n = net.n
    if batched:
        run, tick, neuron, delivery = _BATCH_US
        dense = (run + ticks * (tick + neuron * n * B) + delivery * deliveries * B) / B
    else:
        run, tick, neuron, delivery = _DENSE_US
        dense = run + ticks * (tick + neuron * n) + delivery * deliveries
    event_run, per_size, per_event = _EVENT_US
    sparse_run, per_active_tick, per_delivery = _SPARSE_US
    return {
        "dense": dense,
        "event": event_run + per_size * (n + net.m) + per_event * (spikes + deliveries),
        "sparse": sparse_run + per_active_tick * active + per_delivery * deliveries,
    }


def _prior_engine(net: CompiledNetwork, batched: bool) -> str:
    """The engine for a network without a run profile: maximum synaptic delay.

    Long programmed delays signal a delay-encoded algorithm whose quiet
    ticks an activity-driven engine skips: large low-density networks go
    sparse, the rest event.  Pacemakers force dense (with a warning there).
    """
    if net.max_delay <= _EVENT_DELAY_CUTOFF:
        return "dense"
    if net.has_pacemakers:
        fallback = "the batched dense engine" if batched else "the dense engine"
        warnings.warn(
            "network has long delays (event-engine territory) but "
            "contains pacemaker neurons, which the event engine does "
            f"not support; falling back to {fallback}",
            RuntimeWarning,
            stacklevel=4,
        )
        return "dense"
    if prefers_sparse(net):
        return "sparse"
    return "event"


def choose_engine(
    net: CompiledNetwork, *, probes: bool = False, batched: bool = False, B: int = 1
) -> str:
    """The engine ``engine="auto"`` runs ``net`` on.

    Voltage probes force dense.  Otherwise the prior rule, by maximum
    synaptic delay (see :func:`simulate`), decides unless the network
    carries the profile of an earlier run: then each engine's cost is
    predicted from it, and the cheapest replaces the prior when it is
    predicted at least twice as cheap.  ``batched`` prices ``dense`` as
    the batched dense engine, per item over ``B`` items.  Networks with
    pacemakers are never profiled, so they always take the prior.  Counts
    ``engine.dispatch.{prior,profile}`` and
    ``engine.dispatch.{prior,profile}.<engine>``.
    """
    source = "prior"
    if probes:
        engine = "dense"
    else:
        engine = _prior_engine(net, batched)
        profile = getattr(net, _PROFILE_ATTR, None)
        if profile is not None:
            cost = _predicted_us(net, profile, batched, max(1, B))
            best = min(cost, key=cost.__getitem__)
            if cost[best] * _PROFILE_MARGIN <= cost[engine]:
                engine, source = best, "profile"
    counter_inc(f"engine.dispatch.{source}", 1)
    counter_inc(f"engine.dispatch.{source}.{engine}", 1)
    return engine


def _remember(net: CompiledNetwork, result: SimulationResult) -> None:
    """Store ``result``'s run profile on ``net`` for :func:`choose_engine`.

    One tuple assignment, so concurrent runs on one network need no lock:
    a reader sees some complete profile.  ``active_ticks`` is bounded by
    ``min(ticks, spikes)`` rather than counted.
    """
    if net.has_pacemakers:
        return
    spikes = int(result.spike_counts.sum())
    deliveries = int(result.spike_counts @ np.diff(net.indptr))
    ticks = int(result.final_tick)
    setattr(net, _PROFILE_ATTR, (ticks, min(ticks, spikes), spikes, deliveries))


def simulate(
    network: Union[Network, CompiledNetwork],
    stimulus: Optional[StimulusSpec] = None,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    terminal: Optional[int] = None,
    watch: Optional[Iterable[int]] = None,
    stop_when_quiescent: bool = True,
    record_spikes: bool = False,
    probe_voltages: Optional[Iterable[int]] = None,
    faults: Optional[FaultModel] = None,
    watchdog: Optional[Watchdog] = None,
    hooks: Optional[EngineHooks] = None,
    engine: str = "auto",
) -> SimulationResult:
    """Simulate an SNN, dispatching to a concrete engine.

    ``engine`` may be ``"auto"`` (default), ``"dense"``, ``"event"``, or
    ``"sparse"``; any other name raises a structured
    :class:`~repro.errors.ValidationError` (error code ``INVALID``).  Auto
    (:func:`choose_engine`) picks dense for networks with voltage probes
    (the other engines do not support them).  Otherwise a network's first
    run follows the prior rule, by maximum synaptic delay: long programmed
    delays signal a delay-encoded algorithm whose quiet ticks an
    activity-driven engine skips, so large low-density networks
    (:func:`~repro.core.sparse.prefers_sparse`) run on the sparse CSR core
    and the rest on the event engine, while short-delay networks run
    dense; a network with pacemaker neurons (which event and sparse
    reject) falls back to dense, with a warning when its delays are long.
    Every run leaves its profile (ticks, active ticks, spikes, deliveries)
    on the compiled network, and later runs predict each engine's cost
    from it: auto leaves the prior only for an engine predicted at least
    twice as fast.  The engines give identical results, so dispatch only
    moves wall-clock time.

    ``faults``, ``watchdog``, and telemetry ``hooks`` are forwarded to
    whichever engine runs; the engines observe identical fault, watchdog,
    and hook semantics.  Probe ids are deduplicated and validated by the
    dense engine, which raises
    :class:`~repro.errors.ValidationError` for out-of-range ids.
    """
    _check_engine(engine)
    net = network.compile() if isinstance(network, Network) else network
    if engine == "auto":
        engine = choose_engine(net, probes=probe_voltages is not None)
    kw = dict(
        max_steps=max_steps,
        terminal=terminal,
        watch=watch,
        stop_when_quiescent=stop_when_quiescent,
        record_spikes=record_spikes,
        faults=faults,
        watchdog=watchdog,
        hooks=hooks,
    )
    if engine == "dense":
        result = simulate_dense(net, stimulus, probe_voltages=probe_voltages, **kw)
    elif probe_voltages is not None:
        raise ValidationError("voltage probes require the dense engine")
    else:
        run = simulate_sparse if engine == "sparse" else simulate_event_driven
        result = run(net, stimulus, **kw)
    _remember(net, result)
    return result


def simulate_batch(
    network: Union[Network, CompiledNetwork],
    stimuli: Sequence[Optional[StimulusSpec]],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    terminal: Optional[int] = None,
    watch: Optional[Iterable[int]] = None,
    stop_when_quiescent: bool = True,
    record_spikes: bool = False,
    probe_voltages: Optional[Iterable[int]] = None,
    faults: FaultsSpec = None,
    watchdog: Optional[Watchdog] = None,
    hooks: HooksSpec = None,
    engine: str = "auto",
) -> List[SimulationResult]:
    """Simulate B independent stimuli on one shared network.

    The batched analogue of :func:`simulate`: ``stimuli`` is a sequence of
    B stimulus specs, and ``faults`` / ``hooks`` may each be one shared
    value or a length-B sequence of per-item values.  Returns one
    :class:`~repro.core.result.SimulationResult` per item, in input order,
    identical to B independent :func:`simulate` calls.

    ``engine`` may be ``"auto"`` (default), ``"dense"`` (the batched dense
    engine), ``"event"``, or ``"sparse"`` (each per item).  Auto applies
    :func:`choose_engine` once per batch, with ``dense`` priced as the
    batched dense engine over B items: the prior rule sends long-delay
    (delay-encoded) networks item by item to the sparse core or the event
    engine and steps everything else in lockstep on the batched dense
    engine, and a profiled network moves to an engine predicted to run at
    least twice as fast per item.  Requests the batched dense engine cannot
    express — voltage probes or a ``watchdog`` — fall back to per-item
    :func:`simulate` dispatch, preserving exact solo semantics at
    sequential speed.
    """
    _check_engine(engine)
    net = network.compile() if isinstance(network, Network) else network
    B = len(stimuli)
    fault_list = _per_item(faults, B, FaultModel, "faults")
    hook_list = _per_item(hooks, B, EngineHooks, "hooks")

    kw = dict(
        max_steps=max_steps,
        terminal=terminal,
        watch=watch,
        stop_when_quiescent=stop_when_quiescent,
        record_spikes=record_spikes,
    )
    # the batched dense engine carries no watchdog state or probe traces
    batchable = watchdog is None and probe_voltages is None
    if engine == "auto" and batchable:
        engine = choose_engine(net, batched=True, B=B)
    if batchable and engine == "dense":
        results = simulate_dense_batch(net, stimuli, faults=fault_list, hooks=hook_list, **kw)
        if results:
            _remember(net, results[0])
        return results
    return [
        simulate(
            net,
            stimuli[b],
            probe_voltages=probe_voltages,
            faults=fault_list[b],
            watchdog=watchdog,
            hooks=hook_list[b],
            engine=engine,
            **kw,
        )
        for b in range(B)
    ]
