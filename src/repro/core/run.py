"""Engine-dispatching front end for SNN simulation."""

from __future__ import annotations

import warnings
from typing import Iterable, List, Optional, Sequence, Union

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

__all__ = ["simulate", "simulate_batch", "DEFAULT_MAX_STEPS", "ENGINES"]

#: Default tick budget; generous enough for every test/bench workload while
#: still bounding accidental runaway networks.
DEFAULT_MAX_STEPS: int = 1_000_000

#: Above this maximum synaptic delay the auto-dispatcher assumes the network
#: is delay-encoded (Sections 3–4 algorithms) and picks an activity-driven
#: engine (sparse for large low-density networks, event otherwise).
_EVENT_DELAY_CUTOFF: int = 64

#: Every engine name :func:`simulate` / :func:`simulate_batch` accept.  An
#: unknown name raises :class:`~repro.errors.ValidationError` (error code
#: ``INVALID``) listing these.
ENGINES: tuple = ("auto", "dense", "event", "sparse")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValidationError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )


def _auto_long_delay_engine(net: CompiledNetwork, batched: bool) -> str:
    """Engine choice for delay-encoded (long-delay) networks.

    Pacemakers force dense (with a warning); large low-density networks go
    sparse; everything else goes event.
    """
    if net.has_pacemakers:
        fallback = "the batched dense engine" if batched else "the dense engine"
        warnings.warn(
            "network has long delays (event-engine territory) but "
            "contains pacemaker neurons, which the event engine does "
            f"not support; falling back to {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return "dense"
    if prefers_sparse(net):
        return "sparse"
    return "event"


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
    picks dense for networks with voltage probes (the other engines do not
    support them) and otherwise chooses by maximum synaptic delay: long
    programmed delays signal a delay-encoded algorithm whose quiet ticks an
    activity-driven engine skips.  Among those, large low-density networks
    (:func:`~repro.core.sparse.prefers_sparse`, thresholds
    ``SPARSE_AUTO_MIN_NEURONS`` / ``SPARSE_DENSITY_THRESHOLD``) run on the
    sparse CSR core and the rest on the event engine; if the network
    contains pacemaker neurons (which both reject), auto falls back to the
    dense engine with a warning instead of raising.

    ``faults``, ``watchdog``, and telemetry ``hooks`` are forwarded to
    whichever engine runs; the engines observe identical fault, watchdog,
    and hook semantics.  Probe ids are deduplicated and validated by the
    dense engine, which raises
    :class:`~repro.errors.ValidationError` for out-of-range ids.
    """
    _check_engine(engine)
    net = network.compile() if isinstance(network, Network) else network
    if engine == "auto":
        if probe_voltages is not None:
            engine = "dense"
        elif net.max_delay > _EVENT_DELAY_CUTOFF:
            engine = _auto_long_delay_engine(net, batched=False)
        else:
            engine = "dense"
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
        return simulate_dense(net, stimulus, probe_voltages=probe_voltages, **kw)
    if probe_voltages is not None:
        raise ValidationError("voltage probes require the dense engine")
    run = simulate_sparse if engine == "sparse" else simulate_event_driven
    return run(net, stimulus, **kw)


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
    the same heuristic as :func:`simulate`: long programmed delays signal a
    delay-encoded algorithm whose quiet ticks an activity-driven engine
    skips, so those batches run item by item on the sparse core (large
    low-density networks) or the event engine; everything else steps all
    items in lockstep on the batched dense engine.  Requests the batched
    dense engine cannot express — voltage probes or a ``watchdog`` — fall
    back to per-item :func:`simulate` dispatch, preserving exact solo
    semantics at sequential speed.
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
        if net.max_delay > _EVENT_DELAY_CUTOFF:
            engine = _auto_long_delay_engine(net, batched=True)
        else:
            engine = "dense"
    if batchable and engine == "dense":
        return simulate_dense_batch(net, stimuli, faults=fault_list, hooks=hook_list, **kw)
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
