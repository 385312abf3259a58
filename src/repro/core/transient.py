"""Runtime (per-tick) transient fault models for the simulation engines.

:mod:`repro.core.faults` builds *statically* perturbed network copies; real
neuromorphic substrates additionally fault **mid-run**: deliveries are lost,
neurons babble or fall silent for stretches of time, analog weights drift as
the run proceeds.  This module models those transient faults as values the
engines consult while simulating, with identical semantics across
:func:`~repro.core.engine.simulate_dense`,
:func:`~repro.core.event_engine.simulate_event_driven`,
:func:`~repro.core.sparse.simulate_sparse`, the batched dense engine and
:class:`~repro.core.session.DenseSession` (enforced by the differential
tests).

Models (all seeded, all composable with ``|`` or :func:`compose`):

* :class:`SpikeDrop` — each synaptic delivery is lost independently with
  probability ``p`` (optionally only deliveries leaving ``sources``);
* :class:`SpuriousSpikes` — each neuron is forced to fire spontaneously
  with per-tick probability ``rate``;
* :class:`StuckAtSilent` — listed neurons lose every output spike during a
  tick window (the spike is consumed — voltage resets — but never leaves);
* :class:`StuckAtFiring` — listed neurons fire on every tick of a window;
* :class:`WeightDrift` — cumulative drift: a delivery emitted at tick ``t``
  carries ``w * (1 + rate * t * g_s)`` where ``g_s`` is a per-synapse
  standard-normal direction.

Cross-engine determinism
------------------------
The engines visit work in different orders (the dense engine sweeps all
synapses of a tick at once, the sparse core groups them by delay, the
event engine follows heap order), so fault decisions must not consume a
sequential RNG stream.  Every per-event
decision here is a *counter-based* hash of ``(seed, tick, entity id)`` —
a splitmix64 finalizer — making the decision a pure function of what is
faulted, never of visit order.  Bind-time draws (drift directions) use an
ordinary seeded generator, which is safe because every engine binds the
same model against the same compiled network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.network import CompiledNetwork
from repro.errors import ValidationError

__all__ = [
    "FaultModel",
    "BoundFaults",
    "SpikeDrop",
    "SpuriousSpikes",
    "StuckAtSilent",
    "StuckAtFiring",
    "WeightDrift",
    "CountingFaults",
    "FaultRealization",
    "compose",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic)."""
    with np.errstate(over="ignore"):
        x = x + _GOLD
        x = x ^ (x >> np.uint64(30))
        x = x * _MIX1
        x = x ^ (x >> np.uint64(27))
        x = x * _MIX2
        x = x ^ (x >> np.uint64(31))
    return x


def _uniform_hash(seed: int, tick: int, ids: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) per id — a pure function of ``(seed, tick, id)``."""
    with np.errstate(over="ignore"):
        key = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(np.uint64(tick)))
        h = _splitmix64(ids.astype(np.uint64) ^ key)
    return (h >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _uniform_hash_grid(seed: int, ticks: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``(len(ticks), len(ids))`` grid of the same per-(tick, id) uniforms."""
    with np.errstate(over="ignore"):
        keys = _splitmix64(
            np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(ticks.astype(np.uint64))
        )
        h = _splitmix64(ids.astype(np.uint64)[None, :] ^ keys[:, None])
    return (h >> np.uint64(11)).astype(np.float64) * _INV_2_53


Window = Tuple[int, int, int]  # (neuron, start tick, stop tick — exclusive)


def _check_windows(windows: Iterable[Sequence[int]]) -> Tuple[Window, ...]:
    out: List[Window] = []
    for w in windows:
        nid, start, stop = (int(x) for x in w)
        if nid < 0:
            raise ValidationError(f"window neuron must be >= 0, got {nid}")
        if start < 0 or stop <= start:
            raise ValidationError(f"window [{start}, {stop}) is empty or negative")
        out.append((nid, start, stop))
    return tuple(out)


class BoundFaults:
    """Per-run fault state the engines consult; neutral by default.

    An engine binds a :class:`FaultModel` once per run and then asks, per
    tick: which deliveries survive (:meth:`keep_deliveries`), at what weight
    (:meth:`deliver_weights`), which neurons are forced to fire
    (:meth:`forced_at` / :meth:`next_forced_tick`), and which would-be
    spikes are suppressed (:meth:`suppressed`).
    """

    def __init__(self, net: CompiledNetwork, horizon: int):
        self.net = net
        self.horizon = int(horizon)

    def keep_deliveries(self, t: int, syn_idx: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the delivery emitted at ``t`` survives."""
        return np.ones(syn_idx.size, dtype=bool)

    def deliver_weights(self, t: int, syn_idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Effective weights of deliveries emitted at tick ``t``."""
        return weights

    def forced_at(self, t: int) -> np.ndarray:
        """Sorted unique neuron ids forced to fire at tick ``t``."""
        return np.empty(0, dtype=np.int64)

    def next_forced_tick(self, after: int) -> Optional[int]:
        """Smallest tick ``> after`` (and ``<= horizon``) with forced spikes."""
        return None

    def suppressed(self, t: int, ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``ids``: True where the spike at ``t`` is lost.

        A suppressed spike behaves as *fired but lost*: the neuron's voltage
        resets exactly as if it had fired, but nothing is recorded and no
        deliveries leave — the same rule in every engine, which is what
        keeps lazy (event) and eager (dense) evaluation equivalent.
        """
        return np.zeros(ids.size, dtype=bool)


class FaultModel:
    """Base class for transient fault specifications.

    Subclasses implement :meth:`bind`; models compose with ``a | b``.
    """

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        raise NotImplementedError

    def fingerprint(self) -> Optional[Tuple]:
        """Deterministic content key of this model, or ``None``.

        Two models with equal fingerprints realize identical faults on
        identical runs, which is what lets the :mod:`repro.service` result
        cache key entries on ``(structure key, query params, fault
        fingerprint)``.  Models whose identity is not purely their
        parameters (e.g. stateful wrappers like :class:`CountingFaults`)
        return ``None``, marking results computed under them uncacheable.
        """
        return None

    def __or__(self, other: "FaultModel") -> "FaultModel":
        return compose(self, other)


# --------------------------------------------------------------------- #
# Spike drop
# --------------------------------------------------------------------- #


class SpikeDrop(FaultModel):
    """Each synaptic delivery is lost independently with probability ``p``.

    With ``sources`` given, only deliveries leaving those neurons are
    droppable — used e.g. to fault a single TMR replica.  The decision for
    a delivery is a counter-hash of ``(seed, emission tick, synapse id)``,
    so every engine loses exactly the same deliveries.
    """

    def __init__(self, p: float, *, seed: int = 0, sources: Optional[Iterable[int]] = None):
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"drop probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.seed = int(seed)
        self.sources = None if sources is None else tuple(sorted(set(int(s) for s in sources)))

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        return _BoundSpikeDrop(net, max_steps, self)

    def fingerprint(self) -> Tuple:
        return ("spike_drop", self.p, self.seed, self.sources)


class _BoundSpikeDrop(BoundFaults):
    def __init__(self, net: CompiledNetwork, horizon: int, spec: SpikeDrop):
        super().__init__(net, horizon)
        self.spec = spec
        self._droppable: Optional[np.ndarray] = None
        if spec.sources is not None:
            syn_src = np.repeat(np.arange(net.n, dtype=np.int64), np.diff(net.indptr))
            self._droppable = np.isin(syn_src, np.asarray(spec.sources, dtype=np.int64))

    def keep_deliveries(self, t: int, syn_idx: np.ndarray) -> np.ndarray:
        if self.spec.p == 0.0 or syn_idx.size == 0:
            return np.ones(syn_idx.size, dtype=bool)
        keep = _uniform_hash(self.spec.seed, t, syn_idx) >= self.spec.p
        if self._droppable is not None:
            keep |= ~self._droppable[syn_idx]
        return keep


# --------------------------------------------------------------------- #
# Spurious spikes
# --------------------------------------------------------------------- #


class SpuriousSpikes(FaultModel):
    """Each neuron fires spontaneously with per-tick probability ``rate``.

    Spurious spikes are *forced* fires: recorded, delivered, and resetting
    the voltage exactly like threshold crossings.  With ``neurons`` given,
    only those neurons babble.
    """

    def __init__(self, rate: float, *, seed: int = 0, neurons: Optional[Iterable[int]] = None):
        if not (0.0 <= rate <= 1.0):
            raise ValidationError(f"spurious rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        self.neurons = None if neurons is None else tuple(sorted(set(int(x) for x in neurons)))

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        return _BoundSpurious(net, max_steps, self)

    def fingerprint(self) -> Tuple:
        return ("spurious", self.rate, self.seed, self.neurons)


class _BoundSpurious(BoundFaults):
    _SCAN_CHUNK = 512  # ticks hashed per block while scanning forward

    def __init__(self, net: CompiledNetwork, horizon: int, spec: SpuriousSpikes):
        super().__init__(net, horizon)
        self.spec = spec
        if spec.neurons is None:
            self._sel = np.arange(net.n, dtype=np.int64)
        else:
            self._sel = np.asarray([x for x in spec.neurons if x < net.n], dtype=np.int64)

    def forced_at(self, t: int) -> np.ndarray:
        if self.spec.rate == 0.0 or self._sel.size == 0:
            return np.empty(0, dtype=np.int64)
        hits = _uniform_hash(self.spec.seed, t, self._sel) < self.spec.rate
        return self._sel[hits]

    def next_forced_tick(self, after: int) -> Optional[int]:
        if self.spec.rate == 0.0 or self._sel.size == 0:
            return None
        t = after + 1
        while t <= self.horizon:
            block = min(self._SCAN_CHUNK, self.horizon - t + 1)
            ticks = np.arange(t, t + block, dtype=np.int64)
            hits = (_uniform_hash_grid(self.spec.seed, ticks, self._sel) < self.spec.rate).any(
                axis=1
            )
            if hits.any():
                return t + int(np.argmax(hits))
            t += block
        return None


# --------------------------------------------------------------------- #
# Stuck-at windows
# --------------------------------------------------------------------- #


class StuckAtSilent(FaultModel):
    """Listed neurons lose every output spike during their tick windows.

    ``windows`` is an iterable of ``(neuron, start, stop)`` with ``stop``
    exclusive.  During a window the neuron behaves as *fired but lost*
    whenever it would fire (voltage resets, nothing propagates, nothing is
    recorded); between windows it is healthy.
    """

    def __init__(self, windows: Iterable[Sequence[int]]):
        self.windows = _check_windows(windows)

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        for nid, _, _ in self.windows:
            if nid >= net.n:
                raise ValidationError(f"stuck neuron {nid} out of range for n={net.n}")
        return _BoundStuckSilent(net, max_steps, self.windows)

    def fingerprint(self) -> Tuple:
        return ("stuck_silent", self.windows)


class _BoundStuckSilent(BoundFaults):
    def __init__(self, net: CompiledNetwork, horizon: int, windows: Tuple[Window, ...]):
        super().__init__(net, horizon)
        self.windows = windows

    def suppressed(self, t: int, ids: np.ndarray) -> np.ndarray:
        mask = np.zeros(ids.size, dtype=bool)
        for nid, start, stop in self.windows:
            if start <= t < stop:
                mask |= ids == nid
        return mask


class StuckAtFiring(FaultModel):
    """Listed neurons are forced to fire on every tick of their windows.

    The forced fire follows normal fire semantics (recorded, delivered,
    voltage reset) — a neuron stuck at firing floods its fan-out.
    """

    def __init__(self, windows: Iterable[Sequence[int]]):
        self.windows = _check_windows(windows)

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        for nid, _, _ in self.windows:
            if nid >= net.n:
                raise ValidationError(f"stuck neuron {nid} out of range for n={net.n}")
        return _BoundStuckFiring(net, max_steps, self.windows)

    def fingerprint(self) -> Tuple:
        return ("stuck_firing", self.windows)


class _BoundStuckFiring(BoundFaults):
    def __init__(self, net: CompiledNetwork, horizon: int, windows: Tuple[Window, ...]):
        super().__init__(net, horizon)
        self.windows = windows

    def forced_at(self, t: int) -> np.ndarray:
        ids = {nid for nid, start, stop in self.windows if start <= t < stop}
        return np.asarray(sorted(ids), dtype=np.int64)

    def next_forced_tick(self, after: int) -> Optional[int]:
        best: Optional[int] = None
        for _, start, stop in self.windows:
            t = max(start, after + 1)
            if t < stop and t <= self.horizon and (best is None or t < best):
                best = t
        return best


# --------------------------------------------------------------------- #
# Weight drift
# --------------------------------------------------------------------- #


class WeightDrift(FaultModel):
    """Cumulative analog weight drift, linear in simulated time.

    A delivery emitted at tick ``t`` over synapse ``s`` carries
    ``w_s * (1 + rate * t * g_s)`` where ``g_s ~ N(0, 1)`` is a fixed
    per-synapse drift direction drawn at bind time from ``seed``.  At
    ``t = 0`` weights are exact; the perturbation grows with the run, which
    is what distinguishes drift from the static
    :func:`~repro.core.faults.with_weight_noise`.
    """

    def __init__(self, rate: float, *, seed: int = 0):
        if rate < 0:
            raise ValidationError(f"drift rate must be >= 0, got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        return _BoundDrift(net, max_steps, self)

    def fingerprint(self) -> Tuple:
        return ("weight_drift", self.rate, self.seed)


class _BoundDrift(BoundFaults):
    def __init__(self, net: CompiledNetwork, horizon: int, spec: WeightDrift):
        super().__init__(net, horizon)
        self.rate = spec.rate
        self.directions = np.random.default_rng(spec.seed).standard_normal(net.m)

    def deliver_weights(self, t: int, syn_idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        if self.rate == 0.0 or t == 0 or syn_idx.size == 0:
            return weights
        return weights * (1.0 + self.rate * t * self.directions[syn_idx])


# --------------------------------------------------------------------- #
# Realization counting
# --------------------------------------------------------------------- #


@dataclass
class FaultRealization:
    """Exact counts of faults an engine actually realized during one run.

    ``dropped_deliveries`` counts synaptic deliveries removed at emission
    time, ``forced_spikes`` counts fault-forced fires the model handed to
    the engine, and ``suppressed_spikes`` counts would-be spikes the model
    marked "fired but lost".  Because fault decisions are counter-hashed
    (pure functions of what is faulted), equivalent runs realize identical
    counts on every engine — the telemetry tests compare these against the
    totals the :class:`~repro.telemetry.trace.TraceRecorder` observes
    through the hook API.
    """

    dropped_deliveries: int = 0
    forced_spikes: int = 0
    suppressed_spikes: int = 0

    def as_dict(self) -> dict:
        return {
            "dropped_deliveries": self.dropped_deliveries,
            "forced_spikes": self.forced_spikes,
            "suppressed_spikes": self.suppressed_spikes,
        }


class CountingFaults(FaultModel):
    """Wrap a fault model and tally the faults engines realize through it.

    The wrapper is transparent: every query delegates to the inner model,
    so spike trains are unchanged.  ``realization`` accumulates across
    binds (reuse one wrapper per run for per-run counts).
    """

    def __init__(self, inner: FaultModel):
        self.inner = inner
        self.realization = FaultRealization()

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        return _CountingBound(
            net, max_steps, self.inner.bind(net, max_steps), self.realization
        )


class _CountingBound(BoundFaults):
    def __init__(
        self,
        net: CompiledNetwork,
        horizon: int,
        inner: BoundFaults,
        counters: FaultRealization,
    ):
        super().__init__(net, horizon)
        self.inner = inner
        self.counters = counters

    def keep_deliveries(self, t: int, syn_idx: np.ndarray) -> np.ndarray:
        keep = self.inner.keep_deliveries(t, syn_idx)
        self.counters.dropped_deliveries += int(syn_idx.size - keep.sum())
        return keep

    def deliver_weights(self, t: int, syn_idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return self.inner.deliver_weights(t, syn_idx, weights)

    def forced_at(self, t: int) -> np.ndarray:
        ids = self.inner.forced_at(t)
        self.counters.forced_spikes += int(ids.size)
        return ids

    def next_forced_tick(self, after: int) -> Optional[int]:
        return self.inner.next_forced_tick(after)

    def suppressed(self, t: int, ids: np.ndarray) -> np.ndarray:
        mask = self.inner.suppressed(t, ids)
        self.counters.suppressed_spikes += int(mask.sum())
        return mask


# --------------------------------------------------------------------- #
# Composition
# --------------------------------------------------------------------- #


class _CompositeFaultModel(FaultModel):
    """Independent fault processes applied together (order-insensitive)."""

    def __init__(self, parts: Sequence[FaultModel]):
        flat: List[FaultModel] = []
        for p in parts:
            if isinstance(p, _CompositeFaultModel):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.parts: Tuple[FaultModel, ...] = tuple(flat)

    def bind(self, net: CompiledNetwork, max_steps: int) -> BoundFaults:
        return _BoundComposite(net, max_steps, [p.bind(net, max_steps) for p in self.parts])

    def fingerprint(self) -> Optional[Tuple]:
        parts = tuple(p.fingerprint() for p in self.parts)
        if any(f is None for f in parts):
            return None
        return ("compose", parts)


class _BoundComposite(BoundFaults):
    def __init__(self, net: CompiledNetwork, horizon: int, parts: List[BoundFaults]):
        super().__init__(net, horizon)
        self.parts = parts

    def keep_deliveries(self, t: int, syn_idx: np.ndarray) -> np.ndarray:
        keep = np.ones(syn_idx.size, dtype=bool)
        for p in self.parts:
            keep &= p.keep_deliveries(t, syn_idx)
        return keep

    def deliver_weights(self, t: int, syn_idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        for p in self.parts:
            weights = p.deliver_weights(t, syn_idx, weights)
        return weights

    def forced_at(self, t: int) -> np.ndarray:
        forced = [p.forced_at(t) for p in self.parts]
        forced = [f for f in forced if f.size]
        if not forced:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(forced))

    def next_forced_tick(self, after: int) -> Optional[int]:
        ticks = [t for t in (p.next_forced_tick(after) for p in self.parts) if t is not None]
        return min(ticks) if ticks else None

    def suppressed(self, t: int, ids: np.ndarray) -> np.ndarray:
        mask = np.zeros(ids.size, dtype=bool)
        for p in self.parts:
            mask |= p.suppressed(t, ids)
        return mask


def compose(*models: Union[FaultModel, None]) -> FaultModel:
    """Combine fault models into one; each keeps its own seed and process.

    Deliveries survive only if every component keeps them, drifted weights
    apply multiplicatively, forced-spike sets union, and a spike is
    suppressed if any component suppresses it.
    """
    parts = [m for m in models if m is not None]
    if not parts:
        raise ValidationError("compose requires at least one fault model")
    if len(parts) == 1:
        return parts[0]
    return _CompositeFaultModel(parts)
