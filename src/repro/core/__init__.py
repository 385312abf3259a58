"""Discrete leaky-integrate-and-fire (LIF) spiking neural network substrate.

Implements Definitions 1–3 of the paper: discrete time, per-neuron
``(v_reset, v_threshold, tau)``, synapses with programmable weight and
integer delay at least the hardware minimum ``delta = 1``, computation
initiated by stimulating input neurons at ``t = 0`` and terminated when a
designated terminal neuron first spikes.

Three engines share identical semantics, stop metadata included, because
they share one run core (:mod:`~repro.core.stepping`) and differ only in
how spikes are delivered:

* :func:`~repro.core.engine.simulate_dense` — advances every neuron every
  tick with vectorized NumPy state; right for circuit-heavy networks where
  most ticks carry activity.
* :func:`~repro.core.event_engine.simulate_event_driven` — processes spike
  deliveries from a priority queue and closes voltage decay lazily; right for
  the delay-encoded algorithms of Sections 3–4 where the simulated horizon
  ``T = O(L)`` far exceeds the number of spikes.
* :func:`~repro.core.sparse.simulate_sparse` — vectorized delay-bucketed
  CSR scatter over only the ticks that carry activity; right for large,
  low-density delay-encoded networks.

``simulate`` picks an engine automatically.  ``simulate_batch`` runs B
independent stimuli over one shared network, stepping all items in lockstep
on the batched dense engine (:func:`~repro.core.batch.simulate_dense_batch`)
or falling back to per-item dispatch where batching cannot help; the
:mod:`~repro.core.cache` build cache lets repeated queries of one structure
skip network construction entirely.

Runtime robustness (every engine, identical semantics):

* :class:`~repro.core.transient.FaultModel` implementations inject seeded
  per-tick transient faults — spike drops, spurious spikes, stuck-at
  windows, weight drift — composable with ``|``;
* :class:`~repro.core.watchdog.Watchdog` arms runaway-spike-rate detection
  and non-quiescence diagnosis.
"""

from repro.core.lif import (
    DEFAULT_DELTA,
    NeuronParams,
    threshold_for_count,
)
from repro.core.network import CompiledNetwork, Network
from repro.core.result import SimulationResult, StopReason
from repro.core.cost import CostReport
from repro.core.batch import simulate_dense_batch
from repro.core.cache import BuildCache, default_build_cache, structure_fingerprint
from repro.core.engine import simulate_dense
from repro.core.event_engine import simulate_event_driven
from repro.core.run import ENGINES, simulate, simulate_batch
from repro.core.sparse import (
    SparseCompiledNetwork,
    network_density,
    prefers_sparse,
    simulate_sparse,
    sparse_compile,
)
from repro.core.transient import (
    FaultModel,
    SpikeDrop,
    SpuriousSpikes,
    StuckAtFiring,
    StuckAtSilent,
    WeightDrift,
    compose,
)
from repro.core.watchdog import Watchdog, WatchdogReport

__all__ = [
    "DEFAULT_DELTA",
    "NeuronParams",
    "threshold_for_count",
    "Network",
    "CompiledNetwork",
    "SimulationResult",
    "StopReason",
    "CostReport",
    "simulate",
    "simulate_batch",
    "simulate_dense",
    "simulate_dense_batch",
    "simulate_event_driven",
    "simulate_sparse",
    "sparse_compile",
    "SparseCompiledNetwork",
    "network_density",
    "prefers_sparse",
    "ENGINES",
    "BuildCache",
    "default_build_cache",
    "structure_fingerprint",
    "FaultModel",
    "SpikeDrop",
    "SpuriousSpikes",
    "StuckAtSilent",
    "StuckAtFiring",
    "WeightDrift",
    "compose",
    "Watchdog",
    "WatchdogReport",
]
