"""Shared fixture library for the differential test harnesses.

Three suites pin engine equivalence by randomized differential testing —
``test_engine_equivalence.py`` (dense vs event vs session),
``test_batch_differential.py`` (batched dense vs solo runs),
``test_sparse_differential.py`` (sparse CSR core vs dense vs event) — and
``test_dynamic.py`` pins incremental recompilation against from-scratch
rebuilds.  They all need the same ingredients: random network strategies,
random seeded fault-model strategies, and result/raster/hook-total equality
assertions.  This module is that single source of truth; the suites import
from here instead of growing diverging copies.

Conventions the strategies encode:

* thresholds/weights are drawn from small exact-float sets and ``tau`` from
  ``{0.0, 1.0}``, so voltage arithmetic is exact and every engine must agree
  bit-for-bit (fractional ``tau`` summation-order caveats are exercised by
  dedicated tests, not the bulk harness);
* ``WeightDrift`` is excluded from the fault strategy: drifted float weights
  make per-engine summation order visible, so its equivalence is asserted
  separately on single-delivery topologies (``test_transient.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core import (
    Network,
    SpikeDrop,
    SpuriousSpikes,
    StuckAtFiring,
    StuckAtSilent,
    compose,
    simulate,
)

__all__ = [
    "MAX_STEPS",
    "NET_FIELDS",
    "assert_identical",
    "assert_networks_identical",
    "assert_same_simulation",
    "batch_cases",
    "fault_models",
    "random_networks",
]

#: Default tick budget for harness runs: large enough for every strategy's
#: delay range, small enough that runaway recurrent examples stay cheap.
MAX_STEPS = 60

#: The array fields that define a compiled network's simulation semantics;
#: two compilations agreeing on all of them are interchangeable.
NET_FIELDS = (
    "v_reset",
    "v_threshold",
    "tau",
    "one_shot",
    "indptr",
    "syn_dst",
    "syn_weight",
    "syn_delay",
)


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #


@st.composite
def random_networks(draw, min_neurons=2, max_neurons=12, max_delay=6):
    """A random recurrent network plus a single-wave stimulus.

    Returns ``(net, stim)`` where ``stim`` is a sorted list of tick-0
    input neuron ids.  ``max_delay`` widens the delay range (the sparse
    suite raises it to exercise ring-buffer wraparound and delay-bucket
    spread; the default matches the historical dense/event harness).
    """
    n = draw(st.integers(min_value=min_neurons, max_value=max_neurons))
    net = Network()
    for _ in range(n):
        net.add_neuron(
            v_threshold=draw(st.sampled_from([0.5, 1.5, 2.5])),
            tau=draw(st.sampled_from([0.0, 1.0])),
            one_shot=draw(st.booleans()),
        )
    m = draw(st.integers(min_value=0, max_value=3 * n))
    for _ in range(m):
        net.add_synapse(
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
            weight=draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0])),
            delay=draw(st.integers(min_value=1, max_value=max_delay)),
        )
    stim_count = draw(st.integers(min_value=1, max_value=min(3, n)))
    stim = sorted(
        {draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(stim_count)}
    )
    return net, stim


@st.composite
def batch_cases(draw, max_neurons=10, max_delay=6):
    """A random network plus B per-item stimulus schedules and stop config.

    Returns ``(net, stimuli, terminal, watch)``.  Each stimulus is either a
    tick-0 id list or a multi-tick ``{tick: ids}`` schedule, the shapes
    :func:`repro.core.simulate_batch` accepts per item.
    """
    n = draw(st.integers(min_value=2, max_value=max_neurons))
    net = Network()
    for _ in range(n):
        net.add_neuron(
            v_threshold=draw(st.sampled_from([0.5, 1.5, 2.5])),
            tau=draw(st.sampled_from([0.0, 1.0])),
            one_shot=draw(st.booleans()),
        )
    m = draw(st.integers(min_value=0, max_value=3 * n))
    for _ in range(m):
        net.add_synapse(
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
            weight=draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0])),
            delay=draw(st.integers(min_value=1, max_value=max_delay)),
        )
    B = draw(st.integers(min_value=1, max_value=5))
    stimuli = []
    for _ in range(B):
        if draw(st.booleans()):
            # multi-tick schedule: {tick: ids}
            sched = {}
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                tick = draw(st.integers(min_value=0, max_value=8))
                ids = sched.setdefault(tick, set())
                for _ in range(draw(st.integers(min_value=1, max_value=2))):
                    ids.add(draw(st.integers(min_value=0, max_value=n - 1)))
            stimuli.append({t: sorted(ids) for t, ids in sched.items()})
        else:
            stimuli.append(
                sorted(
                    {
                        draw(st.integers(min_value=0, max_value=n - 1))
                        for _ in range(draw(st.integers(min_value=1, max_value=3)))
                    }
                )
            )
    terminal = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    watch = list(range(n)) if draw(st.booleans()) else None
    return net, stimuli, terminal, watch


@st.composite
def fault_models(draw, n):
    """A composite of 1-3 seeded transient fault processes for ``n`` neurons."""
    parts = []
    if draw(st.booleans()):
        parts.append(
            SpikeDrop(
                draw(st.sampled_from([0.1, 0.3, 0.6])), seed=draw(st.integers(0, 99))
            )
        )
    if draw(st.booleans()):
        parts.append(
            SpuriousSpikes(
                draw(st.sampled_from([0.01, 0.05])), seed=draw(st.integers(0, 99))
            )
        )
    if draw(st.booleans()):
        nid = draw(st.integers(min_value=0, max_value=n - 1))
        start = draw(st.integers(min_value=0, max_value=20))
        length = draw(st.integers(min_value=1, max_value=15))
        cls = StuckAtSilent if draw(st.booleans()) else StuckAtFiring
        parts.append(cls([(nid, start, start + length)]))
    if not parts:
        parts.append(SpikeDrop(0.2, seed=draw(st.integers(0, 99))))
    return compose(*parts)


# --------------------------------------------------------------------- #
# Assertions
# --------------------------------------------------------------------- #


def assert_identical(res_a, res_b, *, label=""):
    """Full result equality: spikes, counts, rasters, and stop metadata.

    Every engine pair promises identical semantics end to end.
    """
    assert res_a.first_spike.tolist() == res_b.first_spike.tolist(), label
    assert res_a.spike_counts.tolist() == res_b.spike_counts.tolist(), label
    assert res_a.stop_reason == res_b.stop_reason, label
    assert res_a.final_tick == res_b.final_tick, label
    if res_a.spike_events is not None or res_b.spike_events is not None:
        a_ev = res_a.spike_events or {}
        b_ev = res_b.spike_events or {}
        assert sorted(a_ev) == sorted(b_ev), label
        for t in a_ev:
            assert (
                sorted(a_ev[t].tolist()) == sorted(b_ev[t].tolist())
            ), f"{label} tick {t}"


def assert_networks_identical(a, b) -> None:
    """Two compiled networks agree on every semantics-bearing array."""
    assert a.n == b.n
    for field in NET_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def assert_same_simulation(net_a, net_b, stimulus, max_steps: int) -> None:
    """Both networks produce identical rasters and stop metadata (dense)."""
    ra = simulate(
        net_a, stimulus, max_steps=max_steps, record_spikes=True, engine="dense"
    )
    rb = simulate(
        net_b, stimulus, max_steps=max_steps, record_spikes=True, engine="dense"
    )
    assert np.array_equal(ra.first_spike, rb.first_spike)
    assert np.array_equal(ra.spike_counts, rb.spike_counts)
    assert ra.final_tick == rb.final_tick
    assert ra.stop_reason == rb.stop_reason
    assert sorted(ra.spike_events) == sorted(rb.spike_events)
    for t in ra.spike_events:
        assert np.array_equal(ra.spike_events[t], rb.spike_events[t]), t
