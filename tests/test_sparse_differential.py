"""Differential harness for the sparse CSR simulation core.

:func:`~repro.core.sparse.simulate_sparse` promises *dense-engine* result
semantics — spike-for-spike rasters, stop metadata (``final_tick`` /
``stop_reason``), counter-seeded fault realizations, and telemetry hook
totals — on any network without pacemakers.  Hypothesis drives randomized
networks (including delay ranges wide enough to wrap the arrival ring
buffer many times), multi-wave stimuli, stop configurations, and composite
fault models, and asserts equality against:

* **dense** — exact equality on everything (the contract);
* **event-driven** — exact equality on everything too, compared with
  ``assert_identical``, stop metadata included.

Built on the shared strategy/assertion library in ``tests/differential.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.core import simulate_dense, simulate_event_driven
from repro.core.sparse import simulate_sparse, sparse_compile
from repro.errors import UnsupportedNetworkError, ValidationError
from repro.telemetry import TraceRecorder
from tests.differential import (
    MAX_STEPS,
    assert_identical,
    fault_models,
    random_networks,
)

import pytest


@st.composite
def stop_configs(draw, n):
    """Random terminal/watch/quiescence stop configuration."""
    terminal = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    watch = list(range(n)) if draw(st.booleans()) else None
    stop_when_quiescent = draw(st.booleans())
    return terminal, watch, stop_when_quiescent


@st.composite
def multi_wave_stimuli(draw, n):
    """A multi-tick ``{tick: ids}`` stimulus schedule."""
    sched = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        tick = draw(st.integers(min_value=0, max_value=10))
        ids = sched.setdefault(tick, set())
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            ids.add(draw(st.integers(min_value=0, max_value=n - 1)))
    return {t: sorted(ids) for t, ids in sched.items()}


@given(random_networks(max_delay=6), st.data())
@settings(max_examples=80)
def test_sparse_matches_dense_exactly(case, data):
    """The core contract: sparse == dense on rasters AND stop metadata."""
    net, stim = case
    terminal, watch, swq = data.draw(stop_configs(n=net.n_neurons))
    compiled = net.compile()
    rd = simulate_dense(
        compiled, stim, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
        stop_when_quiescent=swq, record_spikes=True,
    )
    rs = simulate_sparse(
        compiled, stim, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
        stop_when_quiescent=swq, record_spikes=True,
    )
    assert_identical(rd, rs)


@given(random_networks(max_delay=25), st.data())
@settings(max_examples=50)
def test_sparse_matches_dense_with_long_delays_and_schedules(case, data):
    """Wide delay spread + multi-wave stimuli: the arrival ring buffer
    wraps repeatedly and stimulus ticks interleave with in-flight spikes."""
    net, _ = case
    stim = data.draw(multi_wave_stimuli(n=net.n_neurons))
    compiled = net.compile()
    rd = simulate_dense(
        compiled, stim, max_steps=MAX_STEPS, record_spikes=True,
    )
    rs = simulate_sparse(
        compiled, stim, max_steps=MAX_STEPS, record_spikes=True,
    )
    assert_identical(rd, rs)


@given(random_networks(max_delay=8), st.data())
@settings(max_examples=60)
def test_sparse_matches_dense_under_faults(case, data):
    """Counter-seeded fault realizations are identical spike-for-spike:
    drops, spurious forces, and stuck-at windows all hash (seed, tick,
    entity), so per-delay bucketing must not change a single decision."""
    net, stim = case
    faults = data.draw(fault_models(n=net.n_neurons))
    compiled = net.compile()
    rd = simulate_dense(
        compiled, stim, max_steps=MAX_STEPS, record_spikes=True, faults=faults,
    )
    rs = simulate_sparse(
        compiled, stim, max_steps=MAX_STEPS, record_spikes=True, faults=faults,
    )
    assert_identical(rd, rs)


@given(random_networks(max_delay=8), st.data())
@settings(max_examples=40)
def test_sparse_hook_totals_match_dense(case, data):
    """Telemetry hooks observe the same event stream: spike, delivery,
    drop, and fault-event totals all agree with the dense engine."""
    net, stim = case
    faults = data.draw(fault_models(n=net.n_neurons))
    compiled = net.compile()
    dense_rec = TraceRecorder()
    simulate_dense(
        compiled, stim, max_steps=MAX_STEPS, faults=faults, hooks=dense_rec,
    )
    sparse_rec = TraceRecorder()
    simulate_sparse(
        compiled, stim, max_steps=MAX_STEPS, faults=faults, hooks=sparse_rec,
    )
    assert sparse_rec.total_spikes == dense_rec.total_spikes
    assert sparse_rec.total_deliveries == dense_rec.total_deliveries
    assert sparse_rec.fault_totals() == dense_rec.fault_totals()


@given(random_networks(max_delay=10))
@settings(max_examples=40)
def test_sparse_matches_event_driven(case):
    """Cross-check against the event engine, stop metadata included."""
    net, stim = case
    compiled = net.compile()
    rs = simulate_sparse(
        compiled, stim, max_steps=MAX_STEPS, record_spikes=True,
    )
    re = simulate_event_driven(
        compiled, stim, max_steps=MAX_STEPS, record_spikes=True,
    )
    assert_identical(rs, re)


def test_sparse_rejects_pacemakers():
    from repro.core import Network

    net = Network()
    net.add_neuron(v_reset=1.0, v_threshold=0.5)  # pacemaker
    with pytest.raises(UnsupportedNetworkError):
        simulate_sparse(net, [0], max_steps=5)


def test_sparse_rejects_negative_max_steps():
    from repro.core import Network

    net = Network()
    net.add_neuron()
    with pytest.raises(ValidationError):
        simulate_sparse(net, [0], max_steps=-1)


def test_sparse_artifact_is_memoized_and_delay_bucketed():
    from repro.core import Network

    net = Network()
    a = net.add_neuron()
    b = net.add_neuron()
    c = net.add_neuron()
    net.add_synapse(a, b, weight=1.0, delay=3)
    net.add_synapse(a, c, weight=1.0, delay=1)
    net.add_synapse(b, c, weight=1.0, delay=3)
    compiled = net.compile()
    art = sparse_compile(compiled)
    assert sparse_compile(compiled) is art  # memoized on the instance
    assert art.delays.tolist() == [1, 3]
    assert [bkt.delay for bkt in art.buckets] == [1, 3]
    assert [bkt.nnz for bkt in art.buckets] == [1, 2]
    assert art.nnz == compiled.m
    # each bucket's CSR matrix row maps a source to its same-delay targets
    d3 = art.buckets[1]
    assert d3.srcs.tolist() == [a, b]
    assert d3.matrix.shape == (2, compiled.n)
    assert d3.matrix.getrow(0).indices.tolist() == [b]
