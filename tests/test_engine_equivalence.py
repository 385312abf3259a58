"""Property-based equivalence of the dense and event-driven engines.

Both engines implement the same Definition-2 semantics; on any network the
event engine supports (no pacemakers) they must produce identical spike
trains.  Hypothesis drives randomized network topologies, parameters, and
stimuli via the shared strategy library in ``tests/differential.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Network, simulate_dense, simulate_event_driven
from repro.core.session import DenseSession
from repro.telemetry import TraceRecorder
from tests.differential import (
    assert_identical,
    fault_models,
    random_networks,
)


@given(random_networks())
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_integer_tau_networks(case):
    net, stim = case
    # cap steps: recurrent nets with excitatory cycles may run forever
    r_dense = simulate_dense(net, stim, max_steps=60, stop_when_quiescent=True,
                             record_spikes=True)
    r_event = simulate_event_driven(net, stim, max_steps=60, record_spikes=True)
    assert_identical(r_dense, r_event)


@given(random_networks(), st.data())
@settings(max_examples=60, deadline=None)
def test_engines_agree_under_transient_faults(case, data):
    """The tentpole invariant: both engines observe identical fault semantics."""
    net, stim = case
    faults = data.draw(fault_models(n=net.n_neurons))
    r_dense = simulate_dense(net, stim, max_steps=60, stop_when_quiescent=True,
                             record_spikes=True, faults=faults)
    r_event = simulate_event_driven(net, stim, max_steps=60, record_spikes=True,
                                    faults=faults)
    assert_identical(r_dense, r_event)


@given(random_networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_all_three_engines_report_identical_hook_totals(case, data):
    """Dense, event-driven, and session engines must emit the same spike and
    fault-event totals through the telemetry hook API."""
    net, stim = case
    max_steps = 40
    seed_model = data.draw(fault_models(n=net.n_neurons))

    dense_rec = TraceRecorder()
    r_dense = simulate_dense(net, stim, max_steps=max_steps,
                             stop_when_quiescent=True, faults=seed_model,
                             hooks=dense_rec)
    event_rec = TraceRecorder()
    simulate_event_driven(net, stim, max_steps=max_steps, faults=seed_model,
                          hooks=event_rec)
    session_rec = TraceRecorder()
    session = DenseSession(net, faults=seed_model, fault_horizon=max_steps,
                           hooks=session_rec)
    session.inject(stim)
    session.step(r_dense.final_tick + 1)

    assert dense_rec.total_spikes == r_dense.spike_counts.sum()
    for rec in (event_rec, session_rec):
        assert rec.total_spikes == dense_rec.total_spikes
        assert rec.fault_totals() == dense_rec.fault_totals()
    assert dense_rec.total_deliveries == event_rec.total_deliveries
    assert dense_rec.total_deliveries == session_rec.total_deliveries


@given(
    tau=st.floats(min_value=0.05, max_value=0.95),
    weights=st.lists(
        st.floats(min_value=0.1, max_value=0.9), min_size=2, max_size=6
    ),
    gaps=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_fractional_decay(tau, weights, gaps):
    """A single integrator receiving a drip of subthreshold inputs."""
    k = min(len(weights), len(gaps))
    net = Network()
    srcs = [net.add_neuron(tau=1.0) for _ in range(k)]
    target = net.add_neuron(v_threshold=1.2, tau=tau)
    t, stim = 0, {}
    for i in range(k):
        t += gaps[i]
        stim[t] = stim.get(t, [])
        stim[t].append(srcs[i])
        net.add_synapse(srcs[i], target, weight=weights[i], delay=1)
    r_dense = simulate_dense(net, stim, max_steps=80)
    r_event = simulate_event_driven(net, stim, max_steps=80)
    assert r_dense.first_spike[target] == r_event.first_spike[target]
    assert r_dense.spike_counts[target] == r_event.spike_counts[target]
