"""Behavioral tests of the event-driven engine."""

import numpy as np
import pytest

from repro.core import Network, StopReason, simulate_event_driven
from repro.errors import UnsupportedNetworkError, ValidationError


def chain(delays, **neuron_kwargs):
    net = Network()
    ids = [net.add_neuron(**neuron_kwargs) for _ in range(len(delays) + 1)]
    for i, d in enumerate(delays):
        net.add_synapse(ids[i], ids[i + 1], delay=d)
    return net, ids


class TestBasics:
    def test_long_delay_chain_cheap(self):
        # horizon 3_000_000 ticks, but only 4 spikes happen
        net, ids = chain([1_000_000, 1_000_000, 1_000_000])
        r = simulate_event_driven(net, [ids[0]], max_steps=4_000_000)
        assert r.first_spike.tolist() == [0, 1_000_000, 2_000_000, 3_000_000]

    def test_simultaneous_deliveries_sum(self):
        net = Network()
        a = net.add_neuron(tau=1.0)
        b = net.add_neuron(tau=1.0)
        c = net.add_neuron(v_threshold=1.5)
        net.add_synapse(a, c, weight=1.0, delay=2)
        net.add_synapse(b, c, weight=1.0, delay=2)
        r = simulate_event_driven(net, [a, b], max_steps=10)
        assert r.first_spike[c] == 2

    def test_sequential_deliveries_respect_decay_tau1(self):
        net = Network()
        a = net.add_neuron(tau=1.0)
        c = net.add_neuron(v_threshold=1.5, tau=1.0)
        net.add_synapse(a, c, weight=1.0, delay=1)
        net.add_synapse(a, c, weight=1.0, delay=2)
        r = simulate_event_driven(net, [a], max_steps=10)
        assert r.first_spike[c] == -1

    def test_sequential_deliveries_integrate_tau0(self):
        net = Network()
        a = net.add_neuron(tau=1.0)
        c = net.add_neuron(v_threshold=1.5, tau=0.0)
        net.add_synapse(a, c, weight=1.0, delay=1)
        net.add_synapse(a, c, weight=1.0, delay=5)
        r = simulate_event_driven(net, [a], max_steps=10)
        assert r.first_spike[c] == 5

    def test_fractional_decay_closed_form(self):
        # excess decays by (1-tau)^dt between deliveries
        net = Network()
        a = net.add_neuron(tau=1.0)
        c = net.add_neuron(v_threshold=1.24, tau=0.5)
        net.add_synapse(a, c, weight=1.0, delay=1)
        net.add_synapse(a, c, weight=1.0, delay=3)
        # at t=3: 1.0 * 0.5^2 + 1.0 = 1.25 > 1.24
        r = simulate_event_driven(net, [a], max_steps=10)
        assert r.first_spike[c] == 3

    def test_one_shot(self):
        net = Network()
        a = net.add_neuron(tau=1.0)
        b = net.add_neuron(one_shot=True)
        net.add_synapse(a, b, weight=1.0, delay=1)
        net.add_synapse(a, b, weight=1.0, delay=7)
        r = simulate_event_driven(net, [a], max_steps=20)
        assert r.spike_counts[b] == 1

    def test_pacemakers_rejected(self):
        net = Network()
        net.add_neuron(v_reset=2.0, v_threshold=1.0)
        with pytest.raises(UnsupportedNetworkError):
            simulate_event_driven(net, None, max_steps=5)

    def test_stimulus_validation(self):
        net = Network()
        net.add_neuron()
        with pytest.raises(ValidationError):
            simulate_event_driven(net, [3], max_steps=5)

    def test_record_spikes(self):
        net, ids = chain([2, 3])
        r = simulate_event_driven(net, [ids[0]], max_steps=10, record_spikes=True)
        assert r.spike_events[0].tolist() == [ids[0]]
        assert r.spike_events[2].tolist() == [ids[1]]
        assert r.spike_events[5].tolist() == [ids[2]]


class TestStops:
    def test_quiescent_when_heap_empty(self):
        # like the dense engine: the tick after the last spike is the
        # first one that observes quiescence
        net, ids = chain([2])
        r = simulate_event_driven(net, [ids[0]], max_steps=100)
        assert r.stop_reason is StopReason.QUIESCENT
        assert r.final_tick == 3

    def test_runs_out_budget_when_not_stopping_on_quiescence(self):
        net, ids = chain([2])
        r = simulate_event_driven(
            net, [ids[0]], max_steps=100, stop_when_quiescent=False
        )
        assert r.stop_reason is StopReason.MAX_STEPS
        assert r.final_tick == 100
        assert r.first_spike[ids[1]] == 2

    def test_terminal(self):
        net, ids = chain([4, 4])
        r = simulate_event_driven(net, [ids[0]], max_steps=100, terminal=ids[1])
        assert r.stop_reason is StopReason.TERMINAL
        assert r.final_tick == 4

    def test_watch(self):
        net, ids = chain([4, 4])
        r = simulate_event_driven(net, [ids[0]], max_steps=100, watch=[ids[1], ids[2]])
        assert r.stop_reason is StopReason.WATCH_SET
        assert r.final_tick == 8

    def test_max_steps(self):
        net, ids = chain([50])
        r = simulate_event_driven(net, [ids[0]], max_steps=10)
        assert r.stop_reason is StopReason.MAX_STEPS
        assert r.final_tick == 10
        assert r.first_spike[ids[1]] == -1

    def test_multi_wave_stimulus(self):
        net = Network()
        a = net.add_neuron(tau=1.0)
        r = simulate_event_driven(net, {0: [a], 7: [a]}, max_steps=20)
        assert r.spike_counts[a] == 2
