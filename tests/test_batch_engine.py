"""Unit tests for the batch front end, engine dispatch, and build cache."""

import numpy as np
import pytest

from repro.core import (
    BuildCache,
    Network,
    StopReason,
    default_build_cache,
    simulate,
    simulate_batch,
    simulate_dense_batch,
    structure_fingerprint,
)
from repro.core.batch import _per_item
from repro.core.transient import SpikeDrop
from repro.core.watchdog import Watchdog
from repro.errors import ValidationError
from repro.telemetry import TraceRecorder
from repro.workloads import WeightedDigraph


def chain_net(delay=1, k=3, pacemaker=False):
    """k one-shot neurons in a line; optionally one pacemaker appended."""
    net = Network()
    ids = [net.add_neuron(one_shot=True) for _ in range(k)]
    for a, b in zip(ids, ids[1:]):
        net.add_synapse(a, b, delay=delay)
    if pacemaker:
        net.add_neuron(v_threshold=-1.0)  # fires every tick unprompted
    return net, ids


# ---------------------------------------------------------------- dispatch #


def test_batch_empty_returns_empty_list():
    net, _ = chain_net()
    assert simulate_batch(net, [], max_steps=10) == []
    assert simulate_dense_batch(net.compile(), [], max_steps=10) == []


def test_batch_auto_picks_event_for_long_delays():
    net, ids = chain_net(delay=100)
    rec = TraceRecorder()
    auto = simulate_batch(net, [[ids[0]]], max_steps=500, hooks=rec)
    dense = simulate_batch(net, [[ids[0]]], max_steps=500, engine="dense")
    assert rec.engine == "event"
    # every engine reports the same result, stop metadata included
    assert auto[0].final_tick == dense[0].final_tick
    assert auto[0].first_spike.tolist() == dense[0].first_spike.tolist()


def test_batch_auto_falls_back_to_dense_for_pacemakers():
    net, ids = chain_net(delay=100, pacemaker=True)
    with pytest.warns(RuntimeWarning, match="pacemaker"):
        runs = simulate_batch(net, [[ids[0]], [ids[1]]], max_steps=250,
                              stop_when_quiescent=False)
    assert runs[0].first_spike[ids[1]] == 100
    assert runs[1].first_spike[ids[2]] == 100
    # the pacemaker fired every tick of the budget in both items
    assert runs[0].spike_counts[-1] == 250


def test_batch_watchdog_falls_back_to_per_item_dispatch():
    net, ids = chain_net()
    runs = simulate_batch(net, [[ids[0]], [ids[1]]], max_steps=20,
                          watchdog=Watchdog())
    assert runs[0].first_spike[ids[2]] == 2
    assert runs[1].first_spike[ids[2]] == 1


def test_batch_probe_falls_back_and_carries_voltages():
    net, ids = chain_net()
    runs = simulate_batch(net, [[ids[0]], [ids[1]]], max_steps=5,
                          probe_voltages=[ids[2]])
    for r in runs:
        assert r.voltages is not None and ids[2] in r.voltages


def test_batch_unknown_engine_rejected():
    net, ids = chain_net()
    with pytest.raises(ValidationError, match="unknown engine"):
        simulate_batch(net, [[ids[0]]], max_steps=5, engine="gpu")


def test_batch_matches_solo_simulate_per_item():
    net, ids = chain_net(delay=2)
    runs = simulate_batch(net, [[ids[0]], [ids[1]], [ids[2]]], max_steps=30)
    for b, stim in enumerate(([ids[0]], [ids[1]], [ids[2]])):
        solo = simulate(net, stim, max_steps=30, engine="dense")
        assert runs[b].first_spike.tolist() == solo.first_spike.tolist()
        assert runs[b].stop_reason == solo.stop_reason


def test_batch_per_item_stop_reasons():
    net, ids = chain_net(delay=3)
    runs = simulate_dense_batch(
        net.compile(),
        [[ids[0]], [ids[0]], None],
        max_steps=4,
        terminal=None,
        watch=None,
        stop_when_quiescent=True,
    )
    # item 0/1 hit the tick budget mid-propagation; item 2 never spikes
    assert runs[2].stop_reason == StopReason.QUIESCENT
    assert runs[0].stop_reason == StopReason.MAX_STEPS
    term_runs = simulate_dense_batch(
        net.compile(), [[ids[0]]], max_steps=30, terminal=ids[2]
    )
    assert term_runs[0].stop_reason == StopReason.TERMINAL
    assert term_runs[0].final_tick == 6


# ---------------------------------------------------------------- _per_item #


def test_per_item_normalization():
    model = SpikeDrop(0.1, seed=1)
    assert _per_item(None, 3, SpikeDrop, "faults") == [None, None, None]
    assert _per_item(model, 3, SpikeDrop, "faults") == [model] * 3
    mixed = [model, None, model]
    assert _per_item(mixed, 3, SpikeDrop, "faults") == mixed


def test_per_item_rejects_wrong_length_and_type():
    model = SpikeDrop(0.1, seed=1)
    with pytest.raises(ValidationError, match="2 entries for a batch of 3"):
        _per_item([model, None], 3, SpikeDrop, "faults")
    with pytest.raises(ValidationError, match="must be SpikeDrop"):
        _per_item([model, "nope", None], 3, SpikeDrop, "faults")


def test_batch_validates_inputs():
    net, ids = chain_net()
    with pytest.raises(ValidationError, match="max_steps"):
        simulate_dense_batch(net.compile(), [[ids[0]]], max_steps=-1)
    with pytest.raises(ValidationError, match="out of range"):
        simulate_dense_batch(net.compile(), [[99]], max_steps=5)


# -------------------------------------------------------------- build cache #


def test_structure_fingerprint_sensitivity():
    a = np.asarray([1, 2, 3], dtype=np.int64)
    assert structure_fingerprint(a) == structure_fingerprint(a.copy())
    assert structure_fingerprint(a) != structure_fingerprint(a.astype(np.int32))
    assert structure_fingerprint(a) != structure_fingerprint(a[::-1])
    assert structure_fingerprint("x", a) != structure_fingerprint("y", a)


def test_build_cache_hit_miss_and_lru_eviction():
    cache = BuildCache(maxsize=2)
    builds = []

    def make(key):
        def build():
            builds.append(key)
            return key
        return build

    assert cache.get_or_build(("a",), make("a")) == "a"
    assert cache.get_or_build(("a",), make("a")) == "a"  # hit
    assert cache.stats() == {
        "entries": 1,
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "invalidations": 0,
        "seeds": 0,
    }
    cache.get_or_build(("b",), make("b"))
    cache.get_or_build(("a",), make("a"))  # refresh "a" to MRU
    cache.get_or_build(("c",), make("c"))  # evicts LRU = "b"
    cache.get_or_build(("b",), make("b"))  # rebuild
    assert builds == ["a", "b", "c", "b"]
    assert len(cache) == 2


def test_build_cache_rejects_none_and_bad_maxsize():
    cache = BuildCache()
    with pytest.raises(ValidationError, match="None"):
        cache.get_or_build(("k",), lambda: None)
    with pytest.raises(ValidationError, match="maxsize"):
        BuildCache(maxsize=0)


def test_graph_structure_key_caches_network_builds():
    from repro.algorithms import sssp_network

    edges = [(0, 1, 2), (1, 2, 3)]
    g1 = WeightedDigraph(3, edges)
    g2 = WeightedDigraph(3, edges)
    g3 = WeightedDigraph(3, [(0, 1, 2), (1, 2, 4)])
    assert g1.structure_key() == g2.structure_key()
    assert g1.structure_key() != g3.structure_key()

    default_build_cache.clear()
    net1, ids1 = sssp_network(g1)
    net2, ids2 = sssp_network(g2)  # same structure: the exact same object
    assert net1 is net2 and ids1 is ids2
    net3, _ = sssp_network(g3)
    assert net3 is not net1
    assert sssp_network(g1, use_gadgets=True)[0] is not net1
