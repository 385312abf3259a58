"""Tests of the engine auto-dispatcher (repro.core.run)."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import Network, simulate, simulate_batch
from repro.core.run import ENGINES, _EVENT_DELAY_CUTOFF, _PROFILE_ATTR, choose_engine
from repro.core.sparse import SPARSE_AUTO_MIN_NEURONS
from repro.core.watchdog import Watchdog
from repro.errors import ValidationError, classify_exception
from repro.telemetry import EngineHooks, MetricsRegistry, use_registry
from repro.workloads import gnp_graph, path_graph


def make_net(delay=1, pacemaker=False):
    net = Network()
    a = net.add_neuron(
        v_reset=2.0 if pacemaker else 0.0,
        v_threshold=0.5,
        tau=1.0,
    )
    b = net.add_neuron()
    net.add_synapse(a, b, delay=delay)
    return net, a, b


class TestAutoDispatch:
    def test_short_delays_pick_dense(self):
        net, a, b = make_net(delay=2)
        r = simulate(net, [a], max_steps=10)
        assert r.first_spike[b] == 2  # semantics regardless of engine

    def test_long_delays_pick_event(self):
        net, a, b = make_net(delay=_EVENT_DELAY_CUTOFF + 1)
        # event engine rejects probes; auto must not have chosen dense here,
        # so requesting probes forces dense explicitly instead
        r = simulate(net, [a], max_steps=1000)
        assert r.first_spike[b] == _EVENT_DELAY_CUTOFF + 1

    def test_pacemaker_forces_dense(self):
        net, a, b = make_net(pacemaker=True)
        r = simulate(net, None, max_steps=5, stop_when_quiescent=False)
        assert r.spike_counts[a] == 5  # only the dense engine supports this

    def test_pacemaker_with_long_delays_warns_and_falls_back_to_dense(self):
        """The heuristic wants the event engine for long delays, but pacemakers
        require dense: auto now warns and degrades instead of raising."""
        net, a, b = make_net(delay=_EVENT_DELAY_CUTOFF + 5, pacemaker=True)
        with pytest.warns(RuntimeWarning, match="pacemaker"):
            r = simulate(net, None, max_steps=_EVENT_DELAY_CUTOFF + 10,
                         stop_when_quiescent=False)
        assert r.spike_counts[a] == _EVENT_DELAY_CUTOFF + 10
        assert r.first_spike[b] == _EVENT_DELAY_CUTOFF + 6

    def test_short_delay_pacemaker_does_not_warn(self):
        import warnings

        net, a, _ = make_net(pacemaker=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = simulate(net, None, max_steps=5, stop_when_quiescent=False)
        assert r.spike_counts[a] == 5

    def test_probes_force_dense_even_with_long_delays(self):
        net, a, b = make_net(delay=_EVENT_DELAY_CUTOFF + 10)
        r = simulate(net, [a], max_steps=200, probe_voltages=[b])
        assert r.voltages is not None and b in r.voltages

    def test_explicit_event_with_probes_rejected(self):
        net, a, b = make_net()
        with pytest.raises(ValidationError):
            simulate(net, [a], max_steps=5, engine="event", probe_voltages=[b])

    def test_unknown_engine_rejected(self):
        net, a, _ = make_net()
        with pytest.raises(ValidationError):
            simulate(net, [a], max_steps=5, engine="warp")

    def test_unknown_engine_error_is_structured(self):
        """The dispatch error carries the stable INVALID code (permanent,
        not retryable) and names every accepted engine."""
        net, a, _ = make_net()
        with pytest.raises(ValidationError) as exc:
            simulate(net, [a], max_steps=5, engine="warp")
        code, retryable = classify_exception(exc.value)
        assert code == "INVALID"
        assert not retryable
        msg = str(exc.value)
        assert "'warp'" in msg
        for engine in ENGINES:
            assert engine in msg

    def test_unknown_engine_rejected_in_batch(self):
        net, a, _ = make_net()
        with pytest.raises(ValidationError) as exc:
            simulate_batch(net, [[a]], max_steps=5, engine="warp")
        assert classify_exception(exc.value)[0] == "INVALID"

    @pytest.mark.parametrize("arg", ["watch", "terminal"])
    @pytest.mark.parametrize("bad", [-1, 2])
    @pytest.mark.parametrize(
        "runner", ["dense", "event", "sparse", "batch", "batch-fallback"]
    )
    def test_out_of_range_watch_and_terminal_rejected(self, runner, bad, arg):
        """Negative ids must not wrap to the last neuron, and ids past the
        end must not escape as a raw IndexError, on any run path."""
        net, a, _ = make_net()
        kw = {"watch": [bad]} if arg == "watch" else {"terminal": bad}
        with pytest.raises(ValidationError) as exc:
            if runner == "batch":
                simulate_batch(net, [[a]], max_steps=5, engine="dense", **kw)
            elif runner == "batch-fallback":
                # a watchdog sends the batch down the per-item path
                simulate_batch(net, [[a]], max_steps=5, watchdog=Watchdog(), **kw)
            else:
                simulate(net, [a], max_steps=5, engine=runner, **kw)
        assert classify_exception(exc.value)[0] == "INVALID"

    @pytest.mark.parametrize("engine", ["dense", "event", "sparse"])
    def test_explicit_engines_work(self, engine):
        net, a, b = make_net(delay=3)
        r = simulate(net, [a], max_steps=10, engine=engine)
        assert r.first_spike[b] == 3

    def test_explicit_sparse_with_probes_rejected(self):
        net, a, b = make_net()
        with pytest.raises(ValidationError):
            simulate(net, [a], max_steps=5, engine="sparse", probe_voltages=[b])


def big_sparse_net(delay: int, pacemaker: bool = False):
    """A network past both sparse-auto thresholds: n >= the neuron floor
    and density far below the cutoff (a handful of synapses over n^2)."""
    net = Network()
    if pacemaker:
        net.add_neuron(v_reset=2.0, v_threshold=0.5, tau=1.0)
    for _ in range(SPARSE_AUTO_MIN_NEURONS):
        net.add_neuron()
    net.add_synapse(0, 1, delay=delay)
    net.add_synapse(1, 2, delay=2)
    return net


class TestSparseAutoDispatch:
    def test_auto_picks_sparse_for_large_low_density_long_delay_net(self):
        compiled = big_sparse_net(delay=_EVENT_DELAY_CUTOFF + 1).compile()
        r = simulate(compiled, [0], max_steps=_EVENT_DELAY_CUTOFF + 10)
        assert r.first_spike[1] == _EVENT_DELAY_CUTOFF + 1
        assert r.first_spike[2] == _EVENT_DELAY_CUTOFF + 3
        # the sparse core memoizes its CSR artifact on the compiled network,
        # so its presence is direct evidence the sparse path ran
        assert getattr(compiled, "_sparse_artifact", None) is not None

    def test_auto_keeps_event_for_small_long_delay_net(self):
        net, a, b = make_net(delay=_EVENT_DELAY_CUTOFF + 1)
        compiled = net.compile()
        r = simulate(compiled, [a], max_steps=1000)
        assert r.first_spike[b] == _EVENT_DELAY_CUTOFF + 1
        assert getattr(compiled, "_sparse_artifact", None) is None

    def test_auto_pacemaker_still_falls_back_to_dense(self):
        compiled = big_sparse_net(
            delay=_EVENT_DELAY_CUTOFF + 1, pacemaker=True
        ).compile()
        with pytest.warns(RuntimeWarning, match="pacemaker"):
            simulate(compiled, None, max_steps=3, stop_when_quiescent=False)
        assert getattr(compiled, "_sparse_artifact", None) is None

    def test_batch_auto_picks_sparse_per_item(self):
        compiled = big_sparse_net(delay=_EVENT_DELAY_CUTOFF + 1).compile()
        rs = simulate_batch(
            compiled, [[0], [1]], max_steps=_EVENT_DELAY_CUTOFF + 10
        )
        assert rs[0].first_spike[1] == _EVENT_DELAY_CUTOFF + 1
        assert rs[1].first_spike[2] == 2
        assert getattr(compiled, "_sparse_artifact", None) is not None


class EngineSeen(EngineHooks):
    """Records the engine name each run reports in ``on_run_start``."""

    def __init__(self):
        self.engines = []

    def on_run_start(self, n_neurons, max_steps, engine):
        self.engines.append(engine)


def sssp_query(graph, source=0):
    """A fresh (uncached, unprofiled) Section-3 SSSP network and its run kwargs."""
    net = Network()
    for _ in range(graph.n):
        net.add_neuron(one_shot=True)
    for u, v, w in graph.edges():
        if u != v:
            net.add_synapse(u, v, weight=1.0, delay=int(w))
    compiled = net.compile()
    kw = dict(max_steps=(graph.n - 1) * graph.max_length() + 1, watch=range(graph.n))
    return compiled, [source], kw


def auto_engine(net, stim, kw):
    hooks = EngineSeen()
    result = simulate(net, stim, hooks=hooks, **kw)
    (engine,) = hooks.engines
    return engine, result


def same_result(a, b):
    return (
        np.array_equal(a.first_spike, b.first_spike)
        and np.array_equal(a.spike_counts, b.spike_counts)
        and a.final_tick == b.final_tick
        and a.stop_reason == b.stop_reason
    )


class TestProfileDispatch:
    """A network's first auto run takes the prior rule; later runs follow
    the cost the profile it left predicts for each engine."""

    @pytest.fixture
    def chain(self):
        return sssp_query(path_graph(2000, max_length=10, seed=3), source=7)

    def test_thin_chain_moves_to_event_after_profiling(self, chain):
        net, stim, kw = chain
        first_engine, first = auto_engine(net, stim, kw)
        second_engine, second = auto_engine(net, stim, kw)
        reference = simulate(net, stim, engine="dense", **kw)
        assert (first_engine, second_engine) == ("dense", "event")
        assert same_result(first, reference)
        assert same_result(second, reference)
        ticks, active, spikes, deliveries = getattr(net, _PROFILE_ATTR)
        assert ticks == reference.final_tick
        assert spikes == reference.spike_counts.sum() == active
        assert deliveries == spikes - 1  # every vertex but the last has one out-edge

    def test_wide_frontier_stays_off_event(self):
        n = 3000
        net, stim, kw = sssp_query(gnp_graph(n, 4.0 / n, max_length=10, seed=1))
        engines = [auto_engine(net, stim, kw)[0] for _ in range(2)]
        assert engines[0] == "dense"
        assert engines[1] != "event"

    def test_batch_of_profiled_chain_runs_items_on_event(self, chain):
        net, stim, kw = chain
        simulate(net, stim, **kw)  # leaves a profile
        hooks = [EngineSeen() for _ in range(3)]
        results = simulate_batch(net, [stim, [3], [11]], hooks=hooks, **kw)
        assert [h.engines for h in hooks] == [["event"]] * 3
        reference = simulate(net, [3], engine="dense", **kw)
        assert same_result(results[1], reference)

    def test_batch_of_profiled_small_wide_graph_stays_batched_dense(self):
        n = 300
        net, stim, kw = sssp_query(gnp_graph(n, 6.0 / n, max_length=10, seed=5))
        simulate(net, stim, **kw)
        assert getattr(net, _PROFILE_ATTR, None) is not None
        for B in (1, 16):
            hooks = EngineSeen()
            simulate_batch(net, [stim] * B, hooks=hooks, **kw)
            assert hooks.engines == ["dense-batch"] * B

    def test_probes_never_consult_the_profile(self, chain):
        net, stim, kw = chain
        simulate(net, stim, **kw)
        assert choose_engine(net) == "event"
        reg = MetricsRegistry()
        with use_registry(reg):
            r = simulate(net, stim, probe_voltages=[0], **kw)
        assert r.voltages is not None
        assert reg.counters["engine.dispatch.prior.dense"] == 1
        assert "engine.dispatch.profile" not in reg.counters

    def test_pacemaker_networks_are_never_profiled(self):
        net, a, _ = make_net(pacemaker=True)
        compiled = net.compile()
        reg = MetricsRegistry()
        with use_registry(reg):
            for _ in range(3):
                hooks = EngineSeen()
                simulate(compiled, None, max_steps=50, stop_when_quiescent=False, hooks=hooks)
                assert hooks.engines == ["dense"]
        assert getattr(compiled, _PROFILE_ATTR, None) is None
        assert reg.counters["engine.dispatch.prior"] == 3
        assert "engine.dispatch.profile" not in reg.counters

    def test_dispatch_counters_record_prior_and_profile(self):
        net, stim, kw = sssp_query(path_graph(200, max_length=10, seed=1))
        reg = MetricsRegistry()
        with use_registry(reg):
            simulate(net, stim, **kw)
            simulate(net, stim, **kw)
            simulate(net, stim, engine="dense", **kw)  # forced: no decision
        assert reg.counters["engine.dispatch.prior"] == 1
        assert reg.counters["engine.dispatch.prior.dense"] == 1
        assert reg.counters["engine.dispatch.profile"] == 1
        assert reg.counters["engine.dispatch.profile.event"] == 1

    def test_racing_threads_get_correct_results_and_a_whole_profile(self):
        """More threads than cores, a short switch interval: every run is
        right whichever engine the racing profiles pick, and the stored
        profile is one a run left, never a mix of two."""
        graph = path_graph(300, max_length=10, seed=2)
        net, _, kw = sssp_query(graph)
        sources = [[0], [5], [9], [20], [2], [13]]
        expected, profiles = [], []
        for s in sources:
            solo, _, _ = sssp_query(graph)
            expected.append(simulate(solo, s, engine="dense", **kw))
            profiles.append(getattr(solo, _PROFILE_ATTR))
        barrier = threading.Barrier(4)
        out = {}

        def worker(tid):
            barrier.wait()
            order = sources[tid:] + sources[:tid]
            out[tid] = (order, [simulate(net, s, **kw) for s in order])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        by_source = {tuple(s): e for s, e in zip(sources, expected)}
        for order, results in out.values():
            assert all(same_result(r, by_source[tuple(s)]) for s, r in zip(order, results))
        assert getattr(net, _PROFILE_ATTR) in profiles

    def test_pickle_keeps_the_profile_and_drops_the_sparse_artifact(self):
        net, stim, kw = sssp_query(path_graph(200, max_length=10, seed=1))
        simulate(net, stim, engine="sparse", **kw)
        assert getattr(net, "_sparse_artifact", None) is not None
        shipped = pickle.loads(pickle.dumps(net))
        assert getattr(shipped, _PROFILE_ATTR) == getattr(net, _PROFILE_ATTR)
        assert getattr(shipped, "_sparse_artifact", None) is None
        # the shipped copy dispatches from its first run like the original
        assert choose_engine(shipped) == choose_engine(net) == "event"
