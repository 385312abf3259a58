"""Tests of the engine auto-dispatcher (repro.core.run)."""

import pytest

from repro.core import Network, simulate, simulate_batch
from repro.core.run import ENGINES, _EVENT_DELAY_CUTOFF
from repro.core.sparse import SPARSE_AUTO_MIN_NEURONS
from repro.core.watchdog import Watchdog
from repro.errors import ValidationError, classify_exception


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
