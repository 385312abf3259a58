"""Tests of the metrics registry and its context-scoped activation."""

import pytest

from repro.telemetry import (
    MetricsRegistry,
    active_registry,
    counter_inc,
    gauge_set,
    observe,
    percentile,
    timer,
    use_registry,
)
from repro.telemetry.metrics import _NULL_TIMER


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.counter_inc("a")
        reg.counter_inc("a", 4)
        assert reg.counters["a"] == 5

    def test_gauges_hold_last_value(self):
        reg = MetricsRegistry()
        reg.gauge_set("depth", 3)
        reg.gauge_set("depth", 7)
        assert reg.gauges["depth"] == 7.0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in [5.0, 1.0, 3.0]:
            reg.observe("h", v)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["count"] == 3
        assert snap["min"] == 1.0 and snap["max"] == 5.0
        assert snap["mean"] == pytest.approx(3.0)
        assert snap["p50"] == 3.0

    def test_timer_records_positive_seconds(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        assert reg.timer_total("t") >= 0.0
        assert reg.snapshot()["timers"]["t"]["count"] == 1
        assert reg.timer_names() == ["t"]

    def test_merge_folds_everything(self):
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        a.counter_inc("c", 1)
        b.counter_inc("c", 2)
        b.gauge_set("g", 9)
        b.observe("h", 1.0)
        b.timer_observe("t", 0.5)
        a.merge(b)
        assert a.counters["c"] == 3
        assert a.gauges["g"] == 9.0
        assert a.timer_total("t") == 0.5
        assert a.snapshot()["histograms"]["h"]["count"] == 1

    def test_reset_clears_all(self):
        reg = MetricsRegistry()
        reg.counter_inc("c")
        reg.gauge_set("g", 1)
        reg.observe("h", 1)
        reg.timer_observe("t", 1)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert snap["histograms"] == {} and snap["timers"] == {}

    def test_snapshot_is_json_serializable(self):
        import json

        reg = MetricsRegistry("s")
        reg.counter_inc("c", 2)
        reg.observe("h", 0.25)
        json.dumps(reg.snapshot())


class TestContextScoping:
    def test_no_registry_active_by_default(self):
        assert active_registry() is None

    def test_helpers_are_noops_without_registry(self):
        counter_inc("orphan", 10)
        gauge_set("orphan", 1.0)
        observe("orphan", 1.0)
        assert timer("orphan") is _NULL_TIMER
        with timer("orphan"):
            pass
        assert active_registry() is None

    def test_use_registry_scopes_and_restores(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert active_registry() is reg
            counter_inc("hit")
            with timer("phase.x"):
                pass
        assert active_registry() is None
        counter_inc("hit")  # no-op: registry no longer active
        assert reg.counters["hit"] == 1
        assert reg.snapshot()["timers"]["phase.x"]["count"] == 1

    def test_nesting_restores_outer_registry(self):
        outer, inner = MetricsRegistry("outer"), MetricsRegistry("inner")
        with use_registry(outer):
            counter_inc("c")
            with use_registry(inner):
                counter_inc("c", 5)
                assert active_registry() is inner
            assert active_registry() is outer
            counter_inc("c")
        assert outer.counters["c"] == 2
        assert inner.counters["c"] == 5

    def test_restores_even_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(reg):
                raise RuntimeError("boom")
        assert active_registry() is None


class TestPercentile:
    def test_nearest_rank_returns_an_observed_value(self):
        values = [0.4, 0.1, 0.3, 0.2]
        assert percentile(values, 0.0) == 0.1
        assert percentile(values, 0.5) == 0.3  # index round(1.5) = 2
        assert percentile(values, 0.99) == 0.4
        assert percentile(values, 1.0) == 0.4

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0
