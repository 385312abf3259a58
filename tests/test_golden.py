"""Golden regression suite: every engine vs recorded fixtures.

``tests/golden/*.json`` freeze known-good runs (graph, answer, cost
fields, and — for SNN-level SSSP — the full spike raster) produced by
``tools/gen_golden.py``.  These tests replay each fixture on every
execution path in ``gen_golden.ENGINE_PATHS`` (dense, event-driven,
batched dense, and sparse CSR) and compare spike for spike, so any
semantic drift anywhere in the engine or driver stack fails loudly
against a recorded artifact rather than only against another live engine.

Regenerate (and review the diff!) after an intentional semantic change:

    PYTHONPATH=src python tools/gen_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.algorithms import spiking_khop_poly, spiking_sssp_pseudo, sssp_network
from repro.workloads import WeightedDigraph

GOLDEN_DIR = Path(__file__).parent / "golden"

sys.path.insert(0, str(GOLDEN_DIR.parent.parent / "tools"))
try:
    from gen_golden import ENGINE_PATHS, build_fixtures, replay_sssp
finally:
    sys.path.pop(0)


def load(name: str) -> dict:
    payload = json.loads((GOLDEN_DIR / name).read_text())
    assert payload["schema"] == "repro.golden/v1"
    return payload


def graph_of(payload: dict) -> WeightedDigraph:
    return WeightedDigraph(
        payload["graph"]["n"], [tuple(e) for e in payload["graph"]["edges"]]
    )


def check_cost(cost, expected: dict) -> None:
    for field, want in expected.items():
        assert getattr(cost, field) == want, field


SSSP_FIXTURES = ["sssp_small.json", "sssp_gnp12.json"]

#: Engines the solo algorithm driver dispatches to directly ("batch" is a
#: batched-run shape, not a ``simulate()`` engine name).
DRIVER_ENGINES = [e for e in ENGINE_PATHS if e != "batch"]


@pytest.mark.parametrize("fixture", SSSP_FIXTURES)
@pytest.mark.parametrize("engine", DRIVER_ENGINES)
def test_golden_sssp_answer_and_cost(fixture, engine):
    payload = load(fixture)
    g = graph_of(payload)
    r = spiking_sssp_pseudo(g, payload["source"], engine=engine)
    assert r.dist.tolist() == payload["dist"]
    check_cost(r.cost, payload["cost"])


@pytest.mark.parametrize("fixture", SSSP_FIXTURES)
@pytest.mark.parametrize("engine", ENGINE_PATHS)
def test_golden_sssp_raster(fixture, engine):
    """The engines must reproduce the recorded spike raster tick for tick."""
    payload = load(fixture)
    assert engine in payload["engines"], "fixture predates this engine"
    g = graph_of(payload)
    net, ids = sssp_network(g)
    horizon = (g.n - 1) * max(1, g.max_length()) + 1
    res = replay_sssp(net, ids, payload["source"], horizon, engine)
    raster = {
        str(t): sorted(int(i) for i in ids_t)
        for t, ids_t in res.spike_events.items()
    }
    assert raster == payload["raster"]
    assert res.final_tick == payload["final_tick"]


def test_golden_khop_poly():
    payload = load("khop_poly_gnp12.json")
    g = graph_of(payload)
    r = spiking_khop_poly(g, payload["source"], payload["k"])
    assert r.dist.tolist() == payload["dist"]
    check_cost(r.cost, payload["cost"])


def test_fixtures_are_current():
    """The checked-in fixtures match what the generator produces today."""
    for fname, payload in build_fixtures().items():
        on_disk = json.loads((GOLDEN_DIR / fname).read_text())
        assert payload == on_disk, f"{fname} is stale; rerun tools/gen_golden.py"
