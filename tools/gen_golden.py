"""Regenerate the golden regression fixtures under ``tests/golden/``.

Each fixture freezes one algorithm run on a fixed seeded input: the graph
(as an explicit edge list, so fixtures do not depend on generator
stability), the answer, the :class:`~repro.core.cost.CostReport` fields,
and — for the SNN-level SSSP runs — the full spike raster.  Every fixture
also pins the certifier's size *and* runtime budgets (settle/quiescence
from the temporal analysis) for its graph; ``repro lint --golden`` /
``repro certify --golden`` recompute and diff them, so a timing
regression fails the same gate as a raster drift.  The golden
suite (``tests/test_golden.py``) replays every fixture on every engine and
compares spike for spike, catching any semantic drift in the engines or
the algorithm drivers.

Run after an *intentional* semantic change, then review the diff:

    PYTHONPATH=src python tools/gen_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.algorithms import spiking_khop_poly, spiking_sssp_pseudo, sssp_network
from repro.cli import _budget_payload
from repro.core import simulate, simulate_batch
from repro.workloads import WeightedDigraph, gnp_graph

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

SCHEMA = "repro.golden/v1"

#: Every execution path a raster fixture must replay identically on.  The
#: golden suite parametrizes over this same list (``tests/test_golden.py``
#: imports it), so adding an engine here automatically extends the suite.
ENGINE_PATHS = ("dense", "event", "batch", "sparse")

#: The fixed 6-vertex graph of tests/conftest.py (known distances).
SMALL_EDGES = [
    (0, 1, 2), (0, 2, 7), (1, 2, 3), (1, 3, 6), (2, 3, 1), (3, 4, 2), (2, 4, 9),
]


def _graph_payload(g: WeightedDigraph) -> dict:
    return {"n": g.n, "edges": [[int(u), int(v), int(w)] for u, v, w in g.edges()]}


def _cost_payload(cost) -> dict:
    out = {
        "algorithm": cost.algorithm,
        "simulated_ticks": cost.simulated_ticks,
        "loading_ticks": cost.loading_ticks,
        "neuron_count": cost.neuron_count,
        "synapse_count": cost.synapse_count,
        "spike_count": cost.spike_count,
    }
    if cost.rounds is not None:
        out["rounds"] = cost.rounds
        out["round_length"] = cost.round_length
        out["message_bits"] = cost.message_bits
    return out


def replay_sssp(
    net, ids, source: int, horizon: int, engine: str
):
    """Run one fixture's SSSP network on the named execution path.

    ``engine`` is one of :data:`ENGINE_PATHS`; ``"batch"`` means a
    single-item batched dense run, the rest dispatch through
    :func:`repro.core.simulate`.
    """
    if engine == "batch":
        return simulate_batch(
            net, [[ids[source]]], engine="dense", max_steps=horizon,
            watch=ids, record_spikes=True,
        )[0]
    return simulate(
        net, [ids[source]], engine=engine, max_steps=horizon,
        watch=ids, record_spikes=True,
    )


def _raster_of(sim) -> dict:
    return {
        str(t): sorted(int(i) for i in ids_t)
        for t, ids_t in sorted(sim.spike_events.items())
    }


def sssp_fixture(name: str, g: WeightedDigraph, source: int) -> dict:
    r = spiking_sssp_pseudo(g, source)
    net, ids = sssp_network(g)
    horizon = (g.n - 1) * max(1, g.max_length()) + 1
    sim = replay_sssp(net, ids, source, horizon, "dense")
    raster = _raster_of(sim)
    # Self-check before freezing: every execution path must already agree
    # with the dense raster and final tick.
    for engine in ENGINE_PATHS:
        if engine == "dense":
            continue
        other = replay_sssp(net, ids, source, horizon, engine)
        assert _raster_of(other) == raster, f"{name}: {engine} raster drift"
        assert other.final_tick == sim.final_tick, f"{name}: {engine}"
    return {
        "schema": SCHEMA,
        "name": name,
        "algorithm": "sssp_pseudo",
        "graph": _graph_payload(g),
        "source": source,
        "dist": r.dist.tolist(),
        "cost": _cost_payload(r.cost),
        "engines": list(ENGINE_PATHS),
        "final_tick": sim.final_tick,
        "raster": raster,
        "budgets": _budget_payload(g, 3),
    }


def khop_fixture(name: str, g: WeightedDigraph, source: int, k: int) -> dict:
    r = spiking_khop_poly(g, source, k)
    return {
        "schema": SCHEMA,
        "name": name,
        "algorithm": "khop_poly",
        "graph": _graph_payload(g),
        "source": source,
        "k": k,
        "dist": r.dist.tolist(),
        "cost": _cost_payload(r.cost),
        "budgets": _budget_payload(g, k),
    }


def build_fixtures() -> dict:
    small = WeightedDigraph(6, SMALL_EDGES)
    gnp = gnp_graph(12, 0.25, max_length=5, seed=3, ensure_source_reaches=True)
    return {
        "sssp_small.json": sssp_fixture("sssp_small", small, source=0),
        "sssp_gnp12.json": sssp_fixture("sssp_gnp12", gnp, source=0),
        "khop_poly_gnp12.json": khop_fixture("khop_poly_gnp12", gnp, source=0, k=3),
    }


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for fname, payload in build_fixtures().items():
        path = GOLDEN_DIR / fname
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
