"""Per-layer probes for the traced run, timed from outside each layer.

Every probe calls one public function of the program and times that call
(spans inside the program are not assumed).  Counts come through a public
``EngineHooks`` subclass.  The same probes serve the solo workloads (in
the process that runs the queries) and the serving workloads (in the
benchmark process, on local copies of the server's residents, after the
server has stopped).
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import common  # noqa: F401  (puts src/ on sys.path)
from common import p50
from repro.core import simulate, simulate_batch, simulate_dense, sparse_compile
from repro.service import QueryServer
from repro.staticcheck import analyze_temporal, lint_network
from repro.telemetry.hooks import EngineHooks

#: Engines ``simulate`` can be forced onto; each is also a name it can
#: report in ``on_run_start`` and gets a ``sim.engine.<name>`` count.
ENGINES = ("dense", "event", "sparse")
SIM_COUNTS = ("ticks", "active_ticks", "spikes", "deliveries")


class CountingHooks(EngineHooks):
    """Totals of one run: final tick, active ticks, spikes, deliveries."""

    def __init__(self) -> None:
        self.counts = {name: 0 for name in SIM_COUNTS}
        self.engines: Dict[str, int] = {}
        self.stop_reason: object = None

    def on_run_start(self, n_neurons: int, max_steps: int, engine: str) -> None:
        self.engines[engine] = self.engines.get(engine, 0) + 1

    def on_spikes(self, tick: int, ids: np.ndarray) -> None:
        self.counts["active_ticks"] += 1
        self.counts["spikes"] += int(len(ids))

    def on_deliveries(self, tick: int, scheduled: int, dropped: int) -> None:
        self.counts["deliveries"] += int(scheduled)

    def on_stop(self, tick: int, reason: object, diagnostic: object = None) -> None:
        self.counts["ticks"] += int(tick)
        self.stop_reason = reason


def same_counts(a: CountingHooks, b: CountingHooks) -> bool:
    """Do two runs of one stimulus report the same simulated counts?

    Exact, except for the one documented difference in stop metadata: on
    a quiescent stop the event engine reports the last event's tick while
    the dense-semantics engines need one more quiet tick to observe
    quiescence (see ``assert_same_raster_upto`` in the differential
    harness), so an event run's final tick may be exactly one lower.
    """
    if a.counts == b.counts:
        return True
    event, other = (a, b) if "event" in a.engines else (b, a)
    return (
        "event" in event.engines
        and all(a.counts[k] == b.counts[k] for k in SIM_COUNTS if k != "ticks")
        and other.counts["ticks"] - event.counts["ticks"] == 1
        and _is_quiescent(event.stop_reason)
        and _is_quiescent(other.stop_reason)
    )


def _is_quiescent(reason: object) -> bool:
    return getattr(reason, "value", reason) == "quiescent"


#: One simulation item: (network, stimulus, keyword arguments of simulate).
Item = Tuple[Any, Any, Dict[str, Any]]


def plan_items(plans: Sequence[Any]) -> List[Item]:
    """Every batch item of the given ``RequestPlan`` objects."""
    return [(p.network, stim, p.sim_kwargs) for p in plans for stim in p.stimuli]


def resident_probes(networks: Sequence[Any]) -> Dict[str, float]:
    """Sparse compile, lint and temporal analysis of freshly built networks.

    Pass networks straight from a cold build: ``sparse_compile`` memoizes
    on the compiled network, so a second call would time a lookup.  Lint
    and temporal analysis run the way ``QueryServer`` admission runs them
    (structural lint; every neuron stimulated at tick 0).
    """
    out = {"sparse_s": 0.0, "lint_s": 0.0, "temporal_s": 0.0}
    for net in networks:
        compiled = net.compile()
        t0 = time.perf_counter()
        sparse_compile(compiled)
        t1 = time.perf_counter()
        lint_network(compiled, subject="resident")
        t2 = time.perf_counter()
        analyze_temporal(compiled, stimulus=list(range(compiled.n)))
        t3 = time.perf_counter()
        out["sparse_s"] += t1 - t0
        out["lint_s"] += t2 - t1
        out["temporal_s"] += t3 - t2
    return out


def engine_matrix(items: Sequence[Item]) -> Tuple[Dict[str, Any], List[str]]:
    """Run each item on auto and every forced engine; compare them.

    Returns the per-layer values and a list of disagreements.  Forced
    engines must reproduce auto's first-spike vector and every simulated
    count exactly; a simulator-only speed-up must leave them identical.
    """
    times: Dict[str, List[float]] = {e: [] for e in ("auto",) + ENGINES}
    totals = {name: 0 for name in SIM_COUNTS}
    engines: Dict[str, int] = {}
    problems: List[str] = []
    for net, stim, kwargs in items:
        net.compile(sparse=True)  # time the sparse engine, not its compile
        reference = None
        for engine in ("auto",) + ENGINES:
            hooks = CountingHooks()
            kw = dict(kwargs, engine=engine)
            t0 = time.perf_counter()
            res = simulate(net, stim, hooks=hooks, **kw)
            times[engine].append(time.perf_counter() - t0)
            if reference is None:
                reference = (res.first_spike, hooks)
                for name in SIM_COUNTS:
                    totals[name] += hooks.counts[name]
                for name, k in hooks.engines.items():
                    engines[name] = engines.get(name, 0) + k
                continue
            if not np.array_equal(res.first_spike, reference[0]):
                problems.append(f"{engine} first spikes differ from auto")
            if not same_counts(hooks, reference[1]):
                problems.append(
                    f"{engine} counts {hooks.counts} differ from auto {reference[1].counts}"
                )
    med = {e: p50(v) for e, v in times.items()}
    best = min(med[e] for e in ENGINES)
    auto_total = sum(times["auto"])
    out: Dict[str, Any] = {
        "core.run.simulate_s": med["auto"],
        "core.run.dense_s": med["dense"],
        "core.run.event_s": med["event"],
        "core.run.sparse_s": med["sparse"],
        "core.run.auto_over_best": med["auto"] / best,
        "core.run.us_per_active_tick": 1e6 * auto_total / max(1, totals["active_ticks"]),
        "core.run.us_per_spike": 1e6 * auto_total / max(1, totals["spikes"]),
    }
    for name in SIM_COUNTS:
        out[f"sim.{name}"] = totals[name]
    for name in ENGINES:
        out[f"sim.engine.{name}"] = engines.get(name, 0)
    unknown = set(engines) - set(ENGINES)
    if unknown:
        problems.append(f"unlisted engines reported: {sorted(unknown)}")
    return out, problems


def server_max_batch() -> int:
    """The ``max_batch`` a default-configured ``QueryServer`` coalesces to."""
    return int(inspect.signature(QueryServer).parameters["max_batch"].default)


def batch_probe(items: Sequence[Item], repeats: int = 3) -> Dict[str, float]:
    """Batched dense engine against solo dense on the first item(s).

    ``b1_over_solo`` compares ``simulate_batch(engine="dense")`` at B=1
    with ``simulate_dense`` on the same stimulus (interleaved repeats,
    medians).  ``item_s_at_max_batch`` is the per-item time of one
    ``simulate_batch`` call at the server's ``max_batch``, filled by
    cycling the items.
    """
    net, stim, kwargs = items[0]
    kw = {k: v for k, v in kwargs.items() if k not in ("engine", "watchdog")}
    b1: List[float] = []
    solo: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate_batch(net, [stim], engine="dense", **kw)
        t1 = time.perf_counter()
        simulate_dense(net, stim, **kw)
        t2 = time.perf_counter()
        b1.append(t1 - t0)
        solo.append(t2 - t1)
    width = server_max_batch()
    same = [it for it in items if it[0] is net and it[2] == kwargs]
    stimuli = [same[i % len(same)][1] for i in range(width)]
    t0 = time.perf_counter()
    simulate_batch(net, stimuli, engine="dense", **kw)
    full = time.perf_counter() - t0
    return {
        "core.batch.b1_s": p50(b1),
        "core.batch.solo_s": p50(solo),
        "core.batch.b1_over_solo": p50(b1) / p50(solo),
        "core.batch.item_s_at_max_batch": full / width,
        "core.batch.max_batch": width,
    }


def serving_layers(
    graphs: Dict[str, Any], warm_docs: Sequence[Dict[str, Any]]
) -> Tuple[Dict[str, Any], List[str]]:
    """Layer probes on local copies of a serving workload's graph residents.

    Cold builds plan one sssp and one k-hop query per graph on an empty
    build cache (the two network families a graph resident serves); the
    warm probes plan, simulate and decode the warm-up's graph reads.
    """
    from repro.core import default_build_cache
    from repro.service import QueryRequest, plan_request, request_from_dict

    families = [
        QueryRequest(kind=kind, graph_id=gid, source=0, k=4 if kind == "khop" else None)
        for gid in graphs
        for kind in ("sssp", "khop")
    ]
    compile_s: List[float] = []
    probes: List[Dict[str, float]] = []
    for _ in range(3):
        default_build_cache.clear()
        t0 = time.perf_counter()
        nets = [plan_request(r, graphs, {}).network for r in families]
        compile_s.append(time.perf_counter() - t0)
        probes.append(resident_probes(nets))

    reads = [
        request_from_dict({k: v for k, v in doc.items() if k != "request_id"})
        for doc in warm_docs
        if doc["kind"] in ("sssp", "khop", "apsp")
    ]
    plan_s: List[float] = []
    decode_s: List[float] = []
    plans = []
    for request in reads:
        t0 = time.perf_counter()
        plan = plan_request(request, graphs, {})
        plan_s.append(time.perf_counter() - t0)
        plans.append(plan)
        results = [simulate(plan.network, stim, **plan.sim_kwargs) for stim in plan.stimuli]
        t0 = time.perf_counter()
        plan.decode(results)
        decode_s.append(time.perf_counter() - t0)
    items = plan_items(plans)
    out, problems = engine_matrix(items)
    out.update(batch_probe(items))
    out.update(
        {
            "plan.plan_s": p50(plan_s),
            "algorithms.decode_s": p50(decode_s),
            "core.network.compile_s": p50(compile_s),
            "core.sparse.compile_s": p50([p["sparse_s"] for p in probes]),
            "staticcheck.lint_s": p50([p["lint_s"] for p in probes]),
            "staticcheck.temporal_s": p50([p["temporal_s"] for p in probes]),
        }
    )
    return out, problems
