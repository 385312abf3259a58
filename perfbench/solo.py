"""Program process of the solo workloads.

``python3 perfbench/solo.py --workload sssp_chain --seed 1 --seconds 20
--trace 0 --sources 3,17,...`` runs SSSP queries one after another through
the public request path — ``plan_request``, ``simulate``
(``engine="auto"``), ``plan.decode`` — for ``--seconds`` and at least as
many queries as the workload's tail percentile needs.  The time is split
into rounds that each start by timing the resident build on an empty
build cache (``setup_s``).  It prints one JSON document with the timings and a
digest of every answer; the parent checks the answers and reads this
process's peak memory from outside.

With ``--trace 1`` odd-numbered queries are traced (a timer around each
layer call and counting engine hooks) and even ones are not, so both see
the same conditions; the cold builds also time the sparse compile, lint
and temporal analysis of each fresh network, and the leading queries go
through the engine matrix and the batch probe.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Any, Dict, List

from common import array_digest, digest, min_samples, p50
from layers import CountingHooks, batch_probe, engine_matrix, plan_items, resident_probes
from repro.core import default_build_cache, simulate
from repro.service import QueryRequest, plan_request
from workloads import MATRIX_QUERIES, SOLO_SOURCES, WORKLOADS, solo_graph

#: Rounds per run, each opening with a cold resident build; setup_s is
#: the median build.
ROUNDS = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--sources", required=True)
    args = ap.parse_args()
    sources = [int(s) for s in args.sources.split(",")]
    requests = [QueryRequest(kind="sssp", graph_id="g", source=s) for s in sources]
    out: Dict[str, Any] = {}

    # Cold builds are spread over the run so that their median samples
    # the whole run rather than its first second.
    setup: List[float] = []
    probes: List[Dict[str, float]] = []
    need = min_samples(WORKLOADS[args.workload].tail_pct)
    latencies: List[float] = []
    traced: List[float] = []
    untraced: List[float] = []
    plan_s: List[float] = []
    decode_s: List[float] = []
    answers: List[List[Any]] = []
    busy = 0.0
    i = 0
    for r in range(ROUNDS):
        graphs = {"g": solo_graph(args.workload, args.seed)}  # fresh: nothing memoized
        default_build_cache.clear()
        t0 = time.perf_counter()
        plan = plan_request(requests[0], graphs, {})
        setup.append(time.perf_counter() - t0)
        if args.trace:
            probes.append(resident_probes([plan.network]))
        start = time.perf_counter()
        last = r == ROUNDS - 1
        while time.perf_counter() - start < args.seconds / ROUNDS or (last and i < need):
            request = requests[i % len(requests)]
            if args.trace and i % 2:
                t0 = time.perf_counter()
                plan = plan_request(request, graphs, {})
                t1 = time.perf_counter()
                hooks = CountingHooks()
                res = simulate(plan.network, plan.stimuli[0], hooks=hooks, **plan.sim_kwargs)
                t2 = time.perf_counter()
                answer = plan.decode([res])
                t3 = time.perf_counter()
                traced.append(t3 - t0)
                plan_s.append(t1 - t0)
                decode_s.append(t3 - t2)
                busy += t3 - t0
            else:
                t0 = time.perf_counter()
                plan = plan_request(request, graphs, {})
                res = simulate(plan.network, plan.stimuli[0], **plan.sim_kwargs)
                answer = plan.decode([res])
                t1 = time.perf_counter()
                (untraced if args.trace else latencies).append(t1 - t0)
                busy += t1 - t0
            answers.append([request.source, array_digest(answer["dist"])])
            i += 1
    out["setup_s"] = setup
    out["latencies"] = latencies
    # One closed-loop caller: completed queries per second of query time.
    out["throughput_qps"] = len(answers) / busy
    out["answers"] = answers
    out["digest"] = digest(answers[:SOLO_SOURCES])

    if args.trace:
        stats = default_build_cache.stats()
        plans = [plan_request(r, graphs, {}) for r in requests[:MATRIX_QUERIES]]
        items = plan_items(plans)
        layers, problems = engine_matrix(items)
        layers.update(batch_probe(items))
        layers.update(
            {
                "plan.plan_s": p50(plan_s),
                "algorithms.decode_s": p50(decode_s),
                "core.network.compile_s": p50(setup),
                "core.sparse.compile_s": p50([p["sparse_s"] for p in probes]),
                "staticcheck.lint_s": p50([p["lint_s"] for p in probes]),
                "staticcheck.temporal_s": p50([p["temporal_s"] for p in probes]),
                "core.cache.hits": stats["hits"],
                "core.cache.misses": stats["misses"],
                "core.cache.hit_ratio": stats["hits"] / max(1, stats["hits"] + stats["misses"]),
                "trace.traced_p50_s": p50(traced),
                "trace.untraced_p50_s": p50(untraced),
            }
        )
        out["layers"] = layers
        out["problems"] = problems
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
