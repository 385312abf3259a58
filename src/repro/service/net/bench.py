"""Socket load generation and the pool-tier benchmark rows.

Two benchmarks share the ``BENCH_serving.json`` artifact written by
``repro loadgen --net``:

- :func:`run_net_loadgen` drives the deterministic mixed workload of
  :func:`~repro.service.loadgen.generate_requests` **over a real socket**
  against a running :class:`~repro.service.net.server.NetServer`:
  ``connections`` client threads each pipeline ``depth`` requests over one
  multiplexed connection, and every wire answer is optionally verified
  against a solo in-process run of the same query — the socket hop, the
  JSON round trip, and the server's batching must not change a single
  distance.
- :func:`run_pool_comparison` serves one CPU-bound all-pairs workload
  three ways — thread-pool workers, process-pool workers, and the sharded
  fixpoint router — and reports one row per tier (wall, throughput,
  p50/p99) plus the process-vs-thread speedup.  The thread and process
  rows are the median of ``POOL_TRIALS`` interleaved trials on warmed
  pools.  The rows answer the question the process tier exists for: with
  real CPUs, batched simulation in worker processes sidesteps the GIL
  that makes thread workers serialize.  ``cpu_count`` is recorded because
  the speedup is machine-dependent — on a single-CPU container the process
  tier can only add overhead, which is why CI gates its ≥2x assertion on
  ``cpu_count``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.service.adapters import execute_solo, plan_request
from repro.service.loadgen import _percentile, generate_requests
from repro.service.net.client import NetClient
from repro.service.net.procpool import ProcessWorkerPool
from repro.service.schema import QueryRequest, QueryResult, request_to_dict
from repro.service.server import QueryServer
from repro.workloads.graph import WeightedDigraph

__all__ = ["run_net_loadgen", "run_pool_comparison", "NET_BENCH_SCHEMA"]

NET_BENCH_SCHEMA = "repro.serving.netbench/v1"


def run_net_loadgen(
    host: str,
    port: int,
    graphs: Mapping[str, WeightedDigraph],
    *,
    n_requests: int = 200,
    connections: int = 4,
    depth: int = 16,
    seed: int = 0,
    mix: Optional[Mapping[str, float]] = None,
    timeout_s: float = 120.0,
    verify: bool = True,
) -> Dict[str, object]:
    """Drive the seeded workload over a socket; report wire-level serving.

    ``graphs`` must be the same residents (same ids, same graphs) the
    target server registered — the workload generator draws sources from
    them, and with ``verify`` each wire answer is compared against a solo
    in-process run on the local copy.
    """
    if connections < 1:
        raise ValidationError(f"connections must be >= 1, got {connections}")
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    requests = generate_requests(graphs, n_requests, seed=seed, mix=mix)
    docs = [request_to_dict(r) for r in requests]

    results: List[Optional[Dict[str, Any]]] = [None] * len(docs)
    latencies: List[float] = [0.0] * len(docs)
    errors: List[str] = []
    cursor = [0]
    lock = threading.Lock()
    t_start = time.monotonic()

    def client() -> None:
        with NetClient(host, port) as conn:
            window: List[Tuple[int, str, float]] = []  # (index, rid, t_submit)
            while True:
                while len(window) < depth:
                    with lock:
                        i = cursor[0]
                        if i >= len(docs):
                            break
                        cursor[0] += 1
                    window.append((i, conn.submit(docs[i]), time.monotonic()))
                if not window:
                    return
                i, rid, t0 = window.pop(0)
                try:
                    results[i] = conn.result(rid, timeout_s=timeout_s)
                except (TimeoutError, ConnectionError) as exc:
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                latencies[i] = time.monotonic() - t0

    threads = [
        threading.Thread(target=client, name=f"net-loadgen-{c}", daemon=True)
        for c in range(connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.monotonic() - t_start

    answered = [r for r in results if r is not None]
    n_ok = sum(1 for r in answered if r.get("status") == "ok")
    statuses: Dict[str, int] = {}
    for r in results:
        key = str(r.get("status", "?")) if r is not None else "lost"
        statuses[key] = statuses.get(key, 0) + 1
    batch_sizes = [int(r.get("batch_size", 0)) for r in answered]
    coalesced = sum(1 for b in batch_sizes if b > 1)

    mismatches = 0
    if verify:
        graphs_d = dict(graphs)
        for req, r in zip(requests, results):
            if r is None or r.get("status") != "ok":
                mismatches += 1
                continue
            solo = execute_solo(plan_request(req, graphs_d, {}))
            if not _wire_equal(r, solo):
                mismatches += 1

    return {
        "target": f"{host}:{port}",
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(len(docs) / wall_s, 3) if wall_s > 0 else None,
        "latency_p50_s": round(_percentile(latencies, 0.50), 6),
        "latency_p99_s": round(_percentile(latencies, 0.99), 6),
        "requests": len(docs),
        "connections": connections,
        "depth": depth,
        "ok": n_ok,
        "errors": len(docs) - n_ok,
        "lost": sum(1 for r in results if r is None),
        "transport_errors": errors[:8],
        "statuses": statuses,
        "coalesced_answers": coalesced,
        "mean_batch_size": round(float(np.mean(batch_sizes)), 3)
        if batch_sizes
        else 0.0,
        "equality": {"checked": bool(verify), "mismatches": mismatches},
    }


def _wire_equal(payload: Mapping[str, Any], solo: Mapping[str, Any]) -> bool:
    """Does a wire answer equal its solo twin (post-JSON resolution)?"""
    dist = solo.get("dist")
    if dist is not None and payload.get("dist") != [int(x) for x in dist]:
        return False
    matrix = solo.get("matrix")
    if matrix is not None and payload.get("matrix") != [
        [int(x) for x in row] for row in matrix
    ]:
        return False
    outputs = solo.get("outputs")
    if outputs is not None and payload.get("outputs") != dict(outputs):
        return False
    return True


# --------------------------------------------------------------------- #
# Pool-tier comparison rows
# --------------------------------------------------------------------- #


def _apsp_requests(
    graph: WeightedDigraph, n_sources: int, slice_width: int
) -> List[QueryRequest]:
    """The CPU-bound workload: apsp slices covering ``n_sources`` sources."""
    sources = list(range(min(n_sources, graph.n)))
    return [
        QueryRequest(
            kind="apsp",
            graph_id="g",
            sources=tuple(sources[i : i + slice_width]),
        )
        for i in range(0, len(sources), slice_width)
    ]


#: Timed thread/process trial pairs behind each pool-comparison row.
POOL_TRIALS = 3


def _median_row(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """The trial row with the median wall time (``rows`` has odd length)."""
    ordered = sorted(rows, key=lambda r: float(r["wall_s"]))  # type: ignore[arg-type]
    return dict(ordered[len(ordered) // 2], trials=len(rows))


def _serve_row(
    requests: List[QueryRequest],
    make_server: Callable[[], QueryServer],
    register: Callable[[QueryServer], None],
    *,
    timeout_s: float,
) -> Tuple[List[QueryResult], Dict[str, object]]:
    """Serve one workload on a fresh server; return results + the row."""
    server = make_server()
    register(server)
    latencies: List[float] = []
    t0 = time.monotonic()
    with server:
        tickets = []
        for req in requests:
            tickets.append((server.submit(req), time.monotonic()))
        results = []
        for ticket, t_sub in tickets:
            results.append(ticket.result(timeout_s))
            latencies.append(time.monotonic() - t_sub)
    wall_s = time.monotonic() - t0
    row: Dict[str, object] = {
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(len(requests) / wall_s, 3) if wall_s > 0 else None,
        "latency_p50_s": round(_percentile(latencies, 0.50), 6),
        "latency_p99_s": round(_percentile(latencies, 0.99), 6),
        "requests": len(requests),
        "ok": sum(1 for r in results if r.ok),
    }
    return results, row


def run_pool_comparison(
    *,
    graph: Optional[WeightedDigraph] = None,
    n_sources: int = 24,
    slice_width: int = 4,
    workers: int = 2,
    process_workers: Optional[int] = None,
    shards: int = 4,
    seed: int = 7,
    timeout_s: float = 300.0,
    verify: bool = True,
) -> Dict[str, object]:
    """Thread-pool vs process-pool vs sharded rows on one all-pairs workload.

    All three tiers must produce exactly the same distances (checked
    against each other row-by-row with ``verify``); the rows differ only
    in wall clock.  The process row reuses the thread row's requests
    verbatim; the sharded row serves the same sources as single-source
    queries through the fixpoint router, since that is the shape the
    shard tier serves.
    """
    if process_workers is None:
        # Threads serialize on the GIL regardless of worker count, so the
        # thread row is a fixed baseline; the process tier should get the
        # machine's actual parallelism (bounded — spawn cost is real).
        process_workers = max(2, min(4, os.cpu_count() or 1))
    if graph is None:
        from repro.workloads import gnp_graph

        graph = gnp_graph(192, 0.035, max_length=9, seed=seed)
    n_sources = min(n_sources, graph.n)
    apsp = _apsp_requests(graph, n_sources, slice_width)
    sssp = [
        QueryRequest(kind="sssp", graph_id="g", source=s) for s in range(n_sources)
    ]

    def fresh(pool: Optional[ProcessWorkerPool]) -> Callable[[], QueryServer]:
        return lambda: QueryServer(
            workers=workers,
            max_batch=max(4, slice_width),
            linger_s=0.005,
            result_cache_size=0,
            process_pool=pool,
        )

    def register_plain(server: QueryServer) -> None:
        server.register_graph("g", graph)

    def register_sharded(server: QueryServer) -> None:
        server.register_sharded_graph("g", graph, shards)

    pool = ProcessWorkerPool(workers=process_workers)
    try:
        # Untimed warmups: process spawn (interpreter + imports), the
        # one-time network handoff and first-use caches on either side must
        # not be billed to a timed row.
        _serve_row(apsp[:1], fresh(None), register_plain, timeout_s=timeout_s)
        _serve_row(apsp[:1], fresh(pool), register_plain, timeout_s=timeout_s)
        # Interleaved trials: load drift on a shared machine hits both
        # tiers alike, and the median row shrugs off one noisy trial.
        thread_rows: List[Dict[str, object]] = []
        proc_rows: List[Dict[str, object]] = []
        for _ in range(POOL_TRIALS):
            thread_results, row = _serve_row(
                apsp, fresh(None), register_plain, timeout_s=timeout_s
            )
            thread_rows.append(row)
            proc_results, row = _serve_row(
                apsp, fresh(pool), register_plain, timeout_s=timeout_s
            )
            proc_rows.append(row)
        thread_row, proc_row = _median_row(thread_rows), _median_row(proc_rows)
        shard_results, shard_row = _serve_row(
            sssp, fresh(pool), register_sharded, timeout_s=timeout_s
        )
        pool_stats = pool.stats()
    finally:
        pool.close()

    thread_wall = float(thread_row["wall_s"])  # type: ignore[arg-type]
    proc_wall = float(proc_row["wall_s"])  # type: ignore[arg-type]
    proc_row["speedup_vs_thread"] = (
        round(thread_wall / proc_wall, 3) if proc_wall > 0 else None
    )
    shard_row["shards"] = shards
    proc_row["process_workers"] = process_workers
    thread_row["workers"] = workers

    mismatches = 0
    if verify:
        by_source: Dict[int, np.ndarray] = {}
        for req, res in zip(apsp, thread_results):
            assert res.matrix is not None and req.sources is not None
            for j, s in enumerate(req.sources):
                by_source[int(s)] = res.matrix[j]
        for req, res in zip(apsp, proc_results):
            if res.matrix is None:
                mismatches += 1
                continue
            for j, s in enumerate(req.sources or ()):
                if not np.array_equal(res.matrix[j], by_source[int(s)]):
                    mismatches += 1
        for req, res in zip(sssp, shard_results):
            if res.dist is None or not np.array_equal(
                res.dist, by_source[int(req.source or 0)]
            ):
                mismatches += 1

    return {
        "schema": NET_BENCH_SCHEMA,
        "cpu_count": os.cpu_count(),
        "workload": {
            "graph": {"n": graph.n, "m": graph.m},
            "n_sources": n_sources,
            "slice_width": slice_width,
            "seed": seed,
        },
        "rows": {
            "thread_pool": thread_row,
            "process_pool": proc_row,
            "sharded": shard_row,
        },
        "process_pool_stats": pool_stats,
        "equality": {"checked": bool(verify), "mismatches": mismatches},
    }
