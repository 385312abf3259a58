"""Closed-loop load generator and serving benchmark.

:func:`run_loadgen` drives a mixed SSSP / k-hop / all-pairs-slice workload
through a :class:`~repro.service.server.QueryServer` with a pool of
closed-loop client threads (each submits, blocks for the answer, submits
the next; an optional ``rate`` switches to open-loop pacing against a
precomputed arrival schedule), then replays the *same* requests through
the naive one-request-one-simulation loop
(:func:`~repro.service.adapters.execute_solo`) and reports both sides:
throughput, p50/p99 latency, mean micro-batch occupancy, coalesced batch
count, and the speedup.  Every served answer is checked for exact equality
(distances, matrices, outputs, cost totals, spike counts) against its
naive twin — a throughput number from a server returning different answers
would be meaningless.

The workload is deterministic in ``seed``: same seed, same graphs, same
request sequence.  The benchmark server runs with its result cache
disabled so the comparison isolates coalescing; enable it separately to
measure cache effects.

The report is the ``BENCH_serving.json`` artifact
(schema ``repro.serving.bench/v1``) emitted by ``repro loadgen``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ServiceOverloadedError, ValidationError
from repro.service.adapters import execute_solo, plan_request
from repro.service.schema import QueryRequest, QueryResult, fault_from_spec
from repro.service.server import QueryServer
from repro.telemetry import percentile
from repro.workloads.graph import WeightedDigraph

__all__ = ["generate_requests", "run_loadgen", "results_equal", "DEFAULT_MIX"]

BENCH_SCHEMA = "repro.serving.bench/v1"

#: Default query mix (relative weights; apsp slices are intentionally rare
#: because each one occupies several batch items).
DEFAULT_MIX: Dict[str, float] = {"sssp": 0.6, "khop": 0.3, "apsp": 0.1}


def generate_requests(
    graphs: Mapping[str, WeightedDigraph],
    n_requests: int,
    *,
    seed: int = 0,
    mix: Optional[Mapping[str, float]] = None,
    fault_spec: Optional[Mapping[str, object]] = None,
    deadline_s: Optional[float] = None,
) -> List[QueryRequest]:
    """A deterministic mixed workload over the registered graphs.

    Sources (and k values, and apsp slice sizes) are drawn from a seeded
    generator, so two calls with the same arguments produce the same query
    sequence — the property the served-vs-naive comparison relies on.
    """
    if not graphs:
        raise ValidationError("loadgen requires at least one registered graph")
    mix = dict(mix or DEFAULT_MIX)
    unknown = set(mix) - {"sssp", "khop", "apsp"}
    if unknown:
        raise ValidationError(f"unknown mix kinds: {sorted(unknown)}")
    kinds = sorted(k for k, w in mix.items() if w > 0)
    if not kinds:
        raise ValidationError("query mix has no positive weights")
    weights = np.array([mix[k] for k in kinds], dtype=float)
    weights /= weights.sum()

    rng = np.random.default_rng(seed)
    ids = sorted(graphs)
    requests: List[QueryRequest] = []
    for _ in range(n_requests):
        gid = ids[int(rng.integers(len(ids)))]
        g = graphs[gid]
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        faults = fault_from_spec(fault_spec) if fault_spec else None
        if kind == "sssp":
            req = QueryRequest(
                kind="sssp",
                graph_id=gid,
                source=int(rng.integers(g.n)),
                faults=faults,
                deadline_s=deadline_s,
            )
        elif kind == "khop":
            # k comes from a small tier set: the hop bound is part of the
            # batch key, so a workload with arbitrary k never coalesces its
            # khop queries — tiered bounds model real services and batch well
            k = int(rng.choice([4, 8, 16]))
            req = QueryRequest(
                kind="khop",
                graph_id=gid,
                source=int(rng.integers(g.n)),
                k=max(1, min(k, g.n - 1)),
                faults=faults,
                deadline_s=deadline_s,
            )
        else:
            width = int(rng.integers(2, max(3, min(6, g.n) + 1)))
            sources = tuple(
                int(s) for s in rng.choice(g.n, size=min(width, g.n), replace=False)
            )
            req = QueryRequest(
                kind="apsp",
                graph_id=gid,
                sources=sources,
                faults=faults,
                deadline_s=deadline_s,
            )
        requests.append(req)
    return requests


def results_equal(served: QueryResult, naive: Dict[str, Any]) -> bool:
    """Exact equality of a served answer and its solo-run twin.

    Arrays compare element-wise (``inf`` positions included), circuit
    outputs compare as dicts, and the cost report must agree on total time
    and spike count — the quantities a coalesced run could plausibly
    corrupt.  Raw per-item engine results compare on first-spike vectors
    and spike counts, i.e. the full raster at first-spike resolution.
    """
    if not served.ok:
        return False
    if served.dist is not None and not np.array_equal(served.dist, naive.get("dist")):
        return False
    if served.matrix is not None and not np.array_equal(
        served.matrix, naive.get("matrix")
    ):
        return False
    if served.outputs is not None and served.outputs != naive.get("outputs"):
        return False
    c0, c1 = served.cost, naive.get("cost")
    if (c0 is None) != (c1 is None):
        return False
    if c0 is not None and (
        c0.total_time != c1.total_time or c0.spike_count != c1.spike_count
    ):
        return False
    sims0, sims1 = served.sims, naive.get("sims")
    if sims0 is not None and sims1 is not None:
        if len(sims0) != len(sims1):
            return False
        for r0, r1 in zip(sims0, sims1):
            if (
                r0.final_tick != r1.final_tick
                or r0.stop_reason is not r1.stop_reason
                or not np.array_equal(r0.first_spike, r1.first_spike)
                or not np.array_equal(r0.spike_counts, r1.spike_counts)
            ):
                return False
    return True


def _drive_clients(
    server: QueryServer,
    requests: List[QueryRequest],
    *,
    clients: int,
    depth: int,
    rate: Optional[float],
    max_retries: int,
) -> Tuple[List[Optional[QueryResult]], List[float], int, float]:
    """Run the serving side; returns (results, latencies, retries, wall).

    Each client thread keeps up to ``depth`` requests outstanding (an
    async client pipelining over one connection), so total in-flight work
    is ``clients * depth`` without paying for that many OS threads.
    """
    results: List[Optional[QueryResult]] = [None] * len(requests)
    latencies: List[float] = [0.0] * len(requests)
    retries = [0]
    cursor = [0]
    lock = threading.Lock()
    t_start = time.monotonic()
    # open-loop pacing: request i may not be submitted before schedule[i]
    schedule = None if rate is None else [t_start + i / rate for i in range(len(requests))]

    def submit_one(i: int):
        if schedule is not None:
            delay = schedule[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        t0 = time.monotonic()
        attempt = 0
        while True:
            try:
                return server.submit(requests[i]), t0
            except ServiceOverloadedError as exc:
                attempt += 1
                with lock:
                    retries[0] += 1
                if attempt > max_retries:
                    raise
                time.sleep(max(exc.retry_after_s, 0.001))

    def client() -> None:
        window: List[Tuple[int, Any, float]] = []  # (index, ticket, t_submit)
        while True:
            while len(window) < depth:
                with lock:
                    i = cursor[0]
                    if i >= len(requests):
                        break
                    cursor[0] += 1
                window.append((i, *submit_one(i)))
            if not window:
                return
            i, ticket, t0 = window.pop(0)
            results[i] = ticket.result(timeout=120.0)
            latencies[i] = time.monotonic() - t0

    threads = [
        threading.Thread(target=client, name=f"loadgen-client-{c}", daemon=True)
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, latencies, retries[0], time.monotonic() - t_start


def run_loadgen(
    graphs: Mapping[str, WeightedDigraph],
    *,
    n_requests: int = 200,
    clients: int = 8,
    depth: int = 32,
    workers: int = 1,
    max_batch: int = 64,
    linger_s: float = 0.02,
    queue_limit: int = 1024,
    rate: Optional[float] = None,
    seed: int = 0,
    mix: Optional[Mapping[str, float]] = None,
    fault_spec: Optional[Mapping[str, object]] = None,
    deadline_s: Optional[float] = None,
    max_retries: int = 50,
    verify: bool = True,
    skip_naive: bool = False,
) -> Dict[str, object]:
    """Benchmark coalesced serving against the naive sequential loop.

    Returns the ``repro.serving.bench/v1`` report.  ``skip_naive`` omits
    the baseline (and the speedup) for quick smoke runs; ``verify=False``
    skips the per-request equality check (it re-simulates every request
    solo, so it is exactly as expensive as the baseline).

    The defaults are tuned for throughput on a single hot workload:
    ``clients * depth`` (256) requests in flight keeps batches near
    ``max_batch``, and a **single** worker, counter-intuitively, beats two
    here — a second worker splits a hot batch key's queue into half-size
    batches, lowering occupancy and with it the amortization win.
    """
    if clients < 1:
        raise ValidationError(f"clients must be >= 1, got {clients}")
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    requests = generate_requests(
        graphs,
        n_requests,
        seed=seed,
        mix=mix,
        fault_spec=fault_spec,
        deadline_s=deadline_s,
    )

    server = QueryServer(
        workers=workers,
        max_batch=max_batch,
        linger_s=linger_s,
        queue_limit=queue_limit,
        result_cache_size=0,  # isolate coalescing; no answers from cache
    )
    for gid, g in graphs.items():
        server.register_graph(gid, g)
    with server:
        results, latencies, retries, serve_wall = _drive_clients(
            server,
            requests,
            clients=clients,
            depth=depth,
            rate=rate,
            max_retries=max_retries,
        )
    stats = server.stats()
    metrics = stats["metrics"]
    batch_hist = metrics["histograms"].get("service.batch.items", {})

    statuses = [r.status.value for r in results if r is not None]
    n_ok = sum(1 for r in results if r is not None and r.ok)
    n_err = len(requests) - n_ok

    # Per-query-kind latency/error breakdown: a mixed workload's aggregate
    # p99 hides which kind is slow or failing.
    per_kind: Dict[str, Dict[str, object]] = {}
    for kind in sorted({req.kind for req in requests}):
        idx = [i for i, req in enumerate(requests) if req.kind == kind]
        lats = [latencies[i] for i in idx if results[i] is not None]
        kind_ok = sum(1 for i in idx if results[i] is not None and results[i].ok)
        error_codes: Dict[str, int] = {}
        for i in idx:
            r = results[i]
            if r is None or r.ok:
                continue
            code = r.error_code or "UNKNOWN"
            error_codes[code] = error_codes.get(code, 0) + 1
        per_kind[kind] = {
            "requests": len(idx),
            "ok": kind_ok,
            "errors": len(idx) - kind_ok,
            "error_codes": error_codes,
            "latency_p50_s": round(percentile(lats, 0.50), 6),
            "latency_p99_s": round(percentile(lats, 0.99), 6),
        }

    mismatches = 0
    naive_report: Optional[Dict[str, object]] = None
    speedup: Optional[float] = None
    if not skip_naive or verify:
        # one plan+solo execution per request — the baseline and the oracle
        naive_lat: List[float] = []
        t0 = time.monotonic()
        solo_answers: List[Dict[str, Any]] = []
        graphs_d = dict(graphs)
        for req in requests:
            t1 = time.monotonic()
            solo_answers.append(execute_solo(plan_request(req, graphs_d, {})))
            naive_lat.append(time.monotonic() - t1)
        naive_wall = time.monotonic() - t0
        if not skip_naive:
            naive_report = {
                "wall_s": round(naive_wall, 6),
                "throughput_rps": round(len(requests) / naive_wall, 3)
                if naive_wall > 0
                else None,
                "latency_p50_s": round(percentile(naive_lat, 0.50), 6),
                "latency_p99_s": round(percentile(naive_lat, 0.99), 6),
            }
            if naive_wall > 0 and serve_wall > 0:
                speedup = round(naive_wall / serve_wall, 3)
        if verify:
            for r, solo in zip(results, solo_answers):
                if r is None or not results_equal(r, solo):
                    mismatches += 1

    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "config": {
            "n_requests": len(requests),
            "clients": clients,
            "depth": depth,
            "workers": workers,
            "max_batch": max_batch,
            "linger_s": linger_s,
            "queue_limit": queue_limit,
            "rate_rps": rate,
            "seed": seed,
            "mix": dict(mix or DEFAULT_MIX),
            "fault_spec": dict(fault_spec) if fault_spec else None,
            "graphs": {gid: {"n": g.n, "m": g.m} for gid, g in sorted(graphs.items())},
        },
        "serving": {
            "wall_s": round(serve_wall, 6),
            "throughput_rps": round(len(requests) / serve_wall, 3)
            if serve_wall > 0
            else None,
            "latency_p50_s": round(percentile(latencies, 0.50), 6),
            "latency_p99_s": round(percentile(latencies, 0.99), 6),
            "batches": int(metrics["counters"].get("service.batches", 0)),
            "coalesced_batches": int(
                metrics["counters"].get("service.batches.coalesced", 0)
            ),
            "mean_batch_occupancy": round(float(batch_hist.get("mean", 0.0)), 3),
            "max_batch_occupancy": int(batch_hist.get("max", 0)),
            "ok": n_ok,
            "errors": n_err,
            "overload_retries": retries,
            "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
            "per_kind": per_kind,
        },
        "naive": naive_report,
        "speedup": speedup,
        "equality": {"checked": bool(verify), "mismatches": mismatches},
    }
    return report
