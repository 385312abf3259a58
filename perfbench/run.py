"""The repo benchmark: one workload, one run, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sssp_chain --seed 1 --seconds 15 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json``; their rationale
sits beside their definitions in ``perfbench/workloads.py``.  The run
generates its inputs from ``--seed``, measures for ``--seconds`` (longer if
the workload's tail percentile needs more samples), checks every answer
against an independent reference, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Human-readable
lines come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program under test runs in a child process whose peak memory is read
from outside it: ``perfbench/solo.py`` for the solo workloads and the
socket server ``perfbench/serve.py`` for the serving workloads, which this
process loads from one thread over at most ``nproc`` connections.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import time
from typing import Any, Dict, List, Optional, Tuple

import common
from common import (
    array_digest,
    check_repeat,
    digest,
    emit,
    mean,
    kill_quietly,
    min_samples,
    note,
    p50,
    percentile,
    reap,
    tail as tail_of,
    spawn,
)
from oracle import GraphOracle, ShadowGraph, check_read
from repro.service import MUTATION_KINDS
from workloads import (
    CLOSED_DEPTH,
    OPEN_RATE,
    OPEN_SHARE,
    SOLO_SOURCES,
    WARMUP_REQUESTS,
    WORKLOADS,
    WRITE_EVERY,
    RequestStream,
    residents,
    solo_graph,
    source_candidates,
)

#: IncrementalRecompiler counters reported as ``dynamic.<name>``.
RECOMPILE_COUNTS = ("weight_patches", "vector_recompiles", "full_builds", "temporal_repropagations")
#: Window over which closed-loop completions are counted.
THROUGHPUT_WINDOW_S = 0.5


# --------------------------------------------------------------------- #
# Solo workloads


Outcome = Tuple[Dict[str, float], Dict[str, Any]]


def run_solo(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    graph = solo_graph(workload, seed)
    oracle = GraphOracle(graph)
    sources: List[int] = []
    for s in source_candidates(workload, seed):
        if int((oracle.sssp(s) >= 0).sum()) >= graph.n // 2:
            sources.append(s)
        if len(sources) == SOLO_SOURCES:
            break
    want = {s: array_digest(oracle.sssp(s)) for s in sources}

    proc = spawn(
        [
            "perfbench/solo.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--sources", ",".join(map(str, sources)),
        ]
    )
    try:
        out = proc.stdout.read()  # type: ignore[union-attr]
        code, rss_mb = reap(proc, timeout_s=170.0)
    finally:
        kill_quietly(proc)
    if code != 0:
        raise RuntimeError(f"solo program process exited with {code}")
    res = json.loads(out.strip().splitlines()[-1])

    wrong = [s for s, d in res["answers"] if d != want[s]]
    problems = list(res.get("problems", []))
    if wrong:
        problems.append(f"{len(wrong)} answers differ from Dijkstra (sources {sorted(set(wrong))})")
    record: Dict[str, Any] = {"digest": res["digest"]}
    if trace:
        record["sim"] = {k: v for k, v in res["layers"].items() if k.startswith("sim.")}
    problems += check_repeat(workload, seed, record)

    lat = res["latencies"]
    tail = WORKLOADS[workload].tail_pct
    values: Dict[str, float] = {}
    if trace:
        values.update(res["layers"])
    else:
        values.update(
            setup_s=p50(res["setup_s"]),
            query_p50_s=p50(lat),
            query_tail_s=tail_of(lat, tail),
            throughput_qps=res["throughput_qps"],
            peak_rss_mb=rss_mb,
        )
        windows = max(1, len(lat) // min_samples(tail))
        note(f"query_tail_s is p{tail} of {len(lat)} queries (lowest of {windows} windows)")
    note(f"answer digest {res['digest']}")
    info = {"attempted": len(res["answers"]), "failed": len(wrong), "problems": problems}
    return values, info


# --------------------------------------------------------------------- #
# Serving workloads


def answer_of(resp: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The parts of a response that must repeat exactly."""
    resp = resp or {}
    keys = ("status", "kind", "dist", "matrix", "outputs", "graph_version", "error_code")
    return {k: resp.get(k) for k in keys}


def start_server(workload: str, seed: int) -> Tuple[subprocess.Popen, Dict[str, Any]]:
    proc = spawn(["perfbench/serve.py", "--workload", workload, "--seed", str(seed)])
    line = proc.stdout.readline()  # type: ignore[union-attr]
    if not line:
        kill_quietly(proc)
        raise RuntimeError("server process exited before listening")
    return proc, json.loads(line)


def stop_server(proc: subprocess.Popen) -> Tuple[Dict[str, Any], float]:
    """SIGTERM (graceful drain), then the server's final stats and peak RSS."""
    proc.send_signal(signal.SIGTERM)
    out = proc.stdout.read()  # type: ignore[union-attr]
    code, rss_mb = reap(proc, timeout_s=60.0)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"server process exited with {code} and no stats")
    return json.loads(lines[-1]), rss_mb


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from layers import serving_layers
    from loadgen import LoadGen

    graphs, _ = residents(workload, seed)
    stream = RequestStream(workload, seed, graphs)
    warm = [next(stream) for _ in range(WARMUP_REQUESTS)]
    connections = min(2, len(os.sched_getaffinity(0)))

    setups: List[float] = []
    digests: List[str] = []
    procs: List[subprocess.Popen] = []
    lg: Optional[Any] = None

    def cold_start() -> Tuple[subprocess.Popen, Any, List[Any]]:
        """Spawn a server, register, warm up; record setup time and digest."""
        t0 = time.perf_counter()
        proc, ready = start_server(workload, seed)
        procs.append(proc)
        client = LoadGen(ready["port"], connections, trace=trace)
        recs = client.sequential(warm, "w")
        setups.append(time.perf_counter() - t0 - ready["gen_s"])
        digests.append(digest([answer_of(rec.response) for rec in recs]))
        return proc, client, recs

    try:
        # Cold starts before and after the timed phases, so the setup
        # median samples the whole run; the load goes to the second one.
        proc, lg, _ = cold_start()
        lg.close()
        stop_server(proc)
        proc, lg, warm_recs = cold_start()
        # Long enough for the tail percentile to have 10 reads beyond it.
        read_share = 1.0 - 1.0 / WRITE_EVERY if workload == "serve_rw" else 1.0
        rate = OPEN_RATE[workload]
        need_s = 1.1 * min_samples(WORKLOADS[workload].tail_pct) / (rate * read_share)
        open_recs = lg.open_loop(stream, rate, max(seconds * OPEN_SHARE, need_s), "o")
        closed_seconds = seconds * (1.0 - OPEN_SHARE)
        closed_recs = lg.closed_loop(stream, CLOSED_DEPTH, closed_seconds, "c")
        frame_errors = lg.frame_errors
        lg.close()
        final, rss_mb = stop_server(proc)
        proc, lg, _ = cold_start()
        lg.close()
        lg = None
        stop_server(proc)
    finally:
        if lg is not None:
            lg.close()
        for p in procs:
            kill_quietly(p)
    stats = final["stats"]

    # Correctness: every response checked against the references.
    records = warm_recs + open_recs + closed_recs
    problems: List[str] = []
    if len(set(digests)) != 1:
        problems.append(f"warm-up answers differ between server starts: {digests}")
    if frame_errors:
        problems.append(f"{frame_errors} unmatched or malformed response frames")
    verdicts: Dict[str, Optional[str]] = {}
    lost = [rec for rec in records if rec.response is None]
    for rec in lost:
        verdicts[rec.rid] = "lost: no response"
    answered = [rec for rec in records if rec.response is not None]
    writes = [rec for rec in answered if rec.doc["kind"] in MUTATION_KINDS]
    reads = [rec for rec in answered if rec.doc["kind"] not in MUTATION_KINDS]
    if workload == "serve_rw":
        shadow = ShadowGraph(graphs["d"], [(rec.doc, rec.response) for rec in writes])
        problems += shadow.errors
        for rec in writes:
            ok = rec.response.get("status") == "ok"
            verdicts[rec.rid] = None if ok else f"write failed: {rec.response.get('error')}"
        for rec, why in zip(reads, shadow.check_reads([(rec.doc, rec.response) for rec in reads])):
            verdicts[rec.rid] = why
    else:
        oracles = {gid: GraphOracle(g) for gid, g in graphs.items()}
        for rec in reads:
            verdicts[rec.rid] = check_read(rec.doc, rec.response, oracles.get(rec.doc["graph_id"]))
    failed = [rid for rid, why in verdicts.items() if why is not None]
    for rid in failed[:5]:
        problems.append(f"{rid}: {verdicts[rid]}")

    # Timings: open-loop latencies from due time to arrival.
    open_answered = [rec for rec in open_recs if rec.response is not None]
    open_reads = [rec for rec in open_answered if rec.doc["kind"] not in MUTATION_KINDS]
    open_writes = [rec for rec in open_answered if rec.doc["kind"] in MUTATION_KINDS]
    lat = [rec.latency for rec in open_reads]
    late = [rec.sent - rec.due for rec in open_recs]
    late_p99 = percentile(late, 99)
    interval = 1.0 / rate
    if late_p99 > interval:
        problems.append(
            f"load generator fell behind: p99 send lateness {late_p99:.4f}s "
            f"> {interval:.4f}s between requests"
        )
    # Closed-loop throughput: median completion rate over fixed windows,
    # so one transient stall of either process does not set the figure.
    start = closed_recs[0].sent
    windows = [0] * max(1, int(closed_seconds / THROUGHPUT_WINDOW_S))
    for rec in closed_recs:
        slot = int((rec.arrived - start) / THROUGHPUT_WINDOW_S)
        if rec.response is not None and 0 <= slot < len(windows):
            windows[slot] += 1
    closed_cached = sum(bool(rec.response and rec.response.get("cached")) for rec in closed_recs)
    cached = [bool(rec.response.get("cached")) for rec in open_reads]
    tail = WORKLOADS[workload].tail_pct
    write_p50 = p50([rec.latency for rec in open_writes])

    record: Dict[str, Any] = {"digest": digests[0]}
    values: Dict[str, float] = {}
    if trace:
        traced = [rec for rec in open_reads if rec.traced]
        untraced = [rec for rec in open_reads if not rec.traced]
        bc = stats["build_cache"]
        responses = [rec.response for rec in open_reads]
        values.update(
            {
                "service.queue.wait_p50_s": p50([r["queued_s"] for r in responses]),
                "service.server.service_p50_s": p50([r["service_s"] for r in responses]),
                "service.queue.batch_size_mean": mean([r["batch_size"] for r in responses]),
                "service.resultcache.hits": sum(cached),
                "service.resultcache.responses": len(cached),
                "service.resultcache.hit_ratio": mean(cached),
                "service.resultcache.invalidations": stats["result_cache"]["invalidations"],
                "net.front_p50_s": p50([rec.front for rec in traced]),
                "net.response_bytes_mean": mean([rec.frame_bytes for rec in traced]),
                "core.cache.hits": bc["hits"],
                "core.cache.misses": bc["misses"],
                "core.cache.hit_ratio": bc["hits"] / max(1, bc["hits"] + bc["misses"]),
                "loadgen.late_p99_s": late_p99,
                "trace.traced_p50_s": p50([rec.latency for rec in traced]),
                "trace.untraced_p50_s": p50([rec.latency for rec in untraced]),
            }
        )
        if workload == "serve_rw":
            recompile = stats["dynamic"]["d"]["recompile"]
            values["write_p50_s"] = write_p50
            for name in RECOMPILE_COUNTS:
                values[f"dynamic.{name}"] = recompile[name]
        layers, layer_problems = serving_layers(graphs, warm)
        values.update(layers)
        problems += layer_problems
        record["sim"] = {k: v for k, v in layers.items() if k.startswith("sim.")}
    else:
        values.update(
            setup_s=p50(setups),
            query_p50_s=p50(lat),
            query_tail_s=tail_of(lat, tail),
            throughput_qps=p50(windows) / THROUGHPUT_WINDOW_S,
            peak_rss_mb=rss_mb,
        )
        note(
            f"query_tail_s is p{tail} of {len(lat)} open-loop reads at {rate:g} req/s "
            f"(lowest of {max(1, len(lat) // min_samples(tail))} windows)"
        )
        note(f"result-cache hit share of open-loop reads: {mean(cached):.3f} of {len(cached)}")
        if workload == "serve_rw":
            note(f"write_p50_s {write_p50:.6f} s over {len(open_writes)} open-loop writes")
        note(f"send lateness p99 {late_p99:.6f} s")
        note(
            f"closed loop at depth {CLOSED_DEPTH}: {sum(windows)} answers in "
            f"{closed_seconds:g} s, cache-hit share {closed_cached / len(closed_recs):.3f}"
        )
    problems += check_repeat(workload, seed, record)
    note(f"warm-up answer digest {digests[0]}")
    info = {"attempted": len(records), "failed": len(failed), "problems": problems}
    return values, info


# --------------------------------------------------------------------- #


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(common.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    run = run_solo if WORKLOADS[args.workload].mode == "solo" else run_serve
    values, info = run(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        untraced = values["trace.untraced_p50_s"]
        values["trace.overhead_frac"] = (values["trace.traced_p50_s"] - untraced) / untraced
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if args.trace and missing:
        note(f"not exercised by {args.workload} (reported as 0): {', '.join(missing)}")
        values.update({name: 0.0 for name in missing})
    elif missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
    for name, (value, unit) in metrics.items():
        note(f"{name} {value:.6g} {unit}")
    attempted, failed = info["attempted"], info["failed"]
    note(f"error_rate {failed / max(1, attempted):.6g} ({failed}/{attempted})")
    for problem in info["problems"]:
        note(f"CHECK FAILED: {problem}")
    emit(not info["problems"] and failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
