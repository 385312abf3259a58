"""Replayable mixed read/write op streams (the ``repro.dynamic.stream`` format).

One op per JSONL line::

    {"op": 17, "type": "REWEIGHT", "graph": "grid", "params": {"u": 3, "v": 4, "weight": 6}}

``type`` is one of :data:`OP_TYPES` — three read shapes (``READ_SSSP``,
``READ_KHOP``, ``READ_APSP``) and the five mutations (``ADD_NODE``,
``REMOVE_NODE``, ``ADD_EDGE``, ``REMOVE_EDGE``, ``REWEIGHT``).  The format
is deliberately dumb (plain JSON, explicit vertex ids, no timestamps) so a
recorded stream replays bit-identically: :func:`generate_stream` maintains
shadow :class:`~repro.dynamic.graph.MutableGraph` copies while generating,
guaranteeing every op is valid when applied *in order*, and
:func:`replay_stream` preserves that order by submitting writes
synchronously (each write is acknowledged before any later op is
submitted) while pipelining reads in a bounded window between writes.

Reads are **skewed**: vertices are drawn from a Zipf-like rank
distribution over a seeded per-graph permutation, modeling the hot-key
access patterns of streaming graph workloads (cf. Hamilton et al.'s
framing of graph analysis as a streaming application).

:func:`run_stream_replay` is the self-contained driver behind
``repro loadgen --ops`` and the CI ``dynamic-smoke`` job: it builds a
:class:`~repro.service.server.QueryServer`, registers every referenced
graph as dynamic, replays the ops, and reports per-op-type p50/p99
latencies plus recompiler/cache counters.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dynamic.graph import MutableGraph
from repro.errors import ReproError, ValidationError
from repro.service.schema import QueryRequest
from repro.telemetry import percentile
from repro.workloads.graph import WeightedDigraph

__all__ = [
    "OP_TYPES",
    "READ_OP_KINDS",
    "WRITE_OP_KINDS",
    "STREAM_SCHEMA",
    "generate_stream",
    "op_to_request",
    "read_stream",
    "replay_stream",
    "run_stream_replay",
    "write_stream",
]

STREAM_SCHEMA = "repro.dynamic.stream/v1"

#: Read op type -> request kind.
READ_OP_KINDS: Dict[str, str] = {
    "READ_SSSP": "sssp",
    "READ_KHOP": "khop",
    "READ_APSP": "apsp",
}

#: Write op type -> mutation request kind.
WRITE_OP_KINDS: Dict[str, str] = {
    "ADD_NODE": "add_node",
    "REMOVE_NODE": "remove_node",
    "ADD_EDGE": "add_edge",
    "REMOVE_EDGE": "remove_edge",
    "REWEIGHT": "reweight",
}

OP_TYPES: Tuple[str, ...] = tuple(READ_OP_KINDS) + tuple(WRITE_OP_KINDS)

#: Relative frequency of each write type within the write fraction.
_WRITE_WEIGHTS: Dict[str, float] = {
    "REWEIGHT": 0.40,
    "ADD_EDGE": 0.25,
    "REMOVE_EDGE": 0.15,
    "ADD_NODE": 0.12,
    "REMOVE_NODE": 0.08,
}

#: Relative frequency of each read shape within the read fraction.
_READ_WEIGHTS: Dict[str, float] = {
    "READ_SSSP": 0.60,
    "READ_KHOP": 0.30,
    "READ_APSP": 0.10,
}

_KHOP_TIERS = (4, 8, 16)


def _zipf_pick(
    rng: np.random.Generator, ranked: Sequence[int], skew: float
) -> int:
    """One vertex from ``ranked`` under a Zipf-like rank distribution."""
    weights = 1.0 / np.power(np.arange(1, len(ranked) + 1, dtype=np.float64), skew)
    weights /= weights.sum()
    return int(ranked[int(rng.choice(len(ranked), p=weights))])


def _weighted_type(rng: np.random.Generator, weights: Mapping[str, float]) -> str:
    names = list(weights)
    p = np.asarray([weights[n] for n in names], dtype=np.float64)
    p /= p.sum()
    return names[int(rng.choice(len(names), p=p))]


class _Shadow:
    """Generator-side shadow of one graph: state + skewed vertex ranking."""

    def __init__(self, gid: str, base: WeightedDigraph, rng: np.random.Generator):
        self.gid = gid
        self.graph = MutableGraph(base, uid=f"shadow:{gid}")
        self.max_length = max(1, base.max_length())
        # A fixed permutation defines which vertices are "hot"; new nodes
        # are appended (cold tail).
        self.ranking: List[int] = [
            int(v) for v in rng.permutation(base.n)
        ] if base.n else []

    def live_ranking(self) -> List[int]:
        removed = {v for v in self.ranking if self.graph.is_removed(v)}
        return [v for v in self.ranking if v not in removed]


def generate_stream(
    graphs: Mapping[str, WeightedDigraph],
    n_ops: int,
    *,
    seed: int = 0,
    write_fraction: float = 0.25,
    skew: float = 1.2,
    min_live_nodes: int = 4,
) -> List[Dict[str, Any]]:
    """A seeded mixed read/write op stream over ``graphs``.

    Every op is valid when the stream is applied in order starting from the
    given base graphs (the generator tracks shadow state), so a replay
    against freshly registered copies of the same graphs sees zero
    validation errors.  ``write_fraction`` of ops are mutations (skewed
    toward ``REWEIGHT``/``ADD_EDGE``); reads draw sources from a Zipf-like
    rank distribution with exponent ``skew``.  ``min_live_nodes`` bounds
    destructive drift: ``REMOVE_NODE`` is never emitted when it would
    leave fewer live vertices.
    """
    if n_ops < 0:
        raise ValidationError(f"n_ops must be >= 0, got {n_ops}")
    if not graphs:
        raise ValidationError("generate_stream requires at least one graph")
    if not (0.0 <= write_fraction <= 1.0):
        raise ValidationError(
            f"write_fraction must be in [0, 1], got {write_fraction}"
        )
    rng = np.random.default_rng(seed)
    shadows = {gid: _Shadow(gid, g, rng) for gid, g in sorted(graphs.items())}
    gids = sorted(shadows)
    ops: List[Dict[str, Any]] = []
    for i in range(n_ops):
        gid = gids[int(rng.integers(len(gids)))]
        shadow = shadows[gid]
        if rng.random() < write_fraction:
            op = _generate_write(rng, shadow, min_live_nodes)
        else:
            op = _generate_read(rng, shadow, skew)
        if op is None:  # graph too degenerate for any op: fall back
            op = {"type": "ADD_NODE", "params": {}}
            shadow.ranking.append(shadow.graph.add_node())
        op["op"] = i
        op["graph"] = gid
        ops.append(op)
    return ops


def _generate_read(
    rng: np.random.Generator, shadow: _Shadow, skew: float
) -> Optional[Dict[str, Any]]:
    live = shadow.live_ranking()
    if not live:
        return None
    kind = _weighted_type(rng, _READ_WEIGHTS)
    if kind == "READ_SSSP":
        return {"type": kind, "params": {"source": _zipf_pick(rng, live, skew)}}
    if kind == "READ_KHOP":
        return {
            "type": kind,
            "params": {
                "source": _zipf_pick(rng, live, skew),
                "k": int(_KHOP_TIERS[int(rng.integers(len(_KHOP_TIERS)))]),
            },
        }
    n_sources = int(min(len(live), 2 + rng.integers(3)))
    sources: List[int] = []
    while len(sources) < n_sources:
        s = _zipf_pick(rng, live, skew)
        if s not in sources:
            sources.append(s)
    return {"type": "READ_APSP", "params": {"sources": sources}}


def _generate_write(
    rng: np.random.Generator, shadow: _Shadow, min_live_nodes: int
) -> Optional[Dict[str, Any]]:
    g = shadow.graph
    live = shadow.live_ranking()
    kind = _weighted_type(rng, _WRITE_WEIGHTS)
    if kind in ("REWEIGHT", "REMOVE_EDGE") and g.m == 0:
        kind = "ADD_EDGE"
    if kind == "REMOVE_NODE" and len(live) <= min_live_nodes:
        kind = "ADD_NODE"
    if kind == "ADD_EDGE" and len(live) < 2:
        kind = "ADD_NODE"

    if kind == "ADD_NODE":
        nid = g.add_node()
        shadow.ranking.append(nid)
        return {"type": kind, "params": {}}
    if kind == "REMOVE_NODE":
        v = int(live[int(rng.integers(len(live)))])
        g.remove_node(v)
        return {"type": kind, "params": {"u": v}}
    if kind in ("REWEIGHT", "REMOVE_EDGE"):
        edges = list(g.edges())
        u, v, _w = edges[int(rng.integers(len(edges)))]
        if kind == "REWEIGHT":
            w = int(rng.integers(1, shadow.max_length + 1))
            g.reweight(int(u), int(v), w)
            return {"type": kind, "params": {"u": int(u), "v": int(v), "weight": w}}
        g.remove_edge(int(u), int(v))
        return {"type": kind, "params": {"u": int(u), "v": int(v)}}
    # ADD_EDGE: try a few endpoint pairs; degrade to reweight, then a node.
    for _attempt in range(8):
        u = int(live[int(rng.integers(len(live)))])
        v = int(live[int(rng.integers(len(live)))])
        if u != v and not g.has_edge(u, v):
            w = int(rng.integers(1, shadow.max_length + 1))
            g.add_edge(u, v, w)
            return {"type": "ADD_EDGE", "params": {"u": u, "v": v, "weight": w}}
    if g.m:
        edges = list(g.edges())
        u, v, _w = edges[int(rng.integers(len(edges)))]
        w = int(rng.integers(1, shadow.max_length + 1))
        g.reweight(int(u), int(v), w)
        return {"type": "REWEIGHT", "params": {"u": int(u), "v": int(v), "weight": w}}
    return None


# ---------------------------------------------------------------------- #
# Serialization
# ---------------------------------------------------------------------- #


def write_stream(ops: Iterable[Mapping[str, Any]], path: str) -> int:
    """Write ops as JSONL (one op per line); returns the op count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for op in ops:
            fh.write(json.dumps(dict(op), sort_keys=True) + "\n")
            count += 1
    return count


def read_stream(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL op stream, validating op types."""
    ops: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON ({exc})")
            if not isinstance(doc, dict):
                raise ValidationError(f"{path}:{lineno}: op must be an object")
            if doc.get("type") not in OP_TYPES:
                raise ValidationError(
                    f"{path}:{lineno}: unknown op type {doc.get('type')!r}"
                )
            if not doc.get("graph"):
                raise ValidationError(f"{path}:{lineno}: op missing 'graph'")
            ops.append(doc)
    return ops


def op_to_request(op: Mapping[str, Any]) -> QueryRequest:
    """Map one op record onto the serving schema."""
    op_type = str(op.get("type"))
    gid = str(op.get("graph"))
    params_raw = op.get("params") or {}
    if not isinstance(params_raw, Mapping):
        raise ValidationError(f"op params must be an object, got {params_raw!r}")
    params: Dict[str, Any] = dict(params_raw)
    if op_type in READ_OP_KINDS:
        kind = READ_OP_KINDS[op_type]
        if kind == "apsp":
            sources = params.get("sources")
            return QueryRequest(
                kind="apsp",
                graph_id=gid,
                sources=tuple(int(s) for s in sources) if sources else None,
            )
        return QueryRequest(
            kind=kind,
            graph_id=gid,
            source=params.get("source"),
            target=params.get("target"),
            k=params.get("k"),
        )
    if op_type in WRITE_OP_KINDS:
        return QueryRequest(
            kind=WRITE_OP_KINDS[op_type],
            graph_id=gid,
            u=params.get("u"),
            v=params.get("v"),
            weight=params.get("weight"),
        )
    raise ValidationError(f"unknown op type {op_type!r}")


# ---------------------------------------------------------------------- #
# Replay
# ---------------------------------------------------------------------- #


def replay_stream(
    server: Any,
    ops: Sequence[Mapping[str, Any]],
    *,
    timeout_s: float = 120.0,
    window: int = 32,
) -> Dict[str, Any]:
    """Replay ``ops`` in order against a running server; latency report.

    Writes are **synchronous**: each mutation's result is awaited before
    any later op is submitted, so the server-side graph state at each op
    matches the generator's shadow state exactly (zero validation errors
    on a well-formed stream) and reads always observe the version the
    stream implies.  Reads between writes are pipelined up to ``window``
    outstanding tickets.  Returns per-op-type latency percentiles, error
    details (first 10), and the final ``graph_version`` observed per
    graph.
    """
    latencies: Dict[str, List[float]] = {}
    errors: List[Dict[str, Any]] = []
    n_errors = 0
    final_versions: Dict[str, int] = {}
    pending: List[Tuple[Mapping[str, Any], Any, float]] = []
    _now = getattr(server, "_clock", time.monotonic)

    def _note(op: Mapping[str, Any], result: Any, elapsed_s: float) -> None:
        nonlocal n_errors
        op_type = str(op.get("type"))
        latencies.setdefault(op_type, []).append(elapsed_s)
        if result.graph_version is not None:
            final_versions[str(op.get("graph"))] = int(result.graph_version)
        if not result.ok:
            n_errors += 1
            if len(errors) < 10:
                errors.append(
                    {
                        "op": op.get("op"),
                        "type": op_type,
                        "error": result.error,
                        "error_code": result.error_code,
                    }
                )

    def _drain(limit: int) -> None:
        while len(pending) > limit:
            p_op, p_ticket, p_t0 = pending.pop(0)
            result = p_ticket.result(timeout_s)
            _note(p_op, result, _now() - p_t0)

    for op in ops:
        op_type = str(op.get("type"))
        request = op_to_request(op)
        t0 = _now()
        try:
            ticket = server.submit(request)
        except ReproError as exc:
            n_errors += 1
            if len(errors) < 10:
                errors.append(
                    {"op": op.get("op"), "type": op_type, "error": str(exc)}
                )
            continue
        if op_type in WRITE_OP_KINDS:
            _drain(0)  # all earlier reads settle against the pre-write version
            result = ticket.result(timeout_s)
            _note(op, result, _now() - t0)
        else:
            pending.append((op, ticket, t0))
            _drain(window)
    _drain(0)

    per_type: Dict[str, Dict[str, Any]] = {}
    for op_type, vals in sorted(latencies.items()):
        per_type[op_type] = {
            "count": len(vals),
            "p50_s": round(percentile(vals, 0.50), 6),
            "p99_s": round(percentile(vals, 0.99), 6),
            "mean_s": round(float(np.mean(vals)), 6) if vals else 0.0,
        }
    reads = [v for t, vs in latencies.items() if t in READ_OP_KINDS for v in vs]
    writes = [v for t, vs in latencies.items() if t in WRITE_OP_KINDS for v in vs]
    return {
        "schema": STREAM_SCHEMA,
        "ops": len(ops),
        "completed": sum(len(v) for v in latencies.values()),
        "errors": n_errors,
        "error_details": errors,
        "per_type": per_type,
        "reads": {
            "count": len(reads),
            "p50_s": round(percentile(reads, 0.50), 6),
            "p99_s": round(percentile(reads, 0.99), 6),
        },
        "writes": {
            "count": len(writes),
            "p50_s": round(percentile(writes, 0.50), 6),
            "p99_s": round(percentile(writes, 0.99), 6),
        },
        "final_versions": final_versions,
    }


def run_stream_replay(
    graphs: Mapping[str, WeightedDigraph],
    ops: Sequence[Mapping[str, Any]],
    *,
    workers: int = 2,
    max_batch: int = 16,
    linger_s: float = 0.002,
    queue_limit: int = 1024,
    result_cache_ttl_s: float = 60.0,
    timeout_s: float = 300.0,
    window: int = 32,
) -> Dict[str, Any]:
    """Build a server, register ``graphs`` as dynamic, replay ``ops``.

    The self-contained driver used by ``repro loadgen --ops``, the
    benchmark, and the CI smoke job.  The report includes the replay
    latencies plus server/cache/recompiler counters, so "the incremental
    path was exercised" is checkable from the artifact alone
    (``dynamic.*.recompile.weight_patches`` etc.).
    """
    from repro.service.server import QueryServer

    referenced = {str(op.get("graph")) for op in ops}
    missing = sorted(referenced - set(graphs))
    if missing:
        raise ValidationError(f"ops reference unregistered graphs: {missing}")

    server = QueryServer(
        workers=workers,
        max_batch=max_batch,
        linger_s=linger_s,
        queue_limit=queue_limit,
        result_cache_ttl_s=result_cache_ttl_s,
        lint_admission=False,
    )
    with server:
        for gid, g in sorted(graphs.items()):
            server.register_dynamic_graph(gid, g)
        report = replay_stream(server, ops, timeout_s=timeout_s, window=window)
        stats = server.stats()
    metrics = stats.get("metrics")
    counters: Dict[str, Any] = {}
    if isinstance(metrics, dict) and isinstance(metrics.get("counters"), dict):
        counters = metrics["counters"]
    report["server"] = {
        "workers": workers,
        "batches": counters.get("service.batches", 0),
        "coalesced_batches": counters.get("service.batches.coalesced", 0),
        "mutation_batches": counters.get("service.batches.mutation", 0),
        "completed": counters.get("service.requests.completed", 0),
        "request_errors": counters.get("service.requests.errors", 0),
        "result_cache": stats.get("result_cache"),
        "build_cache": stats.get("build_cache"),
    }
    report["dynamic"] = stats.get("dynamic", {})
    return report
