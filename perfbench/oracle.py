"""Independent answer checks.

- sssp and apsp rows: :func:`repro.baselines.dijkstra`;
- khop: a breadth-first search hop bound (hop distance when at most k);
- circuit (the adder): integer addition;
- serve_rw reads: Dijkstra/BFS on a shadow graph rebuilt at the
  ``graph_version`` the response carries, by replaying the served writes
  in version order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import common  # noqa: F401  (puts src/ on sys.path)
from repro.baselines import dijkstra
from repro.workloads.graph import WeightedDigraph


def bfs_hops(graph: WeightedDigraph, source: int, k: int) -> np.ndarray:
    """Hop distance from ``source`` where it is at most ``k``, else -1."""
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        if dist[u] >= k:
            continue
        heads, _ = graph.out_edges(u)
        for v in heads.tolist():
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


class GraphOracle:
    """Memoized reference answers on one fixed graph."""

    def __init__(self, graph: WeightedDigraph):
        self.graph = graph
        self._sssp: Dict[int, np.ndarray] = {}
        self._khop: Dict[Tuple[int, int], np.ndarray] = {}

    def sssp(self, source: int) -> np.ndarray:
        if source not in self._sssp:
            self._sssp[source] = dijkstra(self.graph, source)[0]
        return self._sssp[source]

    def khop(self, source: int, k: int) -> np.ndarray:
        if (source, k) not in self._khop:
            self._khop[(source, k)] = bfs_hops(self.graph, source, k)
        return self._khop[(source, k)]


def _equal(got: Any, want: np.ndarray) -> bool:
    return got is not None and np.array_equal(np.asarray(got, dtype=np.int64), want)


def check_read(
    doc: Dict[str, Any], resp: Dict[str, Any], oracle: Optional[GraphOracle]
) -> Optional[str]:
    """Why ``resp`` is wrong for request ``doc``, or ``None`` if it is right."""
    if resp.get("status") != "ok":
        return f"status {resp.get('status')}: {resp.get('error_code')} {resp.get('error')}"
    kind = doc["kind"]
    if kind == "circuit":
        want = doc["inputs"]["a"] + doc["inputs"]["b"]
        got = (resp.get("outputs") or {}).get("s")
        return None if got == want else f"adder gave {got}, want {want}"
    if oracle is None:
        return f"no reference graph for {doc.get('graph_id')!r}"
    if kind == "sssp":
        ok = _equal(resp.get("dist"), oracle.sssp(doc["source"]))
    elif kind == "khop":
        ok = _equal(resp.get("dist"), oracle.khop(doc["source"], doc["k"]))
    else:
        ok = _equal(resp.get("matrix"), np.stack([oracle.sssp(s) for s in doc["sources"]]))
    return None if ok else f"{kind} answer differs from the reference"


class ShadowGraph:
    """The dynamic resident replayed at any served version.

    ``writes`` are (request doc, response) pairs; each successful write
    carries the version it produced, and versions must run contiguously
    from the registered graph's version 0.
    """

    def __init__(self, graph: WeightedDigraph, writes: List[Tuple[Dict[str, Any], Dict[str, Any]]]):
        self.n = graph.n
        self.base = {(int(u), int(v)): int(w) for u, v, w in graph.edges()}
        self.errors: List[str] = []
        by_version: Dict[int, Dict[str, Any]] = {}
        for doc, resp in writes:
            version = resp.get("graph_version")
            if resp.get("status") != "ok" or not isinstance(version, int):
                self.errors.append(f"write {doc['kind']} failed: {resp.get('error')}")
            elif version in by_version:
                self.errors.append(f"two writes produced version {version}")
            else:
                by_version[version] = doc
        expected = list(range(1, len(by_version) + 1))
        if sorted(by_version) != expected:
            self.errors.append("write versions are not contiguous from 1")
        self.ops = [by_version[v] for v in sorted(by_version)]

    def check_reads(
        self, reads: List[Tuple[Dict[str, Any], Dict[str, Any]]]
    ) -> List[Optional[str]]:
        """Check each (request doc, response) read at its served version.

        Reads are visited in version order while the shadow edge set is
        advanced one write at a time, so each version is built once.
        """
        verdicts: List[Optional[str]] = [None] * len(reads)
        order = sorted(range(len(reads)), key=lambda i: _version_of(reads[i][1]))
        edges = dict(self.base)
        applied = 0
        oracle: Optional[GraphOracle] = None
        for i in order:
            doc, resp = reads[i]
            version = _version_of(resp)
            if version < 0 or version > len(self.ops):
                if resp.get("status") != "ok":
                    verdicts[i] = check_read(doc, resp, None)
                else:
                    verdicts[i] = f"unknown graph_version {resp.get('graph_version')}"
                continue
            if oracle is None or applied != version:
                while applied < version:
                    op = self.ops[applied]
                    key = (op["u"], op["v"])
                    if op["kind"] == "remove_edge":
                        edges.pop(key, None)
                    else:
                        edges[key] = op["weight"]
                    applied += 1
                oracle = GraphOracle(_graph_of(self.n, edges))
            verdicts[i] = check_read(doc, resp, oracle)
        return verdicts


def _version_of(resp: Dict[str, Any]) -> int:
    version = resp.get("graph_version")
    return version if isinstance(version, int) else -1


def _graph_of(n: int, edges: Dict[Tuple[int, int], int]) -> WeightedDigraph:
    items = sorted(edges.items())
    tails = np.array([u for (u, _), _ in items], dtype=np.int64)
    heads = np.array([v for (_, v), _ in items], dtype=np.int64)
    lengths = np.array([w for _, w in items], dtype=np.int64)
    return WeightedDigraph.from_arrays(n, tails, heads, lengths)
