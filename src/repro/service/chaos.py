"""Deterministic chaos harness for the serving plane.

:mod:`repro.core.transient` perturbs *simulations*; this module perturbs
the *server*: worker crashes mid-batch, slow batches, queue-pickup stalls,
and skewed latency clocks.  The same philosophy carries over — every
injection decision is a counter-based hash (splitmix64) of
``(seed, channel, batch sequence number)``, a pure function of *which*
batch is being dispatched, never of thread timing.  Replaying a scenario
with the same seed injects the same faults at the same batch sequence
numbers, which is what lets CI assert exact recovery properties
("batch #2 crashes its worker; zero tickets are lost; the supervisor
restarts exactly one worker").

:class:`ChaosPolicy` is consumed by
:class:`~repro.service.server.QueryServer` behind test hooks that are
no-ops when no policy is given.  :class:`InjectedWorkerCrash` derives from
``BaseException`` deliberately, mirroring ``KeyboardInterrupt``: the
dispatch path's ``except Exception`` rider-protection must *not* absorb an
injected crash — the whole point is to kill the worker loop and exercise
the supervisor.

:func:`run_chaos` replays a named scenario against a seeded workload and
reports losses (must be zero), supervisor counters, recovery time, and
tail latency under fault — the ``BENCH_chaos.json`` artifact written by
``repro chaos``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.transient import _uniform_hash
from repro.errors import ValidationError
from repro.service.adapters import execute_solo, plan_request
from repro.service.loadgen import generate_requests, results_equal
from repro.service.schema import QueryResult
from repro.telemetry import percentile
from repro.workloads.graph import WeightedDigraph

__all__ = ["ChaosPolicy", "InjectedWorkerCrash", "SCENARIOS", "run_chaos"]

BENCH_SCHEMA = "repro.chaos.bench/v1"

# Hash channels: one independent decision stream per fault type.
_CH_CRASH, _CH_SLOW, _CH_STALL, _CH_SKEW, _CH_KILL = 1, 2, 3, 4, 5


class InjectedWorkerCrash(BaseException):
    """A chaos-injected worker death (BaseException: bypasses rider guards)."""

    def __init__(self, batch_seq: int):
        super().__init__(f"chaos: injected worker crash on batch #{batch_seq}")
        self.batch_seq = int(batch_seq)


@dataclass(frozen=True)
class ChaosPolicy:
    """Counter-seeded fault injection plan for a :class:`QueryServer`.

    Explicit ``*_batches`` tuples name exact batch sequence numbers
    (1-based, in dispatch order across all workers) to fault; the ``*_p``
    probabilities additionally fault each batch independently via a
    counter-hash of ``(seed, channel, batch seq)``.  Both forms are pure
    functions of the batch sequence number, so a scenario replays
    identically regardless of thread scheduling.

    ``crash``: the worker thread dies after pulling the batch (tickets are
    in flight) and before dispatching it.  ``slow``: the batch's service
    time is inflated by ``slow_s`` (sleep inside dispatch) — the wedge
    detector's food.  ``stall``: the worker sleeps before acting on the
    pulled batch, inflating queue latency.  ``clock_skew_s``: per-batch
    additive skew (in ``[-amp, +amp]``) applied to the worker's latency
    timestamps only — results must survive a lying telemetry clock, but
    correctness-relevant decisions (deadlines, TTLs) keep the true clock.
    ``kill``: when the server runs a process pool, the worker *process*
    serving the batch is SIGKILLed mid-batch (see :meth:`kill_process`).
    """

    seed: int = 0
    crash_batches: Tuple[int, ...] = ()
    crash_p: float = 0.0
    slow_batches: Tuple[int, ...] = ()
    slow_p: float = 0.0
    slow_s: float = 0.05
    stall_batches: Tuple[int, ...] = ()
    stall_p: float = 0.0
    stall_s: float = 0.02
    clock_skew_s: float = 0.0
    kill_batches: Tuple[int, ...] = ()
    kill_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_p", "slow_p", "stall_p", "kill_p"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        for name in ("slow_s", "stall_s", "clock_skew_s"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")

    # ------------------------------------------------------------------ #

    def _u(self, channel: int, seq: int) -> float:
        ids = np.array([seq], dtype=np.uint64)
        return float(_uniform_hash(self.seed ^ (channel * 0x9E3779B9), channel, ids)[0])

    def crash(self, seq: int) -> bool:
        """Does the worker pulling batch ``seq`` die mid-batch?"""
        if seq in self.crash_batches:
            return True
        return self.crash_p > 0.0 and self._u(_CH_CRASH, seq) < self.crash_p

    def slow_s_for(self, seq: int) -> float:
        """Extra service seconds injected into batch ``seq`` (0 = none)."""
        if seq in self.slow_batches:
            return self.slow_s
        if self.slow_p > 0.0 and self._u(_CH_SLOW, seq) < self.slow_p:
            return self.slow_s
        return 0.0

    def stall_s_for(self, seq: int) -> float:
        """Queue-pickup stall injected before batch ``seq`` is acted on."""
        if seq in self.stall_batches:
            return self.stall_s
        if self.stall_p > 0.0 and self._u(_CH_STALL, seq) < self.stall_p:
            return self.stall_s
        return 0.0

    def kill_process(self, seq: int) -> bool:
        """Is the worker *process* serving batch ``seq`` SIGKILLed mid-batch?

        Consumed by the dispatcher only when the server holds a process
        pool: the pool's next :meth:`execute` SIGKILLs its checked-out
        worker before shipping the batch, raising
        :class:`~repro.service.net.procpool.WorkerProcessDied` — the
        process-tier analogue of :meth:`crash`.
        """
        if seq in self.kill_batches:
            return True
        return self.kill_p > 0.0 and self._u(_CH_KILL, seq) < self.kill_p

    def skew_s(self, seq: int) -> float:
        """Telemetry-clock skew for batch ``seq``, in ``[-amp, +amp]``."""
        if self.clock_skew_s == 0.0:
            return 0.0
        return self.clock_skew_s * (2.0 * self._u(_CH_SKEW, seq) - 1.0)

    def any_active(self) -> bool:
        return bool(
            self.crash_batches
            or self.crash_p
            or self.slow_batches
            or self.slow_p
            or self.stall_batches
            or self.stall_p
            or self.clock_skew_s
            or self.kill_batches
            or self.kill_p
        )


# --------------------------------------------------------------------- #
# Named scenarios
# --------------------------------------------------------------------- #

#: Replayable scenarios: chaos policy + server shape.  ``worker-crash`` is
#: the CI acceptance scenario: batch #2 kills 1 of 4 workers mid-batch;
#: its tickets are re-enqueued and every request must still complete, with
#: exactly one supervisor restart and solo-identical answers.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "worker-crash": {
        "description": "kill 1 of 4 workers mid-batch (batch #2); zero losses",
        "workers": 4,
        "chaos": {"crash_batches": (2,)},
    },
    "crash-storm": {
        "description": "every batch crashes its worker with p=0.15",
        "workers": 4,
        "chaos": {"crash_p": 0.15},
    },
    "slow-batch": {
        "description": "30% of batches serve 50 ms slow (tail-latency fault)",
        "workers": 2,
        "chaos": {"slow_p": 0.3, "slow_s": 0.05},
    },
    "queue-stall": {
        "description": "30% of batch pickups stall 20 ms before dispatch",
        "workers": 2,
        "chaos": {"stall_p": 0.3, "stall_s": 0.02},
    },
    "wedged-worker": {
        "description": "one 300 ms batch against a 100 ms wedge timeout",
        "workers": 2,
        "chaos": {"slow_batches": (2,), "slow_s": 0.3},
        "server": {"wedge_timeout_s": 0.1},
    },
    "clock-skew": {
        "description": "±20 ms telemetry clock skew per batch",
        "workers": 2,
        "chaos": {"clock_skew_s": 0.02},
    },
    "worker-process-kill": {
        "description": "SIGKILL 1 of 2 worker processes mid-batch (batch #2); zero losses",
        "workers": 2,
        "processes": 2,
        "chaos": {"kill_batches": (2,)},
    },
}


def _default_graphs() -> Dict[str, WeightedDigraph]:
    from repro.workloads import gnp_graph, grid_graph

    return {
        "grid": grid_graph(8, 8, max_length=7, seed=2),
        "gnp": gnp_graph(64, 0.06, max_length=9, seed=1),
    }


def run_chaos(
    scenario: str = "worker-crash",
    *,
    graphs: Optional[Mapping[str, WeightedDigraph]] = None,
    n_requests: int = 64,
    seed: int = 0,
    workers: Optional[int] = None,
    max_batch: int = 4,
    linger_s: float = 0.005,
    verify: bool = True,
    result_timeout_s: float = 60.0,
) -> Dict[str, object]:
    """Replay ``scenario`` against a seeded workload; report recovery.

    Every submitted ticket is awaited with ``result_timeout_s``; a ticket
    that hangs counts as **lost**, and the loss count is the harness's
    primary assertion (it must be 0: supervision re-enqueues or
    error-completes every in-flight ticket of a dead worker, and
    ``stop()`` drains the rest).  With ``verify`` (default), every OK
    non-degraded answer is compared byte-for-byte against a solo run of
    the same query — recovery must not change a single spike.
    """
    from repro.service.server import QueryServer

    if scenario not in SCENARIOS:
        raise ValidationError(
            f"unknown chaos scenario {scenario!r}; expected one of {sorted(SCENARIOS)}"
        )
    spec = SCENARIOS[scenario]
    n_workers = int(workers if workers is not None else spec["workers"])
    policy = ChaosPolicy(seed=seed, **spec["chaos"])
    server_kw: Dict[str, Any] = dict(spec.get("server", {}))

    graphs = dict(graphs) if graphs else _default_graphs()
    requests = generate_requests(graphs, n_requests, seed=seed)

    # Scenarios with a "processes" count run the process-pool tier so the
    # kill channel has real worker processes to SIGKILL.
    n_processes = int(spec.get("processes", 0))
    pool = None
    if n_processes > 0:
        from repro.service.net.procpool import ProcessWorkerPool

        pool = ProcessWorkerPool(workers=n_processes)

    server = QueryServer(
        workers=n_workers,
        max_batch=max_batch,
        linger_s=linger_s,
        queue_limit=65536,  # the harness measures recovery, not backpressure
        result_cache_size=0,  # every answer simulates: the differential oracle
        chaos=policy,
        process_pool=pool,
        **server_kw,
    )
    for gid, g in graphs.items():
        server.register_graph(gid, g)

    t0 = time.monotonic()
    results: List[Optional[QueryResult]] = [None] * len(requests)
    lost = 0
    try:
        with server:
            tickets = [server.submit(req) for req in requests]
            for i, ticket in enumerate(tickets):
                try:
                    results[i] = ticket.result(result_timeout_s)
                except TimeoutError:
                    lost += 1
        wall_s = time.monotonic() - t0

        stats = server.stats()
        pool_stats = pool.stats() if pool is not None else None
    finally:
        if pool is not None:
            pool.close()
    sup = stats["supervisor"]
    latencies = [r.queued_s + r.service_s for r in results if r is not None]
    n_ok = sum(1 for r in results if r is not None and r.ok)
    n_degraded = sum(1 for r in results if r is not None and r.degraded)
    statuses: Dict[str, int] = {}
    for r in results:
        key = r.status.value if r is not None else "lost"
        statuses[key] = statuses.get(key, 0) + 1

    mismatches = 0
    if verify:
        graphs_d = dict(graphs)
        for req, r in zip(requests, results):
            if r is None or not r.ok or r.degraded:
                continue
            solo = execute_solo(plan_request(req, graphs_d, {}))
            if not results_equal(r, solo):
                mismatches += 1

    recoveries = _recovery_times(sup["incidents"])
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "scenario": scenario,
        "description": spec["description"],
        "config": {
            "n_requests": len(requests),
            "workers": n_workers,
            "processes": n_processes,
            "max_batch": max_batch,
            "linger_s": linger_s,
            "seed": seed,
            "chaos": {k: list(v) if isinstance(v, tuple) else v for k, v in spec["chaos"].items()},
            "graphs": {gid: {"n": g.n, "m": g.m} for gid, g in sorted(graphs.items())},
        },
        "outcome": {
            "wall_s": round(wall_s, 6),
            "submitted": len(requests),
            "completed": len(requests) - lost,
            "lost": lost,
            "ok": n_ok,
            "degraded": n_degraded,
            "statuses": statuses,
            "latency_p50_s": round(percentile(latencies, 0.50), 6),
            "latency_p99_s": round(percentile(latencies, 0.99), 6),
        },
        "supervisor": {
            "crashes": sup["crashes"],
            "restarts": sup["restarts"],
            "wedged": sup["wedged"],
            "requeued": sup["requeued"],
            "recovery_mean_s": round(float(np.mean(recoveries)), 6) if recoveries else None,
            "recovery_max_s": round(max(recoveries), 6) if recoveries else None,
        },
        "equality": {"checked": bool(verify), "mismatches": mismatches},
    }
    if pool_stats is not None:
        report["process_pool"] = pool_stats
    return report


def _recovery_times(incidents: List[Dict[str, object]]) -> List[float]:
    """Crash/wedge -> matching restart latency, per worker slot."""
    down_at: Dict[int, float] = {}
    out: List[float] = []
    for ev in incidents:
        worker = int(ev["worker"])  # type: ignore[arg-type]
        t = float(ev["t"])  # type: ignore[arg-type]
        if ev["event"] in ("crash", "wedge"):
            down_at.setdefault(worker, t)
        elif ev["event"] == "restart" and worker in down_at:
            out.append(t - down_at.pop(worker))
    return out
