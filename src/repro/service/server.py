"""The concurrent query server: admission, coalescing, dispatch, resilience.

:class:`QueryServer` owns a :class:`~repro.service.queue.CoalescingQueue`,
a pool of *supervised* worker threads, and a
:class:`~repro.service.resultcache.TTLResultCache`.  Callers register
graphs/circuits up front (making them *resident*), then :meth:`submit`
requests; each submit plans the request in the caller's thread (so
malformed queries fail synchronously), checks the result cache, and
enqueues a :class:`QueryTicket`.  Workers pull micro-batches of compatible
tickets and dispatch them through one
:func:`~repro.core.run.simulate_batch` call, so N coalesced requests pay
one batched sweep instead of N solo simulations while each item's spikes
remain exactly those of a solo run.

Resilience (the failure contract; see ``docs/serving.md``):

* **Supervision** — a supervisor thread watches per-worker heartbeats.  A
  worker that dies mid-batch (its loop raised — e.g. a chaos-injected
  :class:`~repro.service.chaos.InjectedWorkerCrash`) or wedges (no
  heartbeat for ``wedge_timeout_s`` while holding a batch) is detected;
  its in-flight tickets are recovered **exactly once** — idempotent
  tickets are re-enqueued at the front of their group (at most
  ``max_requeues`` times each), the rest are error-completed with a
  structured ``WORKER_CRASH``/``WORKER_WEDGED`` code — and a replacement
  thread is started in the same slot after capped exponential backoff.
  Exactly-once is enforced by :meth:`QueryTicket.complete`'s atomic claim:
  a late completion from an abandoned (wedged) worker is a no-op.
* **Circuit breakers** — each ``(kind, graph_id)`` family is guarded by a
  :class:`~repro.service.breaker.CircuitBreaker`; once its rolling error
  rate trips, submits of that family raise
  :class:`~repro.errors.CircuitOpenError` without touching the queue.
* **Degradation ladder** — with ``degraded_serving=True``, an admission
  rejection (queue full) is answered by (1) a stale-but-marked result
  cache entry within its grace window, then (2) for plain ``sssp``, the
  Section-7 approximate driver run synchronously in the submitter's
  thread (``degraded=True`` on the result), before (3) surfacing the
  :class:`~repro.errors.ServiceOverloadedError`.
* **Chaos hooks** — an optional
  :class:`~repro.service.chaos.ChaosPolicy` injects crashes / slow
  batches / pickup stalls / telemetry clock skew as pure functions of the
  global batch sequence number, making recovery properties replayable.

Telemetry: workers run each batch under a private
:class:`~repro.telemetry.metrics.MetricsRegistry` (context variables do not
propagate into threads, and the registry's dict updates are not atomic),
then merge it into the server registry under a lock together with the
serving metrics.  :meth:`stats` snapshots everything, including supervisor
counters/incidents, breaker states, and the cache counters.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.circuits.builder import CircuitBuilder
from repro.core.cache import default_build_cache
from repro.core.run import simulate_batch
from repro.errors import (
    CircuitOpenError,
    ReproError,
    ServiceOverloadedError,
    TemporalBudgetError,
    ValidationError,
    classify_exception,
)
from repro.service.adapters import RequestPlan, plan_request
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.queue import CoalescingQueue
from repro.service.resultcache import TTLResultCache
from repro.service.schema import MUTATION_KINDS, QueryRequest, QueryResult, QueryStatus
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.workloads.graph import WeightedDigraph

if TYPE_CHECKING:  # imported lazily at runtime: chaos -> loadgen -> server
    from repro.dynamic.graph import MutableGraph
    from repro.dynamic.recompile import IncrementalRecompiler
    from repro.service.chaos import ChaosPolicy

__all__ = ["QueryServer", "QueryTicket"]

#: Retained incident-log length (oldest entries are dropped beyond this).
_MAX_INCIDENTS = 256


def _sharded_eligible(request: QueryRequest) -> bool:
    """Request shapes the shard router serves exactly.

    Everything else (targets, faults, watchdogs, spike recording, gadget
    encodings, apsp slices) falls back to the whole-graph resident that
    :meth:`QueryServer.register_sharded_graph` also installs.
    """
    return (
        request.kind in ("sssp", "khop")
        and request.target is None
        and request.faults is None
        and request.watchdog is None
        and not request.record_spikes
        and not request.use_gadgets
    )


class QueryTicket:
    """One in-flight request: plan, deadline, and a completion event.

    The ticket is the queue's unit of admission (``n_items`` batch items —
    more than one for an apsp slice) and the caller's handle on the answer:
    :meth:`result` blocks until a worker (or the submitter, on a cache hit)
    completes it.  Completion is an atomic *claim*: under supervision the
    same ticket can be visible to a crashed worker's recovery path and to
    an abandoned-but-still-running worker, and :meth:`complete` guarantees
    exactly one of them wins (the loser's result is discarded and reported
    by the ``False`` return, which also gates metrics and cache fills).
    """

    __slots__ = (
        "request",
        "plan",
        "admitted_at",
        "deadline",
        "dispatched_at",
        "requeues",
        "cache_key",
        "graph_version",
        "_lock",
        "_event",
        "_result",
    )

    def __init__(
        self,
        request: QueryRequest,
        plan: Optional[RequestPlan],
        *,
        admitted_at: float,
        deadline: Optional[float] = None,
    ):
        self.request = request
        self.plan = plan
        self.admitted_at = admitted_at
        self.deadline = deadline  # absolute monotonic time, or None
        self.dispatched_at: Optional[float] = None
        self.requeues = 0  # crash-recovery resubmissions so far
        # Result-cache key, resolved once at submit time against the
        # resident version the plan was built from.  The dispatcher fills
        # the cache under this stashed key — never a recomputed one — so a
        # mutation landing between plan and fill cannot poison the *new*
        # version's cache with a result computed on the old version.
        self.cache_key: Optional[Tuple] = None
        # Dynamic-graph version the plan is pinned to (None for static
        # residents); surfaced on results as ``graph_version``.
        self.graph_version: Optional[int] = None
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._result: Optional[QueryResult] = None

    @property
    def n_items(self) -> int:
        return self.plan.n_items if self.plan is not None else 1

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def complete(self, result: QueryResult) -> bool:
        """Atomically claim completion; ``False`` if already completed."""
        with self._lock:
            if self._result is not None:
                return False
            self._result = result
        self._event.set()
        return True

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until the ticket completes; raise if ``timeout`` elapses."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} not completed in {timeout}s"
            )
        assert self._result is not None
        return self._result


class _WorkerState:
    """Supervision view of one worker thread (one generation, one slot)."""

    __slots__ = (
        "slot",
        "thread",
        "busy",
        "heartbeat_at",
        "inflight",
        "batches",
        "started_at",
        "clean_exit",
        "crashed",
        "crash_error",
        "crash_handled",
        "abandoned",
    )

    def __init__(self, slot: int, started_at: float):
        self.slot = slot
        self.thread: Optional[threading.Thread] = None
        self.busy = False
        self.heartbeat_at = started_at
        self.inflight: List[QueryTicket] = []
        self.batches = 0
        self.started_at = started_at
        self.clean_exit = False
        self.crashed = False
        self.crash_error: Optional[str] = None
        self.crash_handled = False
        self.abandoned = False


class QueryServer:
    """Thread-based graph-query server with coalescing and supervision.

    Parameters
    ----------
    workers:
        Dispatch threads.  Each independently pulls ready batches, so two
        incompatible request streams do not serialize behind each other.
    max_batch / linger_s:
        Coalescing knobs, forwarded to the queue: release a batch at
        ``max_batch`` items or once its oldest request waited ``linger_s``.
    queue_limit:
        Admission bound in batch items; beyond it, submits raise
        :class:`~repro.errors.ServiceOverloadedError` (backpressure) — or
        walk the degradation ladder when ``degraded_serving`` is on.
    result_cache_size / result_cache_ttl_s / result_cache_stale_grace_s:
        TTL-LRU result cache dimensions; ``result_cache_size=0`` disables
        caching entirely (every request simulates).  The stale grace
        defaults to ``5 * ttl`` when degraded serving is on (expired
        entries stay servable under overload, marked ``stale=True``) and
        to 0 otherwise.
    lint_admission:
        When True (the default), every submit runs the
        :mod:`repro.staticcheck` linter over the resident network it
        targets (memoized per resident key) and rejects structurally
        invalid queries synchronously with a
        :class:`~repro.errors.StaticCheckError` carrying the full lint
        report — a diagnostic instead of a watchdog timeout.
    temporal_admission:
        When True (the default), every simulating submit also consults
        the temporal abstract interpretation
        (:mod:`repro.staticcheck.temporal`, memoized per resident): the
        planned tick horizon is clamped to the certified quiescence
        bound (the engine provably stops by then, so the clamp never
        changes an answer — it only prevents burning a huge ``max_steps``
        budget on a network that settled long before), and with a
        configured ``tick_rate`` a request whose certified run length
        cannot fit its ``deadline_s`` is rejected synchronously with a
        :class:`~repro.errors.TemporalBudgetError` — without running the
        simulator.  Fault-carrying requests skip the temporal gate:
        injected spikes break the causal model the bound is proved in.
    tick_rate:
        Simulated ticks per wall-clock second used to convert
        ``deadline_s`` into a tick budget for the static rejection above.
        ``None`` (default) disables deadline conversion; clamping still
        applies.
    breaker_policy:
        Per-``(kind, graph_id)`` circuit-breaker tuning; ``None`` disables
        breakers.  The default :class:`~repro.service.breaker.BreakerPolicy`
        needs >= 8 outcomes at >= 50% error rate to trip.
    degraded_serving:
        Enables the overload degradation ladder (stale cache -> approx
        sssp -> reject).  Off by default: plain backpressure semantics.
    supervise:
        Run the supervisor thread (heartbeat watching, crash recovery,
        restarts).  On by default; disable for single-shot tests that
        want the raw worker pool.
    wedge_timeout_s:
        A busy worker whose heartbeat is older than this is declared
        wedged: abandoned, its tickets recovered, its slot restarted.
    restart_backoff_s / restart_backoff_max_s / max_restarts:
        Capped exponential backoff between restarts of one slot, and the
        per-slot lifetime restart budget.
    max_requeues:
        Crash-recovery resubmission budget per ticket; beyond it the
        ticket is error-completed instead (exactly-once either way).
    supervise_interval_s:
        Supervisor scan period (also bounds crash-detection latency).
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPolicy`; injections are
        no-ops when absent.
    process_pool:
        Optional :class:`~repro.service.net.procpool.ProcessWorkerPool`.
        When set, sssp/khop-family batches execute in worker *processes*
        (resident compiled networks cached per worker, telemetry merged
        back raw) and sharded fan-outs run their shard-local simulations
        there too.  The pool is borrowed: the server heartbeats it from
        the supervisor but never closes it.
    clock:
        Monotonic time source, injectable for deterministic queue tests.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        max_batch: int = 16,
        linger_s: float = 0.002,
        queue_limit: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl_s: float = 60.0,
        result_cache_stale_grace_s: Optional[float] = None,
        lint_admission: bool = True,
        temporal_admission: bool = True,
        tick_rate: Optional[float] = None,
        breaker_policy: Optional[BreakerPolicy] = BreakerPolicy(),
        degraded_serving: bool = False,
        supervise: bool = True,
        wedge_timeout_s: float = 30.0,
        restart_backoff_s: float = 0.01,
        restart_backoff_max_s: float = 1.0,
        max_restarts: int = 8,
        max_requeues: int = 2,
        supervise_interval_s: float = 0.02,
        chaos: Optional["ChaosPolicy"] = None,
        process_pool: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if wedge_timeout_s <= 0:
            raise ValidationError(f"wedge_timeout_s must be > 0, got {wedge_timeout_s}")
        if max_restarts < 0 or max_requeues < 0:
            raise ValidationError("max_restarts and max_requeues must be >= 0")
        if supervise_interval_s <= 0:
            raise ValidationError(
                f"supervise_interval_s must be > 0, got {supervise_interval_s}"
            )
        self._clock = clock
        self._queue = CoalescingQueue(
            limit_items=queue_limit,
            max_batch=max_batch,
            linger_s=linger_s,
            clock=clock,
        )
        self._result_cache: Optional[TTLResultCache] = None
        self._degraded_serving = bool(degraded_serving)
        if result_cache_size > 0:
            if result_cache_stale_grace_s is None:
                result_cache_stale_grace_s = (
                    5.0 * result_cache_ttl_s if self._degraded_serving else 0.0
                )
            self._result_cache = TTLResultCache(
                maxsize=result_cache_size,
                ttl_s=result_cache_ttl_s,
                stale_grace_s=result_cache_stale_grace_s,
                clock=clock,
            )
        self._graphs: Dict[str, WeightedDigraph] = {}
        self._circuits: Dict[str, Tuple[CircuitBuilder, str]] = {}
        self._resident_keys: Dict[str, Tuple] = {}
        # Dynamic residents: the mutable graph, its recompiler, and the
        # version the published snapshot corresponds to (None = static).
        # _resident_lock makes (snapshot, resident key, version) reads and
        # swaps atomic, so a submit never pairs one version's snapshot with
        # another version's cache key.
        self._dynamic: Dict[str, "MutableGraph"] = {}
        self._recompilers: Dict[str, "IncrementalRecompiler"] = {}
        self._graph_versions: Dict[str, Optional[int]] = {}
        # Sharded residents (ShardedGraph, duck-typed to keep the import
        # lazy: repro.service.net imports this module).  The process pool
        # is likewise duck-typed and *borrowed* — callers own its lifecycle.
        self._sharded: Dict[str, Any] = {}
        self._process_pool = process_pool
        self._resident_lock = threading.Lock()
        self._lint_admission = bool(lint_admission)
        #: (resident key, plan family) -> memoized LintReport
        self._lint_cache: Dict[Tuple, Any] = {}
        if tick_rate is not None and tick_rate <= 0:
            raise ValidationError(f"tick_rate must be > 0, got {tick_rate}")
        self._temporal_admission = bool(temporal_admission)
        self._tick_rate = None if tick_rate is None else float(tick_rate)
        #: (resident key, plan family) -> certified quiescence tick, or None
        #: when the temporal analysis cannot bound the resident (pacemakers,
        #: uncapped excitatory cycles).
        self._temporal_cache: Dict[Tuple, Optional[int]] = {}
        self._epoch = 0
        self.registry = MetricsRegistry("service")
        self._reg_lock = threading.Lock()
        self._n_workers = int(workers)
        self._started = False
        self._stopped = False

        # breakers
        self._breaker_policy = breaker_policy
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()

        # supervision
        self._supervise = bool(supervise)
        self._wedge_timeout_s = float(wedge_timeout_s)
        self._restart_backoff_s = float(restart_backoff_s)
        self._restart_backoff_max_s = float(restart_backoff_max_s)
        self._max_restarts = int(max_restarts)
        self._max_requeues = int(max_requeues)
        self._supervise_interval_s = float(supervise_interval_s)
        self._chaos = chaos
        self._batch_counter = itertools.count(1)  # global dispatch order, 1-based
        self._sup_lock = threading.Lock()
        self._sup_stop = threading.Event()
        self._sup_thread: Optional[threading.Thread] = None
        self._states: List[_WorkerState] = []
        self._slot_restarts: List[int] = []
        self._slot_restart_at: List[Optional[float]] = []
        self._sup_counts = {
            "crashes": 0,
            "restarts": 0,
            "wedged": 0,
            "requeued": 0,
            "error_completed": 0,
        }
        self._incidents: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # Residents

    def register_graph(self, graph_id: str, graph: WeightedDigraph) -> str:
        """Make ``graph`` queryable as ``graph_id`` (static); returns the id."""
        with self._resident_lock:
            self._graphs[graph_id] = graph
            self._resident_keys[graph_id] = ("graph", graph.structure_key())
            self._graph_versions[graph_id] = None
        return graph_id

    def register_dynamic_graph(
        self, graph_id: str, graph: "WeightedDigraph | MutableGraph"
    ) -> str:
        """Make ``graph`` resident as a *mutable* graph; returns the id.

        Accepts a :class:`~repro.dynamic.graph.MutableGraph` or a plain
        :class:`~repro.workloads.graph.WeightedDigraph` (wrapped; it must
        then contain no parallel edges).  Mutation kinds are accepted only
        for graphs registered through this method.  An
        :class:`~repro.dynamic.recompile.IncrementalRecompiler` is primed
        for the SSSP and k-hop families, so the very first read already
        hits a seeded build-cache entry and every later mutation advances
        the compiled networks incrementally.
        """
        from repro.dynamic.graph import MutableGraph
        from repro.dynamic.recompile import IncrementalRecompiler

        if isinstance(graph, WeightedDigraph):
            graph = MutableGraph(graph)
        if not isinstance(graph, MutableGraph):
            raise ValidationError(
                f"register_dynamic_graph needs a MutableGraph or WeightedDigraph, "
                f"got {type(graph).__name__}"
            )
        recompiler = IncrementalRecompiler(graph)
        recompiler.prime()
        snap = graph.snapshot()
        with self._resident_lock:
            self._dynamic[graph_id] = graph
            self._recompilers[graph_id] = recompiler
            self._graphs[graph_id] = snap
            self._resident_keys[graph_id] = ("graph", snap.structure_key())
            self._graph_versions[graph_id] = graph.version
        return graph_id

    def register_sharded_graph(
        self, graph_id: str, graph: WeightedDigraph, shards: int
    ) -> str:
        """Make ``graph`` resident *sharded* across ``shards`` partitions.

        Plain shard-eligible ``sssp``/``khop`` queries fan out across the
        shard subnetworks via the fixpoint router
        (:mod:`repro.service.net.shard`) — in the process pool when the
        server holds one, in-process otherwise.  Every other request shape
        (apsp slices, targets, faults, spike recording, circuits) falls
        back transparently to the whole-graph resident, which is also
        registered under the same id.
        """
        from repro.service.net.shard import partition_graph

        sharded = partition_graph(graph, shards)
        with self._resident_lock:
            self._graphs[graph_id] = graph
            self._resident_keys[graph_id] = ("graph", graph.structure_key())
            self._graph_versions[graph_id] = None
            self._sharded[graph_id] = sharded
        return graph_id

    def register_circuit(self, circuit_id: str, builder: CircuitBuilder) -> str:
        """Make a built circuit queryable as ``circuit_id``.

        The resident key carries a registration epoch, so re-registering
        under the same id invalidates previously cached evaluations.
        """
        self._epoch += 1
        key = f"circuit:{circuit_id}:{self._epoch}"
        self._circuits[circuit_id] = (builder, key)
        self._resident_keys[circuit_id] = ("circuit", key)
        return circuit_id

    def graph_ids(self) -> List[str]:
        return sorted(self._graphs)

    # ------------------------------------------------------------------ #
    # Lifecycle

    def start(self) -> "QueryServer":
        if self._started:
            return self
        self._started = True
        now = self._clock()
        with self._sup_lock:
            for slot in range(self._n_workers):
                self._slot_restarts.append(0)
                self._slot_restart_at.append(None)
                self._states.append(self._spawn_worker_locked(slot, now))
        if self._supervise:
            self._sup_thread = threading.Thread(
                target=self._supervisor_loop, name="repro-service-supervisor", daemon=True
            )
            self._sup_thread.start()
        return self

    def _spawn_worker_locked(self, slot: int, now: float) -> _WorkerState:
        """Create and start a fresh worker generation for ``slot`` (lock held)."""
        state = _WorkerState(slot, now)
        gen = self._slot_restarts[slot]
        t = threading.Thread(
            target=self._worker_run,
            args=(state,),
            name=f"repro-service-worker-{slot}g{gen}",
            daemon=True,
        )
        state.thread = t
        t.start()
        return state

    def stop(self) -> None:
        """Close admission, drain pending batches, stop workers + supervisor.

        The drain guarantee: after ``stop()`` returns, **every** ticket ever
        accepted by :meth:`submit` has a result — dispatched batches
        complete normally, queued tickets past their deadline complete as
        TIMEOUT, and (only if every worker slot exhausts its restart
        budget mid-drain) stranded tickets are error-completed by the
        failsafe sweep.  No ``ticket.result()`` call can hang.
        """
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        self._queue.close()
        if self._supervise:
            # Workers may crash mid-drain and be restarted by the
            # supervisor; wait until no live worker remains and either the
            # queue is fully drained or no restart is ever coming.
            while True:
                # Scan directly (not just via the supervisor thread): a
                # worker that crashed an instant ago may be dead with its
                # in-flight tickets unrecovered, and waiting only on
                # alive/pending would break out before the supervisor's
                # next tick notices.  _supervise_once is idempotent and
                # lock-guarded, so racing the supervisor thread is safe.
                self._supervise_once()
                with self._sup_lock:
                    alive = any(
                        s.thread is not None and s.thread.is_alive() and not s.abandoned
                        for s in self._states
                    )
                    pending = any(at is not None for at in self._slot_restart_at)
                if not alive and not pending:
                    # Pending restarts always spawn (a replacement facing a
                    # drained queue just exits cleanly), so the restart
                    # counter is a deterministic function of the fault
                    # schedule, not of drain timing.
                    break
                time.sleep(min(self._supervise_interval_s, 0.005))
            self._sup_stop.set()
            if self._sup_thread is not None:
                self._sup_thread.join()
        else:
            for s in list(self._states):
                if s.thread is not None:
                    s.thread.join()
        self._drain_failsafe()

    def _drain_failsafe(self) -> None:
        """Answer anything still queued once no worker can ever serve it."""
        while not self._queue.drained():
            batch = self._queue.next_batch()
            if batch is None:
                return
            now = self._clock()
            for t in batch.expired:
                self._complete_timeout(t, now)
            for t in batch.tickets:
                self._complete_error(
                    t,
                    now,
                    error="server stopped before the request could be dispatched",
                    error_code="SHUTDOWN",
                )

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Breakers

    def _breaker_for(self, kind: str, graph_id: str) -> CircuitBreaker:
        key = (kind, graph_id)
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self._breaker_policy, clock=self._clock)
                self._breakers[key] = breaker
            return breaker

    # ------------------------------------------------------------------ #
    # Submission

    def _cache_key(
        self, request: QueryRequest, resident_key: Tuple
    ) -> Optional[Tuple]:
        if self._result_cache is None:
            return None
        params = request.cache_params()
        if params is None:
            return None
        return (resident_key, params)

    def submit(self, request: QueryRequest) -> QueryTicket:
        """Plan, cache-check, breaker-check, and enqueue ``request``.

        Raises synchronously: :class:`~repro.errors.ValidationError` for a
        request the resident graph cannot answer,
        :class:`~repro.errors.StaticCheckError` when admission linting is
        on and the resident network has error-severity structural
        violations, :class:`~repro.errors.CircuitOpenError` when the
        ``(kind, graph_id)`` family's breaker is shedding, and
        :class:`~repro.errors.ServiceOverloadedError` when the admission
        queue is full (unless the degradation ladder produced an answer).
        Everything downstream (deadline expiry, execution failure, worker
        death) is reported through the returned ticket's
        :class:`~repro.service.schema.QueryResult` instead.
        """
        if not self._started or self._stopped:
            raise ReproError("QueryServer is not running; use 'with QueryServer(...)'")
        with self._resident_lock:
            if request.graph_id not in self._resident_keys:
                raise ValidationError(
                    f"unknown graph or circuit {request.graph_id!r}"
                )
            resident_key = self._resident_keys[request.graph_id]
            graph = self._graphs.get(request.graph_id)
            graph_version = self._graph_versions.get(request.graph_id)
            sharded = self._sharded.get(request.graph_id)

        now = self._clock()
        cache_key = self._cache_key(request, resident_key)
        if cache_key is not None:
            hit = self._result_cache.get(cache_key)
            if hit is not None:
                with self._reg_lock:
                    self.registry.counter_inc("service.cache.result.hits")
                    self.registry.counter_inc("service.requests.accepted")
                    self.registry.counter_inc("service.requests.completed")
                ticket = QueryTicket(request, None, admitted_at=now)
                ticket.complete(
                    dataclasses.replace(
                        hit,
                        request_id=request.request_id,
                        cached=True,
                        queued_s=0.0,
                        service_s=0.0,
                    )
                )
                return ticket
            with self._reg_lock:
                self.registry.counter_inc("service.cache.result.misses")

        # Cache hits above are always served (a healthy answer is a healthy
        # answer); anything that would *execute* must pass the breaker.
        if self._breaker_policy is not None:
            breaker = self._breaker_for(request.kind, request.graph_id)
            if not breaker.allow():
                with self._reg_lock:
                    self.registry.counter_inc("service.requests.rejected")
                    self.registry.counter_inc("service.breaker.rejections")
                raise CircuitOpenError(
                    f"circuit breaker open for ({request.kind}, {request.graph_id})",
                    retry_after_s=breaker.retry_after_s(),
                    kind=request.kind,
                    graph_id=request.graph_id,
                )

        serial = False
        if request.kind in MUTATION_KINDS:
            if request.graph_id not in self._dynamic:
                raise ValidationError(
                    f"{request.kind} requires a dynamic graph; "
                    f"{request.graph_id!r} was not registered with "
                    "register_dynamic_graph"
                )
            # Writes on one graph share one serial batch key, so they apply
            # strictly in admission order and never run concurrently.
            plan = RequestPlan(
                batch_key=("mutate", request.graph_id),
                network=None,
                stimuli=[],
                faults=[],
                sim_kwargs={},
                decode=lambda results: {},
                mutation=True,
            )
            serial = True
        elif sharded is not None and _sharded_eligible(request):
            # Shard-eligible reads route through the fixpoint shard router
            # as self-executing runner plans.  The shard subnetworks are
            # the same build-cache-backed constructions the whole-graph
            # plan would lint, so admission linting is skipped here.
            from repro.service.net.shard import plan_sharded_request

            plan = plan_sharded_request(request, sharded)
        else:
            # Plan against the snapshot resolved atomically with the
            # resident key above, so the (plan, cache key, version) triple
            # is coherent even while mutations race this submit.
            graphs_view = (
                {request.graph_id: graph} if graph is not None else {}
            )
            plan = plan_request(request, graphs_view, self._circuits)
            if self._lint_admission:
                self._check_admission(request, plan, resident_key)
            if self._temporal_admission:
                self._check_temporal(request, plan, resident_key)
        deadline = None if request.deadline_s is None else now + request.deadline_s
        ticket = QueryTicket(request, plan, admitted_at=now, deadline=deadline)
        ticket.cache_key = cache_key
        ticket.graph_version = graph_version
        try:
            self._queue.offer(plan.batch_key, ticket, serial=serial)
        except ServiceOverloadedError:
            if self._degraded_serving:
                degraded = self._try_degrade(request, cache_key, now)
                if degraded is not None:
                    return degraded
            with self._reg_lock:
                self.registry.counter_inc("service.requests.rejected")
            raise
        except Exception:
            with self._reg_lock:
                self.registry.counter_inc("service.requests.rejected")
            raise
        with self._reg_lock:
            self.registry.counter_inc("service.requests.accepted")
            self.registry.gauge_set("service.queue.depth", self._queue.depth())
        return ticket

    def serve(
        self, request: QueryRequest, timeout: Optional[float] = None
    ) -> QueryResult:
        """Submit and block for the answer (the in-process convenience path)."""
        return self.submit(request).result(timeout)

    def _try_degrade(
        self, request: QueryRequest, cache_key: Optional[Tuple], now: float
    ) -> Optional[QueryTicket]:
        """The overload ladder: stale cache, then approx sssp, else ``None``.

        Both rungs answer in the submitter's thread without touching the
        (full) queue; every answer is marked ``degraded=True`` so callers
        and the differential harness can tell it from the exact path.
        """
        # Rung 1: a stale-but-in-grace cached answer for this exact query.
        if cache_key is not None:
            stale = self._result_cache.get_stale(cache_key)
            if stale is not None:
                ticket = QueryTicket(request, None, admitted_at=now)
                ticket.complete(
                    dataclasses.replace(
                        stale,
                        request_id=request.request_id,
                        cached=True,
                        stale=True,
                        degraded=True,
                        queued_s=0.0,
                        service_s=0.0,
                    )
                )
                with self._reg_lock:
                    self.registry.counter_inc("service.requests.accepted")
                    self.registry.counter_inc("service.requests.completed")
                    self.registry.counter_inc("service.requests.degraded")
                    self.registry.counter_inc("service.degraded.stale")
                return ticket
        # Rung 2: plain sssp downgrades to the Section-7 (1+eps)-approximate
        # k-hop driver, run synchronously (the submitter pays, shedding load
        # from the worker pool).  Only the exact-semantics-free shape is
        # eligible: no target/faults/watchdog/spike recording.
        if (
            request.kind == "sssp"
            and request.target is None
            and request.faults is None
            and request.watchdog is None
            and not request.record_spikes
            and request.graph_id in self._graphs
        ):
            from repro.algorithms.approx import spiking_khop_approx

            graph = self._graphs[request.graph_id]
            t0 = self._clock()
            try:
                res = spiking_khop_approx(graph, request.source, max(1, graph.n - 1))
            except Exception:
                return None  # fall through to the overload rejection
            ticket = QueryTicket(request, None, admitted_at=now)
            ticket.complete(
                QueryResult(
                    request_id=request.request_id,
                    kind=request.kind,
                    status=QueryStatus.OK,
                    dist=res.dist,
                    cost=res.cost,
                    batch_size=1,
                    queued_s=0.0,
                    service_s=self._clock() - t0,
                    degraded=True,
                )
            )
            with self._reg_lock:
                self.registry.counter_inc("service.requests.accepted")
                self.registry.counter_inc("service.requests.completed")
                self.registry.counter_inc("service.requests.degraded")
                self.registry.counter_inc("service.degraded.approx")
            return ticket
        return None

    def _check_admission(
        self, request: QueryRequest, plan: RequestPlan, resident_key: Tuple
    ) -> None:
        """Reject requests whose resident network fails the static linter.

        The report is memoized per (resident key, plan family) — one lint
        per resident graph/circuit, not per request — so the steady-state
        admission cost is a dict lookup.  Circuit residents are linted as
        feed-forward circuits (entry points = declared input groups);
        graph residents are linted structurally only, since any vertex
        neuron may be stimulated by some future query.
        """
        family = plan.batch_key[0]
        key = (resident_key, family)
        report = self._lint_cache.get(key)
        if report is None:
            if family == "circuit":
                builder, _ = self._circuits[request.graph_id]
                report = builder.lint(subject=f"resident circuit {request.graph_id!r}")
            else:
                from repro.staticcheck.rules import lint_network

                net = plan.network
                net = net.compile() if hasattr(net, "compile") else net
                report = lint_network(
                    net, subject=f"resident {request.graph_id!r} ({family})"
                )
            self._lint_cache[key] = report
            with self._reg_lock:
                self.registry.counter_inc("service.lint.checked")
        if not report.ok:
            with self._reg_lock:
                self.registry.counter_inc("service.requests.rejected")
                self.registry.counter_inc("service.lint.rejections")
            report.raise_if_errors()

    def _certified_bound(self, plan: RequestPlan) -> Optional[int]:
        """Worst-case quiescence tick of the plan's resident, or ``None``.

        The analysis stimulates *every* neuron at tick 0 — a superset of
        any stimulus a request of this family can carry, and the temporal
        lattice is monotone in the stimulus set, so one memoized bound is
        sound for the whole resident.
        """
        from repro.staticcheck.temporal import analyze_temporal

        net = plan.network
        if net is None:
            return None
        net = net.compile() if hasattr(net, "compile") else net
        try:
            analysis = analyze_temporal(net, stimulus=list(range(net.n)))
        except Exception:
            return None
        if not analysis.bounded:
            return None
        return analysis.quiescence_bound

    def _check_temporal(
        self, request: QueryRequest, plan: RequestPlan, resident_key: Tuple
    ) -> None:
        """Static time-budget admission: clamp horizons, reject deadlines.

        Runs after the structural lint.  The certified bound is memoized
        per (resident key, plan family) exactly like the lint report, so
        the steady-state cost is a dict lookup.  Fault-carrying requests
        are exempt: injected spikes violate the causation lemma the bound
        rests on.
        """
        if plan.mutation or plan.runner is not None:
            return
        if request.faults is not None:
            return
        family = plan.batch_key[0]
        key = (resident_key, family)
        if key in self._temporal_cache:
            bound = self._temporal_cache[key]
        else:
            bound = self._certified_bound(plan)
            self._temporal_cache[key] = bound
            with self._reg_lock:
                self.registry.counter_inc("service.temporal.analyzed")
        if bound is None:
            return
        max_steps = plan.sim_kwargs.get("max_steps")
        if (
            plan.sim_kwargs.get("stop_when_quiescent")
            and max_steps is not None
            and max_steps > bound
        ):
            # Sound: the engine provably reports QUIESCENT by `bound`, so
            # truncating the budget there cannot change any result.  Plans
            # sharing this batch key share the resident, hence the clamp.
            plan.sim_kwargs["max_steps"] = bound
            with self._reg_lock:
                self.registry.counter_inc("service.temporal.clamped")
        if request.deadline_s is None or self._tick_rate is None:
            return
        predicted = bound if max_steps is None else min(bound, int(max_steps))
        budget_ticks = int(request.deadline_s * self._tick_rate)
        if predicted > budget_ticks:
            with self._reg_lock:
                self.registry.counter_inc("service.requests.rejected")
                self.registry.counter_inc("service.temporal.rejections")
            raise TemporalBudgetError(
                f"certified run length of {predicted} ticks exceeds the "
                f"{budget_ticks}-tick budget of deadline_s="
                f"{request.deadline_s} at {self._tick_rate} ticks/s; "
                "rejected without simulating",
                certified_ticks=predicted,
                budget_ticks=budget_ticks,
            )

    # ------------------------------------------------------------------ #
    # Dispatch

    def _worker_run(self, state: _WorkerState) -> None:
        """Thread target: the loop plus the crash boundary the supervisor sees."""
        try:
            self._worker_loop(state)
            state.clean_exit = True
        except BaseException as exc:  # includes InjectedWorkerCrash
            state.crashed = True
            state.crash_error = f"{type(exc).__name__}: {exc}"

    def _worker_loop(self, state: _WorkerState) -> None:
        while True:
            if state.abandoned:
                return
            batch = self._queue.next_batch()
            if batch is None:
                return
            seq = next(self._batch_counter)
            with self._sup_lock:
                state.busy = True
                state.heartbeat_at = self._clock()
                state.inflight = list(batch.tickets) + list(batch.expired)
                state.batches += 1
            try:
                skew = 0.0
                if self._chaos is not None:
                    from repro.service.chaos import InjectedWorkerCrash

                    stall = self._chaos.stall_s_for(seq)
                    if stall > 0:
                        time.sleep(stall)
                    if self._chaos.crash(seq):
                        raise InjectedWorkerCrash(seq)
                    skew = self._chaos.skew_s(seq)
                now = self._clock()
                for ticket in batch.expired:
                    self._complete_timeout(ticket, now)
                if batch.tickets:
                    self._dispatch(batch.tickets, seq, skew)
            finally:
                # Serial (mutation) groups are parked while their batch is
                # in flight; release on every exit path — success, chaos
                # crash (the exception keeps propagating), anything — so a
                # dead worker can never strand a graph's write stream.
                self._queue.release(batch.key)
            with self._sup_lock:
                state.busy = False
                state.inflight = []
                state.heartbeat_at = self._clock()
            if state.abandoned:
                return

    def _complete_timeout(self, ticket: QueryTicket, now: float) -> None:
        claimed = ticket.complete(
            QueryResult(
                request_id=ticket.request.request_id,
                kind=ticket.request.kind,
                status=QueryStatus.TIMEOUT,
                queued_s=now - ticket.admitted_at,
                error=f"deadline of {ticket.request.deadline_s}s expired in queue",
                error_type="TimeoutError",
                error_code="TIMEOUT",
            )
        )
        if not claimed:
            return
        with self._reg_lock:
            self.registry.counter_inc("service.requests.timeout")
            self.registry.timer_observe(
                "service.latency.total", now - ticket.admitted_at
            )

    def _complete_error(
        self, ticket: QueryTicket, now: float, *, error: str, error_code: str
    ) -> bool:
        """Error-complete one undispatched ticket (recovery/shutdown path)."""
        claimed = ticket.complete(
            QueryResult(
                request_id=ticket.request.request_id,
                kind=ticket.request.kind,
                status=QueryStatus.ERROR,
                queued_s=now - ticket.admitted_at,
                error=error,
                error_code=error_code,
            )
        )
        if claimed:
            with self._reg_lock:
                self.registry.counter_inc("service.requests.errors")
                self.registry.timer_observe(
                    "service.latency.total", now - ticket.admitted_at
                )
        return claimed

    def _dispatch(self, tickets: List[QueryTicket], seq: int, skew: float) -> None:
        tickets = [t for t in tickets if not t.done()]  # requeue duplicates
        if not tickets:
            return
        if tickets[0].plan is not None and tickets[0].plan.mutation:
            self._dispatch_mutations(tickets, skew)
            return
        if tickets[0].plan is not None and tickets[0].plan.runner is not None:
            self._dispatch_runners(tickets, seq, skew)
            return
        dispatch_t = self._clock()
        plan0 = tickets[0].plan
        stimuli: List[Any] = []
        faults: List[Any] = []
        for t in tickets:
            t.dispatched_at = dispatch_t
            stimuli.extend(t.plan.stimuli)
            faults.extend(t.plan.faults)
        total_items = len(stimuli)

        batch_reg = MetricsRegistry("service-batch")
        error: Optional[str] = None
        error_type: Optional[str] = None
        error_code: Optional[str] = None
        results: List[Any] = []
        pool = self._process_pool
        use_pool = pool is not None and plan0.batch_key[0] in ("sssp", "khop")
        try:
            with use_registry(batch_reg):
                if use_pool:
                    # Ship the batch to a worker process holding the
                    # resident compiled network for this structure key.
                    # A WorkerProcessDied (BaseException) escapes this
                    # handler, crashes this worker thread, and hands the
                    # tickets to the supervisor's exactly-once recovery —
                    # the pool has already respawned the process.
                    if self._chaos is not None and self._chaos.kill_process(seq):
                        pool.chaos_kill_next()
                    net_key = (
                        plan0.batch_key[:3]
                        if plan0.batch_key[0] == "sssp"
                        else plan0.batch_key[:2]
                    )
                    results, raw = pool.execute(
                        net_key, plan0.network, stimuli, faults, plan0.sim_kwargs
                    )
                    batch_reg.merge_raw(raw)
                else:
                    results = simulate_batch(
                        plan0.network, stimuli, faults=faults, **plan0.sim_kwargs
                    )
        except Exception as exc:  # answer every rider, never kill the worker
            error = f"{type(exc).__name__}: {exc}"
            error_type = type(exc).__name__
            error_code, _retryable = classify_exception(exc)
        if self._chaos is not None:
            slow = self._chaos.slow_s_for(seq)
            if slow > 0:
                time.sleep(slow)

        done_t = self._clock()
        # Chaos clock skew perturbs the *telemetry* timestamps only; the
        # clamp keeps latency accounting sane under a lying clock.
        dispatch_tel = dispatch_t + skew
        offset = 0
        outcomes: List[Tuple[QueryTicket, QueryResult]] = []
        for t in tickets:
            n = t.plan.n_items
            queued_s = max(0.0, dispatch_tel - t.admitted_at)
            service_s = max(0.0, done_t - dispatch_tel)
            if error is not None:
                qr = QueryResult(
                    request_id=t.request.request_id,
                    kind=t.request.kind,
                    status=QueryStatus.ERROR,
                    batch_size=total_items,
                    queued_s=queued_s,
                    service_s=service_s,
                    error=error,
                    error_type=error_type,
                    error_code=error_code,
                )
            else:
                chunk = results[offset : offset + n]
                try:
                    with use_registry(batch_reg):
                        decoded = t.plan.decode(chunk)
                    qr = QueryResult(
                        request_id=t.request.request_id,
                        kind=t.request.kind,
                        status=QueryStatus.OK,
                        dist=decoded.get("dist"),
                        matrix=decoded.get("matrix"),
                        outputs=decoded.get("outputs"),
                        cost=decoded.get("cost"),
                        sims=chunk,
                        batch_size=total_items,
                        queued_s=queued_s,
                        service_s=service_s,
                        graph_version=t.graph_version,
                    )
                except Exception as exc:
                    code, _retryable = classify_exception(exc)
                    qr = QueryResult(
                        request_id=t.request.request_id,
                        kind=t.request.kind,
                        status=QueryStatus.ERROR,
                        batch_size=total_items,
                        queued_s=queued_s,
                        service_s=service_s,
                        error=f"{type(exc).__name__}: {exc}",
                        error_type=type(exc).__name__,
                        error_code=code,
                    )
            offset += n
            outcomes.append((t, qr))

        claimed: List[Tuple[QueryTicket, QueryResult]] = []
        for t, qr in outcomes:
            if not t.complete(qr):
                continue  # an abandoned worker lost the completion race
            claimed.append((t, qr))
            if qr.ok and t.cache_key is not None:
                # The submit-time key: pins the fill to the resident
                # version the plan was built from (see QueryTicket).
                self._result_cache.put(t.cache_key, qr)
            if self._breaker_policy is not None:
                self._breaker_for(t.request.kind, t.request.graph_id).record(qr.ok)

        with self._reg_lock:
            self.registry.merge(batch_reg)
            self.registry.counter_inc("service.batches")
            if len(tickets) > 1:
                self.registry.counter_inc("service.batches.coalesced")
            self.registry.observe("service.batch.items", total_items)
            self.registry.observe("service.batch.requests", len(tickets))
            self.registry.gauge_set("service.queue.depth", self._queue.depth())
            for _, qr in claimed:
                self._observe_completion(qr)

    def _observe_completion(self, qr: QueryResult) -> None:
        """Count one completed request and its queue/service/total latency.

        The caller holds ``_reg_lock``.
        """
        self.registry.counter_inc(
            "service.requests.completed" if qr.ok else "service.requests.errors"
        )
        self.registry.timer_observe("service.latency.queue", qr.queued_s)
        self.registry.timer_observe("service.latency.service", qr.service_s)
        self.registry.timer_observe("service.latency.total", qr.queued_s + qr.service_s)

    def _dispatch_runners(
        self, tickets: List[QueryTicket], seq: int, skew: float
    ) -> None:
        """Execute self-running plans (sharded fan-outs), one per ticket.

        Runner batch keys are per-request, so a batch normally holds one
        ticket; the loop form keeps the invariants (atomic claim, cache
        fill, breaker record, telemetry) identical to :meth:`_dispatch`
        regardless.  A :class:`~repro.service.net.procpool.WorkerProcessDied`
        escaping the runner crashes this worker thread and routes the
        tickets through the supervisor's exactly-once recovery, exactly as
        for pooled batches.
        """
        pool = self._process_pool
        if (
            pool is not None
            and self._chaos is not None
            and self._chaos.kill_process(seq)
        ):
            pool.chaos_kill_next()
        total = len(tickets)
        batch_reg = MetricsRegistry("service-batch")
        outcomes: List[Tuple[QueryTicket, QueryResult]] = []
        for t in tickets:
            dispatch_t = self._clock()
            t.dispatched_at = dispatch_t
            queued_s = max(0.0, (dispatch_t + skew) - t.admitted_at)
            try:
                with use_registry(batch_reg):
                    decoded = t.plan.runner(pool)
                qr = QueryResult(
                    request_id=t.request.request_id,
                    kind=t.request.kind,
                    status=QueryStatus.OK,
                    dist=decoded.get("dist"),
                    matrix=decoded.get("matrix"),
                    cost=decoded.get("cost"),
                    batch_size=total,
                    queued_s=queued_s,
                    service_s=max(0.0, self._clock() - dispatch_t),
                    graph_version=t.graph_version,
                )
            except Exception as exc:
                code, _retryable = classify_exception(exc)
                qr = QueryResult(
                    request_id=t.request.request_id,
                    kind=t.request.kind,
                    status=QueryStatus.ERROR,
                    batch_size=total,
                    queued_s=queued_s,
                    service_s=max(0.0, self._clock() - dispatch_t),
                    error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    error_code=code,
                )
            outcomes.append((t, qr))
        if self._chaos is not None:
            slow = self._chaos.slow_s_for(seq)
            if slow > 0:
                time.sleep(slow)

        claimed: List[Tuple[QueryTicket, QueryResult]] = []
        for t, qr in outcomes:
            if not t.complete(qr):
                continue
            claimed.append((t, qr))
            if qr.ok and t.cache_key is not None:
                self._result_cache.put(t.cache_key, qr)
            if self._breaker_policy is not None:
                self._breaker_for(t.request.kind, t.request.graph_id).record(qr.ok)

        with self._reg_lock:
            self.registry.merge(batch_reg)
            self.registry.counter_inc("service.batches")
            self.registry.counter_inc("service.batches.sharded", len(tickets))
            self.registry.gauge_set("service.queue.depth", self._queue.depth())
            for _, qr in claimed:
                self._observe_completion(qr)

    # ------------------------------------------------------------------ #
    # Mutations

    def _dispatch_mutations(self, tickets: List[QueryTicket], skew: float) -> None:
        """Apply a serial batch of writes to one dynamic graph, in order.

        Each ticket is applied individually (mutation + incremental
        recompile + snapshot publish as one atomic step under the graph's
        lock), so a failed write leaves the graph exactly as the previous
        write left it and later writes in the batch still apply.  Results
        carry the post-apply ``graph_version``.
        """
        total = len(tickets)
        for t in tickets:
            start = self._clock()
            t.dispatched_at = start
            queued_s = max(0.0, (start + skew) - t.admitted_at)
            try:
                outputs, version = self._apply_mutation(t.request)
                qr = QueryResult(
                    request_id=t.request.request_id,
                    kind=t.request.kind,
                    status=QueryStatus.OK,
                    outputs=outputs,
                    batch_size=total,
                    queued_s=queued_s,
                    service_s=max(0.0, self._clock() - start),
                    graph_version=version,
                )
            except Exception as exc:
                code, _retryable = classify_exception(exc)
                qr = QueryResult(
                    request_id=t.request.request_id,
                    kind=t.request.kind,
                    status=QueryStatus.ERROR,
                    batch_size=total,
                    queued_s=queued_s,
                    service_s=max(0.0, self._clock() - start),
                    error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    error_code=code,
                )
            if not t.complete(qr):
                continue
            if self._breaker_policy is not None:
                self._breaker_for(t.request.kind, t.request.graph_id).record(qr.ok)
            with self._reg_lock:
                self._observe_completion(qr)
                self.registry.counter_inc("service.mutations.applied" if qr.ok else "service.mutations.failed")
        with self._reg_lock:
            self.registry.counter_inc("service.batches")
            self.registry.counter_inc("service.batches.mutation")
            self.registry.gauge_set("service.queue.depth", self._queue.depth())

    def _apply_mutation(
        self, request: QueryRequest
    ) -> Tuple[Dict[str, int], int]:
        """Apply one write; returns ``(outputs, new graph version)``.

        Mutation + incremental recompile + snapshot happen under the
        graph's lock; the resident view (snapshot, resident key, version)
        swaps atomically under ``_resident_lock``; then exactly the
        superseded version's result-cache and lint-memo entries are
        dropped.  Build-cache movement (seed new key, invalidate old) is
        done inside :meth:`IncrementalRecompiler.refresh`.
        """
        gid = request.graph_id
        graph = self._dynamic[gid]
        recompiler = self._recompilers[gid]
        kind = request.kind
        with graph.lock:
            if kind == "add_node":
                node = graph.add_node()
                outputs = {"node": node}
            elif kind == "remove_node":
                dropped = graph.remove_node(request.u)
                outputs = {"node": int(request.u), "removed_edges": dropped}
            elif kind == "add_edge":
                graph.add_edge(request.u, request.v, request.weight)
                outputs = {"u": int(request.u), "v": int(request.v), "weight": int(request.weight)}
            elif kind == "remove_edge":
                graph.remove_edge(request.u, request.v)
                outputs = {"u": int(request.u), "v": int(request.v)}
            else:  # reweight — the only remaining MUTATION_KIND
                graph.reweight(request.u, request.v, request.weight)
                outputs = {"u": int(request.u), "v": int(request.v), "weight": int(request.weight)}
            recompiler.refresh()
            snap = graph.snapshot()
            version = graph.version
        with self._resident_lock:
            old_resident = self._resident_keys[gid]
            self._graphs[gid] = snap
            self._resident_keys[gid] = ("graph", snap.structure_key())
            self._graph_versions[gid] = version
        # Partial invalidation: only the superseded version's entries go.
        if self._result_cache is not None:
            self._result_cache.invalidate(old_resident)
        for key in [k for k in self._lint_cache if k[0] == old_resident]:
            self._lint_cache.pop(key, None)
        for key in [k for k in self._temporal_cache if k[0] == old_resident]:
            self._temporal_cache.pop(key, None)
        return outputs, version

    # ------------------------------------------------------------------ #
    # Supervision

    def _supervisor_loop(self) -> None:
        while not self._sup_stop.wait(self._supervise_interval_s):
            try:
                self._supervise_once()
            except Exception:
                # The watcher must outlive anything it watches; a scan
                # failure is dropped and the next tick retries.
                pass

    def _supervise_once(self) -> None:
        pool = self._process_pool
        if pool is not None:
            try:
                # Rate-limited inside the pool: respawns idle workers that
                # died between batches, pings the rest.
                pool.heartbeat()
            except Exception:
                pass
        now = self._clock()
        with self._sup_lock:
            for slot in range(self._n_workers):
                restart_at = self._slot_restart_at[slot]
                if restart_at is not None:
                    if now >= restart_at:
                        self._slot_restart_at[slot] = None
                        self._slot_restarts[slot] += 1
                        self._sup_counts["restarts"] += 1
                        self._incident("restart", slot, now)
                        self._states[slot] = self._spawn_worker_locked(slot, now)
                    continue
                state = self._states[slot]
                thread = state.thread
                if thread is None:
                    continue
                if not thread.is_alive():
                    if state.clean_exit or state.crash_handled:
                        continue
                    state.crash_handled = True
                    self._sup_counts["crashes"] += 1
                    self._incident("crash", slot, now, error=state.crash_error)
                    self._recover_inflight(state, now, error_code="WORKER_CRASH")
                    self._schedule_restart(slot, now)
                elif (
                    state.busy
                    and not state.abandoned
                    and now - state.heartbeat_at >= self._wedge_timeout_s
                ):
                    # Wedged: abandon the thread (it exits at its next loop
                    # top — or loses every completion race if it ever
                    # finishes the stuck batch) and refill the slot.
                    state.abandoned = True
                    self._sup_counts["wedged"] += 1
                    self._incident("wedge", slot, now)
                    self._recover_inflight(state, now, error_code="WORKER_WEDGED")
                    self._schedule_restart(slot, now)

    def _schedule_restart(self, slot: int, now: float) -> None:
        """Queue a capped-exponential-backoff restart for ``slot`` (lock held)."""
        restarts = self._slot_restarts[slot]
        if restarts >= self._max_restarts:
            return  # slot's restart budget is spent; stop() failsafe covers it
        backoff = min(
            self._restart_backoff_s * (2.0 ** restarts), self._restart_backoff_max_s
        )
        self._slot_restart_at[slot] = now + backoff

    def _recover_inflight(
        self, state: _WorkerState, now: float, *, error_code: str
    ) -> None:
        """Settle a dead/abandoned worker's tickets exactly once (lock held).

        Idempotent tickets inside their requeue budget go back to the front
        of their queue group; the rest are error-completed with a
        structured, retryable code.  Tickets the worker already answered
        (or that a wedged worker answers later) are skipped by the
        completion claim.
        """
        tickets, state.inflight = state.inflight, []
        # Un-park the serial groups the dead/wedged worker was holding so
        # the graph's write stream keeps moving.  (For a *wedged* worker
        # that later comes back to life, its own finally-release could
        # momentarily un-park a successor's in-flight batch; per-mutation
        # state stays consistent regardless because every apply runs under
        # the graph's own lock.)
        released = set()
        for ticket in tickets:
            if ticket.plan is not None and ticket.plan.batch_key not in released:
                released.add(ticket.plan.batch_key)
                self._queue.release(ticket.plan.batch_key)
        for ticket in tickets:
            if ticket.done():
                continue
            if ticket.expired(now):
                self._complete_timeout(ticket, now)
                continue
            if (
                ticket.plan is not None
                and ticket.request.idempotent
                and ticket.requeues < self._max_requeues
            ):
                ticket.requeues += 1
                self._sup_counts["requeued"] += 1
                self._queue.requeue(ticket.plan.batch_key, ticket)
            else:
                cause = "died" if error_code == "WORKER_CRASH" else "wedged"
                if self._complete_error(
                    ticket,
                    now,
                    error=(
                        f"worker {state.slot} {cause} mid-batch and the request's "
                        f"requeue budget is spent"
                    ),
                    error_code=error_code,
                ):
                    self._sup_counts["error_completed"] += 1

    def _incident(
        self, event: str, slot: int, now: float, *, error: Optional[str] = None
    ) -> None:
        doc: Dict[str, object] = {"t": now, "event": event, "worker": slot}
        if error:
            doc["error"] = error
        self._incidents.append(doc)
        if len(self._incidents) > _MAX_INCIDENTS:
            del self._incidents[: len(self._incidents) - _MAX_INCIDENTS]

    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """Serving metrics, queue depth, supervision, breakers, and caches."""
        with self._reg_lock:
            snap = self.registry.snapshot()
        now = self._clock()
        with self._sup_lock:
            sup: Dict[str, object] = dict(self._sup_counts)
            sup["enabled"] = self._supervise
            sup["incidents"] = [dict(ev) for ev in self._incidents]
            sup["workers"] = [
                {
                    "slot": s.slot,
                    "alive": bool(s.thread is not None and s.thread.is_alive()),
                    "busy": s.busy,
                    "abandoned": s.abandoned,
                    "restarts": self._slot_restarts[s.slot],
                    "batches": s.batches,
                    "age_s": round(now - s.started_at, 6),
                }
                for s in self._states
            ]
        out: Dict[str, object] = {
            "metrics": snap,
            "queue_depth": self._queue.depth(),
            "workers": self._n_workers,
            "graphs": self.graph_ids(),
            "circuits": sorted(self._circuits),
            "build_cache": default_build_cache.stats(),
            "supervisor": sup,
            "lint": {
                "enabled": self._lint_admission,
                "residents": {r.subject: r.ok for r in self._lint_cache.values()},
            },
            "temporal": {
                "enabled": self._temporal_admission,
                "tick_rate": self._tick_rate,
                "bounds": {
                    "/".join(str(p) for p in key): bound
                    for key, bound in sorted(
                        self._temporal_cache.items(), key=lambda kv: str(kv[0])
                    )
                },
            },
        }
        with self._breaker_lock:
            out["breakers"] = {
                f"{kind}:{graph_id}": b.snapshot()
                for (kind, graph_id), b in sorted(self._breakers.items())
            }
        if self._result_cache is not None:
            out["result_cache"] = self._result_cache.stats()
        if self._process_pool is not None:
            out["process_pool"] = self._process_pool.stats()
        with self._resident_lock:
            sharded_view = {
                gid: {"shards": sg.k, "n": sg.n, "cross_edges": sg.cross_edges}
                for gid, sg in sorted(self._sharded.items())
            }
        if sharded_view:
            out["sharded"] = sharded_view
        with self._resident_lock:
            dynamic_ids = sorted(self._dynamic)
        if dynamic_ids:
            dynamic: Dict[str, object] = {}
            for gid in dynamic_ids:
                graph = self._dynamic[gid]
                dynamic[gid] = {
                    "uid": graph.uid,
                    "version": graph.version,
                    "ops": graph.stats(),
                    "recompile": self._recompilers[gid].stats(),
                }
            out["dynamic"] = dynamic
        return out
