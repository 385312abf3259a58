"""SNN construction: a mutable builder and a frozen array-backed compilation.

:class:`Network` is the user-facing builder (append-only Python lists, named
neurons, O(1) per call).  :meth:`Network.compile` freezes it into a
:class:`CompiledNetwork` of contiguous NumPy arrays (CSR synapse layout by
source neuron) that the engines consume — the hot simulation loops never see
Python objects, per the vectorization guidance in the HPC notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.lif import DEFAULT_DELTA, NeuronParams
from repro.errors import ValidationError

__all__ = ["Network", "CompiledNetwork"]

NeuronRef = Union[int, str]


class Network:
    """Mutable spiking-neural-network builder (paper Definition 3).

    Neurons are integer ids assigned in creation order; an optional unique
    string name may be attached for readability in circuits and tests.
    Synapses are directed, with real weight and integer delay
    ``>= DEFAULT_DELTA``.  Cycles and self-loops are permitted.

    Examples
    --------
    >>> net = Network()
    >>> a = net.add_neuron("a")
    >>> b = net.add_neuron("b", v_threshold=0.5)
    >>> net.add_synapse(a, b, weight=1.0, delay=3)
    >>> net.n_neurons, net.n_synapses
    (2, 1)
    """

    def __init__(self) -> None:
        self._params: List[NeuronParams] = []
        self._names: List[Optional[str]] = []
        self._name_to_id: Dict[str, int] = {}
        self._syn_src: List[int] = []
        self._syn_dst: List[int] = []
        self._syn_w: List[float] = []
        self._syn_d: List[int] = []
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.terminal: Optional[int] = None
        self._compiled: Optional[CompiledNetwork] = None

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #

    @property
    def n_neurons(self) -> int:
        return len(self._params)

    @property
    def n_synapses(self) -> int:
        return len(self._syn_src)

    def add_neuron(
        self,
        name: Optional[str] = None,
        *,
        v_reset: float = 0.0,
        v_threshold: float = 0.5,
        tau: float = 0.0,
        one_shot: bool = False,
        params: Optional[NeuronParams] = None,
    ) -> int:
        """Add one neuron; returns its id.

        Either pass individual parameters or a prebuilt ``params`` (not
        both).
        """
        if params is None:
            params = NeuronParams(
                v_reset=v_reset, v_threshold=v_threshold, tau=tau, one_shot=one_shot
            )
        nid = len(self._params)
        if name is not None:
            if name in self._name_to_id:
                raise ValidationError(f"duplicate neuron name {name!r}")
            self._name_to_id[name] = nid
        self._params.append(params)
        self._names.append(name)
        self._compiled = None
        return nid

    def add_neurons(self, count: int, **kwargs) -> List[int]:
        """Add ``count`` identical anonymous neurons; returns their ids."""
        return [self.add_neuron(**kwargs) for _ in range(count)]

    def resolve(self, ref: NeuronRef) -> int:
        """Map a neuron id or name to its id."""
        if isinstance(ref, str):
            try:
                return self._name_to_id[ref]
            except KeyError:
                raise ValidationError(f"unknown neuron name {ref!r}") from None
        nid = int(ref)
        if not (0 <= nid < len(self._params)):
            raise ValidationError(f"neuron id {nid} out of range")
        return nid

    def add_synapse(
        self,
        src: NeuronRef,
        dst: NeuronRef,
        *,
        weight: float = 1.0,
        delay: int = DEFAULT_DELTA,
    ) -> None:
        """Add a directed synapse.  Delay must be an integer ``>= 1``."""
        if not math.isfinite(delay) or int(delay) != delay or delay < DEFAULT_DELTA:
            raise ValidationError(
                f"synapse delay must be an integer >= {DEFAULT_DELTA}, got {delay}"
            )
        if not math.isfinite(weight):
            raise ValidationError(f"synapse weight must be finite, got {weight}")
        self._syn_src.append(self.resolve(src))
        self._syn_dst.append(self.resolve(dst))
        self._syn_w.append(float(weight))
        self._syn_d.append(int(delay))
        self._compiled = None

    def mark_input(self, ref: NeuronRef) -> None:
        self.inputs.append(self.resolve(ref))

    def mark_output(self, ref: NeuronRef) -> None:
        self.outputs.append(self.resolve(ref))

    def set_terminal(self, ref: NeuronRef) -> None:
        """Designate the terminal neuron ``u_t`` whose first spike ends the run."""
        self.terminal = self.resolve(ref)

    def name_of(self, nid: int) -> Optional[str]:
        return self._names[nid]

    def params_of(self, nid: int) -> NeuronParams:
        return self._params[nid]

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def compile(self, *, sparse: bool = False) -> "CompiledNetwork":
        """Freeze into contiguous arrays; cached until the builder mutates.

        With ``sparse=True`` the per-delay CSR artifact of
        :mod:`repro.core.sparse` is built (and memoized on the compiled
        network) as well, so the first sparse-engine run pays no compile
        cost.
        """
        if self._compiled is None:
            self._compiled = CompiledNetwork._from_builder(self)
        if sparse:
            self._compiled.to_sparse()
        return self._compiled


@dataclass
class CompiledNetwork:
    """Frozen array representation consumed by the simulation engines.

    Synapses are stored CSR-by-source: the out-synapses of neuron ``i`` are
    the slice ``indptr[i]:indptr[i+1]`` of ``syn_dst`` / ``syn_weight`` /
    ``syn_delay``.
    """

    n: int
    v_reset: np.ndarray
    v_threshold: np.ndarray
    tau: np.ndarray
    one_shot: np.ndarray
    indptr: np.ndarray
    syn_dst: np.ndarray
    syn_weight: np.ndarray
    syn_delay: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    terminal: Optional[int] = None
    names: Sequence[Optional[str]] = field(default_factory=tuple)

    @property
    def m(self) -> int:
        return int(self.syn_dst.size)

    @property
    def n_neurons(self) -> int:
        return int(self.n)

    @property
    def n_synapses(self) -> int:
        return self.m

    def compile(self, *, sparse: bool = False) -> "CompiledNetwork":
        """Already compiled; returns ``self``.

        Makes :class:`CompiledNetwork` a drop-in wherever a
        :class:`Network` builder is accepted (``net.compile()`` call sites,
        ``plan.net.n_neurons`` accounting), which is what lets the
        incremental recompiler of :mod:`repro.dynamic` seed the build cache
        with patched compiled networks directly.  ``sparse=True``
        additionally builds (and memoizes) the per-delay CSR artifact.
        """
        if sparse:
            self.to_sparse()
        return self

    def __getstate__(self) -> dict:
        """Pickle without the memoized sparse artifact.

        The per-delay CSR artifact (:meth:`to_sparse`) is a derived cache
        stashed on the instance; shipping it to a worker process would
        multiply pipe traffic for a structure the receiver can rebuild on
        first use.  Dropping it keeps compiled-network handoff slim and
        leaves the unpickled copy semantically identical.  The last run's
        profile (four ints, see :func:`repro.core.run.choose_engine`) is
        kept, so a network shipped to a worker dispatches from its first
        run there as it would here.
        """
        state = dict(self.__dict__)
        state.pop("_sparse_artifact", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def to_sparse(self):
        """The per-delay CSR artifact of this network (built on demand).

        Delegates to :func:`repro.core.sparse.sparse_compile`, which
        memoizes the result on this instance; see
        :class:`repro.core.sparse.SparseCompiledNetwork`.
        """
        from repro.core.sparse import sparse_compile

        return sparse_compile(self)

    @property
    def density(self) -> float:
        """Synapse density ``m / n^2`` (0.0 for an empty network)."""
        if self.n == 0:
            return 0.0
        return self.m / float(self.n) / float(self.n)

    @property
    def max_delay(self) -> int:
        return int(self.syn_delay.max()) if self.m else DEFAULT_DELTA

    @property
    def has_pacemakers(self) -> bool:
        return bool(np.any(self.v_reset > self.v_threshold))

    @property
    def has_decay(self) -> bool:
        return bool(np.any(self.tau > 0.0))

    @classmethod
    def _from_builder(cls, net: Network) -> "CompiledNetwork":
        n = net.n_neurons
        params = net._params
        v_reset = np.fromiter((p.v_reset for p in params), dtype=np.float64, count=n)
        v_threshold = np.fromiter(
            (p.v_threshold for p in params), dtype=np.float64, count=n
        )
        tau = np.fromiter((p.tau for p in params), dtype=np.float64, count=n)
        one_shot = np.fromiter((p.one_shot for p in params), dtype=bool, count=n)
        src = np.asarray(net._syn_src, dtype=np.int64)
        order = np.argsort(src, kind="stable")
        syn_dst = np.asarray(net._syn_dst, dtype=np.int64)[order]
        syn_weight = np.asarray(net._syn_w, dtype=np.float64)[order]
        syn_delay = np.asarray(net._syn_d, dtype=np.int64)[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if src.size:
            np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(
            n=n,
            v_reset=v_reset,
            v_threshold=v_threshold,
            tau=tau,
            one_shot=one_shot,
            indptr=indptr,
            syn_dst=syn_dst,
            syn_weight=syn_weight,
            syn_delay=syn_delay,
            inputs=np.asarray(sorted(set(net.inputs)), dtype=np.int64),
            outputs=np.asarray(sorted(set(net.outputs)), dtype=np.int64),
            terminal=net.terminal,
            names=tuple(net._names),
        )

    def out_synapses(self, nid: int) -> slice:
        return slice(int(self.indptr[nid]), int(self.indptr[nid + 1]))

    def gather_out_synapses(self, ids: np.ndarray) -> np.ndarray:
        """Indices of all out-synapses of the given neurons, vectorized.

        Equivalent to concatenating ``range(indptr[i], indptr[i+1])`` per id,
        built without a Python-level loop (repeat + cumulative offsets).
        """
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.indptr[ids]
        counts = self.indptr[ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # offset of each output element within its neuron's synapse run
        run_starts = np.cumsum(counts) - counts
        offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        return np.repeat(starts, counts) + offsets
