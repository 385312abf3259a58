"""Runtime watchdog guards for the simulation engines.

Networks with unintended excitatory cycles oscillate forever and, without a
guard, silently burn the whole ``max_steps`` budget.  A :class:`Watchdog`
arms two diagnostics in every engine (and :class:`~repro.core.session.DenseSession`):

* **runaway spike-rate detection** — if any non-exempt neuron fires at least
  ``max_spikes_per_neuron`` times within a sliding ``window`` of ticks, the
  run stops with :attr:`~repro.core.result.StopReason.RUNAWAY` and a
  :class:`WatchdogReport` naming the hottest neurons;
* **non-quiescence diagnosis** — if the tick budget is exhausted while
  activity continues, the MAX_STEPS result carries a report of the hottest
  neurons of the final window instead of failing silently.

With ``raise_on_trip=True`` the same conditions raise
:class:`~repro.errors.RunawaySpikesError` /
:class:`~repro.errors.NonQuiescenceError` instead of returning a result.

Neurons that legitimately fire every tick (clock latches, pacemakers) should
be listed in ``ignore``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = ["Watchdog", "WatchdogReport", "WatchdogState"]


@dataclass(frozen=True)
class Watchdog:
    """Configuration of the engine watchdog guards.

    Parameters
    ----------
    window:
        Length of the sliding tick window over which spike rates are
        measured (``>= 2``).
    max_spikes_per_neuron:
        Trip once some non-exempt neuron fires at least this many times
        inside one window.  Defaults to ``window // 2`` — an every-other-tick
        oscillator trips, a one-shot wavefront never does.
    top_k:
        How many of the hottest neurons the diagnostic report names.
    ignore:
        Neuron ids exempt from rate accounting (clock latches, pacemakers).
    raise_on_trip:
        Raise :class:`~repro.errors.RunawaySpikesError` /
        :class:`~repro.errors.NonQuiescenceError` instead of stopping with a
        diagnostic result.
    """

    window: int = 64
    max_spikes_per_neuron: Optional[int] = None
    top_k: int = 5
    ignore: Tuple[int, ...] = ()
    raise_on_trip: bool = False

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValidationError(f"watchdog window must be >= 2, got {self.window}")
        limit = self.effective_limit
        if not (1 <= limit <= self.window):
            raise ValidationError(
                f"max_spikes_per_neuron must be in [1, window], got {limit}"
            )
        if self.top_k < 1:
            raise ValidationError(f"top_k must be >= 1, got {self.top_k}")
        # normalize ignore to a sorted tuple so the config hashes/compares
        object.__setattr__(self, "ignore", tuple(sorted(set(int(i) for i in self.ignore))))

    @property
    def effective_limit(self) -> int:
        return (
            self.max_spikes_per_neuron
            if self.max_spikes_per_neuron is not None
            else self.window // 2
        )


@dataclass
class WatchdogReport:
    """Diagnostic emitted when a watchdog condition fires.

    ``hot`` lists the offending neurons hottest-first as
    ``(neuron id, name or None, spikes in window)``.
    """

    kind: str  # "runaway" or "non_quiescent"
    tick: int
    window: int
    hot: List[Tuple[int, Optional[str], int]] = field(default_factory=list)

    @property
    def hot_neurons(self) -> List[int]:
        """Just the offending neuron ids, hottest first."""
        return [nid for nid, _, _ in self.hot]

    def describe(self) -> str:
        what = (
            "runaway spike rate"
            if self.kind == "runaway"
            else "tick budget exhausted while the network was still active"
        )
        neurons = ", ".join(
            f"{name or f'#{nid}'} ({count} spikes)" for nid, name, count in self.hot
        )
        return (
            f"{what} at tick {self.tick} "
            f"(window={self.window}); hottest neurons: {neurons or 'none'}"
        )


class WatchdogState:
    """Per-run sliding-window spike accounting shared by every engine.

    The window is pruned by *tick value*, not by call count, so the event
    and sparse engines (which skip quiet ticks) and the dense engine (which
    visits every tick) compute identical rates.
    """

    def __init__(self, config: Watchdog, n: int, names: Iterable[Optional[str]] = ()):
        self.config = config
        self.limit = config.effective_limit
        self.counts = np.zeros(n, dtype=np.int64)
        self.entries: Deque[Tuple[int, np.ndarray]] = deque()
        self.names = tuple(names)
        self._ignore = np.zeros(n, dtype=bool)
        for nid in config.ignore:
            if 0 <= nid < n:
                self._ignore[nid] = True

    def _name_of(self, nid: int) -> Optional[str]:
        return self.names[nid] if nid < len(self.names) else None

    def _hottest(self) -> List[Tuple[int, Optional[str], int]]:
        eff = np.where(self._ignore, 0, self.counts)
        order = np.argsort(eff, kind="stable")[::-1][: self.config.top_k]
        return [
            (int(nid), self._name_of(int(nid)), int(eff[nid]))
            for nid in order
            if eff[nid] > 0
        ]

    def observe(self, t: int, ids: np.ndarray) -> Optional[WatchdogReport]:
        """Account the neurons fired at tick ``t``; report if the rate trips."""
        window = self.config.window
        while self.entries and self.entries[0][0] <= t - window:
            _, old = self.entries.popleft()
            self.counts[old] -= 1
        if ids.size == 0:
            return None
        self.entries.append((t, ids))
        self.counts[ids] += 1
        over = self.counts[ids] >= self.limit
        if over.any() and not self._ignore[ids[over]].all():
            return WatchdogReport(
                kind="runaway", tick=int(t), window=window, hot=self._hottest()
            )
        return None

    def non_quiescence(self, t: int) -> Optional[WatchdogReport]:
        """Report residual activity when the tick budget ran out, if any."""
        window = self.config.window
        while self.entries and self.entries[0][0] <= t - window:
            _, old = self.entries.popleft()
            self.counts[old] -= 1
        hot = self._hottest()
        if not hot:
            return None
        return WatchdogReport(
            kind="non_quiescent", tick=int(t), window=self.config.window, hot=hot
        )
