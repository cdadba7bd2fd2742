"""Periodic timers on a shared wheel.

The network simulator is full of strictly periodic activity: every PSN
closes a measurement interval each 10 seconds and scans its
retransmission table each second.  A :class:`PeriodicTimer` re-pushes
one bare scheduled call after each tick -- steady-state ticking costs a
single heap tuple.

Ordering note: the callback runs *before* the next occurrence is pushed,
so whatever the callback schedules draws an earlier tie-break sequence
than the timer's own next tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.engine import Simulator


class PeriodicTimer:
    """Calls ``callback()`` every ``interval_s``."""

    __slots__ = ("sim", "interval_s", "callback", "_active")

    def __init__(
        self,
        sim: "Simulator",
        interval_s: float,
        callback: Callable[[], None],
        first_fire_s: Optional[float] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.sim = sim
        self.interval_s = interval_s
        self.callback = callback
        self._active = True
        first = sim.now + interval_s if first_fire_s is None else first_fire_s
        sim._schedule_call_at(first, self._tick, ())

    def _tick(self) -> None:
        if not self._active:
            return
        self.callback()
        if self._active:
            self.sim._schedule_call_at(
                self.sim.now + self.interval_s, self._tick, ()
            )

    def cancel(self) -> None:
        """Stop firing.  The already-queued occurrence becomes a no-op."""
        self._active = False

    @property
    def active(self) -> bool:
        return self._active


class TimerWheel:
    """All of one simulator's periodic timers.

    Accessed as ``sim.timers``; exists mostly so the batch of periodic
    activity is inspectable (and cancellable) in one place.
    """

    __slots__ = ("sim", "timers")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.timers: List[PeriodicTimer] = []

    def every(
        self,
        interval_s: float,
        callback: Callable[[], None],
        first_fire_s: Optional[float] = None,
    ) -> PeriodicTimer:
        """Register a periodic callback; first fires at ``first_fire_s``
        (default: one interval from now)."""
        timer = PeriodicTimer(self.sim, interval_s, callback, first_fire_s)
        self.timers.append(timer)
        return timer

    def __len__(self) -> int:
        return len(self.timers)
