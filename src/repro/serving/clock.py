"""Injectable time sources for the serving tier.

All serving-tier timing — deadlines, dispatch stamps, heartbeats,
backoff sleeps — goes through one :class:`Clock` object handed to the
tier at construction.  Production uses :class:`MonotonicClock`, which
reads the sanctioned :func:`repro.obs.perf_counter` (a monotonic
clock), so no raw wall-clock call ever appears in serving code and the
``REPRO-DET-CLOCK`` lint stays quiet by construction.  Tests use
:class:`ManualClock` to drive the pure policy code (admission
decisions, batch formation) through virtual time,
deterministically.

``sleep`` lives here too because injected fault *delays* and *hangs*
(:mod:`repro.faults`) are scheduled by the plan but executed by the
tier — the plan itself never touches a clock.
"""

from __future__ import annotations

import time as _time

from ..obs import perf_counter as _perf_counter

__all__ = ["Clock", "MonotonicClock", "ManualClock"]


class Clock:
    """The timing interface the serving tier consumes."""

    def now(self) -> float:
        """Monotonic seconds (comparable only against this clock)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds`` (no-op when <= 0)."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real clock: ``repro.obs.perf_counter`` + ``time.sleep``."""

    def now(self) -> float:
        return _perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)


class ManualClock(Clock):
    """A virtual clock advanced explicitly by the test driving it.

    ``sleep`` advances virtual time instead of blocking, so
    single-threaded policy tests (deadline math, backoff
    schedules) replay instantly and deterministically.  It is
    *not* meant to coordinate real threads — the threaded integration
    tests use :class:`MonotonicClock` with short real timeouts.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move virtual time forward."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += seconds
