"""The bounded request queue and the dynamic batch former.

One condition variable guards a deque of :class:`TierRequest`.  Three
writers touch it: admission (``offer`` — refused outright when the
queue is at capacity, which is what makes shedding *explicit*), the
supervisor (``requeue`` — returns a failed worker's requests to the
*front*, above the capacity bound, because admitted work must never be
shed retroactively), and the watchdog (``drain_expired`` — sweeps out
requests whose deadline passed while queued so their callers are
answered by the deadline rather than at some eventual dispatch).

Workers pull with :meth:`next_batch` — the continuous-batching core,
and work-conserving: a full batch (``max_batch`` requests) dispatches
at once, and a partial one dispatches as soon as no other batch is in
flight.  While a batch is being scored the next one keeps filling, and
it goes when that batch finishes (:meth:`batch_done`) or when it
fills.  So an idle service never waits on a timer, and a busy one
hands its next batch everything that arrived meanwhile.

Before it forms a partial batch, a worker gives up the GIL once with
the condition released, so that submitters on other threads can
enqueue what is already due.  Without that yield an in-process sender
gets the GIL only between back-to-back small batches, and the tier
can settle into scoring a handful of requests at a time.

The dispatch rule is factored into the pure :func:`dispatch_ready` so
virtual-clock tests can pin the policy without threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import List, Optional, Sequence

from .clock import Clock
from .request import TierRequest

__all__ = ["BoundedRequestQueue", "dispatch_ready"]


def dispatch_ready(queued: int, max_batch: int, in_flight: int) -> bool:
    """Whether a worker may take a batch now: a full one always, a
    partial one only while no other batch is in flight."""
    return queued >= max_batch or (queued > 0 and in_flight == 0)


class BoundedRequestQueue:
    """Bounded FIFO of pending requests (see module docstring)."""

    def __init__(self, maxsize: int, clock: Clock):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._clock = clock
        self._items: "deque[TierRequest]" = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: Batches taken by :meth:`next_batch` and not yet released
        #: with :meth:`batch_done`.
        self._in_flight = 0
        #: High-water mark of the depth (reported by tier stats).
        self.peak_depth = 0

    # ------------------------------------------------------------------
    def depth(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def offer(self, request: TierRequest) -> bool:
        """Enqueue if there is room; False means *shed me* (queue at
        capacity or closed) — the caller owes the request a response."""
        with self._cond:
            if self._closed or len(self._items) >= self.maxsize:
                return False
            request.enqueued_at = self._clock.now()
            self._items.append(request)
            self.peak_depth = max(self.peak_depth, len(self._items))
            self._cond.notify()
            return True

    def requeue(self, requests: Sequence[TierRequest]) -> bool:
        """Return a failed worker's requests to the front of the line.

        Ignores ``maxsize`` on purpose: these requests were already
        admitted, and admitted work is never shed retroactively.  Front
        placement preserves their original ordering ahead of younger
        traffic.  False only when the queue is closed (shutdown beat
        the requeue; the supervisor resolves them instead).
        """
        with self._cond:
            if self._closed:
                return False
            now = self._clock.now()
            for request in reversed(list(requests)):
                request.enqueued_at = now
                self._items.appendleft(request)
            self.peak_depth = max(self.peak_depth, len(self._items))
            self._cond.notify_all()
            return True

    def drain_expired(self, now: float) -> List[TierRequest]:
        """Remove and return every queued request past its deadline."""
        with self._cond:
            expired = [r for r in self._items if r.expired(now)]
            if expired:
                self._items = deque(
                    r for r in self._items if not r.expired(now)
                )
            return expired

    def drain_all(self) -> List[TierRequest]:
        """Empty the queue (shutdown sweep); returns what was queued."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            return items

    # ------------------------------------------------------------------
    def next_batch(self, max_batch: int) -> Optional[List[TierRequest]]:
        """Block for the next dynamic batch (see module docstring).

        Returns None when the queue is closed and empty (the worker's
        signal to exit).  A closed queue hands out what it still holds
        without waiting.  Every batch returned counts as in flight
        until the caller releases it with :meth:`batch_done`.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        yielded = False
        with self._cond:
            while True:
                queued = len(self._items)
                if self._closed:
                    if not queued:
                        return None
                    break  # hand out what is left without waiting
                if dispatch_ready(queued, max_batch, self._in_flight):
                    if queued >= max_batch or yielded:
                        break
                    # A partial batch: let submitters on other threads
                    # enqueue first, once, then look again.
                    yielded = True
                    self._cond.release()
                    try:
                        time.sleep(0)
                    finally:
                        self._cond.acquire()
                    continue
                self._cond.wait()
            take = min(max_batch, len(self._items))
            self._in_flight += 1
            return [self._items.popleft() for _ in range(take)]

    def batch_done(self) -> None:
        """Release one in-flight batch, so a partial batch may go."""
        with self._cond:
            if self._in_flight < 1:
                raise RuntimeError("batch_done() with no batch in flight")
            self._in_flight -= 1
            self._cond.notify()

    def close(self) -> None:
        """Refuse all further traffic and wake every waiting worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
