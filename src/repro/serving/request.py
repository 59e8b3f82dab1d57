"""Tier requests and responses — the exactly-once response contract.

A :class:`TierRequest` is the unit the queue, batcher, workers and
watchdog all pass around.  Its one hard invariant: :meth:`resolve`
succeeds **exactly once**.  Every later attempt (a superseded hung
worker finishing late, a watchdog racing a healthy worker) returns
False and is counted by the tier as a late result instead of reaching
the caller.  That single gate is what makes "every submitted request
receives exactly one response" provable under chaos.

Response *status* tells the control-plane story; the payload tells the
data-plane story — a shed or timed-out request can still carry the
degraded distance/popularity slate when the tier runs in
``shed_mode="degrade"``:

- ``served``   — scored by the model, clean.
- ``degraded`` — the service fell back (NaN/exception/breaker) or the
  tier exhausted its requeue budget; recommendations are tagged.
- ``shed``     — admission control refused the request (queue full,
  backpressure watermark, shutdown).
- ``timeout``  — the per-request deadline passed before a worker could
  score it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.service import Recommendation

__all__ = [
    "SERVED",
    "DEGRADED",
    "SHED",
    "TIMEOUT",
    "STATUSES",
    "TierRequest",
    "TierResponse",
]

SERVED = "served"
DEGRADED = "degraded"
SHED = "shed"
TIMEOUT = "timeout"

#: Every status a response can carry (the load generator's histogram
#: keys and the chaos suite's exhaustiveness check).
STATUSES = (SERVED, DEGRADED, SHED, TIMEOUT)


@dataclass
class TierResponse:
    """The single answer a submitted request receives."""

    status: str
    recommendations: List[Recommendation] = field(default_factory=list)
    #: Machine-readable detail for shed/timeout/degraded statuses
    #: (``queue_full``, ``backpressure``, ``shutdown``,
    #: ``deadline``, ``requeue_limit``, ...).
    reason: str = ""
    #: Seconds from submit to resolution (the caller-visible latency).
    latency_s: float = 0.0
    #: Seconds spent queued before the (final) dispatch: from the last
    #: (re)enqueue to the moment a worker took the batch, so scoring
    #: and injected dispatch delays are not in it.
    queue_wait_s: float = 0.0
    #: Size of the coalesced batch this request was served in (0 for
    #: requests that never reached a worker).
    batch_size: int = 0
    #: Dispatch attempts consumed (1 = served first try).
    attempts: int = 0
    #: Name of the worker that produced the answer ("" if none did).
    worker: str = ""

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown response status {self.status!r}")


class TierRequest:
    """One in-flight recommendation request (see module docstring)."""

    __slots__ = (
        "id", "user", "k", "exclude_visited", "submitted_at", "deadline_at",
        "enqueued_at", "dispatched_at", "attempts", "_event", "_response", "_lock",
    )

    def __init__(
        self,
        id: int,
        user: int,
        k: int,
        exclude_visited: bool,
        submitted_at: float,
        deadline_at: float,
    ):
        self.id = id
        self.user = user
        self.k = k
        self.exclude_visited = exclude_visited
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        #: Set by the queue when the request is (re)enqueued.
        self.enqueued_at = submitted_at
        #: Set by the worker when it takes the request's batch.
        self.dispatched_at = submitted_at
        #: Dispatch attempts so far (bumped by the worker at batch
        #: formation; the requeue-exactly-once budget reads this).
        self.attempts = 0
        self._event = threading.Event()
        self._response: Optional[TierResponse] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def expired(self, now: float) -> bool:
        """True once the per-request deadline has passed."""
        return now > self.deadline_at

    def resolve(self, response: TierResponse) -> bool:
        """Install the response; True only for the *first* resolver.

        Thread-safe: a superseded worker and its replacement can race
        here and exactly one wins.  Waiters are released on the first
        resolution and the losing response is discarded.
        """
        with self._lock:
            if self._response is not None:
                return False
            self._response = response
            self._event.set()
            return True

    @property
    def done(self) -> bool:
        return self._response is not None

    @property
    def response(self) -> Optional[TierResponse]:
        return self._response

    def wait(self, timeout: Optional[float] = None) -> Optional[TierResponse]:
        """Block until resolved (None only if ``timeout`` expires —
        which the tier's accounting treats as a lost request)."""
        if self._event.wait(timeout):
            return self._response
        return None

    def __repr__(self) -> str:
        state = self._response.status if self._response is not None else "pending"
        return (
            f"TierRequest(id={self.id}, user={self.user}, k={self.k}, "
            f"attempts={self.attempts}, {state})"
        )
