"""A one-thread open-loop generator for :class:`repro.serving.ServingTier`.

Arrivals follow a seeded Poisson process and users a Zipf law, so the
schedule is a pure function of the seed.  One thread sends every
request at its due time whether or not earlier ones were answered.
Each request is timed from when it was *due*, so a stall that delays
the generator is charged to the requests behind it, and the generator's
own lateness (send time minus due time) is recorded separately.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.obs import perf_counter
from repro.serving import ServingTier, zipf_schedule
from repro.serving.request import SERVED

from harness import tail_percentile


@dataclass
class Schedule:
    """Due offsets (s), user ids and check-in POIs (0 = none) per request."""

    offsets_s: np.ndarray
    users: np.ndarray
    checkin_pois: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets_s)


def poisson_schedule(
    rate: float,
    duration_s: float,
    users: np.ndarray,
    seed: int,
    zipf_exponent: float = 1.1,
    checkin_every: int = 0,
    num_pois: int = 0,
) -> Schedule:
    """Seeded Poisson arrivals at ``rate``/s for ``duration_s`` seconds.

    With ``checkin_every = m > 0`` every m-th request is preceded by a
    check-in of the same user at a uniformly drawn POI in ``[1, num_pois]``.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be positive")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * duration_s))
    offsets = np.sort(rng.uniform(0.0, duration_s, size=n))
    picks = zipf_schedule(len(users), n, exponent=zipf_exponent, seed=seed + 1)
    checkins = np.zeros(n, dtype=np.int64)
    if checkin_every:
        marked = np.arange(n) % checkin_every == checkin_every - 1
        checkins[marked] = rng.integers(1, num_pois + 1, size=int(marked.sum()))
    return Schedule(offsets, np.asarray(users)[picks], checkins)


@dataclass
class OpenLoopResult:
    """What one rate step measured."""

    rate: float
    sent: int
    #: Latency from due time, served requests only.
    latency_ms: np.ndarray
    #: Send time minus due time, every request.
    late_ms: np.ndarray
    queue_wait_ms: np.ndarray
    batch_sizes: np.ndarray
    by_status: Dict[str, int]
    #: Requests still unanswered when the last one was sent.
    backlog_at_end: int
    #: Each user's last request, for the slate-equality check.
    last_request: Dict[int, object]

    @property
    def failed(self) -> int:
        return self.sent - self.by_status.get(SERVED, 0)


def send(tier: ServingTier, schedule: Schedule, i: int, last_times: Dict[int, float]):
    """Submit request ``i``, after its user's check-in when it has one;
    ``last_times`` holds each user's latest check-in time."""
    user = int(schedule.users[i])
    poi = int(schedule.checkin_pois[i])
    if poi:
        last_times[user] += 600.0
        tier.check_in(user, poi, last_times[user])
    return tier.submit(user, k=10)


def run_open_loop(
    tier: ServingTier,
    schedule: Schedule,
    last_times: Dict[int, float],
    rate: float,
    max_backlog: int = 0,
    wait_timeout_s: float = 30.0,
) -> OpenLoopResult:
    """Send ``schedule`` into ``tier`` from this thread, then wait for
    every answer.  ``last_times`` holds each user's latest check-in
    time and is advanced by the check-ins sent.

    With ``max_backlog > 0`` the step stops sending once more requests
    than that are unanswered: the step is unsustainable already, and
    stopping keeps the tier from shedding.
    """
    n = len(schedule)
    due = np.empty(n)
    late = np.empty(n)
    handles = []
    start = perf_counter() + 0.005
    for i in range(n):
        if max_backlog and i % 16 == 0 and tier.outstanding() > max_backlog:
            break
        due_at = start + schedule.offsets_s[i]
        wait = due_at - perf_counter()
        if wait > 0:
            time.sleep(wait)
        due[i] = due_at
        late[i] = perf_counter() - due_at
        handles.append(send(tier, schedule, i, last_times))
    backlog = tier.outstanding()
    n = len(handles)
    due, late = due[:n], late[:n]
    latency, queue_wait, batch_sizes = [], [], []
    by_status: Dict[str, int] = {}
    last_request: Dict[int, object] = {}
    for i, handle in enumerate(handles):
        response = handle.wait(wait_timeout_s)
        if response is None:
            by_status["lost"] = by_status.get("lost", 0) + 1
            continue
        by_status[response.status] = by_status.get(response.status, 0) + 1
        if response.status == SERVED:
            done_at = handle.submitted_at + response.latency_s
            latency.append(done_at - due[i])
            queue_wait.append(response.queue_wait_s)
            batch_sizes.append(response.batch_size)
        last_request[handle.user] = (handle, response)
    return OpenLoopResult(
        rate=rate,
        sent=n,
        latency_ms=1e3 * np.asarray(latency),
        late_ms=1e3 * late,
        queue_wait_ms=1e3 * np.asarray(queue_wait),
        batch_sizes=np.asarray(batch_sizes),
        by_status=by_status,
        backlog_at_end=backlog,
        last_request=last_request,
    )


def run_closed_window(
    tier: ServingTier,
    schedule: Schedule,
    last_times: Dict[int, float],
    window: int,
    refill: int,
    seconds: float,
    wait_timeout_s: float = 30.0,
) -> Dict[str, float]:
    """Send ``schedule`` in order as fast as the tier answers, keeping
    between ``window - refill`` and ``window`` requests outstanding,
    until ``seconds`` have passed.  Refilling ``refill`` at a time lets
    the sender sleep through whole batches instead of waking per answer.

    This is the tier's capacity: the completion rate with the batcher
    never starved, including the drain of the last window.
    """
    pending = deque()
    by_status: Dict[str, int] = {}

    def settle(handle) -> None:
        response = handle.wait(wait_timeout_s)
        status = "lost" if response is None else response.status
        by_status[status] = by_status.get(status, 0) + 1

    start = perf_counter()
    sent = 0
    while sent < len(schedule) and perf_counter() - start < seconds:
        if len(pending) >= window:
            while len(pending) > window - refill:
                settle(pending.popleft())
        pending.append(send(tier, schedule, sent, last_times))
        sent += 1
    while pending:
        settle(pending.popleft())
    served = by_status.get(SERVED, 0)
    return {"rate": served / (perf_counter() - start), "sent": sent, "failed": sent - served}


def step_p99(step: OpenLoopResult) -> float:
    """The step's p99 from due time, or the highest percentile below it
    that has ten samples beyond it (infinite when none does)."""
    try:
        return tail_percentile(step.latency_ms)[1]
    except ValueError:
        return float("inf")


def step_passes(step: OpenLoopResult, p99_limit_ms: float, fail_limit: float) -> bool:
    """Whether a rate step is sustainable: p99 (from due time) within
    the limit, at most ``fail_limit`` of its requests failed, and the
    backlog left when the last request was sent no larger than the
    limit allows (``rate * limit``, by Little's law)."""
    return (
        step_p99(step) <= p99_limit_ms
        and step.failed <= fail_limit * step.sent
        and step.backlog_at_end <= step.rate * p99_limit_ms / 1e3
    )


def interpolate_max_rate(
    steps: List[OpenLoopResult], p99_limit_ms: float, fail_limit: float
) -> float:
    """The highest sustainable rate on a ladder, interpolated.

    Between the last passing step and the first failing one the rate
    is interpolated linearly in p99, so the result moves smoothly
    instead of jumping from step to step.  A failing first step gives
    0; a ladder that passes throughout gives its top rate.
    """
    best, prev = 0.0, None
    for step in steps:
        p99 = step_p99(step)
        if not step_passes(step, p99_limit_ms, fail_limit):
            if prev is not None and prev[1] < p99_limit_ms < p99:
                frac = (p99_limit_ms - prev[1]) / (p99 - prev[1])
                best = prev[0] + frac * (step.rate - prev[0])
            return best
        best, prev = step.rate, (step.rate, p99)
    return best
