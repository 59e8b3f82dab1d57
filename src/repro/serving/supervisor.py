"""Worker supervision: heartbeat watchdog, hang detection, restart.

The supervisor owns the worker pool and a watchdog thread.  Each tick
the watchdog

1. sweeps the queue for requests whose deadline passed while queued
   (their callers get a ``timeout`` response *at* the deadline instead
   of after some eventual dispatch);
2. scans the pool for hung workers — busy with a heartbeat older than
   ``hang_timeout_s``.  A hung worker is *abandoned* (it may still wake
   up later; the flag plus the request-level exactly-once gate make its
   late output harmless), its in-flight slot in the queue is released,
   its in-flight batch is recovered, and its slot is respawned with
   ``generation + 1`` so restarts are visible and deterministic in
   count.

Batch recovery is the **requeue-exactly-once** policy, shared with the
crash path: an unresolved request whose deadline already passed is
answered ``timeout``; one that has consumed its dispatch-attempt
budget (``max_attempts``) is answered with the degraded fallback slate
(reason ``requeue_limit``) rather than looping through a third broken
dispatch; everything else goes back to the *front* of the queue, once.
Nothing is ever silently dropped: every recovered request ends in
exactly one of {requeued, timeout, degraded, shed-on-shutdown}.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from .request import TierRequest
from .worker import InferenceWorker

__all__ = ["WorkerSupervisor"]


class WorkerSupervisor:
    """Owns the worker pool and the heartbeat watchdog."""

    def __init__(self, tier, num_workers: int):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.tier = tier
        self.num_workers = num_workers
        #: Slot -> current worker.  Replaced in place on restart so the
        #: pool size is invariant.
        self.workers: List[InferenceWorker] = []
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self.tier._lock:
            for slot in range(self.num_workers):
                worker = InferenceWorker(self.tier, slot=slot, generation=0)
                self.workers.append(worker)
                worker.start()
        self._watchdog = threading.Thread(
            target=self._run_watchdog, name="repro-serving-watchdog", daemon=True
        )
        self._watchdog.start()

    def stop(self, join_timeout_s: float = 2.0) -> None:
        """Stop the watchdog and join workers (queue must be closed)."""
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(join_timeout_s)
        for worker in list(self.workers):
            worker.join(join_timeout_s)

    # ------------------------------------------------------------------
    def _run_watchdog(self) -> None:
        interval = self.tier.config.watchdog_interval_s
        while not self._stop.wait(interval):
            try:
                self.tick()
            except Exception:  # pragma: no cover - watchdog must survive
                # A watchdog that dies of its own bug would turn every
                # future hang into a lost batch; swallowing here is the
                # lesser evil (the chaos suite asserts liveness).
                pass

    def tick(self) -> None:
        """One watchdog pass: expire queued deadlines, restart hangs."""
        tier = self.tier
        now = tier._clock.now()
        for request in tier.queue.drain_expired(now):
            tier._finish_timeout(request)
        hung = []
        with tier._lock:
            for worker in self.workers:
                if worker.is_hung(now, tier.config.hang_timeout_s):
                    worker.abandoned = True
                    # A hung batch no longer counts as in flight, so
                    # its requeued requests dispatch as soon as the
                    # successor (or a sibling) looks.
                    worker.release_slot()
                    hung.append((worker, list(worker.current_batch or [])))
        for worker, batch in hung:
            tier._note_restart("hang", worker)
            self.recover(batch)
            self.respawn(worker.slot)

    # ------------------------------------------------------------------
    def recover(self, batch: List[TierRequest]) -> None:
        """Requeue-exactly-once for a failed worker's batch."""
        tier = self.tier
        now = tier._clock.now()
        requeue: List[TierRequest] = []
        for request in batch:
            if request.done:
                continue  # resolved before the failure hit
            if request.expired(now):
                tier._finish_timeout(request)
            elif request.attempts >= tier.config.max_attempts:
                tier._finish_requeue_limit(request)
            else:
                requeue.append(request)
        if not requeue:
            return
        if tier.queue.requeue(requeue):
            tier._note_requeued(requeue)
        else:
            # Shutdown closed the queue first; answer rather than drop.
            for request in requeue:
                tier._finish_shed(request, "shutdown")

    def respawn(self, slot: int) -> None:
        """Replace the worker in ``slot`` with the next generation."""
        tier = self.tier
        with tier._lock:
            if tier._closing:
                return  # draining: the pool is on its way out anyway
            old = self.workers[slot]
            worker = InferenceWorker(
                tier, slot=slot, generation=old.generation + 1
            )
            self.workers[slot] = worker
            worker.start()
