"""Inference workers: the threads that turn queued requests into
responses.

Workers share **read-only model memory** — they all hold the same
:class:`~repro.core.service.RecommendationService`, whose model call
the tier serializes behind one service lock (the numpy engine is
single-core; the pool buys *supervision and isolation*, not SIMD
parallelism: a hung or crashed worker never takes the tier down, and
injected delays/hangs overlap with healthy workers' scoring).

The run loop per worker:

1. pull a dynamic batch from the bounded queue (blocks; ``None`` means
   the queue closed — exit).  The batch holds one of the queue's
   in-flight slots until the worker releases it, which is what lets
   the next partial batch wait for this one instead of for a timer;
2. under the tier lock, stamp the batch (attempt counts, dispatch
   time, heartbeat, ``current_batch`` for the watchdog);
3. consult the fault plan: a ``delay`` stalls dispatch, a ``crash``
   raises :class:`~repro.faults.InjectedFault` (the thread dies and the
   supervisor restarts the slot), a ``hang`` sleeps through the
   injectable clock — long enough and the heartbeat watchdog declares
   this worker dead, requeues its batch and spawns a successor; the
   late riser notices it was *abandoned* and exits without touching
   its (already requeued) requests;
4. score the batch via the tier (coalescing, retry-with-backoff,
   deadline triage live there).

Every worker is a daemon thread: an abandoned hung worker can finish
its sleep long after the tier shut down without pinning the process.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from ..faults import state as _faults
from .request import TierRequest

__all__ = ["InferenceWorker"]


class InferenceWorker:
    """One supervised inference thread (see module docstring)."""

    def __init__(self, tier, slot: int, generation: int):
        self.tier = tier
        self.slot = slot
        self.generation = generation
        self.name = f"w{slot}g{generation}"
        #: Monotonic time of the last sign of life (tier clock).
        self.heartbeat = tier._clock.now()
        #: Set while a batch is being processed (None when idle).
        self.busy_since: Optional[float] = None
        #: The batch in flight, visible to the watchdog under the tier
        #: lock so a hung worker's requests can be requeued.
        self.current_batch: Optional[List[TierRequest]] = None
        #: Flipped by the supervisor when this worker is declared hung
        #: (or crashed): its results are stale, a successor owns the
        #: slot, and it must exit without resolving anything.
        self.abandoned = False
        #: True from taking a batch until :meth:`release_slot`: the
        #: queue counts the batch as in flight until then.
        self.holds_slot = False
        self.batches_done = 0
        self._thread = threading.Thread(
            target=self._run, name=f"repro-serving-{self.name}", daemon=True
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def is_hung(self, now: float, hang_timeout_s: float) -> bool:
        """Busy with a stale heartbeat (watchdog's detection rule)."""
        return (
            not self.abandoned
            and self.busy_since is not None
            and (now - self.heartbeat) > hang_timeout_s
        )

    # ------------------------------------------------------------------
    def _run(self) -> None:
        tier = self.tier
        clock = tier._clock
        cfg = tier.config
        while True:
            batch = tier.queue.next_batch(cfg.max_batch)
            if batch is None:
                break  # queue closed: clean exit
            with tier._lock:
                self.holds_slot = True
                if self.abandoned:
                    # Superseded between batches: hand the work back
                    # untouched and exit.
                    self.release_slot()
                    tier.supervisor.recover(batch)
                    return
                now = clock.now()
                self.busy_since = now
                self.heartbeat = now
                self.current_batch = batch
                for request in batch:
                    request.attempts += 1
                    request.dispatched_at = now
            try:
                self._process(batch)
            except Exception as exc:
                tier._on_worker_crash(self, batch, exc)
                return  # the supervisor restarted the slot
            finally:
                with tier._lock:
                    self.current_batch = None
                    self.busy_since = None
                    self.heartbeat = clock.now()
                    self.batches_done += 1
                    self.release_slot()
            with tier._lock:
                if self.abandoned:
                    # Declared hung mid-batch but finished anyway (a
                    # legitimately slow batch, or a hang shorter than
                    # the injected worst case).  A successor owns the
                    # slot; exactly-once resolution already protected
                    # the requests.  Exit quietly.
                    return
        tier._on_worker_exit(self)

    def release_slot(self) -> None:
        """Give back this worker's in-flight batch slot, at most once
        per batch (call under the tier lock).

        The worker releases it when its batch ends, however it ends;
        the watchdog releases it when it abandons the worker, so the
        requeued batch can dispatch at once instead of waiting on a
        hung worker that may never wake.  Whichever comes second finds
        nothing to give back.
        """
        if self.holds_slot:
            self.holds_slot = False
            self.tier.queue.batch_done()

    def _process(self, batch: List[TierRequest]) -> None:
        """Fault sites, then scoring.  May raise (worker crash)."""
        tier = self.tier
        clock = tier._clock
        plan = _faults.active_plan()
        if plan is not None:
            with tier._lock:
                # Serialize generator access across worker threads so
                # the per-site stream stays internally consistent.
                delay_s = plan.on_dispatch(len(batch))
                hang_s = plan.on_worker_batch(self.name)  # may raise
            if delay_s > 0:
                tier._note_injected_delay(delay_s)
                clock.sleep(delay_s)
                with tier._lock:
                    if self.abandoned:
                        # The watchdog declared this worker hung during
                        # the stall: batch requeued, successor running.
                        # Scoring it again would duplicate the queue's
                        # copy.  Touch nothing (mirrors the hang path).
                        return
                    self.heartbeat = clock.now()
            if hang_s > 0:
                # The hang: heartbeat goes stale on purpose.
                clock.sleep(hang_s)
                with tier._lock:
                    if self.abandoned:
                        # The watchdog got here first: batch requeued,
                        # successor running.  Touch nothing.
                        return
                    self.heartbeat = clock.now()
        tier._score_batch(self, batch)
