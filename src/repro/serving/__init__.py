"""``repro.serving`` — the overload-safe async request tier above
:class:`~repro.core.service.RecommendationService`.

``recommend_batch`` (PR 2) batches only what one caller hands it.  This
package is the layer real traffic needs on top:

- a **bounded request queue** with per-request deadlines
  (:mod:`repro.serving.queue`), fed through **admission control**
  (:mod:`repro.serving.admission`) that sheds load explicitly —
  reject-fast, or serve the PR 4 distance/popularity degraded slate,
  tagged — instead of melting;
- a **dynamic batcher**: concurrent requests coalesce into batches,
  a full one dispatched at once and a partial one as soon as no other
  batch is in flight, with duplicate (user, k) requests in a batch
  served by one model row (Zipf-shaped traffic dedupes heavily);
- a **worker pool** (:mod:`repro.serving.worker`) sharing read-only
  model memory, supervised by a heartbeat **watchdog**
  (:mod:`repro.serving.supervisor`) that detects hung or crashed
  workers, restarts them deterministically, and requeues their
  in-flight requests exactly once;
- **graceful shutdown** that drains the queue before exit, and
  first-class failure accounting: every submitted request receives
  exactly one response — served, degraded, shed or timed out, never
  silently dropped.

Every decision point (admit / shed / timeout / retry / restart /
drain) is instrumented with :mod:`repro.obs` counters and spans, and
exposed to :mod:`repro.faults` (dispatch ``delay``, worker ``crash``,
worker ``hang``) so the chaos CI can prove recovery.  The closed-loop
:mod:`repro.serving.loadgen` (``repro serve-load`` on the CLI) drives
a Zipf request mix against the tier and reports p50/p99 latency, qps,
shed rate and restart counts.
"""

from .admission import AdmissionController, AdmissionDecision
from .clock import Clock, ManualClock, MonotonicClock
from .loadgen import (
    LoadGenConfig,
    LoadReport,
    run_load,
    run_serial_baseline,
    zipf_schedule,
)
from .queue import BoundedRequestQueue
from .request import DEGRADED, SERVED, SHED, TIMEOUT, TierRequest, TierResponse
from .supervisor import WorkerSupervisor
from .tier import ServingTier, TierConfig
from .worker import InferenceWorker

__all__ = [
    "ServingTier",
    "TierConfig",
    "TierRequest",
    "TierResponse",
    "SERVED",
    "DEGRADED",
    "SHED",
    "TIMEOUT",
    "BoundedRequestQueue",
    "AdmissionController",
    "AdmissionDecision",
    "InferenceWorker",
    "WorkerSupervisor",
    "Clock",
    "MonotonicClock",
    "ManualClock",
    "LoadGenConfig",
    "LoadReport",
    "run_load",
    "run_serial_baseline",
    "zipf_schedule",
]
