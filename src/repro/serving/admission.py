"""Admission control: the explicit load-shedding policy.

Overload is a first-class outcome, not an accident: every submit is
either *admitted* into the bounded queue or *shed* with a
machine-readable reason, decided here.  The policy is a pure function
of observable state (queue depth, capacity, watermark, shutdown flag)
so virtual-clock unit tests enumerate it exhaustively.

Shed reasons, in evaluation order:

- ``shutdown``     — the tier is draining; no new work.
- ``queue_full``   — the bounded queue is at capacity (hard limit).
- ``backpressure`` — depth crossed the soft watermark; shed *before*
  the hard limit so the queue keeps headroom for requeued work.

The circuit breaker is not consulted here: its request-count recovery
is advanced by the queued traffic itself, so shedding on an open
breaker would wedge it open.

What a shed request *receives* is the tier's choice (``shed_mode``):
``reject`` answers immediately with an empty payload; ``degrade``
serves the PR 4 distance/popularity fallback slate, tagged, so callers
that can tolerate staleness still get POIs under overload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    admit: bool
    reason: str = ""

    ADMITTED = None  # populated below


AdmissionDecision.ADMITTED = AdmissionDecision(admit=True)


class AdmissionController:
    """Pure shed/admit policy (see module docstring).

    Parameters
    ----------
    capacity : the queue's hard bound (mirrors the queue's maxsize —
        the queue itself is still the authority via ``offer``).
    shed_watermark : soft depth bound; None disables the soft check.
    """

    def __init__(self, capacity: int, shed_watermark: Optional[int] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if shed_watermark is not None and not 1 <= shed_watermark <= capacity:
            raise ValueError(
                f"shed_watermark must be in [1, {capacity}], got {shed_watermark}"
            )
        self.capacity = capacity
        self.shed_watermark = shed_watermark

    def decide(self, depth: int, closing: bool) -> AdmissionDecision:
        """Admit or shed one request given the current tier state."""
        if closing:
            return AdmissionDecision(admit=False, reason="shutdown")
        if depth >= self.capacity:
            return AdmissionDecision(admit=False, reason="queue_full")
        if self.shed_watermark is not None and depth >= self.shed_watermark:
            return AdmissionDecision(admit=False, reason="backpressure")
        return AdmissionDecision.ADMITTED
