"""A deterministic circuit breaker for the model-scoring path.

Classic closed → open → half-open automaton, driven by request counts
alone: no clock is involved, so chaos tests replay identically.

- **closed** — requests flow to the model.  ``failure_threshold``
  consecutive model failures trip the breaker open (one success resets
  the streak).
- **open** — the model is skipped entirely; requests short-circuit to
  the degraded fallback.  After ``recovery_requests`` short-circuited
  requests the breaker moves to half-open.
- **half-open** — exactly one probe request is allowed through to the
  model.  Success closes the breaker; failure re-opens it and restarts
  the recovery countdown.

State transitions are counted in ``repro_breaker_transitions_total``
(labelled ``from``/``to``) and the current state is exported as the
``repro_breaker_state`` gauge (0=closed, 1=open, 2=half-open) when
observability is enabled.
"""

from __future__ import annotations

from ..obs import REGISTRY
from ..obs import state as _obs

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_GAUGE = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


class CircuitBreaker:
    """Request-count-driven breaker (see module docstring).

    Parameters
    ----------
    failure_threshold : consecutive model failures that trip the
        breaker open from the closed state.
    recovery_requests : short-circuited requests before a half-open
        probe.
    """

    def __init__(self, failure_threshold: int = 5, recovery_requests: int = 20):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_requests < 1:
            raise ValueError(
                f"recovery_requests must be >= 1, got {recovery_requests}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_requests = recovery_requests
        self.state = CLOSED
        self.consecutive_failures = 0
        self._short_circuited = 0

    # ------------------------------------------------------------------
    def _open(self) -> None:
        self._short_circuited = 0
        self._transition(OPEN)

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        if _obs._enabled:
            REGISTRY.counter(
                "repro_breaker_transitions_total",
                {"from": self.state, "to": new_state},
            ).inc()
            REGISTRY.gauge("repro_breaker_state").set(_STATE_GAUGE[new_state])
        self.state = new_state

    # ------------------------------------------------------------------
    def allow_request(self) -> bool:
        """Should this request reach the model?

        Must be called exactly once per request; in the open state it
        also advances the recovery countdown, and in half-open it
        admits the single probe.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            self._short_circuited += 1
            if self._short_circuited >= self.recovery_requests:
                self._transition(HALF_OPEN)
            return False
        # Half-open: this request is the probe.
        return True

    def record_success(self) -> None:
        """The model call behind an allowed request produced clean scores."""
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        """The model call failed (exception or non-finite scores)."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # Failed probe: back to open with a restarted countdown.
            self._open()
        elif self.state == CLOSED and self.consecutive_failures >= self.failure_threshold:
            self._open()

    def reset(self) -> None:
        """Force the breaker closed (administrative override)."""
        self.consecutive_failures = 0
        self._short_circuited = 0
        self._transition(CLOSED)
