"""Opt-in op-level profiler over the ``repro.nn`` autograd op boundary.

Every primitive op in :mod:`repro.nn.tensor` funnels through
``Tensor._make`` on the forward pass and through its ``backward``
closure during ``Tensor.backward`` — the same seam
:mod:`repro.nn.anomaly` uses for NaN checking.  :class:`op_profile`
installs a hook on that seam and attributes wall time per op type
(``softmax``, ``matmul``, ``Tensor.__mul__``, ...):

- **backward** time is exact: each closure invocation is timed.
- **forward** time is *self time between op boundaries*: the numpy
  compute of an op runs immediately before its ``_make`` call, so the
  interval since the previous boundary is attributed to it.  Python
  glue between ops lands in the next op's bucket.  Stage spans
  (:func:`repro.obs.spans.span`, enabled or not) mark a boundary on
  entry and charge the interval before it to the ``<glue>`` row, as do
  the gaps between backward closures, so non-op work before a stage is
  never charged to its first op and the rows sum to the traced time.

The profiler is opt-in and independent of the metrics/spans switch —
``with op_profile() as prof:`` costs nothing when not active (hot
paths pay one ``is not None`` check, exactly like anomaly mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..nn.anomaly import op_name_of
from ..nn.tensor import set_op_profiler
from .state import perf_counter

__all__ = ["GLUE", "OpStat", "OpProfile", "op_profile"]

#: The forward row holding time outside any op: the interval before
#: each span entry and the gaps between backward closures.
GLUE = "<glue>"

#: The installed profiler, if any (read by spans for boundary marks).
_active: "Optional[op_profile]" = None


@dataclass
class OpStat:
    """Accumulated calls and wall time for one op type in one phase."""

    calls: int = 0
    total_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


@dataclass
class OpProfile:
    """Per-op forward/backward attribution collected by :class:`op_profile`."""

    forward: Dict[str, OpStat] = field(default_factory=dict)
    backward: Dict[str, OpStat] = field(default_factory=dict)

    def total_forward_s(self) -> float:
        return sum(stat.total_s for stat in self.forward.values())

    def total_backward_s(self) -> float:
        return sum(stat.total_s for stat in self.backward.values())

    def to_dict(self) -> dict:
        return {
            phase: {
                name: {"calls": stat.calls, "total_s": stat.total_s}
                for name, stat in sorted(stats.items())
            }
            for phase, stats in (("forward", self.forward), ("backward", self.backward))
        }

    def format_table(self, top: int = 0) -> str:
        """Aligned per-op table, most expensive first (0 = all rows)."""
        lines: List[str] = [
            f"{'op':<28s} {'fwd calls':>9s} {'fwd total':>10s} "
            f"{'bwd calls':>9s} {'bwd total':>10s}"
        ]
        names = sorted(
            set(self.forward) | set(self.backward),
            key=lambda n: -(
                self.forward.get(n, OpStat()).total_s
                + self.backward.get(n, OpStat()).total_s
            ),
        )
        if top:
            names = names[:top]
        for name in names:
            fwd = self.forward.get(name, OpStat())
            bwd = self.backward.get(name, OpStat())
            lines.append(
                f"{name:<28s} {fwd.calls:>9d} {fwd.total_s * 1e3:>8.2f}ms "
                f"{bwd.calls:>9d} {bwd.total_s * 1e3:>8.2f}ms"
            )
        lines.append(
            f"{'TOTAL':<28s} {sum(s.calls for s in self.forward.values()):>9d} "
            f"{self.total_forward_s() * 1e3:>8.2f}ms "
            f"{sum(s.calls for s in self.backward.values()):>9d} "
            f"{self.total_backward_s() * 1e3:>8.2f}ms"
        )
        return "\n".join(lines)


class op_profile:
    """Context manager installing the op-boundary profiler.

    >>> with op_profile() as prof:
    ...     loss = model.forward_train(...)
    ...     loss.backward()
    >>> print(prof.format_table())

    Re-entrant: nesting installs the inner profiler and restores the
    outer one on exit (each sees only its own window).
    """

    def __init__(self):
        self.profile = OpProfile()
        self._last = 0.0

    # -- hook protocol (called from repro.nn.tensor hot paths) ---------
    def on_forward(self, backward_closure) -> None:
        now = perf_counter()
        name = op_name_of(backward_closure)
        stat = self.profile.forward.get(name)
        if stat is None:
            stat = self.profile.forward[name] = OpStat()
        stat.calls += 1
        stat.total_s += now - self._last
        self._last = now

    def record_backward(self, backward_closure, elapsed: float) -> None:
        now = perf_counter()
        self._glue(now - elapsed)
        name = op_name_of(backward_closure)
        stat = self.profile.backward.get(name)
        if stat is None:
            stat = self.profile.backward[name] = OpStat()
        stat.calls += 1
        stat.total_s += elapsed
        self._last = now

    def mark(self) -> None:
        """Mark a boundary (span entries): the time since the previous
        one goes to the ``<glue>`` row."""
        now = perf_counter()
        self._glue(now)
        self._last = now

    def _glue(self, until: float) -> None:
        stat = self.profile.forward.get(GLUE)
        if stat is None:
            stat = self.profile.forward[GLUE] = OpStat()
        stat.calls += 1
        stat.total_s += max(0.0, until - self._last)

    # -- installation --------------------------------------------------
    def __enter__(self) -> OpProfile:
        global _active  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
        self._prev = _active
        self._prev_tensor = set_op_profiler(self)
        _active = self
        self._last = perf_counter()
        return self.profile

    def __exit__(self, *exc) -> bool:
        global _active  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
        _active = self._prev
        set_op_profiler(self._prev_tensor)
        return False
