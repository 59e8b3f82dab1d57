"""Counters, gauges, fixed-bucket histograms and the registry.

The model follows the Prometheus data model closely enough that
:meth:`MetricsRegistry.to_prometheus` emits valid exposition text:

- a *metric family* is a name plus a type (counter/gauge/histogram);
- each family holds one child per distinct label set;
- histograms have fixed upper bounds chosen at creation time and
  export cumulative ``_bucket`` samples plus ``_sum``/``_count``.

Everything is plain python ints/floats.  Family *creation* is guarded
by one lock (the async serving tier registers metrics from several
threads); metric *mutation* stays lock-free because every writer —
the single-threaded training loop, or a serving-tier thread holding
its tier/service lock — is externally serialized.
Instrumentation sites call ``registry.counter(...).inc()`` only when
:mod:`repro.obs.state` says the layer is enabled, so the registry never
shows up on a disabled hot path.

:func:`parse_prometheus` and :meth:`MetricsRegistry.from_json` exist so
tests can round-trip both export formats instead of string-matching.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "parse_prometheus",
]

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram upper bounds (seconds) — tuned for the numpy
#: engine's serving/training stage latencies (sub-ms to seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _normalize_labels(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    pairs = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for key, _ in pairs:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return pairs


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _render_labels(pairs: LabelPairs, extra: LabelPairs = ()) -> str:
    merged = pairs + extra
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in merged)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


class Counter:
    """A monotonically increasing value (resets only via the registry)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, cache sizes)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram of observations (e.g. stage latencies).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the tail.  Per-bucket counts are stored non-cumulatively and
    rendered cumulatively for Prometheus.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelPairs = (), buckets: Iterable[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if any(b != b or b == math.inf for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


class MetricsRegistry:
    """Get-or-create home for every metric, keyed by (name, labels).

    One process-wide instance (:data:`REGISTRY`) backs all built-in
    instrumentation; tests may construct private registries.
    """

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}
        self._kinds: Dict[str, str] = {}
        self._bucket_specs: Dict[str, Tuple[float, ...]] = {}
        # Guards get-or-create only: two threads racing to register the
        # same family must agree on one metric object.  *Mutating* a
        # metric stays lock-free — concurrent writers of the same
        # metric must serialize externally (the serving tier holds its
        # own locks around every instrumented decision point).
        self._create_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Optional[Dict[str, str]], **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        pairs = _normalize_labels(labels)
        key = (name, pairs)
        metric = self._metrics.get(key)
        if metric is not None:
            known = self._kinds.get(name)
            if known is not None and known != cls.kind:
                raise ValueError(f"metric {name!r} already registered as a {known}")
            return metric
        with self._create_lock:
            known = self._kinds.get(name)
            if known is not None and known != cls.kind:
                raise ValueError(f"metric {name!r} already registered as a {known}")
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, pairs, **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
                if cls.kind == "histogram":
                    spec = self._bucket_specs.setdefault(name, metric.buckets)
                    if spec != metric.buckets:
                        raise ValueError(
                            f"histogram {name!r} re-registered with different buckets"
                        )
        return metric

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def collect(self) -> List[object]:
        """Every registered metric, ordered by (name, labels)."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def value(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[float]:
        """Current value of a counter/gauge (None when absent)."""
        metric = self._metrics.get((name, _normalize_labels(labels)))
        return None if metric is None else getattr(metric, "value", None)

    def reset(self) -> None:
        """Drop every metric (tests and the ``repro profile`` CLI)."""
        self._metrics.clear()
        self._kinds.clear()
        self._bucket_specs.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-safe snapshot (inverse of :meth:`from_json`)."""
        metrics = []
        for metric in self.collect():
            entry: dict = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": {k: v for k, v in metric.labels},
            }
            if metric.kind == "histogram":
                entry["buckets"] = list(metric.buckets)
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value
            metrics.append(entry)
        return {"metrics": metrics}

    def to_json_text(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def merge_json(self, payload: dict) -> None:
        """Fold one :meth:`to_json` snapshot into this registry.

        The data-parallel trainer collects one snapshot per worker rank
        and merges them **in rank order**, which together with these
        per-kind rules makes the merged registry deterministic for a
        fixed set of inputs:

        - counters and histogram counts/sums **add** (per-rank totals
          accumulate into fleet totals);
        - gauges take the **incoming** value (last-writer in merge
          order, i.e. the highest rank that set the gauge).
        """
        for entry in payload["metrics"]:
            labels = entry.get("labels") or None
            kind = entry["kind"]
            if kind == "counter":
                self.counter(entry["name"], labels).inc(float(entry["value"]))
            elif kind == "gauge":
                self.gauge(entry["name"], labels).set(float(entry["value"]))
            elif kind == "histogram":
                hist = self.histogram(entry["name"], labels, buckets=entry["buckets"])
                if list(hist.buckets) != [float(b) for b in entry["buckets"]]:
                    raise ValueError(
                        f"histogram {entry['name']!r} merged with different buckets"
                    )
                for index, count in enumerate(entry["counts"]):
                    hist.counts[index] += int(count)
                hist.sum += float(entry["sum"])
                hist.count += int(entry["count"])
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    @classmethod
    def from_json(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json` output."""
        registry = cls()
        for entry in payload["metrics"]:
            labels = entry.get("labels") or None
            kind = entry["kind"]
            if kind == "counter":
                registry.counter(entry["name"], labels).value = float(entry["value"])
            elif kind == "gauge":
                registry.gauge(entry["name"], labels).value = float(entry["value"])
            elif kind == "histogram":
                hist = registry.histogram(entry["name"], labels, buckets=entry["buckets"])
                hist.counts = [int(c) for c in entry["counts"]]
                hist.sum = float(entry["sum"])
                hist.count = int(entry["count"])
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        return registry

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        seen_type: set = set()
        for metric in self.collect():
            if metric.name not in seen_type:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_type.add(metric.name)
            if metric.kind == "histogram":
                for bound, cum in metric.cumulative():
                    label_str = _render_labels(metric.labels, (("le", _format_value(bound)),))
                    lines.append(f"{metric.name}_bucket{label_str} {cum}")
                label_str = _render_labels(metric.labels)
                lines.append(f"{metric.name}_sum{label_str} {_format_value(metric.sum)}")
                lines.append(f"{metric.name}_count{label_str} {metric.count}")
            else:
                label_str = _render_labels(metric.labels)
                lines.append(f"{metric.name}{label_str} {_format_value(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry every built-in instrumentation site uses.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Prometheus text parsing (for round-trip tests and post-hoc tooling)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return value.replace(r"\"", '"').replace(r"\n", "\n").replace(r"\\", "\\")


def parse_prometheus(text: str) -> Dict[Tuple[str, LabelPairs], float]:
    """Parse exposition text into ``{(sample_name, labels): value}``.

    Histogram families appear as their raw ``_bucket``/``_sum``/``_count``
    samples, exactly as exposed — which is what a scrape sees and what
    the round-trip tests compare against.
    """
    samples: Dict[Tuple[str, LabelPairs], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {raw!r}")
        label_text = match.group("labels") or ""
        pairs = tuple(
            (key, _unescape_label_value(value))
            for key, value in _LABEL_PAIR_RE.findall(label_text)
        )
        value_text = match.group("value")
        value = {"+Inf": math.inf, "-Inf": -math.inf}.get(value_text)
        if value is None:
            value = float(value_text)
        samples[(match.group("name"), tuple(sorted(pairs)))] = value
    return samples
