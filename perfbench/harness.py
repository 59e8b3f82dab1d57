"""Measurement helpers shared by the workloads.

- percentiles, including the tail rule: report the highest percentile
  that has at least ten samples beyond it, with the sample count;
- :class:`LayerTimer` and :class:`Patcher`, which the traced run uses
  to wrap the public entry points of each layer with timers (the
  untraced run never creates either);
- machine facts and the result line.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import re
import resource
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def valid_metric_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def samples_needed(q: float, min_beyond: int = 10) -> int:
    """The fewest samples that put ``min_beyond`` beyond the q-th percentile."""
    n = min_beyond
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the ``q``-th percentile of ``n`` samples."""
    # Integer per-mille arithmetic: 99.9 * n / 100 must not round up.
    return n - math.ceil(n * round(q * 10) / 1000)


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10, max_q: float = 100.0
) -> Tuple[float, float, int]:
    """``(q, value, n)`` for the highest q in :data:`TAIL_PERCENTILES`,
    at most ``max_q``, with at least ``min_beyond`` of the ``n`` samples
    beyond it."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if q <= max_q and samples_beyond(n, q) >= min_beyond:
            return q, percentile(values, q), n
    raise ValueError(
        f"{n} samples support no percentile with {min_beyond} samples beyond it"
    )


#: The speed probe's median duration on an unloaded reference machine
#: (2 vCPUs, one OpenBLAS thread): its speed is the reference speed.
REFERENCE_PROBE_S = 0.046
#: The probe's two halves, each about half of REFERENCE_PROBE_S.
PROBE_NUMPY_REPS = 8
PROBE_PYTHON_ITERS = 120_000
#: The probe runs again when its last run is older than this, ...
PROBE_EVERY_S = 0.25
#: ... PROBE_WINDOW times after a gap longer than this (a long set-up).
PROBE_STALE_S = 2.0
#: A time is scaled by the median of this many probe runs nearest it.
PROBE_WINDOW = 5


class SpeedProbe:
    """A fixed kernel that measures how fast the machine runs now.

    On a shared host the speed a process gets drifts by 30-70% over
    seconds to minutes.  A timed loop calls ``tick()`` before each timed
    call and once after the loop, and then ``scaled()`` turns each time
    into the time at the reference speed: the time times the reference
    probe time over the median of the probe runs nearest it, before and
    after.  The kernel takes about equal time in its two halves, because
    the program's work is both kinds and the host slows them by
    different amounts: numpy work (one single-head attention at paper
    shape: batch 32, n = 100, d = 64, float32), and interpreter work
    (dict updates and a sort).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 100, 64)).astype(np.float32)
        self._w = (rng.standard_normal((64, 64)) / 8.0).astype(np.float32)
        self.run()  # warm-up
        #: Every probe run: (midpoint on the perf_counter clock, seconds).
        self.runs: List[Tuple[float, float]] = []
        self.tick()

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_NUMPY_REPS):
            h = self._x @ self._w
            s = (h @ h.transpose(0, 2, 1)) / 8.0
            s = np.exp(s - s.max(axis=-1, keepdims=True))
            s /= s.sum(axis=-1, keepdims=True)
            s @ h
        table: Dict[int, int] = {}
        for i in range(PROBE_PYTHON_ITERS):
            key = (i * 7919) & 4095
            table[key] = table.get(key, 0) + i
        sorted(table.values())
        return time.perf_counter() - t0

    def tick(self) -> None:
        idle = time.perf_counter() - self.runs[-1][0] if self.runs else math.inf
        if idle > PROBE_EVERY_S:
            for _ in range(PROBE_WINDOW if idle > PROBE_STALE_S else 1):
                t0 = time.perf_counter()
                seconds = self.run()
                self.runs.append((t0 + seconds / 2, seconds))

    def factor_at(self, t: float) -> float:
        nearest = sorted(self.runs, key=lambda run: abs(run[0] - t))[:PROBE_WINDOW]
        return REFERENCE_PROBE_S / median_of([seconds for _, seconds in nearest])

    def scaled(self, t0: float, seconds: float) -> float:
        """``seconds`` measured from ``t0``, at the reference speed."""
        return seconds * self.factor_at(t0 + seconds / 2)

    def summary(self) -> str:
        t = [seconds for _, seconds in self.runs]
        return (
            f"speed probe: {len(t)} runs, median {1e3 * median_of(t):.1f} ms "
            f"(reference {1e3 * REFERENCE_PROBE_S:.1f} ms), "
            f"range {1e3 * min(t):.1f}-{1e3 * max(t):.1f} ms"
        )


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux: the process high-water mark.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerTimer:
    """Calls, inclusive time and child time per layer name.

    Each wrapper pushes a child-time accumulator on a per-thread stack,
    so the time a wrapped call spends inside other wrapped calls is
    known and a layer's self time is its inclusive time minus that.
    Thread-local stacks keep the serving workers' calls apart.
    """

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.child_s: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.calls[layer] += 1
            self.total_s[layer] += elapsed
            self.child_s[layer] += child

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, t0)

        return timed

    def wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """Time each ``next()`` of the generators ``fn`` returns."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    self._stack().pop()
                    return
                except BaseException:
                    self._exit(layer, t0)
                    raise
                self._exit(layer, t0)
                yield item

        return timed

    def self_s(self, layer: str) -> float:
        return self.total_s[layer] - self.child_s[layer]

    def mean_ms(self, layer: str, self_only: bool = False) -> float:
        calls = self.calls[layer]
        if not calls:
            return 0.0
        total = self.self_s(layer) if self_only else self.total_s[layer]
        return 1e3 * total / calls


class Patcher:
    """Replaces attributes and puts every original back on restore."""

    def __init__(self):
        self._undo: List[Tuple[object, str, bool, object]] = []

    @property
    def installed(self) -> int:
        return len(self._undo)

    def replace(self, owner: object, attr: str, value: object) -> None:
        own = vars(owner)
        had = attr in own
        self._undo.append((owner, attr, had, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


#: One wrapping: (owner, attribute, layer name, is_generator).  The
#: owner is a module, a class (every instance is timed) or an instance.
Target = Tuple[object, str, str, bool]


def instrument(targets: Iterable[Target], timer: LayerTimer) -> Patcher:
    """Wrap every target with ``timer``; the caller restores the patcher."""
    patcher = Patcher()
    for owner, attr, layer, generator in targets:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrap = timer.wrap_generator if generator else timer.wrap
        patcher.replace(owner, attr, wrap(layer, original))
    return patcher


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: Path) -> Dict[str, object]:
    import scipy  # the program's other runtime dependency

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> str:
    for name, (value, _) in metrics.items():
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


class Checks:
    """Named correctness checks; any failure fails the run."""

    def __init__(self):
        self.failures: List[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def median_of(values: Sequence[float]) -> float:
    if not len(values):
        raise ValueError("no values")
    return float(np.median(np.asarray(values, dtype=np.float64)))
