"""Self-tests for the benchmark's helpers.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from harness import (
    PROBE_EVERY_S,
    PROBE_STALE_S,
    PROBE_WINDOW,
    REFERENCE_PROBE_S,
    LayerTimer,
    Patcher,
    SpeedProbe,
    instrument,
    result_line,
    samples_beyond,
    tail_percentile,
    valid_metric_name,
)
from loadgen import OpenLoopResult, interpolate_max_rate, poisson_schedule

from repro.nn.tensor import Tensor

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def test_schedule_is_deterministic_for_a_seed():
    users = np.arange(1, 41)
    a = poisson_schedule(800, 1.5, users, seed=5, checkin_every=5, num_pois=300)
    b = poisson_schedule(800, 1.5, users, seed=5, checkin_every=5, num_pois=300)
    c = poisson_schedule(800, 1.5, users, seed=6, checkin_every=5, num_pois=300)
    for field in ("offsets_s", "users", "checkin_pois"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.offsets_s[:10], c.offsets_s[:10])


def test_schedule_shape():
    users = np.arange(1, 41)
    s = poisson_schedule(1000, 2.0, users, seed=1, checkin_every=5, num_pois=300)
    assert 1800 < len(s) < 2200
    assert np.all(np.diff(s.offsets_s) >= 0) and s.offsets_s[-1] < 2.0
    assert set(np.unique(s.users)) <= set(users)
    marked = s.checkin_pois != 0
    assert np.array_equal(marked, np.arange(len(s)) % 5 == 4)
    assert s.checkin_pois[marked].min() >= 1 and s.checkin_pois.max() <= 300
    # Zipf: the first-ranked user is the most frequent.
    assert np.bincount(s.users).argmax() == users[0]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, q",
    [(1000, 99.0), (999, 95.0), (10000, 99.9), (200, 95.0), (100, 90.0),
     (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    values = np.random.default_rng(n).permutation(n).astype(float)
    got_q, value, count = tail_percentile(values)
    assert (got_q, count) == (q, n)
    assert value == np.percentile(values, q)
    assert samples_beyond(n, q) >= 10
    # Every higher candidate has fewer than ten samples beyond it.
    assert all(samples_beyond(n, h) < 10 for h in (99.9, 99, 95, 90, 75, 50) if h > q)


def test_tail_respects_cap_and_rejects_tiny_samples():
    assert tail_percentile(list(range(5000)), max_q=90.0)[0] == 90.0
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)))


# ----------------------------------------------------------------------
# Layer timer and patching
# ----------------------------------------------------------------------
def test_self_time_is_parent_minus_children():
    timer = LayerTimer()
    child = timer.wrap("child", lambda: time.sleep(0.01))

    def parent_body():
        time.sleep(0.005)
        child()
        child()

    parent = timer.wrap("parent", parent_body)
    parent()
    assert timer.calls["parent"] == 1 and timer.calls["child"] == 2
    assert timer.child_s["parent"] == timer.total_s["child"]
    assert timer.self_s("parent") == timer.total_s["parent"] - timer.total_s["child"]
    assert 0.004 < timer.self_s("parent") < timer.total_s["child"]
    assert timer.self_s("child") == timer.total_s["child"]


def test_generator_wrapper_times_each_item():
    timer = LayerTimer()
    inner = timer.wrap("inner", lambda x: x)

    def gen(n):
        for i in range(n):
            yield inner(i)

    assert list(timer.wrap_generator("gen", gen)(3)) == [0, 1, 2]
    assert timer.calls["gen"] == 3 and timer.calls["inner"] == 3
    assert timer.child_s["gen"] == timer.total_s["inner"]


class _Thing:
    def method(self):
        return "class"


def test_patcher_restores_class_and_instance_attributes():
    thing = _Thing()
    original = vars(_Thing)["method"]
    timer = LayerTimer()
    with instrument([(_Thing, "method", "cls", False), (thing, "method", "inst", False)], timer) as p:
        assert p.installed == 2
        assert thing.method() == "class"
        assert timer.calls == {"cls": 1, "inst": 1}
    assert vars(_Thing)["method"] is original
    assert "method" not in vars(thing)
    with Patcher() as p:
        p.replace(thing, "extra", 1)
    assert not hasattr(thing, "extra")


# ----------------------------------------------------------------------
# Speed probe
# ----------------------------------------------------------------------
def test_speed_probe_ticks_and_scales_by_the_nearest_runs(monkeypatch):
    monkeypatch.setattr(SpeedProbe, "run", lambda self: 0.01)
    probe = SpeedProbe()
    assert len(probe.runs) == PROBE_WINDOW  # a fresh window at the start
    probe.tick()
    assert len(probe.runs) == PROBE_WINDOW  # the last run is recent

    def age(seconds):
        probe.runs = [(t - seconds, s) for t, s in probe.runs]

    age(PROBE_EVERY_S + 0.1)
    probe.tick()
    assert len(probe.runs) == PROBE_WINDOW + 1
    age(PROBE_STALE_S + 0.1)
    probe.tick()
    assert len(probe.runs) == 2 * PROBE_WINDOW + 1

    # Runs at t = 0..7 s; the speed halves from t = 3 s on.
    probe.runs = [(float(t), 1.0 if t < 3 else 2.0) for t in range(8)]
    assert probe.factor_at(0.0) == REFERENCE_PROBE_S  # [1, 1, 1, 2, 2]
    assert probe.factor_at(7.0) == REFERENCE_PROBE_S / 2.0
    # The runs nearest a time's midpoint, on both sides of it.
    assert probe.scaled(1.0, 2.0) == 2.0 * REFERENCE_PROBE_S  # runs 0-4: [1, 1, 1, 2, 2]
    assert probe.scaled(3.0, 2.0) == 2.0 * REFERENCE_PROBE_S / 2.0  # runs 2-6


# ----------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ----------------------------------------------------------------------
def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_name_is_valid():
    spec = _benchmark_json()
    names = list(workloads.E2E) + list(workloads.LAYERS)
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(workloads.E2E) | set(workloads.LAYERS)) == len(workloads.E2E) + len(workloads.LAYERS)
    for name in names:
        assert valid_metric_name(name), name
    for bad in ("", "_x", "a b", "x" * 65, "ms/s"):
        assert not valid_metric_name(bad)
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"bad name": (1.0, "ms")})


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == workloads.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == workloads.LAYERS
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_same_ranking_tolerates_only_float32_near_ties():
    same = workloads.same_ranking
    want = [(1, 0.5), (2, 0.30000001), (3, 0.3), (4, 0.1)]
    assert same(want, want)
    assert same([(1, 0.5), (3, 0.3), (2, 0.30000001), (4, 0.1)], want)  # near-tie swap
    assert same([(1, 0.5), (2, 0.3), (3, 0.3), (5, 0.1000001)], want)   # swap at the cut
    assert not same([(2, 0.30000001), (1, 0.5), (3, 0.3), (4, 0.1)], want)
    assert not same([(1, 0.5), (2, 0.3), (3, 0.3), (5, 0.2)], want)
    assert not same([(1, 0.51), (2, 0.3), (3, 0.3), (4, 0.1)], want)
    assert not same(want[:3], want)


def test_ladder_interpolation():
    def step(rate, p99, failed=0, backlog=0):
        latency = np.full(1000, p99)
        by_status = {"served": 1000 - failed, "shed": failed}
        return OpenLoopResult(rate, 1000, latency, latency, latency,
                              latency, by_status, backlog, {})

    ladder = [step(500, 10.0), step(1000, 30.0), step(2000, 70.0)]
    assert interpolate_max_rate(ladder, 50.0, 0.01) == pytest.approx(1500.0)
    assert interpolate_max_rate(ladder[:2], 50.0, 0.01) == 1000.0
    shed = [step(500, 10.0), step(1000, 20.0, failed=50)]
    assert interpolate_max_rate(shed, 50.0, 0.01) == 500.0
    backlog = [step(500, 10.0), step(1000, 20.0, backlog=51)]
    assert interpolate_max_rate(backlog, 50.0, 0.01) == 500.0


# ----------------------------------------------------------------------
# The untraced run installs no wrappers
# ----------------------------------------------------------------------
class _Probe(workloads.Workload):
    """A workload that records, during each timed phase, whether the
    layer entry points are the program's own functions."""

    name = "probe"
    tail_q = 50.0

    def __init__(self):
        self.seen = []

    def inputs(self, seed):
        return None

    def setup(self, inputs, seed):
        return {}

    def targets(self, state):
        return workloads.COMMON_TARGETS

    def measure(self, state, seconds, checks):
        self.seen.append([
            vars(owner)[attr] is ORIGINALS[(owner, attr)]
            for owner, attr, _, _ in workloads.COMMON_TARGETS
        ])
        return workloads.Measurement(
            throughput_per_s=1.0, query_rounds=[[1.0] * 20], attempted=1, failed=0,
            cost=1.0, wall_s=1.0,
        )


ORIGINALS = {(o, a): vars(o)[a] for o, a, _, _ in workloads.COMMON_TARGETS}


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    probe = _Probe()
    monkeypatch.setitem(workloads.WORKLOADS, "probe", probe)
    argv = ["--workload", "probe", "--seed", "0", "--seconds", "1"]
    assert run.main(argv + ["--trace", "0"]) == 0
    assert probe.seen == [[True] * len(workloads.COMMON_TARGETS)]
    assert run.main(argv + ["--trace", "1"]) == 0
    # Traced: the untraced half sees originals, the traced half none.
    assert probe.seen[1] == [True] * len(workloads.COMMON_TARGETS)
    assert probe.seen[2] == [False] * len(workloads.COMMON_TARGETS)
    for (owner, attr), fn in ORIGINALS.items():
        assert vars(owner)[attr] is fn
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last["metrics"]) == set(workloads.LAYERS)
    assert vars(Tensor)["backward"] is ORIGINALS[(Tensor, "backward")]
