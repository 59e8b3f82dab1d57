"""Unit tests for the op-level profiler (``repro.obs.opprof``).

The profiler hooks the same ``Tensor._make`` / backward-closure seam
anomaly mode uses; these tests pin the attribution contract: forward
call counts match the ops actually executed, backward counts match the
closures actually invoked, durations are non-negative, and the hook is
gone the moment the context exits (nesting restores the outer one).
"""

import contextlib
import time

import numpy as np
import pytest

from repro import obs
from repro.nn import functional as F
from repro.nn.tensor import Tensor, set_op_profiler
from repro.obs import OpProfile, OpStat, op_profile, observability, perf_counter, span
from repro.obs.opprof import GLUE


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def tiny():
    return Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)


class TestAttribution:
    def test_forward_counts_match_ops(self):
        x = tiny()
        with op_profile() as prof:
            ((x * x) + x).sum()
        assert prof.forward["Tensor.__mul__"].calls == 1
        assert prof.forward["Tensor.__add__"].calls == 1
        assert prof.forward["Tensor.sum"].calls == 1
        assert sum(s.calls for s in prof.forward.values()) == 3
        assert prof.backward == {}

    def test_backward_counts_match_closures(self):
        x = tiny()
        with op_profile() as prof:
            loss = ((x * x) + x).sum()
            loss.backward()
        assert prof.backward["Tensor.sum"].calls == 1
        assert prof.backward["Tensor.__add__"].calls == 1
        assert prof.backward["Tensor.__mul__"].calls == 1

    def test_durations_non_negative(self):
        x = tiny()
        with op_profile() as prof:
            (x * x).sum().backward()
        for stats in (prof.forward, prof.backward):
            for stat in stats.values():
                assert stat.total_s >= 0
                assert stat.mean_s >= 0

    def test_totals_sum_over_ops(self):
        x = tiny()
        with op_profile() as prof:
            (x * x).sum().backward()
        assert prof.total_forward_s() == pytest.approx(
            sum(s.total_s for s in prof.forward.values())
        )
        assert prof.total_backward_s() == pytest.approx(
            sum(s.total_s for s in prof.backward.values())
        )

    def test_span_entry_resets_the_forward_boundary(self):
        """Work done between ops outside the graph must not inflate the
        next op when a span boundary intervenes."""
        x = tiny()
        with observability(), op_profile() as prof:
            with span("stage"):
                y = x * x
            with span("stage2"):
                y.sum()
        # Both ops attributed, one per stage; counts stay exact.
        assert prof.forward["Tensor.__mul__"].calls == 1
        assert prof.forward["Tensor.sum"].calls == 1


class TestGlue:
    @pytest.mark.parametrize("enabled", [False, True], ids=["obs-off", "obs-on"])
    def test_time_before_a_span_is_glue_not_the_next_op(self, enabled):
        """A sleep, then a span holding one embedding lookup and its
        backward: the sleep lands in ``<glue>``, the lookup reads its
        own cost, and every row together covers the traced window."""
        weight = Tensor(np.ones((50, 4), dtype=np.float32), requires_grad=True)
        switch = observability() if enabled else contextlib.nullcontext()
        with switch:
            start = perf_counter()
            with op_profile() as prof:
                time.sleep(0.05)
                with span("stage"):
                    out = F.embedding_lookup(weight, np.array([[1, 2, 3]]))
                out.sum().backward()
                end = perf_counter()
        assert prof.forward[GLUE].total_s >= 0.05
        assert prof.forward["embedding_lookup"].calls == 1
        assert prof.forward["embedding_lookup"].total_s < 0.01
        rows = prof.total_forward_s() + prof.total_backward_s()
        assert end - start - 0.005 < rows <= end - start


class TestInstallation:
    def test_hook_removed_after_exit(self):
        with op_profile():
            pass
        # Installing None must report no previous profiler.
        assert set_op_profiler(None) is None
        x = tiny()
        (x * x).sum().backward()  # runs clean without a profiler

    def test_ops_outside_the_window_are_invisible(self):
        x = tiny()
        before = x * x
        with op_profile() as prof:
            pass
        after = before.sum()
        after.backward()
        assert prof.forward == {}
        assert prof.backward == {}

    def test_nesting_restores_outer_profiler(self):
        x = tiny()
        with op_profile() as outer:
            x.sum()
            with op_profile() as inner:
                x.sum()
            x.sum()
        assert inner.forward["Tensor.sum"].calls == 1
        # The outer profiler missed the inner window only.
        assert outer.forward["Tensor.sum"].calls == 2

    def test_independent_of_metrics_switch(self):
        assert not obs.is_enabled()
        x = tiny()
        with op_profile() as prof:
            x.sum()
        assert prof.forward["Tensor.sum"].calls == 1


class TestReporting:
    def test_to_dict_is_json_shaped(self):
        x = tiny()
        with op_profile() as prof:
            (x * x).sum().backward()
        d = prof.to_dict()
        assert set(d) == {"forward", "backward"}
        assert d["forward"]["Tensor.sum"]["calls"] == 1
        assert d["backward"]["Tensor.sum"]["total_s"] >= 0

    def test_format_table_orders_and_totals(self):
        prof = OpProfile(
            forward={"cheap": OpStat(1, 0.001), "costly": OpStat(2, 1.0)},
            backward={"costly": OpStat(2, 0.5)},
        )
        table = prof.format_table()
        lines = table.splitlines()
        assert lines[1].startswith("costly")
        assert lines[-1].startswith("TOTAL")
        assert prof.format_table(top=1).count("\n") < table.count("\n")
