"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, measured with
no wrappers installed.  ``--trace 1`` prints the per-layer metrics: it
measures half the time untraced, then wraps each layer's entry points
with timers (and runs ``repro.obs.op_profile``) for the other half, and
reports the difference as ``trace.overhead_frac``.  The last line of
standard output is the JSON result; the exit code is nonzero when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread, set before numpy loads: on a 2-core machine a second
# BLAS thread contends with the serving threads, and a barrier across
# both cores stalls whenever the host takes either one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: Set-ups per untraced run: at least the workload's ``setup_min``, and
#: more while they have taken under SETUP_BUDGET_S in total, up to
#: SETUP_MAX; ``setup_s`` is their median.
SETUP_MAX = 15
SETUP_BUDGET_S = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]

    from harness import (
        Checks, LayerTimer, SpeedProbe, instrument, machine_facts, median_of, peak_rss_mb,
        percentile, result_line, tail_percentile,
    )
    from workloads import E2E, LAYERS, SETUP_LAYERS, SETUP_TARGETS, WORKLOADS, layer_metrics

    from repro.obs import op_profile, perf_counter

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_facts(ROOT), sort_keys=True))
    checks = Checks()
    inputs = workload.inputs(args.seed)
    state = None
    try:
        if not args.trace:
            # Set-up times are scaled to the reference speed (SpeedProbe).
            probe = SpeedProbe()
            setups, first_losses = [], []
            while len(setups) < workload.setup_min or (
                len(setups) < SETUP_MAX and sum(s for _, s in setups) < SETUP_BUDGET_S
            ):
                if state is not None:
                    workload.close(state)
                    state = None
                    gc.collect()
                probe.tick()
                t0 = perf_counter()
                state = workload.setup(inputs, args.seed)
                setups.append((t0, perf_counter() - t0))
                if "first_loss" in state:
                    first_losses.append(state["first_loss"])
            checks.expect(
                len(set(first_losses)) <= 1,
                f"same-seed first-step losses differ: {sorted(set(first_losses))}",
            )
            probe.tick()
            setup_times = [probe.scaled(*setup) for setup in setups]
            m = workload.measure(state, args.seconds, checks)
            tails = [tail_percentile(r, max_q=workload.tail_q) for r in m.query_rounds]
            print(f"{workload.name}: {len(tails)} round(s) of {[n for _, _, n in tails]} "
                  f"queries, tail = p{min(q for q, _, _ in tails):g}; "
                  f"set-ups {['%.3f' % s for _, s in setups]} s "
                  f"({['%.3f' % t for t in setup_times]} s at reference speed)")
            metrics = {
                "setup_s": median_of(setup_times),
                "peak_rss_mb": peak_rss_mb(),
                "throughput_per_s": m.throughput_per_s,
                "query_p50_ms": median_of([percentile(r, 50) for r in m.query_rounds]),
                "query_tail_ms": median_of([value for _, value, _ in tails]),
            }
            attempted, failed = m.attempted, m.failed
            units = E2E
        else:
            setup_timer = LayerTimer()
            with instrument(SETUP_TARGETS, setup_timer):
                state = workload.setup(inputs, args.seed)
            plain = workload.measure(state, args.seconds / 2, checks)
            timer = LayerTimer()
            with instrument(workload.targets(state), timer), op_profile() as ops:
                traced = workload.measure(state, args.seconds / 2, checks)
            print(ops.format_table(top=20))
            metrics = layer_metrics(timer, traced)
            for layer, name in SETUP_LAYERS.items():
                calls = setup_timer.calls[layer]
                metrics[name] = setup_timer.total_s[layer] / calls if calls else 0.0
            metrics["trace.overhead_frac"] = traced.cost / plain.cost - 1.0
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            units = LAYERS
    finally:
        if state is not None:
            workload.close(state)
    print(f"checks: {checks.passed} passed, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name][0]}")
    print(result_line(
        checks.ok, attempted, failed,
        {name: (value, units[name][0]) for name, value in metrics.items()},
    ))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
