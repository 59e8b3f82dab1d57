"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate    build a synthetic dataset and write it to CSV/JSONL/NPZ
stats       print Table II-style statistics (+ mobility summary)
train       train a model and save a checkpoint
evaluate    evaluate a checkpoint with the paper's protocol
compare     mini Table III over several models on one dataset
check       run the repo-specific static lint pass (repro.lint)
serve-bench benchmark the batched serving path across batch sizes
serve-load  drive the async serving tier (continuous batching, admission
            control, worker supervision) with a closed-loop Zipf load
profile     train + serve a small run under full observability and
            print the span tree, per-op profile and metrics

Examples
--------
python -m repro generate --profile weeplaces --scale 0.5 --out data.npz
python -m repro stats --data data.npz
python -m repro train --data data.npz --model STiSAN --epochs 10 --out model.npz
python -m repro evaluate --data data.npz --model STiSAN --checkpoint model.npz
python -m repro compare --data data.npz --models POP SASRec STiSAN
python -m repro check src
python -m repro serve-bench --data data.npz --batch-sizes 1 8 32 --num-users 64
python -m repro serve-load --scale 0.1 --clients 64 --chaos-seed 0 --expect-no-loss
python -m repro profile --scale 0.1 --epochs 1 --json-out metrics.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .analysis.trajectories import dataset_mobility_summary
from .baselines import TABLE3_MODELS, make_recommender
from .core import STiSANConfig, TrainConfig
from .data import DATASET_NAMES, load_dataset, partition
from .data.io import (
    load_dataset_snapshot,
    read_checkins_csv,
    read_checkins_jsonl,
    save_dataset,
    write_checkins_csv,
    write_checkins_jsonl,
)
from .core.service import RecommendationService
from .eval import evaluate, format_batch_sweep, sweep_service_batches
from .nn import load_checkpoint, save_checkpoint


def _load_any(path: str):
    p = Path(path)
    if p.suffix in (".npz",):
        return load_dataset_snapshot(p)
    if p.suffix in (".csv", ".tsv"):
        return read_checkins_csv(p, delimiter="\t" if p.suffix == ".tsv" else ",")
    if p.suffix in (".jsonl", ".json"):
        return read_checkins_jsonl(p)
    raise SystemExit(f"unsupported dataset format: {p.suffix}")


def cmd_generate(args) -> int:
    ds = load_dataset(args.profile, seed=args.seed, scale=args.scale)
    out = Path(args.out)
    if out.suffix == ".npz":
        save_dataset(ds, out)
    elif out.suffix == ".csv":
        write_checkins_csv(ds, out)
    elif out.suffix == ".jsonl":
        write_checkins_jsonl(ds, out)
    else:
        raise SystemExit(f"unsupported output format: {out.suffix}")
    print(f"wrote {ds.num_checkins} check-ins to {out}")
    print(f"statistics: {ds.statistics()}")
    return 0


def cmd_stats(args) -> int:
    ds = _load_any(args.data)
    print(f"dataset: {ds.name}")
    for key, value in ds.statistics().items():
        print(f"  {key:16s} {value}")
    print("mobility summary:")
    for key, value in dataset_mobility_summary(ds).items():
        print(f"  {key:32s} {value:.3f}" if isinstance(value, float) else f"  {key:32s} {value}")
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        num_negatives=args.negatives,
        temperature=args.temperature,
        seed=args.seed,
        verbose=not args.quiet,
        loss_shard_size=getattr(args, "loss_shard_size", 0),
    )


def cmd_train(args) -> int:
    ds = _load_any(args.data)
    train_examples, _ = partition(ds, n=args.max_len)
    model = make_recommender(
        args.model, ds, max_len=args.max_len, dim=args.dim, seed=args.seed,
        stisan_config=STiSANConfig.small(
            max_len=args.max_len, quadkey_level=17, quadkey_ngram=6
        ),
    )
    t0 = time.time()
    fit_kwargs = {}
    if args.workers != 1 or args.grad_shards is not None:
        if args.model != "STiSAN":
            raise SystemExit(
                "--workers/--grad-shards select the data-parallel trainer, "
                f"which only STiSAN supports; {args.model} trains single-process"
            )
        fit_kwargs["workers"] = args.workers
        if args.grad_shards is not None:
            fit_kwargs["grad_shards"] = args.grad_shards
    if args.checkpoint_dir or args.resume:
        if args.model != "STiSAN":
            raise SystemExit(
                "--checkpoint-dir/--resume require a trainer with crash-safe "
                f"checkpointing; {args.model} does not support it (use STiSAN)"
            )
        if args.resume and not args.checkpoint_dir:
            raise SystemExit("--resume requires --checkpoint-dir")
        fit_kwargs.update(
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
    model.fit(ds, train_examples, _train_config(args), **fit_kwargs)
    print(f"trained {args.model} in {time.time() - t0:.0f}s")
    if args.out:
        target = getattr(model, "model", model)  # unwrap STiSAN/GeoSAN wrappers
        if hasattr(target, "state_dict"):
            save_checkpoint(target, args.out, meta={"model": args.model, "max_len": args.max_len})
            print(f"checkpoint written to {args.out}")
        else:
            print(f"{args.model} has no parameters to checkpoint; skipping --out")
    return 0


def cmd_evaluate(args) -> int:
    ds = _load_any(args.data)
    train_examples, eval_examples = partition(ds, n=args.max_len)
    model = make_recommender(
        args.model, ds, max_len=args.max_len, dim=args.dim, seed=args.seed,
        stisan_config=STiSANConfig.small(
            max_len=args.max_len, quadkey_level=17, quadkey_ngram=6
        ),
    )
    if args.checkpoint:
        target = getattr(model, "model", model)
        load_checkpoint(target, args.checkpoint)
        if hasattr(target, "eval"):
            target.eval()
        print(f"loaded checkpoint {args.checkpoint}")
    else:
        model.fit(ds, train_examples, _train_config(args))
    report = evaluate(model, ds, eval_examples,
                      num_candidates=min(args.candidates, ds.num_pois - 1))
    print(report)
    return 0


def cmd_compare(args) -> int:
    ds = _load_any(args.data)
    train_examples, eval_examples = partition(ds, n=args.max_len)
    cfg = _train_config(args)
    for name in args.models:
        t0 = time.time()
        model = make_recommender(
            name, ds, max_len=args.max_len, dim=args.dim, seed=args.seed,
            stisan_config=STiSANConfig.small(
                max_len=args.max_len, quadkey_level=17, quadkey_ngram=6
            ),
        )
        model.fit(ds, train_examples, cfg)
        report = evaluate(model, ds, eval_examples,
                          num_candidates=min(args.candidates, ds.num_pois - 1))
        print(f"{name:10s} {report}  ({time.time() - t0:.0f}s)")
    return 0


def cmd_serve_bench(args) -> int:
    ds = _load_any(args.data)
    train_examples, _ = partition(ds, n=args.max_len)
    model = make_recommender(
        args.model, ds, max_len=args.max_len, dim=args.dim, seed=args.seed,
        stisan_config=STiSANConfig.small(
            max_len=args.max_len, quadkey_level=17, quadkey_ngram=6
        ),
    )
    if args.epochs > 0:
        model.fit(ds, train_examples, _train_config(args))
    service = RecommendationService(
        model, ds, max_len=args.max_len,
        num_candidates=min(args.candidates, ds.num_pois - 1),
        enable_caches=not args.no_cache,
    )
    users = ds.users()[: args.num_users]
    points = sweep_service_batches(
        service, users, batch_sizes=args.batch_sizes, k=args.k,
        rounds=args.rounds, warmup=args.warmup,
    )
    print(f"serving benchmark: {args.model} on {ds.name} "
          f"({len(users)} users, k={args.k}, "
          f"caches {'off' if args.no_cache else 'on'})")
    print(format_batch_sweep(points))
    if service.caches is not None:
        print(f"cache stats (last point): {service.caches}")
    return 0


def cmd_serve_load(args) -> int:
    import json as _json

    from .faults import fault_injection
    from .serving import (
        LoadGenConfig,
        ServingTier,
        TierConfig,
        run_load,
        run_serial_baseline,
    )

    if args.data:
        ds = _load_any(args.data)
    else:
        ds = load_dataset(args.profile, seed=args.seed, scale=args.scale)
    model = make_recommender(
        "STiSAN", ds, max_len=args.max_len, dim=args.dim, seed=args.seed,
        stisan_config=STiSANConfig.small(
            max_len=args.max_len, quadkey_level=17, quadkey_ngram=6
        ),
    )
    if args.epochs > 0:
        train_examples, _ = partition(ds, n=args.max_len)
        model.fit(ds, train_examples, _train_config(args))
    service = RecommendationService(
        model, ds, max_len=args.max_len,
        num_candidates=min(args.candidates, ds.num_pois - 1),
    )
    users = ds.users()[: args.num_users]
    tier_cfg = TierConfig(
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms / 1e3,
        queue_depth=args.queue_depth,
        shed_watermark=args.shed_watermark,
        deadline_s=args.deadline_ms / 1e3,
        num_workers=args.workers,
        hang_timeout_s=args.hang_timeout_ms / 1e3,
        shed_mode=args.shed_mode,
        seed=args.seed,
    )
    load_cfg = LoadGenConfig(
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        zipf_exponent=args.zipf,
        k=args.k,
        seed=args.seed,
    )
    for user in users[: min(4, len(users))]:
        service.recommend(user, k=args.k)  # warm slate/relation caches
    plan = None
    tier = ServingTier(service, tier_cfg)
    try:
        if args.chaos_seed is not None:
            chaos = fault_injection(
                dispatch_delay_rate=0.10,
                dispatch_delay_s=0.02,
                worker_crash_rate=0.05,
                worker_hang_rate=0.05,
                worker_hang_s=3.0 * tier_cfg.hang_timeout_s,
                seed=args.chaos_seed,
            )
            with chaos as plan:
                report = run_load(tier, users, load_cfg)
        else:
            report = run_load(tier, users, load_cfg)
    finally:
        tier.close()
    print(f"serve-load: STiSAN on {ds.name} "
          f"({len(users)} users, {load_cfg.clients} clients x "
          f"{load_cfg.requests_per_client} reqs, zipf s={load_cfg.zipf_exponent}, "
          f"{tier_cfg.num_workers} workers, max_batch={tier_cfg.max_batch}, "
          f"deadline={tier_cfg.deadline_s * 1e3:.0f}ms"
          + (f", chaos seed {args.chaos_seed}" if args.chaos_seed is not None else "")
          + ")")
    print(report.format())
    if plan is not None:
        injected = {f"{site}.{kind}": n for (site, kind), n in plan.counts().items() if n}
        print(f"injected      {injected or 'nothing'}")
    baseline = None
    if not args.no_baseline:
        baseline = run_serial_baseline(service, users, load_cfg)
        speedup = report.qps / max(baseline["qps"], 1e-9)
        print(f"serial        {baseline['qps']:.1f} qps  "
              f"p50={baseline['p50_ms']:.1f}ms p99={baseline['p99_ms']:.1f}ms  "
              f"->  tier speedup {speedup:.2f}x")
    if args.json_out:
        payload = {
            "tier": report.to_dict(),
            "serial": baseline,
            "snapshot": tier.snapshot(),
            "chaos_seed": args.chaos_seed,
        }
        Path(args.json_out).write_text(_json.dumps(payload, indent=2))
        print(f"report JSON written to {args.json_out}")
    if args.expect_no_loss:
        audit_ok = (
            report.lost == 0 and tier.verify_no_loss() and tier.workers_healthy()
        )
        if not audit_ok:
            print("no-loss audit: FAILED "
                  f"(lost={report.lost}, exactly_once={tier.verify_no_loss()}, "
                  f"workers_healthy={tier.workers_healthy()})")
            return 1
        print("no-loss audit: ok (every request answered exactly once, "
              "all workers healthy)")
    return 0


def cmd_profile(args) -> int:
    from . import obs
    from .core.trainer import train_stisan

    if args.data:
        ds = _load_any(args.data)
    else:
        ds = load_dataset(args.profile, seed=args.seed, scale=args.scale)
    train_examples, _ = partition(ds, n=args.max_len)
    wrapper = make_recommender(
        "STiSAN", ds, max_len=args.max_len, dim=args.dim, seed=args.seed,
        stisan_config=STiSANConfig.small(
            max_len=args.max_len, quadkey_level=17, quadkey_ngram=6
        ),
    )
    telemetry = obs.TelemetrySink(args.telemetry_out) if args.telemetry_out else None
    obs.reset()
    config = _train_config(args)
    with obs.observability(), obs.op_profile() as profile:
        train_stisan(wrapper.model, ds, train_examples, config, telemetry=telemetry)
        service = RecommendationService(
            wrapper, ds, max_len=args.max_len,
            num_candidates=min(args.candidates, ds.num_pois - 1),
        )
        users = ds.users()[: args.num_users]
        for start in range(0, len(users), args.batch_size):
            service.recommend_batch(users[start : start + args.batch_size], k=args.k)
    if telemetry is not None:
        telemetry.close()

    print(f"profile: STiSAN on {ds.name} "
          f"({config.epochs} epoch(s), {len(users)} served users)")
    print()
    print("span tree (aggregated):")
    print(obs.render_trace())
    print()
    print("op-level profile (forward self-time / exact backward):")
    print(profile.format_table(top=args.top_ops))
    print()
    print("metrics:")
    for metric in obs.REGISTRY.collect():
        if metric.kind == "histogram":
            print(f"  {metric.name}{dict(metric.labels) or ''} "
                  f"count={metric.count} sum={metric.sum:.4f}s")
        else:
            print(f"  {metric.name}{dict(metric.labels) or ''} = {metric.value:g}")
    if args.json_out:
        Path(args.json_out).write_text(obs.REGISTRY.to_json_text())
        print(f"metrics JSON written to {args.json_out}")
    if args.prom_out:
        Path(args.prom_out).write_text(obs.REGISTRY.to_prometheus())
        print(f"Prometheus text written to {args.prom_out}")
    if args.telemetry_out:
        print(f"telemetry JSONL ({telemetry.records_written} records) "
              f"written to {args.telemetry_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="STiSAN reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--profile", choices=DATASET_NAMES, default="weeplaces")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    def add_train_args(p):
        p.add_argument("--data", required=True)
        p.add_argument("--model", default="STiSAN", choices=TABLE3_MODELS)
        p.add_argument("--max-len", type=int, default=32)
        p.add_argument("--dim", type=int, default=32)
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--lr", type=float, default=3e-3)
        p.add_argument("--negatives", type=int, default=8)
        p.add_argument("--temperature", type=float, default=20.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("train", help="train a model")
    add_train_args(p)
    p.add_argument("--loss-shard-size", type=int, default=0,
                   help="rows of the flattened (batch*steps) axis per loss "
                        "shard; 0 = unsharded (gradients are bitwise "
                        "identical either way, peak loss memory is not)")
    p.add_argument("--out", help="checkpoint output path (.npz)")
    p.add_argument("--checkpoint-dir",
                   help="directory for crash-safe training checkpoints (STiSAN)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="also checkpoint every N optimizer steps (0 = epoch-end only)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest intact checkpoint in --checkpoint-dir")
    p.add_argument("--workers", type=int, default=1,
                   help="data-parallel worker processes (STiSAN; bitwise "
                        "identical results for every worker count)")
    p.add_argument("--grad-shards", type=int, default=None,
                   help="fixed logical gradient shard count (default 4); must "
                        "be a multiple of --workers and is part of the "
                        "checkpoint fingerprint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model")
    add_train_args(p)
    p.add_argument("--checkpoint", help="load parameters instead of training")
    p.add_argument("--candidates", type=int, default=100)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare several models")
    add_train_args(p)
    p.add_argument("--models", nargs="+", default=["POP", "SASRec", "STiSAN"])
    p.add_argument("--candidates", type=int, default=100)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("serve-bench", help="benchmark the batched serving path")
    add_train_args(p)
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--batch-sizes", type=int, nargs="+", default=[1, 8, 32])
    p.add_argument("--num-users", type=int, default=64)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--no-cache", action="store_true",
                   help="disable the slate/relation serving caches")
    p.set_defaults(func=cmd_serve_bench, epochs=1)

    p = sub.add_parser(
        "serve-load",
        help="drive the async serving tier with a closed-loop Zipf load "
             "and report p50/p99 latency, qps, shed rate and restarts",
    )
    add_train_args(p)
    # --data is optional here: without it a synthetic profile is generated.
    for action in p._actions:
        if action.dest == "data":
            action.required = False
            action.default = None
    p.add_argument("--profile", dest="profile", choices=DATASET_NAMES,
                   default="gowalla", help="synthetic dataset when --data is absent")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--num-users", type=int, default=64)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--clients", type=int, default=64,
                   help="closed-loop client threads")
    p.add_argument("--requests-per-client", type=int, default=10)
    p.add_argument("--zipf", type=float, default=1.3,
                   help="Zipf exponent of the request mix")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--batch-window-ms", type=float, default=1.0)
    p.add_argument("--queue-depth", type=int, default=256)
    p.add_argument("--shed-watermark", type=int, default=None,
                   help="soft queue depth above which requests are shed")
    p.add_argument("--deadline-ms", type=float, default=500.0)
    p.add_argument("--hang-timeout-ms", type=float, default=250.0)
    p.add_argument("--shed-mode", choices=["reject", "degrade"], default="reject")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="install the fault harness (dispatch delays, worker "
                        "crashes and hangs) with this seed")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the serial single-request baseline replay")
    p.add_argument("--json-out", help="write the full report as JSON")
    p.add_argument("--expect-no-loss", action="store_true",
                   help="exit 1 unless every request was answered exactly "
                        "once and all workers are healthy (CI gate)")
    p.set_defaults(func=cmd_serve_load, epochs=0, quiet=True)

    p = sub.add_parser(
        "profile",
        help="run a small instrumented train + serve pass and print the "
             "span tree, per-op profile and metrics",
    )
    add_train_args(p)
    # --data is optional here: without it a synthetic profile is generated.
    for action in p._actions:
        if action.dest == "data":
            action.required = False
            action.default = None
    p.add_argument("--profile", dest="profile", choices=DATASET_NAMES,
                   default="gowalla", help="synthetic dataset when --data is absent")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--num-users", type=int, default=32)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--top-ops", type=int, default=15,
                   help="rows in the per-op table (0 = all)")
    p.add_argument("--json-out", help="write the metrics registry as JSON")
    p.add_argument("--prom-out", help="write Prometheus exposition text")
    p.add_argument("--telemetry-out", help="write training telemetry JSONL")
    p.set_defaults(func=cmd_profile, epochs=1, quiet=True)

    # Listed for --help only: main() hands everything after "check" to
    # repro.lint's own parser before this one runs.
    sub.add_parser("check", add_help=False,
                   help="run the repo-specific static lint pass "
                   "(same arguments as python -m repro.lint)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["check"]:
        from .lint import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
