"""Tests for dataset I/O, the recommendation service, early stopping
and the command-line interface."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import (
    EarlyStopping,
    RecommendationService,
    STiSANConfig,
    validation_split,
)
from repro.core.checkpoint import TrainerCheckpoint
from repro.core.stisan import STiSAN
from repro.data import (
    load_dataset_snapshot,
    partition,
    read_checkins_csv,
    read_checkins_jsonl,
    save_dataset,
    write_checkins_csv,
    write_checkins_jsonl,
)
from repro.nn import Linear


class TestCsvRoundtrip:
    def test_roundtrip_preserves_structure(self, micro_dataset, tmp_path):
        path = tmp_path / "data.csv"
        rows = write_checkins_csv(micro_dataset, path)
        assert rows == micro_dataset.num_checkins
        loaded = read_checkins_csv(path)
        assert loaded.num_users == micro_dataset.num_users
        assert loaded.num_checkins == micro_dataset.num_checkins
        # Per-user sequence lengths preserved.
        for user in micro_dataset.users():
            assert len(loaded.sequences[user]) == len(micro_dataset.sequences[user])

    def test_custom_column_mapping(self, tmp_path):
        path = tmp_path / "snap.tsv"
        path.write_text("7\t1000.0\t43.5\t125.5\t42\n7\t2000.0\t43.6\t125.6\t43\n" * 10)
        ds = read_checkins_csv(
            path,
            delimiter="\t",
            has_header=False,
            columns=dict(user=0, timestamp=1, lat=2, lon=3, poi=4),
        )
        assert ds.num_users == 1
        assert ds.num_pois == 2

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            read_checkins_csv(path, columns=dict(user=0, poi=1, lat=2, lon=3))


class TestJsonlRoundtrip:
    def test_roundtrip(self, micro_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = write_checkins_jsonl(micro_dataset, path)
        assert rows == micro_dataset.num_checkins
        loaded = read_checkins_jsonl(path)
        assert loaded.num_checkins == micro_dataset.num_checkins

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"user": 1, "poi": 5, "lat": 43.0, "lon": 125.0, "timestamp": 1.0}\n'
            "\n"
            '{"user": 1, "poi": 6, "lat": 43.1, "lon": 125.1, "timestamp": 2.0}\n'
        )
        ds = read_checkins_jsonl(path)
        assert ds.num_checkins == 2


class TestSnapshot:
    def test_lossless_roundtrip(self, micro_dataset, tmp_path):
        path = tmp_path / "snap.npz"
        save_dataset(micro_dataset, path)
        loaded = load_dataset_snapshot(path)
        assert loaded.name == micro_dataset.name
        np.testing.assert_array_equal(loaded.poi_coords, micro_dataset.poi_coords)
        for user in micro_dataset.users():
            np.testing.assert_array_equal(
                loaded.sequences[user].pois, micro_dataset.sequences[user].pois
            )
            np.testing.assert_array_equal(
                loaded.sequences[user].times, micro_dataset.sequences[user].times
            )

    def test_suffix_tolerance(self, micro_dataset, tmp_path):
        save_dataset(micro_dataset, tmp_path / "snap")
        loaded = load_dataset_snapshot(tmp_path / "snap")
        assert loaded.num_users == micro_dataset.num_users


class TestRecommendationService:
    @pytest.fixture(scope="class")
    def service(self, micro_dataset):
        cfg = STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0)
        model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                       rng=np.random.default_rng(0))
        model.eval()
        return RecommendationService(model, micro_dataset, max_len=10, num_candidates=20)

    def test_recommend_shapes_and_order(self, service, micro_dataset):
        user = micro_dataset.users()[0]
        recs = service.recommend(user, k=5)
        assert 1 <= len(recs) <= 5
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)
        for r in recs:
            assert 1 <= r.poi <= micro_dataset.num_pois
            assert r.distance_km >= 0

    def test_excludes_visited_by_default(self, service, micro_dataset):
        user = micro_dataset.users()[0]
        visited = set(map(int, micro_dataset.sequences[user].pois))
        unvisited_count = micro_dataset.num_pois - len(visited)
        recs = service.recommend(user, k=5)
        if unvisited_count >= 5:
            assert not any(r.poi in visited for r in recs)

    def test_live_checkin_changes_anchor(self, service, micro_dataset):
        user = micro_dataset.users()[1]
        before = [r.poi for r in service.recommend(user, k=5)]
        session = service.session(user)
        # Check in at the POI farthest from the current anchor.
        from repro.geo import haversine

        cur = session.pois[-1]
        cur_lat, cur_lon = micro_dataset.poi_coords[cur]
        dists = haversine(
            micro_dataset.poi_coords[1:, 0], micro_dataset.poi_coords[1:, 1], cur_lat, cur_lon
        )
        far_poi = int(np.argmax(dists)) + 1
        service.check_in(user, far_poi, session.times[-1] + 3600.0)
        after = [r.poi for r in service.recommend(user, k=5)]
        assert before != after  # candidate slate moved with the user

    def test_unknown_user_requires_history(self, service):
        with pytest.raises(ValueError):
            service.recommend(999999)

    def test_out_of_order_checkin_rejected(self, service, micro_dataset):
        user = micro_dataset.users()[2]
        with pytest.raises(ValueError):
            service.check_in(user, 1, 0.0)  # far before existing history

    def test_unknown_poi_rejected(self, service, micro_dataset):
        user = micro_dataset.users()[0]
        with pytest.raises(ValueError):
            service.check_in(user, micro_dataset.num_pois + 10, 2e9)

    def test_explicit_candidate_slate(self, service, micro_dataset):
        user = micro_dataset.users()[0]
        slate = [1, 2, 3]
        recs = service.recommend(user, k=3, candidates=slate)
        assert {r.poi for r in recs} <= set(slate)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        es = EarlyStopping(patience=2)
        assert not es.update(0, 0.5)
        assert not es.update(1, 0.4)     # stale 1
        assert es.update(2, 0.45)        # stale 2 -> stop
        assert es.best_epoch == 0

    def test_improvement_resets(self):
        es = EarlyStopping(patience=2)
        es.update(0, 0.5)
        es.update(1, 0.4)
        assert not es.update(2, 0.6)
        assert es.best_epoch == 2

    def test_restores_best_snapshot(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        es = EarlyStopping(patience=1)
        es.update(0, 0.9, model=layer)
        best = layer.weight.data.copy()
        layer.weight.data = layer.weight.data + 1.0
        es.update(1, 0.1, model=layer)  # worse; snapshot not replaced
        assert es.restore_best(layer)
        np.testing.assert_array_equal(layer.weight.data, best)

    def test_restore_before_any_epoch_raises(self):
        with pytest.raises(RuntimeError, match="no validation epoch"):
            EarlyStopping().restore_best(Linear(2, 2, rng=np.random.default_rng(0)))

    def test_restore_without_snapshot(self):
        es = EarlyStopping()
        es.update(0, float("-inf"))  # epoch ran, but no snapshot was taken
        assert not es.restore_best(Linear(2, 2, rng=np.random.default_rng(0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestValidationSplit:
    def test_split_sizes(self, micro_dataset):
        train, _ = partition(micro_dataset, n=10)
        kept, val = validation_split(train, fraction=0.2, rng=np.random.default_rng(0))
        assert len(kept) + len(val) == len(train)
        assert len(val) >= 1

    def test_no_leakage(self, micro_dataset):
        """Validation targets' windows are removed from training."""
        train, _ = partition(micro_dataset, n=10)
        kept, val = validation_split(train, fraction=0.3, rng=np.random.default_rng(1))
        kept_ids = {id(e) for e in kept}
        assert len(kept_ids) == len(kept)

    def test_fraction_validation(self, micro_dataset):
        train, _ = partition(micro_dataset, n=10)
        with pytest.raises(ValueError):
            validation_split(train, fraction=0.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            validation_split([], fraction=0.5, rng=np.random.default_rng(0))


class TestCLI:
    def test_generate_stats_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        assert cli_main([
            "generate", "--profile", "changchun", "--scale", "0.15",
            "--seed", "2", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert cli_main(["stats", "--data", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "sparsity" in captured
        assert "mean_radius_of_gyration_km" in captured

    def test_generate_csv(self, tmp_path):
        out = tmp_path / "ds.csv"
        assert cli_main([
            "generate", "--profile", "changchun", "--scale", "0.15",
            "--seed", "2", "--out", str(out),
        ]) == 0
        ds = read_checkins_csv(out)
        assert ds.num_checkins > 0

    def test_train_and_evaluate_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "ds.npz"
        cli_main(["generate", "--profile", "changchun", "--scale", "0.15",
                  "--seed", "2", "--out", str(data)])
        ckpt = tmp_path / "model.npz"
        assert cli_main([
            "train", "--data", str(data), "--model", "STiSAN",
            "--epochs", "1", "--max-len", "8", "--dim", "16",
            "--quiet", "--out", str(ckpt),
        ]) == 0
        assert ckpt.exists()
        assert cli_main([
            "evaluate", "--data", str(data), "--model", "STiSAN",
            "--max-len", "8", "--dim", "16", "--quiet",
            "--checkpoint", str(ckpt), "--candidates", "30",
        ]) == 0
        assert "HR@5" in capsys.readouterr().out

    def test_train_checkpoint_dir_keeps_worker_flags(self, tmp_path):
        """--checkpoint-dir must not drop --workers/--grad-shards: the run
        stays on the data-parallel trainer, whose fingerprint carries
        grad_shards."""
        data = tmp_path / "ds.npz"
        cli_main(["generate", "--profile", "changchun", "--scale", "0.15",
                  "--seed", "2", "--out", str(data)])
        ckpt_dir = tmp_path / "ck"
        assert cli_main([
            "train", "--data", str(data), "--model", "STiSAN",
            "--epochs", "1", "--max-len", "8", "--dim", "8", "--quiet",
            "--workers", "1", "--grad-shards", "2",
            "--checkpoint-dir", str(ckpt_dir),
        ]) == 0
        ckpt, _ = TrainerCheckpoint.load_latest(ckpt_dir)
        assert ckpt.fingerprint["grad_shards"] == 2

    def test_compare(self, tmp_path, capsys):
        data = tmp_path / "ds.npz"
        cli_main(["generate", "--profile", "changchun", "--scale", "0.15",
                  "--seed", "2", "--out", str(data)])
        assert cli_main([
            "compare", "--data", str(data), "--models", "POP", "BPR",
            "--epochs", "1", "--max-len", "8", "--quiet", "--candidates", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "POP" in out and "BPR" in out

    def test_serve_bench_prints_batch_sweep(self, tmp_path, capsys):
        data = tmp_path / "ds.npz"
        cli_main(["generate", "--profile", "changchun", "--scale", "0.15",
                  "--seed", "2", "--out", str(data)])
        capsys.readouterr()
        assert cli_main([
            "serve-bench", "--data", str(data), "--epochs", "0",
            "--max-len", "8", "--dim", "8", "--num-users", "4",
            "--batch-sizes", "1", "4", "--rounds", "1", "--candidates", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving benchmark: STiSAN" in out
        assert "batch       qps  ms/query  speedup" in out
        # quantized serving is retired: its flag is an argparse error
        retired = "quantized"
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve-bench", "--data", str(data), f"--{retired}"])
        assert exc.value.code == 2

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["stats", "--data", str(tmp_path / "x.parquet")])

    def test_profile_prints_spans_ops_and_writes_exports(self, tmp_path, capsys):
        """Acceptance: ``repro profile`` shows the span tree with per-op
        forward/backward attribution, and its exports round-trip."""
        import json

        from repro.obs import MetricsRegistry, parse_prometheus, read_telemetry

        json_out = tmp_path / "metrics.json"
        prom_out = tmp_path / "metrics.prom"
        tel_out = tmp_path / "telemetry.jsonl"
        data = tmp_path / "ds.npz"
        cli_main(["generate", "--profile", "changchun", "--scale", "0.15",
                  "--seed", "2", "--out", str(data)])
        capsys.readouterr()
        assert cli_main([
            "profile", "--data", str(data), "--epochs", "1",
            "--max-len", "8", "--dim", "16", "--num-users", "6",
            "--json-out", str(json_out), "--prom-out", str(prom_out),
            "--telemetry-out", str(tel_out),
        ]) == 0
        out = capsys.readouterr().out
        # Span tree: training and serving stages, nested.
        for name in ("train.epoch", "train.batch", "train.forward",
                     "train.backward", "service.recommend_batch",
                     "service.model_forward"):
            assert name in out, f"{name} missing from span tree:\n{out}"
        # Per-op attribution table.
        assert "fwd total" in out and "bwd total" in out
        assert "matmul" in out and "TOTAL" in out
        # Exports exist and parse back.
        registry = MetricsRegistry.from_json(json.loads(json_out.read_text()))
        assert registry.value("repro_train_epochs_total") == 1
        samples = parse_prometheus(prom_out.read_text())
        assert ("repro_train_epochs_total", ()) in samples
        events = [r["event"] for r in read_telemetry(tel_out)]
        assert events[0] == "train_start" and events[-1] == "train_end"
