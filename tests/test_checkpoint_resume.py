"""Crash-safe training resume: killed and resumed runs are **bitwise
identical** to uninterrupted ones.

The headline property: train a model, crash it (via the fault
harness's ``crash_at_step``) right after a checkpoint lands, resume
from disk in a fresh process-equivalent (fresh model object, fresh
RNGs), and compare against the same-seed uninterrupted run — final
parameters equal to the last bit, loss curves equal, and the two
telemetry streams concatenating into the uninterrupted stream modulo
timestamps.
"""

import numpy as np
import pytest

from repro.core import STiSANConfig, TrainConfig
from repro.core.checkpoint import TrainerCheckpoint, checkpoint_paths
from repro.core.stisan import STiSAN
from repro.core.trainer import train_stisan
from repro.data import partition
from repro.faults import SimulatedCrash, fault_injection
from repro.nn.serialization import CheckpointError
from repro.obs import TelemetrySink, read_telemetry, strip_timestamps

MAX_LEN = 10


@pytest.fixture(scope="module")
def training_setup(micro_dataset):
    train, _ = partition(micro_dataset, n=MAX_LEN)
    config = TrainConfig(epochs=2, batch_size=4, num_negatives=3, seed=11)
    return micro_dataset, train, config


def fresh_model(dataset, dropout=0.1, max_len=MAX_LEN):
    cfg = STiSANConfig.small(
        max_len=max_len, poi_dim=8, geo_dim=8, num_blocks=1, dropout=dropout
    )
    return STiSAN(dataset.num_pois, dataset.poi_coords, cfg,
                  rng=np.random.default_rng(5))


def assert_params_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), f"parameter {name} diverged"


class TestKillAndResume:
    @pytest.mark.parametrize("crash_step", [1, 3, 5])
    def test_bitwise_identical_after_crash(self, training_setup, tmp_path, crash_step):
        dataset, train, config = training_setup
        baseline = fresh_model(dataset)
        result = train_stisan(baseline, dataset, train, config)

        crashed = fresh_model(dataset)
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=crash_step):
                train_stisan(crashed, dataset, train, config,
                             checkpoint_dir=tmp_path, checkpoint_every=1)

        resumed_model = fresh_model(dataset)
        resumed = train_stisan(resumed_model, dataset, train, config,
                               checkpoint_dir=tmp_path, checkpoint_every=1,
                               resume=True)
        assert resumed.resumed_from_step == crash_step
        assert resumed.epoch_losses == result.epoch_losses
        assert_params_equal(baseline.state_dict(), resumed_model.state_dict())

    def test_bitwise_identical_after_crash_on_trimmed_steps(self, trimmed_setup, tmp_path):
        dataset, train, config = trimmed_setup
        max_len = len(train[0].src_pois)
        baseline = fresh_model(dataset, max_len=max_len)
        result = train_stisan(baseline, dataset, train, config)

        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=2):
                train_stisan(fresh_model(dataset, max_len=max_len), dataset, train,
                             config, checkpoint_dir=tmp_path, checkpoint_every=1)

        resumed_model = fresh_model(dataset, max_len=max_len)
        resumed = train_stisan(resumed_model, dataset, train, config,
                               checkpoint_dir=tmp_path, checkpoint_every=1,
                               resume=True)
        assert resumed.resumed_from_step == 2
        assert resumed.epoch_losses == result.epoch_losses
        assert_params_equal(baseline.state_dict(), resumed_model.state_dict())

    def test_telemetry_streams_concatenate(self, training_setup, tmp_path):
        dataset, train, config = training_setup

        sink = TelemetrySink(tmp_path / "uninterrupted.jsonl")
        train_stisan(fresh_model(dataset), dataset, train, config, telemetry=sink)
        sink.close()
        uninterrupted = strip_timestamps(read_telemetry(tmp_path / "uninterrupted.jsonl"))

        sink = TelemetrySink(tmp_path / "run1.jsonl")
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=3):
                train_stisan(fresh_model(dataset), dataset, train, config,
                             checkpoint_dir=tmp_path / "ckpts", checkpoint_every=1,
                             telemetry=sink)
        sink.close()

        sink = TelemetrySink(tmp_path / "run2.jsonl")
        train_stisan(fresh_model(dataset), dataset, train, config,
                     checkpoint_dir=tmp_path / "ckpts", checkpoint_every=1,
                     resume=True, telemetry=sink)
        sink.close()

        run1 = strip_timestamps(read_telemetry(tmp_path / "run1.jsonl"))
        run2 = strip_timestamps(read_telemetry(tmp_path / "run2.jsonl"))
        assert run2[0]["event"] == "resume"
        assert not any(r["event"] == "train_start" for r in run2)
        merged = run1 + [r for r in run2 if r["event"] != "resume"]
        assert merged == uninterrupted

    def test_resume_from_older_checkpoint_still_identical(
        self, training_setup, tmp_path
    ):
        """Deleting the newest checkpoint and resuming from an older one
        must still reach the identical end state (RNG replay)."""
        dataset, train, config = training_setup
        baseline = fresh_model(dataset)
        train_stisan(baseline, dataset, train, config)

        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=4):
                train_stisan(fresh_model(dataset), dataset, train, config,
                             checkpoint_dir=tmp_path, checkpoint_every=1)
        newest = checkpoint_paths(tmp_path)[0]
        newest.unlink()

        resumed_model = fresh_model(dataset)
        resumed = train_stisan(resumed_model, dataset, train, config,
                               checkpoint_dir=tmp_path, checkpoint_every=1,
                               resume=True)
        assert resumed.resumed_from_step == 3
        assert_params_equal(baseline.state_dict(), resumed_model.state_dict())

    def test_epoch_end_only_checkpoints(self, training_setup, tmp_path):
        """checkpoint_every=0 still checkpoints at epoch boundaries, and
        a crash there resumes into the next epoch identically."""
        dataset, train, config = training_setup
        baseline = fresh_model(dataset)
        train_stisan(baseline, dataset, train, config)

        num_batches = (len(train) + config.batch_size - 1) // config.batch_size
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=num_batches):
                train_stisan(fresh_model(dataset), dataset, train, config,
                             checkpoint_dir=tmp_path)
        resumed_model = fresh_model(dataset)
        resumed = train_stisan(resumed_model, dataset, train, config,
                               checkpoint_dir=tmp_path, resume=True)
        assert resumed.resumed_from_step == num_batches
        assert_params_equal(baseline.state_dict(), resumed_model.state_dict())

    def test_resume_with_empty_directory_is_a_fresh_run(
        self, training_setup, tmp_path
    ):
        dataset, train, config = training_setup
        baseline = fresh_model(dataset)
        expected = train_stisan(baseline, dataset, train, config)
        model = fresh_model(dataset)
        result = train_stisan(model, dataset, train, config,
                              checkpoint_dir=tmp_path / "empty", resume=True)
        assert result.resumed_from_step is None
        assert result.epoch_losses == expected.epoch_losses
        assert_params_equal(baseline.state_dict(), model.state_dict())


class TestEarlyStoppingResume:
    def test_validation_run_resumes_identically(self, micro_dataset, tmp_path):
        train, evaluation = partition(micro_dataset, n=MAX_LEN)
        validation = [e for e in evaluation[:6]]
        config = TrainConfig(epochs=3, batch_size=4, num_negatives=3, seed=13)

        baseline = fresh_model(micro_dataset)
        expected = train_stisan(baseline, micro_dataset, train, config,
                                validation=validation, patience=2)

        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=2):
                train_stisan(fresh_model(micro_dataset), micro_dataset, train,
                             config, validation=validation, patience=2,
                             checkpoint_dir=tmp_path, checkpoint_every=1)
        resumed_model = fresh_model(micro_dataset)
        resumed = train_stisan(resumed_model, micro_dataset, train, config,
                               validation=validation, patience=2,
                               checkpoint_dir=tmp_path, checkpoint_every=1,
                               resume=True)
        assert resumed.validation_metrics == expected.validation_metrics
        assert resumed.best_epoch == expected.best_epoch
        assert resumed.stopped_early == expected.stopped_early
        assert_params_equal(baseline.state_dict(), resumed_model.state_dict())


class TestGuards:
    def test_fingerprint_mismatch_refuses_resume(self, training_setup, tmp_path):
        dataset, train, config = training_setup
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=2):
                train_stisan(fresh_model(dataset), dataset, train, config,
                             checkpoint_dir=tmp_path, checkpoint_every=1)
        other = TrainConfig(epochs=2, batch_size=4, num_negatives=3, seed=12)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            train_stisan(fresh_model(dataset), dataset, train, other,
                         checkpoint_dir=tmp_path, resume=True)

    def test_resume_requires_checkpoint_dir(self, training_setup):
        dataset, train, config = training_setup
        with pytest.raises(ValueError, match="checkpoint_dir"):
            train_stisan(fresh_model(dataset), dataset, train, config, resume=True)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            train_stisan(fresh_model(dataset), dataset, train, config,
                         checkpoint_every=2)

    def test_rotation_keeps_last_two(self, training_setup, tmp_path):
        dataset, train, config = training_setup
        train_stisan(fresh_model(dataset), dataset, train, config,
                     checkpoint_dir=tmp_path, checkpoint_every=1)
        assert len(checkpoint_paths(tmp_path)) == 2

    def test_checkpoint_roundtrip_preserves_rng_and_moments(
        self, training_setup, tmp_path
    ):
        dataset, train, config = training_setup
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=2):
                train_stisan(fresh_model(dataset), dataset, train, config,
                             checkpoint_dir=tmp_path, checkpoint_every=1)
        loaded, path = TrainerCheckpoint.load_latest(tmp_path)
        assert path == checkpoint_paths(tmp_path)[0]
        assert loaded.progress.global_step == 2
        assert loaded.optimizer_state["t"] == 2
        assert loaded.trainer_rng["bit_generator"] == "PCG64"
        assert loaded.order is not None and loaded.progress.batches_done == 2
