"""Checkpoint corruption coverage: truncation, bit flips, missing keys.

Every damaged file must fail with a *typed* error carrying an
actionable message — and must fail for ``strict=True`` and
``strict=False`` alike (``strict`` governs parameter-name matching,
never integrity).  ``TrainerCheckpoint.load_latest`` must skip corrupt
files in favour of older intact ones, and refuse to run when every
candidate is damaged.
"""

import importlib
import json

import numpy as np
import pytest

from repro import obs
from repro.core.checkpoint import TrainerCheckpoint, checkpoint_paths
from repro.faults import SimulatedCrash, fault_injection
from repro.nn import Linear

serialization = importlib.import_module("repro.nn.serialization")
CheckpointError = serialization.CheckpointError
CheckpointCorruptionError = serialization.CheckpointCorruptionError
array_crc32 = serialization.array_crc32
load_arrays = serialization.load_arrays
save_arrays = serialization.save_arrays
load_checkpoint = serialization.load_checkpoint
save_checkpoint = serialization.save_checkpoint
_META_KEY = serialization._META_KEY


@pytest.fixture()
def saved(tmp_path):
    path = tmp_path / "model.npz"
    arrays = {
        "weight": np.arange(12, dtype=np.float32).reshape(3, 4),
        "bias": np.ones(3, dtype=np.float32),
    }
    save_arrays(path, arrays, meta={"note": "fixture"})
    return path, arrays


class TestRoundtrip:
    def test_save_load(self, saved):
        path, arrays = saved
        loaded, meta = load_arrays(path)
        assert meta == {"note": "fixture"}
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])

    def test_npz_suffix_appended(self, tmp_path):
        written = save_arrays(tmp_path / "model", {"w": np.ones(2)})
        assert written.name == "model.npz"
        loaded, _ = load_arrays(tmp_path / "model")
        assert np.array_equal(loaded["w"], np.ones(2))

    def test_crc_is_layout_stable(self):
        array = np.arange(24, dtype=np.float32).reshape(4, 6)
        assert array_crc32(array) == array_crc32(np.ascontiguousarray(array))


class TestTruncation:
    @pytest.mark.parametrize("keep_fraction", [0.0, 0.3, 0.9])
    def test_truncated_file_raises(self, saved, keep_fraction):
        path, _ = saved
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep_fraction)])
        with pytest.raises(CheckpointCorruptionError) as err:
            load_arrays(path)
        assert "older checkpoint" in str(err.value)

    def test_strict_false_still_raises(self, saved, tmp_path):
        path, _ = saved
        module = Linear(4, 3, rng=np.random.default_rng(0))
        save_checkpoint(module, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        for strict in (True, False):
            with pytest.raises(CheckpointCorruptionError):
                load_checkpoint(Linear(4, 3, rng=np.random.default_rng(0)), path, strict=strict)


class TestBitFlips:
    def _flip(self, path, position):
        data = bytearray(path.read_bytes())
        data[position] ^= 0x40
        path.write_bytes(bytes(data))

    @pytest.mark.parametrize("relative_position", [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
    def test_flipped_byte_never_silently_corrupts(self, saved, relative_position):
        """A flip anywhere either raises a typed corruption error or hits
        inert container bytes — loaded data is never silently wrong."""
        path, arrays = saved
        size = len(path.read_bytes())
        self._flip(path, int(size * relative_position))
        try:
            loaded, meta = load_arrays(path)
        except CheckpointCorruptionError:
            return
        assert meta == {"note": "fixture"}
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])

    def test_flipped_array_byte_detected(self, saved):
        """A flip inside an array's payload is always caught."""
        path, arrays = saved
        data = path.read_bytes()
        needle = arrays["weight"].tobytes()
        start = data.index(needle)
        self._flip(path, start + len(needle) // 2)
        with pytest.raises(CheckpointCorruptionError):
            load_arrays(path)

    def test_injected_bit_flip_detected(self, tmp_path):
        path = tmp_path / "model.npz"
        with fault_injection(seed=3, bit_flip_rate=1.0) as plan:
            save_arrays(path, {"w": np.arange(64, dtype=np.float64)})
        assert plan.counts().get(("checkpoint_io", "bit_flip")) == 1
        with pytest.raises(CheckpointCorruptionError):
            load_arrays(path)

    def test_torn_write_leaves_previous_file_intact(self, tmp_path):
        path = tmp_path / "model.npz"
        save_arrays(path, {"w": np.zeros(4)}, meta={"generation": 1})
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, torn_write_rate=1.0):
                save_arrays(path, {"w": np.ones(4)}, meta={"generation": 2})
        arrays, meta = load_arrays(path)
        assert meta == {"generation": 1}
        assert np.array_equal(arrays["w"], np.zeros(4))


class TestStructuralDamage:
    def _rewrite_without(self, path, drop=None, add=None):
        """Re-pack the npz keeping the original manifest blob."""
        with np.load(path) as archive:
            raw = {name: archive[name] for name in archive.files}
        if drop:
            del raw[drop]
        if add:
            raw.update(add)
        import io

        buffer = io.BytesIO()
        np.savez(buffer, **raw)
        path.write_bytes(buffer.getvalue())

    def test_missing_array_raises(self, saved):
        path, _ = saved
        self._rewrite_without(path, drop="bias")
        with pytest.raises(CheckpointError, match="missing arrays \\['bias'\\]"):
            load_arrays(path)

    def test_unexpected_array_raises(self, saved):
        path, _ = saved
        self._rewrite_without(path, add={"rogue": np.zeros(2)})
        with pytest.raises(CheckpointError, match="contains arrays \\['rogue'\\]"):
            load_arrays(path)

    def test_corrupt_metadata_blob_raises(self, saved):
        path, _ = saved
        self._rewrite_without(
            path,
            drop=_META_KEY,
            add={_META_KEY: np.frombuffer(b"\xff\xfenot json", dtype=np.uint8)},
        )
        with pytest.raises(CheckpointCorruptionError, match="metadata"):
            load_arrays(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_arrays(tmp_path / "nope.npz")

    def test_legacy_v1_loads_without_checksums(self, saved):
        path, arrays = saved
        meta_blob = np.frombuffer(
            json.dumps({"legacy": True}).encode(), dtype=np.uint8
        ).copy()
        self._rewrite_without(path, drop=_META_KEY, add={_META_KEY: meta_blob})
        loaded, meta = load_arrays(path)
        assert meta == {"legacy": True}
        assert np.array_equal(loaded["weight"], arrays["weight"])


class TestTrainerCheckpointSkipping:
    def _write_trainer_checkpoints(self, dataset, tmp_path):
        from repro.core import STiSANConfig, TrainConfig
        from repro.core.stisan import STiSAN
        from repro.core.trainer import train_stisan
        from repro.data import partition

        train, _ = partition(dataset, n=10)
        model = STiSAN(
            dataset.num_pois, dataset.poi_coords,
            STiSANConfig.small(max_len=10, poi_dim=8, geo_dim=8, num_blocks=1,
                               dropout=0.0),
            rng=np.random.default_rng(5),
        )
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=3):
                train_stisan(model, dataset, train,
                             TrainConfig(epochs=1, batch_size=4, seed=11),
                             checkpoint_dir=tmp_path, checkpoint_every=1)
        return checkpoint_paths(tmp_path)

    def test_corrupt_newest_falls_back_to_older(self, micro_dataset, tmp_path):
        newest, older = self._write_trainer_checkpoints(micro_dataset, tmp_path)
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 3])
        obs.reset()
        with obs.observability():
            loaded, path = TrainerCheckpoint.load_latest(tmp_path)
            skipped = obs.REGISTRY.counter(
                "repro_checkpoint_corrupt_skipped_total"
            ).value
        assert path == older
        assert loaded.progress.global_step == 2
        assert skipped == 1

    def test_all_corrupt_refuses_silent_restart(self, micro_dataset, tmp_path):
        for path in self._write_trainer_checkpoints(micro_dataset, tmp_path):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 3])
        with pytest.raises(CheckpointCorruptionError) as err:
            TrainerCheckpoint.load_latest(tmp_path)
        message = str(err.value)
        assert "refusing to silently restart" in message
        assert "ckpt-" in message  # names the damaged files

    def test_empty_directory_returns_none(self, tmp_path):
        assert TrainerCheckpoint.load_latest(tmp_path) is None
        assert TrainerCheckpoint.load_latest(tmp_path / "absent") is None

    def test_model_checkpoint_rejected_as_trainer_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt-0000000001.npz"
        save_checkpoint(Linear(3, 2, rng=np.random.default_rng(0)), path)
        with pytest.raises(CheckpointError, match="not a trainer checkpoint"):
            TrainerCheckpoint.load(path)
