"""Shared benchmark configuration.

Environment knobs (all optional):

- ``REPRO_BENCH_QUICK=1`` — drastically smaller datasets and fewer
  epochs; use to smoke-test the harness in a couple of minutes.
- ``REPRO_BENCH_ROUNDS=k`` — average every (model, dataset) cell over k
  seeds (the paper uses 10 rounds; default 1 keeps runtime sane).
- ``REPRO_BENCH_SCALE=x`` — dataset scale multiplier (default 1.0 for
  the synthetic profiles, which are already ~100x below the paper).

Every benchmark prints the rows of its paper table/figure next to the
paper's own numbers where they exist; EXPERIMENTS.md records the
comparison.
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.core import STiSANConfig, TrainConfig
from repro.data import load_dataset
from repro.eval import ExperimentConfig

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "1"))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35" if QUICK else "1.0"))

#: Evaluation window length (the paper uses n = 100 at full scale).
MAX_LEN = 16 if QUICK else 32
EPOCHS = 6 if QUICK else 30
DATASETS = ["gowalla", "brightkite", "weeplaces", "changchun"]
DATA_SEED = 3

#: Per-dataset negative-sampling temperatures, following the paper's
#: per-dataset tuning (Section IV-D: 1 / 100 / 100 / 500).
TEMPERATURES = {
    "gowalla": 1.0,
    "brightkite": 100.0,
    "weeplaces": 100.0,
    "changchun": 500.0,
}


@lru_cache(maxsize=None)
def dataset(name: str, scale: float = SCALE, seed: int = DATA_SEED):
    """Load (and cache) a named benchmark dataset."""
    return load_dataset(name, seed=seed, scale=scale)


def train_config(
    epochs: int = EPOCHS, seed: int = 0, dataset_name: str = "", **overrides
) -> TrainConfig:
    """The calibrated CPU-scale training recipe (see DESIGN.md §2)."""
    defaults = dict(
        epochs=epochs,
        batch_size=32,
        learning_rate=3e-3,
        num_negatives=8,
        temperature=TEMPERATURES.get(dataset_name, 20.0),
        seed=seed,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def stisan_config(max_len: int = MAX_LEN, **overrides) -> STiSANConfig:
    defaults = dict(
        max_len=max_len,
        quadkey_level=17,
        quadkey_ngram=6,
        dropout=0.3,
    )
    defaults.update(overrides)
    return STiSANConfig.small(**defaults)


def experiment_config(
    max_len: int = MAX_LEN,
    epochs: int = EPOCHS,
    dataset_name: str = "",
    **overrides,
) -> ExperimentConfig:
    defaults = dict(
        max_len=max_len,
        dim=32,
        num_candidates=100,
        train=train_config(epochs=epochs, dataset_name=dataset_name),
        stisan_config=stisan_config(max_len=max_len),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def results_store():
    """JSON results store under benchmarks/results/."""
    from pathlib import Path

    from repro.eval import ResultsStore

    return ResultsStore(Path(__file__).parent / "results")


def machine_facts() -> dict:
    """Cores, library versions and the checkout's commit, recorded with
    a result so that the next run can be compared against it."""
    import platform
    import subprocess
    from pathlib import Path

    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def persist(experiment: str, rows: dict, **meta) -> None:
    """Write {row_name: MetricReport-or-dict} to the results store."""
    from repro.eval import ExperimentRecord

    record = ExperimentRecord(experiment, meta={"quick": QUICK, "scale": SCALE,
                                                "rounds": ROUNDS, **meta})
    for name, report in rows.items():
        record.add(name, report)
    results_store().save(record)
