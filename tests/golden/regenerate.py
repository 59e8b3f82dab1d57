"""Golden regression fixtures for the end-to-end STiSAN serving path.

Builds a fully seeded pipeline — synthetic dataset -> 1-epoch STiSAN
training -> ``RecommendationService`` — and records the top-10 POI ids
and scores for a handful of users.  ``tests/test_golden_regression.py``
re-runs the identical pipeline and diffs against the committed JSON at
1e-6 tolerance, so any silent numerical drift in the model, the data
generator or the serving path fails loudly.

Regenerate (only after an *intentional* output-changing commit):

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("stisan_service_top10.json")

NUM_GOLDEN_USERS = 5
TOP_K = 10
MAX_LEN = 10


def build_service():
    """The exact seeded pipeline behind the golden fixture."""
    from repro.baselines import make_recommender
    from repro.core import RecommendationService, STiSANConfig, TrainConfig
    from repro.data import WorldConfig, generate_dataset, partition
    from repro.data.preprocess import PreprocessConfig, filter_cold

    world = WorldConfig(
        num_users=12, num_pois=40, num_clusters=5,
        avg_seq_length=20.0, min_seq_length=10,
    )
    dataset = filter_cold(
        generate_dataset(world, seed=7, name="golden"),
        PreprocessConfig(min_user_checkins=8, min_poi_checkins=2),
    )
    config = STiSANConfig.small(
        max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.1
    )
    model = make_recommender(
        "STiSAN", dataset, max_len=MAX_LEN, seed=0, stisan_config=config
    )
    train_examples, _ = partition(dataset, n=MAX_LEN)
    model.fit(
        dataset, train_examples,
        TrainConfig(epochs=1, batch_size=16, seed=0, verbose=False),
    )
    service = RecommendationService(
        model, dataset, max_len=MAX_LEN, num_candidates=20
    )
    return service, dataset


def build_golden() -> dict:
    service, dataset = build_service()
    users = dataset.users()[:NUM_GOLDEN_USERS]
    recs = service.recommend_batch(users, k=TOP_K)
    return {
        "meta": {
            "model": "STiSAN",
            "dataset_seed": 7,
            "train_seed": 0,
            "max_len": MAX_LEN,
            "num_candidates": 20,
            "k": TOP_K,
        },
        "users": {
            str(user): {
                "pois": [r.poi for r in user_recs],
                "scores": [float(np.float64(r.score)) for r in user_recs],
            }
            for user, user_recs in zip(users, recs)
        },
    }


def main() -> None:
    golden = build_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['users'])} users, k={TOP_K})")


if __name__ == "__main__":
    main()
