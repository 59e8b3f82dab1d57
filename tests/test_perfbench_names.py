"""The names ``perfbench/`` looks up in the program still resolve.

The benchmark is frozen: its traced runs wrap attributes of ``repro``
by name and its serving runs read cache statistics by key.  Removing
or renaming one of those fails here, in tier-1, rather than in the
benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import RecommendationService, STiSAN, STiSANConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("harness")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def service(micro_dataset):
    cfg = STiSANConfig.small(max_len=8, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.0)
    model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                   rng=np.random.default_rng(0))
    model.eval()
    return RecommendationService(model, micro_dataset, max_len=8, num_candidates=10)


def test_every_wrapped_target_resolves(perfbench, service, micro_dataset):
    workloads, harness = perfbench
    targets = (
        workloads.SETUP_TARGETS
        + workloads.COMMON_TARGETS
        + workloads.model_targets(service.model)
        + workloads.index_targets(micro_dataset.spatial_index())
    )
    for owner, attr, layer, _ in targets:
        resolved = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(resolved), f"{layer}: {owner!r} has no callable {attr!r}"
    # Wrapping and restoring them all, as a traced run does, leaves the
    # program working.
    patcher = harness.instrument(targets, harness.LayerTimer())
    try:
        assert patcher.installed == len(targets)
        assert service.recommend(micro_dataset.users()[0], k=5)
    finally:
        patcher.restore()


def test_cache_hit_fracs_reads_every_cache(perfbench, service, micro_dataset):
    workloads, _ = perfbench
    service.recommend_batch(micro_dataset.users()[:3], k=5)
    fracs = workloads.cache_hit_fracs(service)
    assert set(fracs) == {f"core.cache.{name}.hit_frac" for name in ("slates", "relations", "geo")}
    assert all(0.0 <= v <= 1.0 for v in fracs.values())
    assert fracs["core.cache.geo.hit_frac"] == 0.0


def test_relation_layer_records_every_entry_path(perfbench, service, micro_dataset):
    """``core.relation.build`` is timed on the training forward, on plain
    scoring and on a cached serving call that misses, so the traced
    layer cannot silently read 0 when the relation build moves."""
    workloads, harness = perfbench
    model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, service.model.config,
                   rng=np.random.default_rng(1))
    rng = np.random.default_rng(0)
    src = rng.integers(1, micro_dataset.num_pois, size=(2, 8))
    src[0, :3] = 0
    times = np.sort(rng.uniform(0, 1e6, size=(2, 8)), axis=-1)

    def forward_train():
        model.train()
        model.forward_train(src, times, src, src[..., None])

    def score_candidates():
        model.eval()
        model.score_candidates(src, times, src[:, :4])

    def recommend_batch_miss():
        service.caches.clear()
        service.recommend_batch(micro_dataset.users()[:2], k=5)

    for call in (forward_train, score_candidates, recommend_batch_miss):
        timer = harness.LayerTimer()
        patcher = harness.instrument(workloads.COMMON_TARGETS, timer)
        try:
            call()
        finally:
            patcher.restore()
        assert timer.calls["core.relation.build"] >= 1, call.__name__


def test_grouped_scoring_times_every_entry_point(perfbench, micro_dataset):
    """Inference packs every row's live columns into one stack: the
    blocks and the geography encoder (tokens and candidates together)
    run once on it, and the relation build and TAAD once per cut group,
    all through the wrapped entry points, so the traced layers keep
    reading what the forward did."""
    workloads, harness = perfbench
    cfg = STiSANConfig.small(max_len=24, poi_dim=8, geo_dim=8, num_blocks=2, dropout=0.0)
    model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                   rng=np.random.default_rng(2))
    model.eval()
    rng = np.random.default_rng(0)
    src = rng.integers(1, micro_dataset.num_pois + 1, size=(3, 24))
    src[0, :21] = 0   # live_cut 16
    src[1, :14] = 0   # live_cut 8
    times = np.sort(rng.uniform(0, 1e6, size=(3, 24)), axis=-1)
    candidates = rng.integers(1, micro_dataset.num_pois + 1, size=(3, 5))
    groups = 3

    timer = harness.LayerTimer()
    patcher = harness.instrument(workloads.COMMON_TARGETS + workloads.model_targets(model), timer)
    try:
        model.score_candidates(src, times, candidates)
    finally:
        patcher.restore()
    assert timer.calls["core.stisan.score"] == 1
    assert timer.calls["core.iaab.forward"] == cfg.num_blocks
    assert timer.calls["core.taad.forward"] == groups
    assert timer.calls["core.relation.build"] == groups
    # The packed tokens and the candidates are embedded in one call.
    assert timer.calls["core.geo_encoder.forward"] == 1
