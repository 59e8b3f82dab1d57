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
