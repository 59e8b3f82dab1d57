"""A training call at 500k POIs allocates for the rows it touches.

Not a timing test: ``tracemalloc`` (numpy reports its buffers to it)
records the peak allocation of one ``train_stisan`` call at the
benchmark's ``catalogue_500k`` shapes.  The POI table is 500,001 x 8
float32, 15.3 MiB.  With row-sparse embedding gradients and
``FlatAdam`` writing the stepped rows into the table in place, a call
allocates nothing the size of the table and peaked at 4.8-5.2 MiB.
Two retired passes show the scale: with the fresh table copy
``FlatAdam`` used to write the rows into, a call peaked at 19.4-20.4
MiB, and on the dense gradient path before it at 114.7-115.0 MiB
(numpy 2.4, scipy 1.17).
Any table-sized pass (a table copy, a dense gradient, a flat copy of
the table, dense moments) adds 15.3 MiB and fails the bound.
"""

import importlib
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import STiSAN, train_stisan
from repro.data import partition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Measured peak 4.8-5.2 MiB, plus headroom well below one 15.3 MiB
#: table-sized allocation.
PEAK_BOUND_MIB = 8.0

#: The positive control: a known numpy allocation inside the traced
#: window, so a tracer that lost numpy fails instead of reading low.
CONTROL_MIB = 1.0


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_catalogue_500k_training_call_peak_allocation(workloads):
    W = workloads
    ds = W.scale_catalogue(W.SCALE_POIS, 1)
    train, _ = partition(ds, n=W.SCALE_N)
    windows = W.cycle_to(train, W.SCALE_BATCH * W.SCALE_BATCHES)
    model = STiSAN(ds.num_pois, ds.poi_coords, W.scale_config(), rng=np.random.default_rng(1))
    config = W.scale_train_config(1)
    # Warm-up: the first call fills the dataset's shared negative pools.
    train_stisan(model, ds, windows[:W.SCALE_BATCH], config)
    batch = windows[W.SCALE_BATCH:2 * W.SCALE_BATCH]
    tracemalloc.start()
    try:
        control = np.ones(int(CONTROL_MIB * 2 ** 20), dtype=np.uint8)
        control_mib = tracemalloc.get_traced_memory()[0] / 2 ** 20
        del control
        tracemalloc.reset_peak()
        train_stisan(model, ds, batch, config)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    table_mib = model.poi_embedding.weight.data.nbytes / 2 ** 20
    assert control_mib >= CONTROL_MIB, "a known numpy buffer was not traced: tracing lost numpy"
    assert peak_mib < PEAK_BOUND_MIB, (
        f"one training call peaked at {peak_mib:.1f} MiB (bound {PEAK_BOUND_MIB}); "
        f"a {table_mib:.1f} MiB table-sized pass came back"
    )
