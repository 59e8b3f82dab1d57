"""Running every row from its own live cut, against the untrimmed forward.

``score_candidates``, ``encode`` and ``forward_train`` pack every row's
columns from its own ``live_cut`` into one stack, run the row-local
work once on it and attention and TAAD once per cut group, and unpack
the outputs.  The oracle is the same model with ``live_cut`` patched to
return 0, which runs every row at full width.  Scores must agree within
1e-6 (OpenBLAS may pick a different sgemm kernel for a narrow
``QK^T``) and every ranking must be identical.  A training step must
also leave the dropout generators where the untrimmed step leaves them;
its gradients agree within 1e-5 of each parameter's largest gradient,
because the weight-gradient sums run over fewer rows.  A batch whose
rows share cut 0, ``return_weights`` and cached serving run the batch
whole, so they must stay bitwise.
"""

from contextlib import ExitStack, contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.stisan as stisan_module
from repro.core import STiSAN, STiSANConfig
from repro.core.cache import ServingCaches
from repro.core.packing import Packing
from repro.core.loss import weighted_bce_loss
from repro.core.relation import causal_attend_mask
from repro.core.stisan import live_cut
from repro.data.sequences import partition
from repro.eval.metrics import target_ranks
from repro.eval.protocol import evaluate
from repro.nn import functional as F
from repro.nn.rowsparse import dense_grad
from repro.nn import fused
from repro.nn.tensor import Tensor, no_grad

NUM_POIS = 60
TOL = 1e-6

ABLATIONS = {
    "original": {},
    "vanilla_pe": {"use_tape": False},
    "no_relation": {"use_relation": False},
    "no_attention": {"use_attention": False},
    "no_taad": {"use_taad": False},
    "no_geo": {"use_geo": False},
}


@contextmanager
def untrimmed():
    """The oracle: every row keeps all of its columns."""
    with mock.patch.object(
        stisan_module, "live_cut", lambda pad: np.zeros(len(pad), dtype=np.int64)
    ):
        yield


def poi_coords(num_pois=NUM_POIS, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform([40.6, -74.1], [40.9, -73.8], size=(num_pois + 1, 2))
    coords[0] = 0.0
    return coords


@lru_cache(maxsize=None)
def make_model(n, ablation="original", dropout=0.2):
    cfg = STiSANConfig.small(
        max_len=n, poi_dim=8, geo_dim=8, num_blocks=2, ffn_hidden=16, dropout=dropout,
        **ABLATIONS[ablation],
    )
    model = STiSAN(NUM_POIS, poi_coords(), cfg, rng=np.random.default_rng(3))
    model.eval()
    return model


def make_batch(live, n, num_candidates=12, seed=0):
    """Rows with ``live[i]`` check-ins at the tail of an n-wide window."""
    rng = np.random.default_rng(seed)
    b = len(live)
    src = rng.integers(1, NUM_POIS + 1, size=(b, n))
    times = np.sort(rng.uniform(1.6e9, 1.6e9 + 9e6, size=(b, n)), axis=-1)
    for i, length in enumerate(live):
        src[i, :n - length] = 0
        if length:
            times[i, :n - length] = times[i, n - length]
    candidates = rng.integers(1, NUM_POIS + 1, size=(b, num_candidates))
    return src, times, candidates


def assert_matches_oracle(model, src, times, candidates):
    with no_grad():
        trimmed = model.score_candidates(src, times, candidates)
        with untrimmed():
            oracle = model.score_candidates(src, times, candidates)
    assert trimmed.shape == oracle.shape == candidates.shape
    assert trimmed.dtype == oracle.dtype
    np.testing.assert_allclose(trimmed, oracle, rtol=0, atol=TOL)
    np.testing.assert_array_equal(target_ranks(trimmed), target_ranks(oracle))


# ----------------------------------------------------------------------
# The cut rule
# ----------------------------------------------------------------------
def test_live_cut_rounds_the_first_live_column_down_to_8():
    n = 37
    live = [37, 30, 29, 21, 20, 1, 0]
    src, _, _ = make_batch(live, n)
    # First live columns 0, 7, 8, 16, 17, 36; an all-padding row keeps 0.
    np.testing.assert_array_equal(live_cut(src == 0), [0, 0, 8, 16, 16, 32, 0])


def test_live_cut_keeps_attention_weights_bitwise():
    """With a one-wide head every score is a single product, so the
    weights differ only through the softmax's pairwise sums; cutting at
    a multiple of 8 keeps those in the same lanes."""
    n = 100
    live = [1, 7, 9, 23, 30, 41, 58, 64, 77, 93, 99]
    src, _, _ = make_batch(live, n)
    pad = src == 0
    rng = np.random.default_rng(1)
    q, k, v = (rng.normal(size=(len(live), n, 1)).astype(np.float32) for _ in range(3))
    _, full = fused.fused_causal_attention(
        Tensor(q), Tensor(k), Tensor(v), mask=causal_attend_mask(pad), return_weights=True
    )
    for i, cut in enumerate(live_cut(pad)):
        rows = slice(i, i + 1)
        _, trimmed = fused.fused_causal_attention(
            Tensor(q[rows, cut:]), Tensor(k[rows, cut:]), Tensor(v[rows, cut:]),
            mask=causal_attend_mask(pad[rows, cut:]), return_weights=True,
        )
        np.testing.assert_array_equal(trimmed[0], full[i, cut:, cut:])


# ----------------------------------------------------------------------
# Scores and rankings against the oracle
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 10, 24, 37]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_random_head_padding_matches_oracle(n, fractions, seed):
    live = [max(1, round(f * n)) for f in fractions]
    assert_matches_oracle(make_model(n), *make_batch(live, n, seed=seed))


@pytest.mark.parametrize(
    "live",
    [[0, 5, 37], [1, 20, 37], [1], [0], [37]],
    ids=["all-padding", "one-check-in", "b=1-one", "b=1-empty", "b=1-full"],
)
def test_edge_rows_match_oracle(live):
    assert_matches_oracle(make_model(37), *make_batch(live, 37))


@pytest.mark.parametrize("n", [10, 37])
def test_width_not_a_multiple_of_8(n):
    live = list(range(1, n + 1))
    assert_matches_oracle(make_model(n), *make_batch(live, n, seed=n))


def test_live_widths_on_both_sides_of_32():
    n = 64
    live = [3, 12, 24, 28, 31, 32, 33, 40, 47, 56, 64]
    assert_matches_oracle(make_model(n), *make_batch(live, n, seed=4))


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_every_ablation_matches_oracle(ablation):
    n = 37
    live = [1, 4, 9, 15, 22, 30, 37, 0]
    assert_matches_oracle(make_model(n, ablation), *make_batch(live, n, seed=5))


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("n", [10, 37])
def test_evaluate_reports_match_oracle(micro_dataset, ablation, n):
    _, evaluation = partition(micro_dataset, n)
    cfg = STiSANConfig.small(max_len=n, poi_dim=8, geo_dim=8, num_blocks=2, ffn_hidden=16,
                             **ABLATIONS[ablation])
    model = STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                   rng=np.random.default_rng(0))
    model.eval()
    report = evaluate(model, micro_dataset, evaluation, num_candidates=20, batch_size=8)
    with untrimmed():
        oracle = evaluate(model, micro_dataset, evaluation, num_candidates=20, batch_size=8)
    assert report == oracle


# ----------------------------------------------------------------------
# encode and return_weights
# ----------------------------------------------------------------------
def test_encode_keeps_its_shape_and_zero_padding_rows():
    n = 37
    live = [20, 9, 12]  # cuts 16, 24 and 24
    src, times, _ = make_batch(live, n)
    model = make_model(n)
    with no_grad():
        enc = model.encode(src, times)
        with untrimmed():
            oracle = model.encode(src, times)
    assert enc.shape == (3, n, model.config.dim)
    pad = src == 0
    assert np.all(enc.data[pad] == 0.0)
    np.testing.assert_allclose(enc.data, oracle.data, rtol=0, atol=TOL)


def test_return_weights_is_untrimmed_and_bitwise():
    n = 37
    live = [3, 20, 9]
    src, times, _ = make_batch(live, n)
    model = make_model(n)
    with no_grad():
        enc, weights = model.encode(src, times, return_weights=True)
        with untrimmed():
            oracle, oracle_weights = model.encode(src, times, return_weights=True)
    assert enc.shape == (3, n, model.config.dim)
    np.testing.assert_array_equal(enc.data, oracle.data)
    assert len(weights) == len(oracle_weights) == model.config.num_blocks
    for w, o in zip(weights, oracle_weights):
        assert w.shape == (3, n, n)
        np.testing.assert_array_equal(w, o)


# ----------------------------------------------------------------------
# Training runs every row from its own cut
# ----------------------------------------------------------------------
def training_model(n, ablation="original"):
    cfg = STiSANConfig.small(max_len=n, poi_dim=8, geo_dim=8, num_blocks=2, ffn_hidden=16,
                             dropout=0.3, **ABLATIONS[ablation])
    model = STiSAN(NUM_POIS, poi_coords(), cfg, rng=np.random.default_rng(4))
    model.train()
    return model


def training_batch(n, live=(3, 12, 20, 25), num_negatives=3, seed=6):
    """A batch with targets wherever ``src`` is real (the data layout);
    the default rows have cuts 32, 24, 16 and 8."""
    src, times, _ = make_batch(list(live), n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    targets = np.where(src == 0, 0, rng.integers(1, NUM_POIS + 1, size=src.shape))
    negatives = rng.integers(1, NUM_POIS + 1, size=src.shape + (num_negatives,))
    return src, times, targets, negatives


def dropout_generators(model):
    """Every distinct generator the model's dropouts draw from."""
    drops = [model.embed_dropout]
    for block in model.blocks:
        drops += [block.attn.drop, block.ffn.drop]
    return list({id(d.rng): d.rng for d in drops}.values())


def train_step(model, src, times, targets, negatives):
    """One forward + backward -> (pos, neg, loss, grads, generator states)."""
    model.zero_grad()
    pos, neg = model.forward_train(src, times, targets, negatives)
    loss = weighted_bce_loss(pos, neg, targets != 0)
    loss.backward()
    grads = [None if p.grad is None else dense_grad(p.grad).copy() for p in model.parameters()]
    states = [g.bit_generator.state for g in dropout_generators(model)]
    return pos.data, neg.data, float(loss.data), grads, states


def oracle_step(model, batch):
    """The packed step and the untrimmed one from the same generator
    states -> (packed, oracle), each as :func:`train_step` returns it."""
    start = [g.bit_generator.state for g in dropout_generators(model)]
    packed = train_step(model, *batch)
    for generator, state in zip(dropout_generators(model), start):
        generator.bit_generator.state = state
    with untrimmed():
        oracle = train_step(model, *batch)
    return packed, oracle


def assert_step_matches_oracle(model, batch):
    (pos, neg, loss, grads, states), oracle = oracle_step(model, batch)
    oracle_pos, oracle_neg, oracle_loss, oracle_grads, oracle_states = oracle
    assert states == oracle_states
    src, _, targets, negatives = batch
    assert pos.shape == src.shape and neg.shape == negatives.shape
    live = targets != 0
    # Every dropped column is head padding and scores exactly 0.
    dropped = np.arange(src.shape[1]) < live_cut(src == 0)[:, None]
    assert not np.any(live & dropped)
    np.testing.assert_array_equal(pos[dropped], 0.0)
    np.testing.assert_array_equal(neg[dropped], 0.0)
    np.testing.assert_allclose(pos[live], oracle_pos[live], rtol=0, atol=TOL)
    np.testing.assert_allclose(neg[live], oracle_neg[live], rtol=0, atol=TOL)
    assert abs(loss - oracle_loss) <= TOL
    for grad, oracle in zip(grads, oracle_grads):
        if oracle is None:
            assert grad is None
            continue
        np.testing.assert_allclose(grad, oracle, rtol=0, atol=1e-5 * np.abs(oracle).max())


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_training_step_matches_oracle_and_keeps_the_dropout_stream(ablation):
    """Live-column scores and the loss match the untrimmed step, the
    dropout generators end where the untrimmed step leaves them, and
    the gradients agree up to the rounding of shorter weight-gradient
    sums."""
    n = 37
    assert_step_matches_oracle(training_model(n, ablation), training_batch(n))


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([8, 10, 24, 37]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=5),
    ablation=st.sampled_from(sorted(ABLATIONS)),
    seed=st.integers(0, 2**16),
)
def test_random_head_padding_training_step_matches_oracle(n, fractions, ablation, seed):
    """Any mix of cuts, all-padding rows included, with a row whose only
    live column is the last one."""
    live = [round(f * n) for f in fractions] + [1]
    batch = training_batch(n, live=live, seed=seed)
    assert_step_matches_oracle(training_model(n, ablation), batch)


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_single_cut_training_step_is_bitwise(ablation):
    """Rows that all keep every column run the batch whole: scores,
    loss, gradients and the dropout stream are the untrimmed step's."""
    n = 37
    batch = training_batch(n, live=(37, 31, 33, 30))  # every first live column < 8
    assert np.all(live_cut(batch[0] == 0) == 0)
    packed, oracle = oracle_step(training_model(n, ablation), batch)
    for got, want in zip(packed[:3], oracle[:3]):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(packed[3], oracle[3]):
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)
    assert packed[4] == oracle[4]


def test_single_cut_layout_is_a_view_of_the_batch():
    """One shared cut packs as the (b, n - cut) slice: nothing is
    gathered and nothing is split."""
    x = np.arange(3 * 37 * 2, dtype=np.float32).reshape(3, 37, 2)
    packing = Packing([8, 8, 8], 37)
    packed = packing.pack(x)
    assert packed.shape == (3, 29, 2) and np.shares_memory(packed, x)
    t = Tensor(packed)
    assert packing.split(t) == [t] and packing.join([t]) is t
    np.testing.assert_array_equal(packing.unpack(t).data[:, 8:], x[:, 8:])
    np.testing.assert_array_equal(packing.unpack(t).data[:, :8], 0.0)


def test_packing_round_trips_a_mixed_batch():
    """Group-major tokens, one view per cut group, and back."""
    n = 24
    cuts = np.array([16, 0, 8, 16, 0])
    x = np.random.default_rng(0).normal(size=(5, n, 3)).astype(np.float32)
    packing = Packing(cuts, n)
    assert [(g.cut, g.count, g.width) for g in packing.groups] == [(0, 2, 24), (8, 1, 16), (16, 2, 8)]
    packed = packing.pack(x)
    assert packed.shape == (2 * 24 + 16 + 2 * 8, 3)
    pieces = packing.split(Tensor(packed))
    np.testing.assert_array_equal(pieces[0].data, x[[1, 4]])
    np.testing.assert_array_equal(pieces[1].data, x[[2], 8:])
    np.testing.assert_array_equal(pieces[2].data, x[[0, 3], 16:])
    back = packing.unpack(packing.join(pieces)).data
    kept = np.arange(n) >= cuts[:, None]
    np.testing.assert_array_equal(back[kept], x[kept])
    np.testing.assert_array_equal(back[~kept], 0.0)
    np.testing.assert_array_equal(packing.unsort_rows(packing.sort_rows(cuts)), cuts)


def test_training_step_runs_the_blocks_on_the_live_width():
    """Each block runs once on the packed tokens; the attention inside
    it (and TAAD) runs once per cut group at that group's width."""
    n = 37
    model = training_model(n)
    # First live columns 34, 25, 17, 12 and 23: cuts 32, 24, 16, 8 and 16.
    batch = training_batch(n, live=(3, 12, 20, 25, 14))
    packing = Packing(live_cut(batch[0] == 0), n)
    tokens = sum(g.count * g.width for g in packing.groups)
    expected = [(1, 29), (2, 21), (1, 13), (1, 5)]  # (rows, width) in cut order
    with ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(block, "forward", wraps=block.forward))
            for block in model.blocks
        ]
        attention = stack.enter_context(
            mock.patch.object(fused, "fused_causal_attention", wraps=fused.fused_causal_attention)
        )
        model.forward_train(*batch)
    for spy in spies:
        spy.assert_called_once()
        assert spy.call_args.args[0].shape == (tokens, model.config.dim)
    # Every block, then TAAD, runs the groups in cut order.
    widths = [call.args[1].shape[:2] for call in attention.call_args_list]
    assert widths == expected * (model.config.num_blocks + 1)


@pytest.mark.parametrize("shape", [(3, 37, 5), (2, 20, 4, 3)])
@pytest.mark.parametrize("cut", [0, 8, 16])
def test_dropout_draws_at_full_width_and_slices(shape, cut):
    x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    full_rng, cut_rng = np.random.default_rng(9), np.random.default_rng(9)
    full = F.dropout(Tensor(x), 0.4, rng=full_rng)
    packing = Packing(np.full(shape[0], cut), shape[1])
    trimmed = F.dropout(Tensor(packing.pack(x)), 0.4, rng=cut_rng, layout=packing)
    np.testing.assert_array_equal(trimmed.data, full.data[:, cut:])
    assert cut_rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("shape", [(4, 24, 5), (3, 20, 4, 3)])
def test_dropout_packs_a_full_width_mask_for_mixed_cuts(shape):
    x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    full_rng, packed_rng = np.random.default_rng(9), np.random.default_rng(9)
    full = F.dropout(Tensor(x), 0.4, rng=full_rng)
    packing = Packing([16, 0, 8, 16][:shape[0]], shape[1])
    packed = F.dropout(Tensor(packing.pack(x)), 0.4, rng=packed_rng, layout=packing)
    np.testing.assert_array_equal(packed.data, packing.pack(full.data))
    assert packed_rng.bit_generator.state == full_rng.bit_generator.state


# ----------------------------------------------------------------------
# Cached serving stays bitwise
# ----------------------------------------------------------------------
def test_cached_serving_is_bitwise_and_caches_full_rows():
    n = 37
    model = make_model(n)
    src, times, candidates = make_batch([2, 9, 17, 30, 37], n, seed=8)
    caches = ServingCaches()
    model.use_serving_caches(caches)
    try:
        with no_grad():
            cold = model.score_candidates(src, times, candidates)
            warm = model.score_candidates(src, times, candidates)
            with untrimmed():
                oracle = model.score_candidates(src, times, candidates)
    finally:
        model.use_serving_caches(None)
    np.testing.assert_array_equal(cold, oracle)
    np.testing.assert_array_equal(warm, oracle)
    entries = list(caches.relations._data.values())
    assert len(entries) == len(src)
    assert all(entry.shape == (n, n) for entry in entries)


# ----------------------------------------------------------------------
# Batch validation
# ----------------------------------------------------------------------
def test_score_candidates_rejects_mismatched_rows():
    n = 10
    model = make_model(n)
    src, times, candidates = make_batch([3, 5, 10], n)
    with pytest.raises(ValueError, match="candidates"):
        model.score_candidates(src, times, candidates[:2])
    with pytest.raises(ValueError, match="times"):
        model.score_candidates(src, times[:2], candidates)


def test_score_candidates_rejects_mismatched_times():
    n = 10
    model = make_model(n)
    src, times, candidates = make_batch([3, 5, 10], n)
    with pytest.raises(ValueError, match="times"):
        model.score_candidates(src, times[:, 1:], candidates)
    with pytest.raises(ValueError, match="times"):
        model.score_candidates(src, times.reshape(-1), candidates)


def test_forward_train_rejects_mismatched_steps():
    n = 10
    model = training_model(n)
    src, times, targets, negatives = training_batch(n, live=(3, 5, 10))
    for bad in (
        (src[:, 1:], times, targets, negatives),
        (src, times[:2], targets, negatives),
        (src, times, targets[:, 1:], negatives),
        (src.reshape(-1), times, targets, negatives),
    ):
        with pytest.raises(ValueError, match="src, times and targets"):
            model.forward_train(*bad)


def test_forward_train_rejects_misshapen_negatives():
    n = 10
    model = training_model(n)
    src, times, targets, negatives = training_batch(n, live=(3, 5, 10))
    for bad in (negatives[..., 0], negatives[:, 1:], negatives[:2]):
        with pytest.raises(ValueError, match="negatives"):
            model.forward_train(src, times, targets, bad)


def test_forward_train_rejects_a_target_at_a_padding_step():
    """TAAD's query at a padding step attends no key, so its softmax
    would go uniform over every step, future ones included."""
    n = 10
    model = training_model(n)
    src, times, targets, negatives = training_batch(n, live=(3, 5, 10))
    targets[0, 0] = 1
    with pytest.raises(ValueError, match="padding"):
        model.forward_train(src, times, targets, negatives)
