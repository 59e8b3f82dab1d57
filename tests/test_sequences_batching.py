"""Tests for sequence partitioning, padding, batching and negatives."""

import numpy as np
import pytest

from repro.data import (
    PAD_POI,
    BatchIterator,
    EvalCandidateRetriever,
    NearestNegativeSampler,
    pad_head,
    partition,
)
from repro.data.negatives import UniformNegativeSampler
from repro.data.sequences import SequenceExample, _window_examples


class TestPadHead:
    def test_pads_at_head(self):
        out = pad_head(np.array([5, 6], dtype=np.int64), 4, PAD_POI)
        np.testing.assert_array_equal(out, [0, 0, 5, 6])

    def test_exact_length_copies(self):
        arr = np.array([1, 2, 3])
        out = pad_head(arr, 3, 0)
        np.testing.assert_array_equal(out, arr)
        out[0] = 9
        assert arr[0] == 1  # copy, not view

    def test_too_long_raises(self):
        with pytest.raises(ValueError):
            pad_head(np.arange(5), 3, 0)


class TestWindowing:
    def _seq(self, m):
        pois = np.arange(1, m + 1)
        times = np.arange(m, dtype=np.float64) * 3600
        return pois, times

    def test_every_checkin_is_target_once(self):
        pois, times = self._seq(23)
        examples = _window_examples(1, pois, times, n=8)
        targets = np.concatenate([e.tgt_pois[e.tgt_pois != PAD_POI] for e in examples])
        # Every check-in except the first is a target exactly once.
        np.testing.assert_array_equal(np.sort(targets), np.arange(2, 24))

    def test_src_tgt_shifted_by_one(self):
        pois, times = self._seq(10)
        examples = _window_examples(1, pois, times, n=6)
        for e in examples:
            real = (e.src_pois != PAD_POI) & (e.tgt_pois != PAD_POI)
            np.testing.assert_array_equal(e.tgt_pois[real], e.src_pois[real] + 1)

    def test_window_lengths(self):
        pois, times = self._seq(20)
        for e in _window_examples(1, pois, times, n=7):
            assert len(e.src_pois) == 7
            assert len(e.tgt_pois) == 7

    def test_short_sequence_single_padded_window(self):
        pois, times = self._seq(4)
        examples = _window_examples(1, pois, times, n=10)
        assert len(examples) == 1
        e = examples[0]
        assert (e.src_pois[:7] == PAD_POI).all()
        np.testing.assert_array_equal(e.src_pois[7:], [1, 2, 3])
        np.testing.assert_array_equal(e.tgt_pois[7:], [2, 3, 4])

    def test_padded_times_carry_first_real_time(self):
        pois, times = self._seq(4)
        e = _window_examples(1, pois, times, n=10)[0]
        assert (e.src_times[:7] == times[0]).all()


class TestPartition:
    def test_eval_holds_out_last_checkin(self, tiny_dataset):
        train, evaluation = partition(tiny_dataset, n=16, new_poi_target=False)
        for ev in evaluation:
            seq = tiny_dataset.sequences[ev.user]
            assert ev.target == seq.pois[-1]
            real = ev.src_pois[ev.src_pois != PAD_POI]
            np.testing.assert_array_equal(real, seq.pois[:-1][-len(real):])

    def test_eval_target_is_first_visit(self, tiny_dataset):
        """Paper protocol: the target is the user's most recent
        previously-unvisited POI."""
        _, evaluation = partition(tiny_dataset, n=16, new_poi_target=True)
        assert evaluation
        for ev in evaluation:
            seq = tiny_dataset.sequences[ev.user]
            pois = list(map(int, seq.pois))
            t_idx = max(i for i, p in enumerate(pois) if p not in set(pois[:i]))
            assert ev.target == pois[t_idx]
            # The target never appears in the user's prior history.
            assert ev.target not in pois[:t_idx]

    def test_eval_target_never_in_training_targets_for_that_position(self, tiny_dataset):
        """No check-in at or after the eval target leaks into training."""
        train, evaluation = partition(tiny_dataset, n=16, new_poi_target=False)
        per_user_train_targets = {}
        for e in train:
            per_user_train_targets.setdefault(e.user, 0)
            per_user_train_targets[e.user] += int((e.tgt_pois != PAD_POI).sum())
        for ev in evaluation:
            # Train targets = len(seq) - 2 (all but first, excluding eval target).
            m = len(tiny_dataset.sequences[ev.user])
            assert per_user_train_targets[ev.user] == m - 2

    def test_min_window_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            partition(tiny_dataset, n=1)

    def test_one_eval_example_per_user(self, tiny_dataset):
        _, evaluation = partition(tiny_dataset, n=16, new_poi_target=False)
        users = [e.user for e in evaluation]
        assert len(users) == len(set(users)) == tiny_dataset.num_users


class TestBatchIterator:
    def _examples(self, count, n=6):
        rng = np.random.default_rng(0)
        out = []
        for i in range(count):
            src = rng.integers(1, 10, size=n)
            out.append(
                SequenceExample(
                    user=i % 3 + 1,
                    src_pois=src,
                    src_times=np.sort(rng.uniform(0, 1e5, size=n)),
                    tgt_pois=rng.integers(1, 10, size=n),
                )
            )
        return out

    def test_covers_all_examples(self):
        examples = self._examples(10)
        it = BatchIterator(examples, batch_size=3, rng=np.random.default_rng(1))
        seen = sum(len(b) for b in it)
        assert seen == 10
        assert len(it) == 4

    def test_shuffle_reproducible(self):
        examples = self._examples(8)
        a = [b.src.copy() for b in BatchIterator(examples, 4, rng=np.random.default_rng(5))]
        b = [b.src.copy() for b in BatchIterator(examples, 4, rng=np.random.default_rng(5))]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_no_shuffle_preserves_order(self):
        examples = self._examples(5)
        batches = list(BatchIterator(examples, 2, shuffle=False))
        np.testing.assert_array_equal(batches[0].src[0], examples[0].src_pois)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BatchIterator([], 4)

    def test_masks(self):
        e = SequenceExample(
            user=1,
            src_pois=np.array([0, 0, 3, 4]),
            src_times=np.array([0.0, 0.0, 1.0, 2.0]),
            tgt_pois=np.array([0, 3, 4, 5]),
        )
        batch = next(iter(BatchIterator([e], 1, shuffle=False)))
        np.testing.assert_array_equal(batch.src_mask[0], [True, True, False, False])
        np.testing.assert_array_equal(batch.target_mask[0], [False, True, True, True])


class TestNegativeSamplers:
    def test_nearest_negatives_are_near(self, tiny_dataset):
        sampler = NearestNegativeSampler(tiny_dataset, num_negatives=5, pool_size=10,
                                         rng=np.random.default_rng(0))
        target = 1
        negs = sampler.sample(np.array([target]))
        assert negs.shape == (1, 5)
        pool = set(sampler.pool_for(target))
        assert set(negs.reshape(-1)) <= pool
        assert target not in set(negs.reshape(-1))

    def test_nearest_pad_targets_give_pad(self, tiny_dataset):
        sampler = NearestNegativeSampler(tiny_dataset, num_negatives=3, pool_size=10,
                                         rng=np.random.default_rng(0))
        negs = sampler.sample(np.array([[PAD_POI, 2], [3, PAD_POI]]))
        assert negs.shape == (2, 2, 3)
        assert (negs[0, 0] == PAD_POI).all()
        assert (negs[1, 1] == PAD_POI).all()
        assert (negs[0, 1] != PAD_POI).all()

    def test_nearest_too_many_negatives(self, tiny_dataset):
        with pytest.raises(ValueError):
            NearestNegativeSampler(tiny_dataset, num_negatives=tiny_dataset.num_pois + 1)

    def test_uniform_sampler_range(self, tiny_dataset):
        sampler = UniformNegativeSampler(tiny_dataset, num_negatives=4,
                                         rng=np.random.default_rng(0))
        negs = sampler.sample(np.full((3, 5), 1, dtype=np.int64))
        assert negs.shape == (3, 5, 4)
        assert negs.min() >= 1 and negs.max() <= tiny_dataset.num_pois

    def test_uniform_sampler_pad_passthrough(self, tiny_dataset):
        sampler = UniformNegativeSampler(tiny_dataset, num_negatives=2,
                                         rng=np.random.default_rng(0))
        negs = sampler.sample(np.array([PAD_POI]))
        assert (negs == PAD_POI).all()


class TestEvalCandidateRetriever:
    def test_slate_structure(self, tiny_dataset):
        retriever = EvalCandidateRetriever(tiny_dataset, num_candidates=20)
        user = tiny_dataset.users()[0]
        target = int(tiny_dataset.sequences[user].pois[-1])
        slate = retriever.candidates(user, target)
        assert slate[0] == target
        assert len(slate) == 21
        assert len(set(slate)) == 21  # no duplicates

    def test_negatives_unvisited_when_possible(self, tiny_dataset):
        retriever = EvalCandidateRetriever(tiny_dataset, num_candidates=5)
        user = tiny_dataset.users()[0]
        visited = set(map(int, tiny_dataset.sequences[user].pois))
        target = int(tiny_dataset.sequences[user].pois[-1])
        slate = retriever.candidates(user, target)
        unvisited_available = tiny_dataset.num_pois - len(visited)
        if unvisited_available >= 5:
            assert not (set(slate[1:]) & visited)

    def test_slates_equal_length_across_users(self, tiny_dataset):
        retriever = EvalCandidateRetriever(tiny_dataset, num_candidates=30)
        lengths = {
            len(retriever.candidates(u, int(tiny_dataset.sequences[u].pois[-1])))
            for u in tiny_dataset.users()
        }
        assert len(lengths) == 1
