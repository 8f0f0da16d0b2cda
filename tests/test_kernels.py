import numpy as np
import pytest

from driftguard import _kernels

from conftest import random_dataset


def _brute_scores(dataset, w, b):
    out = np.zeros(dataset.n)
    for i, s in enumerate(dataset.samples):
        acc = 0.0
        for j in s.indices:
            acc += w[j]
        out[i] = acc + b
    return out


def _brute_hinge_grad(dataset, w, b):
    d = dataset.d
    gw = np.zeros(d)
    gb = 0.0
    total = 0.0
    for i, s in enumerate(dataset.samples):
        y = 1.0 if s.label == 1 else -1.0
        margin = y * (sum(w[j] for j in s.indices) + b)
        if margin < 1.0:
            total += 1.0 - margin
            gb -= y
            for j in s.indices:
                gw[j] -= y
    return gw, gb, total


def test_kernels_match_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 30))
        n = int(rng.integers(1, 50))
        dataset = random_dataset(rng, n, d, density=float(rng.uniform(0.0, 0.6)))
        w = rng.normal(size=d)
        b = float(rng.normal())
        # The kernels add in the same order as the per-sample oracles, so
        # every weight sum must match bit for bit.
        assert np.array_equal(_kernels.scores(dataset.indptr, dataset.indices, w, b),
                              _brute_scores(dataset, w, b))
        gw, gb, total = _kernels.hinge_grad(dataset.indptr, dataset.indices,
                                            dataset.y_signed, w, b)
        ogw, ogb, ototal = _brute_hinge_grad(dataset, w, b)
        assert np.array_equal(gw, ogw)
        assert gb == ogb
        # np.sum adds the per-sample hinge terms pairwise, the oracle in order.
        assert total == pytest.approx(ototal, rel=1e-12)
        # slot sums vs dense accumulation
        n_slots = int(rng.integers(1, 6))
        slot_ids = rng.integers(0, n_slots, n).astype(np.int64)
        mask = dataset.labels == 1
        sums, counts = _kernels.slot_sums(dataset.indptr, dataset.indices, slot_ids, mask,
                                          d, n_slots)
        dense_sums = np.zeros((d, n_slots))
        dense_counts = np.zeros(n_slots, dtype=np.int64)
        for i, s in enumerate(dataset.samples):
            if s.label == 1:
                dense_counts[slot_ids[i]] += 1
                for j in s.indices:
                    dense_sums[j, slot_ids[i]] += 1.0
        assert np.array_equal(sums, dense_sums)
        assert np.array_equal(counts, dense_counts)


def test_empty_dataset_kernels():
    indptr = np.zeros(1, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int32)
    y = np.zeros(0)
    assert _kernels.scores(indptr, indices, np.ones(3), 0.5).shape == (0,)
    gw, gb, total = _kernels.hinge_grad(indptr, indices, y, np.ones(3), 0.5)
    assert np.array_equal(gw, np.zeros(3)) and gb == 0.0 and total == 0.0

