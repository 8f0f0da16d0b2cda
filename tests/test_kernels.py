import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _oracle_hinge_grad(indptr, indices, y_signed, w, b):
    """Per-row loops in CSR order over raw arrays."""
    gw = np.zeros(w.shape[0])
    gb = 0.0
    for i, y in enumerate(y_signed):
        cols = indices[indptr[i]:indptr[i + 1]]
        score = 0.0
        for j in cols:
            score += w[j]
        if y * (score + b) < 1.0:
            gb -= y
            for j in cols:
                gw[j] -= y
    return gw, gb


@st.composite
def descent_walks(draw):
    """A CSR split and a random walk of (w, b) over it.

    ``shape`` forces the edge cases: "empty" makes every row empty (with
    d = 0 the split a trainer compacts to no columns), "equal" gives every
    row the same entry count. Weight steps are drawn from a 0.25 grid, so
    margins of exactly 1 occur and rows flip in and out of the violator set,
    and from arbitrary floats, so the order of the additions shows in the
    sums' last bits.
    """
    shape = draw(st.sampled_from(["mixed", "equal", "empty"]))
    n = draw(st.integers(0, 24))
    d = draw(st.integers(0, 10))
    if shape == "empty" or d == 0:
        rows = [[] for _ in range(n)]
    elif shape == "equal":
        k = draw(st.integers(1, d))
        rows = [sorted(draw(st.sets(st.integers(0, d - 1), min_size=k, max_size=k)))
                for _ in range(n)]
    else:
        rows = [sorted(draw(st.sets(st.integers(0, d - 1), max_size=d))) for _ in range(n)]
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    index_dtype = draw(st.sampled_from([np.int32, np.intp]))
    indices = np.array([j for r in rows for j in r], dtype=index_dtype)
    y_signed = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)),
                        dtype=np.float64)
    step = st.one_of(st.integers(-8, 8).map(lambda v: v * 0.25),
                     st.floats(-2.0, 2.0, allow_nan=False))
    w = np.zeros(d)
    b = 0.0
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        w = w + np.array(draw(st.lists(step, min_size=d, max_size=d)), dtype=np.float64)
        b += draw(step)
        steps.append((w, b))
    return indptr, indices, y_signed, d, steps


@settings(max_examples=200, deadline=None)
@given(walk=descent_walks())
def test_reused_state_matches_fresh_state_and_bincount_scores(walk):
    indptr, indices, y_signed, d, steps = walk
    state = _kernels.HingeState(indptr, indices, y_signed, d)
    for w, b in steps:
        gw, gb, total = _kernels.hinge_grad(indptr, indices, y_signed, w, b, state)
        fgw, fgb, ftotal = _kernels.hinge_grad(indptr, indices, y_signed, w, b)
        assert np.array_equal(gw, fgw) and gb == fgb and total == ftotal
        ogw, ogb = _oracle_hinge_grad(indptr, indices, y_signed, w, b)
        assert np.array_equal(gw, ogw) and gb == ogb
        # the rank-major sums, in row order, are the bincount scores bit for bit
        row_scores = np.empty(y_signed.shape[0])
        row_scores[state.order] = state.row_sums(w) + b
        assert row_scores.tobytes() == _kernels.scores(indptr, indices, w, b).tobytes()


def test_empty_dataset_kernels():
    indptr = np.zeros(1, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int32)
    y = np.zeros(0)
    assert _kernels.scores(indptr, indices, np.ones(3), 0.5).shape == (0,)
    gw, gb, total = _kernels.hinge_grad(indptr, indices, y, np.ones(3), 0.5)
    assert np.array_equal(gw, np.zeros(3)) and gb == 0.0 and total == 0.0

