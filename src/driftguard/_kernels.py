"""Hot numeric kernels over CSR-style sparse binary data, in plain numpy.

``scores`` and ``slot_sums`` gather per-nonzero contributions and accumulate
them with ``np.bincount``, which adds into each bin in input order. So each
score equals a per-sample loop that adds in CSR order, bit for bit.

``hinge_grad`` is called many times on one split, so it keeps a per-split
``HingeState``:

* **Rank-major row sums.** The rows are ordered by descending entry count,
  so the rows that have a k-th entry form a prefix of that order. Each row
  sum is built one entry rank at a time, ``acc[:cut_k] += w[cols_k]``, from
  0.0. Every row thus adds its entries in CSR order, as ``bincount`` does,
  and the scores are bit-identical to ``scores``.
* **Gradient counts updated where the violator set changed.** Before any
  L2 term, the weight gradient is a sum of -y = +-1 over the violating rows
  that hold a column: an exact integer in float64 (below 2**53), whatever
  the order of the additions. So the state keeps those counts and, on each
  call, adds or removes only the rows whose violator status flipped. A
  fresh state has no violators, so a call without a state is the same code
  path with every violator flipping.

The scalar hinge total is a pairwise ``np.sum`` over the violators in
rank-major order, so it may differ from an in-order sum in its last bits.
There is no threading and no other reduction reordering, so every kernel is
fully deterministic. ``BACKEND`` names the implementation for provenance.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def scores(indptr: np.ndarray, indices: np.ndarray,
           weights: np.ndarray, bias: float) -> np.ndarray:
    """Per-sample linear scores: sum of weights at active indices, plus bias."""
    n = indptr.shape[0] - 1
    if indices.shape[0] == 0:
        return np.full(n, bias, dtype=np.float64)
    row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.bincount(row_ids, weights=weights[indices], minlength=n) + bias


# numpy keeps up to seven freed data buffers of every size below 1 KiB for
# reuse. Updates of a few rows would allocate such buffers in ever new sizes
# and leave about 0.5 MB held after training, so every update also visits a
# fixed block of this many rows (128 int64 = 1 KiB). A visited row
# whose coefficient did not change adds +0.0 to its columns, which leaves the
# counts unchanged.
_MIN_UPDATE_ROWS = 128


class HingeState:
    """Per-split state of ``hinge_grad``: build it once, pass it to every call.

    ``order`` lists the rows by descending entry count (stable); ``lengths``,
    ``starts`` (CSR offsets), ``y_signed`` and ``neg_y`` (-y) are per row in
    that order. At entry rank k the first ``cut_k`` rows of the order have a
    k-th entry, and ``cols`` holds their column ids rank by rank (intp).
    ``coef`` is each row's hinge coefficient at the last call (-y for a
    violator, else 0), so it also records the violator set, and ``counts`` is
    the weight gradient that call returned; a fresh state has no violators and
    zero counts. ``pad`` is the fixed block of shortest non-empty rows that
    every update visits (see ``_MIN_UPDATE_ROWS``).
    """

    __slots__ = ("order", "lengths", "starts", "ranks", "cols", "y_signed", "neg_y", "coef",
                 "counts", "pad")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, y_signed: np.ndarray, d: int):
        n = indptr.shape[0] - 1
        lengths = np.diff(indptr)
        self.order = np.argsort(-lengths, kind="stable")
        self.lengths = lengths[self.order]
        cuts = n - np.cumsum(np.bincount(self.lengths))[:-1]  # rows with more than k entries
        self.starts = indptr[self.order]
        self.cols = np.empty(indices.shape[0], dtype=np.intp)
        self.ranks = []
        lo = 0
        for k, cut in enumerate(cuts.tolist()):
            self.cols[lo:lo + cut] = indices[self.starts[:cut] + k]
            self.ranks.append((cut, lo, lo + cut))
            lo += cut
        self.y_signed = y_signed[self.order]
        self.neg_y = -self.y_signed
        self.coef = np.zeros(n, dtype=np.float64)
        self.counts = np.zeros(d, dtype=np.float64)
        non_empty = int(cuts[0]) if cuts.size else 0
        self.pad = slice(max(0, non_empty - _MIN_UPDATE_ROWS), non_empty)

    def row_sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of weights at each row's entries, in ``order``: rank by rank from 0.0."""
        gathered = weights[self.cols]
        acc = np.zeros(self.order.shape[0], dtype=np.float64)
        with np.errstate(invalid="ignore"):  # inf - inf gives nan silently, as in bincount
            for cut, lo, hi in self.ranks:
                acc[:cut] += gathered[lo:hi]
        return acc

    def update(self, indices: np.ndarray, coef: np.ndarray) -> None:
        """Move ``counts`` from the last coefficients to ``coef`` (both in ``order``).

        Only the rows whose coefficient changed, plus the ``pad`` block, are
        visited; each adds its change (+-1, or 0 for the pad) to its columns.
        The counts are exact integers, so the order of the additions does not
        matter and they equal a fresh ``bincount`` pass bit for bit.
        """
        changed = coef != self.coef
        if changed.any():
            changed[self.pad] = True
            rows = np.flatnonzero(changed)
            change = coef[rows] - self.coef[rows]
            lengths = self.lengths[rows]
            ends = np.cumsum(lengths)
            entries = np.repeat(self.starts[rows] - (ends - lengths), lengths)
            entries += np.arange(entries.shape[0])
            # a fresh state visits every violator, so drop the positions once
            # gathered: two nnz-sized arrays are alive at the add, not three
            entries = indices[entries]
            np.add.at(self.counts, entries, np.repeat(change, lengths))
        self.coef = coef


def hinge_grad(indptr: np.ndarray, indices: np.ndarray, y_signed: np.ndarray,
               weights: np.ndarray, bias: float, state: HingeState | None = None):
    """Subgradient of the summed hinge loss plus the loss itself.

    Returns (grad_w, grad_b, hinge_total). Samples at margin exactly 1
    contribute nothing (the conventional zero subgradient). ``state``, when
    given, must have been built from these ``indptr``, ``indices``,
    ``y_signed`` and ``len(weights)``, and only passed to calls on them; a
    caller that takes many steps on one split builds it once. ``grad_w`` is
    the state's own count array: read it before the next call with that
    state, and do not write into it.
    """
    if state is None:
        state = HingeState(indptr, indices, y_signed, weights.shape[0])
    margins = state.y_signed * (state.row_sums(weights) + bias)
    viol = margins < 1.0
    hinge_total = float(np.sum(1.0 - margins[viol]))
    coef = np.where(viol, state.neg_y, 0.0)
    state.update(indices, coef)
    return state.counts, float(coef.sum()), hinge_total


def slot_sums(indptr: np.ndarray, indices: np.ndarray, slot_ids: np.ndarray,
              mask: np.ndarray, d: int, n_slots: int):
    """Per-slot feature activation sums and sample counts, restricted to mask.

    Returns (sums, counts) where sums is a (d, n_slots) float matrix of
    activation totals and counts the per-slot masked sample count.
    """
    counts = np.bincount(slot_ids[mask], minlength=n_slots).astype(np.int64)
    if indices.shape[0] == 0 or not mask.any():
        return np.zeros((d, n_slots), dtype=np.float64), counts
    per_nnz_keep = np.repeat(mask, np.diff(indptr))
    per_nnz_slot = np.repeat(slot_ids, np.diff(indptr))[per_nnz_keep]
    flat = indices[per_nnz_keep].astype(np.int64) * n_slots + per_nnz_slot
    sums = np.bincount(flat, minlength=d * n_slots).astype(np.float64)
    return sums.reshape(d, n_slots), counts
