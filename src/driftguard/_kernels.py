"""Hot numeric kernels over CSR-style sparse binary data, in plain numpy.

Each kernel gathers per-nonzero contributions and accumulates them with
``np.bincount``, which adds into each bin in input order. So every weight
sum equals a per-sample loop that adds in CSR order, bit for bit; only the
scalar hinge total is a pairwise ``np.sum`` over per-sample values. There
is no threading and no reduction reordering, so every kernel is fully
deterministic. ``BACKEND`` names the implementation for provenance.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """Sample index of every non-zero, in CSR order."""
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def _scores(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
            bias: float, row_ids: np.ndarray) -> np.ndarray:
    # Takes the row ids so that hinge_grad builds them once per call.
    n = indptr.shape[0] - 1
    if indices.shape[0] == 0:
        return np.full(n, bias, dtype=np.float64)
    return np.bincount(row_ids, weights=weights[indices], minlength=n) + bias


def scores(indptr: np.ndarray, indices: np.ndarray,
           weights: np.ndarray, bias: float) -> np.ndarray:
    """Per-sample linear scores: sum of weights at active indices, plus bias."""
    return _scores(indptr, indices, weights, bias, _row_ids(indptr))


def hinge_grad(indptr: np.ndarray, indices: np.ndarray, y_signed: np.ndarray,
               weights: np.ndarray, bias: float, row_ids: np.ndarray | None = None):
    """Subgradient of the summed hinge loss plus the loss itself.

    Returns (grad_w, grad_b, hinge_total). Samples at margin exactly 1
    contribute nothing (the conventional zero subgradient). ``row_ids``,
    when given, must equal ``_row_ids(indptr)``; a caller that takes many
    steps on one split builds it once.
    """
    d = weights.shape[0]
    if row_ids is None:
        row_ids = _row_ids(indptr)
    margins = y_signed * _scores(indptr, indices, weights, bias, row_ids)
    viol = margins < 1.0
    hinge_total = float(np.sum(1.0 - margins[viol]))
    coef = np.where(viol, -y_signed, 0.0)
    if indices.shape[0] == 0:
        grad_w = np.zeros(d, dtype=np.float64)
    else:
        grad_w = np.bincount(indices, weights=coef[row_ids], minlength=d)
    grad_b = float(coef.sum())
    return grad_w, grad_b, hinge_total


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
