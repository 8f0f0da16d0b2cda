"""Domain types for timestamped, labeled, sparse binary feature data.

A sample is a binary vector in a d-dimensional feature space; only the
indices of the active features are stored. All types here are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.dtypes import StringDType

from . import _kernels

_INT64 = np.iinfo(np.int64)
# A tab and each character at which str.splitlines, and so the loader, ends a line.
_LINE_SPLITTERS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _splits_line(text: str) -> bool:
    return any(ch in text for ch in _LINE_SPLITTERS)


def _encodes(text: str) -> bool:
    """True unless text holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


class DataError(ValueError):
    """Malformed or mutually inconsistent data.

    Covers bad feature indices, labels outside {0, 1}, mismatched
    model/dataset dictionaries, degenerate training sets and broken files.
    """


class NumericError(RuntimeError):
    """Non-finite values encountered during numeric optimization."""


class FeatureError(DataError):
    """A feature name breaks a FeatureDictionary invariant; ``index`` is its position."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class FeatureDictionary:
    """Ordered, immutable mapping between feature names and indices.

    The index of a name is its position in the construction order and is
    stable for the lifetime of the dictionary. ``names``, one read-only
    StringDType array, is the only copy of the names; ``index_of`` builds
    the name-to-index map on first use. ``fingerprint`` is a short content
    hash used to bind models to the dictionary they were trained against.
    """

    __slots__ = ("_names", "_index", "fingerprint")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen: set[str] = set()
        for i, name in enumerate(names):
            if not name or "\t" in name or "\n" in name:
                raise FeatureError(i, f"feature {i}: name must be nonempty and free of "
                                      "tabs/newlines")
            if name in seen:
                raise FeatureError(i, f"duplicate feature name {name!r}")
            seen.add(name)
        del seen
        joined = "".join(names)  # one scan of all names per check; walk only on a hit
        if _splits_line(joined):
            i = next(i for i, name in enumerate(names) if _splits_line(name))
            raise FeatureError(i, f"feature {i}: name {names[i]!r} holds a line break")
        if "\x00" in joined:  # the fingerprint joins the names with NUL
            i = next(i for i, name in enumerate(names) if "\x00" in name)
            raise FeatureError(i, f"feature {i}: name {names[i]!r} holds a NUL")
        del joined
        try:
            self._names = np.array(names, dtype=StringDType())
        except UnicodeEncodeError:
            i = next(i for i, name in enumerate(names) if not _encodes(name))
            raise FeatureError(i, f"feature {i}: name {names[i]!r} is not valid UTF-8") from None
        self._names.flags.writeable = False
        self._index = None  # built by index_of on first use
        h = hashlib.sha256()
        h.update(str(len(names)).encode())
        for name in names:
            h.update(b"\x00")
            h.update(name.encode())
        self.fingerprint = h.hexdigest()[:16]

    @property
    def names(self) -> np.ndarray:
        return self._names

    @property
    def d(self) -> int:
        return len(self._names)

    def index_of(self, name: str) -> int:
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self._names.tolist())}
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown feature name {name!r}") from None

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureDictionary) and np.array_equal(self._names, other._names)

    def __hash__(self):
        return hash(self.fingerprint)

    def __repr__(self) -> str:
        return f"FeatureDictionary(d={self.d}, fingerprint={self.fingerprint})"


@dataclass(frozen=True)
class SparseSample:
    """One timestamped, labeled sample: the sorted indices of its active features.

    label is 0 (negative/benign class) or 1 (positive/malicious class);
    timestamp is integer seconds since the epoch.
    """

    id: str
    timestamp: int
    label: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "timestamp", int(self.timestamp))
        object.__setattr__(self, "indices", tuple(int(j) for j in self.indices))
        if self.label not in (0, 1):
            raise DataError(f"sample {self.id}: label must be 0 or 1, got {self.label!r}")
        prev = -1
        for j in self.indices:
            if j < 0:
                raise DataError(f"sample {self.id}: negative feature index {j}")
            if j <= prev:
                raise DataError(
                    f"sample {self.id}: indices must be strictly increasing "
                    f"({j} follows {prev})"
                )
            prev = j
        if not _INT64.min <= self.timestamp <= _INT64.max or prev > _INT64.max:
            raise DataError(f"sample {self.id}: timestamp and feature indices must fit in int64")


class SampleError(DataError):
    """A sample breaks a dataset invariant; ``row`` is its position in the dataset."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _validated(d: int, ids, timestamps, labels, indptr, indices):
    """The sample arrays in Dataset's dtypes, once every invariant holds.

    Ids must be text that UTF-8 can encode. Labels must be 0 or 1, each
    row's indices strictly increasing in [0, d) and ids unique. SampleError
    names the first offending sample; within it, the check listed first
    wins. Only then must ids hold no tab or line break and not start with
    '#'.
    """
    # one scan of all ids, whose joined text is freed before the arrays are built
    ids_split = _splits_line("".join(map(str, ids)))
    try:
        ids = np.array(ids, dtype=StringDType())
    except UnicodeEncodeError:
        r, sid = next((r, sid) for r, sid in enumerate(map(str, ids)) if not _encodes(sid))
        raise SampleError(r, f"sample {sid!r}: id is not valid UTF-8") from None
    timestamps, indptr = np.array(timestamps, dtype=np.int64), np.array(indptr, dtype=np.int64)
    labels, indices = np.asarray(labels, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    n, lengths = len(ids), np.diff(indptr)
    if (timestamps.shape != (n,) or labels.shape != (n,) or indptr.shape != (n + 1,)
            or indptr[0] != 0 or indptr[-1] != len(indices) or np.any(lengths < 0)):
        raise DataError("inconsistent dataset arrays")
    starts = np.zeros(len(indices), dtype=bool)
    starts[indptr[:-1][lengths > 0]] = True
    unordered = np.zeros(len(indices), dtype=bool)
    unordered[1:] = (indices[1:] <= indices[:-1]) & ~starts[1:]

    def row(k):  # the sample that holds index position k
        return np.searchsorted(indptr, k, side="right") - 1

    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]  # later copies of an id
    hash_lo, hash_hi = np.searchsorted(ranked, ["#", "$"])  # ranked[lo:hi] start with '#'
    del ranked  # a copy of every id; freed before the index checks allocate
    # (row, check rank, message) of each check's first offender; [:1] keeps at most one
    found = [(r, 0, f"label must be 0 or 1, got {labels[r]}")
             for r in np.flatnonzero((labels != 0) & (labels != 1))[:1]]
    found += [(row(k), 1, f"negative feature index {indices[k]}")
              for k in np.flatnonzero(indices < 0)[:1]]
    found += [(row(k), 2, f"indices must be strictly increasing ({indices[k]} follows "
                          f"{indices[k - 1]})") for k in np.flatnonzero(unordered)[:1]]
    found += [(row(k), 3, f"feature index {indices[k]} out of range for d={d}")
              for k in np.flatnonzero(indices >= d)[:1]]
    found += [(repeats.min(), 4, "duplicate sample id")] if repeats.size else []
    if found:
        r, _, message = min(found)
        raise SampleError(int(r), f"sample {ids[r]}: {message}")
    if ids_split or hash_hi > hash_lo:  # walk only on a hit
        r = next(r for r, sid in enumerate(ids.tolist())
                 if sid.startswith("#") or _splits_line(sid))
        raise SampleError(r, f"sample {ids[r]!r}: id must not start with '#' or hold "
                             "a tab or a line break")
    return ids, timestamps, labels.astype(np.int8), indptr, indices.astype(np.int32)


class Dataset:
    """A feature dictionary plus samples stored as read-only CSR-style arrays.

    ``ids``, ``timestamps`` and ``labels`` hold one entry per sample; the
    feature indices of sample i are ``indices[indptr[i]:indptr[i + 1]]``.
    The arrays are the only storage; ``samples`` and ``y_signed`` are built
    from them on demand.
    """

    __slots__ = ("dictionary", "ids", "indptr", "indices", "labels", "timestamps")

    def __init__(self, dictionary: FeatureDictionary, samples: Iterable[SparseSample]):
        samples = tuple(samples)
        self._adopt(dictionary, *_validated(
            dictionary.d, [s.id for s in samples], [s.timestamp for s in samples],
            [s.label for s in samples], np.cumsum([0] + [len(s.indices) for s in samples]),
            [j for s in samples for j in s.indices]))

    @classmethod
    def from_arrays(cls, dictionary: FeatureDictionary, ids, timestamps, labels,
                    indptr, indices) -> "Dataset":
        """Dataset over per-sample arrays and a CSR pair, validated like the constructor."""
        return cls.__new__(cls)._adopt(
            dictionary, *_validated(dictionary.d, ids, timestamps, labels, indptr, indices))

    def _adopt(self, dictionary, ids, timestamps, labels, indptr, indices) -> "Dataset":
        for arr in (ids, timestamps, labels, indptr, indices):
            arr.flags.writeable = False
        self.dictionary = dictionary
        self.ids = ids
        self.timestamps = timestamps
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        return self

    @property
    def y_signed(self) -> np.ndarray:
        """The labels as float64 -1.0/+1.0, built anew on each access."""
        return self.labels.astype(np.float64) * 2.0 - 1.0

    @property
    def samples(self) -> tuple[SparseSample, ...]:
        """The samples as SparseSample objects, built anew on each access."""
        bounds, flat = self.indptr.tolist(), self.indices.tolist()
        return tuple(
            SparseSample(id=sid, timestamp=ts, label=label, indices=tuple(flat[a:b]))
            for sid, ts, label, a, b in zip(self.ids.tolist(), self.timestamps.tolist(),
                                            self.labels.tolist(), bounds[:-1], bounds[1:]))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return self.dictionary.d

    @property
    def t_min(self) -> int:
        if not self.n:
            raise DataError("empty dataset has no timestamps")
        return int(self.timestamps.min())

    @property
    def t_max(self) -> int:
        if not self.n:
            raise DataError("empty dataset has no timestamps")
        return int(self.timestamps.max())

    def class_counts(self) -> tuple[int, int]:
        """(negative count, positive count)."""
        pos = int(self.labels.sum())
        return self.n - pos, pos

    def subset(self, mask: Sequence[bool] | np.ndarray) -> "Dataset":
        """New Dataset over the same dictionary keeping samples where mask is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n,):
            raise DataError(f"subset mask must have length {self.n}")
        lengths = np.diff(self.indptr)
        return Dataset.__new__(Dataset)._adopt(
            self.dictionary, self.ids[mask], self.timestamps[mask], self.labels[mask],
            np.cumsum(np.r_[0, lengths[mask]]), self.indices[np.repeat(mask, lengths)])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


class LinearModel:
    """Dense linear scorer f(x) = w.x + b over binary feature vectors.

    ``dictionary_fingerprint`` binds the model to the FeatureDictionary it
    was trained against; batch operations refuse mismatched pairs.
    """

    __slots__ = ("weights", "bias", "dictionary_fingerprint")

    def __init__(self, weights, bias: float, dictionary_fingerprint: str):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1:
            raise DataError("weights must be a 1-D vector")
        if not np.all(np.isfinite(w)) or not math.isfinite(bias):
            raise DataError("model parameters must all be finite")
        w.flags.writeable = False
        self.weights = w
        self.bias = float(bias)
        self.dictionary_fingerprint = dictionary_fingerprint

    @classmethod
    def for_dictionary(cls, weights, bias: float, dictionary: FeatureDictionary) -> "LinearModel":
        if len(np.asarray(weights)) != dictionary.d:
            raise DataError(
                f"weights length {len(np.asarray(weights))} does not match d={dictionary.d}"
            )
        return cls(weights, bias, dictionary.fingerprint)

    @property
    def d(self) -> int:
        return len(self.weights)

    def score(self, sample: SparseSample) -> float:
        """Sum of the weights at the sample's active indices, plus bias.

        Accumulates in ascending index order so single-sample scores match
        the batch kernels bit for bit.
        """
        acc = 0.0
        w = self.weights
        d = self.d
        for j in sample.indices:
            if j >= d:
                raise DataError(
                    f"sample {sample.id}: feature index {j} out of range for d={d}"
                )
            acc += w[j]
        return acc + self.bias

    def predict(self, sample: SparseSample) -> int:
        """1 iff score >= 0 (ties at the boundary go to the positive class)."""
        return 1 if self.score(sample) >= 0.0 else 0

    def __repr__(self) -> str:
        return (f"LinearModel(d={self.d}, bias={self.bias!r}, "
                f"fingerprint={self.dictionary_fingerprint})")


def check_bound(model: LinearModel, dataset: Dataset) -> None:
    """Raise DataError unless model and dataset share a dictionary."""
    if model.dictionary_fingerprint != dataset.dictionary.fingerprint:
        raise DataError(
            "model/dataset dictionary mismatch: model fingerprint "
            f"{model.dictionary_fingerprint} vs dataset {dataset.dictionary.fingerprint}"
        )
    if model.d != dataset.d:
        raise DataError(f"model dimensionality {model.d} does not match dataset d={dataset.d}")


def score_dataset(model: LinearModel, dataset: Dataset) -> np.ndarray:
    """Scores for every sample, in dataset order."""
    check_bound(model, dataset)
    return _kernels.scores(dataset.indptr, dataset.indices, model.weights, model.bias)


def predict_dataset(model: LinearModel, dataset: Dataset) -> np.ndarray:
    """Predicted classes (int8 0/1) for every sample, in dataset order."""
    return (score_dataset(model, dataset) >= 0.0).astype(np.int8)
