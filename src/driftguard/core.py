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

from . import _kernels


class DataError(ValueError):
    """Malformed or mutually inconsistent data.

    Covers bad feature indices, labels outside {0, 1}, mismatched
    model/dataset dictionaries, degenerate training sets and broken files.
    """


class NumericError(RuntimeError):
    """Non-finite values encountered during numeric optimization."""


class FeatureDictionary:
    """Ordered, immutable mapping between feature names and indices.

    The index of a name is its position in the construction order and is
    stable for the lifetime of the dictionary. ``fingerprint`` is a short
    content hash used to bind models to the dictionary they were trained
    against.
    """

    __slots__ = ("_names", "_index", "fingerprint")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not name or "\t" in name or "\n" in name:
                raise DataError(
                    f"feature {i}: name must be nonempty and free of tabs/newlines"
                )
            if name in index:
                raise DataError(f"duplicate feature name {name!r}")
            index[name] = i
        self._names = names
        self._index = index
        h = hashlib.sha256()
        h.update(str(len(names)).encode())
        for name in names:
            h.update(b"\x00")
            h.update(name.encode())
        self.fingerprint = h.hexdigest()[:16]

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def d(self) -> int:
        return len(self._names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown feature name {name!r}") from None

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureDictionary) and self._names == other._names

    def __hash__(self):
        return hash(self._names)

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


class Dataset:
    """A feature dictionary plus samples, with CSR-style arrays for the kernels.

    The CSR arrays (``indptr``, ``indices``, ``labels``, ``timestamps``,
    ``y_signed``) are built once at construction and marked read-only; every
    batch operation in the package works off them.
    """

    __slots__ = ("dictionary", "samples", "indptr", "indices", "labels",
                 "timestamps", "y_signed")

    def __init__(self, dictionary: FeatureDictionary, samples: Iterable[SparseSample]):
        samples = tuple(samples)
        d = dictionary.d
        n = len(samples)
        indptr = np.zeros(n + 1, dtype=np.int64)
        labels = np.zeros(n, dtype=np.int8)
        timestamps = np.zeros(n, dtype=np.int64)
        for i, s in enumerate(samples):
            if s.indices and s.indices[-1] >= d:
                raise DataError(
                    f"sample {s.id}: feature index {s.indices[-1]} out of range for d={d}"
                )
            indptr[i + 1] = indptr[i] + len(s.indices)
            labels[i] = s.label
            timestamps[i] = s.timestamp
        indices = np.zeros(indptr[-1], dtype=np.int32)
        for i, s in enumerate(samples):
            indices[indptr[i]:indptr[i + 1]] = s.indices
        y_signed = labels.astype(np.float64) * 2.0 - 1.0
        for arr in (indptr, indices, labels, timestamps, y_signed):
            arr.flags.writeable = False
        self.dictionary = dictionary
        self.samples = samples
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        self.timestamps = timestamps
        self.y_signed = y_signed

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def d(self) -> int:
        return self.dictionary.d

    @property
    def t_min(self) -> int:
        if not self.samples:
            raise DataError("empty dataset has no timestamps")
        return int(self.timestamps.min())

    @property
    def t_max(self) -> int:
        if not self.samples:
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
        kept = [s for s, keep in zip(self.samples, mask) if keep]
        return Dataset(self.dictionary, kept)

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
