"""Synthetic timestamped binary datasets with planted, linearly drifting
features and exact ground truth.

Feature groups (contiguous index blocks, in order):

* stable_pos  -- positive-class markers: activate at peak_p in positives,
  base_p in negatives, constant over time.
* stable_neg  -- negative-class markers, mirrored.
* drift_up    -- negative-class markers whose positive-class frequency
  RISES linearly from base_p to peak_p across the slots. A trained linear
  classifier gives them negative weight and they drag positive scores down
  over time (w < 0, m > 0).
* drift_down  -- positive-class markers whose positive-class frequency
  FALLS linearly from peak_p to base_p (w > 0, m < 0).
* the rest    -- background noise, activating at noise_p in both classes.

Linear-in-slot activation makes the planted slope exact: the positive-class
mean of a drifting feature moves by (peak_p - base_p) / (n_slots - 1) per
slot, so regression-based drift analysis has a closed-form target.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import DataError, Dataset, FeatureDictionary, SparseSample
from .io import _atomic_text

# 2014-01-01T00:00:00Z; gives generated data realistic epoch timestamps.
BASE_EPOCH = 1_388_534_400
# Default slot width: 30 days.
SLOT_SECONDS = 2_592_000


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters. Defaults are the reference fixture used by the
    acceptance suite (d=1000, 24 slots, 500 samples per class per slot,
    25 drift-up + 25 drift-down planted features, seed 7).

    The default activation rates are deliberately sparse (peak_p=0.04): each
    sample then carries only a handful of markers, which pushes the trained
    per-feature weights well above the 0.2/0.8 clip radii so that weight
    bounding actually binds and decay mitigation is observable.
    """

    d: int = 1000
    n_per_slot: int = 500
    n_slots: int = 24
    stable_pos: int = 25
    stable_neg: int = 25
    n_drift_up: int = 25
    n_drift_down: int = 25
    base_p: float = 0.003
    peak_p: float = 0.04
    noise_p: float = 0.01
    seed: int = 7
    slot_seconds: int = SLOT_SECONDS

    def __post_init__(self):
        if self.d < 1 or self.n_per_slot < 1 or self.n_slots < 1:
            raise DataError("d, n_per_slot and n_slots must all be >= 1")
        for name in ("stable_pos", "stable_neg", "n_drift_up", "n_drift_down"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        planted = self.stable_pos + self.stable_neg + self.n_drift_up + self.n_drift_down
        if planted > self.d:
            raise DataError(f"feature groups need {planted} features but d={self.d}")
        if not 0.0 <= self.base_p <= self.peak_p <= 1.0:
            raise DataError(f"need 0 <= base_p <= peak_p <= 1, got {self.base_p}, {self.peak_p}")
        if not 0.0 <= self.noise_p <= 1.0:
            raise DataError(f"noise_p must be in [0, 1], got {self.noise_p}")
        if (self.n_drift_up or self.n_drift_down) and self.n_slots < 2:
            raise DataError("drifting features need n_slots >= 2")
        if self.slot_seconds <= 0:
            raise DataError(f"slot_seconds must be > 0, got {self.slot_seconds}")


# Reference fixture for the acceptance suite; see SynthSpec defaults.
REFERENCE_SPEC = SynthSpec()


@dataclass(frozen=True)
class GroundTruth:
    """Planted feature groups and the sign of each drifting feature's slope."""

    drift_up: tuple[int, ...]
    drift_down: tuple[int, ...]
    stable_pos: tuple[int, ...]
    stable_neg: tuple[int, ...]
    slot_seconds: int

    @property
    def planted_drift(self) -> tuple[int, ...]:
        return self.drift_up + self.drift_down

    def slope_sign(self, index: int) -> int:
        if index in self.drift_up:
            return 1
        if index in self.drift_down:
            return -1
        return 0

    def to_json_obj(self) -> dict:
        features = {}
        for j in self.drift_up:
            features[str(j)] = {"group": "up", "planted_slope_sign": 1}
        for j in self.drift_down:
            features[str(j)] = {"group": "down", "planted_slope_sign": -1}
        return {
            "slot_seconds": self.slot_seconds,
            "stable_pos": list(self.stable_pos),
            "stable_neg": list(self.stable_neg),
            "features": features,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GroundTruth":
        up, down = [], []
        for key, rec in obj["features"].items():
            (up if rec["group"] == "up" else down).append(int(key))
        return cls(
            drift_up=tuple(sorted(up)),
            drift_down=tuple(sorted(down)),
            stable_pos=tuple(obj.get("stable_pos", ())),
            stable_neg=tuple(obj.get("stable_neg", ())),
            slot_seconds=int(obj["slot_seconds"]),
        )


def _feature_names(spec: SynthSpec) -> list[str]:
    names = []
    names += [f"stable_pos::f{j:04d}" for j in range(spec.stable_pos)]
    names += [f"stable_neg::f{j:04d}" for j in range(spec.stable_neg)]
    names += [f"drift_up::f{j:04d}" for j in range(spec.n_drift_up)]
    names += [f"drift_down::f{j:04d}" for j in range(spec.n_drift_down)]
    names += [f"noise::f{j:04d}" for j in range(spec.d - len(names))]
    return names


def _activation_probs(spec: SynthSpec, slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature activation probabilities (positive class, negative class)."""
    ramp = slot / (spec.n_slots - 1) if spec.n_slots > 1 else 0.0
    rising = spec.base_p + (spec.peak_p - spec.base_p) * ramp
    falling = spec.peak_p - (spec.peak_p - spec.base_p) * ramp
    p_pos = np.full(spec.d, spec.noise_p)
    p_neg = np.full(spec.d, spec.noise_p)
    a = 0
    b = spec.stable_pos
    p_pos[a:b] = spec.peak_p
    p_neg[a:b] = spec.base_p
    a, b = b, b + spec.stable_neg
    p_pos[a:b] = spec.base_p
    p_neg[a:b] = spec.peak_p
    a, b = b, b + spec.n_drift_up
    p_pos[a:b] = rising
    p_neg[a:b] = spec.peak_p
    a, b = b, b + spec.n_drift_down
    p_pos[a:b] = falling
    p_neg[a:b] = spec.base_p
    return p_pos, p_neg


def generate(spec: SynthSpec) -> tuple[Dataset, GroundTruth]:
    """Generate the dataset and its ground truth; deterministic under seed.

    Each slot holds exactly n_per_slot samples of each class, timestamps
    uniform within the slot's window.
    """
    rng = np.random.default_rng(spec.seed)
    dictionary = FeatureDictionary(_feature_names(spec))
    samples = []
    for slot in range(spec.n_slots):
        slot_start = BASE_EPOCH + slot * spec.slot_seconds
        p_pos, p_neg = _activation_probs(spec, slot)
        for label, probs, tag in ((1, p_pos, "pos"), (0, p_neg, "neg")):
            draws = rng.random((spec.n_per_slot, spec.d)) < probs
            offsets = rng.integers(0, spec.slot_seconds, size=spec.n_per_slot)
            for i in range(spec.n_per_slot):
                samples.append(SparseSample(
                    id=f"{tag}-{slot:02d}-{i:04d}",
                    timestamp=slot_start + int(offsets[i]),
                    label=label,
                    indices=tuple(np.flatnonzero(draws[i]).tolist()),
                ))
    a = spec.stable_pos
    b = a + spec.stable_neg
    c = b + spec.n_drift_up
    e = c + spec.n_drift_down
    truth = GroundTruth(
        drift_up=tuple(range(b, c)),
        drift_down=tuple(range(c, e)),
        stable_pos=tuple(range(0, a)),
        stable_neg=tuple(range(a, b)),
        slot_seconds=spec.slot_seconds,
    )
    return Dataset(dictionary, samples), truth


def save_ground_truth(path: str, truth: GroundTruth, spec: SynthSpec,
                      provenance: dict | None = None) -> None:
    """Write the ground-truth JSON next to a generated dataset."""
    obj = truth.to_json_obj()
    obj["spec"] = asdict(spec)
    if provenance:
        obj["provenance"] = dict(provenance)
    with _atomic_text(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_ground_truth(path: str) -> GroundTruth:
    with open(path, "r", encoding="utf-8") as fh:
        return GroundTruth.from_json_obj(json.load(fh))
