"""Bit-exact text serialization for datasets, models and reports.

Formats are line oriented and diff friendly:

* dataset: ``#driftguard-dataset v1 d=<d>`` magic, one ``#feature`` line per
  feature, then one tab-separated sample line each
  (``id<TAB>epoch<TAB>label<TAB>idx,idx,...``).
* model: ``#driftguard-model v1`` magic, ``key=value`` lines, then
  ``w <idx> <value>`` weight lines (sparse encoding drops zeros when more
  than half the vector is zero).
* reports: CSV with a fixed column order and ``# key=value`` comment header.

Floats are written with repr(), which round-trips IEEE doubles exactly.
Comment lines starting with ``# `` are ignored by every loader, so callers
can embed provenance without breaking round trips.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from typing import Mapping, Sequence

import numpy as np

from .core import DataError, Dataset, FeatureDictionary, LinearModel, SparseSample
from .drift import DriftReport, SlotScoreStats
from .evaluation import SlotMetrics

DATASET_MAGIC = "#driftguard-dataset"
MODEL_MAGIC = "#driftguard-model"
FORMAT_VERSION = "v1"


class FileFormatError(DataError):
    """A persisted file violates its format; carries the offending line."""

    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


@contextmanager
def _atomic_text(path: str):
    """Write to <path>.tmp and rename into place; no partial files on error."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        yield fh
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _comment_lines(provenance: Mapping | None) -> list[str]:
    if not provenance:
        return []
    return [f"# {key}={value}" for key, value in provenance.items()]


def _fmt(value: float) -> str:
    return repr(float(value))


# --- datasets ---------------------------------------------------------------

def save_dataset(path: str, dataset: Dataset, provenance: Mapping | None = None) -> None:
    with _atomic_text(path) as fh:
        fh.write(f"{DATASET_MAGIC} {FORMAT_VERSION} d={dataset.d}\n")
        for line in _comment_lines(provenance):
            fh.write(line + "\n")
        for i, name in enumerate(dataset.dictionary.names):
            fh.write(f"#feature {i} {name}\n")
        for s in dataset.samples:
            idx = ",".join(str(j) for j in s.indices)
            fh.write(f"{s.id}\t{s.timestamp}\t{s.label}\t{idx}\n")


def load_dataset(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) < 3 or head[0] != DATASET_MAGIC:
        raise FileFormatError(path, 1, f"expected '{DATASET_MAGIC} {FORMAT_VERSION} d=<d>' header")
    if head[1] != FORMAT_VERSION:
        raise FileFormatError(path, 1, f"unsupported format version {head[1]!r}")
    if not head[2].startswith("d="):
        raise FileFormatError(path, 1, "missing d=<d> in header")
    try:
        d = int(head[2][2:])
    except ValueError:
        raise FileFormatError(path, 1, f"bad dimensionality {head[2]!r}") from None
    names: list[str] = []
    samples: list[SparseSample] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("#feature "):
            parts = line.split(" ", 2)
            if len(parts) != 3:
                raise FileFormatError(path, lineno, "malformed #feature line")
            try:
                idx = int(parts[1])
            except ValueError:
                raise FileFormatError(path, lineno, f"bad feature index {parts[1]!r}") from None
            if idx != len(names):
                raise FileFormatError(
                    path, lineno, f"feature index {idx} out of order (expected {len(names)})"
                )
            names.append(parts[2])
            continue
        if line.startswith("#"):
            continue  # comment/provenance
        fields = line.split("\t")
        if len(fields) != 4:
            raise FileFormatError(
                path, lineno, f"expected 4 tab-separated fields, got {len(fields)}"
            )
        sid, ts_str, label_str, idx_str = fields
        try:
            ts = int(ts_str)
            label = int(label_str)
            indices = tuple(int(tok) for tok in idx_str.split(",")) if idx_str else ()
        except ValueError:
            raise FileFormatError(path, lineno, f"malformed sample record {line!r}") from None
        try:
            samples.append(SparseSample(id=sid, timestamp=ts, label=label, indices=indices))
        except DataError as exc:
            raise FileFormatError(path, lineno, str(exc)) from None
    if len(names) != d:
        raise FileFormatError(
            path, len(lines), f"header declares d={d} but {len(names)} #feature lines found"
        )
    try:
        return Dataset(FeatureDictionary(names), samples)
    except DataError as exc:
        raise FileFormatError(path, len(lines), str(exc)) from None


# --- models -----------------------------------------------------------------

def save_model(path: str, model: LinearModel, bounded: Sequence[int] | None = None,
               config: Mapping | None = None, provenance: Mapping | None = None) -> None:
    """Persist a model with optional training metadata.

    ``bounded`` records the clipped index set of a weight-bounded training
    run; ``config`` is echoed as config.<key>=<value> lines.
    """
    w = model.weights
    n_zero = int(np.sum(w == 0.0))
    sparse = n_zero * 2 > len(w)
    with _atomic_text(path) as fh:
        fh.write(f"{MODEL_MAGIC} {FORMAT_VERSION}\n")
        for line in _comment_lines(provenance):
            fh.write(line + "\n")
        fh.write(f"d={model.d}\n")
        fh.write(f"bias={_fmt(model.bias)}\n")
        fh.write(f"fingerprint={model.dictionary_fingerprint}\n")
        fh.write(f"encoding={'sparse' if sparse else 'dense'}\n")
        if bounded is not None:
            fh.write("bounded=" + ",".join(str(int(j)) for j in bounded) + "\n")
        if config:
            for key, value in config.items():
                fh.write(f"config.{key}={value}\n")
        if sparse:
            for j in np.flatnonzero(w):
                fh.write(f"w {j} {_fmt(w[j])}\n")
        else:
            for j in range(len(w)):
                fh.write(f"w {j} {_fmt(w[j])}\n")


def load_model(path: str, dictionary: FeatureDictionary | None = None
               ) -> tuple[LinearModel, dict]:
    """Load a model plus its metadata dict (bounded set, config echo).

    When ``dictionary`` is given, its fingerprint must match the stored one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) < 2 or head[0] != MODEL_MAGIC:
        raise FileFormatError(path, 1, f"expected '{MODEL_MAGIC} {FORMAT_VERSION}' header")
    if head[1] != FORMAT_VERSION:
        raise FileFormatError(path, 1, f"unsupported format version {head[1]!r}")
    keys: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    meta: dict = {"config": {}}
    weights: list[tuple[int, int, float]] = []  # (lineno, index, value)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("w "):
            parts = line.split()
            if len(parts) != 3:
                raise FileFormatError(path, lineno, "malformed weight line")
            try:
                weights.append((lineno, int(parts[1]), float(parts[2])))
            except ValueError:
                raise FileFormatError(path, lineno, f"malformed weight line {line!r}") from None
            continue
        if "=" not in line:
            raise FileFormatError(path, lineno, f"expected key=value line, got {line!r}")
        key, value = line.split("=", 1)
        if key.startswith("config."):
            meta["config"][key[len("config."):]] = value
        else:
            keys[key] = value
            key_lines[key] = lineno
    for required in ("d", "bias", "fingerprint", "encoding"):
        if required not in keys:
            raise FileFormatError(path, len(lines), f"missing {required}= line")
    try:
        d = int(keys["d"])
    except ValueError:
        raise FileFormatError(path, key_lines["d"], f"malformed d= value {keys['d']!r}") from None
    try:
        bias = float(keys["bias"])
    except ValueError:
        bias = math.nan
    if not math.isfinite(bias):
        raise FileFormatError(path, key_lines["bias"],
                              f"bias must be a finite float, got {keys['bias']!r}")
    if keys["encoding"] not in ("dense", "sparse"):
        raise FileFormatError(path, key_lines["encoding"],
                              f"unknown encoding {keys['encoding']!r}")
    w = np.zeros(d, dtype=np.float64)
    seen = np.zeros(d, dtype=bool)
    for lineno, j, value in weights:
        if not 0 <= j < d:
            raise FileFormatError(path, lineno, f"weight index {j} out of range for d={d}")
        if seen[j]:
            raise FileFormatError(path, lineno, f"duplicate weight index {j}")
        if not math.isfinite(value):
            raise FileFormatError(path, lineno, f"weight {j} is not finite: {value!r}")
        w[j] = value
        seen[j] = True
    if keys["encoding"] == "dense" and not seen.all():
        raise FileFormatError(
            path, len(lines), f"dense encoding expects {d} weight lines, got {len(weights)}"
        )
    if "bounded" in keys:
        meta["bounded"] = (
            [int(tok) for tok in keys["bounded"].split(",")] if keys["bounded"] else []
        )
    fingerprint = keys["fingerprint"]
    if dictionary is not None and dictionary.fingerprint != fingerprint:
        raise DataError(
            f"model fingerprint {fingerprint} does not match dictionary "
            f"fingerprint {dictionary.fingerprint}"
        )
    return LinearModel(w, bias, fingerprint), meta


# --- reports ----------------------------------------------------------------

DRIFT_COLUMNS = ("rank", "feature_index", "feature_name", "weight", "slope", "delta")
EVAL_COLUMNS = ("slot_id", "slot_start", "slot_end", "n_pos", "n_neg",
                "tp", "fp", "fn", "tn", "precision", "recall", "pauc")
TREND_COLUMNS = ("slot_id", "slot_start", "slot_end", "class", "count",
                 "mean", "std", "min", "max")


def save_drift_report(path: str, report: DriftReport,
                      provenance: Mapping | None = None) -> None:
    """Stability table, most-destabilizing feature first."""
    with _atomic_text(path) as fh:
        fh.write("# driftguard-drift-report v1\n")
        for line in _comment_lines(provenance):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DRIFT_COLUMNS)
        for rank, rec in enumerate(report.records):
            writer.writerow([rank, rec.index, rec.name,
                             _fmt(rec.weight), _fmt(rec.slope), _fmt(rec.delta)])


def _opt(value: float | None) -> str:
    return "" if value is None else _fmt(value)


def save_eval_report(path: str, metrics: Sequence[SlotMetrics],
                     provenance: Mapping | None = None) -> None:
    """Per-slot confusion/precision/recall/partial-AUC table.

    Undefined metrics (empty denominators) are emitted as empty fields.
    The pauc column is normalized by the FPR cap, so 1.0 is perfect at any
    cap.
    """
    with _atomic_text(path) as fh:
        fh.write("# driftguard-eval-report v1\n")
        fh.write("# pauc is normalized by the FPR cap: 1.0 = perfect at any cap\n")
        for line in _comment_lines(provenance):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVAL_COLUMNS)
        for m in metrics:
            writer.writerow([m.slot, m.start, m.end, m.n_pos, m.n_neg,
                             m.tp, m.fp, m.fn, m.tn,
                             _opt(m.precision), _opt(m.recall), _opt(m.pauc)])


def save_score_trend(path: str, trends: Mapping[int, Sequence[SlotScoreStats]],
                     provenance: Mapping | None = None) -> None:
    """Per-slot score statistics, one row per (slot, class)."""
    with _atomic_text(path) as fh:
        fh.write("# driftguard-score-trend v1\n")
        for line in _comment_lines(provenance):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TREND_COLUMNS)
        for class_label in sorted(trends):
            for st in trends[class_label]:
                writer.writerow([st.slot, st.start, st.end, class_label, st.count,
                                 _opt(st.mean), _opt(st.std), _opt(st.min), _opt(st.max)])


def save_json(path: str, obj: Mapping) -> None:
    with _atomic_text(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
