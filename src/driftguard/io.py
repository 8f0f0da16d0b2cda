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
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (DataError, Dataset, FeatureDictionary, FeatureError, LinearModel,
                   SampleError)
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
    """Write to a temporary file of this write's own, created exclusively beside
    path, then rename it onto path; on error remove it, leaving no partial file."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
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


# --- datasets ---------------------------------------------------------------

# Sample lines per int conversion of the index column; bounds the transient
# per-token strings to a few MB.
_CHUNK_ROWS = 1 << 14


def _read_lines(path: str) -> list[str]:
    """The file's text lines; a byte that is not UTF-8 is an error at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, data.count(b"\n", 0, exc.start) + 1,
                              f"not valid UTF-8 ({exc.reason})") from None


def save_dataset(path: str, dataset: Dataset, provenance: Mapping | None = None) -> None:
    digits = np.array([str(j) for j in range(dataset.d)], dtype=object)
    tokens, bounds = digits[dataset.indices].tolist(), dataset.indptr.tolist()
    with _atomic_text(path) as fh:
        fh.write(f"{DATASET_MAGIC} {FORMAT_VERSION} d={dataset.d}\n")
        for line in _comment_lines(provenance):
            fh.write(line + "\n")
        for i, name in enumerate(dataset.dictionary.names.tolist()):
            fh.write(f"#feature {i} {name}\n")
        fh.write("".join(
            f"{sid}\t{ts}\t{label}\t{','.join(tokens[a:b])}\n"
            for sid, ts, label, a, b in zip(dataset.ids.tolist(), dataset.timestamps.tolist(),
                                            dataset.labels.tolist(), bounds[:-1], bounds[1:])))


def _is_sample_line(line: str) -> bool:
    return not line.startswith("#") and bool(line.strip())


def _bad_record(path: str, lines: list[str]) -> FileFormatError:
    """The error at the first sample line that is not id, then int64 epoch, label, indices."""
    for lineno, line in enumerate(lines, start=1):
        if not _is_sample_line(line):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            return FileFormatError(
                path, lineno, f"expected 4 tab-separated fields, got {len(fields)}"
            )
        try:
            np.array(fields[1:3] + (fields[3].split(",") if fields[3] else []), dtype=np.int64)
        except (ValueError, OverflowError):
            return FileFormatError(path, lineno, f"malformed sample record {line!r}")
    return FileFormatError(path, len(lines), "malformed sample record")


def load_dataset(path: str) -> Dataset:
    """Parse a dataset file column by column.

    Errors name the file and a line: the first sample line that does not
    parse into int64 fields, else the first sample that breaks a Dataset
    invariant.
    """
    lines = _read_lines(path)
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
    for lineno, line in enumerate(lines, start=1):
        if not line.startswith("#feature "):
            continue
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
    if len(names) != d:
        raise FileFormatError(
            path, len(lines), f"header declares d={d} but {len(names)} #feature lines found"
        )
    rows = list(filter(_is_sample_line, lines))
    n = len(rows)
    if np.any(np.fromiter(map(str.count, rows, repeat("\t")), np.int64, n) != 3):
        raise _bad_record(path, lines)
    fields = "\t".join(rows).split("\t") if rows else []
    idx_fields = fields[3::4]
    lengths = (np.fromiter(map(str.count, idx_fields, repeat(",")), np.int64, n)
               + np.fromiter(map(bool, idx_fields), bool, n))
    try:
        timestamps, labels = (np.array(fields[k::4], dtype=np.int64) for k in (1, 2))
        chunks = (",".join(filter(None, idx_fields[lo:lo + _CHUNK_ROWS]))
                  for lo in range(0, n, _CHUNK_ROWS))
        indices = np.concatenate([np.zeros(0, dtype=np.int64)]
                                 + [np.array(c.split(","), dtype=np.int64) for c in chunks if c])
    except (ValueError, OverflowError):
        raise _bad_record(path, lines) from None
    try:
        return Dataset.from_arrays(FeatureDictionary(names), fields[0::4], timestamps, labels,
                                   np.cumsum(np.r_[0, lengths]), indices)
    except FeatureError as exc:
        feature_lines = [k for k, line in enumerate(lines, start=1)
                         if line.startswith("#feature ")]
        raise FileFormatError(path, feature_lines[exc.index], str(exc)) from None
    except SampleError as exc:
        lineno = [k for k, line in enumerate(lines, start=1) if _is_sample_line(line)][exc.row]
        raise FileFormatError(path, lineno, str(exc)) from None


# --- models -----------------------------------------------------------------

def save_model(path: str, model: LinearModel, bounded: Sequence[int] | None = None,
               config: Mapping | None = None, provenance: Mapping | None = None) -> None:
    """Persist a model with optional training metadata.

    ``bounded`` records the clipped index set of a weight-bounded training
    run; ``config`` is echoed as config.<key>=<value> lines.
    """
    w = model.weights
    sparse = int(np.sum(w == 0.0)) * 2 > len(w)
    written = np.flatnonzero(w) if sparse else np.arange(len(w))
    lines = [f"{MODEL_MAGIC} {FORMAT_VERSION}", *_comment_lines(provenance),
             f"d={model.d}", f"bias={model.bias!r}",
             f"fingerprint={model.dictionary_fingerprint}",
             f"encoding={'sparse' if sparse else 'dense'}"]
    if bounded is not None:
        lines.append("bounded=" + ",".join(str(int(j)) for j in bounded))
    lines += [f"config.{key}={value}" for key, value in (config or {}).items()]
    lines += [f"w {j} {value!r}" for j, value in zip(written.tolist(), w[written].tolist())]
    with _atomic_text(path) as fh:
        fh.write("".join(f"{line}\n" for line in lines))


def load_model(path: str, dictionary: FeatureDictionary | None = None
               ) -> tuple[LinearModel, dict]:
    """Load a model plus its metadata dict (bounded set, config echo).

    When ``dictionary`` is given, its fingerprint and d must match the stored
    ones; both are checked before the weight vector is allocated.
    """
    lines = _read_lines(path)
    if not lines:
        raise FileFormatError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) < 2 or head[0] != MODEL_MAGIC:
        raise FileFormatError(path, 1, f"expected '{MODEL_MAGIC} {FORMAT_VERSION}' header")
    if head[1] != FORMAT_VERSION:
        raise FileFormatError(path, 1, f"unsupported format version {head[1]!r}")
    keys: dict[str, str] = {}
    key_lines: dict[str, int] = {}
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
        if key in keys:
            raise FileFormatError(path, lineno, f"duplicate {key}= line")
        keys[key] = value
        key_lines[key] = lineno
    for required in ("d", "bias", "fingerprint", "encoding"):
        if required not in keys:
            raise FileFormatError(path, len(lines), f"missing {required}= line")
    try:
        d = int(keys["d"])
    except ValueError:
        d = -1
    if d < 0:
        raise FileFormatError(path, key_lines["d"], f"malformed d= value {keys['d']!r}")
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
    meta: dict = {"config": {key[len("config."):]: value for key, value in keys.items()
                             if key.startswith("config.")}}
    if "bounded" in keys:
        try:
            meta["bounded"] = (
                [int(tok) for tok in keys["bounded"].split(",")] if keys["bounded"] else []
            )
        except ValueError:
            raise FileFormatError(path, key_lines["bounded"],
                                  f"malformed bounded= value {keys['bounded']!r}") from None
    fingerprint = keys["fingerprint"]
    if dictionary is not None and (dictionary.fingerprint, dictionary.d) != (fingerprint, d):
        raise DataError(f"model fingerprint {fingerprint} (d={d}) does not match dictionary "
                        f"fingerprint {dictionary.fingerprint} (d={dictionary.d})")
    if keys["encoding"] == "dense" and len(weights) != d:
        raise FileFormatError(
            path, len(lines), f"dense encoding expects {d} weight lines, got {len(weights)}"
        )
    if d >= 2**31:
        raise FileFormatError(path, key_lines["d"],
                              f"d={d} is too large: feature indices are int32, so d < 2**31")
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
    return LinearModel(w, bias, fingerprint), meta


# --- reports ----------------------------------------------------------------

DRIFT_COLUMNS = ("rank", "feature_index", "feature_name", "weight", "slope", "delta")
EVAL_COLUMNS = ("slot_id", "slot_start", "slot_end", "n_pos", "n_neg",
                "tp", "fp", "fn", "tn", "precision", "recall", "pauc")
TREND_COLUMNS = ("slot_id", "slot_start", "slot_end", "class", "count",
                 "mean", "std", "min", "max")


def _write_csv(path: str, head_lines: Sequence[str], provenance: Mapping | None,
               columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One CSV report: head comment lines, provenance comments, the column row, rows."""
    with _atomic_text(path) as fh:
        fh.write("".join(f"{line}\n" for line in [*head_lines, *_comment_lines(provenance)]))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def save_drift_report(path: str, report: DriftReport,
                      provenance: Mapping | None = None) -> None:
    """Stability table, most-destabilizing feature first."""
    order = report.order.tolist()
    floats = (map(repr, arr[report.order].tolist())
              for arr in (report.weights, report.slopes, report.delta))
    _write_csv(path, ["# driftguard-drift-report v1"], provenance, DRIFT_COLUMNS,
               zip(range(len(order)), order, report.names[report.order].tolist(), *floats))


def _opt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def save_eval_report(path: str, metrics: Sequence[SlotMetrics],
                     provenance: Mapping | None = None) -> None:
    """Per-slot confusion/precision/recall/partial-AUC table.

    Undefined metrics (empty denominators) are emitted as empty fields.
    The pauc column is normalized by the FPR cap, so 1.0 is perfect at any
    cap.
    """
    _write_csv(path, ["# driftguard-eval-report v1",
                      "# pauc is normalized by the FPR cap: 1.0 = perfect at any cap"],
               provenance, EVAL_COLUMNS,
               ([m.slot, m.start, m.end, m.n_pos, m.n_neg, m.tp, m.fp, m.fn, m.tn,
                 _opt(m.precision), _opt(m.recall), _opt(m.pauc)] for m in metrics))


def save_score_trend(path: str, trends: Mapping[int, Sequence[SlotScoreStats]],
                     provenance: Mapping | None = None) -> None:
    """Per-slot score statistics, one row per (slot, class)."""
    _write_csv(path, ["# driftguard-score-trend v1"], provenance, TREND_COLUMNS,
               ([st.slot, st.start, st.end, class_label, st.count,
                 _opt(st.mean), _opt(st.std), _opt(st.min), _opt(st.max)]
                for class_label in sorted(trends) for st in trends[class_label]))


def save_json(path: str, obj: Mapping) -> None:
    with _atomic_text(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
