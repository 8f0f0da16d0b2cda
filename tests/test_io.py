import csv
import json

import numpy as np
import pytest

import driftguard as dg
from driftguard import io as dgio
from driftguard.core import DataError
from driftguard.drift import DriftConfig, t_stability
from driftguard.evaluation import evaluate_slots

from conftest import binary_dataset, random_dataset, random_model


def small_dataset():
    return binary_dataset([[0, 2], [1], []], [1, 0, 1], timestamps=[5, 17, 100],
                          names=["api::open", "url::http://x.test/a,b", "perm::SEND"])


# --- dataset round trips -----------------------------------------------------------

def test_dataset_round_trip_exact(tmp_path):
    ds = small_dataset()
    path = str(tmp_path / "data.dg")
    dgio.save_dataset(path, ds)
    loaded = dgio.load_dataset(path)
    assert loaded.dictionary == ds.dictionary
    assert loaded.samples == ds.samples


def test_dataset_round_trip_random(tmp_path):
    rng = np.random.default_rng(100)
    ds = random_dataset(rng, 60, 25, density=0.15)
    path = str(tmp_path / "data.dg")
    dgio.save_dataset(path, ds)
    loaded = dgio.load_dataset(path)
    assert loaded.samples == ds.samples
    assert np.array_equal(loaded.indptr, ds.indptr)
    assert np.array_equal(loaded.indices, ds.indices)


def test_dataset_stable_under_reserialization(tmp_path):
    ds = small_dataset()
    p1, p2 = str(tmp_path / "a.dg"), str(tmp_path / "b.dg")
    dgio.save_dataset(p1, ds)
    dgio.save_dataset(p2, dgio.load_dataset(p1))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_provenance_comments_ignored(tmp_path):
    ds = small_dataset()
    path = str(tmp_path / "data.dg")
    dgio.save_dataset(path, ds, provenance={"command": "test", "seed": 3})
    text = open(path).read()
    assert "# command=test" in text
    assert dgio.load_dataset(path).samples == ds.samples


def test_dataset_version_and_format_errors(tmp_path):
    path = str(tmp_path / "bad.dg")
    with open(path, "w") as fh:
        fh.write("#driftguard-dataset v9 d=1\n#feature 0 a\n")
    with pytest.raises(dgio.FileFormatError, match="version"):
        dgio.load_dataset(path)
    with open(path, "w") as fh:
        fh.write("not a dataset\n")
    with pytest.raises(dgio.FileFormatError, match="header"):
        dgio.load_dataset(path)


def test_dataset_malformed_record_names_line(tmp_path):
    path = str(tmp_path / "trunc.dg")
    with open(path, "w") as fh:
        fh.write("#driftguard-dataset v1 d=2\n")
        fh.write("#feature 0 a\n")
        fh.write("#feature 1 b\n")
        fh.write("s0\t5\t1\t0,1\n")
        fh.write("s1\t17\t0\n")  # truncated: missing indices field
    with pytest.raises(dgio.FileFormatError, match=r"trunc\.dg:5"):
        dgio.load_dataset(path)


def test_dataset_bad_label_reports_line(tmp_path):
    path = str(tmp_path / "bad.dg")
    with open(path, "w") as fh:
        fh.write("#driftguard-dataset v1 d=1\n#feature 0 a\ns0\t5\t7\t0\n")
    with pytest.raises(dgio.FileFormatError, match=r"bad\.dg:3.*label"):
        dgio.load_dataset(path)


def test_dataset_feature_count_mismatch(tmp_path):
    path = str(tmp_path / "short.dg")
    with open(path, "w") as fh:
        fh.write("#driftguard-dataset v1 d=3\n#feature 0 a\n")
    with pytest.raises(dgio.FileFormatError, match="d=3"):
        dgio.load_dataset(path)


# --- model round trips ----------------------------------------------------------------

def test_model_round_trip_dense_bit_exact(tmp_path):
    fd = dg.FeatureDictionary(["a", "b", "c"])
    model = dg.LinearModel.for_dictionary([7e-5, -0.436577, 1.0 / 3.0], -0.1234567890123456789, fd)
    path = str(tmp_path / "m.model")
    dgio.save_model(path, model)
    loaded, meta = dgio.load_model(path, dictionary=fd)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert "encoding=dense" in open(path).read()


def test_model_round_trip_sparse_encoding(tmp_path):
    fd = dg.FeatureDictionary([f"f{j}" for j in range(10)])
    w = np.zeros(10)
    w[3] = 0.125
    w[7] = -2.5e-17
    model = dg.LinearModel.for_dictionary(w, 0.5, fd)
    path = str(tmp_path / "m.model")
    dgio.save_model(path, model)
    assert "encoding=sparse" in open(path).read()
    loaded, _ = dgio.load_model(path)
    assert np.array_equal(loaded.weights, w)


def test_model_metadata_round_trip(tmp_path):
    fd = dg.FeatureDictionary(["a", "b"])
    model = dg.LinearModel.for_dictionary([0.9, -0.9], 0.0, fd)
    path = str(tmp_path / "m.model")
    dgio.save_model(path, model, bounded=[1, 0], config={"iters": 2000, "bound": 0.8})
    loaded, meta = dgio.load_model(path)
    assert meta["bounded"] == [1, 0]
    assert meta["config"]["iters"] == "2000"
    assert meta["config"]["bound"] == "0.8"


def test_model_stable_under_reserialization(tmp_path):
    rng = np.random.default_rng(3)
    fd = dg.FeatureDictionary([f"f{j}" for j in range(20)])
    model = dg.LinearModel.for_dictionary(rng.normal(size=20), float(rng.normal()), fd)
    p1, p2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    dgio.save_model(p1, model)
    loaded, _ = dgio.load_model(p1)
    dgio.save_model(p2, loaded)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_model_fingerprint_mismatch_rejected(tmp_path):
    fd = dg.FeatureDictionary(["a", "b"])
    other = dg.FeatureDictionary(["x", "y"])
    model = dg.LinearModel.for_dictionary([1.0, 2.0], 0.0, fd)
    path = str(tmp_path / "m.model")
    dgio.save_model(path, model)
    with pytest.raises(DataError, match="fingerprint"):
        dgio.load_model(path, dictionary=other)


def test_model_version_and_weight_errors(tmp_path):
    path = str(tmp_path / "bad.model")
    with open(path, "w") as fh:
        fh.write("#driftguard-model v2\nd=1\n")
    with pytest.raises(dgio.FileFormatError, match="version"):
        dgio.load_model(path)
    with open(path, "w") as fh:
        fh.write("#driftguard-model v1\nd=1\nbias=0.0\nfingerprint=x\nencoding=dense\n")
        fh.write("w 0 not_a_number\n")
    with pytest.raises(dgio.FileFormatError, match=r"bad\.model:6"):
        dgio.load_model(path)
    with open(path, "w") as fh:
        fh.write("#driftguard-model v1\nd=2\nbias=0.0\nfingerprint=x\nencoding=dense\n")
        fh.write("w 0 1.0\n")  # dense but missing w 1
    with pytest.raises(dgio.FileFormatError, match="dense"):
        dgio.load_model(path)
    # each bad line is reported with the file and its own line number
    header = "#driftguard-model v1\nd=2\nbias={}\nfingerprint=x\nencoding=sparse\n"
    cases = [
        ("0.0", "w 0 1.0\nw 2 1.0\n", r"bad\.model:7: weight index 2 out of range"),
        ("0.0", "w 0 nan\n", r"bad\.model:6: weight 0 is not finite"),
        ("0.0", "w 1 1.0\nw 0 -inf\n", r"bad\.model:7: weight 0 is not finite"),
        ("0.0", "w 0 1.0\nw 1 2.0\nw 0 3.0\n", r"bad\.model:8: duplicate weight index 0"),
        ("inf", "w 0 1.0\n", r"bad\.model:3: bias must be a finite float"),
        ("nan", "", r"bad\.model:3: bias must be a finite float"),
    ]
    for bias, weight_lines, message in cases:
        with open(path, "w") as fh:
            fh.write(header.format(bias) + weight_lines)
        with pytest.raises(dgio.FileFormatError, match=message):
            dgio.load_model(path)


# --- reports --------------------------------------------------------------------------

def test_drift_report_csv_columns_and_order(tmp_path):
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 50, 6, t_span=100)
    model = random_model(rng, ds)
    report = t_stability(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=25))
    path = str(tmp_path / "drift.csv")
    dgio.save_drift_report(path, report, provenance={"seed": 1})
    rows = [r for r in open(path).read().splitlines() if not r.startswith("#")]
    parsed = list(csv.reader(rows))
    assert parsed[0] == list(dgio.DRIFT_COLUMNS)
    assert len(parsed) == 1 + ds.d
    deltas = [float(r[5]) for r in parsed[1:]]
    assert deltas == sorted(deltas)
    assert [int(r[0]) for r in parsed[1:]] == list(range(ds.d))
    first = parsed[1]
    rec = report.records[0]
    assert int(first[1]) == rec.index and first[2] == rec.name
    assert float(first[3]) == rec.weight and float(first[4]) == rec.slope


def test_eval_report_csv_with_undefined_fields(tmp_path):
    ds = binary_dataset([[0], [0], []], [1, 1, 0], timestamps=[0, 1, 10], d=1)
    model = dg.LinearModel.for_dictionary([1.0], -0.5, ds.dictionary)
    metrics = evaluate_slots(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=5), 0.5)
    path = str(tmp_path / "eval.csv")
    dgio.save_eval_report(path, metrics, provenance={"fpr_cap": 0.5})
    rows = [r for r in open(path).read().splitlines() if not r.startswith("#")]
    parsed = list(csv.reader(rows))
    assert parsed[0] == list(dgio.EVAL_COLUMNS)
    # slot 0 is all-positive: pauc and (if no negatives) undefined fields are empty
    slot0 = dict(zip(parsed[0], parsed[1]))
    assert slot0["pauc"] == ""
    slot1 = dict(zip(parsed[0], parsed[2]))
    assert slot1["recall"] == ""  # no positives in slot 1
    assert slot1["n_pos"] == "0"


def test_score_trend_csv(tmp_path):
    ds = binary_dataset([[0], []], [1, 0], timestamps=[0, 1], d=1)
    model = dg.LinearModel.for_dictionary([2.0], 0.0, ds.dictionary)
    cfg = DriftConfig(slot_mode="fixed", dt_seconds=5)
    trends = {c: dg.score_trend(model, ds, cfg, c) for c in (0, 1)}
    path = str(tmp_path / "trend.csv")
    dgio.save_score_trend(path, trends)
    rows = [r for r in open(path).read().splitlines() if not r.startswith("#")]
    parsed = list(csv.reader(rows))
    assert parsed[0] == list(dgio.TREND_COLUMNS)
    assert len(parsed) == 3  # header + one slot x two classes
    assert {r[3] for r in parsed[1:]} == {"0", "1"}


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with dgio._atomic_text(str(target)) as fh:
            fh.write("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert not (tmp_path / "out.txt.tmp").exists()


def test_save_json_round_trip(tmp_path):
    path = str(tmp_path / "s.json")
    obj = {"a": 1, "b": [1.5, None], "c": {"d": "x"}}
    dgio.save_json(path, obj)
    assert json.load(open(path)) == obj
