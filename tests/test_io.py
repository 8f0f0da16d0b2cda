import csv
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftguard as dg
from driftguard import io as dgio
from driftguard.core import DataError
from driftguard.drift import DriftConfig, DriftRecord, t_stability
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
    # each bad sample line is reported at its own line, not at the file's last
    head = "#driftguard-dataset v1 d=2\n#feature 0 a\n#feature 1 b\n"
    cases = [
        ("s0\t5\t1\t0\ns1\t9223372036854775808\t0\t1\ns2\t6\t0\t\n",
         r"trunc\.dg:5: malformed sample record 's1\\t9223372036854775808"),
        ("s0\t5\t1\t0\n# note\ns0\t6\t0\t1\ns2\t7\t0\t\n",
         r"trunc\.dg:6: sample s0: duplicate sample id"),
        ("s0\t5\t1\t0\ns1\t6\t0\t1,2\ns2\t7\t0\t\n",
         r"trunc\.dg:5: sample s1: feature index 2 out of range for d=2"),
        ("s0\t5\t1\t0\ns1\t6\t0\t1,0\ns2\t7\t0\t\n",
         r"trunc\.dg:5: sample s1: indices must be strictly increasing \(0 follows 1\)"),
        ("s0\t5\t1\t0\ns1\t6\t0\t1,,0\ns2\t7\t0\t\n",
         r"trunc\.dg:5: malformed sample record"),
    ]
    for body, message in cases:
        with open(path, "w") as fh:
            fh.write(head + body)
        with pytest.raises(dgio.FileFormatError, match=message):
            dgio.load_dataset(path)
    # a bad feature name is reported at its own #feature line
    for names, message in ((("a", "a"), r"trunc\.dg:3: duplicate feature name 'a'"),
                           (("a\tx", "b"), r"trunc\.dg:2: feature 0: name must be nonempty")):
        with open(path, "w") as fh:
            fh.write(f"#driftguard-dataset v1 d=2\n#feature 0 {names[0]}\n"
                     f"#feature 1 {names[1]}\n# note\ns0\t5\t1\t0\n")
        with pytest.raises(dgio.FileFormatError, match=message):
            dgio.load_dataset(path)
    with open(path, "wb") as fh:
        fh.write(head.encode() + b"s0\t5\t1\t0\ns\xff1\t6\t0\t1\n")
    with pytest.raises(dgio.FileFormatError, match=r"trunc\.dg:5: not valid UTF-8"):
        dgio.load_dataset(path)


def test_dataset_integer_fields_follow_int_rules(tmp_path):
    path = str(tmp_path / "ints.dg")
    with open(path, "w") as fh:
        fh.write("#driftguard-dataset v1 d=2\n#feature 0 a\n#feature 1 b\n\n")
        fh.write("s0\t1_000\t+1\t 0,1 \ns1\t-5\t0\t\n")
    ds = dgio.load_dataset(path)
    assert ds.timestamps.tolist() == [1000, -5]
    assert ds.labels.tolist() == [1, 0]
    assert ds.indptr.tolist() == [0, 2, 2] and ds.indices.tolist() == [0, 1]


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


def test_a_feature_name_holding_a_nul_fails_at_its_line(tmp_path):
    path = str(tmp_path / "nul.dg")
    with open(path, "w") as fh:
        fh.write("#driftguard-dataset v1 d=2\n# note\n#feature 0 a\n#feature 1 b\x00c\n"
                 "s0\t0\t0\t0\n")
    with pytest.raises(dgio.FileFormatError, match=r"nul\.dg:4: feature 1: name 'b\\x00c' "
                                                   "holds a NUL"):
        dgio.load_dataset(path)


# characters that end or split a line, NUL and a lone surrogate, mixed into arbitrary
# unicode text
_TRICKY = st.sampled_from(["\t", "\n", "\r", "\r\n", "#", " ", ",", '"', "\x0b", "\x0c",
                           "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "é", "日",
                           "\x00", "\ud800"])
_TEXT = st.lists(st.one_of(_TRICKY, st.characters(exclude_categories=())),
                 max_size=5).map("".join)


def _fits_a_line(text):
    """The loader's own rule: text adds no line, and UTF-8 can encode it."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return len(f"<{text}>".splitlines()) == 1 and "\t" not in text


@settings(max_examples=300, deadline=None)
@given(names=st.lists(_TEXT, min_size=1, max_size=4, unique=True),
       ids=st.lists(_TEXT, min_size=1, max_size=4, unique=True))
def test_a_dataset_that_constructs_loads_back(names, ids):
    valid = (all(name and _fits_a_line(name) and "\x00" not in name for name in names)
             and all(_fits_a_line(sid) and not sid.startswith("#") for sid in ids))
    n = len(ids)
    try:
        ds = dg.Dataset.from_arrays(dg.FeatureDictionary(names), ids, range(n),
                                    [k % 2 for k in range(n)], [0] + [1] * n, [0])
    except DataError:
        assert not valid
        return
    assert valid
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.dg")
        dgio.save_dataset(path, ds)
        loaded = dgio.load_dataset(path)
    assert loaded.dictionary == ds.dictionary
    assert loaded.samples == ds.samples


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


def _reference_model_text(model, bounded, config, provenance):
    """The per-line model writer that the single-path one replaced."""
    w = model.weights
    sparse = int(np.sum(w == 0.0)) * 2 > len(w)
    lines = ["#driftguard-model v1"] + [f"# {k}={v}" for k, v in provenance.items()]
    lines += [f"d={model.d}", f"bias={model.bias!r}",
              f"fingerprint={model.dictionary_fingerprint}",
              f"encoding={'sparse' if sparse else 'dense'}"]
    if bounded is not None:
        lines.append("bounded=" + ",".join(str(int(j)) for j in bounded))
    lines += [f"config.{k}={v}" for k, v in config.items()]
    lines += [f"w {j} {float(w[j])!r}" for j in (np.flatnonzero(w) if sparse else range(len(w)))]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("n_zero", [0, 6, 7, 12])  # dense up to half zeros, sparse above
def test_model_bytes_match_the_per_line_writer(tmp_path, n_zero):
    fd = dg.FeatureDictionary([f"f{j}" for j in range(12)])
    w = np.random.default_rng(n_zero).normal(size=12)
    w[:n_zero] = 0.0
    w[:n_zero:2] = -0.0
    model = dg.LinearModel.for_dictionary(w, -0.0, fd)
    path = str(tmp_path / "m.model")
    for bounded, config, prov in ((None, {}, {}), ([3, 1], {"iters": 5}, {"seed": 7})):
        dgio.save_model(path, model, bounded=bounded, config=config, provenance=prov)
        expected = _reference_model_text(model, bounded, config, prov)
        assert ("encoding=sparse" in expected) == (n_zero > 6)
        assert open(path, encoding="utf-8", newline="").read() == expected


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
    # hostile header lines are format errors at their own line
    fd = dg.FeatureDictionary(["a", "b"])
    header = "#driftguard-model v1\nd={}\nbias=0.0\nfingerprint={}\nencoding=sparse\n"
    cases = [
        (header.format(-1, "x"), r"bad\.model:2: malformed d= value '-1'"),
        (header.format(2, "x") + "bounded=a,b\n", r"bad\.model:6: malformed bounded= value 'a,b'"),
        (header.format(2, "x") + "bias=1.0\n", r"bad\.model:6: duplicate bias= line"),
        (header.format(2**62, "x").replace("sparse", "dense"),
         r"bad\.model:5: dense encoding expects \d+ weight lines, got 0"),
        # no dataset can bind to d >= 2**31, so it is refused before allocating
        (header.format(2**62, "x"), r"bad\.model:2: d=4611686018427387904 is too large"),
        (header.format(2**31, "x"), r"bad\.model:2: d=2147483648 is too large"),
    ]
    for text, message in cases:
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(dgio.FileFormatError, match=message):
            dgio.load_model(path)
    # a dictionary is checked against the header before the weights are allocated
    for d in (3, 2**62):
        with open(path, "w") as fh:
            fh.write(header.format(d, fd.fingerprint))
        with pytest.raises(DataError, match=rf"\(d={d}\) does not match .*\(d=2\)"):
            dgio.load_model(path, dictionary=fd)
    with open(path, "wb") as fh:
        fh.write(b"#driftguard-model v1\nd=1\nbias=0.0\nfingerprint=\xe9\n")
    with pytest.raises(dgio.FileFormatError, match=r"bad\.model:4: not valid UTF-8"):
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


def _eager_records(model, dataset, report):
    """The DriftRecord tuple that t_stability once built for every feature."""
    return tuple(
        DriftRecord(index=int(j), name=dataset.dictionary.names[j],
                    weight=float(model.weights[j]), slope=float(report.slopes[j]),
                    delta=float(report.delta[j]), observed=bool(report.observed[j]))
        for j in np.argsort(report.delta, kind="stable"))


def _reference_drift_csv(path, records, provenance):
    """The per-record drift writer that the columnar one replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# driftguard-drift-report v1\n")
        for key, value in provenance.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dgio.DRIFT_COLUMNS)
        for rank, rec in enumerate(records):
            writer.writerow([rank, rec.index, rec.name, repr(float(rec.weight)),
                             repr(float(rec.slope)), repr(float(rec.delta))])


def test_drift_report_bytes_match_the_per_record_writer(tmp_path):
    names = ["api::open", "url::http://x.test/a,b", 'say "hi"', " lead and trail ", "ünï日本",
             'both, "and"', "plain", "url::'q'"]
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 40, len(names), density=0.4, t_span=100)
    ds = dg.Dataset.from_arrays(dg.FeatureDictionary(names), ds.ids, ds.timestamps, ds.labels,
                                ds.indptr, ds.indices)
    w = np.array([0.5, -0.0, 0.0, -0.25, 0.5, -0.0, 1.0, 0.0])  # signed zeros tie delta at 0
    model = dg.LinearModel.for_dictionary(w, 0.1, ds.dictionary)
    report = t_stability(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=25))
    records = _eager_records(model, ds, report)
    assert report.records == records
    assert np.count_nonzero(report.delta == 0.0) >= 4  # ties, broken by index
    got, want = str(tmp_path / "drift.csv"), str(tmp_path / "reference.csv")
    dgio.save_drift_report(got, report, provenance={"seed": 1})
    _reference_drift_csv(want, records, {"seed": 1})
    assert open(got, "rb").read() == open(want, "rb").read()


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
    assert os.listdir(tmp_path) == []


def test_interleaved_atomic_writers_of_one_path_both_succeed(tmp_path):
    target = str(tmp_path / "out.txt")
    with dgio._atomic_text(target) as first:
        first.write("first " * 1000)
        with dgio._atomic_text(target) as second:
            second.write("second\n")
            first.write("\n")
        assert open(target).read() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    assert open(target).read() == "first " * 1000 + "\n"
    # the file gets the mode that a plain open() gives
    with open(str(tmp_path / "plain.txt"), "w"):
        pass
    assert os.stat(target).st_mode == os.stat(str(tmp_path / "plain.txt")).st_mode


def test_save_json_round_trip(tmp_path):
    path = str(tmp_path / "s.json")
    obj = {"a": 1, "b": [1.5, None], "c": {"d": "x"}}
    dgio.save_json(path, obj)
    assert json.load(open(path)) == obj
