import csv
import itertools
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftguard as dg
from driftguard import io as dgio
from driftguard.core import DataError, SampleError
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


# what int() makes of one integer field, alone or among others; "" is an empty token
_INT_TOKENS = ["0", "1", "007", "-", "--1", "-0", "9223372036854775807",
               "9223372036854775808", "-9223372036854775808", "1_000", "+1", " 0", "1 ",
               "\u0663", "\xa01", ""]


def _int_reference_load(path, names):
    """The dataset as int() reads each field of each line, or the error a load must raise."""
    ids, timestamps, labels, lengths, indices, linenos = [], [], [], [], [], []
    for lineno, line in enumerate(open(path, encoding="utf-8").read().splitlines(), start=1):
        if line.startswith("#") or not line.strip():
            continue
        sid, epoch, label, idx = line.split("\t")
        try:
            values = [int(tok) for tok in [epoch, label] + (idx.split(",") if idx else [])]
        except ValueError:
            values = None
        if values is None or not all(-2**63 <= v < 2**63 for v in values):
            return f"{path}:{lineno}: malformed sample record {line!r}"
        ids.append(sid)
        timestamps.append(values[0])
        labels.append(values[1])
        lengths.append(len(values) - 2)
        indices += values[2:]
        linenos.append(lineno)
    try:
        return dg.Dataset.from_arrays(dg.FeatureDictionary(names), ids, timestamps, labels,
                                      np.cumsum([0] + lengths), indices)
    except SampleError as exc:
        return f"{path}:{linenos[exc.row]}: {exc}"


def _assert_same_dataset(got, want):
    assert got.dictionary == want.dictionary
    for name in ("ids", "timestamps", "labels", "indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=60, deadline=None)
@given(tokens=st.lists(st.sampled_from(_INT_TOKENS), min_size=1, max_size=3),
       trailing_comma=st.booleans())
@example(tokens=["1"], trailing_comma=True)  # np.fromstring drops a trailing comma
@example(tokens=["-"], trailing_comma=False)  # and reads a lone '-' as 0
@example(tokens=["9223372036854775808"], trailing_comma=False)  # and saturates
@example(tokens=["1_000"], trailing_comma=False)  # and refuses what int() takes
@example(tokens=["\u0663"], trailing_comma=False)
@example(tokens=["--1"], trailing_comma=False)
@example(tokens=["9223372036854775807"], trailing_comma=False)
@example(tokens=["+1"], trailing_comma=False)
@example(tokens=[" 0", "1 "], trailing_comma=False)
@example(tokens=["\xa01"], trailing_comma=False)
@example(tokens=["007"], trailing_comma=False)
@example(tokens=[""], trailing_comma=False)  # an empty index field is no index
def test_integer_fields_load_as_int_reads_them(tokens, trailing_comma):
    names = ["a", "b", "c"]
    value = ",".join(tokens) + ("," if trailing_comma else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ints.dg")
        # the value in each integer column of each row, parsed one row, a few rows
        # and the whole file at a time
        for row, column in itertools.product(range(4), (1, 2, 3)):
            fields = [[f"s{r}", str(100 + r), str(r % 2), "0,2"] for r in range(4)]
            fields[row][column] = value
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("#driftguard-dataset v1 d=3\n# seed=1\n"
                         + "".join(f"#feature {j} {name}\n" for j, name in enumerate(names))
                         + "".join("\t".join(f) + "\n" for f in fields))
            want = _int_reference_load(path, names)
            for block_bytes, chunk_rows in ((1, 1), (40, 3), (dgio._BLOCK_BYTES, dgio._CHUNK_ROWS)):
                with (mock.patch.object(dgio, "_BLOCK_BYTES", block_bytes),
                      mock.patch.object(dgio, "_CHUNK_ROWS", chunk_rows)):
                    if isinstance(want, str):
                        with pytest.raises(dgio.FileFormatError) as exc:
                            dgio.load_dataset(path)
                        assert str(exc.value) == want
                    else:
                        _assert_same_dataset(dgio.load_dataset(path), want)


def test_loads_the_same_whatever_the_block_and_chunk_size(tmp_path, monkeypatch):
    path = str(tmp_path / "edges.dg")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("#driftguard-dataset v1 d=3\r\n# command=test\r\n# seed=7\r\n"
                 "#feature 0 api::open\r\n"
                 "s0\t5\t1\t0,2\r\n"
                 "#feature 1 名前::é\r\n"
                 "Ω-日本\t6\t0\t1\r\n\r\n"
                 # \u2028 ends a line for splitlines(), here inside the index field of s2
                 "s2\t7\t1\t0\u2028s3\t8\t0\t1,2\r\n"
                 "# a comment between samples\r\n"
                 "#feature 2 url::http://x.test/a,b\r\n"
                 "s4\t9\t1\t\x85s5\t10\t0\t2\r\n")
    want = dgio.load_dataset(path)
    assert want.ids.tolist() == ["s0", "Ω-日本", "s2", "s3", "s4", "s5"]
    assert want.indices.tolist() == [0, 2, 1, 0, 1, 2, 2]
    size = os.path.getsize(path)
    for block_bytes in (1, 2, 3, 5, 7, 64, size - 1, size):
        for chunk_rows in (1, 2, 3, 7):
            monkeypatch.setattr(dgio, "_BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(dgio, "_CHUNK_ROWS", chunk_rows)
            _assert_same_dataset(dgio.load_dataset(path), want)
    # a byte that is not UTF-8, just past a block boundary, is reported at its own line
    data = open(path, "rb").read()
    for block_bytes in (5, 7, 64):
        for pos in range(block_bytes, len(data), block_bytes):
            if data[pos:pos + 1] in (b"\r", b"\n"):
                continue
            with open(path, "wb") as fh:
                fh.write(data[:pos] + b"\xff" + data[pos + 1:])
            monkeypatch.setattr(dgio, "_BLOCK_BYTES", block_bytes)
            line = data[:pos].count(b"\n") + 1
            with pytest.raises(dgio.FileFormatError,
                               match=rf"edges\.dg:{line}: not valid UTF-8"):
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


_EDGE_WEIGHTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1.0 / 3.0]
_FINITE = st.one_of(st.sampled_from(_EDGE_WEIGHTS),
                    st.floats(allow_nan=False, allow_infinity=False))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(_FINITE, min_size=1, max_size=10), bias=_FINITE,
       half_zeros=st.booleans(),
       bounded=st.one_of(st.none(), st.just([]), st.lists(st.integers(0, 19), max_size=4)))
def test_model_round_trip_is_bit_exact(weights, bias, half_zeros, bounded):
    w = np.array(weights)
    if half_zeros:  # exactly half zeros is the last vector written dense
        w = np.concatenate([np.where(w == 0.0, 1.0, w), np.zeros(len(w))])
    sparse = np.count_nonzero(w == 0.0) * 2 > len(w)
    fd = dg.FeatureDictionary([f"f{j}" for j in range(len(w))])
    model = dg.LinearModel.for_dictionary(w, bias, fd)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        dgio.save_model(path, model, bounded=bounded)
        text = open(path, encoding="utf-8").read()
        loaded, meta = dgio.load_model(path, dictionary=fd)
    assert ("encoding=sparse\n" if sparse else "encoding=dense\n") in text
    assert not (half_zeros and sparse)
    # the sparse encoding writes no zero, so a -0.0 weight reads back as 0.0
    assert _bits(loaded.weights) == _bits(np.where(w == 0.0, 0.0, w) if sparse else w)
    assert _bits([loaded.bias]) == _bits([bias])
    assert meta.get("bounded") == bounded


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
