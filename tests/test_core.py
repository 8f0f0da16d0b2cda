import numpy as np
import pytest

import driftguard as dg
from driftguard.core import DataError, FeatureError, SampleError

from conftest import binary_dataset, random_dataset, random_model


def test_zero_model_scores_zero():
    fd = dg.FeatureDictionary(["a", "b", "c"])
    model = dg.LinearModel.for_dictionary([0.0, 0.0, 0.0], 0.0, fd)
    s = dg.SparseSample(id="x", timestamp=0, label=1, indices=(0, 2))
    assert model.score(s) == 0.0


def test_hand_score():
    fd = dg.FeatureDictionary(["a", "b", "c"])
    model = dg.LinearModel.for_dictionary([1.0, -2.0, 0.5], 0.25, fd)
    s = dg.SparseSample(id="x", timestamp=0, label=1, indices=(0, 2))
    assert model.score(s) == pytest.approx(1.75, abs=0)


def test_score_matches_dense_dot_product():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 40))
        dataset = random_dataset(rng, 8, d)
        model = random_model(rng, dataset)
        for s in dataset.samples:
            dense = np.zeros(d)
            dense[list(s.indices)] = 1.0
            oracle = float(np.dot(model.weights, dense) + model.bias)
            assert abs(model.score(s) - oracle) < 1e-12


def test_predict_boundary_is_positive_class():
    fd = dg.FeatureDictionary(["a"])
    m_zero = dg.LinearModel.for_dictionary([0.0], 0.0, fd)
    s = dg.SparseSample(id="x", timestamp=0, label=0, indices=())
    assert m_zero.predict(s) == 1  # score exactly 0
    assert dg.LinearModel.for_dictionary([0.0], -0.001, fd).predict(s) == 0
    assert dg.LinearModel.for_dictionary([0.0], 3.2, fd).predict(s) == 1


def test_predict_iff_score_nonnegative():
    rng = np.random.default_rng(5)
    dataset = random_dataset(rng, 60, 25)
    model = random_model(rng, dataset)
    for s in dataset.samples:
        assert model.predict(s) == (1 if model.score(s) >= 0 else 0)


def test_score_linearity_on_disjoint_index_sets():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = 30
        names = [f"f{j}" for j in range(d)]
        fd = dg.FeatureDictionary(names)
        model = dg.LinearModel.for_dictionary(rng.normal(size=d), rng.normal(), fd)
        perm = rng.permutation(d)
        cut = int(rng.integers(1, d - 1))
        a = tuple(sorted(int(j) for j in perm[:cut][: int(rng.integers(1, cut + 1))]))
        b_pool = perm[cut:]
        b = tuple(sorted(int(j) for j in b_pool[: int(rng.integers(1, len(b_pool) + 1))]))
        sa = dg.SparseSample(id="a", timestamp=0, label=0, indices=a)
        sb = dg.SparseSample(id="b", timestamp=0, label=0, indices=b)
        su = dg.SparseSample(id="u", timestamp=0, label=0, indices=tuple(sorted(a + b)))
        lhs = model.score(su) + model.bias
        rhs = model.score(sa) + model.score(sb)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_batch_scores_match_single_scores():
    rng = np.random.default_rng(3)
    dataset = random_dataset(rng, 40, 20)
    model = random_model(rng, dataset)
    batch = dg.score_dataset(model, dataset)
    singles = np.array([model.score(s) for s in dataset.samples])
    assert np.array_equal(batch, singles)
    assert np.array_equal(dg.predict_dataset(model, dataset), (singles >= 0).astype(np.int8))


def test_sample_validation():
    with pytest.raises(DataError, match="label"):
        dg.SparseSample(id="x", timestamp=0, label=2, indices=())
    with pytest.raises(DataError, match="strictly increasing"):
        dg.SparseSample(id="x", timestamp=0, label=0, indices=(3, 1))
    with pytest.raises(DataError, match="strictly increasing"):
        dg.SparseSample(id="x", timestamp=0, label=0, indices=(1, 1))
    with pytest.raises(DataError, match="negative"):
        dg.SparseSample(id="x", timestamp=0, label=0, indices=(-1, 2))
    with pytest.raises(DataError, match="x: timestamp and feature indices must fit in int64"):
        dg.SparseSample(id="x", timestamp=2**63, label=0, indices=())
    with pytest.raises(DataError, match="x: timestamp and feature indices must fit in int64"):
        dg.SparseSample(id="x", timestamp=0, label=0, indices=(0, 2**64))


def test_dataset_rejects_out_of_range_index():
    fd = dg.FeatureDictionary(["a", "b"])
    bad = dg.SparseSample(id="s9", timestamp=0, label=0, indices=(0, 5))
    with pytest.raises(DataError, match=r"s9.*5.*d=2"):
        dg.Dataset(fd, [bad])
    # ids must be unique; the error names the later copy and its position
    twins = [dg.SparseSample(id=sid, timestamp=0, label=0, indices=()) for sid in "aba"]
    with pytest.raises(DataError, match="sample a: duplicate sample id") as info:
        dg.Dataset(fd, twins)
    assert info.value.row == 2


def test_score_error_names_sample_and_dimension():
    fd = dg.FeatureDictionary(["a", "b"])
    model = dg.LinearModel.for_dictionary([1.0, 1.0], 0.0, fd)
    rogue = dg.SparseSample(id="rogue", timestamp=0, label=0, indices=(4,))
    with pytest.raises(DataError, match=r"rogue.*4.*d=2"):
        model.score(rogue)


def test_dictionary_validation_and_fingerprint():
    with pytest.raises(DataError, match="duplicate"):
        dg.FeatureDictionary(["a", "a"])
    with pytest.raises(DataError, match="name"):
        dg.FeatureDictionary(["ok", "bad\tname"])
    fd1 = dg.FeatureDictionary(["a", "b"])
    fd2 = dg.FeatureDictionary(["a", "b"])
    fd3 = dg.FeatureDictionary(["b", "a"])
    assert fd1.fingerprint == fd2.fingerprint
    assert fd1.fingerprint != fd3.fingerprint
    assert fd1.index_of("b") == 1
    with pytest.raises(DataError):
        fd1.index_of("zzz")


def test_model_requires_finite_parameters():
    fd = dg.FeatureDictionary(["a"])
    with pytest.raises(DataError, match="finite"):
        dg.LinearModel.for_dictionary([np.inf], 0.0, fd)
    with pytest.raises(DataError, match="finite"):
        dg.LinearModel.for_dictionary([0.0], float("nan"), fd)
    with pytest.raises(DataError, match="does not match"):
        dg.LinearModel.for_dictionary([0.0, 1.0], 0.0, fd)


def test_fingerprint_mismatch_rejected_by_batch_ops():
    ds = binary_dataset([[0], [1]], [0, 1])
    other = dg.FeatureDictionary(["x", "y"])
    model = dg.LinearModel.for_dictionary([1.0, 1.0], 0.0, other)
    with pytest.raises(DataError, match="mismatch"):
        dg.score_dataset(model, ds)


def test_dataset_basic_properties_and_subset():
    ds = binary_dataset([[0], [0, 1], []], [1, 0, 1], timestamps=[30, 10, 20])
    assert ds.n == 3
    assert ds.t_min == 10 and ds.t_max == 30
    assert ds.class_counts() == (1, 2)
    sub = ds.subset([True, False, True])
    assert [s.id for s in sub.samples] == ["s0", "s2"]
    assert sub.dictionary is ds.dictionary
    empty = binary_dataset([], [], d=2)
    with pytest.raises(DataError, match="empty"):
        _ = empty.t_min


def test_subset_matches_rebuild_from_kept_samples():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 40, 12, density=0.3)
    mask = rng.random(ds.n) < 0.5
    sub = ds.subset(mask)
    rebuilt = dg.Dataset(ds.dictionary, [s for s, keep in zip(ds.samples, mask) if keep])
    for name in ("ids", "timestamps", "labels", "indptr", "indices", "y_signed"):
        a, b = getattr(sub, name), getattr(rebuilt, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert sub.samples == rebuilt.samples
    assert ds.subset(np.zeros(ds.n, bool)).n == 0


def test_csr_arrays_are_readonly():
    ds = binary_dataset([[0], [1]], [0, 1])
    with pytest.raises(ValueError):
        ds.labels[0] = 1
    model = random_model(np.random.default_rng(0), ds)
    with pytest.raises(ValueError):
        model.weights[0] = 5.0


# every character at which str.splitlines ends a line, plus "\r\n"
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", [b for b in LINE_BREAKS if "\n" not in b])  # "\n" ranks first
def test_dictionary_rejects_a_name_with_a_line_break(brk):
    with pytest.raises(FeatureError, match=r"feature 1: name .* holds a line break") as info:
        dg.FeatureDictionary(["ok", f"a{brk}b", "z"])
    assert info.value.index == 1


def test_name_line_break_ranks_after_the_earlier_name_checks():
    with pytest.raises(FeatureError, match="duplicate feature name 'b'"):
        dg.FeatureDictionary(["a\rx", "b", "b"])
    with pytest.raises(FeatureError, match="feature 2: name must be nonempty"):
        dg.FeatureDictionary(["a\u2028", "b", "c\td"])


@pytest.mark.parametrize("sid", ["a\tb", "#x", "#"] + [f"a{brk}b" for brk in LINE_BREAKS])
def test_dataset_rejects_an_id_that_does_not_fit_a_sample_line(sid):
    fd = dg.FeatureDictionary(["a"])
    samples = [dg.SparseSample(id=i, timestamp=0, label=0, indices=()) for i in ("s0", sid, "s2")]
    with pytest.raises(SampleError, match="id must not start with '#' or hold a tab or a line "
                                          "break") as info:
        dg.Dataset(fd, samples)
    assert info.value.row == 1
    kept = dg.Dataset(fd, [dg.SparseSample(id=i, timestamp=0, label=0, indices=())
                           for i in ("", " #x", "x#", "\"", "$", "a b", "é,\"")])
    assert kept.ids.tolist() == ["", " #x", "x#", "\"", "$", "a b", "é,\""]


def test_id_check_ranks_after_every_earlier_sample_check():
    fd = dg.FeatureDictionary(["a"])
    with pytest.raises(SampleError, match="sample s2: label must be 0 or 1, got 2"):
        dg.Dataset.from_arrays(fd, ["#x", "s1", "s2"], [0, 0, 0], [0, 0, 2], [0, 0, 0, 0], [])
    with pytest.raises(SampleError, match="sample s1: duplicate sample id") as info:
        dg.Dataset.from_arrays(fd, ["a\rb", "s1", "s1"], [0, 0, 0], [0, 0, 0], [0, 0, 0, 0], [])
    assert info.value.row == 2


def test_dictionaries_that_place_a_nul_differently_are_refused():
    # joined by NUL for the fingerprint, both would hash to the same text
    for names, index in ((["a\x00b", "c"], 0), (["a", "b\x00c"], 1)):
        with pytest.raises(FeatureError, match=f"feature {index}: name .* holds a NUL") as info:
            dg.FeatureDictionary(names)
        assert info.value.index == index
    # the NUL check ranks after every earlier name check
    with pytest.raises(FeatureError, match="feature 1: name 'b\\\\rc' holds a line break"):
        dg.FeatureDictionary(["a\x00", "b\rc"])
    with pytest.raises(FeatureError, match="duplicate feature name 'b'"):
        dg.FeatureDictionary(["a\x00", "b", "b"])


def test_text_that_utf8_cannot_encode_is_a_data_error():
    with pytest.raises(FeatureError, match="feature 1: name '\\\\ud800' is not valid "
                                           "UTF-8") as info:
        dg.FeatureDictionary(["ok", "\ud800"])
    assert info.value.index == 1
    fd = dg.FeatureDictionary(["a"])
    with pytest.raises(SampleError, match="sample '\\\\ud800': id is not valid UTF-8") as info:
        dg.Dataset(fd, [dg.SparseSample(id=i, timestamp=0, label=0, indices=())
                        for i in ("s0", "s1", "\ud800")])
    assert info.value.row == 2
    with pytest.raises(SampleError) as info:
        dg.Dataset.from_arrays(fd, ["s0", "x\udfffy"], [0, 0], [0, 1], [0, 0, 0], [])
    assert info.value.row == 1


def test_dictionary_keeps_its_names_once_as_a_readonly_string_array():
    fd = dg.FeatureDictionary(["a", "b", "c"])
    assert isinstance(fd.names.dtype, np.dtypes.StringDType)
    assert fd.names is fd.names and fd.names.tolist() == ["a", "b", "c"]
    with pytest.raises(ValueError):
        fd.names[0] = "z"
    same = dg.FeatureDictionary(fd.names)
    assert same == fd and hash(same) == hash(fd) and same.fingerprint == fd.fingerprint
    assert fd != dg.FeatureDictionary(["a", "b"]) and fd != dg.FeatureDictionary(["a", "c", "b"])
    assert fd.index_of("c") == 2 and same.index_of("a") == 0
    assert dg.FeatureDictionary([]) == dg.FeatureDictionary([])


def test_signed_labels_are_built_on_demand():
    ds = binary_dataset([[0], [], [0]], [1, 0, 1])
    assert "y_signed" not in dg.Dataset.__slots__
    assert ds.y_signed.dtype == np.float64 and ds.y_signed.tolist() == [1.0, -1.0, 1.0]
    assert ds.y_signed is not ds.y_signed
