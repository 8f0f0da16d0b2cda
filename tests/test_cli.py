import csv
import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import driftguard
from driftguard import io as dgio
from driftguard.cli import run
from driftguard.core import NumericError
from driftguard.evaluation import SplitSpec, temporal_split
from driftguard.synth import BASE_EPOCH, REFERENCE_SPEC

from conftest import binary_dataset

SYNTH_ARGS = ["synth", "--d", "60", "--n-per-slot", "80", "--n-slots", "6",
              "--stable-pos", "6", "--stable-neg", "6", "--drift-up", "5",
              "--drift-down", "5", "--base-p", "0.05", "--peak-p", "0.6",
              "--noise-p", "0.03", "--seed", "3", "--no-provenance-timestamp"]
SLOT_ARGS = ["--slot-mode", "fixed", "--dt-seconds", "2592000"]
FAST_TRAIN = ["--iters", "150", "--eta0", "0.01"]
BOUNDARY = str(BASE_EPOCH + 3 * 2592000)


@pytest.fixture()
def synth_files(tmp_path):
    data = str(tmp_path / "data.dg")
    truth = str(tmp_path / "truth.json")
    assert run(SYNTH_ARGS + ["--out", data, "--truth-out", truth]) == 0
    return data, truth


@pytest.fixture()
def model_file(tmp_path, synth_files):
    model = str(tmp_path / "svm.model")
    assert run(["train", "--dataset", synth_files[0], "--out", model, *FAST_TRAIN,
                "--no-provenance-timestamp"]) == 0
    return model


def test_synth_writes_loadable_outputs(synth_files):
    data, truth = synth_files
    ds = dgio.load_dataset(data)
    assert ds.n == 6 * 80 * 2 and ds.d == 60
    obj = json.load(open(truth))
    assert len(obj["features"]) == 10
    assert obj["slot_seconds"] == 2592000
    assert obj["provenance"]["command"] == "synth"


def test_synth_that_cannot_write_its_truth_file_writes_no_file(tmp_path, capsys):
    data, truth = str(tmp_path / "data.dg"), str(tmp_path / "nodir" / "t.json")
    assert run(SYNTH_ARGS + ["--out", data, "--truth-out", truth]) == 2
    err = capsys.readouterr().err
    assert err == f"driftguard: i/o error: [Errno 2] No such file or directory: '{truth}'\n"
    assert os.listdir(tmp_path) == []


def test_synth_whose_truth_file_is_a_directory_writes_no_dataset(tmp_path, capsys):
    data, truth = str(tmp_path / "data.dg"), str(tmp_path / "t.json")
    os.mkdir(truth)
    assert run(SYNTH_ARGS + ["--out", data, "--truth-out", truth]) == 2
    err = capsys.readouterr().err
    assert err == f"driftguard: i/o error: [Errno 21] Is a directory: '{truth}'\n"
    assert os.listdir(tmp_path) == ["t.json"] and os.listdir(truth) == []


def test_eval_whose_summary_path_is_a_directory_writes_no_csv(tmp_path, synth_files,
                                                             model_file, capsys):
    out = tmp_path / "out"
    os.makedirs(out / "e.json")
    assert run(["eval", "--dataset", synth_files[0], "--model", model_file,
                "--out", str(out / "e.csv"), *SLOT_ARGS, "--no-provenance-timestamp"]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert os.listdir(out) == ["e.json"] and os.listdir(out / "e.json") == []


@pytest.mark.parametrize("command", ["synth", "eval"])
def test_a_command_naming_one_file_for_two_outputs_exits_two_writing_nothing(
        tmp_path, synth_files, model_file, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    if command == "synth":
        twice = str(out / "x")
        argv = SYNTH_ARGS + ["--out", twice, "--truth-out", twice]
    else:
        twice = str(out / "e.json")
        argv = ["eval", "--dataset", synth_files[0], "--model", model_file, "--out", twice,
                *SLOT_ARGS, "--no-provenance-timestamp"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"driftguard: data error: {twice}: named as two outputs\n"
    assert os.listdir(out) == []


def test_synth_seed_7_writes_the_reference_fixture(tmp_path, reference_data):
    data = str(tmp_path / "data.dg")
    assert run(["synth", "--out", data, "--seed", "7", "--no-provenance-timestamp"]) == 0
    assert REFERENCE_SPEC.seed == 7
    ds, want = dgio.load_dataset(data), reference_data[0]
    assert ds.dictionary == want.dictionary
    for name in ("ids", "timestamps", "labels", "indptr", "indices"):
        assert np.array_equal(getattr(ds, name), getattr(want, name)), name


def test_train_drift_traincb_eval_pipeline(tmp_path, synth_files):
    data, _ = synth_files
    model_path = str(tmp_path / "svm.model")
    assert run(["train", "--dataset", data, "--out", model_path,
                *FAST_TRAIN, "--no-provenance-timestamp"]) == 0
    model, meta = dgio.load_model(model_path)
    assert meta["config"]["iterations"] == "150"

    drift_path = str(tmp_path / "drift.csv")
    assert run(["drift", "--dataset", data, "--model", model_path,
                "--out", drift_path, *SLOT_ARGS, "--no-provenance-timestamp"]) == 0
    rows = [r for r in open(drift_path).read().splitlines() if not r.startswith("#")]
    parsed = list(csv.reader(rows))
    deltas = [float(r[5]) for r in parsed[1:]]
    assert deltas == sorted(deltas)  # most destabilizing first

    cb_path = str(tmp_path / "cb.model")
    assert run(["train-cb", "--dataset", data, "--model", model_path,
                "--out", cb_path, "--nf", "10", "--bound", "0.2",
                *SLOT_ARGS, *FAST_TRAIN, "--no-provenance-timestamp"]) == 0
    cb, meta = dgio.load_model(cb_path)
    assert len(meta["bounded"]) == 10
    assert np.max(np.abs(cb.weights[meta["bounded"]])) <= 0.2 + 1e-12

    eval_path = str(tmp_path / "eval.csv")
    assert run(["eval", "--dataset", data, "--model", model_path,
                "--out", eval_path, "--fpr-cap", "0.05",
                *SLOT_ARGS, "--no-provenance-timestamp"]) == 0
    assert os.path.exists(eval_path)
    summary = json.load(open(str(tmp_path / "eval.json")))
    assert summary["fpr_cap"] == 0.05
    assert "recall" in summary["decay_slope"]


def test_compare_bundle(tmp_path, synth_files):
    data, _ = synth_files
    out = str(tmp_path / "bundle")
    boundary = BASE_EPOCH + 3 * 2592000
    assert run(["compare", "--dataset", data, "--out", out, "--boundary", str(boundary),
                "--nf", "10", *SLOT_ARGS, *FAST_TRAIN, "--no-provenance-timestamp"]) == 0
    names = sorted(os.listdir(out))
    assert names == sorted([
        "svm.model", "cb_h.model", "cb_l.model", "drift.csv",
        "eval_svm.csv", "eval_cb_h.csv", "eval_cb_l.csv",
        "score_trend_svm.csv", "score_trend_cb_h.csv", "score_trend_cb_l.csv",
        "summary.json",
    ])
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert set(summary["models"]) == {"svm", "cb_h", "cb_l"}
    assert summary["bounds"] == {"cb_h": 0.8, "cb_l": 0.2}
    for rec in summary["models"].values():
        assert rec["decay_slope"]["recall"] is not None
    ds = dgio.load_dataset(data)
    for name in ("svm", "cb_h", "cb_l"):
        dgio.load_model(os.path.join(out, f"{name}.model"), dictionary=ds.dictionary)


def test_compare_lays_out_and_scores_each_side_once(tmp_path, synth_files, monkeypatch):
    data, _ = synth_files
    calls = {"slot_layout": 0, "scores": 0}
    for module, name in ((driftguard.drift, "slot_layout"), (driftguard._kernels, "scores")):
        original = getattr(module, name)

        def counted(*args, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(*args)
        # also where a module imported the function by name
        for ns in (driftguard.drift, driftguard.evaluation, driftguard.core, driftguard._kernels):
            if getattr(ns, name, None) is original:
                monkeypatch.setattr(ns, name, counted)
    assert run(["compare", "--dataset", data, "--out", str(tmp_path / "bundle"),
                "--boundary", str(BASE_EPOCH + 3 * 2592000), "--nf", "10", *SLOT_ARGS,
                "--iters", "5", "--no-provenance-timestamp"]) == 0
    # one layout per dataset side; one score pass per model on the test side
    assert calls == {"slot_layout": 2, "scores": 3}


def test_compare_and_train_cb_build_no_drift_records(tmp_path, synth_files, monkeypatch):
    data, _ = synth_files
    built = []
    original = driftguard.drift.DriftRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args or kwargs)
        original(self, *args, **kwargs)
    monkeypatch.setattr(driftguard.drift.DriftRecord, "__init__", counted)
    out = str(tmp_path / "bundle")
    assert run(["compare", "--dataset", data, "--out", out,
                "--boundary", str(BASE_EPOCH + 3 * 2592000), "--nf", "10", *SLOT_ARGS,
                "--iters", "5", "--no-provenance-timestamp"]) == 0
    assert run(["train-cb", "--dataset", data, "--model", os.path.join(out, "svm.model"),
                "--out", str(tmp_path / "cb.model"), "--nf", "10", *SLOT_ARGS,
                "--iters", "5", "--no-provenance-timestamp"]) == 0
    assert built == []
    ds = dgio.load_dataset(data)
    model, _ = dgio.load_model(os.path.join(out, "svm.model"))
    config = driftguard.DriftConfig(slot_mode="fixed", dt_seconds=2592000)
    assert len(driftguard.t_stability(model, ds, config).records) == len(built) == ds.d


def test_compare_bad_slot_config_exits_before_training(tmp_path, synth_files, capsys):
    data, _ = synth_files
    out = str(tmp_path / "bundle")
    assert run(["compare", "--dataset", data, "--out", out,
                "--boundary", str(BASE_EPOCH + 3 * 2592000), "--nf", "10", "--slot-mode",
                "fixed", "--dt-seconds", "10", *FAST_TRAIN, "--no-provenance-timestamp"]) == 2
    assert "at most 119988" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("slot_flags, train_times, boundary, message", [
    (["--slot-mode", "fixed", "--dt-seconds", "100"], [0, 2**39, 2**40 - 1], 2**40,
     "make 10995116278 slots; at most 119988 are supported"),
    (["--slot-mode", "month"], [-62135596801, -10, -5], 0,
     "month slots need timestamps in years 1-9999 UTC, got -62135596801"),
], ids=["fixed", "month"])
def test_compare_checks_the_train_side_slots_before_training(tmp_path, capsys, monkeypatch,
                                                             slot_flags, train_times, boundary,
                                                             message):
    fd = driftguard.FeatureDictionary(["a", "b"])
    times = train_times + [boundary + k for k in (0, 400, 999)]
    samples = [driftguard.SparseSample(id=f"s{i}", timestamp=t, label=i % 2, indices=(i % 2,))
               for i, t in enumerate(times)]
    data = str(tmp_path / "data.dg")
    dgio.save_dataset(data, driftguard.Dataset(fd, samples))
    trained, train_svm = [], driftguard.cli.train_svm
    monkeypatch.setattr(driftguard.cli, "train_svm",
                        lambda *args: trained.append(args) or train_svm(*args))
    out = str(tmp_path / "bundle")
    assert run(["compare", "--dataset", data, "--out", out, "--boundary", str(boundary),
                "--nf", "1", *slot_flags, "--iters", "5", "--no-provenance-timestamp"]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out) and trained == []


@pytest.mark.parametrize("flags, message", [
    (["--nf", "500"], "n_f=500 exceeds feature count d=60"),
    (["--nf", "-1"], "n_f must be >= 0, got -1"),
    (["--nf", "10", "--fpr-cap", "0"], "fpr_cap must be in (0, 1], got 0.0"),
], ids=["nf-above-d", "nf-negative", "fpr-cap-zero"])
def test_compare_bad_flag_exits_before_training(tmp_path, synth_files, capsys, flags, message):
    data, _ = synth_files
    out = str(tmp_path / "bundle")
    assert run(["compare", "--dataset", data, "--out", out,
                "--boundary", str(BASE_EPOCH + 3 * 2592000), *flags, *SLOT_ARGS,
                *FAST_TRAIN, "--no-provenance-timestamp"]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)  # so no drift.csv and no model


def _body(path) -> list[str]:
    """A file's lines without its `# ` comments and a model's `config.` echo lines."""
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines()
                if not line.startswith(("# ", "config."))]


@pytest.mark.parametrize("slot_flags, nf", [
    (SLOT_ARGS, "10"), (["--slot-mode", "month"], "10"), (SLOT_ARGS, "60"),
], ids=["fixed", "month", "nf-equals-d"])
def test_compare_equals_its_steps(tmp_path, synth_files, slot_flags, nf):
    # the bundle equals what train, drift, train-cb and eval write on the two sides
    data, _ = synth_files
    bundle = tmp_path / "bundle"
    assert run(["compare", "--dataset", data, "--out", str(bundle), "--boundary", BOUNDARY,
                "--nf", nf, *slot_flags, *FAST_TRAIN, "--no-provenance-timestamp"]) == 0
    sides = temporal_split(dgio.load_dataset(data), SplitSpec(int(BOUNDARY)))
    train, test = str(tmp_path / "train.dg"), str(tmp_path / "test.dg")
    for path, side in zip((train, test), sides):
        dgio.save_dataset(path, side)
    steps = tmp_path / "steps"
    steps.mkdir()
    quiet = ["--no-provenance-timestamp"]
    assert run(["train", "--dataset", train, "--out", str(steps / "svm.model"),
                *FAST_TRAIN, *quiet]) == 0
    assert run(["drift", "--dataset", train, "--model", str(steps / "svm.model"),
                "--out", str(steps / "drift.csv"), *slot_flags, *quiet]) == 0
    for name, bound in (("cb_h", "0.8"), ("cb_l", "0.2")):
        assert run(["train-cb", "--dataset", train, "--model", str(steps / "svm.model"),
                    "--out", str(steps / f"{name}.model"), "--nf", nf, "--bound", bound,
                    *slot_flags, *FAST_TRAIN, *quiet]) == 0
    summary = json.load(open(bundle / "summary.json"))
    assert _body(bundle / "drift.csv") == _body(steps / "drift.csv")
    for name in ("svm", "cb_h", "cb_l"):
        assert run(["eval", "--dataset", test, "--model", str(steps / f"{name}.model"),
                    "--out", str(steps / f"eval_{name}.csv"), *slot_flags, *quiet]) == 0
        assert _body(bundle / f"{name}.model") == _body(steps / f"{name}.model"), name
        assert _body(bundle / f"eval_{name}.csv") == _body(steps / f"eval_{name}.csv"), name
        step_summary = json.load(open(steps / f"eval_{name}.json"))
        assert summary["models"][name]["decay_slope"] == step_summary["decay_slope"], name


@pytest.mark.filterwarnings("ignore:overflow")
def test_compare_numeric_failure_creates_no_out(tmp_path, synth_files, capsys):
    data, _ = synth_files
    out = str(tmp_path / "bundle")
    assert run(["compare", "--dataset", data, "--out", out, "--boundary", BOUNDARY,
                "--nf", "10", *SLOT_ARGS, "--eta0", "1e308", "--iters", "5",
                "--no-provenance-timestamp"]) == 3
    err = capsys.readouterr().err
    assert err == "driftguard: numeric failure: non-finite training loss at iteration 2\n"
    assert not os.path.exists(out)


def _tree(root) -> dict:
    """Every file under root, by relative path, with its bytes."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_compare_failing_a_cb_training_leaves_the_old_bundle(tmp_path, synth_files, capsys,
                                                             monkeypatch):
    data, _ = synth_files
    out = str(tmp_path / "bundle")
    argv = ["compare", "--dataset", data, "--out", out, "--boundary", BOUNDARY, "--nf", "10",
            *SLOT_ARGS, *FAST_TRAIN, "--no-provenance-timestamp"]
    assert run(argv) == 0
    before = _tree(out)
    assert len(before) == 11

    def failing(*args):
        raise NumericError("non-finite training loss at iteration 1")
    monkeypatch.setattr(driftguard.cli, "train_svm_cb", failing)
    assert run(argv + ["--seed", "1"]) == 3  # a run that went through would echo seed=1
    assert capsys.readouterr().err.endswith("non-finite training loss at iteration 1\n")
    assert _tree(out) == before


LAST_WRITERS = {
    "synth": (driftguard.cli, "save_ground_truth"),
    "train": (dgio, "save_model"),
    "drift": (dgio, "save_drift_report"),
    "train-cb": (dgio, "save_model"),
    "eval": (dgio, "save_json"),
    "compare": (dgio, "save_json"),
}


@pytest.mark.parametrize("command", list(LAST_WRITERS))
def test_a_failing_last_writer_leaves_the_outputs_as_they_were(tmp_path, synth_files, model_file,
                                                               capsys, monkeypatch, command):
    data, _ = synth_files
    out = tmp_path / "out"
    out.mkdir()
    inputs = ["--dataset", data, "--model", model_file]
    argv = {
        "synth": SYNTH_ARGS + ["--out", str(out / "data.dg"), "--truth-out",
                               str(out / "truth.json")],
        "train": ["train", "--dataset", data, "--out", str(out / "m.model"), *FAST_TRAIN],
        "drift": ["drift", *inputs, "--out", str(out / "drift.csv"), *SLOT_ARGS],
        "train-cb": ["train-cb", *inputs, "--out", str(out / "cb.model"), "--nf", "10",
                     *SLOT_ARGS, *FAST_TRAIN],
        "eval": ["eval", *inputs, "--out", str(out / "e.csv"), *SLOT_ARGS],
        "compare": ["compare", "--dataset", data, "--out", str(out / "bundle"),
                    "--boundary", BOUNDARY, "--nf", "10", *SLOT_ARGS, *FAST_TRAIN],
    }[command] + ["--no-provenance-timestamp"]
    assert run(argv) == 0
    before = _tree(out)
    owner, name = LAST_WRITERS[command]

    def failing(path, *args, **kwargs):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("partial")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
    monkeypatch.setattr(owner, name, failing)
    assert run(argv + ["--seed", "11"]) == 2  # a run that went through would echo seed=11
    assert "No space left on device" in capsys.readouterr().err
    assert _tree(out) == before


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_eval_bad_fpr_cap_exits_before_loading(tmp_path, capsys, cap):
    # no slot holds both classes, so no pAUC is computed that would check the cap
    data = str(tmp_path / "pos.dg")
    dataset = binary_dataset([[0], [1], [0, 1], []], [1, 1, 1, 1], d=2)
    dgio.save_dataset(data, dataset)
    model_path = str(tmp_path / "m.model")
    dgio.save_model(model_path, driftguard.LinearModel.for_dictionary([0.5, -0.5], 0.0,
                                                                      dataset.dictionary))
    out = str(tmp_path / "eval.csv")
    assert run(["eval", "--dataset", data, "--model", model_path, "--out", out,
                "--fpr-cap", cap, *SLOT_ARGS, "--no-provenance-timestamp"]) == 2
    assert f"fpr_cap must be in (0, 1], got {float(cap)}" in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(str(tmp_path / "eval.json"))


def test_unknown_flag_exits_one_without_writing(tmp_path, capsys):
    out = str(tmp_path / "x.dg")
    code = run(["synth", "--out", out, "--bogus-flag", "1"])
    assert code == 1
    assert not os.path.exists(out)
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_dataset_file_exits_two(tmp_path, capsys):
    assert run(["train", "--dataset", str(tmp_path / "nope.dg"),
                "--out", str(tmp_path / "m.model")]) == 2


def test_single_class_dataset_exits_two(tmp_path, capsys):
    data = str(tmp_path / "one.dg")
    ds_args = ["synth", "--d", "10", "--n-per-slot", "5", "--n-slots", "2",
               "--stable-pos", "1", "--stable-neg", "1", "--drift-up", "0",
               "--drift-down", "0", "--out", data, "--no-provenance-timestamp"]
    assert run(ds_args) == 0
    # rewrite every label to 1 to fabricate a degenerate set
    lines = open(data).read().splitlines()
    fixed = []
    for line in lines:
        if line.startswith("#"):
            fixed.append(line)
        else:
            sid, ts, label, idx = line.split("\t")
            fixed.append("\t".join([sid, ts, "1", idx]))
    open(data, "w").write("\n".join(fixed) + "\n")
    code = run(["train", "--dataset", data, "--out", str(tmp_path / "m.model")])
    assert code == 2
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_failure_exits_three(tmp_path, synth_files, capsys):
    data, _ = synth_files
    model_path = str(tmp_path / "m.model")
    code = run(["train", "--dataset", data, "--out", model_path,
                "--eta0", "1e308", "--iters", "5", "--schedule", "constant",
                "--l2", "0", "--no-provenance-timestamp"])
    assert code == 3
    assert not os.path.exists(model_path)
    assert "numeric" in capsys.readouterr().err


def test_fingerprint_mismatch_exits_two(tmp_path, synth_files):
    data, _ = synth_files
    other = str(tmp_path / "other.dg")
    assert run(SYNTH_ARGS[:1] + ["--d", "10", "--n-per-slot", "4", "--n-slots", "2",
               "--stable-pos", "1", "--stable-neg", "1", "--drift-up", "1",
               "--drift-down", "1", "--out", other, "--no-provenance-timestamp"]) == 0
    model_path = str(tmp_path / "m.model")
    assert run(["train", "--dataset", other, "--out", model_path, "--iters", "5",
                "--no-provenance-timestamp"]) == 0
    assert run(["drift", "--dataset", data, "--model", model_path,
                "--out", str(tmp_path / "d.csv"), *SLOT_ARGS]) == 2


def test_hostile_input_files_exit_two(tmp_path, capsys):
    fd = driftguard.FeatureDictionary(["a", "b"])
    samples = [driftguard.SparseSample(id=f"s{i}", timestamp=10**12 * (i == 2), label=i % 2,
                                       indices=(i % 2,)) for i in range(3)]
    data = str(tmp_path / "data.dg")
    dgio.save_dataset(data, driftguard.Dataset(fd, samples))
    model = str(tmp_path / "m.model")
    dgio.save_model(model, driftguard.LinearModel.for_dictionary([1.0, -1.0], 0.0, fd))
    good = open(model, "rb").read()
    bad_model = str(tmp_path / "bad.model")
    bad_data = str(tmp_path / "bad.dg")
    open(bad_data, "wb").write(open(data, "rb").read().replace(b"s1", b"s\xff"))
    cases = [
        (data, good.replace(b"d=2", b"d=-1"), "fixed", "bad.model:"),
        (data, good + b"bounded=a,b\n", "fixed", "bad.model:"),
        (data, good + b"bias=1.0\n", "fixed", "bad.model:"),
        (data, good.replace(b"encoding", b"\xfeencoding"), "fixed", "bad.model:"),
        (bad_data, good, "fixed", "bad.dg:"),
        (data, good, "month", "years 1-9999"),
    ]
    for dataset, model_bytes, mode, message in cases:
        open(bad_model, "wb").write(model_bytes)
        code = run(["eval", "--dataset", dataset, "--model", bad_model, "--slot-mode", mode,
                    "--out", str(tmp_path / "e.csv"), "--no-provenance-timestamp"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "e.csv")


def test_deterministic_outputs_with_suppressed_timestamp(tmp_path):
    out = str(tmp_path / "a.dg")
    assert run(SYNTH_ARGS + ["--out", out]) == 0
    first = open(out, "rb").read()
    assert run(SYNTH_ARGS + ["--out", out]) == 0
    assert open(out, "rb").read() == first


def test_provenance_timestamp_present_by_default(tmp_path):
    out = str(tmp_path / "t.dg")
    assert run(SYNTH_ARGS[:-1] + ["--out", out]) == 0  # drop --no-provenance-timestamp
    assert "# generated_at=" in open(out).read()


def test_module_entry_point_help():
    # The child process imports the same package as the tests, installed or not.
    src = os.path.dirname(os.path.dirname(driftguard.__file__))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "driftguard", "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=pythonpath))
    assert out.returncode == 0
    assert "compare" in out.stdout


def test_version_flag():
    assert run(["--version"]) == 0
