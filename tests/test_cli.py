import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import driftguard
from driftguard import io as dgio
from driftguard.cli import run
from driftguard.synth import BASE_EPOCH

SYNTH_ARGS = ["synth", "--d", "60", "--n-per-slot", "80", "--n-slots", "6",
              "--stable-pos", "6", "--stable-neg", "6", "--drift-up", "5",
              "--drift-down", "5", "--base-p", "0.05", "--peak-p", "0.6",
              "--noise-p", "0.03", "--seed", "3", "--no-provenance-timestamp"]
SLOT_ARGS = ["--slot-mode", "fixed", "--dt-seconds", "2592000"]
FAST_TRAIN = ["--iters", "150", "--eta0", "0.01"]


@pytest.fixture()
def synth_files(tmp_path):
    data = str(tmp_path / "data.dg")
    truth = str(tmp_path / "truth.json")
    assert run(SYNTH_ARGS + ["--out", data, "--truth-out", truth]) == 0
    return data, truth


def test_synth_writes_loadable_outputs(synth_files):
    data, truth = synth_files
    ds = dgio.load_dataset(data)
    assert ds.n == 6 * 80 * 2 and ds.d == 60
    obj = json.load(open(truth))
    assert len(obj["features"]) == 10
    assert obj["slot_seconds"] == 2592000
    assert obj["provenance"]["command"] == "synth"


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
