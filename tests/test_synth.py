import hashlib

import numpy as np
import pytest

from driftguard import io as dgio
from driftguard.core import DataError
from driftguard.drift import DriftConfig, fit_slope, slot_means
from driftguard.synth import BASE_EPOCH, SynthSpec, generate

SMALL = SynthSpec(d=60, n_per_slot=200, n_slots=8, stable_pos=6, stable_neg=6,
                  n_drift_up=5, n_drift_down=5, base_p=0.05, peak_p=0.6,
                  noise_p=0.03, seed=5)


def _slot_cfg(spec):
    return DriftConfig(slot_mode="fixed", dt_seconds=spec.slot_seconds, class_filter=1)


def test_same_seed_same_dataset():
    ds1, t1 = generate(SMALL)
    ds2, t2 = generate(SMALL)
    assert t1 == t2
    assert [s.id for s in ds1.samples] == [s.id for s in ds2.samples]
    assert all(a.indices == b.indices and a.timestamp == b.timestamp
               for a, b in zip(ds1.samples, ds2.samples))


def test_different_seed_differs():
    ds1, _ = generate(SMALL)
    ds2, _ = generate(SynthSpec(**{**SMALL.__dict__, "seed": 6}))
    assert any(a.indices != b.indices for a, b in zip(ds1.samples, ds2.samples))


def test_exact_class_balance_per_slot():
    ds, _ = generate(SMALL)
    cfg = _slot_cfg(SMALL)
    from driftguard.drift import slot_layout
    layout = slot_layout(ds, cfg)
    assert layout.n_slots == SMALL.n_slots
    for k in range(SMALL.n_slots):
        sel = layout.slot_ids == k
        labels = ds.labels[sel]
        assert int((labels == 1).sum()) >= SMALL.n_per_slot - 2
        assert int((labels == 0).sum()) >= SMALL.n_per_slot - 2
    # exact per generation window (layout windows can shift one straggler)
    counts = {}
    for s in ds.samples:
        gen_slot = (s.timestamp - BASE_EPOCH) // SMALL.slot_seconds
        counts.setdefault((gen_slot, s.label), 0)
        counts[(gen_slot, s.label)] += 1
    assert all(v == SMALL.n_per_slot for v in counts.values())


def test_timestamps_inside_generation_windows():
    ds, truth = generate(SMALL)
    for s in ds.samples:
        rel = s.timestamp - BASE_EPOCH
        assert 0 <= rel < SMALL.n_slots * SMALL.slot_seconds


def test_ground_truth_layout_and_signs():
    _, truth = generate(SMALL)
    assert len(truth.drift_up) == SMALL.n_drift_up
    assert len(truth.drift_down) == SMALL.n_drift_down
    assert truth.slope_sign(truth.drift_up[0]) == 1
    assert truth.slope_sign(truth.drift_down[0]) == -1
    assert truth.slope_sign(0) == 0  # stable feature
    groups = set(truth.drift_up) | set(truth.drift_down) | set(truth.stable_pos) | set(truth.stable_neg)
    assert len(groups) == SMALL.stable_pos + SMALL.stable_neg + SMALL.n_drift_up + SMALL.n_drift_down


def test_no_drift_null_slopes_within_three_sigma():
    # fixed seed: max |z| over the 50 features is 2.01 for seed 12
    spec = SynthSpec(d=50, n_per_slot=400, n_slots=8, stable_pos=5, stable_neg=5,
                     n_drift_up=0, n_drift_down=0, base_p=0.05, peak_p=0.5,
                     noise_p=0.05, seed=12)
    ds, _ = generate(spec)
    means = slot_means(ds, _slot_cfg(spec))
    assert not means.empty.any()
    ks = np.arange(spec.n_slots, dtype=float)
    kc = ks - ks.mean()
    ssk = float(kc @ kc)
    for j in range(spec.d):
        row = means.matrix[j]
        fit = fit_slope(zip(ks, row))
        p = row.mean()
        sigma_slope = np.sqrt(max(p * (1 - p), 1e-12) / spec.n_per_slot / ssk)
        assert abs(fit.slope) < 3.0 * sigma_slope + 1e-12, f"feature {j}"


def test_planted_slope_matches_binomial_mean_oracle():
    spec = SynthSpec(d=10, n_per_slot=2000, n_slots=6, stable_pos=0, stable_neg=0,
                     n_drift_up=1, n_drift_down=0, base_p=0.0, peak_p=1.0,
                     noise_p=0.0, seed=2)
    ds, truth = generate(spec)
    means = slot_means(ds, _slot_cfg(spec))
    j = truth.drift_up[0]
    fit = fit_slope(zip(range(spec.n_slots), means.matrix[j]))
    assert fit.slope == pytest.approx(1.0 / (spec.n_slots - 1), abs=0.02)


def test_ground_truth_slope_signs_match_empirical_fits():
    spec = SynthSpec(d=80, n_per_slot=500, n_slots=12, stable_pos=8, stable_neg=8,
                     n_drift_up=6, n_drift_down=6, base_p=0.05, peak_p=0.6,
                     noise_p=0.02, seed=13)
    ds, truth = generate(spec)
    means = slot_means(ds, _slot_cfg(spec))
    for j in truth.planted_drift:
        fit = fit_slope(zip(range(spec.n_slots), means.matrix[j]))
        assert np.sign(fit.slope) == truth.slope_sign(j), f"feature {j}"


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(d=10, stable_pos=5, stable_neg=5, n_drift_up=3, n_drift_down=3)
    with pytest.raises(DataError):
        SynthSpec(base_p=0.5, peak_p=0.1)
    with pytest.raises(DataError):
        SynthSpec(noise_p=1.5)
    with pytest.raises(DataError):
        SynthSpec(n_slots=1)  # drifting features need >= 2 slots
    with pytest.raises(DataError):
        SynthSpec(n_per_slot=0)


def test_ground_truth_json_round_trip(tmp_path):
    from driftguard.synth import load_ground_truth, save_ground_truth
    _, truth = generate(SMALL)
    path = tmp_path / "truth.json"
    save_ground_truth(str(path), truth, SMALL)
    loaded = load_ground_truth(str(path))
    assert loaded == truth


def test_ground_truth_write_error_leaves_no_tmp_file(tmp_path):
    from driftguard.synth import save_ground_truth
    _, truth = generate(SMALL)
    path = tmp_path / "truth.json"
    with pytest.raises(TypeError):
        save_ground_truth(str(path), truth, SMALL, provenance={"x": object()})
    assert list(tmp_path.iterdir()) == []


def test_generated_file_bytes_are_pinned(tmp_path):
    # a change to the order of the RNG calls or to the dataset format changes
    # this sha256 of the file the spec generates
    spec = SynthSpec(d=50, n_per_slot=10, n_slots=4, seed=3,
                     stable_pos=5, stable_neg=5, n_drift_up=5, n_drift_down=5)
    path = tmp_path / "pinned.dg"
    dgio.save_dataset(str(path), generate(spec)[0])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e9dc1e7fcc173db42d60617fb3e8802d5d449920304ddbb6d4c77f8626cc6a3f"
