import math

import numpy as np
import pytest

import driftguard as dg
from driftguard import _kernels
from driftguard.core import DataError
from driftguard.trainer import CbConfig, TrainConfig, schedule_value

from conftest import binary_dataset, random_dataset, random_model


def separable_toy(n_per_class=20):
    """Class 1 iff feature 0 present; feature 1 is background."""
    index_lists, labels = [], []
    for i in range(n_per_class):
        index_lists.append([0, 1] if i % 2 else [0])
        labels.append(1)
        index_lists.append([1] if i % 2 else [])
        labels.append(0)
    return binary_dataset(index_lists, labels, d=2)


# --- schedule ----------------------------------------------------------------

def test_schedule_cosine_endpoints():
    assert schedule_value("cosine", 1, 100) == pytest.approx(1.0, abs=0)
    last = schedule_value("cosine", 100, 100)
    assert last == pytest.approx(0.5 * (1 + math.cos(math.pi * 99 / 100)))
    assert last > 0


def test_schedule_constant_and_monotonicity():
    values = [schedule_value("cosine", t, 50) for t in range(1, 51)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(schedule_value("constant", t, 50) == 1.0 for t in (1, 25, 50))


def test_schedule_range_and_name_errors():
    with pytest.raises(DataError):
        schedule_value("cosine", 0, 10)
    with pytest.raises(DataError):
        schedule_value("cosine", 11, 10)
    with pytest.raises(DataError):
        schedule_value("linear", 1, 10)
    assert schedule_value("cosine_annealing", 1, 10) == 1.0  # alias


# --- hinge loss / gradient ----------------------------------------------------

def test_zero_model_single_positive_loss_is_one():
    ds = binary_dataset([[0]], [1], d=1)
    model = dg.LinearModel.for_dictionary([0.0], 0.0, ds.dictionary)
    assert dg.hinge_loss(model, ds) == pytest.approx(1.0, abs=0)


def test_loss_zero_when_all_margins_satisfied():
    ds = binary_dataset([[0], []], [1, 0], d=1)
    model = dg.LinearModel.for_dictionary([2.0], -1.0, ds.dictionary)
    # pos: score 1, margin 1; neg: score -1, margin 1
    assert dg.hinge_loss(model, ds, l2_lambda=0.0) == 0.0


def test_loss_matches_per_sample_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ds = random_dataset(rng, int(rng.integers(2, 60)), int(rng.integers(1, 30)))
        model = random_model(rng, ds)
        lam = float(rng.uniform(0, 2))
        oracle = 0.0
        for s in ds.samples:
            y = 1.0 if s.label else -1.0
            oracle += max(0.0, 1.0 - y * model.score(s))
        oracle += 0.5 * lam * float(np.dot(model.weights, model.weights))
        assert dg.hinge_loss(model, ds, lam) == pytest.approx(oracle, abs=1e-10)


def test_gradient_zero_when_margins_exceed_one():
    ds = binary_dataset([[0], []], [1, 0], d=1)
    model = dg.LinearModel.for_dictionary([4.0], -1.5, ds.dictionary)
    # pos margin 2.5, neg margin 1.5
    gw, gb = dg.hinge_gradient(model, ds, l2_lambda=0.0)
    assert np.array_equal(gw, [0.0]) and gb == 0.0


def test_gradient_single_violating_positive():
    ds = binary_dataset([[0]], [1], d=1)
    model = dg.LinearModel.for_dictionary([0.0], 0.0, ds.dictionary)
    gw, gb = dg.hinge_gradient(model, ds)
    assert gw[0] == -1.0 and gb == -1.0


def test_margin_exactly_one_contributes_nothing():
    ds = binary_dataset([[0]], [1], d=1)
    model = dg.LinearModel.for_dictionary([1.0], 0.0, ds.dictionary)  # margin exactly 1
    gw, gb = dg.hinge_gradient(model, ds)
    assert gw[0] == 0.0 and gb == 0.0
    assert dg.hinge_loss(model, ds) == 0.0


def _fd_gradient(model, ds, lam, h=1e-6):
    d = model.d
    gw = np.zeros(d)
    for j in range(d):
        for sign in (1.0, -1.0):
            w = model.weights.copy()
            w[j] += sign * h
            m = dg.LinearModel(w, model.bias, model.dictionary_fingerprint)
            gw[j] += sign * dg.hinge_loss(m, ds, lam)
    gw /= 2 * h
    gb = (dg.hinge_loss(dg.LinearModel(model.weights, model.bias + h,
                                       model.dictionary_fingerprint), ds, lam)
          - dg.hinge_loss(dg.LinearModel(model.weights, model.bias - h,
                                         model.dictionary_fingerprint), ds, lam)) / (2 * h)
    return gw, gb


def test_gradient_matches_finite_differences_sample():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 10:
        ds = random_dataset(rng, 30, 12)
        model = random_model(rng, ds, scale=0.6)
        margins = ds.y_signed * dg.score_dataset(model, ds)
        if np.min(np.abs(margins - 1.0)) <= 1e-4:
            continue
        lam = float(rng.choice([0.0, 0.7]))
        gw, gb = dg.hinge_gradient(model, ds, lam)
        fgw, fgb = _fd_gradient(model, ds, lam)
        err = np.linalg.norm(np.append(fgw - gw, fgb - gb))
        assert err / max(1.0, np.linalg.norm(np.append(gw, gb))) < 1e-4
        checked += 1


# --- train_svm -----------------------------------------------------------------

def test_train_separable_toy_reaches_full_accuracy():
    ds = separable_toy()
    model = dg.train_svm(ds, TrainConfig(iterations=300, eta0=0.01, schedule="cosine",
                                         l2_lambda=0.0))
    preds = dg.predict_dataset(model, ds)
    assert np.array_equal(preds, ds.labels)


def test_label_flip_negates_parameters():
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 40, 10)
    flipped = binary_dataset([list(s.indices) for s in ds.samples],
                             [1 - s.label for s in ds.samples],
                             [s.timestamp for s in ds.samples], d=ds.d)
    cfg = TrainConfig(iterations=120, eta0=0.01, l2_lambda=0.5)
    m = dg.train_svm(ds, cfg)
    mf = dg.train_svm(flipped, cfg)
    assert np.array_equal(mf.weights, -m.weights)
    assert mf.bias == -m.bias


def test_single_step_unrolls_to_one_gradient_update():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 25, 8)
    zero = dg.LinearModel.for_dictionary(np.zeros(ds.d), 0.0, ds.dictionary)
    gw, gb = dg.hinge_gradient(zero, ds, l2_lambda=0.25)
    eta0 = 3e-3
    model = dg.train_svm(ds, TrainConfig(iterations=1, eta0=eta0, schedule="cosine",
                                         l2_lambda=0.25))
    # s(1) = 1 for both schedules
    assert np.array_equal(model.weights, -eta0 * gw)
    assert model.bias == -eta0 * gb


def test_config_validation():
    with pytest.raises(DataError):
        TrainConfig(iterations=0)
    with pytest.raises(DataError):
        TrainConfig(eta0=0.0)
    with pytest.raises(DataError):
        TrainConfig(l2_lambda=-0.1)
    assert TrainConfig(schedule="cosine_annealing").schedule == "cosine"
    with pytest.raises(DataError):
        CbConfig(n_f=-1)
    with pytest.raises(DataError):
        CbConfig(bound=0.0)


def test_training_loss_non_increasing_late_under_cosine():
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, 80, 15)
    losses = []
    dg.train_svm(ds, TrainConfig(iterations=400, eta0=1e-3, schedule="cosine",
                                 l2_lambda=0.1), loss_out=losses)
    assert len(losses) == 400
    tail = losses[-40:]
    assert all(b <= a + 1e-6 for a, b in zip(tail, tail[1:]))


def test_degenerate_single_class_dataset_rejected():
    ds = binary_dataset([[0], [1]], [1, 1])
    with pytest.raises(DataError, match="degenerate training set"):
        dg.train_svm(ds, TrainConfig(iterations=5))


def _descend_all_columns(ds, config, l2_lambda, clip_indices, clip_r):
    """The descent loop over all d columns, row ids rebuilt every step: the
    reference that the trainer's compacted loop must match bit for bit."""
    w = np.zeros(ds.d, dtype=np.float64)
    b = 0.0
    for t in range(1, config.iterations + 1):
        eta = config.eta0 * schedule_value(config.schedule, t, config.iterations)
        grad_w, grad_b, _ = _kernels.hinge_grad(ds.indptr, ds.indices, ds.y_signed, w, b)
        if l2_lambda:
            grad_w = grad_w + l2_lambda * w
        w -= eta * grad_w
        b -= eta * grad_b
        if clip_indices is not None and clip_indices.size:
            w[clip_indices] = np.clip(w[clip_indices], -clip_r, clip_r)
    return w, b


@pytest.mark.parametrize("case", ["unobserved-columns", "all-observed", "empty-sample"])
def test_compacted_descent_matches_all_column_loop(case):
    rng = np.random.default_rng(53)
    if case == "all-observed":
        ds = random_dataset(rng, 70, 12, density=0.5)
    else:
        # 40 columns, of which only the even ones below 30 and, in one sample, 33 occur
        index_lists = [list(np.flatnonzero(rng.random(15) < 0.3) * 2) for _ in range(70)]
        index_lists[7].append(33)
        if case == "empty-sample":
            index_lists[5] = []
        labels = [int(v) for v in rng.integers(0, 2, 70)]
        labels[0], labels[1] = 0, 1
        ds = binary_dataset(index_lists, labels, d=40)
    observed = np.unique(ds.indices)
    assert (observed.size == ds.d) == (case == "all-observed")
    base = TrainConfig(iterations=60, eta0=0.02, schedule="cosine", l2_lambda=0.7)
    model = dg.train_svm(ds, base)
    w, b = _descend_all_columns(ds, base, base.l2_lambda, None, 0.0)
    assert np.array_equal(model.weights, w) and model.bias == b
    assert not np.any(np.delete(model.weights, observed))
    # bounded set mixes observed and (outside all-observed) never-occurring columns
    delta = rng.normal(size=ds.d)
    cb_base = TrainConfig(iterations=60, eta0=0.02, schedule="cosine", l2_lambda=0.0)
    for n_f in (0, 5, ds.d // 2, ds.d):
        cb, bounded = dg.train_svm_cb(ds, delta, CbConfig(base=cb_base, n_f=n_f, bound=0.05))
        w, b = _descend_all_columns(ds, cb_base, 0.0, bounded, 0.05)
        assert np.array_equal(cb.weights, w) and cb.bias == b
        assert bounded.tolist() == np.argsort(delta, kind="stable")[:n_f].tolist()


@pytest.mark.parametrize("trainer", ["svm", "cb"])
def test_descent_builds_one_state_and_calls_the_kernel_once_per_iteration(monkeypatch, trainer):
    # perfbench counts kernels.hinge_grad calls through this module attribute
    builds, states = [], []
    real_state, real_grad = _kernels.HingeState, _kernels.hinge_grad

    def counting_state(*args):
        builds.append(args)
        return real_state(*args)

    def counting_grad(indptr, indices, y_signed, w, b, state):
        states.append(state)
        return real_grad(indptr, indices, y_signed, w, b, state)

    monkeypatch.setattr(_kernels, "HingeState", counting_state)
    monkeypatch.setattr(_kernels, "hinge_grad", counting_grad)
    ds = random_dataset(np.random.default_rng(61), 30, 9)
    config = TrainConfig(iterations=17, eta0=0.01, l2_lambda=0.5)
    if trainer == "svm":
        dg.train_svm(ds, config)
    else:
        dg.train_svm_cb(ds, np.zeros(ds.d), CbConfig(base=config, n_f=3, bound=0.1))
    assert len(builds) == 1
    assert len(states) == 17 and all(state is states[0] for state in states)


def test_determinism_bitwise():
    rng = np.random.default_rng(77)
    ds = random_dataset(rng, 50, 12)
    cfg = TrainConfig(iterations=150, eta0=0.005, l2_lambda=1.0)
    m1 = dg.train_svm(ds, cfg)
    m2 = dg.train_svm(ds, cfg)
    assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


# --- train_svm_cb ----------------------------------------------------------------

def test_cb_with_no_bounded_features_equals_plain_descent():
    rng = np.random.default_rng(19)
    ds = random_dataset(rng, 60, 14)
    base = TrainConfig(iterations=200, eta0=0.004, schedule="cosine", l2_lambda=0.0)
    plain = dg.train_svm(ds, base)
    cb, bounded = dg.train_svm_cb(ds, np.zeros(ds.d), CbConfig(base=base, n_f=0, bound=0.5))
    assert bounded.size == 0
    assert np.array_equal(cb.weights, plain.weights) and cb.bias == plain.bias


def test_cb_full_clamp_to_tiny_bound_zeroes_weights():
    rng = np.random.default_rng(29)
    ds = random_dataset(rng, 40, 10)
    base = TrainConfig(iterations=50, eta0=0.01, l2_lambda=0.0)
    model, bounded = dg.train_svm_cb(ds, np.zeros(ds.d),
                                     CbConfig(base=base, n_f=ds.d, bound=1e-9))
    assert sorted(bounded.tolist()) == list(range(ds.d))
    assert np.max(np.abs(model.weights)) <= 1e-9


def test_cb_bounded_set_is_most_negative_delta_with_index_ties():
    ds = binary_dataset([[0], [1], [2], []], [1, 0, 1, 0], d=4)
    delta = np.array([0.5, -0.2, -0.2, -0.9])
    base = TrainConfig(iterations=2, eta0=1e-3)
    _, bounded = dg.train_svm_cb(ds, delta, CbConfig(base=base, n_f=2, bound=1.0))
    assert bounded.tolist() == [3, 1]  # -0.9 first, then the lower-index -0.2


def test_cb_clipping_invariant_and_unbounded_freedom():
    ds = separable_toy(n_per_class=30)
    base = TrainConfig(iterations=300, eta0=0.02, l2_lambda=0.0)
    unbounded = dg.train_svm(ds, base)
    natural = unbounded.weights[0]
    r = 0.25 * natural
    # bound feature 0 only; feature 1 stays free
    delta = np.array([-1.0, 0.0])
    model, bounded = dg.train_svm_cb(ds, delta, CbConfig(base=base, n_f=1, bound=r))
    assert bounded.tolist() == [0]
    assert abs(model.weights[0]) <= r + 1e-12
    assert natural > r  # the toy set's natural weight exceeds the bound


def test_cb_errors():
    ds = binary_dataset([[0], [1]], [1, 0], d=2)
    base = TrainConfig(iterations=2)
    with pytest.raises(DataError, match="n_f"):
        dg.train_svm_cb(ds, np.zeros(2), CbConfig(base=base, n_f=3, bound=0.5))
    with pytest.raises(DataError, match="length"):
        dg.train_svm_cb(ds, np.zeros(5), CbConfig(base=base, n_f=1, bound=0.5))


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_loss_raises_numeric_error():
    # |grad_b| = 2 at the zero model, so one step at eta0=1e308 overflows the bias
    ds = binary_dataset([[0], [0], [0], [1]], [1, 1, 1, 0], d=2)
    with pytest.raises(dg.NumericError):
        dg.train_svm(ds, TrainConfig(iterations=5, eta0=1e308, schedule="constant",
                                     l2_lambda=0.0))
