from datetime import datetime, timezone

import numpy as np
import pytest

import driftguard as dg
from driftguard.core import DataError
from driftguard.drift import DriftConfig, SlotScoreStats, SlotView, score_trend, slot_layout
from driftguard.evaluation import (SlotMetrics, SplitSpec, _partial_auc_from_scores,
                                   _roc_vertices, decay_slope, evaluate_slots, partial_auc, slot_confusion,
                                   temporal_split)

from conftest import binary_dataset, random_dataset, random_model


# --- temporal_split ---------------------------------------------------------------

def test_split_rejects_boundary_outside_span():
    ds = binary_dataset([[0]] * 4, [1, 0, 1, 0], timestamps=[1, 2, 3, 4])
    with pytest.raises(DataError, match="training side is empty"):
        temporal_split(ds, SplitSpec(1))
    with pytest.raises(DataError, match="test side is empty"):
        temporal_split(ds, SplitSpec(5))


def test_split_hand_case():
    ds = binary_dataset([[0]] * 4, [1, 0, 1, 0], timestamps=[1, 2, 3, 4])
    train, test = temporal_split(ds, SplitSpec(3))
    assert [s.timestamp for s in train.samples] == [1, 2]
    assert [s.timestamp for s in test.samples] == [3, 4]


def test_split_partition_property():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(4, 60)), 5, t_span=100)
        boundary = int(rng.integers(ds.t_min + 1, ds.t_max + 1))
        try:
            train, test = temporal_split(ds, SplitSpec(boundary))
        except DataError:
            continue  # empty side for this draw
        assert train.n + test.n == ds.n
        assert max(s.timestamp for s in train.samples) < boundary
        assert min(s.timestamp for s in test.samples) >= boundary
        ids = sorted(s.id for s in train.samples) + sorted(s.id for s in test.samples)
        assert sorted(ids) == sorted(s.id for s in ds.samples)


# --- slot_confusion ------------------------------------------------------------------

def test_perfect_slot_metrics():
    ds = binary_dataset([[0], []], [1, 0], timestamps=[0, 1], d=1)
    model = dg.LinearModel.for_dictionary([1.0], -0.5, ds.dictionary)
    (m,) = slot_confusion(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=10))
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 0, 0, 1)
    assert m.precision == 1.0 and m.recall == 1.0


def test_slot_without_positives_has_undefined_recall():
    ds = binary_dataset([[0], [0]], [0, 0], timestamps=[0, 1], d=1)
    model = dg.LinearModel.for_dictionary([-1.0], 0.0, ds.dictionary)
    # predictions all negative -> no positive predictions either
    (m,) = slot_confusion(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=10))
    assert m.recall is None and m.precision is None
    assert m.n_pos == 0 and m.tn == 2


def test_slot_confusion_matches_per_sample_loop():
    rng = np.random.default_rng(10)
    for _ in range(10):
        ds = random_dataset(rng, 80, 12, t_span=300)
        model = random_model(rng, ds)
        cfg = DriftConfig(slot_mode="fixed", dt_seconds=60)
        metrics = slot_confusion(model, ds, cfg)
        from driftguard.drift import slot_layout
        layout = slot_layout(ds, cfg)
        for m in metrics:
            tp = fp = fn = tn = 0
            for i, s in enumerate(ds.samples):
                if layout.slot_ids[i] != m.slot:
                    continue
                pred = model.predict(s)
                tp += s.label == 1 and pred == 1
                fp += s.label == 0 and pred == 1
                fn += s.label == 1 and pred == 0
                tn += s.label == 0 and pred == 0
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
            assert m.tp + m.fp + m.fn + m.tn == m.n_pos + m.n_neg


# --- one slot view against per-slot masks ----------------------------------------------

def _utc(y, m, d):
    return int(datetime(y, m, d, tzinfo=timezone.utc).timestamp())


# month boundaries with gaps between them, so some slots are empty
EDGES = np.array([_utc(2013, 12, 1), _utc(2014, 1, 1), _utc(2014, 3, 1),
                  _utc(2014, 6, 1), _utc(2015, 1, 1)])


def _edge_dataset(rng, n):
    """Samples within a second of a month boundary; January 2014 holds only
    positives and May/June 2014 only negatives."""
    which = rng.integers(0, len(EDGES), n)
    timestamps = EDGES[which] + rng.integers(-1, 2, n)
    labels = rng.integers(0, 2, n)
    labels[(which == 1) & (timestamps >= EDGES[1])] = 1
    labels[which == 3] = 0
    index_lists = [np.flatnonzero(rng.random(6) < 0.4).tolist() for _ in range(n)]
    return binary_dataset(index_lists, labels.tolist(), timestamps.tolist(), d=6)


def _mask_reference(model, ds, cfg, fpr_cap):
    """Per-slot metrics and per-class trends from full-length slot masks."""
    layout = slot_layout(ds, cfg)
    scores = dg.score_dataset(model, ds)
    metrics, trends = [], {0: [], 1: []}
    for k, (start, end) in enumerate(layout.bounds):
        in_slot = layout.slot_ids == k
        pos, neg = scores[in_slot & (ds.labels == 1)], scores[in_slot & (ds.labels == 0)]
        tp, fp = int(np.sum(pos >= 0.0)), int(np.sum(neg >= 0.0))
        pauc = _partial_auc_from_scores(pos, neg, fpr_cap) if pos.size and neg.size else None
        metrics.append(SlotMetrics(k, start, end, pos.size, neg.size, tp, fp,
                                   pos.size - tp, neg.size - fp,
                                   tp / (tp + fp) if tp + fp else None,
                                   tp / pos.size if pos.size else None, pauc))
        for label, sel in ((0, neg), (1, pos)):
            stats = ((float(sel.mean()), float(sel.std()), float(sel.min()), float(sel.max()))
                     if sel.size else (None,) * 4)
            trends[label].append(SlotScoreStats(k, start, end, int(sel.size), *stats))
    return metrics, trends


@pytest.mark.parametrize("cfg", [DriftConfig(slot_mode="month"),
                                 DriftConfig(slot_mode="fixed", dt_seconds=17 * 86400),
                                 DriftConfig(slot_mode="fixed", dt_seconds=400 * 86400)],
                         ids=["month", "fixed-17d", "fixed-400d"])
def test_slot_view_matches_mask_reference(cfg):
    rng = np.random.default_rng(21)
    for n in (1, 2, 40, 1500):
        ds = _edge_dataset(rng, n)
        # integer weights put scores exactly on the threshold and tie them
        for w, b in ((rng.integers(-2, 3, ds.d), float(rng.integers(-1, 2))),
                     (rng.normal(0.0, 1.0, ds.d), float(rng.normal()))):
            model = dg.LinearModel.for_dictionary(w, b, ds.dictionary)
            metrics, trends = _mask_reference(model, ds, cfg, 0.3)
            view = SlotView.build(ds, cfg).scored(model, ds)
            for given in (None, view):
                assert evaluate_slots(model, ds, cfg, 0.3, view=given) == metrics
                for label in (0, 1):
                    assert score_trend(model, ds, cfg, label, view=given) == trends[label]
            assert slot_confusion(model, ds, cfg) == [
                SlotMetrics(**{**vars(m), "pauc": None}) for m in metrics]


def test_slot_view_groups_keep_file_order():
    # slots [1, 0, 1, 0, 1], scores [1, 2, 3, 2, 1]
    ds = binary_dataset([[0], [1], [0, 1], [1], [0]], [1, 0, 1, 1, 0],
                        timestamps=[10, 0, 11, 1, 12], d=2)
    model = dg.LinearModel.for_dictionary([1.0, 2.0], 0.0, ds.dictionary)
    view = SlotView.build(ds, DriftConfig(slot_mode="fixed", dt_seconds=10)).scored(model, ds)
    assert view.order.tolist() == [1, 3, 4, 0, 2]
    assert view.cuts.tolist() == [0, 1, 2, 3, 5]
    assert view.group(0, 0).tolist() == [2.0] and view.group(0, 1).tolist() == [2.0]
    assert view.group(1, 0).tolist() == [1.0] and view.group(1, 1).tolist() == [1.0, 3.0]
    with pytest.raises(DataError, match="does not fit"):
        view.scored(model, ds.subset([True] * 4 + [False]))
    with pytest.raises(DataError, match="class_label"):
        score_trend(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=10), 2)
    with pytest.raises(DataError, match="empty"):
        evaluate_slots(model, ds.subset([False] * 5), DriftConfig(), 0.5)


# --- partial AUC -----------------------------------------------------------------------

def _pairwise_auc(pos, neg):
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _pauc_loop(pos, neg, fpr_cap):
    """The vertex-by-vertex trapezoid loop: the reference for the vectorized sum."""
    fpr, tpr = _roc_vertices(np.asarray(pos, float), np.asarray(neg, float))
    area = 0.0
    for i in range(1, len(fpr)):
        x0, y0, x1, y1 = fpr[i - 1], tpr[i - 1], fpr[i], tpr[i]
        if x0 >= fpr_cap:
            break
        if x1 <= x0:
            continue
        if x1 > fpr_cap:
            y1 = y0 + (y1 - y0) * (fpr_cap - x0) / (x1 - x0)
            x1 = fpr_cap
        area += 0.5 * (y0 + y1) * (x1 - x0)
        if x1 >= fpr_cap:
            break
    return area / fpr_cap


def test_partial_auc_sums_like_the_vertex_loop():
    rng = np.random.default_rng(61)
    for case in range(3000):
        n_pos, n_neg = (int(v) for v in rng.integers(1, 60, size=2))
        if case % 3 == 0:  # heavy ties on a small integer grid
            pos = rng.integers(0, 4, n_pos).astype(float)
            neg = rng.integers(0, 4, n_neg).astype(float)
        else:
            pos = rng.normal(0.5, 1.0, n_pos)
            neg = rng.normal(-0.5, 1.0, n_neg)
        kind = case % 4
        if kind == 0:
            cap = 1.0
        elif kind == 1:  # lands on an fpr vertex
            cap = int(rng.integers(1, n_neg + 1)) / n_neg
        else:
            cap = float(rng.uniform(1e-3, 1.0))
        assert _partial_auc_from_scores(pos, neg, cap) == _pauc_loop(pos, neg, cap)


def test_perfect_separator_is_one_at_any_cap():
    pos = np.array([2.0, 3.0, 4.0])
    neg = np.array([-1.0, 0.0, 1.0])
    for cap in (0.01, 0.05, 0.5, 1.0):
        assert _partial_auc_from_scores(pos, neg, cap) == pytest.approx(1.0, abs=1e-12)


def test_hand_case_cap_half():
    # pos {2, 1}, neg {1.5, 0}: ROC (0,0)->(0,.5)->(.5,.5)->(.5,1)->(1,1)
    # area to fpr 0.5 = 0.25; normalized by cap -> 0.5
    value = _partial_auc_from_scores(np.array([2.0, 1.0]), np.array([1.5, 0.0]), 0.5)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_all_tied_scores_give_half():
    value = _partial_auc_from_scores(np.array([1.0, 1.0]), np.array([1.0]), 1.0)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_full_cap_equals_pairwise_auc():
    rng = np.random.default_rng(44)
    for _ in range(30):
        # integer score grid forces ties
        pos = rng.integers(0, 6, size=int(rng.integers(1, 25))).astype(float)
        neg = rng.integers(0, 6, size=int(rng.integers(1, 25))).astype(float)
        assert _partial_auc_from_scores(pos, neg, 1.0) == pytest.approx(
            _pairwise_auc(pos, neg), abs=1e-9)


def test_random_scores_concentrate_near_half_cap():
    rng = np.random.default_rng(14)
    pos = rng.random(4000)
    neg = rng.random(4000)
    # label-independent scores: normalized pAUC at cap c concentrates near c/2
    assert _partial_auc_from_scores(pos, neg, 0.05) == pytest.approx(0.025, abs=0.02)
    assert _partial_auc_from_scores(pos, neg, 1.0) == pytest.approx(0.5, abs=0.02)


def test_unnormalized_area_monotone_in_cap():
    rng = np.random.default_rng(9)
    pos = rng.normal(0.4, 1, 60)
    neg = rng.normal(-0.4, 1, 60)
    caps = np.linspace(0.02, 1.0, 25)
    raw = [cap * _partial_auc_from_scores(pos, neg, cap) for cap in caps]
    assert all(b >= a - 1e-12 for a, b in zip(raw, raw[1:]))


def test_partial_auc_requires_both_classes_and_valid_cap():
    ds = binary_dataset([[0], [0]], [1, 1], d=1)
    model = dg.LinearModel.for_dictionary([1.0], 0.0, ds.dictionary)
    with pytest.raises(DataError, match="both classes"):
        partial_auc(model, ds, 0.05)
    both = binary_dataset([[0], []], [1, 0], d=1)
    model2 = dg.LinearModel.for_dictionary([1.0], 0.0, both.dictionary)
    with pytest.raises(DataError, match="fpr_cap"):
        partial_auc(model2, both, 0.0)
    with pytest.raises(DataError, match="fpr_cap"):
        partial_auc(model2, both, 1.2)


def test_partial_auc_model_surface():
    ds = binary_dataset([[0], [0, 1], [1], []], [1, 1, 0, 0], d=2)
    model = dg.LinearModel.for_dictionary([2.0, -1.0], 0.0, ds.dictionary)
    # scores: pos {2, 1}, neg {-1, 0} -> perfect
    assert partial_auc(model, ds, 0.05) == pytest.approx(1.0)


def test_evaluate_slots_adds_pauc_only_when_both_classes():
    ds = binary_dataset([[0], [], [0]], [1, 0, 1], timestamps=[0, 1, 10], d=1)
    model = dg.LinearModel.for_dictionary([1.0], -0.5, ds.dictionary)
    metrics = evaluate_slots(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=5), 0.5)
    assert metrics[0].pauc is not None
    assert metrics[1].pauc is None  # slot 1 holds only the positive at t=10


# --- decay_slope -----------------------------------------------------------------------

def test_decay_slope_flat_and_exact_line():
    assert decay_slope([(0, 0.5), (1, 0.5), (2, 0.5)]) == 0.0
    assert decay_slope([(0, 0.8), (1, 0.6), (2, 0.4)]) == pytest.approx(-0.2, abs=1e-12)


def test_decay_slope_skips_undefined_points():
    series = [(0, 0.9), (1, None), (2, 0.7), (3, None), (4, 0.5)]
    assert decay_slope(series) == pytest.approx(-0.1, abs=1e-12)


def test_decay_slope_needs_two_points():
    with pytest.raises(DataError):
        decay_slope([(0, 0.5)])
    with pytest.raises(DataError):
        decay_slope([(0, None), (1, None)])


def test_decay_slope_matches_normal_equations():
    rng = np.random.default_rng(18)
    for _ in range(20):
        ks = np.arange(12)
        vs = rng.random(12)
        design = np.column_stack([np.ones(12), ks])
        coef = np.linalg.solve(design.T @ design, design.T @ vs)
        assert decay_slope(list(zip(ks, vs))) == pytest.approx(coef[1], abs=1e-9)
