from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftguard as dg
from driftguard.core import DataError
from driftguard.drift import (DriftConfig, DriftRecord, fit_slope, slot_count, slot_layout,
                              slot_means, stability_values, t_stability)

from conftest import binary_dataset, random_dataset, random_model

FIXED = DriftConfig(slot_mode="fixed", dt_seconds=3)


def _utc(y, m, d):
    return int(datetime(y, m, d, tzinfo=timezone.utc).timestamp())


# --- slot_count ----------------------------------------------------------------

def test_slot_count_degenerate_span_is_one():
    ds = binary_dataset([[0], [0]], [1, 0], timestamps=[100, 100])
    assert slot_count(ds, FIXED) == 1


def test_slot_count_ceiling():
    ds = binary_dataset([[0], [0]], [1, 0], timestamps=[0, 10])
    assert slot_count(ds, DriftConfig(slot_mode="fixed", dt_seconds=3)) == 4


def test_slot_count_fixed_mode_is_capped():
    # checked before any per-slot allocation: 2**40 one-second slots would never finish
    ds = binary_dataset([[0], [0]], [1, 0], timestamps=[0, 2**40])
    with pytest.raises(DataError, match=r"1099511627776 slots; at most 119988"):
        slot_count(ds, DriftConfig(slot_mode="fixed", dt_seconds=1))
    ds = binary_dataset([[0], [0]], [1, 0], timestamps=[0, 119988])
    assert slot_count(ds, DriftConfig(slot_mode="fixed", dt_seconds=1)) == 119988
    # any span of int64 epochs, with any window, puts every sample in a slot
    ds = binary_dataset([[0], [0], [0]], [1, 0, 1], timestamps=[-2**63, 0, 2**63 - 1])
    for dt, ids in ((2**62, [0, 2, 3]), (2**70, [0, 0, 0])):
        layout = slot_layout(ds, DriftConfig(slot_mode="fixed", dt_seconds=dt))
        assert layout.slot_ids.tolist() == ids


def test_slot_count_calendar_months():
    # oracle: enumerate (year, month) pairs between the extremes inclusive
    t0, t1 = _utc(2014, 1, 15), _utc(2014, 3, 2)
    ds = binary_dataset([[0], [0], [0]], [1, 0, 1], timestamps=[t0, _utc(2014, 2, 1), t1])
    months = set()
    y, m = 2014, 1
    while (y, m) <= (2014, 3):
        months.add((y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    assert slot_count(ds, DriftConfig(slot_mode="month")) == len(months) == 3
    # month mode spans years 1-9999 UTC; the slot of December 9999 ends in year 10000
    dec_9999 = int(datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp())
    ds = binary_dataset([[0], [0]], [1, 0], timestamps=[dec_9999 - 40 * 86400, dec_9999])
    layout = slot_layout(ds, DriftConfig(slot_mode="month"))
    assert layout.slot_ids.tolist() == [0, 1]
    assert layout.bounds[-1] == (_utc(9999, 12, 1), 253402300800)
    for t in (10**12, -10**12):
        ds = binary_dataset([[0]], [1], timestamps=[t])
        with pytest.raises(DataError, match="years 1-9999"):
            slot_count(ds, DriftConfig(slot_mode="month"))


def test_month_mode_spans_empty_middle_months():
    ds = binary_dataset([[0], [0]], [1, 0], timestamps=[_utc(2014, 1, 10), _utc(2014, 5, 10)])
    assert slot_count(ds, DriftConfig(slot_mode="month")) == 5


def test_month_mode_handles_year_wrap():
    ds = binary_dataset([[0], [0], [0]], [1, 0, 1],
                        timestamps=[_utc(2014, 11, 20), _utc(2014, 12, 31), _utc(2015, 2, 1)])
    cfg = DriftConfig(slot_mode="month")
    assert slot_count(ds, cfg) == 4  # Nov, Dec, Jan, Feb
    layout = slot_layout(ds, cfg)
    assert layout.slot_ids.tolist() == [0, 1, 3]
    assert layout.bounds[2] == (_utc(2015, 1, 1), _utc(2015, 2, 1))


def test_config_mode_aliases():
    assert DriftConfig(slot_mode="calendar_month").slot_mode == "month"
    assert DriftConfig(slot_mode="fixed_seconds", dt_seconds=5).slot_mode == "fixed"
    with pytest.raises(DataError):
        DriftConfig(slot_mode="weekly")
    with pytest.raises(DataError):
        DriftConfig(slot_mode="fixed", dt_seconds=0)


def test_empty_dataset_rejected():
    ds = binary_dataset([], [], d=1)
    with pytest.raises(DataError, match="empty"):
        slot_count(ds, FIXED)


def test_every_sample_lands_in_exactly_one_slot():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(1, 50)), 5,
                            t_span=int(rng.integers(1, 500)))
        cfg = DriftConfig(slot_mode="fixed", dt_seconds=int(rng.integers(1, 100)))
        layout = slot_layout(ds, cfg)
        assert layout.slot_ids.min() >= 0
        assert layout.slot_ids.max() < layout.n_slots
        # half-open windows, last one right-closed
        for i, s in enumerate(ds.samples):
            k = layout.slot_ids[i]
            start, end = layout.bounds[k]
            assert start <= s.timestamp
            assert s.timestamp < end or k == layout.n_slots - 1


_YEAR_1, _YEAR_10000 = -62135596800, 253402300800
_DAY = 86400


@st.composite
def _fixed_case(draw):
    dt = draw(st.integers(1, 2**56))
    t0 = draw(st.integers(-2**62, 2**62))
    # whole multiples of dt (so the span may be one exactly), or any offset within 30 windows
    steps = st.integers(0, 30).map(lambda k: k * dt) | st.integers(0, 30 * dt)
    return DriftConfig(slot_mode="fixed", dt_seconds=dt), t0, draw(st.lists(steps, max_size=8))


@st.composite
def _month_case(draw):
    year = draw(st.integers(2, 9999))
    new_year = int(np.datetime64(f"{year:04d}-01-01", "s").astype(np.int64))
    # across one New Year, or anywhere in years 1-9999 over up to five years
    t0 = draw(st.integers(new_year - 40 * _DAY, new_year)
              | st.integers(_YEAR_1, _YEAR_10000 - 1))
    steps = st.integers(0, min(5 * 366 * _DAY, _YEAR_10000 - 1 - t0))
    return DriftConfig(slot_mode="month"), t0, draw(st.lists(steps, max_size=8))


@settings(max_examples=300, deadline=None)
@given(case=_fixed_case() | _month_case())
def test_slot_layout_partitions_every_span(case):
    config, t0, offsets = case
    times = [t0] + [t0 + off for off in offsets]  # one timestamp when offsets is empty
    n = len(times)
    ds = dg.Dataset.from_arrays(dg.FeatureDictionary(["a"]), [f"s{i}" for i in range(n)],
                                times, [i % 2 for i in range(n)], [0] * (n + 1), [])
    layout = slot_layout(ds, config)
    bounds = layout.bounds
    assert slot_count(ds, config) == layout.n_slots == len(bounds) >= 1
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))  # contiguous
    assert all(start < end for start, end in bounds)
    # the first slot holds t_min and the last t_max
    assert layout.slot_ids.min() == 0 and layout.slot_ids.max() == len(bounds) - 1
    for t, k in zip(times, layout.slot_ids.tolist()):
        start, end = bounds[k]
        fixed_last = config.slot_mode == "fixed" and k == len(bounds) - 1
        assert start <= t < end or (fixed_last and t == end)
    if config.slot_mode == "fixed":
        assert bounds[0][0] == min(times)
        # the last window is the first to reach t_max, right-closed on an exact multiple
        assert len(bounds) == 1 or bounds[-1][0] < max(times) <= bounds[-1][1]
        assert all(end - start == config.dt_seconds for start, end in bounds)
    else:
        starts = np.array([start for start, _ in bounds] + [bounds[-1][1]], dtype="datetime64[s]")
        assert np.array_equal(starts.astype("datetime64[M]").astype("datetime64[s]"), starts)


# --- slot_means ------------------------------------------------------------------

def test_slot_means_hand_case():
    ds = binary_dataset([[0], [0, 1], [2]], [1, 1, 0], timestamps=[0, 1, 2], d=3)
    means = slot_means(ds, DriftConfig(slot_mode="fixed", dt_seconds=10, class_filter=1))
    assert means.n_slots == 1
    assert np.allclose(means.matrix[:, 0], [1.0, 0.5, 0.0])
    assert means.counts.tolist() == [2]


def test_slot_means_flags_empty_slots():
    ds = binary_dataset([[0], [1]], [0, 1], timestamps=[0, 10])
    means = slot_means(ds, DriftConfig(slot_mode="fixed", dt_seconds=5, class_filter=1))
    assert means.empty.tolist() == [True, False]
    assert np.all(means.matrix[:, 0] == 0.0)  # zero column, flagged, not trusted


def test_slot_means_matches_dense_oracle():
    rng = np.random.default_rng(15)
    for _ in range(15):
        d = int(rng.integers(1, 20))
        ds = random_dataset(rng, int(rng.integers(2, 80)), d, t_span=200)
        cfg = DriftConfig(slot_mode="fixed", dt_seconds=37, class_filter=int(rng.integers(0, 2)))
        means = slot_means(ds, cfg)
        layout = slot_layout(ds, cfg)
        dense = np.zeros((d, layout.n_slots))
        counts = np.zeros(layout.n_slots)
        for i, s in enumerate(ds.samples):
            if s.label == cfg.class_filter:
                counts[layout.slot_ids[i]] += 1
                for j in s.indices:
                    dense[j, layout.slot_ids[i]] += 1
        expected = np.zeros_like(dense)
        nz = counts > 0
        expected[:, nz] = dense[:, nz] / counts[nz]
        assert np.allclose(means.matrix, expected, atol=1e-12)
        assert np.array_equal(means.counts, counts.astype(np.int64))
        assert means.matrix.min() >= 0.0 and means.matrix.max() <= 1.0


# --- fit_slope --------------------------------------------------------------------

def test_fit_slope_flat_series_is_zero():
    fit = fit_slope([(0, 0.5), (1, 0.5), (2, 0.5)])
    assert fit.slope == 0.0 and not fit.degenerate


def test_fit_slope_exact_line():
    fit = fit_slope([(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)])
    assert fit.slope == pytest.approx(1.0, abs=1e-15)


def test_fit_slope_matches_normal_equations():
    rng = np.random.default_rng(8)
    for _ in range(50):
        ks = np.sort(rng.choice(40, size=12, replace=False)).astype(float)
        vs = rng.normal(size=12)
        fit = fit_slope(zip(ks, vs))
        design = np.column_stack([np.ones_like(ks), ks])
        coef = np.linalg.solve(design.T @ design, design.T @ vs)
        assert fit.slope == pytest.approx(coef[1], abs=1e-9)


def test_fit_slope_degenerate_cases():
    assert fit_slope([]) == (0.0, True)
    assert fit_slope([(3, 1.0)]) == (0.0, True)
    assert fit_slope([(2, 1.0), (2, 3.0)]) == (0.0, True)  # identical abscissae


# --- stability / t_stability --------------------------------------------------------

def test_stability_values_consistent_reference_row():
    # weight/slope pair from a published detector table; product matches print rounding
    delta = stability_values(np.array([-0.436577]), np.array([0.048835]))
    assert delta[0] == pytest.approx(-0.021320, abs=5e-7)


def test_stability_values_shape_check():
    with pytest.raises(DataError):
        stability_values(np.zeros(3), np.zeros(4))


def test_zero_weight_model_has_zero_stability():
    rng = np.random.default_rng(21)
    ds = random_dataset(rng, 50, 10, t_span=100)
    model = dg.LinearModel.for_dictionary(np.zeros(ds.d), 0.3, ds.dictionary)
    report = t_stability(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=20))
    assert np.all(report.delta == 0.0)


def test_report_sorted_by_delta_with_index_tiebreak():
    rng = np.random.default_rng(33)
    ds = random_dataset(rng, 60, 8, t_span=100)
    model = random_model(rng, ds)
    report = t_stability(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=25))
    deltas = [r.delta for r in report.records]
    assert deltas == sorted(deltas)
    for a, b in zip(report.records, report.records[1:]):
        if a.delta == b.delta:
            assert a.index < b.index
    for r in report.records:
        assert r.delta == r.weight * r.slope


def test_records_are_built_on_demand_from_the_vectors():
    rng = np.random.default_rng(34)
    ds = random_dataset(rng, 60, 9, t_span=100)
    model = random_model(rng, ds)
    report = t_stability(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=25))
    order = np.argsort(report.delta, kind="stable")
    eager = tuple(DriftRecord(index=int(j), name=ds.dictionary.names[j],
                              weight=float(model.weights[j]), slope=float(report.slopes[j]),
                              delta=float(report.delta[j]), observed=bool(report.observed[j]))
                  for j in order)
    assert report.records == eager
    assert report.records is not report.records  # built anew, never stored
    assert np.array_equal(report.order, order)
    assert report.weights is model.weights and report.names is ds.dictionary.names


def test_slot_means_keep_an_empty_slot_at_zero():
    # slot 1 holds only a negative sample, so no class-1 mean is observed there
    ds = binary_dataset([[0, 1], [1], [0], [1]], [1, 1, 0, 1], timestamps=[0, 1, 4, 8], d=2)
    means = slot_means(ds, DriftConfig(slot_mode="fixed", dt_seconds=3))
    assert means.counts.tolist() == [2, 0, 1]
    assert means.matrix.tolist() == [[0.5, 0.0, 0.0], [1.0, 0.0, 1.0]]
    assert means.empty.tolist() == [False, True, False]


def test_unobserved_features_flagged_with_zero_slope():
    # feature 2 never appears in class 1
    ds = binary_dataset([[0], [0, 1], [2]], [1, 1, 0], timestamps=[0, 15, 20], d=3)
    model = dg.LinearModel.for_dictionary([1.0, -1.0, 2.0], 0.0, ds.dictionary)
    report = t_stability(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=10))
    assert not report.observed[2]
    assert report.slopes[2] == 0.0 and report.delta[2] == 0.0
    assert report.observed[0]


def test_rank_order_invariant_under_joint_time_rescale():
    rng = np.random.default_rng(55)
    ds = random_dataset(rng, 80, 12, t_span=300)
    model = random_model(rng, ds)
    cfg = DriftConfig(slot_mode="fixed", dt_seconds=40)
    scaled = binary_dataset([list(s.indices) for s in ds.samples],
                            [s.label for s in ds.samples],
                            [s.timestamp * 7 for s in ds.samples], d=ds.d)
    model_scaled = dg.LinearModel(model.weights, model.bias, scaled.dictionary.fingerprint)
    r1 = t_stability(model, ds, cfg)
    r2 = t_stability(model_scaled, scaled, DriftConfig(slot_mode="fixed", dt_seconds=280))
    assert [r.index for r in r1.records] == [r.index for r in r2.records]
    assert np.array_equal(r1.delta, r2.delta)


# --- score_trend -----------------------------------------------------------------

def test_score_trend_single_sample_slots():
    ds = binary_dataset([[0], [1]], [1, 1], timestamps=[0, 10], d=2)
    model = dg.LinearModel.for_dictionary([2.0, -3.0], 0.5, ds.dictionary)
    trend = dg.score_trend(model, ds, DriftConfig(slot_mode="fixed", dt_seconds=5), 1)
    by_slot = {t.slot: t for t in trend}
    assert by_slot[0].count == 1 and by_slot[0].mean == 2.5 and by_slot[0].std == 0.0
    assert by_slot[1].count == 1 and by_slot[1].mean == -2.5


def test_score_trend_empty_class_slot_has_count_zero():
    ds = binary_dataset([[0], [1]], [0, 1], timestamps=[0, 10], d=2)
    trend = dg.score_trend(
        dg.LinearModel.for_dictionary([1.0, 1.0], 0.0, ds.dictionary),
        ds, DriftConfig(slot_mode="fixed", dt_seconds=5), 1)
    assert trend[0].count == 0 and trend[0].mean is None


def test_mean_score_identity_against_slot_means():
    rng = np.random.default_rng(61)
    ds = random_dataset(rng, 200, 15, t_span=400)
    model = random_model(rng, ds)
    cfg = DriftConfig(slot_mode="fixed", dt_seconds=80, class_filter=1)
    means = slot_means(ds, cfg)
    trend = dg.score_trend(model, ds, cfg, 1)
    for st in trend:
        if st.count == 0:
            continue
        linear = float(model.weights @ means.matrix[:, st.slot] + model.bias)
        assert st.mean == pytest.approx(linear, abs=1e-9)


def test_decay_decomposition_identity():
    # slope of the mean-score series equals sum_j w_j * m_j when no slot is empty
    spec = dg.SynthSpec(d=40, n_per_slot=60, n_slots=6, stable_pos=5, stable_neg=5,
                        n_drift_up=4, n_drift_down=4, base_p=0.1, peak_p=0.7,
                        noise_p=0.05, seed=3)
    ds, _ = dg.generate(spec)
    rng = np.random.default_rng(2)
    model = random_model(rng, ds)
    cfg = DriftConfig(slot_mode="fixed", dt_seconds=spec.slot_seconds, class_filter=1)
    means = slot_means(ds, cfg)
    assert not means.empty.any()
    report = t_stability(model, ds, cfg)
    trend = dg.score_trend(model, ds, cfg, 1)
    series_fit = fit_slope([(st.slot, st.mean) for st in trend])
    assert not series_fit.degenerate
    assert series_fit.slope == pytest.approx(float(report.delta.sum()), abs=1e-6)
