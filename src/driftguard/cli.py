"""Command-line pipeline: generate, train, drift-analyze, harden, evaluate,
compare.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, degenerate
sets, mismatched dictionaries), 3 numeric failure (non-finite loss).
Every output file carries a provenance header with the fully resolved
configuration; given identical flags and seed, reruns are byte-identical
once the timestamp line is suppressed with --no-provenance-timestamp.

Every command computes first; run() then writes its outputs under temporary
names and renames them into place only once all are written (compare creates
--out only after training). After the pre-checks the renames are per file.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone

from . import __version__, _kernels
from . import io as dgio
from .core import DataError, NumericError
from .drift import DriftConfig, SlotView, score_trend, slot_count, t_stability
from .evaluation import (SlotMetrics, SplitSpec, check_fpr_cap, decay_slope, evaluate_slots,
                         temporal_split)
from .synth import SynthSpec, generate, save_ground_truth
from .trainer import CbConfig, TrainConfig, train_svm, train_svm_cb

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

BOUND_HIGH = 0.8  # "CB-H" preset
BOUND_LOW = 0.2   # "CB-L" preset


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns the exit code."""

    def error(self, message):
        raise _UsageError(message)


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0, help="determinism seed, echoed in provenance")
    sp.add_argument("--no-provenance-timestamp", action="store_true",
                    help="omit the generated_at line for byte-reproducible outputs")


def _add_slot_flags(sp):
    sp.add_argument("--slot-mode", choices=("month", "fixed"), default="month",
                    help="time quantization: UTC calendar months or fixed windows")
    sp.add_argument("--dt-seconds", type=int, default=2_592_000,
                    help="window width for --slot-mode fixed")


def _add_train_flags(sp, with_l2: bool):
    sp.add_argument("--iters", type=int, default=2000, help="gradient descent iterations")
    sp.add_argument("--eta0", type=float, default=7e-5, help="initial step size")
    sp.add_argument("--schedule", choices=("constant", "cosine"), default="cosine",
                    help="step-size decay")
    if with_l2:
        sp.add_argument("--l2", type=float, default=1.0, help="L2 penalty strength")


def build_parser() -> _Parser:
    p = _Parser(prog="driftguard",
                description="Drift diagnosis and weight-bounded hardening for linear classifiers.")
    p.add_argument("--version", action="version", version=f"driftguard {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("synth", help="generate a synthetic drifting dataset")
    sp.add_argument("--out", required=True, help="dataset file to write")
    sp.add_argument("--truth-out", default=None, help="optional ground-truth JSON to write")
    sp.add_argument("--d", type=int, default=1000)
    sp.add_argument("--n-per-slot", type=int, default=500)
    sp.add_argument("--n-slots", type=int, default=24)
    sp.add_argument("--stable-pos", type=int, default=25)
    sp.add_argument("--stable-neg", type=int, default=25)
    sp.add_argument("--drift-up", type=int, default=25)
    sp.add_argument("--drift-down", type=int, default=25)
    sp.add_argument("--base-p", type=float, default=0.003)
    sp.add_argument("--peak-p", type=float, default=0.04)
    sp.add_argument("--noise-p", type=float, default=0.01)
    sp.add_argument("--slot-seconds", type=int, default=2_592_000)
    _add_common(sp)

    sp = sub.add_parser("train", help="train the baseline linear SVM")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True, help="model file to write")
    _add_train_flags(sp, with_l2=True)
    _add_common(sp)

    sp = sub.add_parser("drift", help="stability analysis of a model over a dataset")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True, help="stability CSV to write")
    _add_slot_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("train-cb", help="train the weight-bounded SVM against a reference model")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--model", required=True,
                    help="reference model whose weights drive the stability analysis")
    sp.add_argument("--out", required=True, help="model file to write")
    sp.add_argument("--nf", type=int, default=100, help="number of unstable features to bound")
    sp.add_argument("--bound", type=float, default=BOUND_HIGH, help="clip radius r")
    _add_slot_flags(sp)
    _add_train_flags(sp, with_l2=False)
    _add_common(sp)

    sp = sub.add_parser("eval", help="per-slot precision/recall/partial-AUC of a model")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True,
                    help="metrics CSV to write; a .json summary lands alongside")
    sp.add_argument("--fpr-cap", type=float, default=0.05)
    _add_slot_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("compare", help="full protocol: split, train SVM + CB-H + CB-L, evaluate all")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True, help="output directory for the report bundle")
    sp.add_argument("--boundary", type=int, required=True,
                    help="temporal split boundary (epoch seconds)")
    sp.add_argument("--nf", type=int, default=100)
    sp.add_argument("--fpr-cap", type=float, default=0.05)
    _add_slot_flags(sp)
    _add_train_flags(sp, with_l2=True)
    _add_common(sp)

    return p


_PROV_SKIP = {"command", "no_provenance_timestamp"}


def _provenance(args: argparse.Namespace) -> dict:
    prov = {
        "tool": f"driftguard {__version__}",
        "backend": _kernels.BACKEND,
        "command": args.command,
    }
    for key, value in sorted(vars(args).items()):
        if key not in _PROV_SKIP:
            prov[key] = value
    if not args.no_provenance_timestamp:
        prov["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return prov


def _drift_config(args) -> DriftConfig:
    return DriftConfig(slot_mode=args.slot_mode, dt_seconds=args.dt_seconds, class_filter=1)


def _train_config(args, l2: float) -> TrainConfig:
    return TrainConfig(iterations=args.iters, eta0=args.eta0, schedule=args.schedule, l2_lambda=l2)


def _summary_slopes(metrics: list[SlotMetrics]) -> dict:
    out = {}
    for key in ("recall", "precision", "pauc"):
        series = [(m.slot, getattr(m, key)) for m in metrics]
        try:
            out[key] = decay_slope(series)
        except DataError:
            out[key] = None
    return out


def _cmd_synth(args) -> list:
    spec = SynthSpec(
        d=args.d, n_per_slot=args.n_per_slot, n_slots=args.n_slots,
        stable_pos=args.stable_pos, stable_neg=args.stable_neg,
        n_drift_up=args.drift_up, n_drift_down=args.drift_down,
        base_p=args.base_p, peak_p=args.peak_p, noise_p=args.noise_p,
        seed=args.seed, slot_seconds=args.slot_seconds,
    )
    dataset, truth = generate(spec)
    prov = _provenance(args)
    return [(args.out, dgio.save_dataset, dataset, prov)] + (
        [(args.truth_out, save_ground_truth, truth, spec, prov)] if args.truth_out else [])


def _cmd_train(args) -> list:
    dataset = dgio.load_dataset(args.dataset)
    config = _train_config(args, args.l2)
    model = train_svm(dataset, config)
    return [(args.out, dgio.save_model, model, None, vars(config), _provenance(args))]


def _cmd_drift(args) -> list:
    dataset = dgio.load_dataset(args.dataset)
    model, _ = dgio.load_model(args.model, dictionary=dataset.dictionary)
    report = t_stability(model, dataset, _drift_config(args))
    return [(args.out, dgio.save_drift_report, report, _provenance(args))]


def _cb_configs(args, bounds, d: int) -> list[CbConfig]:
    """One CbConfig per clip radius, each checked against the feature count d."""
    configs = [CbConfig(base=_train_config(args, 0.0), n_f=args.nf, bound=bound)
               for bound in bounds]
    for config in configs:
        config.check_feature_count(d)
    return configs


def _harden(dataset, reference, slot_config, configs):
    """The reference model's stability report, and one (model, bounded) per config."""
    report = t_stability(reference, dataset, slot_config)
    return report, [train_svm_cb(dataset, report.delta, config) for config in configs]


def _cmd_train_cb(args) -> list:
    dataset = dgio.load_dataset(args.dataset)
    reference, _ = dgio.load_model(args.model, dictionary=dataset.dictionary)
    [config] = _cb_configs(args, [args.bound], dataset.d)
    _, [(model, bounded)] = _harden(dataset, reference, _drift_config(args), [config])
    echo = {**vars(config.base), "n_f": config.n_f, "bound": config.bound}
    return [(args.out, dgio.save_model, model, bounded, echo, _provenance(args))]


def _cmd_eval(args) -> list:
    check_fpr_cap(args.fpr_cap)  # a bad cap fails before any loading or output
    dataset = dgio.load_dataset(args.dataset)
    model, _ = dgio.load_model(args.model, dictionary=dataset.dictionary)
    metrics = evaluate_slots(model, dataset, _drift_config(args), args.fpr_cap)
    prov = _provenance(args)
    summary = {
        "model": args.model,
        "fingerprint": model.dictionary_fingerprint,
        "boundary": None,
        "fpr_cap": args.fpr_cap,
        "decay_slope": _summary_slopes(metrics),
        "provenance": prov,
    }
    return [(args.out, dgio.save_eval_report, metrics, prov),
            (os.path.splitext(args.out)[0] + ".json", dgio.save_json, summary)]


def _cmd_compare(args) -> list:
    dataset = dgio.load_dataset(args.dataset)
    train_set, test_set = temporal_split(dataset, SplitSpec(args.boundary))
    slot_config = _drift_config(args)
    # bad flags and a bad slot config on either side fail before any training
    slot_count(train_set, slot_config)
    test_view = SlotView.build(test_set, slot_config)
    check_fpr_cap(args.fpr_cap)
    cb_configs = _cb_configs(args, (BOUND_HIGH, BOUND_LOW), train_set.d)
    prov = _provenance(args)

    baseline = train_svm(train_set, _train_config(args, args.l2))
    report, hardened = _harden(train_set, baseline, slot_config, cb_configs)

    outputs = [("drift.csv", dgio.save_drift_report, report, prov)]
    summary_models = {}
    for name, (model, bounded) in zip(("svm", "cb_h", "cb_l"), [(baseline, None), *hardened]):
        view = test_view.scored(model, test_set)
        metrics = evaluate_slots(model, test_set, slot_config, args.fpr_cap, view=view)
        trends = {label: score_trend(model, test_set, slot_config, class_label=label, view=view)
                  for label in (0, 1)}
        outputs += [(f"{name}.model", dgio.save_model, model, bounded, None, prov),
                    (f"eval_{name}.csv", dgio.save_eval_report, metrics, prov),
                    (f"score_trend_{name}.csv", dgio.save_score_trend, trends, prov)]
        summary_models[name] = {"decay_slope": _summary_slopes(metrics)}

    summary = {
        "boundary": args.boundary,
        "fpr_cap": args.fpr_cap,
        "n_train": train_set.n,
        "n_test": test_set.n,
        "bounds": {"cb_h": BOUND_HIGH, "cb_l": BOUND_LOW},
        "models": summary_models,
        "provenance": prov,
    }
    outputs.append(("summary.json", dgio.save_json, summary))
    os.makedirs(args.out, exist_ok=True)  # only now, so a failed run creates no --out
    return [(os.path.join(args.out, name), *rest) for name, *rest in outputs]


_DISPATCH = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "drift": _cmd_drift,
    "train-cb": _cmd_train_cb,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"driftguard: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        outputs = _DISPATCH[args.command](args)
        with dgio.staged(*(path for path, *_ in outputs)) as tmps:
            for tmp, (_, write, *write_args) in zip(tmps, outputs):
                write(tmp, *write_args)
        return EXIT_OK
    except NumericError as exc:
        print(f"driftguard: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"driftguard: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"driftguard: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())
