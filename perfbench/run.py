#!/usr/bin/env python3
"""driftguard benchmark: time the paper's protocol end to end, or layer by layer.

    python3 perfbench/run.py --workload ref-train --seed 7 --seconds 30 --trace 0

Each run generates its workload's dataset from --seed (setup_s), then, in a
fresh worker process with tracing off, repeats the one-shot ``compare`` and
the ``drift`` + ``eval`` diagnosis for --seconds (compare_s, diagnose_s;
peak_rss_mb after the first repetition). With --trace 1 the worker instead wraps the package's public
functions and reports per-layer spans and counts. Outputs are digested with
provenance stripped: at the default seed each digest must equal the one in
perfbench/digests.json, at any other seed all repetitions must agree. A
compare or diagnose call that exits non-zero or digests differently counts
as failed. The last line of stdout is the JSON result.

Work files go to .perfbench_work/ and are removed at the end; the spans of
the last traced round are kept in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from worker import SPANS_FILE  # noqa: E402

BLAS_THREADS = 1  # <= nproc; one thread also keeps BLAS sums, hence digests, machine-independent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "NUMBA_NUM_THREADS")
DEADLINE_S = 170  # every run must end within 180 s

PER_LAYER = (
    ("trainer.train_svm_s", "s"), ("trainer.train_svm_cb_s", "s"), ("trainer.iter_us", "us"),
    ("trainer.kernel_share", "ratio"), ("trainer.compare_share", "ratio"),
    *((f"kernels.{k}{suffix}", unit) for k in ("hinge_grad", "scores", "slot_sums")
      for suffix, unit in (("_us", "us"), (".calls", "count"), (".bytes", "B"),
                           (".ops", "op"), (".gbps", "GB/s"))),
    ("io.load_dataset_s", "s"), ("io.load_dataset.calls", "count"),
    ("core.subset_s", "s"), ("core.subset.calls", "count"),
    ("core.dataset_bytes_per_csr_byte", "ratio"),
    ("synth.generate_s", "s"), ("io.save_dataset_s", "s"),
    ("drift.slot_layout_s", "s"), ("drift.slot_layout.calls", "count"),
    ("evaluation.evaluate_slots_s", "s"), ("drift.score_trend_s", "s"),
    ("core.score_dataset.calls", "count"),
    ("drift.t_stability_s", "s"), ("io.save_drift_report_s", "s"), ("io.save_model_s", "s"),
    ("io.load_model_s", "s"), ("io.save_eval_report_s", "s"), ("io.save_score_trend_s", "s"),
    ("cli.compare_s", "s"), ("cli.compare.self_s", "s"), ("cli.drift_s", "s"),
    ("cli.eval_s", "s"), ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def _step(step, args, workdir, env, deadline):
    """Run one worker step to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), step, args.workload,
           str(args.seed), str(args.seconds), "1" if args.tiny else "0"]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for the {step} step")
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{step} step exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{step} step exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_digests(args, res) -> tuple[int, list[str]]:
    """Failed operations among the recorded digests, and why."""
    problems = []
    failed = 0
    expected = {}
    if args.seed == W.DEFAULT_SEED and not args.tiny:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            expected = json.load(fh).get(args.workload, {})
        if not expected:
            problems.append(f"no committed digest for {args.workload}")
    for kind in ("compare", "diagnose"):
        digests = res[f"{kind}_digests"]
        want = expected.get(kind) or next((d for d in digests if d), None)
        for d in digests:
            if d is None:  # the call exited non-zero or raised; its error is in res["errors"]
                failed += 1
            elif d != want:
                failed += 1
                problems.append(f"{kind} digest {d} != {want}")
    return failed, problems


def _run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "driftguard", "__init__.py")):
        raise BenchError(f"no driftguard sources under {ROOT}/src")
    deadline = perf_counter() + DEADLINE_S
    env = _env()
    workroot = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup = _step("setup", args, workdir, env, deadline)
        info = {**setup["versions"], "nproc": len(os.sched_getaffinity(0)),
                "blas_threads": BLAS_THREADS}
        print("environment " + json.dumps(info, sort_keys=True))
        res = _step("trace" if args.trace else "measure", args, workdir, env, deadline)
        spans = os.path.join(workdir, SPANS_FILE)
        if os.path.exists(spans):
            out = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out, exist_ok=True)
            shutil.copyfile(spans, os.path.join(out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass  # another run is still using it

    attempted = len(res["compare_digests"]) + len(res["diagnose_digests"])
    failed, problems = _check_digests(args, res)
    for err, n in Counter(res["errors"] + problems).items():
        print(f"perfbench: {err}" + (f" (x{n})" if n > 1 else ""), file=sys.stderr)
    print(f"digests compare={res['compare_digests'][0]} diagnose={res['diagnose_digests'][0]}")
    for key in ("compare_s", "traced_compare_s", "diagnose_s", "rss_mb"):
        if res.get(key):
            print(f"rounds {key} " + " ".join(f"{t:.4f}" for t in res[key]))
    if args.trace:
        # the same round ran both; host noise dominates, so this can be negative
        paired = [t - u for t, u in zip(res["traced_compare_s"], res["compare_s"])]
        print(f"traced minus untraced compare, median over rounds: {statistics.median(paired):.4f} s")
    if args.trace:
        metrics = _layer_metrics(res, setup)
    else:
        metrics = {
            "compare_s": (statistics.median(res["compare_s"]), "s"),
            "diagnose_s": (statistics.median(res["diagnose_s"]), "s") if res["diagnose_s"]
            else None,
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    metrics = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v is not None}
    print(f"{'metric':32} {'value':>16} unit")
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:16.6g} {m['unit']}")
    print(f"{'fail_rate':32} {failed / attempted:16.6g} ratio ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_metrics(res, setup) -> dict:
    layers = res["layers"]
    values = {}
    for name in {k for layer in layers for k in layer}:
        vals = [layer[name] for layer in layers if name in layer]
        # counts repeat exactly and stay integers; times take the median
        values[name] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    values["trace.overhead_s"] = res["trace_overhead_s"]
    values["core.dataset_bytes_per_csr_byte"] = res["dataset_bytes_per_csr_byte"]
    values["synth.generate_s"] = setup["generate_s"]
    values["io.save_dataset_s"] = setup["save_s"]
    absent = [name for name, _ in PER_LAYER if name not in values]
    if absent:
        print("perfbench: absent per-layer metrics: " + ", ".join(absent), file=sys.stderr)
    return {name: (values[name], unit) for name, unit in PER_LAYER if name in values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="scaled-down workload for the smoke tests; digests checked for agreement only")
    args = p.parse_args(argv)
    try:
        result = _run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
