"""One step of a benchmark run, in its own process; prints one JSON line.

    python3 worker.py setup   WORKLOAD SEED SECONDS TINY   (in the work directory)
    python3 worker.py measure WORKLOAD SEED SECONDS TINY
    python3 worker.py trace   WORKLOAD SEED SECONDS TINY

``setup`` builds the dataset (synth.generate + io.save_dataset) several
times and reports the medians. ``measure`` repeats compare, then drift +
eval, with tracing off, for SECONDS, and reports each repetition's times,
output digests and the process's peak RSS after the first round. ``trace`` alternates an untraced
compare with a traced compare + drift + eval and reports per-layer figures.
The orchestrator, run.py, sets PYTHONPATH and the thread caps.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from time import perf_counter

import workloads as W

# Short steps repeat until they have run this long, so their medians rest on
# enough samples; long ones run at least the minimum count.
SETUP_MIN_REPEATS, SETUP_MIN_S = 3, 1.5
DIAGNOSE_MIN_S = 1.0
MIN_ROUNDS = 3
TRACE_MIN_ROUNDS = 2  # the tracemalloc load after the rounds is slow at bulk-month scale
SPANS_FILE = "spans.jsonl"
CALIBRATE_CALLS, CALIBRATE_BATCHES = 20000, 5
CSR_ARRAYS = ("indptr", "indices", "labels", "timestamps", "y_signed")


def _setup(wl, seed, tiny, _seconds):
    from driftguard import io as dgio
    from driftguard.synth import SynthSpec, generate

    spec = SynthSpec(**W.spec_kwargs(wl, seed, tiny))
    gen, save = [], []
    while len(gen) < SETUP_MIN_REPEATS or sum(gen) + sum(save) < SETUP_MIN_S:
        # ext4 flushes data when a rename replaces an existing file; a user
        # writes a new dataset, so each repetition starts without one
        if os.path.exists(W.DATASET):
            os.unlink(W.DATASET)
        t0 = perf_counter()
        dataset, _truth = generate(spec)
        t1 = perf_counter()
        dgio.save_dataset(W.DATASET, dataset)
        t2 = perf_counter()
        gen.append(t1 - t0)
        save.append(t2 - t1)
        del dataset, _truth
        gc.collect()
    total = [g + s for g, s in zip(gen, save)]
    return {"setup_s": statistics.median(total),
            "generate_s": statistics.median(gen), "save_s": statistics.median(save),
            "versions": _versions()}


def _versions():
    import numpy

    from driftguard import _kernels

    try:
        import scipy
    except ImportError:
        scipy = None
    return {"numpy": numpy.__version__, "scipy": scipy and scipy.__version__,
            "backend": _kernels.BACKEND, "python": platform.python_version()}


def _call(cli, argv, errors, tracer=None):
    """cli.run(argv) -> True on exit code 0; any other outcome is one failed operation.

    With a tracer, the call is the span ``cli.<command>``.
    """
    try:
        if tracer is None:
            rc = cli.run(argv)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                rc = cli.run(argv)
    except SystemExit as exc:  # the package called sys.exit
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the package under test crashed: count it, keep measuring
        errors.append(traceback.format_exc())
        return False
    if rc != 0:
        errors.append(f"{argv[0]} exited {rc}")
    return rc == 0


def _compare(cli, wl, tiny, errors, tracer=None):
    """One compare into a fresh report dir -> (seconds, digest or None)."""
    shutil.rmtree(W.REPORT_DIR, ignore_errors=True)
    t0 = perf_counter()
    ok = _call(cli, W.compare_argv(wl, tiny), errors, tracer)
    elapsed = perf_counter() - t0
    return elapsed, (W.digest(W.REPORT_DIR, W.COMPARE_FILES) if ok else None)


def _diagnose(cli, wl, errors, tracer=None):
    """drift + eval into a fresh diag dir -> (seconds, digest or None)."""
    shutil.rmtree(W.DIAG_DIR, ignore_errors=True)
    os.makedirs(W.DIAG_DIR)
    ok = True
    t0 = perf_counter()
    for argv in W.diagnose_argvs(wl):
        ok = _call(cli, argv, errors, tracer) and ok
    elapsed = perf_counter() - t0
    return elapsed, (W.digest(W.DIAG_DIR, W.DIAG_FILES) if ok else None)


def _rounds(seconds, body, min_rounds=MIN_ROUNDS):
    """Run body() at least min_rounds times, then while another round fits in seconds."""
    start = perf_counter()
    n = 0
    while True:
        t0 = perf_counter()
        body()
        n += 1
        now = perf_counter()
        if n >= min_rounds and now - start + (now - t0) > seconds:
            return


def _measure(wl, seed, tiny, seconds):
    from driftguard import cli

    res = {"compare_s": [], "diagnose_s": [], "compare_digests": [], "diagnose_digests": [],
           "errors": [], "rss_mb": []}

    def one_round():
        t, d = _compare(cli, wl, tiny, res["errors"])
        res["compare_s"].append(t)
        res["compare_digests"].append(d)
        if d is None:
            res["diagnose_digests"].append(None)  # no models to diagnose with
            return
        spent = 0.0
        while spent < DIAGNOSE_MIN_S:
            t, d = _diagnose(cli, wl, res["errors"])
            res["diagnose_s"].append(t)
            res["diagnose_digests"].append(d)
            spent += t

    def body():
        one_round()
        res["rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    _rounds(seconds, body)
    # A user runs compare and diagnose once. Later rounds only show how the
    # allocator's fragmentation grows with repetition.
    res["peak_rss_mb"] = res["rss_mb"][0]
    return res


def _dataset_bytes_per_csr_byte():
    """tracemalloc size of a loaded Dataset / bytes of its CSR arrays."""
    from driftguard import io as dgio

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = dgio.load_dataset(W.DATASET)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    csr = sum(getattr(dataset, a).nbytes for a in CSR_ARRAYS if hasattr(dataset, a))
    return held / csr


def _span_cost(name, args):
    """Seconds one traced call of a no-op adds over the bare call (median of batches).

    A kernel name also pays for the kernel's work model, as in the pipeline.
    """
    from spans import Tracer

    def noop(*_args):
        return None

    tracer = Tracer()
    traced = tracer.wrap(name, noop)
    costs = []
    for _ in range(CALIBRATE_BATCHES):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(CALIBRATE_CALLS):
            noop(*args)
        t1 = perf_counter()
        for _ in range(CALIBRATE_CALLS):
            traced(*args)
        t2 = perf_counter()
        costs.append((t2 - 2 * t1 + t0) / CALIBRATE_CALLS)
    return statistics.median(costs)


def _trace_overhead(spans_per_compare):
    """Span count of one traced compare times the cost per span measured here.

    A difference of two compare timings would be dominated by host noise and
    could come out negative; this estimate is positive by construction.
    """
    import numpy as np

    plain, kernel = spans_per_compare
    hinge_args = (np.zeros(2, np.int64), np.zeros(1, np.int32), np.ones(1), np.zeros(4))
    return (plain * _span_cost("perfbench.noop", ())
            + kernel * _span_cost("kernels.hinge_grad", hinge_args))


def _trace(wl, seed, tiny, seconds):
    from driftguard import cli
    from spans import WORK, Tracer, layer_metrics

    iters = 3 * (wl.tiny_iters if tiny else wl.iters)  # baseline + CB-H + CB-L
    res = {"compare_s": [], "traced_compare_s": [], "layers": [], "compare_digests": [],
           "diagnose_digests": [], "errors": []}
    spans_per_compare = [0, 0]  # [plain, kernel] spans of the last traced compare

    def untraced():
        t, d = _compare(cli, wl, tiny, res["errors"])
        res["compare_s"].append(t)
        res["compare_digests"].append(d)

    def traced():
        tracer = Tracer()
        with tracer.installed():
            t, d = _compare(cli, wl, tiny, res["errors"], tracer)
            res["traced_compare_s"].append(t)
            res["compare_digests"].append(d)
            kernel = sum(1 for span in tracer.spans if span[0] in WORK)
            spans_per_compare[:] = [len(tracer.spans) - kernel, kernel]
            if d is None:
                res["diagnose_digests"].append(None)
                return
            _t, d = _diagnose(cli, wl, res["errors"], tracer)
            res["diagnose_digests"].append(d)
        res["layers"].append(layer_metrics(tracer.spans, iters))
        tracer.dump(SPANS_FILE)  # the last round's spans are kept

    def body():
        # alternate which compare runs first, so neither side always runs cold
        first, second = (untraced, traced) if len(res["compare_s"]) % 2 == 0 else (traced, untraced)
        first()
        second()

    _rounds(seconds, body, TRACE_MIN_ROUNDS)
    res["trace_overhead_s"] = _trace_overhead(spans_per_compare)
    res["dataset_bytes_per_csr_byte"] = _dataset_bytes_per_csr_byte()
    return res


STEPS = {"setup": _setup, "measure": _measure, "trace": _trace}


def main(argv):
    step, name, seed, seconds, tiny = argv
    result = STEPS[step](W.WORKLOADS[name], int(seed), tiny == "1", float(seconds))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
