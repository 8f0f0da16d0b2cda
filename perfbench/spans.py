"""Span tracing of driftguard's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function in every driftguard module
namespace that holds it (``slot_layout`` is imported by name into
``evaluation``, ``score_dataset`` into ``drift`` and ``evaluation``, ...), so
spans nest as the pipeline calls them: ``cli.compare -> trainer.train_svm ->
kernels.hinge_grad``. Spans stay in memory; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "io", "core", "_kernels", "trainer", "drift", "evaluation", "synth")

# (module, attribute) of every traced function; "Class.method" names a method.
TARGETS = (
    ("io", "load_dataset"), ("io", "save_dataset"), ("io", "load_model"), ("io", "save_model"),
    ("io", "save_drift_report"), ("io", "save_eval_report"), ("io", "save_score_trend"),
    ("io", "save_json"),
    ("core", "Dataset.subset"), ("core", "score_dataset"),
    ("_kernels", "scores"), ("_kernels", "hinge_grad"), ("_kernels", "slot_sums"),
    ("trainer", "train_svm"), ("trainer", "train_svm_cb"),
    ("drift", "t_stability"), ("drift", "slot_layout"), ("drift", "slot_means"),
    ("drift", "score_trend"),
    ("evaluation", "temporal_split"), ("evaluation", "slot_confusion"),
    ("evaluation", "evaluate_slots"), ("evaluation", "decay_slope"),
    ("synth", "generate"),
)

KERNELS = ("hinge_grad", "scores", "slot_sums")


def span_name(module: str, attr: str) -> str:
    # Metric names must start with a letter, so "_kernels" reports as "kernels".
    return f"{module.lstrip('_')}.{attr.split('.')[-1]}"


# Minimum memory traffic and arithmetic of each kernel, from its argument
# shapes alone: every index array read once per pass, one 8-byte gather or
# read-modify-write per non-zero. It is a model of the work, not of what any
# implementation moves, so achieved GB/s rises as an implementation nears it.
def _scores_work(indptr, indices, weights, *_):
    n, nnz = len(indptr) - 1, len(indices)
    return (indptr.nbytes + indices.nbytes + 8 * nnz + 8 * n, nnz + n)


def _hinge_grad_work(indptr, indices, y_signed, weights, *_):
    n, nnz, d = len(indptr) - 1, len(indices), len(weights)
    nbytes = 2 * (indptr.nbytes + indices.nbytes) + 8 * nnz + 16 * nnz + 16 * n + 8 * d
    return (nbytes, 2 * nnz + 3 * n)


def _slot_sums_work(indptr, indices, slot_ids, mask, d, n_slots, *_):
    n, nnz = len(indptr) - 1, len(indices)
    nbytes = indptr.nbytes + indices.nbytes + 9 * n + 16 * nnz + 8 * int(d) * int(n_slots)
    return (nbytes, nnz)


WORK = {"kernels.scores": _scores_work, "kernels.hinge_grad": _hinge_grad_work,
        "kernels.slot_sums": _slot_sums_work}


class Tracer:
    """Records spans as [name, start, end, parent index, (bytes, ops) or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name, work):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, _safe_work(work, args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every driftguard namespace; restore on exit."""
        mods = {m: importlib.import_module(f"driftguard.{m}") for m in MODULES}
        namespaces = [importlib.import_module("driftguard"), *mods.values()]
        patched = []
        try:
            for module, attr in TARGETS:
                owner = mods[module]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(leaf) if owner is not None else None
                if original is None:
                    continue  # removed from the package; run.py reports its metrics as absent
                wrapper = self.wrap(span_name(module, attr), original)
                sites = [owner] + ([ns for ns in namespaces if ns is not owner] if not path else [])
                for ns in sites:
                    names = [leaf] if ns is owner else [k for k, v in vars(ns).items()
                                                        if v is original]
                    for key in names:
                        patched.append((ns, key, original))
                        setattr(ns, key, wrapper)
            yield self
        finally:
            for ns, key, original in reversed(patched):
                setattr(ns, key, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "work": work}) + "\n")


def _safe_work(work, args):
    if work is None:
        return None
    try:
        return work(*args)
    except (TypeError, ValueError, AttributeError):
        return None  # the kernel's signature changed; report time without work


def layer_metrics(spans: list[list], train_iterations: int) -> dict[str, float]:
    """Per-layer figures of one traced compare + drift + eval sequence.

    ``<name>_s`` is the inclusive time of all calls, ``<name>.calls`` the call
    count. Kernels add the per-call median in microseconds and the modelled
    bytes, ops and achieved GB/s. ``cli.compare.self_s`` is compare's time not
    covered by a child span.
    """
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    under_trainer = [False] * len(spans)
    hinge_in_training = 0.0
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        durations.setdefault(name, []).append(t1 - t0)
        if parent >= 0:
            child_time[parent] += t1 - t0
            under_trainer[i] = under_trainer[parent] or spans[parent][0].startswith("trainer.")
        if name == "kernels.hinge_grad" and under_trainer[i]:
            hinge_in_training += t1 - t0
    out: dict[str, float] = {}
    for name, ds in durations.items():
        out[f"{name}_s"] = sum(ds)
        out[f"{name}.calls"] = len(ds)
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        works = [s[4] for s in spans if s[0] == name]
        if not works:
            continue
        out[f"{name}_us"] = statistics.median(durations[name]) * 1e6
        if all(w is not None for w in works):
            out[f"{name}.bytes"] = sum(w[0] for w in works)
            out[f"{name}.ops"] = sum(w[1] for w in works)
            out[f"{name}.gbps"] = out[f"{name}.bytes"] / out[f"{name}_s"] / 1e9
    train_s = out.get("trainer.train_svm_s", 0.0) + out.get("trainer.train_svm_cb_s", 0.0)
    if train_s:
        out["trainer.iter_us"] = train_s / train_iterations * 1e6
        out["trainer.kernel_share"] = hinge_in_training / train_s
    compare = [i for i, s in enumerate(spans) if s[0] == "cli.compare"]
    if compare:
        out["cli.compare.self_s"] = sum(spans[i][2] - spans[i][1] - child_time[i]
                                        for i in compare)
        if train_s:
            out["trainer.compare_share"] = train_s / out["cli.compare_s"]
    return out
