"""Workload definitions and output digests shared by the orchestrator and workers.

Every workload runs the paper's protocol through the public CLI
(``compare``, then ``drift`` + ``eval``) on one generated dataset. All use
the temporal boundary of slot 8 of the reference fixture.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

BOUNDARY = 1_409_270_400  # 1388534400 + 8 * 2592000: start of slot 8
DEFAULT_SEED = 7  # REFERENCE_SPEC's seed; the seed the committed digests are recorded at
FIXED_SLOTS = ("--slot-mode", "fixed", "--dt-seconds", "2592000")
MONTH_SLOTS = ("--slot-mode", "month")

DATASET = "data.dg"
REPORT_DIR = "report"
DIAG_DIR = "diag"
COMPARE_FILES = tuple(
    ["summary.json", "drift.csv"]
    + [f"{kind}_{m}.csv" for kind in ("eval", "score_trend") for m in ("svm", "cb_h", "cb_l")]
    + [f"{m}.model" for m in ("svm", "cb_h", "cb_l")]
)
DIAG_FILES = ("drift.csv", "eval.csv", "eval.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark input: synth spec overrides plus the CLI flags of the protocol.

    ``tiny`` holds the spec overrides and iteration count of the scaled-down
    variant the smoke tests run.
    """

    spec: dict
    slot_flags: tuple[str, ...]
    iters: int
    nf: int
    tiny: dict = field(default_factory=dict)
    tiny_iters: int = 20
    tiny_nf: int = 100


# Why each workload exists, and which modules it stresses:
# * ref-train: the paper-default protocol on REFERENCE_SPEC; trainer and the
#   hinge_grad kernel take ~95% of compare.
# * bulk-month: 10x samples with calendar-month slots and 20 iterations, so
#   load_dataset, Dataset.subset, month slotting and re-scoring dominate and a
#   trainer change should show no effect.
# * wide-sparse: d=200k with ~22 non-zeros per sample, so each training step
#   is bound by O(d) vector work, and the 200k-row drift.csv and dense models
#   make writes heavy.
WORKLOADS = {
    "ref-train": Workload(spec={}, slot_flags=FIXED_SLOTS, iters=2000, nf=100,
                          tiny={"n_per_slot": 10}),
    "bulk-month": Workload(spec={"n_per_slot": 5000}, slot_flags=MONTH_SLOTS, iters=20, nf=100,
                           tiny={"n_per_slot": 20}, tiny_iters=5),
    "wide-sparse": Workload(spec={"d": 200_000, "n_per_slot": 100, "noise_p": 0.0001},
                            slot_flags=FIXED_SLOTS, iters=2000, nf=10_000,
                            tiny={"d": 20_000, "n_per_slot": 10, "noise_p": 0.0001},
                            tiny_nf=1000),
}


def spec_kwargs(wl: Workload, seed: int, tiny: bool) -> dict:
    return {**(wl.tiny if tiny else wl.spec), "seed": seed}


def compare_argv(wl: Workload, tiny: bool) -> list[str]:
    return ["compare", "--dataset", DATASET, "--out", REPORT_DIR,
            "--boundary", str(BOUNDARY), *wl.slot_flags,
            "--iters", str(wl.tiny_iters if tiny else wl.iters),
            "--nf", str(wl.tiny_nf if tiny else wl.nf),
            "--no-provenance-timestamp"]


def diagnose_argvs(wl: Workload) -> list[list[str]]:
    """drift of the baseline and eval of CB-L, both on the full dataset."""
    return [
        ["drift", "--dataset", DATASET, "--model", f"{REPORT_DIR}/svm.model",
         "--out", f"{DIAG_DIR}/drift.csv", *wl.slot_flags, "--no-provenance-timestamp"],
        ["eval", "--dataset", DATASET, "--model", f"{REPORT_DIR}/cb_l.model",
         "--out", f"{DIAG_DIR}/eval.csv", *wl.slot_flags, "--no-provenance-timestamp"],
    ]


def _stripped(path: str) -> bytes:
    """File content without provenance: no '# ' comment lines, no JSON "provenance" key."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        obj = json.loads(data)
        obj.pop("provenance", None)
        return json.dumps(obj, sort_keys=True).encode()
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"# "))


def digest(directory: str, names: tuple[str, ...]) -> str | None:
    """sha256 over the named files with provenance stripped; None if one is missing."""
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            return None
        h.update(name.encode() + b"\0" + _stripped(path) + b"\0")
    return h.hexdigest()
