"""Full-batch (projected) gradient descent training for linear classifiers.

Two entry points:

* ``train_svm``       -- baseline: hinge loss plus optional L2 penalty.
* ``train_svm_cb``    -- weight-bounded variant: unregularized hinge loss,
  with the weights of the n_f most temporally unstable features (most
  negative stability value) clipped to [-r, +r] after every step.

Both start from (w, b) = (0, 0), run N full-batch steps with step size
eta0 * s(t), and are bit-for-bit deterministic for a given config and
kernel backend. Labels are stored as {0, 1} and mapped to {-1, +1}
internally for the hinge.

Only the columns that occur in the training split are descended. A column
that never occurs has a zero gradient at every step, so its weight stays
exactly 0; the returned weight vector still has all d entries.

Each training builds one ``_kernels.HingeState`` for its split. It sums the
rows rank-major, each row still in CSR order, and keeps the hinge gradient
as integer counts updated only where the violator set changed; both are
exact, so w and b equal a fresh ``bincount`` pass per step bit for bit. The
recorded loss (``loss_out``) sums the hinge terms in rank-major order and
may differ from an in-order sum in its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import DataError, Dataset, LinearModel, NumericError, check_bound

SCHEDULES = ("constant", "cosine")


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent hyperparameters.

    The full-batch recipe from a zero start has no stochastic component, so
    training takes no seed.
    """

    iterations: int = 2000
    eta0: float = 7e-5
    schedule: str = "cosine"
    l2_lambda: float = 1.0

    def __post_init__(self):
        if self.iterations < 1:
            raise DataError(f"iterations must be >= 1, got {self.iterations}")
        if not self.eta0 > 0:
            raise DataError(f"eta0 must be > 0, got {self.eta0}")
        if self.l2_lambda < 0:
            raise DataError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.schedule == "cosine_annealing":  # accepted alias
            object.__setattr__(self, "schedule", "cosine")
        if self.schedule not in SCHEDULES:
            raise DataError(f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}")


@dataclass(frozen=True)
class CbConfig:
    """Hyperparameters of the weight-bounded trainer.

    n_f is how many unstable features get bounded; ``bound`` is the clip
    radius r applied to their weights. Presets used throughout: r=0.8
    ("CB-H", soft) and r=0.2 ("CB-L", hard).
    """

    base: TrainConfig = field(default_factory=TrainConfig)
    n_f: int = 100
    bound: float = 0.8

    def __post_init__(self):
        if self.n_f < 0:
            raise DataError(f"n_f must be >= 0, got {self.n_f}")
        if not self.bound > 0:
            raise DataError(f"bound must be > 0, got {self.bound}")

    def check_feature_count(self, d: int) -> None:
        """Raise DataError when n_f exceeds the feature count d."""
        if self.n_f > d:
            raise DataError(f"n_f={self.n_f} exceeds feature count d={d}")


def schedule_value(schedule: str, t: int, n_iterations: int) -> float:
    """Step-size multiplier s(t) for iteration t in [1, N].

    constant -> 1.0; cosine -> 0.5 * (1 + cos(pi * (t - 1) / N)), which
    starts at 1 and decays monotonically.
    """
    if schedule == "cosine_annealing":
        schedule = "cosine"
    if schedule not in SCHEDULES:
        raise DataError(f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")
    if not 1 <= t <= n_iterations:
        raise DataError(f"iteration t={t} outside [1, {n_iterations}]")
    if schedule == "constant":
        return 1.0
    return 0.5 * (1.0 + math.cos(math.pi * (t - 1) / n_iterations))


def hinge_loss(model: LinearModel, dataset: Dataset, l2_lambda: float = 0.0) -> float:
    """Sum over samples of max(0, 1 - y*f(x)) plus l2_lambda * ||w||^2 / 2."""
    check_bound(model, dataset)
    if dataset.n == 0:
        raise DataError("hinge_loss: empty dataset")
    s = _kernels.scores(dataset.indptr, dataset.indices, model.weights, model.bias)
    margins = dataset.y_signed * s
    total = float(np.sum(np.maximum(0.0, 1.0 - margins)))
    if l2_lambda:
        total += 0.5 * l2_lambda * float(np.dot(model.weights, model.weights))
    return total


def hinge_gradient(model: LinearModel, dataset: Dataset,
                   l2_lambda: float = 0.0) -> tuple[np.ndarray, float]:
    """Subgradient of hinge_loss w.r.t. (w, b).

    Samples with margin exactly 1 contribute zero (declared convention;
    any subgradient is valid there).
    """
    check_bound(model, dataset)
    if dataset.n == 0:
        raise DataError("hinge_gradient: empty dataset")
    grad_w, grad_b, _ = _kernels.hinge_grad(
        dataset.indptr, dataset.indices, dataset.y_signed, model.weights, model.bias
    )
    if l2_lambda:
        grad_w = grad_w + l2_lambda * model.weights
    return grad_w, grad_b


def _require_both_classes(dataset: Dataset) -> None:
    neg, pos = dataset.class_counts()
    if neg == 0 or pos == 0:
        raise DataError(
            f"degenerate training set: needs both classes, got {pos} positive / {neg} negative"
        )


def _descend(dataset: Dataset, iterations: int, eta0: float, schedule: str,
             l2_lambda: float, clip_indices: np.ndarray | None, clip_r: float,
             loss_out: list | None) -> tuple[np.ndarray, float]:
    """Shared descent loop. Clips w over clip_indices after each step when given.

    When loss_out is a list, the objective value at the parameters entering
    each iteration is appended (N entries).

    The per-split work is done once, before the loop: the column ids
    remapped (as intp) onto the columns that occur in the split, and the
    kernel's ``HingeState``. A column that never occurs gets a zero gradient
    at every step, so its weight stays exactly 0 (also under L2 and
    clipping); the loop runs on the observed columns only and scatters w
    back to length d at the end. The state sums the rows one entry rank at a
    time, each row in CSR order, and keeps the hinge gradient as integer
    counts updated only for the rows whose violator status flipped. Both are
    exact, so every score and gradient equals a fresh ``bincount`` pass bit
    for bit, and w and b are bit-identical to a loop over all d columns. The
    step is built in its own buffer, because ``grad_w`` is the state's
    counts. The hinge total, and so ``loss_out``, is summed in rank-major
    order and may differ from an in-order sum in its last bits.
    """
    d = dataset.d
    indptr, y_signed = dataset.indptr, dataset.y_signed
    observed = np.bincount(dataset.indices, minlength=d) > 0
    position = np.cumsum(observed) - 1  # compacted position of each observed column
    cols = position[dataset.indices]
    if clip_indices is not None:  # a bounded column that never occurs stays 0 unclipped
        clip_indices = position[clip_indices[observed[clip_indices]]]
    w = np.zeros(int(np.count_nonzero(observed)), dtype=np.float64)
    b = 0.0
    state = _kernels.HingeState(indptr, cols, y_signed, w.shape[0])
    step = np.empty_like(w)
    for t in range(1, iterations + 1):
        eta = eta0 * schedule_value(schedule, t, iterations)
        grad_w, grad_b, hinge_total = _kernels.hinge_grad(indptr, cols, y_signed, w, b, state)
        loss = hinge_total
        if l2_lambda:
            loss += 0.5 * l2_lambda * float(np.dot(w, w))
            np.multiply(w, l2_lambda, out=step)
            step += grad_w
            step *= eta
        else:
            np.multiply(grad_w, eta, out=step)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at iteration {t}")
        if loss_out is not None:
            loss_out.append(loss)
        w -= step
        b -= eta * grad_b
        if clip_indices is not None and clip_indices.size:
            w[clip_indices] = np.clip(w[clip_indices], -clip_r, clip_r)
    weights = np.zeros(d, dtype=np.float64)
    weights[observed] = w
    if not (np.all(np.isfinite(weights)) and math.isfinite(b)):
        raise NumericError("non-finite parameters after training")
    return weights, b


def train_svm(dataset: Dataset, config: TrainConfig,
              loss_out: list | None = None) -> LinearModel:
    """Train the baseline linear SVM by full-batch subgradient descent."""
    _require_both_classes(dataset)
    w, b = _descend(dataset, config.iterations, config.eta0, config.schedule,
                    config.l2_lambda, None, 0.0, loss_out)
    return LinearModel(w, b, dataset.dictionary.fingerprint)


def train_svm_cb(dataset: Dataset, delta: np.ndarray, config: CbConfig,
                 loss_out: list | None = None) -> tuple[LinearModel, np.ndarray]:
    """Train the weight-bounded SVM.

    ``delta`` is the per-feature stability vector; the n_f features with the
    most negative values (ties broken by ascending index) are clipped to
    [-r, +r] after every gradient step. The hinge objective is used without
    L2 regularization. Returns (model, bounded_indices) with bounded_indices
    in selection order (most unstable first).
    """
    _require_both_classes(dataset)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (dataset.d,):
        raise DataError(
            f"stability vector length {delta.shape} does not match d={dataset.d}"
        )
    config.check_feature_count(dataset.d)
    order = np.argsort(delta, kind="stable")
    bounded = order[:config.n_f].copy()
    base = config.base
    w, b = _descend(dataset, base.iterations, base.eta0, base.schedule,
                    0.0, bounded, config.bound, loss_out)
    model = LinearModel(w, b, dataset.dictionary.fingerprint)
    return model, bounded
