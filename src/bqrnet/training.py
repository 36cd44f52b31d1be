"""Minibatch SGD with either a fixed learning rate or the Lipschitz-adaptive
rule eta = 1 / (k_z * L), where k_z bounds the output-parameter gradients and
L is the loss Lipschitz constant.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import losses
from .datasets import write_rows
from .network import (QuantileNet, _trunk_deltas, apply_step,
                      check_rows, forward, forward_cached)

FIXED = "fixed"
LALR = "lalr"


class TrainingDiverged(RuntimeError):
    """Raised when the loss or an output goes non-finite; carries the trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr_mode: str = FIXED
    eta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.lr_mode not in (FIXED, LALR):
            raise ValueError(f"unknown lr mode {self.lr_mode!r}")
        if self.lr_mode == FIXED and not 0 < self.eta < np.inf:
            raise ValueError("fixed learning rate must be positive and finite")


@dataclasses.dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float
    eta: float
    kz: float


@dataclasses.dataclass
class TrainTrace:
    records: list

    def to_csv(self, path):
        write_rows(path, [f.name for f in dataclasses.fields(EpochRecord)],
                   map(dataclasses.astuple, self.records))


@dataclasses.dataclass
class NotReached:
    """Target accuracy never attained; reports the best accuracy seen."""

    max_accuracy: float

    def __str__(self):
        return f"N/A ({self.max_accuracy:.3f})"


def estimate_kz(net: QuantileNet, x: np.ndarray) -> float:
    """Max-norm bound on the gradient of any network output w.r.t. the
    parameters, maximized over the rows of an (n, d) batch.

    For a linear head over ReLU trunk activations, the per-layer
    output-parameter gradient of head j is an outer product delta * a, so
    its max-norm factorizes as max|delta| * max(|a|, 1) (the 1 covers the
    bias coordinates). Each head's own bias has gradient exactly 1, so the
    bound is never below 1.
    """
    _, acts, pres = forward_cached(net, check_rows(x, net.input_dim))
    # per-row max(|a|, 1) of each layer's input; the last entry also bounds
    # every head's own gradient (trunk output activations and 1 for the bias)
    a_scale = [np.maximum(np.abs(a).max(axis=1), 1.0) for a in acts]
    best = float(a_scale[-1].max())
    for w in net.head_w:
        for i, dpre in _trunk_deltas(net, pres, w):
            layer = np.abs(dpre).max(axis=1) * a_scale[i]
            best = max(best, float(layer.max()))
    return best


def lalr_eta(kz: float, lip: float) -> float:
    """Adaptive learning rate 1 / (kz * lip)."""
    if kz <= 0 or lip <= 0:
        raise ValueError("kz and Lipschitz constant must be positive")
    return 1.0 / (kz * lip)


@np.errstate(over="ignore", invalid="ignore")  # a divergence raises instead
def train(net: QuantileNet, x: np.ndarray, y: np.ndarray,
          spec: losses.LossSpec, cfg: TrainConfig):
    """Run minibatch SGD on (n, d) features and their n 0/1 labels; returns
    (trained net copy, TrainTrace).

    Per-epoch accuracy is that of the sign of the median head (the only
    head under BCE) on the training set. In lalr mode k_z is re-estimated
    once per epoch from the first shuffled batch.
    """
    x = check_rows(x, net.input_dim)
    y = losses.check_labels(y, x.shape[0])
    losses.check_grid(net, spec)
    col = net.grid.median_index
    net = net.copy()
    trace = TrainTrace(records=[])
    n = x.shape[0]
    lip = losses.lipschitz_const(spec)
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        try:
            if cfg.lr_mode == LALR:
                kz = estimate_kz(net, x[order[:cfg.batch_size]])
                eta = lalr_eta(kz, lip)
            else:
                kz = float("nan")
                eta = cfg.eta
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                grads, loss = losses.backward(net, x[idx], y[idx], spec)
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}", trace)
                apply_step(net, grads, eta)
                epoch_loss += loss * len(idx)
            z = forward(net, x)
        except FloatingPointError:
            raise TrainingDiverged(
                f"non-finite network output at epoch {epoch}", trace)
        acc = float(np.mean((z[:, col] > 0) == (y == 1.0)))
        del z  # not held through the next epoch's batches
        trace.records.append(EpochRecord(epoch, epoch_loss / n, acc, eta, kz))
    return net, trace


def epochs_to_target(trace: TrainTrace, target_acc: float):
    """First epoch index whose accuracy meets the target, or NotReached."""
    best = 0.0
    for rec in trace.records:
        if rec.accuracy >= target_acc:
            return rec.epoch
        best = max(best, rec.accuracy)
    return NotReached(best)
