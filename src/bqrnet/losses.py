"""Binary quantile classification loss: probability map, per-sample loss,
analytic gradients with the crossing hinge, cross-entropy baseline, and the
Lipschitz / curvature constants used by adaptive learning rates.

Everything is vectorized over numpy arrays and pure.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import TauGrid, check_rows

BQR = "bqr"
BCE = "bce"


@dataclasses.dataclass(frozen=True)
class LossSpec:
    """Loss configuration: grid of levels, crossing weight, and kind."""

    grid: TauGrid
    lam: float = 1.0
    kind: str = BQR

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError("crossing weight must be non-negative and finite")
        if self.kind not in (BQR, BCE):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == BCE and self.grid.levels != (0.5,):
            raise ValueError("cross-entropy baseline uses the single level 0.5")


def check_labels(y, n=None) -> np.ndarray:
    """``y`` as float64: the labels rule of every entry point. Anything but
    values of 0 or 1, a vector of exactly n when n is given, is a ValueError;
    without n any shape holds, for the functions that broadcast."""
    y = np.asarray(y, dtype=float)
    # every nonzero value a 1: NaN counts as nonzero, so it fails too
    if (n is not None and y.shape != (n,)
            or np.count_nonzero(y) != np.count_nonzero(y == 1.0)):
        count = "" if n is None else f"{n} "
        raise ValueError(f"expected {count}labels of 0 or 1, got shape {y.shape}")
    return y


def check_grid(net, spec: LossSpec) -> None:
    """The grid rule of ``backward`` and ``train``: the loss grid is the net's."""
    if spec.grid != net.grid:
        raise ValueError("the loss grid differs from the network's grid")


def _check_tau(tau):
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau > 0.0) & (tau < 1.0)):  # NaN fails too
        raise ValueError("tau must lie strictly in (0, 1)")
    return tau


def _link(z, tau):
    """The ALD link's per-side terms, broadcast over (z, tau): ``pos`` is
    z > 0, k = tau - 1 for z > 0 and k = tau for z <= 0, a = k z <= 0,
    c = tau for z > 0 and c = 1 - tau for z <= 0, and ce = c e^a is the
    probability of the label the sign of z disfavours. tau is not validated
    here."""
    pos = z > 0
    k = np.where(pos, tau - 1.0, tau)
    a = k * z
    c = np.where(pos, tau, 1.0 - tau)
    return pos, k, a, c, c * np.exp(a)


def _bqr_terms(y, z, tau):
    """Per-level loss and d(loss)/dz in log space, broadcast over (y, z, tau).

    With the terms of ``_link``: on the near side (the label agrees with the
    sign of z) the loss is -log1p(-ce) with gradient ce k / (1 - ce); on the
    far side it is -(log c + a) with gradient -k. Both are exact for every
    finite z. ``y`` holds 0/1 labels.

    In closed form (z = 0 takes the z <= 0 branch) the gradient is
      y=1, z>0:  -tau(1-tau) e^{(tau-1)z} / (1 - tau e^{(tau-1)z})
      y=0, z>0:  1 - tau
      y=1, z<=0: -tau
      y=0, z<=0: tau(1-tau) e^{tau z} / (1 - (1-tau) e^{tau z})
    and its magnitude never exceeds max(tau, 1-tau).
    """
    pos, k, a, c, ce = _link(z, tau)
    near = (y == 1) == pos
    loss = np.where(near, -np.log1p(-ce), -(np.log(c) + a))
    grad = np.where(near, ce * k / (1.0 - ce), -k)
    return loss, grad


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def prob_pos(z, tau):
    """P(label = 1) for latent quantile value z at level tau.

    Piecewise in z: 1 - tau*exp((tau-1)z) for z > 0, (1-tau)*exp(tau*z)
    for z <= 0. Continuous at 0 (both branches give 1 - tau) and strictly
    increasing in z.
    """
    pos, *_, ce = _link(np.asarray(z, dtype=float), _check_tau(tau))
    return _scalar_or_array(np.where(pos, 1.0 - ce, ce))


def bqr_loss(y, z, tau):
    """Negative log-likelihood of a 0/1 label under the latent model, exact
    for every finite z."""
    tau = _check_tau(tau)
    loss, _ = _bqr_terms(check_labels(y), np.asarray(z, dtype=float), tau)
    return _scalar_or_array(loss)


def _hinge(values):
    """Per-row crossing penalty and the mask of strictly violating pairs."""
    diff = values[..., :-1] - values[..., 1:]
    active = diff > 0.0
    return np.where(active, diff, 0.0).sum(axis=-1), active


def _loss_and_grad(y, z, spec: LossSpec):
    """Per-sample total loss and d(total loss)/dz for n checked labels y and
    a checked (n, m) prediction matrix z, in one pass.

    The BQR loss sums the per-level log-space terms of ``_bqr_terms`` and
    adds lam times the crossing hinge, whose subgradient goes into the
    gradient in place. The cross-entropy baseline scores the single output
    as a logit: log(1 + e^z) - y z, with gradient sigmoid(z) - y.
    """
    if spec.kind == BCE:
        z0 = z[:, 0]
        grad = np.zeros_like(z)
        grad[:, 0] = _sigmoid(z0) - y
        return np.logaddexp(0.0, z0) - y * z0, grad
    loss, grad = _bqr_terms(y[:, None], z, spec.grid.array)
    loss = loss.sum(axis=1)
    if spec.lam > 0 and z.shape[1] >= 2:
        penalty, active = _hinge(z)
        loss += spec.lam * penalty
        step = spec.lam * active
        grad[:, :-1] += step
        grad[:, 1:] -= step
    return loss, grad


def total_loss(y, pred, spec: LossSpec):
    """Per-sample loss of n labels and (n, m) predictions: sum of per-level
    losses plus lam * crossing penalty.

    For the cross-entropy baseline the single output is a logit scored with
    standard binary cross-entropy.
    """
    pred = check_rows(pred, len(spec.grid))
    return _loss_and_grad(check_labels(y, len(pred)), pred, spec)[0]


def total_grad(y, pred, spec: LossSpec):
    """d(total_loss)/d(pred), shape (n, m)."""
    pred = check_rows(pred, len(spec.grid))
    return _loss_and_grad(check_labels(y, len(pred)), pred, spec)[1]


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lipschitz_const(spec: LossSpec) -> float:
    """Upper bound on the Lipschitz constant of the total per-sample loss
    with respect to the prediction vector.

    Per level the constant is max(tau, 1-tau); the summed multi-level loss
    adds the per-level constants, and each hinge term is 1-Lipschitz in each
    of its two arguments, contributing 2*lam*(m-1). The cross-entropy
    baseline gradient is bounded by 1.
    """
    if spec.kind == BCE:
        return 1.0
    taus = spec.grid.array
    base = float(np.maximum(taus, 1.0 - taus).sum())
    m = len(taus)
    if m >= 2:
        base += 2.0 * spec.lam * (m - 1)
    return base


def curvature_bounds(tau: float, m_bound: float):
    """(c1, c2): the lower and upper curvature constants of the expected
    excess loss for latents bounded by m_bound.

    The four region-wise lower bounds on its second derivative, minimized
    and halved, give c1; the global upper bound tau*(1-tau), halved, gives c2.
    """
    t = float(_check_tau(tau))
    m = float(m_bound)
    if not m > 0:  # NaN fails too
        raise ValueError("latent bound must be positive")
    a1 = t * (1 - t) ** 2 * np.exp(-(1 - t) * m) / (1 - t * np.exp(-(1 - t) * m))
    a2 = t ** 2 * (1 - t) * np.exp(-t * m) / (1 - (1 - t) * np.exp(-t * m))
    a3 = t * (1 - t) ** 3 * np.exp(-m) / (1 - t * np.exp(-(1 - t) * m)) ** 2
    a4 = t ** 3 * (1 - t) * np.exp(-m) / (1 - (1 - t) * np.exp(-m)) ** 2
    return float(0.5 * min(a1, a2, a3, a4)), 0.5 * t * (1 - t)


def backward(net, x, y, spec: LossSpec):
    """Gradient of the mean total loss over an (n, d) batch and its n 0/1
    labels w.r.t. every parameter.

    Returns (gradient, mean loss); the gradient is one vector laid out like
    ``net.params``. It matches central finite differences away from the
    loss and ReLU kinks. Bad features, labels or loss grid are a ValueError,
    and a non-finite network output is ``forward_cached``'s FloatingPointError.
    """
    # looked up at call time, where a profiler may have wrapped them
    from .network import backprop_from_outputs, forward_cached

    x = check_rows(x, net.input_dim)
    y = check_labels(y, len(x))
    check_grid(net, spec)
    z, acts, pres = forward_cached(net, x)
    loss, dz = _loss_and_grad(y, z, spec)
    dz /= x.shape[0]
    return backprop_from_outputs(net, acts, pres, dz), float(np.mean(loss))
