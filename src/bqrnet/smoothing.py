"""Post-processing of discrete quantile predictions: Gaussian-kernel
smoothing of the quantile function, conditional moments by quadrature,
prediction intervals, and the per-sample confidence score.

Every quantity has a batch form over an (n, m) prediction matrix; the
one-row functions are thin wrappers around it.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .network import TauGrid, check_rows

# boundary anchors for the smoothing sum: levels 0 and 1 flank the grid
TAU_LO = 0.0
TAU_HI = 1.0

DEFAULT_BANDWIDTH = 0.1

# composite-Simpson quadrature grid for conditional moments; the smoothed
# function is finite on the closed interval [0, 1]
_QUAD_POINTS = 1001

_erf = np.frompyfunc(math.erf, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _knots(levels):
    """Knots i and i+1 bracket the probability interval owned by level i."""
    taus = np.asarray(levels, dtype=float)
    return np.concatenate(([TAU_LO], 0.5 * (taus[:-1] + taus[1:]), [TAU_HI]))


def _kernel_weights(knots, bandwidth, tau):
    """(len(tau), len(knots) - 1) normalized Gaussian-kernel weights; a
    ValueError when a row's weights sum to 0.

    Each weight is the kernel's mass between two knots, a difference of erf
    values at x = (tau - knot) / (bandwidth sqrt 2), or of erfc(|x|) values
    where both knots lie in one tail (|x| >= 1), as erfc is the smaller
    there. So no difference cancels: the weights stay exact at any bandwidth
    whose sqrt 2 multiple is finite, and are all 0 beyond it."""
    x = (tau[:, None] - knots[None, :]) / (bandwidth * math.sqrt(2.0))
    e, c = _erf(x).astype(float), _erfc(np.abs(x)).astype(float)
    hi, lo = x[:, :-1], x[:, 1:]
    w = np.where(lo >= 1.0, c[:, 1:] - c[:, :-1],
                 np.where(hi <= -1.0, c[:, :-1] - c[:, 1:], e[:, :-1] - e[:, 1:]))
    total = w.sum(axis=1, keepdims=True)
    if not np.all(total > 0.0):
        raise ValueError(f"bandwidth {bandwidth} leaves kernel weights that "
                         "cannot be normalized")
    return w / total


def _simpson_weights():
    """Composite-Simpson weights of the _QUAD_POINTS nodes on [0, 1]."""
    s = np.full(_QUAD_POINTS, 2.0)
    s[1:-1:2] = 4.0
    s[0] = s[-1] = 1.0
    return s / (3.0 * (_QUAD_POINTS - 1))


_SIMPSON = _simpson_weights()


@functools.lru_cache(maxsize=32)
def _moment_operator(levels: tuple, bandwidth: float):
    """Smoothing weights W at the quadrature nodes, shape (nodes, m), the
    mean functional W^T s and the Gram matrix W^T diag(s) W, where s holds
    the Simpson weights. They depend only on the grid and the bandwidth, so
    a prediction matrix P has means P @ w_mean and second moments
    rowwise P G P^T. The cached arrays are read-only."""
    nodes = np.linspace(0.0, 1.0, _QUAD_POINTS)
    w = _kernel_weights(_knots(levels), bandwidth, nodes)
    w_mean = _SIMPSON @ w
    gram = w.T @ (_SIMPSON[:, None] * w)
    for arr in (w, w_mean, gram):
        arr.flags.writeable = False
    return w, w_mean, gram


@dataclasses.dataclass
class SmoothedQuantileFn:
    """Kernel-smoothed quantile function for one sample, evaluable on (0,1).

    Each grid value owns the probability interval between the midpoints of
    its neighboring levels (boundary levels extend to 0 and 1), and is
    weighted by the Gaussian-kernel mass of that interval. The weights are
    renormalized to a partition of unity so that a constant grid maps to a
    constant function; a symmetric grid with antisymmetric values yields an
    antisymmetric smoothed function.
    """

    grid: TauGrid
    values: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.values = check_rows([self.values], len(self.grid))[0]
        _check_bandwidth(self.bandwidth)
        self._knots = _knots(self.grid.levels)

    def weights(self, tau):
        """Normalized per-interval weights, one row per evaluation level."""
        tau = np.asarray(tau, dtype=float).reshape(-1)
        return _kernel_weights(self._knots, self.bandwidth, tau)

    def __call__(self, tau):
        out = self.weights(tau) @ self.values
        return float(out[0]) if np.ndim(tau) == 0 else out


def _check_bandwidth(h):
    if not 0 < h < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, not {h}")


def smooth(values, grid: TauGrid,
           h: float = DEFAULT_BANDWIDTH) -> SmoothedQuantileFn:
    """Build the Gaussian-kernel smoothed quantile function."""
    return SmoothedQuantileFn(grid=grid, values=values, bandwidth=h)


def conditional_moments(pred_matrix, grid: TauGrid,
                        h: float = DEFAULT_BANDWIDTH):
    """Conditional mean and variance of every row's smoothed quantile
    function, integrated over (0, 1) by composite Simpson; two arrays of
    length n. The variance is clamped at 0, where rounding would leave a
    constant row slightly negative."""
    preds = check_rows(pred_matrix, len(grid))
    _check_bandwidth(h)
    _, w_mean, gram = _moment_operator(grid.levels, float(h))
    mean = preds @ w_mean
    second = np.einsum("ij,ij->i", preds @ gram, preds)
    return mean, np.maximum(second - mean ** 2, 0.0)


def conditional_mean(sq: SmoothedQuantileFn) -> float:
    """Mean response: integral of the smoothed quantile function over (0,1)."""
    _, w_mean, _ = _moment_operator(sq.grid.levels, float(sq.bandwidth))
    return float(sq.values @ w_mean)


def conditional_stat(sq: SmoothedQuantileFn, functional: str = "variance",
                     k: int = 2) -> float:
    """Conditional summary via quantile integration.

    ``variance`` integrates the squared smoothed quantiles and subtracts the
    squared mean; ``moment`` returns the raw k-th moment.
    """
    if functional == "variance":
        _, var = conditional_moments(sq.values[None, :], sq.grid, sq.bandwidth)
        return float(var[0])
    if functional == "moment":
        w, _, _ = _moment_operator(sq.grid.levels, float(sq.bandwidth))
        return float(_SIMPSON @ (w @ sq.values) ** k)
    raise ValueError(f"unknown functional {functional!r}")


def _interp_column(preds, taus, t):
    """np.interp(t, taus, row) for every row at once, with the same
    arithmetic, so each entry equals the one-row result bit for bit."""
    j = max(int(np.searchsorted(taus, t, side="right")) - 1, 0)
    if j == len(taus) - 1 or taus[j] >= t:
        return preds[:, j].copy()
    slope = (preds[:, j + 1] - preds[:, j]) / (taus[j + 1] - taus[j])
    return slope * (t - taus[j]) + preds[:, j]


def prediction_intervals(pred_matrix, grid: TauGrid, level: float):
    """Central intervals [Q(level/2), Q(1 - level/2)] covering (1 - level),
    for every row; returns the arrays (low, high).

    Endpoints come from piecewise-linear interpolation of the grid values;
    ``level`` must lie in (0, 1) and both target levels within the grid's
    span.
    """
    preds = check_rows(pred_matrix, len(grid))
    if not 0.0 < level < 1.0:
        raise ValueError(f"interval level {level} must lie in (0, 1)")
    taus = grid.array
    lo_t, hi_t = 0.5 * level, 1.0 - 0.5 * level
    if lo_t < taus[0] - 1e-12 or hi_t > taus[-1] + 1e-12:
        raise ValueError(
            f"interval levels ({lo_t:.3f}, {hi_t:.3f}) fall outside the grid "
            f"span [{taus[0]}, {taus[-1]}]")
    return _interp_column(preds, taus, lo_t), _interp_column(preds, taus, hi_t)


def prediction_interval(values, grid: TauGrid, level: float):
    """Central interval of one quantile vector; see prediction_intervals."""
    lo, hi = prediction_intervals([values], grid, level)
    return float(lo[0]), float(hi[0])


@dataclasses.dataclass(frozen=True)
class ConfidenceScores:
    """Per-sample confidence, as delta_scores and delta_score return it: the
    distance delta in [0, 0.5] (in quantile probability) from the median to
    the latent sign change, the implied label 0 or 1, and the calibrated
    expected misclassification rate 0.5 - delta; arrays of one shape (a
    float and an int for one row)."""

    delta: np.ndarray
    predicted_label: np.ndarray

    @property
    def expected_misclassification(self) -> np.ndarray:
        return 0.5 - self.delta


def delta_scores(pred_matrix, grid: TauGrid) -> ConfidenceScores:
    """Confidence score of every row, from the piecewise-linear interpolant
    of its quantile vector over the grid.

    delta is the smallest d with Q(0.5 - d) <= 0 <= Q(0.5 + d); with a
    median away from zero this is the distance from 0.5 to the nearest
    zero crossing on the relevant side, capped at 0.5 when the interpolant
    never crosses zero inside the grid. A median of exactly 0 gives delta 0
    and label 0.

    Scanning outward from the median, the previous knot always has the
    median's sign, so the first knot of opposite (or zero) value brackets
    the crossing.
    """
    preds = check_rows(pred_matrix, len(grid))
    taus = grid.array
    mid = grid.median_index
    med = preds[:, mid]
    pos = med > 0
    neg = ~pos & (med != 0)
    # the nearest knot at or below zero left of the median and at or above
    # zero right of it, by column; an all-True column appended to each test
    # puts "none" at -1 (left) or m (right). Knots a and a + 1 bracket the
    # crossing.
    end = np.ones((len(preds), 1), dtype=bool)
    left = mid - 1 - np.argmax(np.hstack([preds[:, :mid][:, ::-1] <= 0, end]), 1)
    right = mid + 1 + np.argmax(np.hstack([preds[:, mid + 1:] >= 0, end]), 1)
    crossed = np.flatnonzero(np.where(pos, left >= 0, neg & (right < len(taus))))
    a = np.where(pos, left, right - 1)[crossed]
    qa, qb = preds[crossed, a], preds[crossed, a + 1]
    tau_star = taus[a] - qa * (taus[a + 1] - taus[a]) / (qb - qa)
    delta = np.where(pos | neg, 0.5, 0.0)
    delta[crossed] = np.where(pos[crossed], 0.5 - tau_star, tau_star - 0.5)
    return ConfidenceScores(delta=np.minimum(np.maximum(delta, 0.0), 0.5),
                            predicted_label=pos.astype(int))


def delta_score(values, grid: TauGrid) -> ConfidenceScores:
    """Confidence score of one quantile vector; see delta_scores."""
    scores = delta_scores([values], grid)
    return ConfidenceScores(delta=float(scores.delta[0]),
                            predicted_label=int(scores.predicted_label[0]))
