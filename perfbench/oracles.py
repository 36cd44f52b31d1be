"""Independent references the output checks compare bqrnet against.

Each one is written from the definition of the quantity, with plain NumPy and
SciPy, and shares no code with the package under test.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate
from scipy.stats import norm


def d1_rows(n, seed):
    """The D1 family: x ~ U(-1, 1), latent = 5 sin(8x) + N(0, 1), drawn in
    that order from one seeded generator."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    latent = 5.0 * np.sin(8.0 * x) + rng.normal(0.0, 1.0, n)
    return x[:, None], latent


def mlp_forward(net, x):
    """Quantile outputs of a ReLU trunk plus linear heads, layer by layer."""
    a = np.asarray(x, dtype=float)
    for w, b in zip(net.trunk_w, net.trunk_b):
        a = np.maximum(np.dot(a, w.T) + b, 0.0)
    return np.dot(a, net.head_w.T) + net.head_b


def pairwise_auc(scores, labels, chunk=1000):
    """AUC as the share of (positive, negative) pairs the score orders
    correctly, ties counting half, by counting every pair."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = 0.0
    for start in range(0, pos.size, chunk):
        p = pos[start:start + chunk, None]
        wins += np.count_nonzero(p > neg) + 0.5 * np.count_nonzero(p == neg)
    return wins / (pos.size * neg.size)


def smoothed_mean(values, levels, bandwidth):
    """Integral over (0, 1) of the Gaussian-kernel smoothed quantile function.

    Level i owns the interval between the midpoints to its neighbours (0 and
    1 at the ends); at tau its weight is the kernel mass of that interval,
    and the weights are normalised to sum to one.
    """
    levels = np.asarray(levels, dtype=float)
    values = np.asarray(values, dtype=float)
    knots = np.concatenate(([0.0], 0.5 * (levels[:-1] + levels[1:]), [1.0]))

    def q(tau):
        cdf = norm.cdf((tau - knots) / bandwidth)
        w = cdf[:-1] - cdf[1:]
        return float(w @ values / w.sum())

    value, _ = integrate.quad(q, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12,
                              limit=200)
    return value
