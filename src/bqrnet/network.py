"""Feed-forward ReLU network with a shared trunk and one linear head per quantile level.

All math is plain numpy in float64. Every parameter of a network lives in one
flat vector, and every gradient in another laid out the same way. The layer
recursion is written once each way: ``_pass`` forward, ``_trunk_deltas``
backward. Forward and backward are pure functions of (net, inputs); the only
in-place change to a network is ``apply_step``, the SGD step, which
``training`` applies to its own copy.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import zipfile
from typing import Sequence

import numpy as np

DEFAULT_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# Version 2 takes raw features (CSV scaling is folded into the first layer);
# a version 1 file may expect scaled features, so it is not read.
CHECKPOINT_VERSION = "bqrnet-ckpt-2"

# Rows per trunk pass in ``forward``. Hidden activations are held for one
# block at a time (1024 x 64 float64 is 512 KiB), not for the whole batch.
FORWARD_BLOCK_ROWS = 1024


@dataclasses.dataclass(frozen=True)
class TauGrid:
    """Ordered quantile levels the network outputs.

    Levels are strictly increasing and lie in the open interval (0, 1).
    Operations that classify or score confidence need the median level 0.5
    on the grid and raise through ``median_index`` when it is absent. The
    default constructor builds a grid symmetric about 0.5.
    """

    levels: tuple

    def __post_init__(self):
        levels = tuple(float(t) for t in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) == 0:
            raise ValueError("grid must contain at least one level")
        arr = np.asarray(levels)
        if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails too
            raise ValueError("quantile levels must lie strictly in (0, 1)")
        if not np.all(np.diff(arr) > 0.0):
            raise ValueError("quantile levels must be strictly increasing")

    @classmethod
    def default(cls) -> "TauGrid":
        return cls(DEFAULT_GRID)

    def __len__(self):
        return len(self.levels)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.levels)

    @property
    def median_index(self) -> int:
        idx = int(np.argmin(np.abs(self.array - 0.5)))
        if abs(self.levels[idx] - 0.5) > 1e-12:
            raise ValueError("grid does not contain the median level 0.5")
        return idx


def _layout(input_dim: int, trunk_widths: Sequence[int], m: int):
    """Trunk widths as Python ints (the checkpoint stores them as JSON), and
    (start, stop, shape) of every parameter array in the flat vector.

    The order is the checkpoint's: each trunk layer's weights then its
    biases, then the head weights and the head biases. This is the only
    place that knows it.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    widths = [operator.index(w) for w in trunk_widths]
    if not widths:
        raise ValueError("trunk must have at least one layer")
    if any(w < 1 for w in widths):
        raise ValueError("trunk widths must be positive")
    shapes = [shape for fan_in, width in zip([input_dim] + widths, widths)
              for shape in ((width, fan_in), (width,))]
    shapes += [(m, widths[-1]), (m,)]
    stops = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    return widths, tuple(zip([0] + stops, stops, shapes))


def _views(flat: np.ndarray, layout: tuple):
    """(trunk_w, trunk_b, head_w, head_b) as views into ``flat``."""
    arrays = [flat[start:stop].reshape(shape) for start, stop, shape in layout]
    return arrays[0:-2:2], arrays[1:-2:2], arrays[-2], arrays[-1]


@dataclasses.dataclass(eq=False)
class QuantileNet:
    """Trunk weights/biases plus a bank of scalar linear heads, one per level.

    Every parameter lives in the one float64 vector ``params``, used as
    given when it is contiguous float64; ``trunk_w``, ``trunk_b``, ``head_w``
    and ``head_b`` are views into it. ``trunk_w[i]`` has shape
    (width_i, fan_in_i); ``head_w`` stacks the head weights, (m, trunk_out).
    """

    input_dim: int
    trunk_widths: list
    grid: TauGrid
    params: np.ndarray
    trunk_w: list = dataclasses.field(init=False, repr=False)
    trunk_b: list = dataclasses.field(init=False, repr=False)
    head_w: np.ndarray = dataclasses.field(init=False, repr=False)
    head_b: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self.trunk_widths, self._layout = _layout(
            self.input_dim, self.trunk_widths, len(self.grid))
        self.params = np.ascontiguousarray(self.params, dtype=float)
        if self.params.shape != (self._layout[-1][1],):
            raise ValueError("flat parameter vector has wrong length")
        self.trunk_w, self.trunk_b, self.head_w, self.head_b = _views(
            self.params, self._layout)

    @property
    def n_heads(self) -> int:
        return self.head_w.shape[0]

    def copy(self) -> "QuantileNet":
        return dataclasses.replace(self, params=self.params.copy())


def init_net(input_dim: int, trunk_widths: Sequence[int], grid: TauGrid,
             seed: int) -> QuantileNet:
    """Build a network with He-scaled trunk weights and 1/fan_in heads.

    Biases start at zero. Deterministic for a fixed seed.
    """
    widths, layout = _layout(input_dim, trunk_widths, len(grid))
    net = QuantileNet(input_dim, widths, grid, np.zeros(layout[-1][1]))
    rng = np.random.default_rng(seed)
    for w in net.trunk_w:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    net.head_w[...] = rng.normal(0.0, np.sqrt(1.0 / widths[-1]),
                                 size=net.head_w.shape)
    return net


def _pass(net: QuantileNet, x: np.ndarray, pres, acts, z: np.ndarray) -> None:
    """Run rows through trunk layer i into ``pres[i]`` (pre-activations) and
    ``acts[i]`` (ReLU outputs, in place when the same array), then through
    the heads into ``z``."""
    a = x
    for w, b, pre, act in zip(net.trunk_w, net.trunk_b, pres, acts):
        np.matmul(a, w.T, out=pre)
        pre += b
        a = np.maximum(pre, 0.0, out=act)
    np.matmul(a, net.head_w.T, out=z)
    z += net.head_b


def check_inputs(net: QuantileNet, x: np.ndarray) -> np.ndarray:
    """``x`` as float64 rows of ``net.input_dim`` features: a ValueError for
    any other shape or a non-finite feature."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"expected inputs with {net.input_dim} features, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    return x


def forward(net: QuantileNet, x: np.ndarray) -> np.ndarray:
    """The latent quantiles (n, m) of an (n, input_dim) batch.

    Rows go through the trunk in blocks of FORWARD_BLOCK_ROWS, so the hidden
    activations of a large batch are never held at once.
    """
    x = check_inputs(net, x)
    n = x.shape[0]
    z = np.empty((n, net.n_heads))
    # one buffer per layer, reused by every block as both pres and acts
    bufs = [np.empty((min(n, FORWARD_BLOCK_ROWS), w)) for w in net.trunk_widths]
    for start in range(0, n, FORWARD_BLOCK_ROWS):
        block = x[start:start + FORWARD_BLOCK_ROWS]
        live = [buf[:block.shape[0]] for buf in bufs]
        _pass(net, block, live, live, z[start:start + FORWARD_BLOCK_ROWS])
    return z


def forward_cached(net: QuantileNet, x: np.ndarray):
    """Forward pass returning (outputs, activations, pre-activations), each
    in a fresh array; ``acts[0]`` is the input itself."""
    x = np.asarray(x, dtype=float)
    pres = [np.empty((len(x), w)) for w in net.trunk_widths]
    acts = [np.empty((len(x), w)) for w in net.trunk_widths]
    z = np.empty((len(x), net.n_heads))
    _pass(net, x, pres, acts, z)
    return z, [x] + acts, pres


def _trunk_deltas(net: QuantileNet, pres, d: np.ndarray):
    """Yield (i, gradient w.r.t. ``pres[i]``) for each trunk layer, top down,
    from ``d``, the gradient w.r.t. the top activations, broadcast to
    (n, width). ReLU passes gradient where pre >= 0 (its right-derivative at
    the kink); the input gradient is never formed."""
    d = d * (pres[-1] >= 0.0)
    for i in range(len(pres) - 1, -1, -1):
        yield i, d
        if i:
            d = d @ net.trunk_w[i]
            d *= pres[i - 1] >= 0.0


def backprop_from_outputs(net: QuantileNet, acts, pres,
                          dz: np.ndarray) -> np.ndarray:
    """Push d(objective)/d(outputs) back to parameter space: one vector laid
    out like ``net.params``.

    ``dz`` has shape (n, m); the result already carries whatever reduction
    the caller baked into dz (mean over the batch happens upstream).
    """
    grad = np.empty(net.params.size)
    trunk_w, trunk_b, head_w, head_b = _views(grad, net._layout)
    np.matmul(dz.T, acts[-1], out=head_w)
    np.sum(dz, axis=0, out=head_b)
    for i, dpre in _trunk_deltas(net, pres, dz @ net.head_w):
        np.matmul(dpre.T, acts[i], out=trunk_w[i])
        np.sum(dpre, axis=0, out=trunk_b[i])
    return grad


def apply_step(net: QuantileNet, grad: np.ndarray, eta: float) -> None:
    """In-place SGD step w <- w - eta * grad."""
    net.params -= eta * grad


def save_checkpoint(net: QuantileNet, path) -> None:
    """Write a single portable .npz checkpoint (shapes, grid, flat params)."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "input_dim": net.input_dim,
        "trunk_widths": net.trunk_widths,
    }
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        grid=net.grid.array,
        params=net.params,
    )


def load_checkpoint(path) -> QuantileNet:
    """Read a ``save_checkpoint`` file; any other file, or one whose arrays
    do not build a network, is a ValueError naming the path."""
    try:
        with open(path, "rb") as fh, np.load(fh) as ckpt:
            meta = json.loads(bytes(ckpt["meta"].tobytes()).decode())
            version = meta["version"]
            if version == CHECKPOINT_VERSION:
                return QuantileNet(meta["input_dim"], meta["trunk_widths"],
                                   TauGrid(tuple(ckpt["grid"])), ckpt["params"])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a bqrnet checkpoint ({exc})") from exc
    raise ValueError(f"unsupported checkpoint version: {version!r}; retrain")
