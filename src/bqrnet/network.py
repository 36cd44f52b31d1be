"""Feed-forward ReLU network with a shared trunk and one linear head per quantile level.

All math is plain numpy in float64. Forward and backward are pure functions of
(net, inputs); nothing here mutates a network in place except the SGD step in
``training``, which owns its copy.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

import numpy as np

DEFAULT_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

CHECKPOINT_VERSION = "bqrnet-ckpt-1"

# Rows per trunk pass in ``forward``. Hidden activations are held for one
# block at a time (1024 x 64 float64 is 512 KiB), not for the whole batch.
FORWARD_BLOCK_ROWS = 1024


class ArchitectureError(ValueError):
    """Raised for invalid layer configurations."""


class ShapeError(ValueError):
    """Raised on input dimension mismatches."""


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
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise ValueError("quantile levels must lie strictly in (0, 1)")
        if np.any(np.diff(arr) <= 0.0):
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

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        arr = self.array
        return bool(np.all(np.abs(arr + arr[::-1] - 1.0) <= tol))


@dataclasses.dataclass
class QuantileNet:
    """Trunk weights/biases plus a bank of scalar linear heads, one per level.

    ``trunk_w[i]`` has shape (width_i, fan_in_i); ``head_w`` stacks the head
    weight vectors as rows, shape (m, trunk_out).
    """

    input_dim: int
    trunk_w: list
    trunk_b: list
    head_w: np.ndarray
    head_b: np.ndarray
    grid: TauGrid

    @property
    def trunk_widths(self) -> list:
        return [w.shape[0] for w in self.trunk_w]

    @property
    def n_heads(self) -> int:
        return self.head_w.shape[0]

    def copy(self) -> "QuantileNet":
        return QuantileNet(
            input_dim=self.input_dim,
            trunk_w=[w.copy() for w in self.trunk_w],
            trunk_b=[b.copy() for b in self.trunk_b],
            head_w=self.head_w.copy(),
            head_b=self.head_b.copy(),
            grid=self.grid,
        )


def _check_architecture(input_dim: int, trunk_widths: Sequence[int]) -> list:
    if input_dim < 1:
        raise ArchitectureError("input_dim must be positive")
    widths = list(trunk_widths)
    if not widths:
        raise ArchitectureError("trunk must have at least one layer")
    if any(w < 1 for w in widths):
        raise ArchitectureError("trunk widths must be positive")
    return widths


def init_net(input_dim: int, trunk_widths: Sequence[int], grid: TauGrid,
             seed: int) -> QuantileNet:
    """Build a network with He-scaled trunk weights and 1/fan_in heads.

    Biases start at zero. Deterministic for a fixed seed.
    """
    widths = _check_architecture(input_dim, trunk_widths)
    rng = np.random.default_rng(seed)
    trunk_w, trunk_b = [], []
    fan_in = input_dim
    for width in widths:
        scale = np.sqrt(2.0 / fan_in)
        trunk_w.append(rng.normal(0.0, scale, size=(width, fan_in)))
        trunk_b.append(np.zeros(width))
        fan_in = width
    m = len(grid)
    head_scale = np.sqrt(1.0 / fan_in)
    head_w = rng.normal(0.0, head_scale, size=(m, fan_in))
    head_b = np.zeros(m)
    return QuantileNet(input_dim, trunk_w, trunk_b, head_w, head_b, grid)


def forward(net: QuantileNet, x: np.ndarray) -> np.ndarray:
    """Evaluate the latent quantile vector(s) for one sample or a batch.

    A 1-d input of length input_dim returns a vector of length m; a 2-d
    (n, input_dim) batch returns (n, m). Rows go through the trunk in blocks
    of FORWARD_BLOCK_ROWS, so the hidden activations of a large batch are
    never held at once.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(
            f"expected inputs with {net.input_dim} features, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    n = x.shape[0]
    z = np.empty((n, net.n_heads))
    # one activation buffer per layer, reused by every block
    bufs = [np.empty((min(n, FORWARD_BLOCK_ROWS), w.shape[0]))
            for w in net.trunk_w]
    for start in range(0, n, FORWARD_BLOCK_ROWS):
        stop = start + FORWARD_BLOCK_ROWS
        a = x[start:stop]
        for w, b, buf in zip(net.trunk_w, net.trunk_b, bufs):
            out = buf[:a.shape[0]]
            np.matmul(a, w.T, out=out)
            out += b
            np.maximum(out, 0.0, out=out)
            a = out
        np.matmul(a, net.head_w.T, out=z[start:stop])
    z += net.head_b
    return z[0] if single else z


def forward_cached(net: QuantileNet, x: np.ndarray):
    """Forward pass returning (outputs, activations, pre-activations)."""
    a = np.asarray(x, dtype=float)
    acts = [a]
    pres = []
    for w, b in zip(net.trunk_w, net.trunk_b):
        pre = a @ w.T + b
        a = np.maximum(pre, 0.0)
        pres.append(pre)
        acts.append(a)
    z = a @ net.head_w.T + net.head_b
    return z, acts, pres


def backprop_from_outputs(net: QuantileNet, acts, pres,
                          dz: np.ndarray) -> "Gradients":
    """Push d(objective)/d(outputs) back to parameter space.

    ``dz`` has shape (n, m); the result already carries whatever reduction
    the caller baked into dz (mean over the batch happens upstream).
    ReLU uses the right-derivative at its kink (pre >= 0 passes gradient).
    """
    gw = [None] * len(net.trunk_w)
    gb = [None] * len(net.trunk_b)
    ghw = dz.T @ acts[-1]
    ghb = dz.sum(axis=0)
    da = dz @ net.head_w
    for i in range(len(net.trunk_w) - 1, -1, -1):
        dpre = da * (pres[i] >= 0.0)
        gw[i] = dpre.T @ acts[i]
        gb[i] = dpre.sum(axis=0)
        da = dpre @ net.trunk_w[i]
    return Gradients(gw, gb, ghw, ghb)


@dataclasses.dataclass
class Gradients:
    trunk_w: list
    trunk_b: list
    head_w: np.ndarray
    head_b: np.ndarray


def apply_step(net: QuantileNet, grad: Gradients, eta: float) -> None:
    """In-place SGD step w <- w - eta * grad."""
    for w, g in zip(net.trunk_w, grad.trunk_w):
        w -= eta * g
    for b, g in zip(net.trunk_b, grad.trunk_b):
        b -= eta * g
    net.head_w -= eta * grad.head_w
    net.head_b -= eta * grad.head_b


def param_count(net: QuantileNet) -> int:
    total = sum(w.size + b.size for w, b in zip(net.trunk_w, net.trunk_b))
    return int(total + net.head_w.size + net.head_b.size)


def flatten_params(net: QuantileNet) -> np.ndarray:
    parts = []
    for w, b in zip(net.trunk_w, net.trunk_b):
        parts.append(w.ravel())
        parts.append(b.ravel())
    parts.append(net.head_w.ravel())
    parts.append(net.head_b.ravel())
    return np.concatenate(parts)


def unflatten_params(net: QuantileNet, flat: np.ndarray) -> QuantileNet:
    return _net_from_flat(net.input_dim, net.trunk_widths, net.grid, flat)


def _net_from_flat(input_dim: int, trunk_widths: Sequence[int],
                   grid: TauGrid, flat: np.ndarray) -> QuantileNet:
    """A network whose arrays are views into ``flat``, laid out as
    flatten_params writes them."""
    widths = _check_architecture(input_dim, trunk_widths)
    flat = np.asarray(flat, dtype=float)
    fan_ins = [input_dim] + widths
    m = len(grid)
    n_params = sum(w * (f + 1) for f, w in zip(fan_ins, widths)) \
        + m * (widths[-1] + 1)
    if flat.shape != (n_params,):
        raise ShapeError("flat parameter vector has wrong length")
    pos = 0

    def take(shape):
        nonlocal pos
        size = int(np.prod(shape))
        block = flat[pos:pos + size].reshape(shape)
        pos += size
        return block

    trunk_w, trunk_b = [], []
    for fan_in, width in zip(fan_ins, widths):
        trunk_w.append(take((width, fan_in)))
        trunk_b.append(take((width,)))
    head_w = take((m, widths[-1]))
    head_b = take((m,))
    return QuantileNet(input_dim, trunk_w, trunk_b, head_w, head_b, grid)


def flatten_grad(grad: Gradients) -> np.ndarray:
    parts = []
    for w, b in zip(grad.trunk_w, grad.trunk_b):
        parts.append(w.ravel())
        parts.append(b.ravel())
    parts.append(grad.head_w.ravel())
    parts.append(grad.head_b.ravel())
    return np.concatenate(parts)


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
        params=flatten_params(net),
    )


def load_checkpoint(path) -> QuantileNet:
    with np.load(path) as ckpt:
        meta = json.loads(bytes(ckpt["meta"].tobytes()).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {meta.get('version')!r}")
        grid = TauGrid(tuple(ckpt["grid"]))
        return _net_from_flat(meta["input_dim"], meta["trunk_widths"], grid,
                              ckpt["params"])
