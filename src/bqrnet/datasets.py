"""Simulated latent-response generators, thresholding, label noise,
CSV ingestion/export, and the latent/prediction normalization used when
checking coverage.
"""

from __future__ import annotations

import csv
import dataclasses
from typing import Optional, Union

import numpy as np

from .network import QuantileNet, TauGrid


@dataclasses.dataclass
class LabeledDataset:
    """Features plus binary labels; simulated data also carries the true
    latent response and the threshold used to binarize it."""

    features: np.ndarray
    labels: Optional[np.ndarray] = None
    latent: Optional[np.ndarray] = None
    threshold: Optional[float] = None
    name: str = ""
    column_names: Optional[list] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be an (n, d) array of at least "
                             f"one row, not shape {self.features.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    flip_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.flip_fraction <= 0.5:
            raise ValueError(f"flip fraction {self.flip_fraction} outside [0, 0.5]")


def _d4_signal(x):
    out = np.zeros_like(x)
    nz = x != 0
    out[nz] = 2.0 * x[nz] * np.sin(1.0 / (2.0 * x[nz]))
    return out


def _bump_signal(x):
    u = 3.0 * x
    return 2.0 * ((1.0 - u + 2.0 * u ** 2) * np.exp(-0.5 * u ** 2) - 1.5)


# (signal on x in (-1,1), noise sampler given rng and n); rng.normal takes a
# standard deviation, so D2 and D4 have noise variance 0.5 and D5 has 0.25
GENERATORS: dict = {
    "D1": (lambda x: 5.0 * np.sin(8.0 * x),
           lambda rng, n: rng.normal(0.0, 1.0, n)),
    "D2": (lambda x: (4.0 * x) ** 2 / 2.0,
           lambda rng, n: rng.normal(0.0, np.sqrt(0.5), n)),
    "D3": (lambda x: np.sqrt((4.0 * x) ** 2 + 5.0) - 2.5,
           lambda rng, n: rng.uniform(-0.3, 0.3, n)),
    "D4": (_d4_signal,
           lambda rng, n: rng.normal(0.0, np.sqrt(0.5), n)),
    "D5": (_bump_signal,
           lambda rng, n: rng.normal(0.0, 0.5, n)),
    # chi^2(2)/4 noise via exact inverse CDF: chi^2(2) = -2 ln U
    "D6": (_bump_signal,
           lambda rng, n: -2.0 * np.log(rng.uniform(1e-300, 1.0, n)) / 4.0),
}


def gen_dataset(dataset_id: str, n: int, seed: int) -> LabeledDataset:
    """Draw x ~ U(-1, 1) and the latent response for one of the six
    simulated families. Labels are attached separately by thresholding."""
    if dataset_id not in GENERATORS:
        raise ValueError(
            f"unknown dataset id {dataset_id!r}; valid ids: {sorted(GENERATORS)}")
    if n < 1:
        raise ValueError("n must be positive")
    signal, noise = GENERATORS[dataset_id]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    latent = signal(x) + noise(rng, n)
    return LabeledDataset(features=x[:, None], latent=latent, name=dataset_id)


def threshold_labels(ds: LabeledDataset, mu: float) -> LabeledDataset:
    """Label 0 where latent <= mu, else 1; records the threshold."""
    if ds.latent is None:
        raise ValueError("thresholding requires the true latent response")
    labels = (ds.latent > mu).astype(int)
    return dataclasses.replace(ds, labels=labels, threshold=float(mu))


def resolve_threshold(spec: Union[float, str], response) -> float:
    """A binarization threshold given as a number, 'median', or
    'p<percentile>' of the response with the percentile in [0, 100] (e.g.
    'p80'); it must be finite."""
    text = str(spec).strip().lower()
    try:
        if text == "median":
            mu = float(np.median(response))
        elif text.startswith("p"):
            q = float(text[1:])
            if not 0.0 <= q <= 100.0:  # NaN fails too
                raise ValueError
            mu = float(np.percentile(response, q))
        else:
            mu = float(spec if isinstance(spec, (int, float)) else text)
    except ValueError:
        raise ValueError("threshold must be a number, 'median' or "
                         f"'p0'..'p100', not \"{spec}\"") from None
    if not np.isfinite(mu):
        raise ValueError(f"threshold must be finite, not {mu}")
    return mu


def flip_labels(ds: LabeledDataset, spec: NoiseSpec) -> LabeledDataset:
    """Invert the labels of round(fraction * n) uniformly chosen rows."""
    if ds.labels is None:
        raise ValueError("flip_labels requires labels")
    n_flip = int(round(spec.flip_fraction * ds.n))
    rng = np.random.default_rng(spec.seed)
    idx = rng.choice(ds.n, size=n_flip, replace=False)
    labels = ds.labels.copy()
    labels[idx] = 1 - labels[idx]
    return dataclasses.replace(ds, labels=labels)


def train_test_split(ds: LabeledDataset, test_fraction: float = 0.3,
                     seed: int = 0):
    """Deterministic seeded shuffle split; returns (train, test)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    n_test = int(round(test_fraction * ds.n))
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    def subset(idx):
        return dataclasses.replace(
            ds,
            features=ds.features[idx],
            labels=None if ds.labels is None else ds.labels[idx],
            latent=None if ds.latent is None else ds.latent[idx],
        )

    return subset(train_idx), subset(test_idx)


def load_csv(path, label_column: str,
             threshold: Optional[Union[float, str]] = None,
             latent_column: Optional[str] = None) -> LabeledDataset:
    """Read a headered CSV into a dataset.

    The label column must be binary unless ``threshold`` is given, in which
    case it is treated as a real response and thresholded (<= threshold is
    class 0); the threshold may be any spec ``resolve_threshold`` accepts,
    taken over that response. Every other column except the latent one is
    a feature, returned as read: fitting scales features, whatever their
    source. A NaN or infinite cell is a ValueError naming its row.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        table = list(csv.reader(fh))
    if not table:
        raise ValueError("empty file: missing header row")
    header = [h.strip() for h in table[0]]
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in header")
    if latent_column is not None and latent_column not in header:
        raise ValueError(f"latent column {latent_column!r} not found in header")
    label_idx = header.index(label_column)
    latent_idx = header.index(latent_column) if latent_column else None
    feat_idx = [i for i in range(len(header))
                if i != label_idx and i != latent_idx]
    values = []
    for rownum, row in enumerate(table[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"row {rownum}: expected {len(header)} fields, "
                             f"got {len(row)}")
        try:
            values.append([float(v) for v in row])
        except ValueError:
            raise ValueError(f"row {rownum}: non-numeric field")
    if not values:
        raise ValueError("no data rows")
    values = np.asarray(values)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        rownum = int(np.argmin(finite)) + 2
        raise ValueError(f"row {rownum}: non-finite value")
    features, raw_labels = values[:, feat_idx], values[:, label_idx]
    if threshold is not None:
        threshold = resolve_threshold(threshold, raw_labels)
        labels = (raw_labels > threshold).astype(int)
    else:
        if not np.isin(raw_labels, (0.0, 1.0)).all():
            raise ValueError("label column is not binary; pass a threshold "
                             "to binarize a real-valued response")
        labels = raw_labels.astype(int)
    return LabeledDataset(
        features=features, labels=labels,
        latent=None if latent_idx is None else values[:, latent_idx],
        threshold=threshold, name=str(path),
        column_names=[header[i] for i in feat_idx])


def _minmax_map(lo, hi):
    """Per-column (s, shift) of the map x s + shift sending [lo, hi] to
    [-1, 1]: s = 2 / (hi - lo) and shift = -(s lo + 1); a constant column
    gets 0 for both, so it maps to 0."""
    span = np.asarray(hi, dtype=float) - lo
    s = np.divide(2.0, span, out=np.zeros_like(span), where=span != 0.0)
    return s, np.where(span == 0.0, 0.0, -(s * lo + 1.0))


def scale_features(features, lo, hi):
    """Affine per-column map sending [lo, hi] to [-1, 1]; constant columns
    map to 0."""
    s, shift = _minmax_map(lo, hi)
    return features * s + shift


def fold_scaling(net: QuantileNet, lo, hi) -> QuantileNet:
    """A copy of ``net`` that takes raw features: its first layer applies
    ``scale_features(x, lo, hi)`` first, as W' = W diag(s) and
    b' = b + W shift."""
    s, shift = _minmax_map(lo, hi)
    out = net.copy()
    out.trunk_b[0] += out.trunk_w[0] @ shift
    out.trunk_w[0] *= s
    return out


def write_csv(ds: LabeledDataset, path) -> None:
    """Export a dataset to CSV."""
    header = list(ds.column_names or [f"x{i}" for i in range(ds.dim)])
    columns = []
    for name, col, kind in (("latent", ds.latent, float),
                            ("label", ds.labels, int)):
        if col is not None:
            header.append(name)
            columns.append(np.asarray(col, dtype=kind).tolist())
    write_rows(path, header, (f + rest for f, *rest in zip(
        ds.features.tolist(), *columns)))


def write_rows(path, header, rows) -> None:
    """Write a header and then ``rows`` as CSV; csv writes a Python float as
    its repr, the shortest exact form."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def normalize_for_coverage(ds: LabeledDataset, preds: np.ndarray,
                           grid: TauGrid):
    """Standardize the true latent and the predicted quantiles onto a common
    scale for coverage comparison.

    The latent is standardized to zero mean / unit sd (a binarization
    threshold would only shift it, so it cancels). Every quantile column is
    shifted and scaled by the mean and sd of the *median* column.
    Returns (normalized latent, normalized prediction matrix).
    """
    if ds.latent is None:
        raise ValueError("coverage normalization needs the true latent")
    preds = np.asarray(preds, dtype=float)
    if preds.shape[0] != ds.n:
        raise ValueError("predictions are not aligned with dataset rows")
    if preds.shape[1] != len(grid):
        raise ValueError("prediction width does not match grid size")
    mu, sd = ds.latent.mean(), ds.latent.std()
    if sd == 0.0:
        raise ValueError("degenerate latent distribution (zero spread)")
    latent_norm = (ds.latent - mu) / sd
    med = preds[:, grid.median_index]
    med_mu, med_sd = med.mean(), med.std()
    if med_sd == 0.0:
        raise ValueError("degenerate median prediction (zero spread)")
    preds_norm = (preds - med_mu) / med_sd
    return latent_norm, preds_norm
