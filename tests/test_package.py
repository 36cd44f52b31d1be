"""Package metadata: the version written in pyproject.toml and in the
package agree, every exported name resolves, bad input has one exception
type, and each input rule has one message."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bqrnet
from bqrnet import losses


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert tomllib.loads(text)["project"]["version"] == bqrnet.__version__


def test_readme_quick_start_runs(tmp_path):
    # the README's python block runs as written, with a 2-epoch fit
    root = Path(__file__).resolve().parents[1]
    block = re.search(r"```python\n(.*?)```", (root / "README.md").read_text(),
                      re.DOTALL).group(1)
    assert "epochs=900" in block
    script = tmp_path / "quick_start.py"
    script.write_text(block.replace("epochs=900", "epochs=2"))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-W", "error", str(script)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_all_names_resolve():
    for name in bqrnet.__all__:
        assert hasattr(bqrnet, name), name


def test_only_divergence_has_its_own_exception_class():
    # bad input is a plain ValueError, which the CLI turns into exit 2;
    # a diverged run carries its trace and exits 3
    defined = set()
    for info in pkgutil.iter_modules(bqrnet.__path__):
        module = importlib.import_module(f"bqrnet.{info.name}")
        defined |= {name for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {"TrainingDiverged"}


# The input rules and every entry point that applies each. An entry point
# takes the bad features, predictions, labels or latent with good values for
# the rest.
NET = bqrnet.init_net(1, [4], bqrnet.TauGrid.default(), seed=0)
GRID = NET.grid
SPEC = bqrnet.LossSpec(GRID)
X = np.array([[0.1], [0.5], [0.9]])
Y = np.array([0.0, 1.0, 1.0])
P = np.zeros((3, 9))
DS = bqrnet.LabeledDataset(features=X, labels=Y, latent=[0.2, -1.0, 3.0])
CONFIDENCE = bqrnet.ConfidenceScores(delta=np.full(3, 0.2),
                                     predicted_label=np.array([0, 1, 1]))
TRAIN_CONFIG = bqrnet.TrainConfig(epochs=1, batch_size=2, lr_mode="lalr")

# the rows rule: features are rows of input_dim values, predictions rows of
# len(grid) values, and LabeledDataset features rows of any width
FEATURE_ENTRIES = {
    "forward": lambda x: bqrnet.forward(NET, x),
    "backward": lambda x: bqrnet.backward(NET, x, Y, SPEC),
    "estimate_kz": lambda x: bqrnet.estimate_kz(NET, x),
    "train": lambda x: bqrnet.train(NET, x, Y, SPEC, TRAIN_CONFIG),
}
BAD_FEATURES = {
    "1-d": np.zeros(3),
    "wrong-width": np.zeros((3, 2)),
    "0-rows": np.zeros((0, 1)),
    "nan": np.array([[0.1], [np.nan], [0.9]]),
    "+inf": np.array([[0.1], [np.inf], [0.9]]),
    "-inf": np.array([[0.1], [-np.inf], [0.9]]),
}
ANY_WIDTH_FEATURES = {case: x for case, x in BAD_FEATURES.items()
                      if case != "wrong-width"}
PREDICTION_ENTRIES = {
    "conditional_moments": lambda p: bqrnet.conditional_moments(p, GRID),
    "prediction_intervals": lambda p: bqrnet.prediction_intervals(p, GRID, 0.5),
    "delta_scores": lambda p: bqrnet.delta_scores(p, GRID),
    "total_loss": lambda p: bqrnet.total_loss(Y, p, SPEC),
    "total_grad": lambda p: losses.total_grad(Y, p, SPEC),
    "roc_auc_at_delta": lambda p: bqrnet.roc_auc_at_delta(p, GRID, Y, 0.0),
}
# entry points that also know the row count, 3
COUNTED_PREDICTION_ENTRIES = {
    "normalize_for_coverage": lambda p: bqrnet.normalize_for_coverage(DS, p,
                                                                      GRID),
    "coverage": lambda p: bqrnet.coverage(DS, p, GRID),
}
BAD_PREDICTIONS = {
    "1-d": np.zeros(9),
    "wrong-width": np.zeros((3, 2)),
    "0-rows": np.zeros((0, 9)),
    "nan": np.where(np.eye(3, 9) == 1, np.nan, 0.0),
    "+inf": np.where(np.eye(3, 9) == 1, np.inf, 0.0),
    "-inf": np.where(np.eye(3, 9) == 1, -np.inf, 0.0),
}
WRONG_ROW_COUNT = {"2-rows": np.zeros((2, 9)), "4-rows": np.zeros((4, 9))}

# the labels rule: n labels of 0 or 1, or any shape of 0s and 1s for the
# functions that broadcast
LABEL_ENTRIES = {
    "train": lambda y: bqrnet.train(NET, X, y, SPEC, TRAIN_CONFIG),
    "LabeledDataset": lambda y: bqrnet.LabeledDataset(features=X, labels=y),
    "accuracy": lambda y: bqrnet.accuracy([0, 1, 1], y),
    "delta_report": lambda y: bqrnet.delta_report(CONFIDENCE, y),
    "roc_auc": lambda y: bqrnet.roc_auc(X[:, 0], y),
    "roc_auc_at_delta": lambda y: bqrnet.roc_auc_at_delta(P, GRID, y, 0.0),
    "backward": lambda y: bqrnet.backward(NET, X, y, SPEC),
    "total_loss": lambda y: bqrnet.total_loss(y, np.zeros((3, 9)), SPEC),
    "total_grad": lambda y: losses.total_grad(y, np.zeros((3, 9)), SPEC),
}
BAD_LABELS = {
    "2": np.array([0.0, 2.0, 1.0]),
    "0.5": np.array([0.0, 0.5, 1.0]),
    "nan": np.array([0.0, np.nan, 1.0]),
    "short": np.array([0.0, 1.0]),
}
BAD_LABEL_VALUES = {"2": 2.0, "0.5": 0.5, "nan": np.nan}

# the latent rule: n finite values
LATENT_ENTRIES = {
    "LabeledDataset": lambda v: bqrnet.LabeledDataset(features=X, latent=v),
}
BAD_LATENT = {
    "2-d": [[0.2], [-1.0], [3.0]],
    "short": [0.2, -1.0],
    "nan": [0.2, np.nan, 3.0],
    "+inf": [0.2, np.inf, 3.0],
    "-inf": [0.2, -np.inf, 3.0],
}

# the confidence rule: deltas in [0, 0.5], one label each, and each label
# 0 or 1 (the labels rule's value-only form); (delta, predicted_label) pairs
# in the array form and the one-row float/int form
BAD_CONFIDENCE = {
    "nan": (np.array([0.2, np.nan, 0.2]), np.array([0, 1, 1])),
    "0.7": (np.array([0.2, 0.7, 0.2]), np.array([0, 1, 1])),
    "-1": (np.array([0.2, -1.0, 0.2]), np.array([0, 1, 1])),
    "short-labels": (np.full(3, 0.2), np.array([0, 1])),
    "one-row-nan": (np.nan, 1),
    "one-row-0.7": (0.7, 1),
}
BAD_CONFIDENCE_LABELS = {
    "5": (np.full(3, 0.2), np.array([0, 5, 1])),
    "one-row-5": (0.2, 5),
}

# the grid rule: the loss grid is the network's
GRID_ENTRIES = {
    "backward": lambda spec: bqrnet.backward(NET, X, Y, spec),
    "train": lambda spec: bqrnet.train(NET, X, Y, spec, TRAIN_CONFIG),
}
BAD_SPECS = {
    "bce": bqrnet.LossSpec(bqrnet.TauGrid((0.5,)), kind=bqrnet.BCE),
    "1-level": bqrnet.LossSpec(bqrnet.TauGrid((0.5,))),
    "other-levels": bqrnet.LossSpec(bqrnet.TauGrid(
        (0.05, 0.15, 0.25, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95))),
}


def _rows_message(bad, k=None, n=None):
    rows = "one or more" if n is None else n
    width = "" if k is None else f"{k} "
    return f"expected {rows} rows of {width}finite values, got shape {bad.shape}"


@pytest.mark.parametrize("entry, bad, message", [
    *(pytest.param(fn, x, _rows_message(x, 1), id=f"{name}-features-{case}")
      for name, fn in FEATURE_ENTRIES.items()
      for case, x in BAD_FEATURES.items()),
    *(pytest.param(lambda x: bqrnet.LabeledDataset(features=x), x,
                   _rows_message(x), id=f"LabeledDataset-features-{case}")
      for case, x in ANY_WIDTH_FEATURES.items()),
    *(pytest.param(fn, p, _rows_message(p, 9), id=f"{name}-predictions-{case}")
      for name, fn in PREDICTION_ENTRIES.items()
      for case, p in BAD_PREDICTIONS.items()),
    *(pytest.param(fn, p, _rows_message(p, 9, 3),
                   id=f"{name}-predictions-{case}")
      for name, fn in COUNTED_PREDICTION_ENTRIES.items()
      for case, p in {**BAD_PREDICTIONS, **WRONG_ROW_COUNT}.items()),
    *(pytest.param(fn, y, f"expected 3 labels of 0 or 1, got shape {y.shape}",
                   id=f"{name}-labels-{case}")
      for name, fn in LABEL_ENTRIES.items() for case, y in BAD_LABELS.items()),
    *(pytest.param(lambda y: bqrnet.bqr_loss(y, 1.0, 0.5), y,
                   "expected labels of 0 or 1, got shape ()",
                   id=f"bqr_loss-labels-{case}")
      for case, y in BAD_LABEL_VALUES.items()),
    *(pytest.param(fn, v, "expected 3 finite latent values, got shape "
                   f"{np.shape(v)}", id=f"{name}-latent-{case}")
      for name, fn in LATENT_ENTRIES.items()
      for case, v in BAD_LATENT.items()),
    *(pytest.param(lambda args: bqrnet.ConfidenceScores(*args), args,
                   "expected deltas in [0, 0.5] and one label each, got "
                   f"shapes {np.shape(args[0])} and {np.shape(args[1])}",
                   id=f"ConfidenceScores-delta-{case}")
      for case, args in BAD_CONFIDENCE.items()),
    *(pytest.param(lambda args: bqrnet.ConfidenceScores(*args), args,
                   f"expected labels of 0 or 1, got shape {np.shape(args[1])}",
                   id=f"ConfidenceScores-labels-{case}")
      for case, args in BAD_CONFIDENCE_LABELS.items()),
    *(pytest.param(fn, spec, "the loss grid differs from the network's grid",
                   id=f"{name}-grid-{case}")
      for name, fn in GRID_ENTRIES.items() for case, spec in BAD_SPECS.items()),
])
def test_each_input_rule_has_one_message(entry, bad, message):
    # labels 2, 0.5 or NaN used to score as 0; a 3-column or NaN batch
    # reached backward and estimate_kz as a NumPy or network-output error;
    # a NaN prediction row scored delta 0.5, the most confident; a NaN or
    # short latent built a dataset; backward scored a loss on another grid
    # against whichever heads its arrays lined up with; and a hand-built
    # ConfidenceScores with a NaN, 0.7 or -1 delta or a label 5 was scored
    # as given
    with pytest.raises(ValueError) as exc:
        entry(bad)
    assert str(exc.value) == message


def test_a_latent_list_is_stored_as_floats():
    # it was stored as given, and normalize_for_coverage then raised
    # AttributeError on the list
    ds = bqrnet.LabeledDataset(features=X, labels=Y, latent=[0, -1, 3])
    assert ds.latent.dtype == np.float64
    assert ds.latent.tolist() == [0.0, -1.0, 3.0]
    latent, _ = bqrnet.normalize_for_coverage(ds, np.arange(27.0).reshape(3, 9),
                                              GRID)
    assert np.isclose(latent.mean(), 0.0)
