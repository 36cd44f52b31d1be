"""Package metadata: the version written in pyproject.toml and in the
package agree, every exported name resolves, bad input has one exception
type, and each input rule has one message."""

import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bqrnet
from bqrnet import losses


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert tomllib.loads(text)["project"]["version"] == bqrnet.__version__


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


# The two input rules and every entry point that applies each. An entry
# point takes the bad features or labels with good values for the rest.
NET = bqrnet.init_net(1, [4], bqrnet.TauGrid.default(), seed=0)
SPEC = bqrnet.LossSpec(NET.grid)
X = np.array([[0.1], [0.5], [0.9]])
Y = np.array([0.0, 1.0, 1.0])
CONFIDENCE = bqrnet.ConfidenceScores(delta=np.full(3, 0.2),
                                     predicted_label=np.array([0, 1, 1]))
TRAIN_CONFIG = bqrnet.TrainConfig(epochs=1, batch_size=2, lr_mode="lalr")

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
LABEL_ENTRIES = {
    "train": lambda y: bqrnet.train(NET, X, y, SPEC, TRAIN_CONFIG),
    "LabeledDataset": lambda y: bqrnet.LabeledDataset(features=X, labels=y),
    "accuracy": lambda y: bqrnet.accuracy([0, 1, 1], y),
    "delta_report": lambda y: bqrnet.delta_report(CONFIDENCE, y),
    "roc_auc": lambda y: bqrnet.roc_auc(X[:, 0], y),
    "roc_auc_at_delta": lambda y: bqrnet.roc_auc_at_delta(X[:, 0], y,
                                                          CONFIDENCE, 0.0),
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


@pytest.mark.parametrize("entry, bad, message", [
    *(pytest.param(fn, x, "expected one or more rows of 1 finite features, "
                   f"got shape {x.shape}", id=f"{name}-features-{case}")
      for name, fn in FEATURE_ENTRIES.items()
      for case, x in BAD_FEATURES.items()),
    *(pytest.param(fn, y, f"expected 3 labels of 0 or 1, got shape {y.shape}",
                   id=f"{name}-labels-{case}")
      for name, fn in LABEL_ENTRIES.items() for case, y in BAD_LABELS.items()),
])
def test_each_input_rule_has_one_message(entry, bad, message):
    # labels 2, 0.5 or NaN used to score as 0, and a 3-column or NaN batch
    # reached backward and estimate_kz as a NumPy or network-output error
    with pytest.raises(ValueError) as exc:
        entry(bad)
    assert str(exc.value) == message
