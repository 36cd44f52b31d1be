"""Package metadata: the version written in pyproject.toml and in the
package agree, every exported name resolves, and bad input has one
exception type."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import bqrnet


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
