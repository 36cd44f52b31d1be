"""Package metadata: the version written in pyproject.toml and in the
package agree, and every exported name resolves."""

from pathlib import Path

import pytest

import bqrnet

tomllib = pytest.importorskip("tomllib")


def test_pyproject_version_matches_package():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert tomllib.loads(text)["project"]["version"] == bqrnet.__version__


def test_all_names_resolve():
    for name in bqrnet.__all__:
        assert hasattr(bqrnet, name), name
