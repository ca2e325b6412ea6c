"""The package has one version: ``repro.__version__``.

``pyproject.toml`` reads it dynamically rather than declaring its
own, so installed metadata cannot disagree with the import-time
string.
"""

import importlib
import sys
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is new in Python 3.11")
def test_pyproject_version_matches_package():
    import tomllib

    config = tomllib.loads(PYPROJECT.read_text())
    project = config["project"]
    assert "version" not in project, "declare the version only in repro"
    assert "version" in project["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, _, name = attr.rpartition(".")
    declared = getattr(importlib.import_module(module), name)
    assert declared == repro.__version__
