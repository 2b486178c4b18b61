"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import gogends


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this checkout's gogends."""
    src = str(Path(gogends.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
