"""Shared test set-up."""

import os
from pathlib import Path

import pytest

import dqc1sim


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_dqc1sim():
    """CLI subprocesses import the same dqc1sim as the tests, installed or not."""
    src = str(Path(dqc1sim.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield
