import importlib
from pathlib import Path

import pytest

import reference


def test_solve_path_does_not_import_reference():
    # the specification lives beside the tests, so the package cannot import it
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("incknap.reference")
    assert Path(reference.__file__).resolve().parent == Path(__file__).resolve().parent
