import importlib.util
import sys

import pytest

from benford2._lazy import lazy_import


def test_missing_module_names_itself(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="'numpy_absent'") as excinfo:
        lazy_import("numpy_absent")
    assert excinfo.value.name == "numpy_absent"
    assert "numpy_absent" not in sys.modules


def test_loaded_module_comes_back_as_is():
    assert lazy_import("math") is sys.modules["math"]
