"""Deferred imports, so that commands that never touch an array skip numpy."""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType

_deferred: list[ModuleType] = []  # every module lazy_import registered, loaded or not


def lazy_import(name: str) -> ModuleType:
    """Module ``name``, executed on its first attribute access.

    A module that is already in ``sys.modules`` (loaded, or registered by an
    earlier call) comes back as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    _deferred.append(module)
    return module


def load_deferred() -> None:
    """Execute every module that :func:`lazy_import` deferred and nothing has used yet.

    A process about to fork calls this, so that its children share the
    loaded module instead of each executing it again.
    """
    for module in _deferred:
        module.__name__  # the first attribute access executes a deferred module
