"""Modules that load on first attribute access.

numpy serves only the float layers (flow, Eguchi-Hanson, the numeric
report rows); exact-only runs never touch it, so they do not pay its
import.
"""

import importlib.util
import sys


def lazy_module(name):
    """The module `name`; a fresh import runs at its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
