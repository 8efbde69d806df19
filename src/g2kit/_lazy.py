"""Modules that load on first attribute access.

A fresh interpreter compiles every source file it imports, so a command
should import only what it runs.  numpy serves only the float layers (flow,
Eguchi-Hanson, the numeric report rows), and each of g2kit's own layers
(torus, forms, betti, eguchi_hanson, poincare, flow) serves only the
scenarios and commands that call it: `scenarios` and `cli` bind them here,
so `g2kit list` loads none of them and an exact-only run never loads numpy.
"""

import importlib.util
import sys


def lazy_module(name):
    """The module `name`; a fresh import runs at its first attribute access.

    A submodule is also bound on its parent package, as an import binds it,
    so `import g2kit.torus; g2kit.torus.f` works after a lazy binding.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
