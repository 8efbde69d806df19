"""Names that g2kit binds, read off syntax trees and module namespaces:
every imported name is used or listed in its module's __all__, every error
class is raised somewhere in the package, and every function or method
that perfbench/spans.py wraps stays bound where it looks."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "g2kit"


def imported_names(tree):
    """(bound name, line) for each import, future imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | exported_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in kept]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def test_scan_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from collections import Counter\n"
              "import numpy.linalg\n"
              "from .errors import G2KitError\n"
              "__all__ = ['G2KitError']\n"
              "def f(x):\n"
              "    return numpy.linalg.norm(x)\n")
    assert unused_imports(source) == [("Counter", 2)]


def unraised_error_classes(errors_source, module_sources):
    """Classes of errors_source that no raise statement of module_sources
    names, and that are no base of one that is raised."""
    classes = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
               for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)}
    todo = []
    for source in module_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in classes:
                    todo.append(exc.id)
    used = set()
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo += [b for b in classes[name] if b in classes]
    return sorted(set(classes) - used)


def test_every_error_class_is_raised():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unraised_error_classes((SRC / "errors.py").read_text(), sources) == []


def test_scan_catches_an_unraised_error_class():
    errors = ("class Base(Exception): pass\n"
              "class Bad(Base): pass\n"
              "class Scale(Bad): pass\n"
              "class Unused(Base): pass\n"
              "class Built(Base): pass\n")
    module = ("from .errors import Scale, Unused, Built\n"
              "def f(x):\n"
              "    if x < 0:\n"
              "        raise Scale(x)\n"
              "    return Built(x), Unused\n")
    assert unraised_error_classes(errors, [module]) == ["Built", "Unused"]


def load_spans():
    """perfbench/spans.py, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def unbound_span_names(function_spans, bound_only, method_spans):
    """The wrapped names that do not resolve, looked up as the recorder
    looks them up: in sys.modules after `import g2kit.cli`."""
    import g2kit.cli  # noqa: F401
    wanted = [(f"g2kit.{mod}", None, name)
              for mod, names, _ in function_spans for name in names]
    wanted += [(f"g2kit.{bound_only[0]}", None, name) for name in bound_only[1]]
    wanted += [(f"g2kit.{mod}", cls, name)
               for mod, cls, names, _ in method_spans for name in names]
    missing = []
    for mod, cls, name in wanted:
        module = sys.modules.get(mod)
        if cls is None:
            bound = module is not None and hasattr(module, name)
        else:
            # the recorder patches a method in the class's own namespace
            bound = name in vars(getattr(module, cls, object))
        if not bound:
            missing.append(".".join(filter(None, (mod, cls, name))))
    return missing


def test_every_span_name_is_bound():
    spans = load_spans()
    assert unbound_span_names(spans._FUNCTION_SPANS, spans._BOUND_ONLY,
                              spans._METHOD_SPANS) == []


def test_span_scan_catches_an_unbound_name():
    assert unbound_span_names(
        [("torus", ("generate_group", "hodge_star"), None)],
        ("exact", ("smith_normal_form", "inverse")),
        [("flow", "ModeSystem", ("matvec", "solve"), "flow.matvec"),
         ("flow", "NoSuchClass", ("matvec",), "flow.matvec")]) == [
        "g2kit.torus.hodge_star", "g2kit.exact.inverse",
        "g2kit.flow.ModeSystem.solve", "g2kit.flow.NoSuchClass.matvec"]
