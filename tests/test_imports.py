"""Names that g2kit binds, read off syntax trees and module namespaces:
every imported name is used or listed in its module's __all__, every error
class is raised somewhere in the package, every function or method
that perfbench/spans.py wraps stays bound where it looks, and every public
function, class or method has a caller outside the tests."""

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
    """(name, line) for each name an import binds that the module never
    reads: an assignment or del of the name is no use of the import."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    kept = read | exported_names(tree)
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


def test_scan_counts_only_reads():
    # a name that is imported and then only rebound or deleted is unused
    source = ("import json\n"
              "from math import pi, tau\n"
              "pi = 3\n"
              "del tau\n"
              "def f(x):\n"
              "    return json.dumps(x)\n")
    assert unused_imports(source) == [("pi", 2), ("tau", 2)]


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


# public names with no caller outside the tests yet, each with the ROADMAP
# item that gives it one
UNCALLED = {
    "betti.dual_completion": "item 16",
    "betti.mv_euler_check": "item 16",
    "betti.EulerReport.consistent": "item 16",
    "forms.is_coassociative": "item 15",
    "torus.components_intersect": "items 1 and 16",
}


def public_definitions(module, source):
    """(qualified name, name) of each public top-level function or class
    of a module and each public method or property of its classes."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_"))


def read_names(source, strings):
    """The names a source reads: as a Name, an Attribute or an import, and
    with strings as a string constant too."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            yield node.value


def uncalled_names(package_sources, bench_sources):
    """The public names of package_sources (module -> source) that no
    package source reads and no bench source reads or names in a string:
    the benchmark's spans name the functions they wrap as strings."""
    called = {name for source in package_sources.values()
              for name in read_names(source, strings=False)}
    called.update(name for source in bench_sources
                  for name in read_names(source, strings=True))
    return sorted(qualified for module, source in package_sources.items()
                  for qualified, name in public_definitions(module, source)
                  if name not in called)


def test_every_public_name_has_a_caller():
    package = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "perfbench").glob("*.py")
             if not path.name.startswith("test_")]
    assert uncalled_names(package, bench) == sorted(UNCALLED)


def test_caller_scan_catches_an_uncalled_name():
    package = {
        "shapes": ("class Square:\n"
                   "    def area(self):\n"
                   "        return self.side ** 2\n"
                   "    @property\n"
                   "    def corners(self):\n"
                   "        return 4\n"
                   "    def _cache(self):\n"
                   "        return None\n"
                   "def make(side):\n"
                   "    return Square(side)\n"
                   "def spare():\n"
                   "    return 'timed'\n"
                   "def timed():\n"
                   "    return None\n"
                   "def _helper():\n"
                   "    return None\n"),
        "draw": ("from .shapes import make\n"
                 "def draw(s):\n"
                 "    return make(s).area()\n"),
    }
    # a string names a function only in the benchmark's sources
    bench = ["SPANS = (('draw', ('draw',)),)\n"]
    assert uncalled_names(package, bench) == [
        "shapes.Square.corners", "shapes.spare", "shapes.timed"]
    assert uncalled_names(package, bench + ["SPANS = ('timed',)\n"]) == [
        "shapes.Square.corners", "shapes.spare"]
