"""Every top-level function and class of the package, and every method, has a caller.

A definition counts as reached when another part of ``src/cstar_systems``
uses it or when ``perfbench/tracer.py`` names it in ``TARGETS``.  A use is an ``ast.Name`` outside
the definition itself or an entry of a ``from .module import`` statement;
attribute accesses such as ``np.kron`` do not count.  A method or property
counts as reached when the package reads it as an attribute, ``x.name``,
outside its own body, or when the tracer names it in ``METHODS``; special
methods (``__call__``, ``__eq__``, ...) are reached through the language.
The package root re-exports nothing, and a re-export is not a use, so
``__init__.py`` is not scanned for uses.  No module imports another's
private (``_``-prefixed) names.
"""
import ast
import dataclasses
from pathlib import Path

from cstar_systems.cli import SYSTEM_KINDS
from cstar_systems.systems import TensorialSystem
from test_cli import load_benchmark_module

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cstar_systems"

def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(modules) -> list[tuple[str, str]]:
    """(module, name) of every top-level function and class."""
    return [(name, node.name) for name, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _uses(modules) -> set[str]:
    used = set()
    for name, tree in modules.items():
        if name == "__init__":
            continue
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    used.update(alias.name for alias in node.names)
    return used


def _methods(modules) -> list[tuple[str, str, ast.FunctionDef]]:
    """(module, class, definition) of every method and property but the special ones."""
    return [(name, cls.name, node) for name, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _attribute_uses(tree: ast.AST, skip: ast.AST = None) -> set[str]:
    """The attribute names read in ``tree``, outside the subtree ``skip``."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_definition_is_reached(monkeypatch):
    tracer = load_benchmark_module(monkeypatch, "tracer")
    traced = {(module, fn) for module, names in tracer.TARGETS.items() for fn in names}
    modules = _modules()
    used = _uses(modules)
    unreached = [f"{module}.{fn}" for module, fn in _definitions(modules)
                 if fn not in used and (module, fn) not in traced]
    assert sorted(unreached) == []


def test_every_method_is_reached(monkeypatch):
    tracer = load_benchmark_module(monkeypatch, "tracer")
    traced = {(module, cls, meth) for module, names in tracer.METHODS.items()
              for cls, meth in names}
    modules = {name: tree for name, tree in _modules().items() if name != "__init__"}
    unreached = [f"{module}.{cls}.{node.name}" for module, cls, node in _methods(modules)
                 if (module, cls, node.name) not in traced
                 and not any(node.name in _attribute_uses(tree, skip=node)
                             for tree in modules.values())]
    assert sorted(unreached) == []


def test_package_root_exports_nothing():
    tree = _modules()["__init__"]
    assert len(tree.body) == 1 and isinstance(tree.body[0].value, ast.Constant)


def test_no_module_imports_a_private_name():
    private = [f"{name}: {node.module}.{alias.name}" for name, tree in _modules().items()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_the_cli_names_a_system_kind():
    # a suite decides from the system's data, never from its kind's name;
    # "commutative" also names a suite, so the keys of SUITE_RUNNERS are exempt
    modules = _modules()
    exempt = {id(key) for node in modules["suites"].body if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "SUITE_RUNNERS"
              for key in node.value.keys}
    named = [f"{name}: {node.value}" for name, tree in modules.items() if name != "cli"
             for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and node.value in SYSTEM_KINDS and id(node) not in exempt]
    assert exempt and named == []


def test_a_tensorial_system_holds_only_its_data():
    names = [f.name for f in dataclasses.fields(TensorialSystem)]
    assert names == ["grid", "algebras", "deltas", "dim_cap", "_cache"]
