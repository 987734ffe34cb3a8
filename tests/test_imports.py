"""Every name a package module imports is read in that module, every name in
its ``__all__`` exists in it, and every module-level function is read
somewhere in the package, the demos or the benchmark (a few public reference
helpers that only the tests read excepted).

The only unread imports allowed are the names the traced benchmark wraps on a module
(``SPANS`` and ``COUNTED`` in ``perfbench/tracer.py``): the module binds them
so that the wrapper can replace them where their callers look them up.
``__init__.py`` re-exports, so it is not checked.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subdepth"
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def wrapped_pairs():
    """The (module, name) pairs in the tracer's literal SPANS and COUNTED tables."""
    pairs = set()
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets):
            for sites in ast.literal_eval(node.value).values():
                pairs.update(sites)
    return pairs


def imported_names(tree):
    """(line, bound name) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    wrapped = wrapped_pairs()
    unread = [(line, name) for line, name in imported_names(tree)
              if name not in read and (path.stem, name) not in wrapped]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_exists(path):
    module = importlib.import_module(f"subdepth.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# Public helpers that the package does not call itself but the tests use as
# references, each with the reason it is kept.
REFERENCE_HELPERS = {
    "induce_character_bruteforce": "the literal induction sum that induction is tested against",
    "alternating_power": "the n-th inclusion-matrix power, pinned on V4 < S4 at n = 0..3",
    "centralizer": "the literal centralizer behind the depth-one and class-size oracles",
    "zeta": "the root of unity the cyclotomic and table tests build values from",
}


def names_read(tree):
    """Every name read in the tree, as an ``ast.Name`` or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_module_level_function_is_read_somewhere():
    # reads inside a function's own body (a recursive call) do not count
    sources = [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py"]
    read = Counter(name for p in sources for name in names_read(ast.parse(p.read_text())))
    unread = [node.name for path in MODULES for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef)
              and read[node.name] == Counter(names_read(node))[node.name]]
    assert sorted(unread) == sorted(REFERENCE_HELPERS)
