"""Every name a package module imports is read in that module.

The only exceptions are the names the traced benchmark wraps on a module
(``SPANS`` and ``COUNTED`` in ``perfbench/tracer.py``): the module binds them
so that the wrapper can replace them where their callers look them up.
``__init__.py`` re-exports, so it is not checked.
"""

import ast
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
