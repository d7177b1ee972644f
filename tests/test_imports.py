"""Ratchet on the imports of the package: every name a module of
``src/spinmod`` imports is read in that module.

A deletion that removes the last reader of a name leaves its import
behind, where it still loads the module and reads as a dependency.  A
name counts as read when it occurs as a loaded name anywhere in the
module, a deferred import's name inside a function included; ``from
__future__`` imports are compiler directives and are exempt.
"""

import ast
from pathlib import Path

import spinmod


def _unused_imports(tree):
    """The names bound by imports in ``tree`` that no expression of it
    loads, sorted."""
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return sorted(imported - loaded)


def test_every_imported_name_is_read():
    unused = {}
    for path in sorted(Path(spinmod.__file__).parent.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[path.stem] = names
    assert unused == {}


def test_ratchet_flags_an_import_nothing_reads():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys as system\n"
                     "from .graphs import Graph, is_stable\n"
                     "def f():\n"
                     "    from .cycles import EdgeSet\n"
                     "    return os.sep, Graph, EdgeSet\n")
    assert _unused_imports(tree) == ["is_stable", "system"]
