"""Ratchet on public helpers that nothing in the package refers to.

A public top-level function or class, or a public method or property of
a top-level class, should have a caller in the package or be a named
test oracle kept in ``tests/``.  This check matches names, not call
sites: a definition counts as referenced when its bare name appears as
a variable or an attribute anywhere in the package, whatever that
occurrence resolves to.  Import statements do not count.  The helpers
still without a reference are listed here; a new one fails this test,
and giving one a caller means removing it from the list.
"""

import ast
from pathlib import Path

import spinmod

ALLOWED = {
    # the public action of one automorphism on one spin structure; the
    # package folds sign data through SpinCarry instead and the tests use
    # oracles.act_spin.  It stays while perfbench's tracer wraps it by name
    "morphisms.Aut.act_spin",
    "graphs.blow_up",
    "tropical.pi_trop_fiber",
}


def _public(name):
    return not name.startswith("_")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(module, tree):
    for node in tree.body:
        if not (isinstance(node, FUNCTIONS + (ast.ClassDef,))
                and _public(node.name)):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and _public(member.name):
                    yield f"{module}.{node.name}.{member.name}", member.name


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_unreferenced_public_helpers_match_allowlist():
    definitions = []
    referenced = set()
    for path in sorted(Path(spinmod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions.extend(_definitions(path.stem, tree))
        referenced |= _referenced_names(tree)
    unreferenced = {qualified for qualified, name in definitions
                    if name not in referenced}
    assert unreferenced == ALLOWED
