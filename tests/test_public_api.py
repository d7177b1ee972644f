"""Ratchet on public helpers that nothing in the package refers to.

A public top-level function or class, or a public method or property of
a top-level class, should have a caller in the package or be a named
test oracle kept in ``tests/``.  This check matches names, not call
sites.  A top-level function or class counts as referenced when its
bare name appears as a variable, or as ``module.name`` with its own
module's name, anywhere in the package; an attribute of the same name on
some other object (``graph.genus`` for ``graphs.genus``) does not count.
A method or property counts as referenced only when its name appears as
an attribute (``x.name``), whatever object that occurrence is on; a
variable of the same name (a loop variable ``value`` for a method
``value``) does not count.  Import statements do not count.  The
helpers still without a reference are listed here; a new one fails this
test, and giving one a caller means removing it from the list.
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
    """``(qualified name, name, module)`` of each public definition; the
    module is ``None`` for a method, which any attribute may refer to."""
    for node in tree.body:
        if not (isinstance(node, FUNCTIONS + (ast.ClassDef,))
                and _public(node.name)):
            continue
        yield f"{module}.{node.name}", node.name, module
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and _public(member.name):
                    yield (f"{module}.{node.name}.{member.name}",
                           member.name, None)


def _references(tree):
    """The bare names, the attribute names, and the ``(module, name)``
    pairs of ``module.name`` attributes that ``tree`` uses."""
    names, attributes, qualified = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name):
                qualified.add((node.value.id, node.attr))
    return names, attributes, qualified


def _unreferenced(sources):
    """The qualified names of the public definitions in ``sources``, a
    map from module name to source text, that nothing there refers to."""
    definitions = []
    names, attributes, qualified = set(), set(), set()
    for module, text in sources.items():
        tree = ast.parse(text, filename=module)
        definitions.extend(_definitions(module, tree))
        for seen, found in zip((names, attributes, qualified),
                               _references(tree)):
            seen |= found
    return {
        qualified_name for qualified_name, name, module in definitions
        if ((name not in names and (module, name) not in qualified)
            if module else name not in attributes)}


def test_unreferenced_public_helpers_match_allowlist():
    sources = {path.stem: path.read_text() for path in
               sorted(Path(spinmod.__file__).parent.glob("*.py"))}
    assert _unreferenced(sources) == ALLOWED


def test_method_counts_by_attribute_only():
    source = (
        "class Box:\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def weight(self):\n"
        "        return 2\n"
        "def main():\n"
        "    size = 3\n"
        "    return size + Box().weight()\n"
        "main()\n")
    assert _unreferenced({"shapes": source}) == {"shapes.Box.size"}
