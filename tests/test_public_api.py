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

The same holds for data: a public attribute that a public top-level
class stores on ``self`` needs a reader, an attribute load ``x.name``
somewhere in the package (a store such as ``self.name = ...`` is not a
reader).  The attributes kept without one are listed in
``ATTRIBUTES_ALLOWED``, each with its reason.
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


ATTRIBUTES_ALLOWED = {
    # the result that ``stratum_counts`` returns: its rows and grand total
    # are what the function computes for a caller, and the acceptance
    # tests read both
    "spin.StratumCount.rows",
    "spin.StratumCount.grand_total",
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


def _stored_attributes(module, tree):
    """``(qualified name, name)`` of each public attribute that a public
    top-level class of ``tree`` stores on ``self``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self" and _public(sub.attr)):
                    yield f"{module}.{node.name}.{sub.attr}", sub.attr


def _unread(sources):
    """The qualified names of the public stored attributes in
    ``sources``, a map from module name to source text, that nothing
    there loads as an attribute."""
    stored = set()
    loaded = set()
    for module, text in sources.items():
        tree = ast.parse(text, filename=module)
        stored |= set(_stored_attributes(module, tree))
        loaded |= {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)}
    return {qualified for qualified, name in stored if name not in loaded}


def test_unread_stored_attributes_match_allowlist():
    sources = {path.stem: path.read_text() for path in
               sorted(Path(spinmod.__file__).parent.glob("*.py"))}
    assert _unread(sources) == ATTRIBUTES_ALLOWED


def test_stored_attribute_needs_a_load():
    source = (
        "class Box:\n"
        "    def __init__(self, size, weight, tag):\n"
        "        self.size = size\n"
        "        self.weight, self.tag = weight, tag\n"
        "        self._hidden = 0\n"
        "class _Private:\n"
        "    def __init__(self):\n"
        "        self.unread = 1\n"
        "def main(box):\n"
        "    box.tag = 'new'\n"
        "    return box.weight\n")
    assert _unread({"shapes": source}) == {"shapes.Box.size",
                                           "shapes.Box.tag"}
