"""Ratchet on the memos the package keeps in an object's ``__dict__``.

A memo stored as ``obj.__dict__["_key"]`` lives as long as the object
and shows in no signature, so a per-graph table can hide there for the
whole run.  Every string key the package writes to or reads from an
``<expr>.__dict__`` is listed here: as a subscript, or as the first
argument of ``get``, ``setdefault`` or ``pop``.  A new key fails this
test; removing a memo means removing its key from the list.

Each key also has one owner: one module of the package reads and writes
it, so the memo's layout is known in one place.  ``CROSS_MODULE`` lists
the reads made from another module, as ``(module, key)``; it only
shrinks, and an entry no module makes any more fails too.
"""

import ast
from pathlib import Path

import spinmod

ALLOWED = {"_aut_group", "_canonical_form", "_cycle_space",
           "_edge_contractions", "_pbar_decompositions", "_stats"}

# the poset walk counter sums the decompositions memoised on each class,
# and the table-entry count sums the contraction tables
CROSS_MODULE = {("posets", "_pbar_decompositions"),
                ("verify", "_edge_contractions")}


def _is_instance_dict(node):
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _string(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _memo_keys(tree):
    found = set()
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Subscript) and _is_instance_dict(node.value):
            key = _string(node.slice)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "setdefault", "pop")
              and _is_instance_dict(node.func.value) and node.args):
            key = _string(node.args[0])
        if key is not None:
            found.add(key)
    return found


def _package_trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(Path(spinmod.__file__).parent.glob("*.py"))}


def _uses(trees):
    """Each memo key, with the modules, by name, whose trees use it."""
    uses = {}
    for module, tree in trees.items():
        for key in _memo_keys(tree):
            uses.setdefault(key, set()).add(module)
    return uses


def _shared_keys(uses, cross):
    """The keys still used by more than one module once the allowed
    ``(module, key)`` uses in ``cross`` are set aside, each with its
    modules sorted, and the allowed uses that no module makes."""
    shared = {}
    for key, modules in uses.items():
        owners = modules - {m for m, k in cross if k == key}
        if len(owners) > 1:
            shared[key] = sorted(owners)
    stale = {(m, k) for m, k in cross if m not in uses.get(k, ())}
    return shared, stale


def test_memo_keys_match_allowlist():
    assert set(_uses(_package_trees())) == ALLOWED


def test_each_memo_key_has_one_owner():
    assert _shared_keys(_uses(_package_trees()), CROSS_MODULE) == ({}, set())


def test_ratchet_flags_an_added_memo_key():
    tree = ast.parse(
        "def f(graph, poset):\n"
        "    graph.__dict__['_a'] = 1\n"
        "    graph.__dict__.get('_b')\n"
        "    graph.__dict__.setdefault('_c', {})\n"
        "    poset.__dict__.pop('_d')\n"
        "    x = graph.__dict__['_e']\n"
        "    del graph.__dict__['_f']\n"
        "    graph.cache['_g'] = 1\n"
        "    graph.__dict__.items()\n"
        "    vars(graph).get('_h')\n")
    assert _memo_keys(tree) == {"_a", "_b", "_c", "_d", "_e", "_f"}


def test_owner_ratchet_flags_a_second_module():
    trees = {"a": ast.parse("g.__dict__['_x'] = 1\n"
                            "g.__dict__.get('_y')\n"),
             "b": ast.parse("def f(g):\n"
                            "    return g.__dict__.get('_x')\n")}
    uses = _uses(trees)
    assert uses == {"_x": {"a", "b"}, "_y": {"a"}}
    assert _shared_keys(uses, set()) == ({"_x": ["a", "b"]}, set())
    assert _shared_keys(uses, {("b", "_x")}) == ({}, set())
    assert _shared_keys(uses, {("b", "_x"), ("b", "_y")}) == (
        {}, {("b", "_y")})
