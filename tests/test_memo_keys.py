"""Ratchet on the memos the package keeps in an object's ``__dict__``.

A memo stored as ``obj.__dict__["_key"]`` lives as long as the object
and shows in no signature, so a per-graph table can hide there for the
whole run.  Every string key the package writes to or reads from an
``<expr>.__dict__`` is listed here: as a subscript, or as the first
argument of ``get``, ``setdefault`` or ``pop``.  A new key fails this
test; removing a memo means removing its key from the list.
"""

import ast
from pathlib import Path

import spinmod

ALLOWED = {"_aut_group", "_best_leaves", "_canonical_form", "_cycle_space",
           "_edge_contractions", "_pbar_decompositions", "_stats"}


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


def test_memo_keys_match_allowlist():
    found = set()
    for path in sorted(Path(spinmod.__file__).parent.glob("*.py")):
        found |= _memo_keys(ast.parse(path.read_text(), filename=str(path)))
    assert found == ALLOWED


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
