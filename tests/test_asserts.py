"""Ratchet on bare ``assert`` statements and hand-raised
``AssertionError`` in the package.

``python -O`` strips an ``assert``, and when one fires, or when an
``AssertionError`` is raised by hand, it escapes the CLI as a traceback
instead of a verification failure.  Each identity still checked that
way is listed here by module and enclosing function; a new one fails
this test, and converting one to a ``VerificationError`` means removing
it from the list.
"""

import ast
from collections import Counter
from pathlib import Path

import spinmod

ALLOWED = Counter()


def _raises_assertion_error(node):
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _asserts(module, tree):
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert) or (
                    isinstance(child, ast.Raise)
                    and _raises_assertion_error(child)):
                found.append((module, ".".join(scope)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + [child.name])
            else:
                walk(child, scope)

    walk(tree, [])
    return found


def test_bare_asserts_match_allowlist():
    found = Counter()
    for path in sorted(Path(spinmod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(_asserts(path.stem, tree))
    assert found == ALLOWED


def test_ratchet_flags_hand_raised_assertion_error():
    tree = ast.parse("def f():\n    raise AssertionError('x')\n"
                     "def g():\n    raise AssertionError\n"
                     "def h():\n    assert False\n"
                     "def k():\n    raise ValueError('x')\n")
    assert _asserts("m", tree) == [("m", "f"), ("m", "g"), ("m", "h")]
