"""Ratchet on bare ``assert`` statements in the package.

``python -O`` strips an ``assert``, and when one fires it escapes the CLI
as a traceback instead of a verification failure.  Each identity still
checked that way is listed here by module and enclosing function; a new
one fails this test, and converting one to a ``VerificationError`` means
removing it from the list.
"""

import ast
from collections import Counter
from pathlib import Path

import spinmod

ALLOWED = Counter([
    ("cycles", "cycle_basis"),
    ("morphisms", "push_cycle"),
    ("spin", "theta_divisors"),
])


def _asserts(module, tree):
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
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
