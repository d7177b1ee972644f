"""Ratchet on calls of the validating ``SpinStructure`` constructor in
the package.

A spin structure the package derives comes from its fibre or from a
fold onto one, through the unchecked ``SpinStructure.over``; the
validating constructor is for structures that enter from outside, and
``SpinStructure.from_json_dict`` reaches it through ``cls(...)``.  A
call of ``SpinStructure(...)`` by name in any module fails this test.
"""

import ast
from pathlib import Path

import spinmod


def _constructor_calls(module, tree):
    """``(module, line)`` of each call of ``SpinStructure`` by name."""
    return [(module, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SpinStructure"]


def test_no_module_calls_the_validating_constructor():
    found = []
    for path in sorted(Path(spinmod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += _constructor_calls(path.stem, tree)
    assert found == []


def test_ratchet_flags_a_call_by_name():
    tree = ast.parse("def f(g, p):\n    return SpinStructure(g, p, (1,))\n"
                     "def g(p, dec):\n"
                     "    return SpinStructure.over(p, dec, (0,))\n"
                     "class S:\n"
                     "    @classmethod\n"
                     "    def h(cls, g, p):\n"
                     "        return cls(g, p, (0,))\n"
                     "x = f'SpinStructure(P={1})'\n"
                     "y = [SpinStructure(a, b, c) for a, b, c in ()]\n")
    assert _constructor_calls("m", tree) == [("m", 2), ("m", 10)]
