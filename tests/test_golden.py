"""Golden digests of the posets and the cone complex.

``tests/data/golden_digests.json`` holds, at (2,2), (3,0) and (3,1), the
sha256 of the graph, cyclic and spin posets' ``to_json_dict()`` and
``to_dot()``, and of the spin poset's ``cells_to_csv``.  A drifted key,
representative, cover or stabilizer order fails here.  The digests are fixed outputs:
regenerate them (``PYTHONPATH=src python tests/test_golden.py``) only for
a change that is meant to alter these outputs.
"""

import hashlib
import json
import pathlib

import pytest

from spinmod.posets import (build_cyclic_poset, build_graph_poset,
                            build_spin_poset, enumerate_stable_graphs)
from spinmod.tropical import build_cone_complex, cells_to_csv

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_digests.json"
CASES = ((2, 2), (3, 0), (3, 1))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _poset_digest(poset):
    return _sha256(json.dumps(poset.to_json_dict(),
                              sort_keys=True, separators=(",", ":")))


def digests(g, n):
    """The seven digests at ``(g, n)``, by name."""
    classes = enumerate_stable_graphs(g, n)
    built = {kind: build(g, n, _classes=classes)
             for kind, build in (("graphs", build_graph_poset),
                                 ("cyclic", build_cyclic_poset),
                                 ("spin", build_spin_poset))}
    found = {}
    for kind, poset in built.items():
        found[kind] = _poset_digest(poset)
        found[f"{kind}_dot"] = _sha256(poset.to_dot())
    cells, _ = build_cone_complex(built["spin"])
    found["cells_csv"] = _sha256(cells_to_csv(cells))
    return found


@pytest.mark.parametrize("g,n", CASES)
def test_outputs_match_golden_digests(g, n):
    golden = json.loads(FIXTURE.read_text())
    assert digests(g, n) == golden[f"{g},{n}"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {f"{g},{n}": digests(g, n) for g, n in CASES},
        indent=2, sort_keys=True) + "\n")
