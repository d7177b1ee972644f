"""Golden digests of the posets and the cone complex.

``tests/data/golden_digests.json`` holds, at (2,2), (3,0) and (3,1), the
sha256 of the graph, cyclic and spin posets' ``to_json_dict()``
and of the spin poset's ``cells_to_csv``.  A drifted key, representative,
cover or stabilizer order fails here.  The digests are fixed outputs:
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
    """The four digests at ``(g, n)``, by name."""
    classes = enumerate_stable_graphs(g, n)
    spin_poset = build_spin_poset(g, n, _classes=classes)
    cells, _ = build_cone_complex(spin_poset)
    return {
        "graphs": _poset_digest(build_graph_poset(g, n, _classes=classes)),
        "cyclic": _poset_digest(build_cyclic_poset(g, n, _classes=classes)),
        "spin": _poset_digest(spin_poset),
        "cells_csv": _sha256(cells_to_csv(cells)),
    }


@pytest.mark.parametrize("g,n", CASES)
def test_outputs_match_golden_digests(g, n):
    golden = json.loads(FIXTURE.read_text())
    assert digests(g, n) == golden[f"{g},{n}"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {f"{g},{n}": digests(g, n) for g, n in CASES},
        indent=2, sort_keys=True) + "\n")
