"""Golden digests of the posets, the cone complex and ``trop`` answers.

``tests/data/golden_digests.json`` holds, at (2,2), (3,0) and (3,1), the
sha256 of the graph, cyclic and spin posets' ``to_json_dict()`` and
``to_dot()``, and of the spin poset's ``cells_to_csv``.  A drifted key,
representative, cover or stabilizer order fails here.  Under ``trop`` it
holds the sha256 of the standard output of ``spinmod trop``, with the
``timings`` block cut out, over one seeded family descriptor per spin
class of (2,2), in node order.  Under ``refine`` it holds one sha256
over every refinement, with both signs, of the eligible classes at
(2,2), (3,0) and (3,1).  The digests are fixed outputs:
regenerate them (``PYTHONPATH=src python tests/test_golden.py``) only for
a change that is meant to alter these outputs.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
from fractions import Fraction

import pytest

from spinmod.cli import main
from spinmod.graphs import classify
from spinmod.posets import (build_cyclic_poset, build_graph_poset,
                            build_spin_poset, enumerate_stable_graphs)
from spinmod.spin import refine_nonbasic
from spinmod.tropical import (INF, FamilyDescriptor, build_cone_complex,
                              cells_to_csv)

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
    build_cone_complex(built["spin"])
    found["cells_csv"] = _sha256(cells_to_csv(built["spin"]))
    return found


TROP_CASE = (2, 2)
TROP_SEED = 0
# the one part of a trop answer that changes from run to run
TIMINGS = re.compile(r',\n  "timings": \{\n    "seconds": [0-9.e-]+\n  \}')


def trop_digest(workdir):
    """sha256 over the ``trop`` answers for one descriptor per spin class
    of ``TROP_CASE``, each answer's exit code and its standard output
    without ``timings``.  Valuations are drawn as
    :func:`spinmod.verify.fuzz_families` draws them: infinite with
    probability 0.3, otherwise p/q with p in 1..9 and q in 1..4.  The
    descriptor goes to ``q.json`` in ``workdir``, which is the working
    directory during the calls, so the answers echo no absolute path."""
    rng = random.Random(TROP_SEED)
    poset = build_spin_poset(*TROP_CASE)
    h = hashlib.sha256()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for nd in poset.nodes:
            val = [INF if rng.random() < 0.3
                   else Fraction(rng.randint(1, 9), rng.randint(1, 4))
                   for _ in range(nd.rep.graph.n_edges)]
            pathlib.Path("q.json").write_text(json.dumps(
                FamilyDescriptor(nd.rep, val).to_json_dict()))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(["trop", "q.json"])
            text, cut = TIMINGS.subn("", out.getvalue())
            if cut != 1:
                raise ValueError(f"no timings block in {out.getvalue()!r}")
            h.update(f"{rc}\n{text}".encode())
    finally:
        os.chdir(cwd)
    return {"calls": len(poset.nodes), "sha256": h.hexdigest()}


def refine_digest():
    """sha256 over ``refine_nonbasic(graph, sign)`` for every eligible
    class of ``CASES``, in class order, with sign 0 then 1: the split
    graph with its half-edges, the lift's data, the witness's JSON and
    its target with its half-edges."""
    h = hashlib.sha256()
    calls = 0
    for g, n in CASES:
        for graph in enumerate_stable_graphs(g, n):
            cls = classify(graph)
            if not (cls.eulerian and not cls.basic and graph.genus >= 2
                    and graph.n_edges > 0):
                continue
            for sign in (0, 1):
                sg, witness = refine_nonbasic(graph, sign)
                h.update(json.dumps([
                    sg.graph.to_json_dict(half_edges=True),
                    [sg.spin.P.mask, list(sg.spin.signs)],
                    witness.to_json_dict(),
                    witness.target.to_json_dict(half_edges=True)],
                    sort_keys=True).encode())
                calls += 1
    return {"calls": calls, "sha256": h.hexdigest()}


def test_refinements_match_golden_digest():
    golden = json.loads(FIXTURE.read_text())
    assert refine_digest() == golden["refine"]


def test_trop_answers_match_golden_digest(tmp_path):
    golden = json.loads(FIXTURE.read_text())
    assert trop_digest(tmp_path) == golden["trop"]


@pytest.mark.parametrize("g,n", CASES)
def test_outputs_match_golden_digests(g, n):
    golden = json.loads(FIXTURE.read_text())
    assert digests(g, n) == golden[f"{g},{n}"]


if __name__ == "__main__":
    import tempfile
    FIXTURE.parent.mkdir(exist_ok=True)
    found = {f"{g},{n}": digests(g, n) for g, n in CASES}
    with tempfile.TemporaryDirectory() as workdir:
        found["trop"] = trop_digest(workdir)
    found["refine"] = refine_digest()
    FIXTURE.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
