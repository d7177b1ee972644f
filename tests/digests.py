"""The output digests that ``test_golden.py`` and
``scripts/large_digests.py`` compare with committed values.

At an input ``(g, n)``: the sha256 of the graph, cyclic and spin posets'
``to_json_dict()`` and ``to_dot()`` and of the spin poset's
``cells_to_csv`` (:func:`digests`), and the sha256 of the standard output
of ``spinmod verify --suite all`` without its ``timings`` block
(:func:`report_digest`).  Standard library and ``spinmod`` only.
"""

import contextlib
import hashlib
import io
import json

from spinmod.cli import main
from spinmod.posets import (build_cyclic_poset, build_graph_poset,
                            build_spin_poset, enumerate_stable_graphs)
from spinmod.tropical import build_cone_complex, cells_to_csv


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _poset_digest(poset):
    return sha256(json.dumps(poset.to_json_dict(),
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
        found[f"{kind}_dot"] = sha256(poset.to_dot())
    build_cone_complex(built["spin"])
    found["cells_csv"] = sha256(cells_to_csv(built["spin"]))
    return found


def report_digest(g, n):
    """sha256 of the ``verify --g g --n n --suite all`` report, at the
    default seed and fuzz count, with its ``timings`` block removed and
    its keys sorted, paired with the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", "--g", str(g), "--n", str(n), "--suite", "all"])
    report = json.loads(out.getvalue())
    del report["timings"]
    return {"exit": rc, "sha256": sha256(json.dumps(
        report, sort_keys=True, separators=(",", ":")))}
