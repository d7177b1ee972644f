"""Regenerate the benchmark's reference data from the program as it is.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/data/verify_reference.json`` (the ``verify``
report of each ``verify-*`` workload at seed 0, timings removed) and
``perfbench/data/trop_reference.json.gz`` (the spin classes of the (3,0)
and (2,2) spin posets that ``trop-queries`` draws from, and for each
class and each set of finite edges the digest of the generic fiber and
order witness that ``trop`` returns).  The references pin today's outputs,
so regenerate them only when an output is meant to change.
"""

import contextlib
import gzip
import io
import json
import shutil
import sys
from fractions import Fraction

from spinmod.cli import main
from spinmod.posets import build_spin_poset

import gate
from run import OUT, WORKLOADS, verify_argv

SPACES = ((3, 0), (2, 2))


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def verify_reference():
    out = {}
    for name, spec in WORKLOADS.items():
        if spec["kind"] == "verify":
            report = _run(verify_argv(spec, seed=0))
            for key in gate.VOLATILE:
                report.pop(key)
            out[name] = report
            print(name, "done", file=sys.stderr)
    return out


def trop_reference(workdir):
    classes = []
    for g, n in SPACES:
        for nd in build_spin_poset(g, n).nodes:
            classes.append({"g": g, "n": n,
                            "graph": nd.rep.graph.to_json_dict(),
                            "spin": nd.rep.spin.to_json_dict()})
    path = workdir / "descriptor.json"
    digests = []
    for cls in classes:
        n_edges = len(cls["graph"]["edges"])
        parts = []
        for mask in range(1 << n_edges):
            val = [Fraction(1) if mask >> i & 1 else None
                   for i in range(n_edges)]
            path.write_text(json.dumps(gate.descriptor(cls, val)))
            answer = _run(["trop", str(path)])
            problems = gate.check_trop_derived(cls, val, answer)
            if problems:
                raise SystemExit(f"reference answer fails: {problems}")
            parts.append(gate.fiber_digest(answer))
        digests.append("".join(parts))
    print(len(classes), "classes", sum(len(d) for d in digests)
          // gate.DIGEST_CHARS, "digests", file=sys.stderr)
    return {"spaces": SPACES, "digest_chars": gate.DIGEST_CHARS,
            "classes": classes, "fiber_digests": digests}


if __name__ == "__main__":
    gate.DATA.mkdir(exist_ok=True)
    gate.VERIFY_REFERENCE.write_text(
        json.dumps(verify_reference(), indent=1, sort_keys=True) + "\n")
    work = OUT / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        data = trop_reference(work)
    finally:
        shutil.rmtree(work)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    with gzip.GzipFile(gate.TROP_REFERENCE, "wb", mtime=0) as fh:
        fh.write(text.encode())
