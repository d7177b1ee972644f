"""Correctness gate for benchmark outputs.

Every call the benchmark makes is checked here; a call that fails a check
counts as a failed operation.  Each check returns a list of problems, and
an empty list means the output passed.

``verify`` reports must exit 0 and contain every field of the stored
reference report with an equal value (fields the program adds later are
allowed).  The node and cover counts of the three posets are pinned again
below, independently of the reference file.

``trop`` answers must carry the tropicalization, forgetful image and
stable model that follow from the descriptor alone, a commuting diagram,
a generic fiber with one edge per infinite valuation, and a generic fiber
and order witness whose digest matches the reference stored for the
descriptor's spin class and set of finite edges.
"""

import gzip
import hashlib
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
VERIFY_REFERENCE = DATA / "verify_reference.json"
TROP_REFERENCE = DATA / "trop_reference.json.gz"
DIGEST_CHARS = 8

# (nodes, covers) of the graph, cyclic and spin posets
POSET_COUNTS = {
    "verify-g3n0": {"poset-graphs": (42, 92), "poset-cyclic": (142, 397),
                    "poset-spin": (408, 1217)},
    "verify-g2n2": {"poset-graphs": (75, 193), "poset-cyclic": (195, 560),
                    "poset-spin": (449, 1297)},
    "verify-g3n1-posets": {"poset-graphs": (181, 595),
                           "poset-cyclic": (720, 2753),
                           "poset-spin": (2237, 8771)},
}

# report fields that differ between runs of the same input
VOLATILE = ("timings",)


def program_output(stdout):
    """The report with its run-dependent fields removed, as canonical
    JSON; two runs of one input must give the same bytes."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(report, dict):
        for key in VOLATILE:
            report.pop(key, None)
    return json.dumps(report, sort_keys=True)


def _missing(reference, actual, path="report"):
    """Fields of ``reference`` absent from ``actual`` or unequal there."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, want in reference.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out += _missing(want, actual[key], f"{path}.{key}")
        return out
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{path}: expected a list of {len(reference)}"]
        out = []
        for i, (want, got) in enumerate(zip(reference, actual)):
            out += _missing(want, got, f"{path}[{i}]")
        return out
    return [] if reference == actual else [
        f"{path}: expected {reference!r}, got {actual!r}"]


def _with_seed(reference, seed):
    """The reference with every ``seed`` field set to ``seed``."""
    if isinstance(reference, dict):
        return {k: seed if k == "seed" else _with_seed(v, seed)
                for k, v in reference.items()}
    if isinstance(reference, list):
        return [_with_seed(v, seed) for v in reference]
    return reference


def load_verify_reference():
    with open(VERIFY_REFERENCE) as fh:
        return json.load(fh)


def check_verify(workload, seed, rc, stdout, reference):
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    problems = _missing(_with_seed(reference[workload], seed), report)
    records = {c.get("name"): c for c in report.get("checks", ())
               if isinstance(c, dict)}
    for name, (nodes, covers) in POSET_COUNTS[workload].items():
        rec = records.get(name, {})
        got = (rec.get("nodes"), rec.get("covers"))
        if got != (nodes, covers):
            problems.append(f"{name}: nodes/covers {got}, expected "
                            f"{(nodes, covers)}")
    return problems


# -- trop ---------------------------------------------------------------

def length_json(x):
    return "inf" if x is None else {"num": x.numerator, "den": x.denominator}


def descriptor(cls, val):
    """Family descriptor JSON for a spin class; ``None`` in ``val`` is an
    infinite valuation."""
    return {"graph": cls["graph"], "spin": cls["spin"],
            "val": [length_json(x) for x in val]}


def finite_mask(val):
    return sum(1 << i for i, x in enumerate(val) if x is not None)


def fiber_digest(answer):
    """Digest of the parts of a trop answer that the descriptor does not
    determine: the generic fiber and the order witness."""
    part = {"generic_fiber": answer.get("generic_fiber"),
            "order_witness": answer.get("order_witness")}
    text = json.dumps(part, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def load_trop_reference():
    with gzip.open(TROP_REFERENCE, "rt") as fh:
        return json.load(fh)


def reference_digest(reference, class_index, mask):
    digests = reference["fiber_digests"][class_index]
    return digests[mask * DIGEST_CHARS:(mask + 1) * DIGEST_CHARS]


def check_trop_derived(cls, val, answer):
    """Checks that follow from the descriptor alone."""
    p_mask = int(cls["spin"]["P"], 16)
    doubled = [x if x is None or p_mask >> i & 1 else 2 * x
               for i, x in enumerate(val)]
    image = {"graph": cls["graph"], "lengths": [length_json(x)
                                                for x in doubled]}
    expected = {
        "command": "trop",
        "tropicalization": {"graph": cls["graph"], "spin": cls["spin"],
                            "lengths": [length_json(x) for x in val]},
        "forgetful_image": image,
        "stable_model": image,
        "diagram_commutes": True,
    }
    problems = _missing(expected, answer, "answer")
    fiber = answer.get("generic_fiber") or {}
    edges = len(fiber.get("graph", {}).get("edges", ()))
    n_inf = sum(1 for x in val if x is None)
    if edges != n_inf:
        problems.append(f"generic fiber has {edges} edges, expected {n_inf}")
    return problems


def check_trop(cls_index, val, rc, stdout, reference):
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        answer = json.loads(stdout)
    except ValueError:
        return ["answer is not JSON"]
    problems = check_trop_derived(reference["classes"][cls_index], val,
                                  answer)
    want = reference_digest(reference, cls_index, finite_mask(val))
    got = fiber_digest(answer)
    if got != want:
        problems.append(f"fiber digest {got}, expected {want}")
    return problems
