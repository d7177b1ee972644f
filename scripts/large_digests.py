"""Golden digests at the inputs too large for the test suite.

At each of (3,2), (0,7), (3,3) and (0,8) this computes the seven poset
digests and the ``verify --suite all`` report digest that
``tests/test_golden.py`` pins at smaller inputs (``tests/digests.py``),
and compares them with ``tests/data/large_digests.json``.  The four
take about four and a half minutes on a 2-core machine, nearly all of
it at (3,3) and (0,8), where the report and the posets are each built
once.

Run from the repository root::

    PYTHONPATH=src python3 scripts/large_digests.py [G,N ...]
    PYTHONPATH=src python3 scripts/large_digests.py --write

It prints one line per input, ``G,N  ok`` or ``G,N  DIFFERS: names``,
with the seconds it took, and exits 1 when any input differs.  Named
inputs restrict the run to them.  ``--write`` records the digests of
every input instead; run it only for a change meant to alter outputs.
"""

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from digests import digests, report_digest  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "large_digests.json"
INPUTS = ((3, 2), (0, 7), (3, 3), (0, 8))


def compute(g, n):
    return {**digests(g, n), "verify": report_digest(g, n)}


def main(argv):
    if argv == ["--write"]:
        FIXTURE.write_text(json.dumps(
            {f"{g},{n}": compute(g, n) for g, n in INPUTS},
            indent=2, sort_keys=True) + "\n")
        return 0
    golden = json.loads(FIXTURE.read_text())
    names = argv or [f"{g},{n}" for g, n in INPUTS]
    failed = False
    for name in names:
        started = time.perf_counter()
        found = compute(*map(int, name.split(",")))
        seconds = time.perf_counter() - started
        differs = sorted(k for k in golden[name]
                         if found.get(k) != golden[name][k])
        failed |= bool(differs)
        verdict = f"DIFFERS: {' '.join(differs)}" if differs else "ok"
        print(f"{name}  {verdict}  ({seconds:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
