"""Batch command-line surface: enumeration, verification and
tropicalization queries.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exceeded.  All outputs are deterministic for fixed inputs and flags; the
fuzz suites log their seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from .errors import BudgetError, InputError, SpinmodError, VerificationError
from .graphs import is_stable
from .posets import (build_cyclic_poset, build_graph_poset, build_spin_poset,
                     poset_stats)
from .tropical import (FamilyDescriptor, build_cone_complex, cells_to_csv,
                       diagram_check, family_generic_fiber)
from .verify import peak_rss_kib, run_suites

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@functools.cache
def _parser():
    """The argument parser, built on the first call and shared by every
    later :func:`main` call in the process (it keeps no state between
    parses)."""
    parser = argparse.ArgumentParser(
        prog="spinmod",
        description="Enumerate and verify spin structures on stable graphs "
                    "and tropical spin curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--g", type=int, required=True, help="genus")
    common.add_argument("--n", type=int, required=True, help="number of legs")
    common.add_argument("--out", type=Path, default=None,
                        help="directory for output files")
    common.add_argument("--budget-edges", type=int, default=None,
                        help="override the desk-scale edge budget")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored: "
                             "every check runs in one process")

    enum = sub.add_parser("enumerate", parents=[common],
                          help="enumerate iso classes and their poset")
    enum.add_argument("--kind", choices=("graphs", "cyclic", "spin"),
                      default="spin")
    enum.add_argument("--format", choices=("json", "dot", "csv"),
                      default="json")

    verify = sub.add_parser("verify", parents=[common],
                            help="run verification suites")
    verify.add_argument("--suite",
                        choices=("counts", "posets", "functoriality",
                                 "refine", "all"),
                        default="all")
    verify.add_argument("--fuzz", type=int, default=1000,
                        help="number of fuzzed contraction chains")
    verify.add_argument("--seed", type=int, default=0,
                        help="fuzz seed (logged in the report)")

    trop = sub.add_parser("trop",
                          help="tropicalize a family descriptor JSON file")
    trop.add_argument("file", type=Path)
    trop.add_argument("--out", type=Path, default=None)
    return parser


_quote = json.encoder.encode_basestring_ascii


def _to_json(obj):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, written
    directly rather than through the pure-Python encoder that an indent
    selects.  Dicts come out in sorted key order and lists and tuples in
    order; exact ``str`` and ``int`` leaves are spelled here, and every
    other leaf or key by ``json.dumps``, which also raises ``TypeError``
    for anything that is not JSON."""
    parts = []
    _emit(obj, "\n", parts.append)
    return "".join(parts)


def _json_key(key):
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{type(key).__name__}")


def _emit(obj, newline, out):
    """Append the text of ``obj``, whose lines start with ``newline``,
    through ``out``.  Exact ``str`` and ``int`` leaves and ``str`` keys
    are spelled here; containers write their entries by recursion."""
    kind = type(obj)
    if kind is str:
        out(_quote(obj))
    elif kind is int:
        out(int.__repr__(obj))
    elif kind is dict or isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out(sep)
            out(_quote(key) if type(key) is str else _json_key(key))
            out(": ")
            _emit(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out(sep)
            _emit(value, inner, out)
            sep = "," + inner
        out(newline + "]")
    else:
        out(json.dumps(obj))


def _write_outputs(out_dir, name, render):
    """Write ``render()`` to ``out_dir / name``; without an output
    directory the text is never built.  A directory or file that cannot
    be made, such as an ``--out`` that is a regular file or lies under
    one, is an input error naming the path."""
    if out_dir is None:
        return []
    path = out_dir / name
    text = render()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    return [str(path)]


def _milliseconds_down(seconds):
    """Seconds cut down to whole milliseconds, so that parts never sum
    past the rounded total they lie inside."""
    return math.floor(seconds * 1000) / 1000


def _report(command, inputs, body, outputs):
    return {"command": command, "inputs": inputs, **body,
            "outputs": outputs}


def cmd_enumerate(args):
    if 2 * args.g - 2 + args.n <= 0:
        raise InputError(f"no stable graphs at genus {args.g} with "
                         f"{args.n} legs (need 2g - 2 + n > 0)")
    builder = {"graphs": build_graph_poset, "cyclic": build_cyclic_poset,
               "spin": build_spin_poset}[args.kind]
    poset = builder(args.g, args.n, budget_edges=args.budget_edges)
    stats = poset_stats(poset)

    if args.format == "json":
        def render():
            return _to_json(poset.to_json_dict())
    elif args.format == "dot":
        render = poset.to_dot
    elif args.kind == "spin":
        # the cone complex is checked for purity even when unwritten
        build_cone_complex(poset)
        render = functools.partial(cells_to_csv, poset)
    else:
        def render():
            lines = ["key,rank"] + [f"{nd.key},{nd.rank}"
                                    for nd in poset.nodes]
            return "\n".join(lines) + "\n"
    outputs = _write_outputs(
        args.out, f"{args.kind}_{args.g}_{args.n}.{args.format}", render)
    body = {"counts": {"nodes": len(poset.nodes),
                       "covers": len(poset.lowers)},
            "rank_histogram": stats["rank_histogram"],
            "components": stats["components"]}
    if args.kind == "spin":
        body["parity_split"] = stats["parity_split"]
    return _report("enumerate",
                   {"g": args.g, "n": args.n, "kind": args.kind,
                    "format": args.format},
                   body, outputs)


def cmd_verify(args):
    if 2 * args.g - 2 + args.n <= 0:
        raise InputError(f"no stable graphs at genus {args.g} with "
                         f"{args.n} legs (need 2g - 2 + n > 0)")
    if args.fuzz < 0:
        raise InputError(f"--fuzz {args.fuzz} is negative")
    seconds = {}
    phases = {}
    checks = run_suites(args.g, args.n, args.suite,
                        budget_edges=args.budget_edges, fuzz=args.fuzz,
                        seed=args.seed, seconds=seconds, phases=phases)
    body = {"suite": args.suite,
            "checks": checks,
            "passed": sum(1 for c in checks if c["status"] == "pass"),
            "failed": 0}
    outputs = _write_outputs(
        args.out, f"verify_{args.g}_{args.n}_{args.suite}.json",
        functools.partial(_to_json, body))
    report = _report("verify", {"g": args.g, "n": args.n,
                                "suite": args.suite, "fuzz": args.fuzz,
                                "seed": args.seed},
                     body, outputs)
    report["timings"] = {
        "suites": {name: _milliseconds_down(t)
                   for name, t in seconds.items()},
        "phases": {name: _milliseconds_down(t)
                   for name, (t, _) in phases.items()},
        "memory": {"peak_rss_kib": peak_rss_kib(),
                   "phases": {name: kib for name, (_, kib) in phases.items()}},
    }
    return report


def cmd_trop(args):
    try:
        text = args.file.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.file} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON in {args.file} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the interpreter's digit limit, or arrays and
        # objects nested past the recursion limit
        raise InputError(f"unreadable JSON in {args.file}: {exc}") from exc
    family = FamilyDescriptor.from_json_dict(data)
    if not is_stable(family.graph):
        raise InputError("family descriptor graph is not stable")

    diagram = diagram_check(family)
    fiber = family_generic_fiber(family)
    if not diagram.commutes:
        raise VerificationError("tropicalization diagram does not commute")

    # the three curves share the family's graph: serialize it once
    graph = family.graph.to_json_dict()
    body = {
        "tropicalization": diagram.psi.to_json_dict(graph),
        "forgetful_image": diagram.image.to_json_dict(graph),
        "stable_model": diagram.stable_model.to_json_dict(graph),
        "diagram_commutes": diagram.commutes,
        "generic_fiber": {
            "graph": fiber["generic"].graph.to_json_dict(),
            "spin": fiber["generic"].spin.to_json_dict(),
        },
        "order_witness": fiber["witness"].to_json_dict(),
    }
    outputs = _write_outputs(
        args.out, "trop_result.json",
        functools.partial(_to_json, body))
    return _report("trop", {"file": str(args.file)}, body, outputs)


def main(argv=None):
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    handler = {"enumerate": cmd_enumerate, "verify": cmd_verify,
               "trop": cmd_trop}[args.command]
    try:
        report = handler(args)
    except SpinmodError as exc:
        if isinstance(exc, VerificationError):
            status, code = "fail", EXIT_VERIFICATION
        elif isinstance(exc, BudgetError):
            status, code = "budget-error", EXIT_BUDGET
        else:
            status, code = "input-error", EXIT_INPUT
        error = {"command": args.command, "status": status,
                 "error": str(exc)}
        if code == EXIT_VERIFICATION:
            error["witnesses"] = list(exc.witnesses)
        print(json.dumps(error, indent=2))
        return code
    report.setdefault("timings", {})["seconds"] = round(
        time.perf_counter() - started, 3)
    print(_to_json(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
