import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from spinmod import cli, graphs, morphisms, tropical
from spinmod.cli import main
from spinmod.cycles import EdgeSet
from spinmod.errors import VerificationError
from spinmod.spin import SpinGraph, SpinStructure
from spinmod.tropical import INF, FamilyDescriptor

from conftest import make_dumbbell, make_theta


def run_cli(*args, env=None):
    """Run `python -m spinmod.cli` with the caller's environment (which
    carries PYTHONPATH on a bare checkout), overlaid with `env`."""
    proc = subprocess.run([sys.executable, "-m", "spinmod.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, **(env or {})})
    return proc


def test_enumerate_spin_11(tmp_path):
    proc = run_cli("enumerate", "--g", "1", "--n", "1", "--kind", "spin",
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["counts"]["nodes"] == 5
    assert report["components"] == 2
    data = json.loads((tmp_path / "spin_1_1.json").read_text())
    assert len(data["nodes"]) == 5
    assert all("spin" in node for node in data["nodes"])


def test_enumerate_graphs_20():
    proc = run_cli("enumerate", "--g", "2", "--n", "0", "--kind", "graphs")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["counts"]["nodes"] == 7


def test_enumerate_cyclic_kind(tmp_path):
    proc = run_cli("enumerate", "--g", "2", "--n", "0", "--kind", "cyclic",
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    data = json.loads((tmp_path / "cyclic_2_0.json").read_text())
    assert all("P" in node for node in data["nodes"])


def test_enumerate_spin_03():
    proc = run_cli("enumerate", "--g", "0", "--n", "3", "--kind", "spin")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["counts"]["nodes"] == 1


def test_enumerate_dot_and_csv(tmp_path):
    proc = run_cli("enumerate", "--g", "1", "--n", "1", "--kind", "spin",
                   "--format", "dot", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert (tmp_path / "spin_1_1.dot").read_text().startswith("digraph")
    proc = run_cli("enumerate", "--g", "1", "--n", "1", "--kind", "spin",
                   "--format", "csv", "--out", str(tmp_path))
    assert proc.returncode == 0
    csv = (tmp_path / "spin_1_1.csv").read_text()
    assert csv.splitlines()[0] == "key,dim,parity,aut_edge_order"


def test_verify_counts_20():
    proc = run_cli("verify", "--g", "2", "--n", "0", "--suite", "counts")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    names = {c["name"] for c in report["checks"]}
    assert "stratum-degree" in names
    assert report["failed"] == 0


def test_verify_posets_11():
    proc = run_cli("verify", "--g", "1", "--n", "1", "--suite", "posets")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    poset_check = [c for c in report["checks"]
                   if c["name"] == "poset-spin"][0]
    assert poset_check["components"] == 2


def report_without_timings(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    del report["timings"]
    return json.dumps(report, indent=2, sort_keys=True)


def test_verify_with_jobs():
    # --jobs is accepted and ignored: every check runs in one process
    for g, n, suite in (("2", "0", "counts"), ("2", "1", "all")):
        args = ("verify", "--g", g, "--n", n, "--suite", suite)
        assert report_without_timings(run_cli(*args, "--jobs", "2")) == \
            report_without_timings(run_cli(*args, "--jobs", "1"))


def test_verify_report_same_under_python_O():
    # every identity is checked by a raise that -O cannot strip
    args = ["-m", "spinmod.cli", "verify", "--g", "2", "--n", "1",
            "--suite", "all"]
    procs = [subprocess.run([sys.executable, *flags, *args],
                            capture_output=True, text=True, env=os.environ)
             for flags in ([], ["-O"])]
    plain, optimised = map(report_without_timings, procs)
    assert plain == optimised


def test_verify_deterministic_output():
    a = run_cli("verify", "--g", "1", "--n", "1", "--suite", "functoriality",
                "--fuzz", "50")
    b = run_cli("verify", "--g", "1", "--n", "1", "--suite", "functoriality",
                "--fuzz", "50")
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    del ra["timings"], rb["timings"]
    assert ra == rb


def test_exit_codes(tmp_path):
    assert run_cli("verify", "--g", "0", "--n", "1").returncode == 2
    assert run_cli("enumerate", "--g", "5", "--n", "0").returncode == 3
    assert run_cli("trop", str(tmp_path / "missing.json")).returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("trop", str(bad)).returncode == 2


def test_budget_env_override(tmp_path):
    # (2,0) needs 3 edges: within the default budget, over the env budget.
    proc = run_cli("enumerate", "--g", "2", "--n", "0",
                   env={"SPINMOD_BUDGET": "2"})
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["status"] == "budget-error"
    assert "budget allows 2" in report["error"]


@pytest.mark.parametrize("value", ["abc", " ", "2.5"])
def test_budget_env_malformed(value):
    proc = run_cli("enumerate", "--g", "2", "--n", "0",
                   env={"SPINMOD_BUDGET": value})
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert "SPINMOD_BUDGET" in report["error"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args,env", [
    (("--budget-edges", "-1"), {}),
    ((), {"SPINMOD_BUDGET": "-1"}),
])
def test_negative_budget_is_input_error(args, env):
    proc = run_cli("enumerate", "--g", "2", "--n", "0", *args, env=env)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert "-1 is negative" in report["error"]
    assert "Traceback" not in proc.stderr


def test_negative_fuzz_is_input_error():
    proc = run_cli("verify", "--g", "1", "--n", "1", "--suite",
                   "functoriality", "--fuzz", "-5")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert "--fuzz -5 is negative" in report["error"]
    assert "Traceback" not in proc.stderr


def test_zero_fuzz_checks_no_chains():
    proc = run_cli("verify", "--g", "1", "--n", "1", "--suite",
                   "functoriality", "--fuzz", "0")
    assert proc.returncode == 0
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["pushforward-composition"]["chains"] == 0


def test_budget_env_empty_is_unset():
    proc = run_cli("enumerate", "--g", "2", "--n", "0",
                   env={"SPINMOD_BUDGET": ""})
    assert proc.returncode == 0


def test_trop_roundtrip(tmp_path):
    import json as _json
    from fractions import Fraction

    from spinmod.cycles import EdgeSet
    from spinmod.spin import SpinGraph, SpinStructure
    from spinmod.tropical import FamilyDescriptor

    theta = make_theta()
    spin = SpinStructure(theta, EdgeSet.from_indices(theta, [0, 1]), (1,))
    fam = FamilyDescriptor(SpinGraph(theta, spin),
                           [Fraction(1), Fraction(2), Fraction(3)])
    path = tmp_path / "family.json"
    path.write_text(_json.dumps(fam.to_json_dict()))
    proc = run_cli("trop", str(path), "--out", str(tmp_path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["diagram_commutes"]
    lengths = report["stable_model"]["lengths"]
    assert lengths == [{"num": 1, "den": 1}, {"num": 2, "den": 1},
                       {"num": 6, "den": 1}]
    assert report["generic_fiber"]["graph"]["vertices"] == \
        [{"id": 0, "weight": 2}]
    assert (tmp_path / "trop_result.json").exists()


def test_trop_rejects_unstable_graph(tmp_path):
    import json as _json

    from spinmod.cycles import EdgeSet
    from spinmod.graphs import Graph
    from spinmod.spin import SpinGraph, SpinStructure
    from spinmod.tropical import FamilyDescriptor
    from fractions import Fraction

    bare_loop = Graph.build([(0, 0)], [(0, 0)])
    spin = SpinStructure(bare_loop, EdgeSet.full(bare_loop), (1,))
    fam = FamilyDescriptor(SpinGraph(bare_loop, spin), [Fraction(1)])
    path = tmp_path / "unstable.json"
    path.write_text(_json.dumps(fam.to_json_dict()))
    assert run_cli("trop", str(path)).returncode == 2


def test_main_entrypoint_in_process(capsys):
    code = main(["enumerate", "--g", "1", "--n", "1", "--kind", "graphs"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["nodes"] == 2


def theta_family_json():
    theta = make_theta()
    spin = SpinStructure(theta, EdgeSet.from_indices(theta, [0, 1]), (1,))
    return FamilyDescriptor(SpinGraph(theta, spin),
                            [Fraction(1), Fraction(2), Fraction(3)]
                            ).to_json_dict()


def write_theta_family(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(theta_family_json()))
    return path


def theta_family_with(path, value):
    """The theta family's descriptor file with one field replaced."""
    data = theta_family_json()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(data).encode()


@pytest.mark.parametrize("content,named", [
    (b"\xff\xfe{}", "UTF-8"),
    (b"[]", "JSON object"),
    (theta_family_with(("val",), 3), "'val'"),
    (theta_family_with(("spin", "sign", 0, "s"), "a"), "'sign'"),
    (theta_family_with(("spin", "parity"), "x"), "'parity'"),
    (theta_family_with(("graph", "vertices", 0, "weight"), 0.7), "'weight'"),
    (theta_family_with(("graph", "vertices", 1, "id"), 0.5), "'id'"),
    (theta_family_with(("graph", "vertices", 1, "id"), 0),
     "duplicate vertex id 0"),
    (theta_family_with(("graph", "edges", 0, 0), 0.2), "'edges'"),
    (theta_family_with(("spin", "sign", 0, "s"), 1.9), "'sign'"),
    (theta_family_with(("spin", "parity"), 1.5), "'parity'"),
    (theta_family_with(("spin", "parity"), True), "'parity'"),
    (theta_family_with(("val", 0), {"num": True, "den": 1}), "'num'"),
    (theta_family_with(("spin", "sign", 0, "component"), 0.5),
     "'component'"),
    (theta_family_with(("spin", "sign", 0, "component"), 1),
     "'component'"),
    (theta_family_with(("graph", "half_edges"),
                       {"endpoint": [], "involution": {}, "legs": []}),
     "'endpoint'"),
    (theta_family_with(("graph", "half_edges"),
                       {"endpoint": {}, "involution": [], "legs": []}),
     "'involution'"),
    (theta_family_with(("graph", "exceptional"), [9]),
     "exceptional vertex 9 is not a vertex"),
], ids=["not-utf8", "top-level-list", "val-number", "sign-letter",
        "parity-letter", "weight-fraction", "id-fraction", "id-duplicate",
        "endpoint-fraction", "sign-fraction", "parity-fraction",
        "parity-bool", "num-bool", "component-fraction",
        "component-out-of-range", "endpoint-list", "involution-list",
        "exceptional-not-a-vertex"])
def test_malformed_trop_descriptor_is_input_error(tmp_path, content, named):
    path = tmp_path / "family.json"
    path.write_bytes(content)
    proc = run_cli("trop", str(path))
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert named in report["error"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content,named", [
    (b'{"val": [' + b"9" * 4301 + b"]}", "4300 digits"),
    (b"[" * 100000 + b"]" * 100000, "recursion"),
], ids=["integer-past-digit-limit", "arrays-past-recursion-limit"])
def test_trop_descriptor_past_the_parser_limits_is_input_error(
        tmp_path, content, named):
    # json.loads raises ValueError and RecursionError here, not
    # JSONDecodeError
    path = tmp_path / "family.json"
    path.write_bytes(content)
    proc = run_cli("trop", str(path))
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert named in report["error"]
    assert "Traceback" not in proc.stderr


def theta_family_with_half_edges(block, spelling):
    """The theta family's descriptor with its graph's half-edge block
    written out and half-edge 1 keyed by ``spelling`` in ``block``."""
    data = theta_family_json()
    data["graph"] = make_theta().to_json_dict(half_edges=True)
    entries = data["graph"]["half_edges"][block]
    entries[spelling] = entries.pop("1")
    return json.dumps(data).encode()


@pytest.mark.parametrize("content,named", [
    (theta_family_with(("spin", "P"), " 3 "), "'P'"),
    (theta_family_with(("spin", "P"), "0x3"), "'P'"),
    (theta_family_with(("spin", "P"), "0_3"), "'P'"),
    (theta_family_with(("spin", "P"), "+3"), "'P'"),
    (theta_family_with(("spin", "P"), "03"), "'P'"),
    (theta_family_with(("spin", "P"), "\uff13"), "'P'"),
    (theta_family_with_half_edges("endpoint", " 1"), "'endpoint'"),
    (theta_family_with_half_edges("involution", "01"), "'involution'"),
], ids=["P-padded", "P-prefixed", "P-underscore", "P-signed",
        "P-leading-zero", "P-full-width", "endpoint-key-padded",
        "involution-key-leading-zero"])
def test_trop_reads_numerals_only_as_written(tmp_path, capsys, content,
                                             named):
    path = tmp_path / "family.json"
    path.write_bytes(content)
    assert main(["trop", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "input-error"
    assert named in report["error"]


def _without_timings(stdout):
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    report.pop("timings", None)
    return report


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys,
                                                   monkeypatch):
    # one parser serves every call; the help text is laid out for a fixed
    # width on both sides
    monkeypatch.setenv("COLUMNS", "80")
    trop = ["trop", str(write_theta_family(tmp_path))]
    argvs = [trop, ["verify", "--g", "two"], ["--help"],
             ["verify", "--g", "2", "--n", "1", "--suite", "all"], trop]
    codes = []
    for argv in argvs:
        codes.append(main(argv))
        captured = capsys.readouterr()
        proc = run_cli(*argv)
        assert codes[-1] == proc.returncode
        assert _without_timings(captured.out) == _without_timings(proc.stdout)
        assert captured.err == proc.stderr
    assert codes == [0, 2, 0, 0, 0]


def test_parser_built_during_first_main_call_only():
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = \\
    lambda self, *a, **k: built.append(1) or init(self, *a, **k)
from spinmod.cli import main
counts = [len(built)]
for argv in (["enumerate", "--g", "1", "--n", "1", "--kind", "graphs"],
             ["verify", "--g", "two"], ["--help"],
             ["enumerate", "--g", "1", "--n", "1", "--kind", "graphs"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    counts.append(len(built))
print(counts)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=os.environ)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts[0] == 0  # importing the module builds nothing
    assert counts[1] > 0
    assert counts[1:] == [counts[1]] * 4


@pytest.mark.parametrize("command", ["trop", "verify", "enumerate"])
def test_without_out_only_the_report_is_serialized(command, tmp_path,
                                                   monkeypatch, capsys):
    argv = {"trop": ["trop", str(write_theta_family(tmp_path))],
            "verify": ["verify", "--g", "1", "--n", "1", "--suite", "all",
                       "--fuzz", "20"],
            "enumerate": ["enumerate", "--g", "2", "--n", "0", "--kind",
                          "spin", "--format", "json"]}[command]
    dumped = []
    original = cli._to_json
    monkeypatch.setattr(cli, "_to_json",
                        lambda obj: dumped.append(1) or original(obj))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["outputs"] == []
    assert len(dumped) == 1


@pytest.mark.parametrize("command", ["trop", "verify"])
def test_written_result_is_the_report_body(command, tmp_path, capsys):
    argv = {"trop": ["trop", str(write_theta_family(tmp_path))],
            "verify": ["verify", "--g", "1", "--n", "1", "--suite",
                       "counts"]}[command]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    [written] = report["outputs"]
    body = {k: v for k, v in report.items()
            if k not in ("command", "inputs", "timings", "outputs")}
    assert (out / written.rsplit("/", 1)[-1]).read_text() == \
        json.dumps(body, indent=2, sort_keys=True)


ENCODER_CASES = {
    "empty": [{}, [], (), {"a": {}, "b": [], "c": ()}],
    "nested": {"z": [1, {"y": (2, [3, {"x": []}])}], "a": {"b": {"c": 0}}},
    "tuples": ((), (1,), ((1, 2), [3])),
    "strings": ["", "plain", "é ü 日本 ☃ \U0001f600", "\"quoted\"",
                "back\\slash", "\n\t\r\x00\x1f\x7f"],
    "string-keys": {"é": 1, "\"": 2, "\\": 3, "": 4, "日本": 5},
    "constants": [True, False, None, {"t": True, "f": False, "n": None}],
    "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 0.1, 2.5],
    "big-ints": [2 ** 64 + 1, -(2 ** 70), 0, -1],
    "int-keys": {10: "a", 2: "b", -1: "c"},
    "float-keys": {1.5: 1, -0.0: 2, math.inf: 3, math.nan: 4},
    "bool-keys": {True: 1, False: 0},
    "none-key": {None: [None]},
    "shared": {"a": (shared := {"x": [1, {"y": "z"}]}), "b": shared,
               "c": {"d": shared, "e": [shared]}, "f": [[shared], shared]},
}


@pytest.mark.parametrize("obj", list(ENCODER_CASES.values()),
                         ids=list(ENCODER_CASES))
def test_encoder_matches_json_dumps(obj):
    assert cli._to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    {1: "a", "b": 2}, Fraction(1, 2), {"a": [Fraction(1, 2)]},
    {(1, 2): 0}, {1, 2}, [object()],
], ids=["mixed-keys", "fraction", "nested-fraction", "tuple-key", "set",
        "object"])
def test_encoder_raises_where_json_dumps_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._to_json(obj)


@pytest.fixture
def checked_encoder(monkeypatch):
    """``cli._to_json``, checked against ``json.dumps`` on every call."""
    original = cli._to_json
    encoded = []

    def checked(obj):
        text = original(obj)
        assert text == json.dumps(obj, indent=2, sort_keys=True)
        encoded.append(text)
        return text

    monkeypatch.setattr(cli, "_to_json", checked)
    return encoded


def test_encoder_matches_json_dumps_on_trop_answers(tmp_path, capsys,
                                                    checked_encoder):
    # every spin class at (2,1), with seeded valuations, some infinite
    import random

    from spinmod.posets import build_spin_poset
    from spinmod.tropical import INF

    rng = random.Random(21)
    path = tmp_path / "family.json"
    nodes = build_spin_poset(2, 1).nodes
    for node in nodes:
        val = [INF if rng.random() < 0.3 else Fraction(rng.randint(1, 9),
                                                        rng.randint(1, 4))
               for _ in range(node.rep.graph.n_edges)]
        path.write_text(json.dumps(
            FamilyDescriptor(node.rep, val).to_json_dict()))
        assert main(["trop", str(path)]) == 0
    out = capsys.readouterr().out
    assert len(checked_encoder) == len(nodes) == 85
    assert out == "".join(text + "\n" for text in checked_encoder)


def test_encoder_matches_json_dumps_on_reports_and_files(tmp_path, capsys,
                                                         checked_encoder):
    assert main(["verify", "--g", "1", "--n", "1"]) == 0
    out = tmp_path / "out"
    assert main(["enumerate", "--g", "2", "--n", "0", "--kind", "spin",
                 "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    # the verify report, the enumerate file and the enumerate report
    assert len(checked_encoder) == 3
    assert (out / "spin_2_0.json").read_text() == checked_encoder[1]


def test_unwritten_csv_still_checks_the_cone_complex(monkeypatch, capsys):
    def failing(poset):
        raise VerificationError("cell is not a face of any top cell", ("k",))

    monkeypatch.setattr(cli, "build_cone_complex", failing)
    code = main(["enumerate", "--g", "1", "--n", "1", "--kind", "spin",
                 "--format", "csv"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_timings_read_the_monotonic_clock_across_main(monkeypatch, capsys):
    # a wall-clock step backwards leaves the figure alone; the first
    # reading comes before the arguments are parsed
    events = []
    readings = iter([100.0, 102.5])
    parser = cli._parser
    monkeypatch.setattr(cli, "_parser",
                        lambda: events.append("parse") or parser())
    monkeypatch.setattr(cli.time, "perf_counter",
                        lambda: events.append("clock") or next(readings))
    monkeypatch.setattr(cli.time, "time", lambda: -1e9)
    assert main(["enumerate", "--g", "1", "--n", "1", "--kind",
                 "graphs"]) == 0
    assert json.loads(capsys.readouterr().out)["timings"] == \
        {"seconds": 2.5}
    assert events == ["clock", "parse", "clock"]


@pytest.mark.parametrize("argv,named", [
    (["enumerate", "--g", "-1", "--n", "5"], "genus -1"),
    (["enumerate", "--g", "3", "--n", "-1"], "leg count -1"),
    (["verify", "--g", "2", "--n", "-1", "--suite", "counts"],
     "leg count -1"),
    (["verify", "--g", "-1", "--n", "5", "--suite", "posets"], "genus -1"),
], ids=["enumerate-genus", "enumerate-legs", "verify-legs", "verify-genus"])
def test_negative_genus_or_legs_is_input_error(argv, named):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert named in report["error"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["enumerate", "verify", "trop"])
def test_out_that_is_a_file_is_input_error(command, under, tmp_path):
    # an --out that is a regular file cannot be made a directory, and
    # nothing can be made under one
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "x" if under else blocker
    argv = {"enumerate": ["enumerate", "--g", "1", "--n", "1"],
            "verify": ["verify", "--g", "1", "--n", "1", "--suite",
                       "counts"],
            "trop": ["trop", str(write_theta_family(tmp_path))]}[command]
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert str(out) in report["error"]
    assert "Traceback" not in proc.stderr
    assert blocker.read_text() == ""


def test_verify_reports_the_time_of_each_suite(capsys):
    assert main(["verify", "--g", "2", "--n", "0", "--suite", "all",
                 "--fuzz", "50"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    suites = timings["suites"]
    assert set(suites) == {"counts", "posets", "functoriality", "refine"}
    assert all(t >= 0 for t in suites.values())
    # each suite is cut down to whole milliseconds, the total rounded
    assert sum(suites.values()) <= timings["seconds"] + 1e-9
    assert main(["verify", "--g", "2", "--n", "0", "--suite",
                 "refine"]) == 0
    assert set(json.loads(capsys.readouterr().out)["timings"]["suites"]) \
        == {"refine"}


def test_verify_reports_the_time_of_each_phase(capsys):
    assert main(["verify", "--g", "2", "--n", "0", "--suite", "all",
                 "--fuzz", "50"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    phases, suites = timings["phases"], timings["suites"]
    assert set(phases) == {"enumerate", "graph_poset", "cyclic_poset",
                           "spin_poset", "cone_complex", "direct_generator",
                           "fuzz_chains", "aut_factorization",
                           "fuzz_families"}
    assert all(t >= 0 for t in phases.values())
    # every figure is cut down to whole milliseconds; the posets suite
    # runs first, so it builds the spin poset
    assert phases["enumerate"] + sum(suites.values()) <= \
        timings["seconds"] + 1e-9
    assert sum(phases[name] for name in ("graph_poset", "cyclic_poset",
                                         "spin_poset", "cone_complex",
                                         "direct_generator")) \
        <= suites["posets"] + 1e-9
    assert sum(phases[name] for name in ("fuzz_chains", "aut_factorization",
                                         "fuzz_families")) \
        <= suites["functoriality"] + 1e-9
    assert main(["verify", "--g", "2", "--n", "0", "--suite",
                 "counts"]) == 0
    assert set(json.loads(capsys.readouterr().out)["timings"]["phases"]) \
        == {"enumerate"}


def test_verify_reports_the_memory_after_each_phase(tmp_path, capsys):
    assert main(["verify", "--g", "2", "--n", "0", "--suite", "all",
                 "--fuzz", "50"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    memory = timings["memory"]
    assert set(memory) == {"peak_rss_kib", "phases"}
    assert set(memory["phases"]) == set(timings["phases"])
    assert all(type(kib) is int and 0 < kib <= memory["peak_rss_kib"]
               for kib in memory["phases"].values())
    # a high-water mark never falls, and the enumeration runs first
    assert memory["phases"]["enumerate"] == min(memory["phases"].values())
    # trop and enumerate reports keep only their total time
    for argv in (["trop", str(write_theta_family(tmp_path))],
                 ["enumerate", "--g", "1", "--n", "1"]):
        assert main(argv) == 0
        assert set(json.loads(capsys.readouterr().out)["timings"]) == \
            {"seconds"}


def test_trop_diagram_that_does_not_commute_is_a_failure(tmp_path, capsys,
                                                         monkeypatch):
    # a stable model that forgets to double the edge outside P (edge 2)
    monkeypatch.setattr(tropical, "family_stable_model",
                        lambda family: tropical.TropicalCurve(family.graph,
                                                              family.val))
    assert main(["trop", str(write_theta_family(tmp_path))]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "trop", "status": "fail",
        "error": "tropicalization diagram does not commute",
        "witnesses": []}


def test_trop_call_builds_each_piece_once(tmp_path, capsys, monkeypatch):
    # the dumbbell (loops 0 and 1, bridge 2) with its loops as P; the
    # generic fiber contracts loop 1 and the bridge, and the order test's
    # first candidate of b1 1, the loop 0 and the bridge, reaches it
    # through an isomorphism
    dumbbell = make_dumbbell()
    spin = SpinStructure(dumbbell, EdgeSet.from_indices(dumbbell, [0, 1]),
                         (1, 0))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FamilyDescriptor(
        SpinGraph(dumbbell, spin), [INF, Fraction(1), Fraction(2)]
    ).to_json_dict()))
    counts = {"curves": 0, "graph_json": 0, "contractions": 0}

    def counting(cls, name, count):
        original = getattr(cls, name)

        def wrapped(*args, **kwargs):
            counts[count] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapped)

    counting(tropical.TropicalCurve, "__init__", "curves")
    counting(graphs.Graph, "to_json_dict", "graph_json")
    counting(morphisms.Contraction, "__init__", "contractions")
    assert main(["trop", str(path)]) == 0
    answer = json.loads(capsys.readouterr().out)
    assert answer["order_witness"]["F"] == "5"
    # psi's curve, its forgetful image and the stable model; the family's
    # graph and the generic fiber's; the generic fiber and one candidate
    assert counts == {"curves": 3, "graph_json": 2, "contractions": 2}
