import json
import os
import subprocess
import sys

import pytest

from spinmod.cli import main

from conftest import make_theta


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
