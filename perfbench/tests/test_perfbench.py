"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They start worker processes against ``src`` and take about two minutes,
most of it in the traced ``verify-g3n1-posets`` pass.
"""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import spans

SMALL = 25  # trop queries per pass in these tests


@pytest.fixture
def workdir():
    path = run.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k.endswith(".distinct_ratio")}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    classes = gate.load_trop_reference()["classes"]
    a = run.trop_queries(7, 2 * len(classes), classes)
    assert a == run.trop_queries(7, 2 * len(classes), classes)
    assert a != run.trop_queries(8, 2 * len(classes), classes)
    counts = {}
    for index, _ in a:
        counts[index] = counts.get(index, 0) + 1
    assert set(counts.values()) == {2} and len(counts) == len(classes)


def test_two_traced_runs_give_identical_counts(workdir):
    first = run.measure_traced("trop-queries", 3, workdir, SMALL)
    second = run.measure_traced("trop-queries", 3, workdir, SMALL)
    assert first[1] == second[1] == 0
    assert _counts(first[2]) == _counts(second[2])
    assert first[2]["cli.main.calls"] == SMALL
    names, fields = spans.load_spans(run.OUT / "spans"
                                     / "trop-queries-seed3.bin")
    calls = [first[2][f"{name}.calls"] for name in names]
    assert [fields["name_id"].tolist().count(i)
            for i in range(len(names))] == calls
    assert set(fields["op"]) == set(range(SMALL))


def test_traced_and_untraced_output_are_identical(workdir):
    argvs, _ = run.prepare("trop-queries", 5, workdir, SMALL)
    plain = run.launch(workdir, "plain", argvs)
    traced = run.launch(workdir, "traced", argvs, trace=True)
    assert [gate.program_output(c[1]) for c in plain["calls"]] == \
        [gate.program_output(c[1]) for c in traced["calls"]]


def test_verify_g3n0_counts_at_seed_0(workdir):
    _, failed, metrics, _ = run.measure_traced("verify-g3n0", 0, workdir)
    assert failed == 0
    assert metrics["cycles.pbar_decompose.calls"] == 30282
    assert round(metrics["cycles.pbar_decompose.distinct_ratio"]
                 * 30282) == 702
    assert metrics["morphisms.canonical_form.calls"] == 7472
    assert round(metrics["morphisms.canonical_form.distinct_ratio"]
                 * 7472) == 42
    assert metrics["posets.enumerate_stable_graphs.calls"] == 4
    assert metrics["posets.build_spin_poset.calls"] == 2
    assert metrics["trace.overhead_ratio"] > 0


def test_verify_g3n1_posets_counts(workdir):
    _, failed, metrics, _ = run.measure_traced("verify-g3n1-posets", 0,
                                               workdir)
    assert failed == 0
    assert metrics["cycles.pbar_decompose.calls"] == 44721
    assert round(metrics["cycles.pbar_decompose.distinct_ratio"]
                 * 44721) == 2339
    assert metrics["morphisms.canonical_form.calls"] == 23207
    assert round(metrics["morphisms.canonical_form.distinct_ratio"]
                 * 23207) == 181


def test_corrupted_output_fails(workdir, monkeypatch):
    launch = run.launch

    def corrupting_launch(*args, **kwargs):
        report = launch(*args, **kwargs)
        if report["calls"]:
            report["calls"][0][1] = report["calls"][0][1].replace(
                '"diagram_commutes": true', '"diagram_commutes": false')
        return report

    monkeypatch.setattr(run, "launch", corrupting_launch)
    attempted, failed, *_ = run.measure("trop-queries", 1, 0, workdir,
                                       SMALL)
    assert attempted == SMALL and failed == 1


def test_corrupted_reference_fails(workdir, monkeypatch):
    reference = gate.load_trop_reference()
    reference["fiber_digests"] = [
        d.translate(str.maketrans("0123456789abcdef", "123456789abcdef0"))
        for d in reference["fiber_digests"]]
    monkeypatch.setattr(gate, "load_trop_reference", lambda: reference)
    attempted, failed, *_ = run.measure("trop-queries", 1, 0, workdir,
                                       SMALL)
    assert failed == attempted == SMALL


def test_verify_gate_pins_fields_and_counts():
    reference = gate.load_verify_reference()
    report = json.loads(json.dumps(reference["verify-g3n0"]))
    report["timings"] = {"seconds": 1.0}
    report["added_field"] = 1
    assert gate.check_verify("verify-g3n0", 0, 0, json.dumps(report),
                             reference) == []
    assert gate.check_verify("verify-g3n0", 0, 1, json.dumps(report),
                             reference)
    assert gate.check_verify("verify-g3n0", 4, 0, json.dumps(report),
                             reference)
    report["checks"][5]["covers"] += 1
    assert gate.check_verify("verify-g3n0", 0, 0, json.dumps(report),
                             reference)
    corrupted = json.loads(json.dumps(reference))
    corrupted["verify-g3n0"]["checks"][5]["covers"] += 1
    report["checks"][5]["covers"] -= 1
    assert gate.check_verify("verify-g3n0", 0, 0, json.dumps(report),
                             corrupted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trop-queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
