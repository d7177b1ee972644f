from spinmod import posets, tropical, verify
from spinmod.verify import run_suites


def test_run_suites_builds_classes_and_spin_poset_once(monkeypatch):
    counts = {"enumerate_stable_graphs": 0, "build_spin_poset": 0}
    for name in counts:
        original = getattr(posets, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (posets, tropical, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    checks = run_suites(3, 0, "all")
    assert all(c["status"] == "pass" for c in checks)
    assert counts == {"enumerate_stable_graphs": 1, "build_spin_poset": 1}


def test_fuzz_chains_enumerate_cycles_once_per_class(monkeypatch):
    graphs = []
    original = verify.enumerate_cyclic
    monkeypatch.setattr(verify, "enumerate_cyclic",
                        lambda graph, *a, **k: graphs.append(graph)
                        or original(graph, *a, **k))
    verify.fuzz_contraction_chains(2, 0, count=200)
    assert len(graphs) == len(posets.enumerate_stable_graphs(2, 0)) == 7


def test_run_suites_builds_spin_poset_only_when_read(monkeypatch):
    built = []
    original = verify.build_spin_poset
    monkeypatch.setattr(verify, "build_spin_poset",
                        lambda *a, **k: built.append(1) or original(*a, **k))
    run_suites(2, 0, "counts")
    run_suites(2, 0, "refine")
    assert built == []
    run_suites(2, 0, "functoriality", fuzz=10)
    assert built == [1]
