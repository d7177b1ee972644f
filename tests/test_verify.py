import pytest

from spinmod import cycles, posets, tropical, verify
from spinmod.graphs import classify
from spinmod.morphisms import Aut
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
    verify.fuzz_contraction_chains(posets.enumerate_stable_graphs(2, 0),
                                   count=200)
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


def test_counts_suite_runs_on_the_enumerated_classes(monkeypatch):
    enumerated, checked = [], []
    original_enumerate = verify.enumerate_stable_graphs
    original_check = verify.spin_count_check

    def enumerate_recording(*args, **kwargs):
        enumerated.extend(original_enumerate(*args, **kwargs))
        return enumerated

    def check_recording(graph, *args, **kwargs):
        checked.append(graph)
        return original_check(graph, *args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_stable_graphs",
                        enumerate_recording)
    monkeypatch.setattr(verify, "spin_count_check", check_recording)
    run_suites(2, 2, "counts")
    assert len(checked) == len(enumerated) > 0
    assert all(a is b for a, b in zip(checked, enumerated))


@pytest.mark.parametrize("g,n,cyclic_sets,basic_graphs", [
    (2, 0, 18, 0), (3, 0, 198, 3), (2, 2, 210, 2)])
def test_counts_records_carry_coverage(g, n, cyclic_sets, basic_graphs):
    classes = posets.enumerate_stable_graphs(g, n)
    assert sum(2 ** graph.b1 for graph in classes) == cyclic_sets
    assert sum(1 for graph in classes if classify(graph).basic
               and len(graph.vertices) >= 2) == basic_graphs
    checks = {c["name"]: c for c in run_suites(g, n, "counts")}
    assert checks["spin-parity-split"]["cyclic_sets"] == cyclic_sets
    assert checks["theta-divisor-identities"]["cyclic_sets"] == cyclic_sets
    assert checks["collection-count"]["basic_graphs"] == basic_graphs


def test_each_spin_stabilizer_built_once_per_run(monkeypatch):
    # the spin orbit step folds the signs of each spin class through every
    # group element once (3,986 images at (3,0)) and keeps the stabilizer
    # it meets, so the cone complex and the factorization check act no
    # more.  Every other image comes from a walk over the orbit of one
    # structure: a spin key, the target of a refinement or the lower side
    # of an order test, each acting with its graph's whole group once;
    # the refinement suite's stabilizers add 64.  No image is built as a
    # spin structure by Aut.act_spin.
    from spinmod import morphisms

    calls = []
    phase = ["run"]
    fold = morphisms.SpinCarry.fold

    def counting_fold(self, spin):
        if isinstance(self.f, Aut):
            calls.append(phase[0])
        return fold(self, spin)

    monkeypatch.setattr(morphisms.SpinCarry, "fold", counting_fold)
    acted = []
    original = Aut.act_spin
    monkeypatch.setattr(Aut, "act_spin",
                        lambda self, spin: acted.append(spin)
                        or original(self, spin))
    for module, name in ((tropical, "build_cone_complex"),
                         (verify, "check_aut_factorization")):
        inner = getattr(module, name)

        def in_phase(*args, _name=name, _inner=inner, **kwargs):
            phase[0] = _name
            try:
                return _inner(*args, **kwargs)
            finally:
                phase[0] = "run"

        for owner in (tropical, verify):
            if getattr(owner, name, None) is inner:
                monkeypatch.setattr(owner, name, in_phase)
    walked = []
    walk = morphisms.spin_orbits

    def single_walk(graph, spins, *args):
        walked.append(len(spins) * morphisms.automorphisms(graph).order)
        return walk(graph, spins, *args)

    monkeypatch.setattr(morphisms, "spin_orbits", single_walk)
    run_suites(3, 0, "all")
    assert calls.count("build_cone_complex") == 0
    assert calls.count("check_aut_factorization") == 0
    assert acted == []
    assert len(calls) == 3986 + sum(walked) + 64 == 5786


def test_counts_suite_spans_each_cycle_space_once(monkeypatch):
    # spin_count_check, stratum_counts and the theta loop read one
    # memoised enumeration per class
    spanned = []
    original = cycles.cycle_basis
    monkeypatch.setattr(cycles, "cycle_basis",
                        lambda graph: spanned.append(id(graph))
                        or original(graph))
    run_suites(3, 0, "counts")
    assert len(spanned) == len(set(spanned)) == 42


@pytest.mark.parametrize("g,n,classes,cyclic_covers,spin_covers", [
    (2, 0, 7, 21, 46), (3, 0, 42, 397, 1217), (2, 2, 75, 560, 1297)])
def test_posets_records_carry_coverage(g, n, classes, cyclic_covers,
                                       spin_covers):
    checks = {c["name"]: c for c in run_suites(g, n, "posets")}
    assert checks["top-rank-three-regular"]["classes"] == classes == \
        checks["poset-graphs"]["nodes"]
    assert checks["purity-precursor"]["reached"] == classes
    forgetful = checks["forgetful-maps"]
    assert forgetful["cyclic_covers"] == cyclic_covers == \
        checks["poset-cyclic"]["covers"]
    assert forgetful["spin_covers"] == spin_covers == \
        checks["poset-spin"]["covers"]


@pytest.mark.parametrize("g,n", [(2, 0), (2, 2)])
def test_functoriality_and_stratum_records_carry_coverage(g, n,
                                                          monkeypatch):
    # counted from the calls each check makes: one stratum_counts per
    # class, three push_spin per spin comparison, two boundary per square
    calls = {"stratum_counts": 0, "push_spin": 0, "boundary": 0}
    for name in calls:
        original = getattr(verify, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    classes = posets.enumerate_stable_graphs(g, n)
    counts = {c["name"]: c for c in
              verify.suite_counts(g, classes)}
    assert counts["stratum-degree"]["graphs"] == calls["stratum_counts"] \
        == len(classes)

    chains = {c["name"]: c for c in verify.suite_functoriality(
        classes, lambda: posets.build_spin_poset(g, n, _classes=classes),
        fuzz=300, seed=3)}
    spin_compared = chains["parity-preservation"]["chains"]
    squares = chains["boundary-square"]["squares"]
    assert calls["push_spin"] == 3 * spin_compared
    assert calls["boundary"] == 2 * squares
    assert chains["pushforward-composition"]["chains"] == spin_compared \
        == 300
    # the weight-g vertex has no edge, so some chains make no square
    assert any(graph.n_edges == 0 for graph in classes)
    assert 0 < squares < 300
