import copy
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from spinmod import (cycles, graphs, morphisms, orbits, posets, tropical,
                     verify)
from spinmod.cli import main
from spinmod.errors import VerificationError
from spinmod.graphs import classify
from spinmod.morphisms import Aut, canonical_key
from spinmod.spin import enumerate_spin
from spinmod.verify import run_suites

from conftest import make_theta, poset_from_pairs, without_covers_into
import oracles


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
    # the spin orbit step folds the signs of each spin class through one
    # element per action class of its cyclic set's stabilizer, and the
    # sign vectors above the least set of each cyclic orbit through one
    # transporter per other set of the orbit (1,224 images at (3,0)), and
    # keeps the stabilizer it meets, so the cone complex and the
    # factorization check act no more.  Every other image comes from a
    # fibred walk over the orbit of one structure: a spin key (the refine
    # suite keys each target and each pushed lift, 228 images, and the
    # family check each family's generic fiber, 166) or the lower side of
    # an order test that meets a candidate pushed elsewhere than onto it
    # (3); each counts the sign images it folds.  Refinement walks no
    # orbit.  No automorphism's image is built as a spin structure.
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
    image = morphisms.SpinCarry.image

    def counting_image(self, spin):
        if isinstance(self.f, Aut):
            acted.append(spin)
        return image(self, spin)

    monkeypatch.setattr(morphisms.SpinCarry, "image", counting_image)
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
    walk = orbits.spin_orbit

    def single_walk(graph, spin):
        orbits = walk(graph, spin)
        # the walk's images less the one walk over the masks
        walked.append(orbits.images - len(
            morphisms.automorphisms(graph).actions))
        return orbits

    monkeypatch.setattr(orbits, "spin_orbit", single_walk)
    run_suites(3, 0, "all")
    assert calls.count("build_cone_complex") == 0
    assert calls.count("check_aut_factorization") == 0
    assert acted == []
    assert sum(walked) == 397
    assert len(calls) == 1224 + sum(walked) == 1621


def test_purity_precursor_agrees_with_the_union_of_descendants(monkeypatch):
    # at (2,0) every graph class lies below a top class; with every cover
    # into class 3 removed, classes 1 and 3 lie below none, and the
    # precursor names them as the union of descendants does, in index
    # order
    classes = posets.enumerate_stable_graphs(2, 0)

    def spin_poset():
        return posets.build_spin_poset(2, 0, _classes=classes)

    graph_poset = posets.build_graph_poset(2, 0, _classes=classes)
    records = {c["name"]: c for c in
               verify.suite_posets(2, 0, classes, spin_poset)}
    assert records["purity-precursor"]["reached"] == \
        oracles.purity_precursor(graph_poset) == 7
    pruned = without_covers_into(graph_poset, 3)
    with pytest.raises(VerificationError) as want:
        oracles.purity_precursor(pruned)
    monkeypatch.setattr(verify, "build_graph_poset",
                        lambda g, n, _classes: pruned)
    with pytest.raises(VerificationError) as got:
        verify.suite_posets(2, 0, classes, spin_poset)
    assert str(got.value) == str(want.value) == \
        "classes not dominated by any top class"
    assert got.value.witnesses == want.value.witnesses == \
        (pruned.nodes[1].key, pruned.nodes[3].key)


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


def test_counts_suite_builds_no_spin_structure(monkeypatch):
    # the spin counts come from each cyclic set's decomposition, so the
    # counts suite builds no spin structure at all, validated or through
    # ``over``; its records keep their names and coverage counts
    from spinmod.spin import SpinStructure, enumerate_spin

    built = []
    original = SpinStructure.__init__
    original_over = SpinStructure.over

    def recording(self, *args):
        built.append("__init__")
        original(self, *args)

    def recording_over(*args):
        built.append("over")
        return original_over(*args)

    monkeypatch.setattr(SpinStructure, "__init__", recording)
    monkeypatch.setattr(SpinStructure, "over", staticmethod(recording_over))
    checks = run_suites(3, 0, "counts")
    assert built == []
    assert [(c["name"], c.get("graphs"), c.get("cyclic_sets")) for c in
            checks] == [("spin-count-formula", 42, None),
                        ("spin-parity-split", None, 198),
                        ("stratum-degree", 42, None),
                        ("theta-divisor-identities", None, 198),
                        ("collection-count", None, None)]
    # the recorder sees what the spin enumeration builds, all through
    # ``over``
    assert len(enumerate_spin(make_theta())) == 7
    assert built == ["over"] * 7


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


@pytest.mark.parametrize("g,n", [(2, 0), (3, 0)])
def test_cyclic_orbits_count_the_cyclic_sets(g, n, monkeypatch):
    # Burnside over the cyclic nodes: the record counts every cyclic set
    # of every class, and a node whose stabilizer is grown to the whole
    # group counts its orbit as one set, so its class is named
    checks = {c["name"]: c for c in run_suites(g, n, "posets")}
    assert checks["poset-cyclic"]["cyclic_sets"] == sum(
        2 ** graph.b1 for graph in posets.enumerate_stable_graphs(g, n))
    original = verify.build_cyclic_poset
    grown = []

    def growing(*args, **kwargs):
        poset = original(*args, **kwargs)
        for nd in poset.nodes:
            actions = morphisms.automorphisms(nd.rep[0]).actions
            if len(nd.stabilizer) < len(actions):
                nd.stabilizer = tuple(range(len(actions)))
                grown.append(nd.rep[0])
                return poset

    monkeypatch.setattr(verify, "build_cyclic_poset", growing)
    with pytest.raises(VerificationError,
                       match="cyclic orbits do not count") as info:
        run_suites(g, n, "posets")
    assert info.value.witnesses == (canonical_key(grown[0]),)


@pytest.mark.parametrize("g,n,actions,cyclic_images,spin_images", [
    (3, 0, 208, 702, 1926), (3, 1, 518, 2104, 7204)])
def test_poset_records_count_the_orbit_walk(g, n, actions, cyclic_images,
                                            spin_images, monkeypatch):
    # counted from the calls the walks make: one act_mask per cyclic
    # image while the cyclic poset is built; while the spin poset is
    # built, one act_mask per mask image of its walk over the cyclic sets
    # (the same walk as the cyclic poset's) and one per carry by an
    # automorphism (its image set), and one fold by an automorphism per
    # sign image; the group actions are summed over the classes
    from spinmod import morphisms

    counted = Counter()
    phase = [None]
    act_mask, fold = morphisms.Aut.act_mask, morphisms.SpinCarry.fold
    init_carry = morphisms.SpinCarry.__init__

    def counting_act_mask(self, mask):
        counted[phase[0], "act_mask"] += 1
        return act_mask(self, mask)

    def counting_fold(self, signs):
        if isinstance(self.f, Aut):
            counted[phase[0], "fold"] += 1
        return fold(self, signs)

    def counting_carry(self, f, *args):
        if isinstance(f, Aut):
            counted[phase[0], "carry"] += 1
        init_carry(self, f, *args)

    monkeypatch.setattr(morphisms.Aut, "act_mask", counting_act_mask)
    monkeypatch.setattr(morphisms.SpinCarry, "fold", counting_fold)
    monkeypatch.setattr(morphisms.SpinCarry, "__init__", counting_carry)
    for name in ("build_cyclic_poset", "build_spin_poset"):
        inner = getattr(verify, name)

        def in_phase(*args, _name=name, _inner=inner, **kwargs):
            phase[0] = _name
            try:
                return _inner(*args, **kwargs)
            finally:
                phase[0] = None

        monkeypatch.setattr(verify, name, in_phase)
    checks = {c["name"]: c for c in run_suites(g, n, "posets")}
    monkeypatch.undo()
    summed = sum(len(morphisms.automorphisms(graph).actions)
                 for graph in posets.enumerate_stable_graphs(g, n))
    assert checks["poset-cyclic"]["group_actions"] == summed == actions
    assert checks["poset-spin"]["group_actions"] == actions
    assert checks["poset-cyclic"]["orbit_images"] == \
        counted["build_cyclic_poset", "act_mask"] == cyclic_images
    assert counted["build_spin_poset", "act_mask"] - counted[
        "build_spin_poset", "carry"] == cyclic_images
    assert checks["poset-spin"]["orbit_images"] == cyclic_images + counted[
        "build_spin_poset", "fold"] == spin_images
    assert "group_actions" not in checks["poset-graphs"]


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (0, 6)])
def test_walk_records_count_orbit_entries_and_single_structure_fibres(
        g, n, shared_classes):
    # orbit_entries: every cyclic set is in the cyclic poset's tables and
    # every spin structure in the spin poset's, 2^{c_+} over each set
    # (the closed count of spin_count_check).  single_structure_fibres:
    # c_+ = 0 exactly over the empty set of a weightless class, which is
    # an orbit of its own, so there is one such fibre per weightless
    # class.  In genus 0 every class is a weightless tree with that one
    # fibre, so the spin poset is the cyclic poset
    from spinmod.spin import spin_count_check

    classes = shared_classes(g, n)
    cyclic_poset = posets.build_cyclic_poset(g, n, _classes=classes)
    spin_poset = posets.build_spin_poset(g, n, _classes=classes)
    cyclic, spin = cyclic_poset.walk, spin_poset.walk
    assert cyclic["orbit_entries"] == sum(
        len(cycles.enumerate_cyclic(graph)) for graph in classes)
    assert "single_structure_fibres" not in cyclic
    assert spin["orbit_entries"] == sum(
        spin_count_check(graph)["total"] for graph in classes)
    weightless = sum(1 for graph in classes if graph.total_weight() == 0)
    assert spin["single_structure_fibres"] == weightless > 0
    if g == 0:
        spin_at = [(id(nd.rep.graph), nd.rep.spin.P.mask)
                   for nd in spin_poset.nodes]
        cyclic_at = [(id(graph), p.mask) for graph, p in
                     (nd.rep for nd in cyclic_poset.nodes)]
        assert sorted(spin_at) == sorted(cyclic_at)
        assert {(spin_at[u], spin_at[l]) for u, l in spin_poset.covers()} \
            == {(cyclic_at[u], cyclic_at[l])
                for u, l in cyclic_poset.covers()}


@pytest.mark.parametrize("g,n,decompositions,carries", [
    (3, 0, 198, 911), (3, 1, 876, 4747)])
def test_poset_records_count_decompositions_and_carries(
        g, n, decompositions, carries, monkeypatch):
    # counted from the constructors: in the posets suite nothing is
    # decomposed before the spin poset, every decomposition its build
    # makes stays memoised on a class, and every SpinCarry it builds
    # comes from an orbit walk or a cover push; the cyclic poset builds
    # neither
    built = Counter()
    phase = [None]
    init_dec = cycles.PbarDecomposition.__init__
    init_carry = morphisms.SpinCarry.__init__

    def counting_dec(self, graph, cyclic_set):
        built[phase[0], "decompositions"] += 1
        init_dec(self, graph, cyclic_set)

    def counting_carry(self, f, cyclic_set, dec):
        built[phase[0], "carries"] += 1
        init_carry(self, f, cyclic_set, dec)

    monkeypatch.setattr(cycles.PbarDecomposition, "__init__", counting_dec)
    monkeypatch.setattr(morphisms.SpinCarry, "__init__", counting_carry)
    for name in ("build_cyclic_poset", "build_spin_poset"):
        inner = getattr(verify, name)

        def in_phase(*args, _name=name, _inner=inner, **kwargs):
            phase[0] = _name
            try:
                return _inner(*args, **kwargs)
            finally:
                phase[0] = None

        monkeypatch.setattr(verify, name, in_phase)
    checks = {c["name"]: c for c in run_suites(g, n, "posets")}
    for field in ("decompositions", "carries"):
        assert checks["poset-cyclic"][field] == \
            built["build_cyclic_poset", field] == 0
        assert field not in checks["poset-graphs"]
    assert checks["poset-spin"]["decompositions"] == \
        built["build_spin_poset", "decompositions"] == decompositions
    assert checks["poset-spin"]["carries"] == \
        built["build_spin_poset", "carries"] == carries


@pytest.mark.parametrize("g,n,contractions,entries", [
    (2, 2, 193, 193), (3, 0, 92, 92)])
def test_graph_poset_record_counts_the_contraction_table(
        g, n, contractions, entries, monkeypatch):
    # the closure contracts one edge per orbit of each class's group on
    # edges, and the table holds that contraction as the orbit's one entry
    contracted = []
    contract = posets.contract

    def counting(graph, edge_set):
        contracted.append(graph)
        return contract(graph, edge_set)

    monkeypatch.setattr(posets, "contract", counting)
    checks = {c["name"]: c for c in run_suites(g, n, "posets")}
    record = checks["poset-graphs"]
    assert record["contractions"] == len(contracted) == contractions
    assert record["table_entries"] == entries
    for name in ("poset-cyclic", "poset-spin"):
        assert "contractions" not in checks[name]
        assert "table_entries" not in checks[name]


@pytest.mark.parametrize("g,n", [(2, 0), (2, 2)])
def test_functoriality_and_stratum_records_carry_coverage(g, n,
                                                          monkeypatch):
    # counted from the calls each check makes: one stratum_counts per
    # class, three sign folds per spin comparison (through c1, then c2,
    # and through c12) while the chains run, two boundary per square
    calls = {"stratum_counts": 0, "fold": 0, "boundary": 0}
    for name in ("stratum_counts", "boundary"):
        original = getattr(verify, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    chaining = [False]
    fold, chains = morphisms.SpinCarry.fold, verify.fuzz_contraction_chains

    def counting_fold(self, signs):
        calls["fold"] += chaining[0]
        return fold(self, signs)

    def in_chains(*args, **kwargs):
        chaining[0] = True
        try:
            return chains(*args, **kwargs)
        finally:
            chaining[0] = False

    monkeypatch.setattr(morphisms.SpinCarry, "fold", counting_fold)
    monkeypatch.setattr(verify, "fuzz_contraction_chains", in_chains)
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
    assert calls["fold"] == 3 * spin_compared
    assert calls["boundary"] == 2 * squares
    assert chains["pushforward-composition"]["chains"] == spin_compared \
        == 300
    # the weight-g vertex has no edge, so some chains make no square
    assert any(graph.n_edges == 0 for graph in classes)
    assert 0 < squares < 300


def _checked_chains(monkeypatch):
    """Record (id(graph), S1, S2, cyclic set, spin data, edge) for each
    chain ``verify.fuzz_contraction_chains`` checks."""
    checked = []
    original = verify._check_chain

    def recording(graph, table, s1, s2, p, s, e, done):
        original(graph, table, s1, s2, p, s, e, done)
        checked.append((id(graph), s1, s2, p.mask, s.data(), e))

    monkeypatch.setattr(verify, "_check_chain", recording)
    return checked


@pytest.mark.parametrize("g,n", [(2, 0), (2, 2), (3, 0)])
@pytest.mark.parametrize("seed", [0, 5])
def test_fuzz_chains_check_what_the_draw_order_loop_checks(g, n, seed,
                                                           monkeypatch):
    classes = posets.enumerate_stable_graphs(g, n)
    expected = []
    want = oracles.fuzz_contraction_chains(classes, 300, seed,
                                           record=expected)
    checked = _checked_chains(monkeypatch)
    got = verify.fuzz_contraction_chains(classes, 300, seed)
    assert Counter(checked) == Counter(expected)
    assert len(expected) == 300
    assert {k: got[k] for k in want} == want


def _contraction_pairs(monkeypatch, classes):
    """Record each Contraction built as (source, edge mask), naming a
    source that is a class graph by its id and any other source by the
    pair its contraction was built from."""
    built = []
    named = {id(c): ("class", id(c)) for c in classes}
    kept = []
    original = morphisms.Contraction.__init__

    def recording(self, source, contracted):
        original(self, source, contracted)
        pair = (named[id(source)], contracted.mask)
        named[id(self.target)] = pair
        kept.append(self)  # ids stay unique while named
        built.append(pair)

    monkeypatch.setattr(morphisms.Contraction, "__init__", recording)
    return built


def test_fuzz_chains_contract_each_distinct_pair_once(monkeypatch):
    # 1000 chains at (3,0), seed 0, need 1,346 distinct (graph, edge set)
    # pairs; the draw-order loop builds 3,000 contractions
    classes = posets.enumerate_stable_graphs(3, 0)
    built = _contraction_pairs(monkeypatch, classes)
    oracles.fuzz_contraction_chains(classes, 1000, 0)
    assert len(built) == 3000
    distinct = len(set(built))
    built.clear()
    done = verify.fuzz_contraction_chains(classes, 1000, 0)
    assert len(built) == len(set(built)) == distinct == \
        done["contractions"] == 1346


def test_fuzz_chains_raise_the_first_failure_in_draw_order(monkeypatch):
    # fail the first chain drawn on (class, edge) for two choices: the
    # later-drawn chain's class runs first, as classes run in order of
    # first draw; both loops must name the earlier-drawn chain
    classes = posets.enumerate_stable_graphs(2, 2)
    drawn = []
    oracles.fuzz_contraction_chains(classes, 300, 1, record=drawn)
    run_order, first = {}, {}
    for i, (graph, _, _, _, _, e) in enumerate(drawn):
        run_order.setdefault(graph, i)
        if e is not None:
            first.setdefault((graph, e), i)
    late, early = next(
        (late, early) for late in first.items() for early in first.items()
        if run_order[late[0][0]] < run_order[early[0][0]]
        and early[1] < late[1])
    failing = {late[0], early[0]}
    by_id = {id(c): c for c in classes}

    def failing_boundary(graph, edge_set, _original=verify.boundary):
        for at in failing:
            if graph is by_id[at[0]] and edge_set.indices() == (at[1],):
                raise VerificationError("injected failure",
                                        (f"edge={at[1]}",
                                         canonical_key(graph)))
        return _original(graph, edge_set)

    monkeypatch.setattr(verify, "boundary", failing_boundary)
    monkeypatch.setattr(oracles, "boundary", failing_boundary)
    errors = []
    for run in (oracles.fuzz_contraction_chains,
                verify.fuzz_contraction_chains):
        with pytest.raises(VerificationError) as err:
            run(classes, 300, 1)
        errors.append((str(err.value), err.value.witnesses))
    graph, e = early[0]
    assert errors[0] == errors[1] == (
        "injected failure", (f"edge={e}", canonical_key(by_id[graph])))


def test_fuzz_chains_guard_the_edges_a_contraction_keeps(monkeypatch):
    # a first step whose target keeps every edge of its source: the
    # second step's draw no longer matches the target it contracts
    theta = make_theta()
    drawn = []
    seed = 0
    while not drawn or drawn[0][1] == 0:
        drawn.clear()
        seed += 1
        oracles.fuzz_contraction_chains([theta], 1, seed, record=drawn)
    s1 = drawn[0][1]

    def keeping_contract(graph, edges, _original=verify.contract):
        c = _original(graph, edges)
        if graph is theta and edges.mask == s1:
            c = copy.copy(c)
            c.target = theta
        return c

    monkeypatch.setattr(verify, "contract", keeping_contract)
    kept = theta.n_edges - bin(s1).count("1")
    with pytest.raises(VerificationError) as err:
        verify.fuzz_contraction_chains([theta], 1, seed)
    assert str(err.value) == \
        f"contraction kept {theta.n_edges} edges, expected {kept}"
    assert err.value.witnesses == (canonical_key(theta), f"F={s1:x}")


def test_poset_stats_run_once_per_poset(monkeypatch):
    seen = []
    original = posets.Poset.components
    monkeypatch.setattr(posets.Poset, "components",
                        lambda self: seen.append(id(self))
                        or original(self))
    run_suites(3, 1, "posets")
    assert len(seen) == len(set(seen)) == 3


def test_failing_poset_stats_raise_on_every_call():
    poset = posets.build_graph_poset(2, 0)
    broken = poset_from_pairs(poset.kind, poset.g, poset.n, poset.nodes, ())
    for _ in range(2):
        with pytest.raises(VerificationError, match="disconnected"):
            posets.poset_stats(broken)
    assert posets.poset_stats(poset) is posets.poset_stats(poset)


def test_disconnected_poset_names_a_node_per_component():
    poset = posets.build_graph_poset(2, 0)
    broken = poset_from_pairs(poset.kind, poset.g, poset.n, poset.nodes, ())
    with pytest.raises(VerificationError,
                       match=r"graphs poset is disconnected \(7 components\)"
                       ) as info:
        posets.poset_stats(broken)
    assert info.value.witnesses == tuple(nd.key for nd in poset.nodes)


def test_rank_range_failure_names_a_node_at_each_end():
    # the genus-2 graph poset read as one of genus 3, whose top rank is 6
    poset = posets.build_graph_poset(2, 0)
    wrong = poset_from_pairs(poset.kind, 3, poset.n, poset.nodes,
                             poset.covers())
    with pytest.raises(VerificationError,
                       match=r"rank range 0\.\.3 differs from 0\.\.6"
                       ) as info:
        posets.poset_stats(wrong)
    assert info.value.witnesses == tuple(
        next(nd.key for nd in poset.nodes if nd.rank == r) for r in (0, 3))


@pytest.mark.parametrize("builder,message", [
    ("build_cyclic_poset", "spin cover does not map to a cyclic cover"),
    ("build_graph_poset", "cyclic cover does not map to a graph cover")])
def test_forgetful_map_without_an_image_cover_is_verification_error(
        builder, message, monkeypatch):
    # the target poset loses its last cover, so the covers above it have
    # no cover to map onto; the check reads, for each node, the nodes that
    # its image covers, and names the first node whose cover falls outside
    original = getattr(verify, builder)
    upper = []

    def thinned(*args, **kwargs):
        poset = original(*args, **kwargs)
        covers = list(poset.covers())
        upper.append(covers[-1][0])
        return poset_from_pairs(poset.kind, poset.g, poset.n, poset.nodes,
                                covers[:-1], poset.walk)

    monkeypatch.setattr(verify, builder, thinned)
    with pytest.raises(VerificationError, match=message) as info:
        run_suites(2, 0, "posets")
    # the named node maps onto the upper end of the dropped cover
    (key,) = info.value.witnesses
    target = original(2, 0)
    if builder == "build_cyclic_poset":
        rep = node_keyed(posets.build_spin_poset(2, 0), key).rep
        image = morphisms.cyclic_canonical_key(rep.graph, rep.spin.P)
    else:
        image = canonical_key(
            node_keyed(posets.build_cyclic_poset(2, 0), key).rep[0])
    assert [nd.key for nd in target.nodes].index(image) == upper[0]


def node_keyed(poset, key):
    """The node of ``poset`` keyed ``key``."""
    return next(nd for nd in poset.nodes if nd.key == key)


def without_first_top_node(poset):
    """``poset`` without the first node of its top rank, the covers
    renumbered, and that node's key."""
    top = max(nd.rank for nd in poset.nodes)
    drop = next(i for i, nd in enumerate(poset.nodes) if nd.rank == top)
    keep = [i for i in range(len(poset.nodes)) if i != drop]
    where = {old: new for new, old in enumerate(keep)}
    return poset_from_pairs(
        poset.kind, poset.g, poset.n, [poset.nodes[i] for i in keep],
        [(where[u], where[l]) for u, l in poset.covers()
         if drop not in (u, l)], poset.walk), poset.nodes[drop].key


@pytest.mark.parametrize("builder", ["build_cyclic_poset",
                                     "build_graph_poset"])
def test_forgetful_map_without_an_image_node_is_verification_error(
        builder, monkeypatch, capsys):
    # the target poset loses a top node, so some node above has no image;
    # the error names that node and the image key no node of the target has
    original = getattr(verify, builder)
    dropped = []

    def thinned(*args, **kwargs):
        poset, key = without_first_top_node(original(*args, **kwargs))
        dropped.append(key)
        return poset

    monkeypatch.setattr(verify, builder, thinned)
    with pytest.raises(VerificationError,
                       match="forgetful image is not a node of the") as info:
        run_suites(2, 0, "posets")
    source_key, image = info.value.witnesses
    assert image == dropped[-1]
    if builder == "build_cyclic_poset":
        rep = node_keyed(posets.build_spin_poset(2, 0), source_key).rep
        assert morphisms.cyclic_canonical_key(rep.graph, rep.spin.P) == image
    else:
        rep = node_keyed(posets.build_cyclic_poset(2, 0), source_key).rep
        assert canonical_key(rep[0]) == image
    # the CLI prints the failure record and exits 1, with no traceback
    assert main(["verify", "--g", "2", "--n", "0", "--suite", "posets"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "fail"
    assert record["error"].startswith("forgetful image is not a node")
    assert record["witnesses"] == [source_key, dropped[-1]]


@pytest.mark.parametrize("name,message", [
    ("cyclic_canonical_key",
     "even spin classes do not cover the cyclic poset"),
    ("canonical_key", "cyclic classes do not cover the graph poset")])
def test_forgetful_map_missing_a_node_names_it(name, message, monkeypatch):
    # every image of the last node is redirected to the first, so the
    # last node is left uncovered and is the one witness
    poset = (posets.build_cyclic_poset if name == "cyclic_canonical_key"
             else posets.build_graph_poset)(2, 0)
    first, last = poset.nodes[0].key, poset.nodes[-1].key
    original = getattr(verify, name)

    def redirected(*args):
        key = original(*args)
        return first if key == last else key

    monkeypatch.setattr(verify, name, redirected)
    with pytest.raises(VerificationError, match=message) as info:
        run_suites(2, 0, "posets")
    assert info.value.witnesses == (last,)


def test_order_test_disagreement_names_both_nodes(monkeypatch):
    # a witness search that never finds a witness disagrees with the
    # first sampled pair the poset orders; both of its nodes are named
    original = verify.order_test
    asked = []

    def never(upper, lower):
        asked.append((upper, lower))
        return None

    monkeypatch.setattr(verify, "order_test", never)
    with pytest.raises(VerificationError, match="^poset order disagrees "
                       "with the witness search$") as info:
        run_suites(2, 0, "posets")
    upper, lower = asked[-1]
    assert original(upper, lower) is not None
    assert info.value.witnesses == (canonical_key(upper),
                                    canonical_key(lower))


def test_direct_generator_disagreement_names_the_difference(monkeypatch):
    # the direct generator loses one class and finds one that is not a
    # class; the witnesses are both keys, sorted
    original = verify.stable_graphs_direct
    dropped = []

    def altered(g, n, *args):
        keys = original(g, n, *args)
        dropped.append(keys[0])
        return keys[1:] + ["not-a-class"]

    monkeypatch.setattr(verify, "stable_graphs_direct", altered)
    with pytest.raises(VerificationError, match="^downward closure "
                       "disagrees with the direct generator$") as info:
        run_suites(2, 0, "posets")
    assert info.value.witnesses == tuple(sorted([dropped[0],
                                                 "not-a-class"]))


def test_ground_truth_mismatch_names_the_count_and_input(monkeypatch):
    # the counts before the altered one pass; the altered one is reported
    # with what the posets give and what the table expects
    truth = dict(verify.GROUND_TRUTH[(2, 0)], spin_top_odd=4)
    monkeypatch.setitem(verify.GROUND_TRUTH, (2, 0), truth)
    with pytest.raises(VerificationError, match=r"^ground truth "
                       r"spin_top_odd at \(2,0\): got 3, expected 4$") as info:
        run_suites(2, 0, "posets")
    assert info.value.witnesses == ()


def test_collection_count_mismatch_names_the_graph(monkeypatch):
    # one ramification choice too many on the first basic graph with two
    # vertices or more: its key is the witness
    original = verify.g_collections
    seen = []

    def one_more(graph):
        seen.append(graph)
        report = original(graph)
        return dict(report, count=report["count"] + 1)

    monkeypatch.setattr(verify, "g_collections", one_more)
    classes = posets.enumerate_stable_graphs(3, 0)
    graph = next(g for g in classes if classify(g).basic
                 and len(g.vertices) >= 2)
    expected = 2 ** (graph.b1 + 2 * graph.total_weight() - 1)
    with pytest.raises(VerificationError, match=(
            f"^collection count {expected + 1} differs from odd-theta "
            f"count {expected}$")) as info:
        verify.suite_counts(3, classes)
    assert seen == [graph]
    assert info.value.witnesses == (canonical_key(graph),)


def test_cycle_pushforward_that_does_not_compose_names_the_set(
        theta, monkeypatch):
    # every second step of a chain pushes its cycle onto the empty set:
    # the first chain whose composite keeps an edge of its cyclic set
    # fails, naming the class and that set.  A chain pushes from the
    # class graph through the composite first, then through its first
    # step, so the failing composite push is the last but one recorded
    original = verify.push_cycle
    pushed = []

    def emptied(c, p):
        if c.source is not theta:
            return cycles.EdgeSet(c.target, 0)
        pushed.append((c, p))
        return original(c, p)

    monkeypatch.setattr(verify, "push_cycle", emptied)
    with pytest.raises(VerificationError, match="^cycle pushforward does "
                       "not compose$") as info:
        verify.fuzz_contraction_chains([theta], 50, 0)
    composite, p = pushed[-2]
    assert original(composite, p).mask != 0
    assert info.value.witnesses == (canonical_key(theta), p.hex())


def test_spin_pushforward_that_does_not_compose_names_the_class(
        theta, monkeypatch):
    # every second step of a chain folds its signs onto another vector,
    # its last component's sign flipped, so the first chain fails
    original = morphisms.SpinCarry.fold
    moved = []

    def elsewhere(self, signs):
        out = original(self, signs)
        if self.f.source is theta:
            return out
        moved.append(out)
        return out ^ 1

    monkeypatch.setattr(morphisms.SpinCarry, "fold", elsewhere)
    with pytest.raises(VerificationError, match="^spin pushforward does "
                       "not compose$") as info:
        verify.fuzz_contraction_chains([theta], 1, 0)
    assert len(moved) == 1
    assert info.value.witnesses == (canonical_key(theta),)


def test_boundary_square_that_does_not_commute_names_the_class(
        theta, monkeypatch):
    # the pushed boundary gains the target's first vertex, so the first
    # chain's square fails once its pushforwards have composed
    original = verify.push_vertex_set
    shifted = []

    def with_first_vertex(c, vertex_set):
        shifted.append(c)
        return original(c, vertex_set) ^ {c.target.vertices[0]}

    monkeypatch.setattr(verify, "push_vertex_set", with_first_vertex)
    with pytest.raises(VerificationError, match="^boundary square does "
                       "not commute$") as info:
        verify.fuzz_contraction_chains([theta], 1, 0)
    assert len(shifted) == 1 and shifted[0].source is theta
    assert info.value.witnesses == (canonical_key(theta),)


def test_top_rank_off_three_regularity_names_the_class(monkeypatch):
    # every class reads as 3-regular exactly when it is not, so the first
    # node of the graph poset fails whatever its rank
    original = verify.classify

    def flipped(graph):
        cls = original(graph)
        cls.three_regular = not cls.three_regular
        return cls

    monkeypatch.setattr(verify, "classify", flipped)
    with pytest.raises(VerificationError, match="^top rank does not "
                       "coincide with 3-regularity$") as info:
        run_suites(2, 0, "posets")
    assert info.value.witnesses == (
        posets.build_graph_poset(2, 0).nodes[0].key,)


@pytest.mark.parametrize("wrong", ["lift", "source"])
def test_refine_suite_names_a_witness_that_misses_the_target(wrong,
                                                             monkeypatch):
    # a lift of the other sign pushes onto the other full-set structure,
    # and a witness that contracts an equal copy of the refined graph
    # does not contract the refined graph itself; either way the first
    # eligible class is named with its sign
    original = verify.refine_nonbasic

    def refined_wrongly(graph, sign):
        if wrong == "lift":
            return original(graph, 1 - sign)
        sg, witness = original(graph, sign)
        copy = graphs.Graph.from_json_dict(
            sg.graph.to_json_dict(half_edges=True))
        assert copy == sg.graph
        return sg, morphisms.contract(copy, witness.contracted.indices())

    monkeypatch.setattr(verify, "refine_nonbasic", refined_wrongly)
    with pytest.raises(VerificationError, match="^refinement witness does "
                       "not push the lift onto the full-set structure$") \
            as info:
        run_suites(2, 1, "refine")
    first = next(graph for graph in posets.enumerate_stable_graphs(2, 1)
                 if classify(graph).eulerian and not classify(graph).basic)
    assert info.value.witnesses == (canonical_key(first), "sign=0")


def test_counts_suite_builds_no_graph_and_unites_each_set_once(monkeypatch):
    # theta divisors and stratum rows read the memoised decompositions:
    # no opened graph is built, and the one union-find per cyclic set is
    # the decomposition's own
    classes = posets.enumerate_stable_graphs(3, 0)
    built = []
    united = []
    original_init = graphs.Graph.__init__
    original_classes = cycles.connected_classes
    monkeypatch.setattr(graphs.Graph, "__init__",
                        lambda self, *a, **k: built.append(1)
                        or original_init(self, *a, **k))
    monkeypatch.setattr(cycles, "connected_classes",
                        lambda *a: united.append(1) or original_classes(*a))
    verify.suite_counts(3, classes)
    decompositions = sum(len(graph.__dict__["_pbar_decompositions"])
                         for graph in classes)
    assert built == []
    assert len(united) == decompositions == sum(
        len(cycles.enumerate_cyclic(graph)) for graph in classes)


@pytest.mark.parametrize("g,n,nodes,elements", [(2, 2, 449, 1308),
                                                (3, 0, 408, 2920)])
def test_aut_factorization_counts_stabilizer_elements(g, n, nodes, elements,
                                                      shared_classes):
    # the record's elements sum the orders of the node stabilizers it
    # checked, each counted again from the whole group one image at a
    # time, and its structures count the spin structures of every class
    from spinmod.spin import enumerate_spin

    classes = shared_classes(g, n)
    poset = posets.build_spin_poset(g, n, _classes=classes)
    checked, counted, structures = verify.check_aut_factorization(poset)
    assert checked == nodes
    assert counted == elements == sum(
        oracles.spin_stabilizer(nd.rep.graph, nd.rep.spin).order
        for nd in poset.nodes)
    assert structures == sum(len(enumerate_spin(graph)) for graph in classes)


def test_aut_factorization_needs_every_component_wise_element_fixing():
    # the component-wise subgroup is taken from the whole group, so a node
    # stabilizer that lost a component-wise element (here: cut down to the
    # identity's action class) no longer factors; at (1, 2) node 9 is the
    # first whose stabilizer holds one outside that class
    poset = posets.build_spin_poset(1, 2)
    assert verify.check_aut_factorization(poset)[0] == 13
    cut = SimpleNamespace(nodes=[
        SimpleNamespace(rep=nd.rep, key=nd.key, stabilizer=nd.stabilizer[:1])
        for nd in poset.nodes])
    with pytest.raises(VerificationError,
                       match="automorphism orders do not factor") as info:
        verify.check_aut_factorization(cut)
    assert info.value.witnesses == (poset.nodes[9].key,)


def test_aut_factorization_names_a_node_whose_stabilizer_moves_it(
        shared_classes):
    # a stabilizer holding every action class of its graph: at (3, 0)
    # node 266 is the first where some class carries a component of the
    # opened graph onto no component, so the quotient action cannot be
    # read; the check names the node rather than escaping as a KeyError
    poset = posets.build_spin_poset(3, 0, _classes=shared_classes(3, 0))
    nd = poset.nodes[266]
    whole = tuple(range(len(morphisms.automorphisms(nd.rep.graph).actions)))
    assert nd.stabilizer != whole
    moved = SimpleNamespace(nodes=[
        SimpleNamespace(rep=nd.rep, key=nd.key, stabilizer=whole)])
    with pytest.raises(VerificationError,
                       match="automorphism orders do not factor: .* onto "
                             "no component") as info:
        verify.check_aut_factorization(moved)
    assert info.value.witnesses == (nd.key,)


def test_aut_factorization_counts_the_spin_structures_of_each_class():
    # a node listed twice still factors, but the orbits of its class then
    # sum past the class's spin structures (Burnside), and the class is
    # named
    poset = posets.build_spin_poset(1, 2)
    nodes = list(poset.nodes)
    doubled = SimpleNamespace(nodes=nodes + nodes[-1:])
    with pytest.raises(VerificationError,
                       match="spin orbits do not count") as info:
        verify.check_aut_factorization(doubled)
    assert info.value.witnesses == (canonical_key(nodes[-1].rep.graph),)


@pytest.mark.parametrize("stray", ["other-parity", "other-class"])
def test_family_check_fires_on_a_generic_fiber_off_the_poset(monkeypatch,
                                                              stray):
    # the generic fiber swapped for a spin node of the other parity, or
    # for a spin graph with one leg fewer, which keys to no node
    poset = posets.build_spin_poset(1, 2)
    by_parity = {nd.parity: nd.rep for nd in poset.nodes}
    legless = posets.build_spin_poset(1, 1).nodes[-1].rep
    returned = []

    def generic_fiber(family):
        parity = family.spin_graph.spin.parity
        sg = by_parity[1 - parity] if stray == "other-parity" else legless
        returned.append(sg)
        return {"generic": sg}

    monkeypatch.setattr(verify, "family_generic_fiber", generic_fiber)
    with pytest.raises(VerificationError,
                       match="^generic fiber of a family is no spin node "
                             "of parity [01]$") as info:
        verify.fuzz_families(poset, count=1, seed=0)
    (sg,) = returned
    assert info.value.witnesses[1] == canonical_key(sg)
    assert info.value.witnesses[0] in {nd.key for nd in poset.nodes}
