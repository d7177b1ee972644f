import re
from types import SimpleNamespace

import pytest

from spinmod import spin as spin_module
from spinmod.cycles import EdgeSet, enumerate_cyclic, pbar_decompose
from spinmod.errors import DomainError, InputError, VerificationError
from spinmod.graphs import Graph, canonical_divisor
from spinmod.morphisms import (automorphisms, canonical_key, contract,
                               push_spin)
from spinmod.spin import (SpinGraph, SpinStructure, enumerate_spin,
                          g_collections, refine_nonbasic, spin_count_check,
                          stratum_counts, theta_divisors)

from conftest import (make_dumbbell, make_loop_chain, make_one_loop_one_leg,
                      make_rose, make_theta, make_two_loops,
                      make_weight_vertex)
import key_oracle
import oracles


def spin(graph, indices, signs):
    return SpinStructure(graph, EdgeSet.from_indices(graph, indices), signs)


def by_parity(structures):
    even = [s for s in structures if s.parity == 0]
    odd = [s for s in structures if s.parity == 1]
    return even, odd


def test_enumerate_theta(theta):
    all_spins = enumerate_spin(theta)
    even, odd = by_parity(all_spins)
    assert (len(all_spins), len(even), len(odd)) == (7, 4, 3)


def test_enumerate_dumbbell(dumbbell):
    all_spins = enumerate_spin(dumbbell)
    even, odd = by_parity(all_spins)
    assert (len(all_spins), len(even), len(odd)) == (9, 5, 4)


def test_enumerate_weight_vertex():
    g = make_weight_vertex(3, 1)
    all_spins = enumerate_spin(g)
    assert len(all_spins) == 2
    assert sorted(s.parity for s in all_spins) == [0, 1]
    assert all(s.P.mask == 0 for s in all_spins)


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_enumeration_matches_the_validated_structures(g, n, shared_classes):
    # the fibres flattened through ``over`` give, in order, what each
    # cyclic set's sign vectors give through the validating constructor,
    # sorted by data; the fuzz chains draw structures by position here
    for graph in shared_classes(g, n):
        validated = sorted(
            (SpinStructure(graph, p, signs) for p in enumerate_cyclic(graph)
             for signs in spin_module.sign_vectors(pbar_decompose(graph, p))),
            key=SpinStructure.data)
        assert [(s.data(), s.parity) for s in enumerate_spin(graph)] == \
            [(s.data(), s.parity) for s in validated]


def test_pushed_structures_match_the_validated_ones():
    # a pushforward builds its image over the carry's decomposition,
    # unchecked; the validating constructor accepts the same data
    graph = make_loop_chain()
    for f in range(1, 1 << graph.n_edges):
        c = contract(graph, EdgeSet(graph, f))
        for s in enumerate_spin(graph):
            out = push_spin(c, s)
            again = SpinStructure(c.target, EdgeSet(c.target, out.P.mask),
                                  out.signs)
            assert out == again
            assert (out.parity, out.dec) == (again.parity, again.dec)


def test_sign_constraint():
    g = make_one_loop_one_leg()
    with pytest.raises(DomainError):
        SpinStructure(g, EdgeSet(g, 0), (1,))  # genus-0 component


def test_spin_count_check_theta(theta):
    report = spin_count_check(theta)
    assert report["total"] == 7
    assert report["lower_bound"] == 7
    assert report["bound_tight"]


def test_spin_count_check_dumbbell(dumbbell):
    report = spin_count_check(dumbbell)
    assert report["total"] == 9
    assert report["lower_bound"] == 7
    assert not report["bound_tight"]


def test_spin_count_check_weight_vertex():
    report = spin_count_check(make_weight_vertex(2))
    assert report["total"] == 2
    assert report["lower_bound"] == 1


def test_spin_count_larger():
    for g in [make_rose(3), make_loop_chain(), make_two_loops()]:
        report = spin_count_check(g)
        assert report["total"] == sum(r["count"] for r in report["per_cyclic"])


def bumping(bump):
    """A stand-in for ``pbar_decompose`` whose record gives one more genus
    to the first component for which ``bump(weight, genus)`` holds."""
    from spinmod.cycles import PbarDecomposition

    original = spin_module.pbar_decompose

    def bumped(graph, p):
        dec = original(graph, p)
        weights = [0] * len(dec)
        for v, i in zip(graph.vertices, dec.component):
            weights[i] += graph.weight[v]
        i = next((i for i, (w, genus) in enumerate(zip(weights, dec.genera))
                  if bump(w, genus)), None)
        if i is None:
            return dec
        out = object.__new__(PbarDecomposition)
        out.graph, out.mask, out.component = graph, dec.mask, dec.component
        out.genera = dec.genera[:i] + (dec.genera[i] + 1,) + dec.genera[i + 1:]
        assert out.c_plus == dec.c_plus
        return out

    return bumped


@pytest.mark.parametrize("g,n", [(1, 1), (2, 1), (3, 0)])
def test_parity_weighted_count_fails_on_a_bumped_genus(g, n, monkeypatch):
    # a record that gives one more genus to the first component of
    # positive genus without a cycle inside (genus = weight): c_+ does not
    # move, so the parity split, the bound and its tightness still pass,
    # and only the parity-weighted identity fails, naming the class.  (On
    # a component with cycles the bump is invisible to the identity: its
    # factor 2^(2w + b1 - 1) times the scale's 2^-b1 does not read b1.)
    from spinmod.posets import enumerate_stable_graphs

    bumped = bumping(lambda w, genus: genus == w > 0)
    failed = 0
    for graph in enumerate_stable_graphs(g, n):
        spin_count_check(graph)
        if graph.total_weight() == 0:
            continue
        monkeypatch.setattr(spin_module, "pbar_decompose", bumped)
        with pytest.raises(VerificationError,
                           match="parity-weighted spin count") as info:
            spin_count_check(graph)
        monkeypatch.undo()
        assert info.value.witnesses == (canonical_key(graph),)
        failed += 1
    assert failed


def test_parity_split_fails_on_a_set_without_positive_genus(theta,
                                                          monkeypatch):
    # a record that finds no component of positive genus over the first
    # nonempty cyclic set of the weightless theta graph: c_+ = 0 is only
    # allowed over the empty set of a weightless graph, so its one even
    # structure differs from the split the set must have
    real = spin_module.pbar_decompose
    monkeypatch.setattr(spin_module, "pbar_decompose",
                        lambda graph, p: SimpleNamespace(c_plus=0)
                        if p.mask else real(graph, p))
    first = next(p for p in enumerate_cyclic(theta) if p.mask)
    with pytest.raises(VerificationError, match="^" + re.escape(
            "parity split (1, 0) from c_+ = 0: c_+ must be 0 exactly over "
            "the empty set of a weightless graph") + "$") as info:
        spin_count_check(theta)
    assert info.value.witnesses == (canonical_key(theta), f"P={first.hex()}")


def test_parity_split_fails_on_the_empty_set_with_positive_genus(
        theta, monkeypatch):
    # a record that finds one component of positive genus over the empty
    # set of the weightless theta graph, where c_+ must be 0
    real = spin_module.pbar_decompose
    monkeypatch.setattr(spin_module, "pbar_decompose",
                        lambda graph, p: real(graph, p)
                        if p.mask else SimpleNamespace(c_plus=1))
    with pytest.raises(VerificationError, match="^" + re.escape(
            "parity split (1, 1) from c_+ = 1: c_+ must be 0 exactly over "
            "the empty set of a weightless graph") + "$") as info:
        spin_count_check(theta)
    assert info.value.witnesses == (canonical_key(theta), "P=0")


def test_spin_count_below_the_lower_bound_names_the_class(theta,
                                                          monkeypatch):
    # an enumeration that finds the empty set alone: its one structure is
    # fewer than the 2^(b1 + 1) - 1 = 7 the theta graph carries at least
    real = spin_module.enumerate_cyclic
    monkeypatch.setattr(spin_module, "enumerate_cyclic",
                        lambda graph: [p for p in real(graph) if not p.mask])
    with pytest.raises(VerificationError,
                       match="^total 1 is below the lower bound 7$") as info:
        spin_count_check(theta)
    assert info.value.witnesses == (canonical_key(theta),)


def test_bound_tightness_fails_on_a_repeated_cyclic_set(theta, monkeypatch):
    # an enumeration that lists the last cycle twice: 9 structures on a
    # weightless graph whose nonempty cyclic sets all have c_+ = 1, which
    # the characterization says meet the bound 7 exactly
    real = spin_module.enumerate_cyclic

    def repeated(graph):
        sets = list(real(graph))
        return sets + sets[-1:]

    monkeypatch.setattr(spin_module, "enumerate_cyclic", repeated)
    with pytest.raises(VerificationError, match="^" + re.escape(
            "bound tightness mismatch: total=9, bound=7, characterization "
            "predicts tight=True") + "$") as info:
        spin_count_check(theta)
    assert info.value.witnesses == (canonical_key(theta),)


@pytest.mark.parametrize("g,n", [(2, 0), (3, 0)])
def test_component_genus_check_fails_on_a_bumped_cycle(g, n, monkeypatch):
    # a record that gives one more genus to the first component with a
    # cycle inside: the identity cannot see it, and on a weightless class
    # nothing else does, so the per-component check fails, naming the
    # class and the first cyclic set whose record is off
    from spinmod.posets import enumerate_stable_graphs

    bumped = bumping(lambda w, genus: genus > w)
    failed = 0
    for graph in enumerate_stable_graphs(g, n):
        if graph.total_weight() or not graph.b1:
            continue
        monkeypatch.setattr(spin_module, "pbar_decompose", bumped)
        with pytest.raises(VerificationError,
                           match="genus other than its weight") as info:
            spin_count_check(graph)
        monkeypatch.undo()
        first = next(p for p in enumerate_cyclic(graph) if p.mask)
        assert info.value.witnesses == (canonical_key(graph),
                                        f"P={first.hex()}")
        failed += 1
    assert failed


def test_theta_divisor_theta_graph(theta):
    (t,) = theta_divisors(theta, [EdgeSet.from_indices(theta, [0, 1])])
    assert [t.vertex_divisor[v] for v in theta.vertices] == [0, 0]
    assert t.midpoint_edges == (2,)
    assert t.degree == 1


def test_theta_divisor_weight_vertex():
    g = make_weight_vertex(3)
    (t,) = theta_divisors(g, [EdgeSet(g, 0)])
    assert t.vertex_divisor[0] == 2
    assert t.degree == 2


def test_theta_divisor_dumbbell(dumbbell):
    (t,) = theta_divisors(dumbbell, [EdgeSet.from_indices(dumbbell, [0, 1])])
    assert [t.vertex_divisor[v] for v in dumbbell.vertices] == [0, 0]
    assert t.midpoint_edges == (2,)
    assert t.degree == 1


def test_theta_divisor_identities():
    for g in [make_theta(), make_dumbbell(), make_loop_chain(), make_rose(3)]:
        cyclic = enumerate_cyclic(g)
        for p, t in zip(cyclic, theta_divisors(g, cyclic), strict=True):
            pbar = oracles.opened_graph(g, p)
            k = canonical_divisor(pbar)
            assert all(2 * t.vertex_divisor[v] == k[v] for v in pbar.vertices)
            assert t.degree == g.genus - 1


def test_stratum_counts_theta(theta):
    sc = stratum_counts(theta)
    assert [r["total"] for r in sc.rows] == [4, 4, 4, 4]
    assert sc.grand_total == 16


def test_stratum_counts_weight_vertex():
    g = make_weight_vertex(2)
    sc = stratum_counts(g)
    assert len(sc.rows) == 1
    assert sc.rows[0]["points"] == 16
    assert sc.rows[0]["length"] == 1
    assert sc.grand_total == 16


def test_stratum_counts_dumbbell(dumbbell):
    sc = stratum_counts(dumbbell)
    assert sc.grand_total == 16
    full = [r for r in sc.rows if r["P"] == "3"][0]
    assert full["parity_split"] is None  # spanned subgraph disconnected
    loop = [r for r in sc.rows if r["P"] == "1"][0]
    assert loop["parity_split"] == (1, 1)


def test_stratum_counts_requires_stable():
    with pytest.raises(DomainError):
        stratum_counts(make_rose(1))


def test_g_collections_loop_chain():
    g = make_loop_chain()
    out = g_collections(g)
    assert set(out["index_sets"]) == {0, 1}
    assert out["count"] == 4
    assert out["count"] == 2 ** (g.b1 + 2 * g.total_weight() - 1)


def test_g_collections_two_loops():
    out = g_collections(make_two_loops())
    assert out["count"] == 2
    assert list(out["index_sets"].values()) == [(1, 2)]


def test_g_collections_weight_one_loop():
    g = Graph.build([(0, 1)], [(0, 0)])
    out = g_collections(g)
    assert out["count"] == 4
    assert list(out["index_sets"].values()) == [(1, 2, 3, 4)]


def test_g_collections_rejects_non_basic(theta):
    with pytest.raises(DomainError):
        g_collections(theta)


# -- refinement ---------------------------------------------------------------

def check_refinement(graph, sign):
    sg, witness = refine_nonbasic(graph, sign)
    split = sg.graph
    assert split.n_edges == graph.n_edges + 1
    assert split.b1 == graph.b1
    assert witness.source == split
    pushed = push_spin(witness, sg.spin)
    target = SpinGraph(graph, SpinStructure(
        graph, EdgeSet.full(graph), (sign,)))
    assert canonical_key(SpinGraph(witness.target, pushed)) == \
        canonical_key(target)
    full = automorphisms(split)
    fixing = oracles.spin_stabilizer(split, sg.spin)
    assert full.order == fixing.order
    return sg


def test_refine_rose3():
    sg = check_refinement(make_rose(3), 1)
    split = sg.graph
    assert len(split.vertices) == 2
    assert sorted(split.w(v) for v in split.vertices) == [0, 0]
    # two parallel edges between the vertices, one loop at each
    assert split.multiplicity[tuple(sorted(split.vertices))] == 2
    assert sg.spin.P.mask == (1 << split.n_edges) - 1


def test_refine_deg4_no_loop():
    # 4-fold banana: one vertex of degree 4 with no loop on each side
    g = Graph.build([(0, 0), (1, 0)], [(0, 1)] * 4)
    sg = check_refinement(g, 0)
    split = sg.graph
    odd = [v for v in split.vertices if split.deg(v) % 2]
    assert len(odd) == 2
    assert len(sg.spin.P) == split.n_edges - 1


def test_refine_weight2_loop():
    g = Graph.build([(0, 2)], [(0, 0)])
    sg = check_refinement(g, 1)
    split = sg.graph
    assert sorted(split.w(v) for v in split.vertices) == [1, 1]
    assert split.n_edges == 2


def test_refine_rejects_basic():
    with pytest.raises(DomainError):
        refine_nonbasic(make_two_loops(), 0)


def test_refine_rejects_non_eulerian(theta):
    with pytest.raises(DomainError):
        refine_nonbasic(theta, 0)


def test_refine_both_signs():
    for sign in (0, 1):
        check_refinement(make_rose(3), sign)
        check_refinement(Graph.build([(0, 1)], [(0, 0), (0, 0)]), sign)


@pytest.mark.parametrize("g,n", [(2, 1), (3, 0), (2, 2), (3, 1), (2, 3)])
def test_refinement_lookups_match_keyed_postconditions(g, n, monkeypatch):
    # every split the refinement tries gets the lift, or none, that
    # keying every structure finds, so the first success, its lift and
    # its witness are the same
    from spinmod.graphs import classify
    from spinmod.posets import enumerate_stable_graphs

    lookup = spin_module._unique_lift
    judged = []
    target_key = [None]

    def compared(split, graph, sign):
        got = lookup(split, graph, sign)
        want = oracles.keyed_unique_lift(split, graph, target_key[0])
        assert (None if got is None else got[0].spin.data()) == want
        if got is not None:
            assert got[1].source is split
            assert got[1].contracted.mask == 1 << (split.n_edges - 1)
        judged.append(got is not None)
        return got

    monkeypatch.setattr(spin_module, "_unique_lift", compared)
    refined = 0
    for graph in enumerate_stable_graphs(g, n):
        cls = classify(graph)
        if not (cls.eulerian and not cls.basic and graph.genus >= 2
                and graph.n_edges > 0):
            continue
        for sign in (0, 1):
            target_key[0] = key_oracle.spin_key(SpinGraph(graph, SpinStructure(
                graph, EdgeSet.full(graph), (sign,))))
            refine_nonbasic(graph, sign)
            refined += 1
    assert refined and judged.count(True) == refined


def test_refinement_walks_no_orbit_and_keys_nothing(monkeypatch):
    # the target's orbit is the target alone and the contractions onto
    # the input's class are found by certificate, so refining every
    # eligible class of (3,0) with both signs walks no spin orbit and
    # computes no key
    from spinmod import morphisms, orbits
    from spinmod.graphs import classify
    from spinmod.posets import enumerate_stable_graphs

    eligible = []
    for graph in enumerate_stable_graphs(3, 0):
        cls = classify(graph)
        if (cls.eulerian and not cls.basic and graph.genus >= 2
                and graph.n_edges > 0):
            eligible.append(graph)

    def forbidden(*args):
        raise AssertionError("called during refinement")

    monkeypatch.setattr(orbits, "spin_orbit", forbidden)
    monkeypatch.setattr(morphisms, "canonical_key", forbidden)
    refined = 0
    for graph in eligible:
        for sign in (0, 1):
            refine_nonbasic(graph, sign)
            refined += 1
    assert refined == 8


def test_refinement_without_a_unique_lift_names_the_input(monkeypatch):
    # no split of the rose admits a unique lift: every candidate is
    # tried, and the input's key names it
    graph = make_rose(3)
    tried = sum(1 for v in graph.vertices
                for _ in spin_module._refinement_candidates(graph, v))
    monkeypatch.setattr(spin_module, "_unique_lift",
                        lambda split, graph, sign: None)
    with pytest.raises(VerificationError, match=f"^no refinement found "
                       f"after {tried} candidates$") as info:
        refine_nonbasic(graph, 0)
    assert tried > 0
    assert info.value.witnesses == (canonical_key(graph),)


def test_spin_structure_hash_matches_eq():
    a = spin(make_theta(), [0, 1], (1,))
    b = spin(make_theta(), [0, 1], (1,))
    assert a.graph is not b.graph and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_odd_opened_degree_is_verification_error(theta, monkeypatch):
    # a decomposition step that lets a non-cyclic set through: one edge of
    # the theta graph gives both vertices degree 1 in the opened graph
    monkeypatch.setattr(spin_module, "pbar_decompose", lambda graph, p: None)
    with pytest.raises(VerificationError,
                       match="vertex 0 has odd degree 1 in the opened graph"
                       ) as info:
        theta_divisors(theta, [EdgeSet(theta, 0b001)])
    assert info.value.witnesses == (canonical_key(theta), "P=1")


def test_theta_against_a_canonical_divisor_off_the_pass(one_loop_one_leg,
                                                        monkeypatch):
    # a degree that counts legs too: the canonical divisor less the opened
    # half-edges no longer matches the pass over the edges at the leg's
    # vertex
    key = canonical_key(one_loop_one_leg)
    monkeypatch.setattr(Graph, "deg",
                        lambda graph, v: len(graph.half_edges_at(v)))
    with pytest.raises(VerificationError,
                       match="doubled theta value 0 differs from the "
                             "canonical divisor value 1 at vertex 0"
                       ) as info:
        theta_divisors(one_loop_one_leg, [EdgeSet(one_loop_one_leg, 1)])
    assert info.value.witnesses == (key, "P=1")


def test_theta_degree_against_a_wrong_genus(theta):
    key = canonical_key(theta)
    theta.__dict__["genus"] = 3
    with pytest.raises(VerificationError,
                       match="theta degree 1 differs from g - c = 2") as info:
        theta_divisors(theta, [EdgeSet(theta, 0b011)])
    assert info.value.witnesses == (key, "P=3")


class _OffByOneSum(int):
    """An integer whose sums come out one too large."""

    def __add__(self, other):
        return int(self) + other + 1


def test_stratum_total_failure_names_the_class_and_set(theta):
    # the row total is an identity of exponents, so only a Betti number
    # read inconsistently can fail it: here its sum is off by one
    key = canonical_key(theta)
    theta.__dict__["b1"] = _OffByOneSum(theta.b1)
    with pytest.raises(VerificationError,
                       match="stratum total 4 differs") as info:
        stratum_counts(theta)
    assert info.value.witnesses == (key, "P=0")


def test_stratum_grand_total_failure_names_the_class(theta):
    key = canonical_key(theta)
    theta.__dict__["genus"] = 3
    with pytest.raises(VerificationError,
                       match="grand total 16 differs from 2") as info:
        stratum_counts(theta)
    assert info.value.witnesses == (key,)


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_theta_and_strata_match_the_opened_graph(g, n, shared_classes):
    # every cyclic set of every class, against the opened graph built by
    # its definition: theta values from its degrees and weights, b1(P) from
    # its components, and the parity split when P's edges lie in one of
    # them
    for graph in shared_classes(g, n):
        w = graph.total_weight()
        rows = stratum_counts(graph).rows
        cyclic = enumerate_cyclic(graph)
        assert [r["P"] for r in rows] == [p.hex() for p in cyclic]
        for p, row, t in zip(cyclic, rows, theta_divisors(graph, cyclic),
                             strict=True):
            opened = oracles.opened_graph(graph, p)
            assert t.vertex_divisor.values == {
                v: opened.w(v) - 1 + opened.deg(v) // 2
                for v in opened.vertices}
            assert t.midpoint_edges == tuple(
                i for i in range(graph.n_edges) if i not in p)
            assert t.degree == graph.genus - 1
            component = {v: k for k, vs in enumerate(opened.components)
                         for v in vs}
            met = {component[opened.edge_vertices(i)[0]]
                   for i in range(opened.n_edges)}
            points = 2 ** (opened.b1 + 2 * w)
            assert row == {
                "P": p.hex(), "b1_P": opened.b1, "points": points,
                "length": 2 ** (graph.b1 - opened.b1),
                "total": 2 ** (graph.b1 + 2 * w),
                "parity_split": ((points // 2, points // 2)
                                 if opened.b1 and len(met) == 1 else None)}


@pytest.mark.parametrize("make,indices,written,spelling", [
    (make_theta, [0, 1], "3", " 3 "),
    (make_theta, [0, 1], "3", "0x3"),
    (make_theta, [0, 1], "3", "0_3"),
    (make_theta, [0, 1], "3", "+3"),
    (make_theta, [0, 1], "3", "03"),
    (make_theta, [0, 1], "3", "\uff13"),
    (make_theta, [0, 1], "3", ""),
    (make_theta, [0, 1], "3", 3),
    (lambda: make_rose(4), range(4), "f", "F"),
    (lambda: make_rose(4), range(4), "f", "0f"),
])
def test_spin_json_reads_the_mask_only_as_hex_writes_it(make, indices,
                                                         written, spelling):
    graph = make()
    spin = SpinStructure(graph, EdgeSet.from_indices(graph, indices), (0,))
    data = spin.to_json_dict()
    assert data["P"] == written
    assert SpinStructure.from_json_dict(graph, data) == spin
    data["P"] = spelling
    with pytest.raises(InputError, match="'P'"):
        SpinStructure.from_json_dict(graph, data)
