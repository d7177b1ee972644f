import pytest

from spinmod import posets
from spinmod.errors import BudgetError, VerificationError
from spinmod.graphs import classify, is_stable
from spinmod.morphisms import canonical_key, order_test
from spinmod.posets import (build_cyclic_poset, build_graph_poset,
                            build_spin_poset, check_budget,
                            cyclic_canonical_key, enumerate_stable_graphs,
                            max_rank, poset_stats, stable_graphs_direct,
                            three_regular_graphs)


def test_three_regular_counts():
    assert len(three_regular_graphs(1, 1)) == 1
    assert len(three_regular_graphs(2, 0)) == 2
    assert len(three_regular_graphs(0, 3)) == 1
    # 3-regular classes of genus 3: a classical count
    assert len(three_regular_graphs(3, 0)) == 5


def test_three_regular_edge_count():
    for g, n in [(1, 1), (2, 0), (2, 1), (3, 0)]:
        for graph in three_regular_graphs(g, n):
            assert graph.n_edges == max_rank(g, n)
            assert classify(graph).three_regular


def test_enumerate_stable_counts():
    assert len(enumerate_stable_graphs(1, 1)) == 2
    assert len(enumerate_stable_graphs(2, 0)) == 7
    assert len(enumerate_stable_graphs(0, 3)) == 1
    assert enumerate_stable_graphs(0, 2) == []


def test_enumerate_matches_direct_generator():
    for g, n in [(1, 1), (0, 3), (2, 0), (1, 2), (2, 1), (1, 3), (0, 5),
                 (2, 2)]:
        closure = {canonical_key(x) for x in enumerate_stable_graphs(g, n)}
        direct = {canonical_key(x) for x in stable_graphs_direct(g, n)}
        assert closure == direct


def test_direct_generator_builds_only_stable_candidates(monkeypatch):
    # the integer prefilter must reject every candidate is_stable would
    # reject; the agreement test above shows it rejects no stable one
    verdicts = []

    def recording_is_stable(graph, semistable=False):
        verdict = is_stable(graph, semistable)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(posets, "is_stable", recording_is_stable)
    assert len(stable_graphs_direct(2, 2)) == 75
    assert verdicts and all(verdicts)


def test_unstable_contraction_is_verification_error(monkeypatch):
    seed, = three_regular_graphs(1, 1)
    monkeypatch.setattr(posets, "is_stable", lambda graph: False)
    with pytest.raises(VerificationError) as info:
        enumerate_stable_graphs(1, 1)
    assert info.value.witnesses == (canonical_key(seed), "edge=0")


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        enumerate_stable_graphs(5, 0)
    with pytest.raises(BudgetError):
        enumerate_stable_graphs(2, 0, budget_edges=2)
    check_budget(2, 0, budget_edges=3)


def test_graph_poset_20():
    poset = build_graph_poset(2, 0)
    stats = poset_stats(poset)
    assert stats["nodes"] == 7
    assert stats["components"] == 1
    assert stats["rank_histogram"] == {0: 1, 1: 2, 2: 2, 3: 2}


def test_spin_poset_11():
    poset = build_spin_poset(1, 1)
    stats = poset_stats(poset)
    assert stats["nodes"] == 5
    assert stats["components"] == 2
    assert stats["parity_split"] == {0: 3, 1: 2}


def test_spin_poset_03():
    poset = build_spin_poset(0, 3)
    stats = poset_stats(poset)
    assert stats["nodes"] == 1
    assert stats["components"] == 1
    assert poset.nodes[0].parity == 0


def test_spin_poset_20_maximal_nodes():
    poset = build_spin_poset(2, 0)
    top = [nd for nd in poset.nodes if nd.rank == 3]
    assert len(top) == 9
    assert sum(1 for nd in top if nd.parity == 0) == 6
    assert sum(1 for nd in top if nd.parity == 1) == 3


def test_purity_every_node_below_a_top_node():
    for g, n in [(1, 1), (2, 0), (1, 2)]:
        poset = build_spin_poset(g, n)
        tops = [i for i, nd in enumerate(poset.nodes)
                if nd.rank == max_rank(g, n)]
        covered = set()
        for t in tops:
            covered |= poset.descendants(t)
        assert covered == set(range(len(poset.nodes)))


def test_top_rank_is_three_regular():
    poset = build_graph_poset(2, 0)
    for nd in poset.nodes:
        assert (nd.rank == max_rank(2, 0)) == classify(nd.rep).three_regular


def test_cyclic_poset_connected():
    for g, n in [(1, 1), (2, 0)]:
        stats = poset_stats(build_cyclic_poset(g, n))
        assert stats["components"] == 1


def test_forgetful_maps_monotone_surjective():
    g, n = 2, 0
    spin_poset = build_spin_poset(g, n)
    cyc_poset = build_cyclic_poset(g, n)
    graph_poset = build_graph_poset(g, n)

    def to_cyclic(nd):
        return cyc_poset.index[
            cyclic_canonical_key(nd.rep.graph, nd.rep.spin.P)]

    def to_graph_from_cyc(nd):
        return graph_poset.index[canonical_key(nd.rep[0])]

    even_nodes = [nd for nd in spin_poset.nodes if nd.parity == 0]
    # surjectivity onto the cyclic poset from the even part
    assert {to_cyclic(nd) for nd in even_nodes} == \
        set(range(len(cyc_poset.nodes)))
    assert {to_graph_from_cyc(nd) for nd in cyc_poset.nodes} == \
        set(range(len(graph_poset.nodes)))
    # covers map to covers
    spin_idx = {nd.key: to_cyclic(nd) for nd in spin_poset.nodes}
    for u, l in spin_poset.covers:
        cu = spin_idx[spin_poset.nodes[u].key]
        cl = spin_idx[spin_poset.nodes[l].key]
        assert (cu, cl) in set(cyc_poset.covers)


def test_open_removal_components_stable_over_enumeration():
    # every component of an open removal of a stable graph is stable
    from conftest import subgraph_on
    from spinmod.graphs import is_stable, remove_edges
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1)]:
        for graph in enumerate_stable_graphs(g, n):
            for mask in range(2 ** graph.n_edges):
                f = [i for i in range(graph.n_edges) if mask >> i & 1]
                opened = remove_edges(graph, f, open=True)
                for comp in opened.components:
                    assert is_stable(subgraph_on(opened, comp))


def test_cycle_space_size_over_enumeration():
    from spinmod.cycles import EdgeSet, boundary, enumerate_cyclic
    for graph in enumerate_stable_graphs(2, 0):
        spanned = {p.mask for p in enumerate_cyclic(graph)}
        brute = {m for m in range(2 ** graph.n_edges)
                 if not boundary(graph, EdgeSet(graph, m))}
        assert spanned == brute
        assert len(spanned) == 2 ** graph.b1


def test_canonical_keys_separate_enumerated_classes():
    # all-pairs brute-force isomorphism search over whole enumerated sets:
    # distinct classes never share a key, and every class survives a
    # random relabeling of its representative
    import itertools
    import random

    from test_morphisms import brute_force_isomorphic, relabel

    rng = random.Random(5)
    for g, n in [(2, 1), (2, 2)]:
        classes = enumerate_stable_graphs(g, n)
        for a, b in itertools.combinations(classes, 2):
            assert not brute_force_isomorphic(a, b)
            assert canonical_key(a) != canonical_key(b)
        for graph in classes:
            ids = list(graph.vertices)
            shuffled = rng.sample(range(20, 20 + 2 * len(ids)), len(ids))
            perm = dict(zip(ids, shuffled))
            assert canonical_key(relabel(graph, perm, seed=rng.randrange(99))) \
                == canonical_key(graph)


def test_spin_orbit_counts_match_burnside():
    # independent count of spin orbits: average number of fixed points
    from spinmod.morphisms import automorphisms
    from spinmod.spin import enumerate_spin

    for g, n in [(1, 1), (2, 0), (2, 1)]:
        for graph in enumerate_stable_graphs(g, n):
            group = automorphisms(graph)
            spins = enumerate_spin(graph)
            orbits = {min(a.act_spin(s).data()
                          for a in group.elements) for s in spins}
            fixed = sum(1 for a in group.elements for s in spins
                        if a.act_spin(s).data() == s.data())
            assert len(orbits) * group.order == fixed


@pytest.mark.parametrize("g,n", [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_orbit_representatives_are_orbit_minima(g, n):
    # against the formula the poset builders used before: keep the first
    # item whose orbit minimum is new
    from spinmod.cycles import enumerate_cyclic
    from spinmod.morphisms import automorphisms
    from spinmod.spin import SpinStructure, enumerate_spin

    for graph in enumerate_stable_graphs(g, n):
        group = automorphisms(graph)
        cyclic = enumerate_cyclic(graph)
        by_min = {}
        for p in cyclic:
            orbit = sorted(a.act_mask(p.mask) for a in group.elements)
            by_min.setdefault(orbit[0], p)
        reps = group.orbit_representatives(
            cyclic, lambda p: p.mask, lambda a, p: a.act_mask(p.mask))
        assert [p.mask for p in reps] == [p.mask for p in by_min.values()]

        spins = enumerate_spin(graph)
        by_min = {}
        for s in spins:
            orbit = sorted(a.act_spin(s).data() for a in group.elements)
            by_min.setdefault(orbit[0], s)
        reps = group.orbit_representatives(
            spins, SpinStructure.data, lambda a, s: a.act_spin(s).data())
        assert [s.data() for s in reps] == \
            [s.data() for s in by_min.values()]


def test_spin_orbit_step_acts_once_per_orbit_and_element(monkeypatch):
    # each class costs (number of spin orbits) x |Aut| images, not
    # (number of spin structures) x |Aut|
    from collections import Counter

    from spinmod.morphisms import Aut, automorphisms

    classes = enumerate_stable_graphs(2, 1)
    calls = Counter()
    original = Aut.act_spin

    def counting(self, spin):
        calls[id(self.graph)] += 1
        return original(self, spin)

    monkeypatch.setattr(Aut, "act_spin", counting)
    poset = build_spin_poset(2, 1, _classes=classes)
    monkeypatch.undo()
    orbits = Counter(id(nd.rep.graph) for nd in poset.nodes)
    assert calls == {id(rep): orbits[id(rep)] * automorphisms(rep).order
                     for rep in classes}


def test_poset_order_matches_order_test():
    poset = build_spin_poset(2, 0)
    pairs = [(0, 3), (3, 0), (5, 2), (8, 1), (7, 7), (2, 6), (6, 2),
             (len(poset.nodes) - 1, 0), (0, len(poset.nodes) - 1)]
    for i, j in pairs:
        a, b = poset.nodes[i], poset.nodes[j]
        expected = poset.leq(i, j)
        witness = order_test(a.rep, b.rep)
        assert (witness is not None) == expected, (i, j)
