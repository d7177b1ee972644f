import pytest

from spinmod import posets
from spinmod.cycles import EdgeSet, enumerate_cyclic, pbar_decompose
from spinmod.errors import BudgetError, InputError, VerificationError
from spinmod.graphs import classify, is_stable
from spinmod.morphisms import (AutGroup, automorphisms, canonical_key,
                               cyclic_canonical_key, order_test)
from spinmod.posets import (PosetNode, build_cyclic_poset, build_graph_poset,
                            build_spin_poset, check_budget,
                            enumerate_stable_graphs, max_rank, poset_stats,
                            stable_graphs_direct, three_regular_graphs)
from spinmod.spin import SpinGraph, SpinStructure, sign_tuple, sign_vectors

from conftest import (make_rose, poset_from_pairs, shuffled,
                      without_covers_into)
import key_oracle
import oracles


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


@pytest.mark.parametrize("g,n", [(1, 3), (0, 5), (0, 6), (2, 0), (2, 1),
                                 (2, 2), (2, 3), (3, 0), (3, 1)])
def test_three_regular_seeds_match_every_assignment(g, n):
    # one leg assignment per grouping of the legs meets every class, and
    # first at the graph the full product of assignments meets first
    def as_json(graphs):
        return [graph.to_json_dict(half_edges=True) for graph in graphs]

    assert as_json(three_regular_graphs(g, n)) == \
        as_json(oracles.three_regular_graphs(g, n))


def test_three_regular_seeding_builds_once_per_class(monkeypatch):
    # one graph per class at (3,1): of the 269 candidates of its one leg
    # pattern, the disconnected ones and the relabellings of a kept one
    # are skipped unbuilt (1,345 candidates over every assignment)
    from spinmod.graphs import Graph

    built = []
    original = Graph.build.__func__
    monkeypatch.setattr(Graph, "build", classmethod(
        lambda cls, *args, **kwargs: built.append(args)
        or original(cls, *args, **kwargs)))
    assert len(three_regular_graphs(3, 1)) == 12
    assert len(built) == 12


def test_three_regular_seeds_sharing_a_key_is_verification_error(
        monkeypatch):
    # the two classes at (2,0) lie in different relabelling orbits, so a
    # key that cannot tell them apart is caught, naming the leg pattern
    monkeypatch.setattr(posets, "canonical_key", lambda graph: "same")
    with pytest.raises(VerificationError, match="share a key") as info:
        three_regular_graphs(2, 0)
    assert info.value.witnesses == ("same", "legs=()")


def test_spin_poset_builds_each_spin_structure_once(monkeypatch):
    # of the 581 spin structures over the (3,0) classes, only the 408
    # node representatives are built, each once, from the sign vectors
    # the decompositions give, with no second validation; orbit walks,
    # keys and covers act on sign vectors as data
    from spinmod.spin import SpinStructure

    validated = []
    original = SpinStructure.__init__

    def counting(self, graph, cyclic_set, signs):
        validated.append((id(graph), cyclic_set.mask, tuple(signs)))
        original(self, graph, cyclic_set, signs)

    built = []
    over = SpinStructure.over.__func__

    def counting_over(cls, cyclic_set, dec, signs):
        built.append((id(dec.graph), cyclic_set.mask, signs))
        return over(cls, cyclic_set, dec, signs)

    monkeypatch.setattr(SpinStructure, "__init__", counting)
    monkeypatch.setattr(SpinStructure, "over", classmethod(counting_over))
    poset = build_spin_poset(3, 0)
    assert validated == []
    assert len(built) == len(set(built)) == len(poset.nodes) == 408
    assert sorted(built) == sorted((id(nd.rep.graph), *nd.rep.spin.data())
                                   for nd in poset.nodes)


def test_enumerate_stable_counts():
    assert len(enumerate_stable_graphs(1, 1)) == 2
    assert len(enumerate_stable_graphs(2, 0)) == 7
    assert len(enumerate_stable_graphs(0, 3)) == 1
    assert enumerate_stable_graphs(0, 2) == []


DIRECT_AGREEMENT = [(1, 1), (0, 3), (2, 0), (1, 2), (2, 1), (1, 3), (0, 5),
                    (2, 2), (1, 4), (0, 6)]


def test_enumerate_matches_direct_generator(shared_classes):
    for g, n in DIRECT_AGREEMENT + [(1, 5), (0, 7)]:
        closure = {canonical_key(x) for x in shared_classes(g, n)}
        assert stable_graphs_direct(g, n) == sorted(closure), (g, n)


PLACEMENT_ORBITS = {(2, 2): 50, (1, 5): 705, (0, 7): 2000}


@pytest.mark.parametrize("g,n", DIRECT_AGREEMENT + [(1, 5), (0, 7)])
def test_direct_generator_visits_each_placement_orbit_once(monkeypatch, g,
                                                           n):
    # the generator's (weights, legs) pairs meet every orbit of every
    # weight composition times every leg placement, each exactly once
    met = []
    walk = posets._placement_orbits

    def recording(n, weights):
        for legs in walk(n, weights):
            met.append(oracles.placement_orbit(weights, legs))
            yield legs

    monkeypatch.setattr(posets, "_placement_orbits", recording)
    monkeypatch.setattr(posets, "_valent_multisets", lambda *pattern: [])
    stable_graphs_direct(g, n)
    assert sorted(met) == sorted(oracles.placement_orbits(g, n))
    if (g, n) in PLACEMENT_ORBITS:
        assert len(met) == PLACEMENT_ORBITS[g, n]


@pytest.mark.parametrize("g,n,found", [(2, 1, 15), (2, 2, 67)])
def test_placements_ignoring_weights_miss_classes(monkeypatch, g, n, found):
    # one restricted growth form over all vertices treats vertices of
    # different weights as interchangeable, and the agreement catches it
    monkeypatch.setattr(posets, "_placement_orbits",
                        lambda n, weights: posets._leg_patterns(
                            n, len(weights)))
    closure = {canonical_key(x) for x in enumerate_stable_graphs(g, n)}
    direct = set(stable_graphs_direct(g, n))
    assert direct < closure
    assert len(direct) == found


def test_valent_multisets_match_the_unpruned_scan(monkeypatch):
    # the pruned walk keeps exactly the multisets the scan through every
    # edge multiset keeps, in its order, for every (vertex count, edge
    # count, valence base) the generator meets over the placements it
    # visits; so the generator builds the same graphs, down to half-edge
    # ids, and returns the same keys
    def run(g, n, survivors):
        def recording(*key):
            assert key not in met
            met[key] = survivors(*key)
            return met[key]

        def recording_is_stable(graph):
            graphs.append((graph.weight, graph.endpoint, graph.involution,
                           graph.legs))
            return is_stable(graph)

        met, graphs = {}, []
        monkeypatch.setattr(posets, "_valent_multisets", recording)
        monkeypatch.setattr(posets, "is_stable", recording_is_stable)
        return stable_graphs_direct(g, n), graphs, met

    walk = posets._valent_multisets
    for g, n in DIRECT_AGREEMENT:
        keys, graphs, walked = run(g, n, walk)
        want_keys, want_graphs, scanned = run(g, n, oracles.valent_multisets)
        assert list(walked) == list(scanned)
        for key, kept in scanned.items():
            assert walked[key] == kept, key
        assert graphs == want_graphs, (g, n)
        assert keys == want_keys, (g, n)


def test_direct_generator_builds_only_stable_candidates(monkeypatch):
    # the integer prefilter must reject every candidate is_stable would
    # reject; the agreement test above shows it rejects no stable one
    verdicts = []

    def recording_is_stable(graph):
        verdict = is_stable(graph)
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


@pytest.mark.parametrize("enumerator", [enumerate_stable_graphs,
                                        stable_graphs_direct])
@pytest.mark.parametrize("g,n,named", [(-1, 5, "genus -1"),
                                       (3, -1, "leg count -1"),
                                       (-1, 0, "genus -1")])
def test_negative_genus_or_legs_is_input_error(enumerator, g, n, named):
    # also where 2g - 2 + n <= 0 would otherwise give no classes
    with pytest.raises(InputError, match=named):
        enumerator(g, n)


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


def _spin_11():
    """The (1,1) spin poset and its node keys.  Its nodes: 0 odd and 1
    even at rank 0, the edgeless spin graphs; 2 odd, 3 and 4 even at
    rank 1; covers 2 -> 0, 3 -> 1 and 4 -> 1."""
    poset = build_spin_poset(1, 1)
    assert [(nd.rank, nd.parity) for nd in poset.nodes] == [
        (0, 1), (0, 0), (1, 1), (1, 0), (1, 0)]
    assert list(poset.covers()) == [(2, 0), (3, 1), (4, 1)]
    return poset, [nd.key for nd in poset.nodes]


def test_cover_between_non_consecutive_ranks_names_its_ends():
    # the (2,0) graph poset with a cover from its last top node straight
    # down to the rank-0 node
    poset = build_graph_poset(2, 0)
    top = len(poset.nodes) - 1
    assert (poset.nodes[0].rank, poset.nodes[top].rank) == (0, 3)
    broken = poset_from_pairs(poset.kind, poset.g, poset.n, poset.nodes,
                              [*poset.covers(), (top, 0)])
    with pytest.raises(VerificationError,
                       match="cover between non-consecutive ranks") as info:
        poset_stats(broken)
    assert info.value.witnesses == (poset.nodes[top].key,
                                    poset.nodes[0].key)


def test_spin_component_count_names_a_node_per_component():
    # without the cover 4 -> 1, node 4 is a third component
    poset, keys = _spin_11()
    broken = poset_from_pairs("spin", 1, 1, poset.nodes,
                              [(2, 0), (3, 1)])
    with pytest.raises(VerificationError,
                       match="spin poset has 3 components, expected 2"
                       ) as info:
        poset_stats(broken)
    assert info.value.witnesses == (keys[0], keys[1], keys[4])


def test_component_mixing_parities_names_its_first_two_nodes():
    # the odd node 2 covers the even node 1 instead of the odd node 0:
    # still two components, {0} and {1, 2, 3, 4}, the second mixed
    poset, keys = _spin_11()
    broken = poset_from_pairs("spin", 1, 1, poset.nodes,
                              [(4, 1), (2, 1), (3, 1)])
    with pytest.raises(VerificationError,
                       match="component mixes parities") as info:
        poset_stats(broken)
    assert info.value.witnesses == (keys[1], keys[2])


def test_component_without_one_rank_0_node_names_it():
    # nodes 0, 2 and 3 alone: the even node 3 is a component with no
    # rank-0 node under it
    poset, keys = _spin_11()
    broken = poset_from_pairs("spin", 1, 1,
                              [poset.nodes[i] for i in (0, 2, 3)], [(1, 0)])
    with pytest.raises(VerificationError,
                       match="component has 0 rank-0 nodes") as info:
        poset_stats(broken)
    assert info.value.witnesses == (keys[3],)


def test_rank_0_node_with_edges_is_named():
    # the odd rank-0 node given the odd rank-1 representative, which has
    # an edge and a nonempty cyclic set
    poset, keys = _spin_11()
    odd = poset.nodes[2].rep
    assert odd.graph.n_edges == 1
    nodes = [PosetNode(keys[0], 0, odd, 1), *poset.nodes[1:]]
    broken = poset_from_pairs("spin", 1, 1, nodes, poset.covers())
    with pytest.raises(VerificationError,
                       match="rank-0 node is not the edgeless spin graph"
                       ) as info:
        poset_stats(broken)
    assert info.value.witnesses == (keys[0],)


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


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_reaches_top_matches_the_face_closure(g, n, shared_classes):
    # one pass over the covers marks exactly the nodes the full closure
    # puts below a top node, on the graph, cyclic and spin posets
    classes = shared_classes(g, n)
    for build in (build_graph_poset, build_cyclic_poset, build_spin_poset):
        poset = build(g, n, _classes=classes)
        reaches = poset.reaches_top()
        assert reaches == oracles.reaches_top(poset)
        assert all(reaches)


@pytest.mark.parametrize("build,node,unreached", [
    (build_graph_poset, 30, [8, 20, 30]),
    (build_spin_poset, 309, [82, 190, 309]),
])
def test_reaches_top_in_any_node_order(build, node, unreached):
    # with every cover into one rank-5 node of (3,0) removed, that node
    # and the nodes below it alone reach no top node, whatever the order
    # of the nodes
    poset = without_covers_into(build(3, 0), node)
    poset_stats(poset)
    reaches = poset.reaches_top()
    assert [i for i, r in enumerate(reaches) if not r] == unreached
    assert reaches == oracles.reaches_top(poset)
    for seed in range(4):
        mixed = shuffled(poset, seed)
        assert mixed.reaches_top() == oracles.reaches_top(mixed)
        assert sorted(mixed.nodes[i].key for i, r in
                      enumerate(mixed.reaches_top()) if not r) == \
            sorted(poset.nodes[i].key for i in unreached)


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

    cyc_index = {nd.key: i for i, nd in enumerate(cyc_poset.nodes)}
    graph_index = {nd.key: i for i, nd in enumerate(graph_poset.nodes)}

    def to_cyclic(nd):
        return cyc_index[cyclic_canonical_key(nd.rep.graph, nd.rep.spin.P)]

    def to_graph_from_cyc(nd):
        return graph_index[canonical_key(nd.rep[0])]

    even_nodes = [nd for nd in spin_poset.nodes if nd.parity == 0]
    # surjectivity onto the cyclic poset from the even part
    assert {to_cyclic(nd) for nd in even_nodes} == \
        set(range(len(cyc_poset.nodes)))
    assert {to_graph_from_cyc(nd) for nd in cyc_poset.nodes} == \
        set(range(len(graph_poset.nodes)))
    # covers map to covers
    spin_idx = {nd.key: to_cyclic(nd) for nd in spin_poset.nodes}
    cyc_covers = set(cyc_poset.covers())
    for u, l in spin_poset.covers():
        cu = spin_idx[spin_poset.nodes[u].key]
        cl = spin_idx[spin_poset.nodes[l].key]
        assert (cu, cl) in cyc_covers


def test_open_removal_components_stable_over_enumeration():
    # every component of an open removal of a stable graph is stable
    from conftest import subgraph_on
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1)]:
        for graph in enumerate_stable_graphs(g, n):
            for mask in range(2 ** graph.n_edges):
                f = [i for i in range(graph.n_edges) if mask >> i & 1]
                opened = oracles.remove_edges(graph, f, open=True)
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


def test_canonical_keys_separate_enumerated_classes(shared_classes):
    # all-pairs brute-force isomorphism search over whole enumerated sets:
    # distinct classes never share a key, and every class survives a
    # random relabeling of its representative
    import itertools
    import random

    from test_morphisms import brute_force_isomorphic, relabel

    rng = random.Random(5)
    for g, n in [(2, 1), (2, 2)]:
        classes = shared_classes(g, n)
        for a, b in itertools.combinations(classes, 2):
            assert not brute_force_isomorphic(a, b)
            assert canonical_key(a) != canonical_key(b)
        for graph in classes:
            ids = list(graph.vertices)
            shuffled = rng.sample(range(20, 20 + 2 * len(ids)), len(ids))
            perm = dict(zip(ids, shuffled))
            assert canonical_key(relabel(graph, perm, seed=rng.randrange(99))) \
                == canonical_key(graph)


def test_spin_orbit_counts_match_burnside(shared_classes):
    # independent count of spin orbits: average number of fixed points
    from spinmod.spin import enumerate_spin

    for g, n in [(1, 1), (2, 0), (2, 1)]:
        for graph in shared_classes(g, n):
            group = oracles.element_group(graph)
            spins = enumerate_spin(graph)
            orbits = {min(oracles.act_spin(a, s).data()
                          for a in group.elements) for s in spins}
            fixed = sum(1 for a in group.elements for s in spins
                        if oracles.act_spin(a, s).data() == s.data())
            assert len(orbits) * group.order == fixed


@pytest.mark.parametrize("g,n", [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_orbit_representatives_are_orbit_minima(g, n):
    # against the formula the poset builders used before: keep the first
    # item whose orbit minimum is new
    from spinmod.cycles import enumerate_cyclic
    from spinmod.morphisms import automorphisms
    from spinmod.spin import SpinStructure, enumerate_spin

    # the orbit table sends every structure to the position of its orbit
    # minimum over the oracle's elements, and each stabilizer, expanded
    # to elements, is the filtered group, in group order: the package's
    # walk over the masks, and the walk of every action class over the
    # spin structures' data
    def check(graph, items, data, act, walked):
        oracle = oracles.element_group(graph)
        by_min = {}
        minimum = {}
        for x in items:
            minimum[data(x)] = min(act(a, x) for a in oracle.elements)
            by_min.setdefault(minimum[data(x)], x)
        reps, orbit_of, stabilizers, _ = walked
        assert reps == [data(x) for x in by_min.values()]
        mins = list(by_min)
        assert orbit_of == {d: mins.index(m) for d, m in minimum.items()}
        for x, stabilizer in zip(by_min.values(), stabilizers):
            assert oracle.subgroup(stabilizer).elements == tuple(
                a for a in oracle.elements if act(a, x) == data(x))

    for graph in enumerate_stable_graphs(g, n):
        cyclic, spins = enumerate_cyclic(graph), enumerate_spin(graph)
        check(graph, cyclic, lambda p: p.mask,
              lambda a, p: a.act_mask(p.mask),
              automorphisms(graph).mask_orbits([p.mask for p in cyclic]))
        check(graph, spins, SpinStructure.data,
              lambda a, s: oracles.act_spin(a, s).data(),
              oracles.spin_orbits(graph, spins))


def test_spin_orbit_step_acts_once_per_orbit_and_element(monkeypatch):
    # the walk is fibred over the cyclic orbits: over the least mask P of
    # each, every spin orbit costs one image per element of Stab(P) (per
    # action class), and every other mask Q of the orbit one image per
    # sign vector, folded through Q's transporter; a fibre of one
    # structure (c_+ = 0) costs none.  One element per action class of
    # Stab(P) and one transporter per other mask carry the components
    # of P once, and no image is built as a spin structure.  The
    # expected counts are read off the group's actions on masks and the
    # nodes, not off the walk
    from collections import Counter

    from spinmod.cycles import enumerate_cyclic, pbar_decompose
    from spinmod.morphisms import Aut, SpinCarry

    classes = enumerate_stable_graphs(2, 1)
    images = Counter()
    carries = Counter()
    built = []
    fold, init = SpinCarry.fold, SpinCarry.__init__

    def counting_fold(self, signs):
        if isinstance(self.f, Aut):
            images[id(self.graph)] += 1
        return fold(self, signs)

    def counting_init(self, f, cyclic_set, dec):
        if isinstance(f, Aut):
            carries[id(cyclic_set.graph)] += 1
        init(self, f, cyclic_set, dec)

    monkeypatch.setattr(SpinCarry, "fold", counting_fold)
    monkeypatch.setattr(SpinCarry, "__init__", counting_init)
    monkeypatch.setattr(SpinCarry, "image",
                        lambda self, spin: built.append(spin))
    poset = build_spin_poset(2, 1, _classes=classes)
    monkeypatch.undo()
    nodes_over = Counter((id(nd.rep.graph), nd.rep.spin.P.mask)
                         for nd in poset.nodes)
    want_images, want_carries = Counter(), Counter()
    full_group = 0
    for rep in classes:
        actions = automorphisms(rep).actions
        seen = set()
        for p in enumerate_cyclic(rep):
            if p.mask in seen:
                continue
            orbit = {a.act_mask(p.mask) for a in actions}
            seen |= orbit
            fixing = sum(1 for a in actions if a.act_mask(p.mask) == p.mask)
            c_plus = pbar_decompose(rep, p).c_plus
            full_group += nodes_over[id(rep), p.mask] * len(actions)
            if c_plus:
                want_images[id(rep)] += (
                    fixing * nodes_over[id(rep), p.mask]
                    + (len(orbit) - 1) * 2 ** c_plus)
                want_carries[id(rep)] += fixing + len(orbit) - 1
    assert images == want_images
    assert carries == want_carries
    assert sum(carries.values()) < sum(images.values()) < full_group
    assert built == []


def test_poset_order_matches_order_test():
    poset = build_spin_poset(2, 0)
    pairs = [(0, 3), (3, 0), (5, 2), (8, 1), (7, 7), (2, 6), (6, 2),
             (len(poset.nodes) - 1, 0), (0, len(poset.nodes) - 1)]
    for i, j in pairs:
        a, b = poset.nodes[i], poset.nodes[j]
        expected = poset.leq(i, j)
        witness = order_test(a.rep, b.rep)
        assert (witness is not None) == expected, (i, j)


# -- the contraction table and the orbit tables --------------------------------

@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_edge_contractions_are_isomorphisms_onto_representatives(g, n):
    # one entry per orbit of the group on edges, at the orbit's least edge
    # (read off the oracle group's half-edge maps); against a fresh
    # contraction of that edge, the maps read off the pair must be an
    # isomorphism of its target onto the representative
    from collections import Counter

    from spinmod.morphisms import contract

    classes = enumerate_stable_graphs(g, n)
    reps = {canonical_key(graph): graph for graph in classes}
    for graph in classes:
        table = posets._edge_contractions(graph, reps)
        assert len(table) == len(automorphisms(graph).edge_orbits)
        assert [e for e, _, _ in table] == least_edges_of_orbits(graph)
        for e, key, carried in table:
            fresh = contract(graph, [e])
            target = fresh.target
            rep = reps[key]
            assert canonical_key(target) == key
            assert carried.source is graph and carried.target is rep
            assert carried.contracted.mask == fresh.contracted.mask
            vmap = {}
            for v, t in fresh.vertex_map.items():
                assert vmap.setdefault(t, carried.vertex_map[v]) == \
                    carried.vertex_map[v]
            emap = {}
            for i, j in enumerate(fresh.edge_map):
                assert (j is None) == (carried.edge_map[i] is None)
                if j is not None:
                    emap[j] = carried.edge_map[i]
            assert sorted(vmap) == list(target.vertices)
            assert sorted(vmap.values()) == list(rep.vertices)
            assert sorted(emap) == list(range(target.n_edges))
            assert sorted(emap.values()) == list(range(rep.n_edges))
            assert all(target.w(t) == rep.w(vmap[t]) for t in target.vertices)
            assert [vmap[target.endpoint[h]] for h in target.legs] == \
                [rep.endpoint[h] for h in rep.legs]
            for j in range(target.n_edges):
                u, v = sorted(vmap[t] for t in target.edge_vertices(j))
                assert rep.edge_vertices(emap[j]) == (u, v)
            assert Counter({tuple(sorted(vmap[t] for t in pair)): m
                            for pair, m in target.multiplicity.items()}) == \
                Counter(rep.multiplicity)


@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (3, 0)])
def test_looked_up_cover_keys_match_keying_each_target(g, n):
    # the covers of each poset against keying every contracted target
    # from scratch, as the builders did before the lookup tables
    from spinmod.morphisms import contract, push_cycle, push_spin
    from spinmod.spin import SpinGraph

    def graph_key(c, _):
        return canonical_key(c.target)

    def cyclic_key(c, rep):
        return cyclic_canonical_key(c.target, push_cycle(c, rep[1]))

    def spin_key(c, sg):
        return canonical_key(SpinGraph(c.target, push_spin(c, sg.spin)))

    classes = enumerate_stable_graphs(g, n)
    for poset, graph_of, key_of in (
            (build_graph_poset(g, n, _classes=classes), lambda r: r,
             graph_key),
            (build_cyclic_poset(g, n, _classes=classes), lambda r: r[0],
             cyclic_key),
            (build_spin_poset(g, n, _classes=classes), lambda r: r.graph,
             spin_key)):
        index = {nd.key: i for i, nd in enumerate(poset.nodes)}
        expected = set()
        for i, nd in enumerate(poset.nodes):
            graph = graph_of(nd.rep)
            for e in range(graph.n_edges):
                c = contract(graph, [e])
                expected.add((i, index[key_of(c, nd.rep)]))
        assert list(poset.covers()) == sorted(expected)


def test_posets_on_other_representatives_are_the_same(monkeypatch):
    # the first graph the direct generator keys in each class carries no
    # contraction table, so the builders fill it themselves, onto other
    # labellings; keys, ranks, parities and covers do not move
    first = {}

    def keying(graph):
        key = canonical_key(graph)
        first.setdefault(key, graph)
        return key

    monkeypatch.setattr(posets, "canonical_key", keying)
    keys = stable_graphs_direct(2, 2)
    monkeypatch.undo()
    classes = [first[key] for key in keys]

    def shape(poset):
        return ([(nd.key, nd.rank, nd.parity) for nd in poset.nodes],
                poset.offsets, poset.lowers)

    for build in (build_graph_poset, build_cyclic_poset, build_spin_poset):
        assert shape(build(2, 2, _classes=classes)) == shape(build(2, 2))


def test_posets_contract_each_class_edge_once(monkeypatch):
    from collections import Counter

    from spinmod import verify

    enumerated = []
    contracted = Counter()
    original_enumerate = verify.enumerate_stable_graphs
    original_contract = posets.contract

    def enumerate_recording(*args, **kwargs):
        enumerated.extend(original_enumerate(*args, **kwargs))
        return enumerated

    def contract_recording(graph, edge_set):
        contracted[id(graph), tuple(edge_set)] += 1
        return original_contract(graph, edge_set)

    monkeypatch.setattr(verify, "enumerate_stable_graphs",
                        enumerate_recording)
    monkeypatch.setattr(posets, "contract", contract_recording)
    checks = verify.run_suites(3, 1, "posets")
    assert all(c["status"] == "pass" for c in checks)
    assert len(enumerated) == 181
    # the downward closure fills the table, contracting the least edge of
    # each orbit of the automorphism group on edges; the three builders
    # read it
    assert contracted == Counter({(id(graph), (e,)): 1 for graph in enumerated
                                  for e in least_edges_of_orbits(graph)})
    assert sum(contracted.values()) == 595
    assert sum(graph.n_edges for graph in enumerated) == 820


def least_edges_of_orbits(graph):
    """The edges that no automorphism maps a smaller edge onto, read off
    the half-edge maps of the oracle group's elements."""
    index = {pair: i for i, pair in enumerate(graph.edges)}
    moved = set()
    for a in oracles.element_group(graph).elements:
        for i, (h, k) in enumerate(graph.edges):
            j = index[tuple(sorted((a.half_map[h], a.half_map[k])))]
            if j > i:
                moved.add(j)
    return [e for e in range(graph.n_edges) if e not in moved]


def test_edge_contraction_table_is_capped_like_the_group():
    # the table contracts one edge per orbit of the automorphism group,
    # so a graph over the group's half-edge cap gets the group's error
    rose = make_rose(21)
    with pytest.raises(BudgetError) as group_error:
        automorphisms(rose)
    with pytest.raises(BudgetError, match=r"\b40\b.*\b42\b") as error:
        posets._edge_contractions(rose, {}, [])
    assert str(error.value) == str(group_error.value)
    assert "_edge_contractions" not in rose.__dict__


def test_full_group_built_once_per_class(monkeypatch):
    # every group the spin build reads comes through ``automorphisms``,
    # bound in the two modules that call it
    from spinmod import morphisms

    built = []
    original = morphisms.automorphisms

    def recording(graph):
        if "_aut_group" not in graph.__dict__:
            built.append(id(graph))
        return original(graph)

    for module in (morphisms, posets):
        monkeypatch.setattr(module, "automorphisms", recording)
    build_spin_poset(3, 0)
    assert len(built) == len(set(built)) == 42


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_orbit_step_stabilizers_are_the_spin_stabilizers(g, n,
                                                         shared_classes):
    # each spin and cyclic node keeps the action classes that its orbit
    # walk found fixing the representative; expanded, they are exactly
    # the elements that fix it, in group order
    classes = shared_classes(g, n)
    for nd in build_spin_poset(g, n, _classes=classes).nodes:
        graph, spin = nd.rep.graph, nd.rep.spin
        assert oracles.element_group(graph).subgroup(
            nd.stabilizer).elements == oracles.spin_stabilizer(
                graph, spin).elements
    for nd in build_cyclic_poset(g, n, _classes=classes).nodes:
        graph, p = nd.rep
        group = oracles.element_group(graph)
        assert group.subgroup(nd.stabilizer).elements == tuple(
            a for a in group.elements if a.act_mask(p.mask) == p.mask)


def test_shared_orbit_key_is_verification_error(monkeypatch):
    # an orbit key that forgets the structure gives every cyclic
    # representative of a class its graph's key
    monkeypatch.setattr(posets, "orbit_keys",
                        lambda graph, orbit_of:
                        [canonical_key(graph)] * len(set(orbit_of.values())))
    with pytest.raises(VerificationError, match="share a key") as info:
        build_cyclic_poset(1, 1)
    keys = {canonical_key(graph) for graph in enumerate_stable_graphs(1, 1)}
    assert len(info.value.witnesses) == 1
    assert info.value.witnesses[0] in keys


def test_missing_cover_target_class_is_verification_error(monkeypatch):
    original = posets.enumerate_stable_graphs
    bottom_key = [canonical_key(graph) for graph in original(2, 0)
                  if graph.n_edges == 0]
    monkeypatch.setattr(posets, "enumerate_stable_graphs",
                        lambda *a: [graph for graph in original(*a)
                                    if graph.n_edges])
    with pytest.raises(VerificationError, match="missing from the classes") \
            as info:
        build_graph_poset(2, 0)
    source, edge, target = info.value.witnesses
    assert target in bottom_key
    assert edge.startswith("edge=")


def test_unenumerated_pushed_structure_is_verification_error(monkeypatch):
    # every class loses its last spin structure, the odd one on the rank-0
    # class among them: the tables stay whole for what is enumerated, so
    # an odd structure pushed onto the rank-0 class lands on a structure
    # its target's table never met
    original = posets.spin_fibres

    def without_last(graph):
        fibres = original(graph)
        p, dec, signs = fibres[-1]
        return fibres[:-1] + [(p, dec, signs[:-1])]

    monkeypatch.setattr(posets, "spin_fibres", without_last)
    with pytest.raises(VerificationError, match="table of its target class") \
            as info:
        build_spin_poset(2, 0)
    node_key, edge, target_key = info.value.witnesses
    assert edge.startswith("edge=")
    keys = {canonical_key(graph) for graph in enumerate_stable_graphs(2, 0)}
    assert target_key in keys


def _drop_a_kept_edge(classes):
    """Alter the first table contraction, over ``classes`` in order, that
    keeps a non-loop edge ``i`` of a cycle, as the target's edge ``j``:
    its edge map drops ``i``, so every cyclic set through ``i`` is pushed
    onto a mask with the two odd ends of ``j``.  Returns ``(graph, e,
    target_key, c, p, j)``, ``p`` the first such set of ``graph``, the
    first push to fail."""
    reps = {canonical_key(graph): graph for graph in classes}
    for graph in classes:
        cyclic = enumerate_cyclic(graph)
        for e, target_key, c in posets._edge_contractions(graph, reps):
            for i, j in enumerate(c.edge_map):
                through = [p for p in cyclic if i in p]
                if j is not None and through and \
                        len(set(c.target.edge_vertices(j))) == 2:
                    c.edge_map = c.edge_map[:i] + (None,) + c.edge_map[i + 1:]
                    return graph, e, target_key, c, through[0], j
    raise AssertionError("no table contraction keeps an edge of a cycle")


def test_cyclic_push_onto_a_mask_that_is_not_cyclic_misses_its_target():
    # the target's orbit table is the cyclic builder's only image check
    classes = enumerate_stable_graphs(1, 3)
    graph, e, target_key, _, p, _ = _drop_a_kept_edge(classes)
    with pytest.raises(VerificationError, match="^a pushed structure is "
                       "missing from the orbit table of its target class$"
                       ) as info:
        build_cyclic_poset(1, 3, _classes=classes)
    assert info.value.witnesses == (cyclic_canonical_key(graph, p),
                                    f"edge={e}", target_key)


def test_spin_push_onto_a_mask_that_is_not_cyclic_fails_its_carry():
    # no decomposition of the image is memoised on the target, so the
    # carry walks its boundary and fails as push_cycle fails
    classes = enumerate_stable_graphs(1, 3)
    graph, _, _, c, p, _ = _drop_a_kept_edge(classes)
    with pytest.raises(VerificationError, match="^pushforward of a cyclic "
                       "set is not cyclic$") as info:
        build_spin_poset(1, 3, _classes=classes)
    assert info.value.witnesses == (canonical_key(graph), f"P={p.hex()}",
                                    f"F={c.contracted.hex()}")


def test_spin_push_past_a_false_memo_entry_misses_its_target():
    # a decomposition memoised on the target under the pushed mask stands
    # for the carry's image check, so the carry passes; the target's orbit
    # table, which holds only the target's cyclic sets, still rejects the
    # pushed structure, naming the node of p's first sign vector
    classes = enumerate_stable_graphs(1, 3)
    graph, e, target_key, c, p, j = _drop_a_kept_edge(classes)
    pushed = c.push_mask(p.mask)
    true_dec = pbar_decompose(c.target, EdgeSet(c.target, pushed | 1 << j))
    c.target.__dict__["_pbar_decompositions"][pushed] = true_dec
    with pytest.raises(VerificationError, match="^a pushed structure is "
                       "missing from the orbit table of its target class$"
                       ) as info:
        build_spin_poset(1, 3, _classes=classes)
    dec = pbar_decompose(graph, p)
    first = sign_tuple(sign_vectors(dec)[0], len(dec))
    node = SpinGraph(graph, SpinStructure(graph, p, first))
    assert info.value.witnesses == (canonical_key(node), f"edge={e}",
                                    target_key)


def test_poset_builds_walk_each_cyclic_set_once(monkeypatch):
    # on fresh (3,1) classes each build establishes the cyclicity of each
    # of the 876 cyclic sets once, and no cover push walks a boundary:
    # the cyclic build through the cycle space's re-check, the spin build
    # through the decompositions (by way of is_cyclic); the walks are
    # counted by caller, across both modules that call boundary
    import sys
    from collections import Counter
    from spinmod import cycles, morphisms

    classes = enumerate_stable_graphs(3, 1)
    walks = Counter()
    boundary = cycles.boundary

    def counting(graph, edge_set):
        caller = sys._getframe(1)
        if caller.f_code is cycles.is_cyclic.__code__:
            caller = caller.f_back
        walks[caller.f_code.co_qualname] += 1
        return boundary(graph, edge_set)

    monkeypatch.setattr(cycles, "boundary", counting)
    monkeypatch.setattr(morphisms, "boundary", counting)
    build_cyclic_poset(3, 1, _classes=classes)
    assert walks == {"enumerate_cyclic": 876}
    walks.clear()
    build_spin_poset(3, 1, _classes=classes)
    assert walks == {"PbarDecomposition.__init__": 876}


def _cyclic_reps_only(walked):
    reps, _, stabilizers, transporters = walked
    return reps, {mask: k for k, mask in enumerate(reps)}, stabilizers, \
        transporters


def _spin_reps_only(walked):
    walked.table = {}
    for k, (mask, signs) in enumerate(walked.reps):
        walked.table.setdefault(mask, {})[signs] = k
    return walked


@pytest.mark.parametrize("build,owner,orbits,cut", [
    (build_cyclic_poset, AutGroup, "mask_orbits", _cyclic_reps_only),
    (build_spin_poset, posets, "spin_orbits", _spin_reps_only)],
    ids=["cyclic", "spin"])
def test_structure_missing_from_its_own_table_is_verification_error(
        build, owner, orbits, cut, monkeypatch):
    # an orbit table that lost every entry but the representatives' own:
    # the first structure of a class that is no representative is missing
    # from it, which names its class and itself before anything is pushed
    original = getattr(owner, orbits)

    def reps_only(*args):
        return cut(original(*args))

    monkeypatch.setattr(owner, orbits, reps_only)
    with pytest.raises(VerificationError,
                       match="missing from the orbit table of its own") \
            as info:
        build(2, 0)
    class_key, structure = info.value.witnesses
    keys = {canonical_key(graph) for graph in enumerate_stable_graphs(2, 0)}
    assert class_key in keys
    assert structure.startswith(("EdgeSet(", "SpinStructure("))


# -- node keys from the orbit tables ----------------------------------------

@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_node_keys_match_the_group_minimum(g, n, shared_classes):
    # each node key, read off its class's orbit table, against the least
    # encoding over the whole automorphism group
    classes = shared_classes(g, n)
    for nd in build_cyclic_poset(g, n, _classes=classes).nodes:
        assert nd.key == key_oracle.cyclic_key(*nd.rep)
    for nd in build_spin_poset(g, n, _classes=classes).nodes:
        assert nd.key == key_oracle.spin_key(nd.rep)


@pytest.mark.parametrize("kind,structures", [("cyclic", 198),
                                             ("spin", 581)])
def test_each_structure_encoded_once(kind, structures, monkeypatch):
    # every cyclic set over the (3,0) classes is encoded once, as a
    # member of its orbit, and never again per node.  The spin poset
    # encodes each of the 198 masks under its 581 spin structures once
    # too, and reads the component positions only of the masks whose
    # encoding is the least in their cyclic orbit, each once; only the
    # structures over those masks get their signs zipped in
    from spinmod import morphisms, orbits
    from spinmod.cycles import enumerate_cyclic

    calls = {}

    def counting(name):
        original = getattr(orbits, name)

        def counted(graph, pos, mask):
            calls.setdefault(name, []).append((id(graph), mask))
            return original(graph, pos, mask)

        return counted

    for name in ("_cyclic_encoding", "_component_positions"):
        counted = counting(name)
        for module in (morphisms, orbits, posets):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    classes = enumerate_stable_graphs(3, 0)
    builder = {"cyclic": build_cyclic_poset, "spin": build_spin_poset}[kind]
    poset = builder(3, 0, _classes=classes)
    encoded = calls.pop("_cyclic_encoding")
    masks = sum(len(enumerate_cyclic(graph)) for graph in classes)
    assert len(encoded) == len(set(encoded)) == masks == 198
    if kind == "cyclic":
        assert masks == structures
        assert calls == {}
        return
    least = calls.pop("_component_positions")
    assert len(least) == len(set(least)) < masks
    by_id = {id(graph): graph for graph in classes}
    zipped = sum(len(spin_fibre(by_id[at], mask)) for at, mask in least)
    assert len(poset.nodes) <= zipped < structures == sum(
        len(spin_fibre(graph, p.mask)) for graph in classes
        for p in enumerate_cyclic(graph))


def spin_fibre(graph, mask):
    """The sign vectors above one cyclic set of ``graph``."""
    from spinmod.cycles import EdgeSet, pbar_decompose
    from spinmod.spin import sign_vectors

    return sign_vectors(pbar_decompose(graph, EdgeSet(graph, mask)))
