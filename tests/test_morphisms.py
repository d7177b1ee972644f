import hashlib
import itertools
import random

import pytest

from spinmod import morphisms, orbits
from spinmod.cycles import EdgeSet, boundary, enumerate_cyclic, pbar_decompose
from spinmod.errors import (BudgetError, DomainError, InputError,
                            VerificationError)
from spinmod.graphs import Graph
from spinmod.morphisms import (SpinCarry, _digest, automorphisms,
                               canonical_form, canonical_key,
                               component_subgroup, composed_edges, contract,
                               cyclic_canonical_key, order_test, orbit_walk,
                               push_cycle, push_spin, push_vertex_set,
                               quotient_action_order)
from spinmod.orbits import spin_orbit, spin_orbit_keys, spin_orbits
from spinmod.spin import SpinGraph, SpinStructure, enumerate_spin, spin_fibres

from conftest import (make_dumbbell, make_loop_chain, make_one_loop_one_leg,
                      make_rose, make_theta, make_weight_vertex, subgraph_on)
import key_oracle
import oracles


def spin(graph, indices, signs):
    return SpinStructure(graph, EdgeSet.from_indices(graph, indices), signs)


# -- contractions ------------------------------------------------------------

def test_contract_theta_edge(theta):
    c = contract(theta, [0])
    assert len(c.target.vertices) == 1
    assert c.target.w(c.target.vertices[0]) == 0
    assert c.target.n_edges == 2
    assert all(c.target.edge_vertices(i)[0] == c.target.edge_vertices(i)[1]
               for i in range(2))


def test_contract_dumbbell_loop(dumbbell):
    c = contract(dumbbell, [0])
    v = c.vertex_map[0]
    assert c.target.w(v) == 1
    assert c.target.b1 == dumbbell.b1 - 1


def test_contract_everything():
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        c = contract(g, range(g.n_edges))
        assert len(c.target.vertices) == 1
        assert c.target.w(c.target.vertices[0]) == g.genus
        assert c.target.n_edges == 0


def test_contract_identity(theta):
    c = contract(theta, [])
    assert c.target == theta
    assert c.edge_map == {i: i for i in range(3)}


def test_contract_preserves_legs():
    g = make_one_loop_one_leg()
    c = contract(g, [0])
    assert c.target.n_legs == 1
    assert c.target.w(0) == 1


def test_contraction_b1_identity_is_verification_error(theta, monkeypatch):
    key = canonical_key(theta)
    monkeypatch.setattr(EdgeSet, "b1", property(lambda self: 5))
    with pytest.raises(VerificationError) as info:
        contract(theta, [0])
    assert info.value.witnesses == (key, "F=1")


def test_push_cycle_examples(theta, dumbbell):
    c = contract(theta, [2])
    p = EdgeSet.from_indices(theta, [0, 1])
    assert sorted(push_cycle(c, p).indices()) == [0, 1]
    assert push_cycle(contract(theta, [0, 1]), p).mask == 0
    c = contract(dumbbell, [2])
    assert len(push_cycle(c, EdgeSet.from_indices(dumbbell, [0, 1]))) == 2


def test_push_cycle_surjective():
    # every cyclic set downstairs is hit by one upstairs
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        for k in range(g.n_edges + 1):
            for f in itertools.combinations(range(g.n_edges), k):
                c = contract(g, f)
                image = {push_cycle(c, p).mask for p in enumerate_cyclic(g)}
                assert image == {q.mask for q in enumerate_cyclic(c.target)}


def test_push_spin_full_contraction(dumbbell):
    s = spin(dumbbell, [0, 1], (1, 0))
    c = contract(dumbbell, range(3))
    out = push_spin(c, s)
    assert out.P.mask == 0
    assert out.signs == (1,)
    assert out.parity == s.parity == 1


def test_push_spin_bridge(dumbbell):
    s = spin(dumbbell, [0, 1], (1, 0))
    c = contract(dumbbell, [2])
    out = push_spin(c, s)
    assert sorted(out.P.indices()) == [0, 1]
    assert out.signs == (1,)


def test_push_spin_identity(theta):
    s = spin(theta, [0, 1], (1,))
    out = push_spin(contract(theta, []), s)
    assert out.data() == s.data()


def test_push_spin_parity_preserved_everywhere():
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        for s in enumerate_spin(g):
            for k in range(g.n_edges + 1):
                for f in itertools.combinations(range(g.n_edges), k):
                    c = contract(g, f)
                    out = push_spin(c, s)
                    assert out.parity == s.parity
                    assert all(sg == 0 for sg, gg in
                               zip(out.signs, out.dec.genera) if gg == 0)


def test_functoriality_on_cycles_and_spins():
    rng = random.Random(7)
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        for _ in range(60):
            all_edges = list(range(g.n_edges))
            f1 = [i for i in all_edges if rng.random() < 0.4]
            c1 = contract(g, f1)
            rest = [c1.edge_map[i] for i in all_edges
                    if c1.edge_map[i] is not None]
            f2 = [j for j in rest if rng.random() < 0.4]
            c2 = contract(c1.target, f2)
            c12 = contract(c1.source, composed_edges(c1, c2))
            assert c12.target == c2.target
            for p in enumerate_cyclic(g):
                assert push_cycle(c12, p).mask == \
                    push_cycle(c2, push_cycle(c1, p)).mask
            for s in enumerate_spin(g):
                a = push_spin(c12, s)
                b = push_spin(c2, push_spin(c1, s))
                assert a.data() == b.data()


def test_composed_edges_is_the_union_of_the_preimages(dumbbell):
    # contracting the bridge keeps the loops as edges 0 and 1; the second
    # step contracts the loop of vertex 1, edge 1 of the source
    c1 = contract(dumbbell, [2])
    c2 = contract(c1.target, [c1.edge_map[1]])
    assert composed_edges(c1, c2) == EdgeSet.from_indices(dumbbell, [1, 2])
    with pytest.raises(InputError, match="do not compose"):
        composed_edges(c2, c1)


def test_boundary_commutes_with_pushforward():
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        for k in range(g.n_edges + 1):
            for f in itertools.combinations(range(g.n_edges), k):
                c = contract(g, f)
                for i in range(g.n_edges):
                    e = EdgeSet.from_indices(g, [i])
                    j = c.edge_map[i]
                    img = EdgeSet(c.target, 0 if j is None else 1 << j)
                    assert boundary(c.target, img) == \
                        push_vertex_set(c, boundary(g, e))


def test_contraction_json(dumbbell):
    c = contract(dumbbell, [2])
    data = c.to_json_dict()
    assert data["F"] == "4"
    assert data["vertex_map"] == [[0, 0], [1, 0]] or \
        data["vertex_map"] == [(0, 0), (1, 0)]


# -- automorphisms ------------------------------------------------------------

def test_aut_theta_orders(theta):
    g = automorphisms(theta)
    assert g.order == 12
    assert g.order_edge == 6


def test_aut_theta_spin_restricted(theta):
    s = spin(theta, [0, 1], (1,))
    g = oracles.spin_stabilizer(theta, s)
    assert g.order == 4
    (fixing,) = spin_orbit(theta, s).stabilizers
    assert automorphisms(theta).subgroup(fixing).order == 4
    assert oracles.element_group(theta).subgroup(fixing).elements == \
        g.elements


def test_aut_weight_vertex_trivial():
    g = automorphisms(make_weight_vertex(2, 2))
    assert g.order == 1


def test_aut_loop_flips():
    g = automorphisms(make_one_loop_one_leg())
    assert g.order == 2       # the loop flip


def test_aut_dumbbell(dumbbell):
    g = automorphisms(dumbbell)
    assert g.order == 8       # vertex swap x two loop flips


def test_aut_rose():
    g = automorphisms(make_rose(3))
    assert g.order == 48      # 3! loop permutations x 2^3 flips
    assert g.order_edge == 6


def test_aut_half_edge_cap():
    rose = make_rose(21)
    with pytest.raises(BudgetError, match=r"\b40\b.*\b42\b"):
        automorphisms(rose)
    assert "_aut_group" not in rose.__dict__


def actions_of(group):
    return [(a.vertex_map, a.edge_perm) for a in group.actions]


def assert_group_matches_the_bijection_search(graph):
    # the action classes, in group order, are the first elements of the
    # oracle's classes, and the loop flips make up the rest of its order
    group = automorphisms(graph)
    want = oracles.element_group(graph)
    actions, _ = want.action_classes
    assert actions_of(group) == [(a.vertex_map, a.edge_perm)
                                 for a in actions], graph
    assert group.order == want.order, graph


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (1, 3), (0, 3), (0, 4),
                                 (0, 5), (0, 6), (2, 0), (2, 1), (2, 2),
                                 (2, 3), (3, 0), (3, 1), (3, 2), (4, 0)])
def test_group_matches_the_bijection_search_on_classes(g, n,
                                                      shared_classes):
    for graph in shared_classes(g, n):
        assert_group_matches_the_bijection_search(graph)


def test_group_matches_the_bijection_search_on_random_graphs():
    for graph in random_pool():
        assert_group_matches_the_bijection_search(graph)


def assert_canonical_form_matches_the_oracle(graph):
    # a fresh copy, so the form is computed here and its leaves are kept
    fresh = Graph(graph.weight, graph.endpoint, graph.involution, graph.legs,
                  graph.exceptional)
    cert, pos, leaves = oracles.canonical_form_with_leaves(graph)
    assert canonical_form(fresh) == (cert, pos), graph
    assert fresh.__dict__["_canonical_form"].leaves == leaves, graph


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (1, 3), (0, 3), (0, 4),
                                 (0, 5), (0, 6), (2, 0), (2, 1), (2, 2),
                                 (2, 3), (3, 0), (3, 1), (3, 2), (4, 0)])
def test_canonical_form_matches_the_oracle_on_classes_and_contractions(
        g, n, shared_classes):
    for graph in shared_classes(g, n):
        assert_canonical_form_matches_the_oracle(graph)
        for e in range(graph.n_edges):
            assert_canonical_form_matches_the_oracle(
                contract(graph, [e]).target)


def test_canonical_form_matches_the_oracle_on_random_graphs():
    for graph in random_pool():
        assert_canonical_form_matches_the_oracle(graph)


def test_group_matches_the_bijection_search_when_some_leaves_are_worse():
    # a triangle beside a 4-cycle: half the refinement tree's leaves
    # have a certificate worse than the best, and must not count
    graph = Graph.build([(v, 0) for v in range(7)],
                        [(0, 1), (1, 2), (2, 0),
                         (3, 4), (4, 5), (5, 6), (6, 3)])
    assert automorphisms(graph).order == 6 * 8
    assert_group_matches_the_bijection_search(graph)


def test_aut_legs_pin_vertices():
    g = Graph.build([(0, 0), (1, 0)], [(0, 1), (0, 1), (0, 1)], [0])
    a = automorphisms(g)
    assert all(el.vertex_map[0] == 0 for el in a.actions)
    assert a.order == 6


def test_pbar_subgroup_is_product_of_component_groups():
    # the subgroup fixing the opened half-edges equals the direct product
    # of the component automorphism groups, computed independently
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        for s in enumerate_spin(g):
            sub = component_subgroup(automorphisms(g), s)
            product = 1
            opened = oracles.opened_graph(g, s.P)
            for comp in s.dec.vertex_sets:
                piece = subgraph_on(opened, comp)
                product *= automorphisms(piece).order
            assert sub.order == product, (g, s)


def test_component_subgroup_needs_a_structure_over_its_graph(theta):
    s = spin(theta, [0, 1], (1,))
    assert component_subgroup(automorphisms(theta), s).order == 2
    with pytest.raises(InputError, match="same graph"):
        component_subgroup(automorphisms(make_dumbbell()), s)


def test_spin_orbits_match_keys():
    # partition of the spin structures by group action equals the
    # partition by canonical spin key
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        group = oracles.element_group(g)
        by_orbit = {}
        for s in enumerate_spin(g):
            orbit = min(oracles.act_spin(a, s).data()
                        for a in group.elements)
            by_orbit.setdefault(orbit, set()).add(s.data())
        by_key = {}
        for s in enumerate_spin(g):
            by_key.setdefault(canonical_key(SpinGraph(g, s)),
                              set()).add(s.data())
        assert sorted(by_orbit.values(), key=sorted) == \
            sorted(by_key.values(), key=sorted)


def test_induced_quotient_group_inside_full():
    # the induced action on the contracted graph is always contained in
    # the full sign-preserving automorphism group of the quotient; this
    # records empirically whether it can be a proper subgroup
    proper = []
    for g, n in [(1, 1), (2, 0)]:
        from spinmod.posets import enumerate_stable_graphs
        for graph in enumerate_stable_graphs(g, n):
            for s in enumerate_spin(graph):
                c = contract(graph, s.P)
                quotient = c.target
                sign_at = {}
                for i, vs in enumerate(s.dec.vertex_sets):
                    sign_at[c.vertex_map[min(vs)]] = s.signs[i]
                full = [a for a in oracles.element_group(quotient).elements
                        if all(sign_at[a.vertex_map[v]] == sign_at[v]
                               for v in quotient.vertices)]
                full_keys = {(tuple(sorted(a.vertex_map.items())),
                              tuple(sorted(a.half_map.items())))
                             for a in full}
                fixing = oracles.spin_stabilizer(graph, s)
                r_halves = [h for i in range(graph.n_edges) if i not in s.P
                            for h in graph.edges[i]]
                induced = set()
                for a in fixing.elements:
                    vmap = tuple(sorted(
                        (c.vertex_map[min(vs)],
                         c.vertex_map[min(a.vertex_map[v] for v in vs)])
                        for vs in s.dec.vertex_sets))
                    hmap = tuple(sorted(
                        [(h, a.half_map[h]) for h in r_halves]
                        + [(h, h) for h in quotient.legs]))
                    induced.add((vmap, hmap))
                assert induced <= full_keys
                assert len(full_keys) % len(induced) == 0
                if len(induced) < len(full_keys):
                    proper.append((canonical_key(graph), s.data()))
    # properness does occur at desk scale: it is real, not assumed away
    assert proper


def test_aut_factorization_on_fixtures():
    # order of the spin-preserving group = order of the component-wise
    # group x order of the induced action on the quotient (half-edge level)
    cases = []
    theta = make_theta()
    cases += [(theta, spin(theta, [0, 1], (s,))) for s in (0, 1)]
    dumbbell = make_dumbbell()
    cases += [(dumbbell, spin(dumbbell, [0, 1], sg))
              for sg in [(0, 0), (1, 0), (1, 1)]]
    cases += [(dumbbell, SpinStructure(dumbbell, EdgeSet(dumbbell, 0),
                                       (0, 0)))]
    for g, s in cases:
        full = oracles.spin_stabilizer(g, s)
        group = automorphisms(g)
        (fixing,) = spin_orbit(g, s).stabilizers
        pbar = component_subgroup(group, s)
        q_h = quotient_action_order(g, s, group.subgroup(fixing))
        assert full.order == pbar.order * q_h, (g, s)


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
                                 (2, 2), (3, 0), (3, 1), (4, 0)])
def test_group_orders_match_the_element_oracle_on_spin_nodes(
        g, n, shared_classes):
    # per class: the order and the action classes, in order; per spin
    # orbit representative: the stabilizer's order, the component-wise
    # subgroup's and the induced quotient action's, each counted by the
    # oracle element by element, loop flips included
    for graph in shared_classes(g, n):
        group = automorphisms(graph)
        oracle = oracles.element_group(graph)
        actions, _ = oracle.action_classes
        assert group.order == oracle.order
        assert actions_of(group) == [(a.vertex_map, a.edge_perm)
                                     for a in actions]
        walked = spin_orbits(group, spin_fibres(graph))
        for (mask, signs), classes in zip(walked.reps, walked.stabilizers):
            s = SpinStructure(graph, EdgeSet(graph, mask), signs)
            fixing = group.subgroup(classes)
            want = oracles.spin_stabilizer(graph, s)
            assert fixing.order == want.order, (graph, s)
            assert component_subgroup(group, s).order == \
                oracles.component_subgroup(oracle, s).order, (graph, s)
            assert quotient_action_order(graph, s, fixing) == \
                oracles.quotient_action_order(graph, s, want), (graph, s)


# -- canonical keys -----------------------------------------------------------

def relabel(graph, vperm, seed=0):
    """Rebuild a graph with permuted vertex ids and shuffled edge order."""
    rng = random.Random(seed)
    edges = [tuple(vperm[x] for x in graph.edge_vertices(i))
             for i in range(graph.n_edges)]
    rng.shuffle(edges)
    legs = [vperm[graph.endpoint[h]] for h in graph.legs]
    return Graph.build([(vperm[v], graph.w(v)) for v in graph.vertices],
                       edges, legs)


def brute_force_isomorphic(g1, g2):
    """Isomorphism test by exhaustive search over vertex bijections: the
    oracle the canonical keys are cross-checked against."""
    if (len(g1.vertices) != len(g2.vertices) or g1.n_edges != g2.n_edges
            or g1.n_legs != g2.n_legs):
        return False
    m1, m2 = g1.multiplicity, g2.multiplicity
    legs1 = [g1.endpoint[h] for h in g1.legs]
    legs2 = [g2.endpoint[h] for h in g2.legs]
    for perm in itertools.permutations(g2.vertices):
        vmap = dict(zip(sorted(g1.vertices), perm))
        if any(g1.w(v) != g2.w(vmap[v]) for v in g1.vertices):
            continue
        if any(vmap[u] != w for u, w in zip(legs1, legs2)):
            continue
        ok = True
        for (u, v), m in m1.items():
            a, b = sorted((vmap[u], vmap[v]))
            if m2.get((a, b), 0) != m:
                ok = False
                break
        if ok and sum(m1.values()) == sum(m2.values()):
            return True
    return False


def test_canonical_key_relabeling(theta, dumbbell):
    for g in [theta, dumbbell, make_loop_chain(), make_one_loop_one_leg()]:
        perm = {v: 10 - v for v in g.vertices}
        assert canonical_key(relabel(g, perm, seed=3)) == canonical_key(g)


def test_canonical_key_distinguishes(theta, dumbbell):
    assert canonical_key(theta) != canonical_key(dumbbell)
    assert canonical_key(make_rose(2)) != canonical_key(make_rose(3))
    legged = Graph.build([(0, 0), (1, 0)], [(0, 1)] * 3, [0])
    other = Graph.build([(0, 0), (1, 0)], [(0, 1)] * 3, [1])
    assert canonical_key(legged) == canonical_key(other)  # swap isomorphism
    two = Graph.build([(0, 0), (1, 0)], [(0, 1)] * 3, [0, 0])
    split = Graph.build([(0, 0), (1, 0)], [(0, 1)] * 3, [0, 1])
    assert canonical_key(two) != canonical_key(split)


def random_pool():
    """40 seeded random graphs on at most 4 vertices, often
    disconnected."""
    rng = random.Random(11)
    pool = []
    for _ in range(40):
        n = rng.randint(1, 4)
        verts = [(i, rng.randint(0, 2)) for i in range(n)]
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 5))]
        legs = [rng.randrange(n) for _ in range(rng.randint(0, 2))]
        pool.append(Graph.build(verts, edges, legs))
    return pool


def test_canonical_key_brute_force_agreement():
    pool = random_pool()
    for g1, g2 in itertools.combinations(pool, 2):
        assert (canonical_key(g1) == canonical_key(g2)) == \
            brute_force_isomorphic(g1, g2), (g1, g2)


def test_spin_key_theta(theta):
    a = SpinGraph(theta, spin(theta, [0, 1], (0,)))
    b = SpinGraph(theta, spin(theta, [0, 2], (0,)))
    c = SpinGraph(theta, spin(theta, [0, 1], (1,)))
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key(a) != canonical_key(c)


def test_spin_key_across_relabeling(dumbbell):
    g2 = relabel(dumbbell, {0: 5, 1: 2}, seed=9)
    # loops of g2: find edge indices that are loops
    loops = [i for i in range(g2.n_edges)
             if g2.edge_vertices(i)[0] == g2.edge_vertices(i)[1]]
    s1 = SpinGraph(dumbbell, spin(dumbbell, [0, 1], (1, 1)))
    s2 = SpinGraph(g2, spin(g2, loops, (1, 1)))
    assert canonical_key(s1) == canonical_key(s2)


def test_cyclic_key(theta):
    k1 = cyclic_canonical_key(theta, EdgeSet.from_indices(theta, [0, 1]))
    k2 = cyclic_canonical_key(theta, EdgeSet.from_indices(theta, [1, 2]))
    k3 = cyclic_canonical_key(theta, EdgeSet(theta, 0))
    assert k1 == k2 != k3


def test_single_structure_keys_match_the_group_minimum(shared_classes):
    # every cyclic set and spin structure over every class at (2,1),
    # (2,2), (3,0) and (3,1), keyed by its own orbit walk over action
    # classes, against the least encoding over every group element
    for g, n in ((2, 1), (2, 2), (3, 0), (3, 1)):
        for graph in shared_classes(g, n):
            for p in enumerate_cyclic(graph):
                assert cyclic_canonical_key(graph, p) == \
                    key_oracle.cyclic_key(graph, p)
            for s in enumerate_spin(graph):
                sg = SpinGraph(graph, s)
                assert canonical_key(sg) == key_oracle.spin_key(sg)


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_graph_keys_digest_the_certificate(g, n, shared_classes):
    # the certificate's hash kept in the memo gives the key the one-part
    # digest gives
    for graph in shared_classes(g, n):
        assert canonical_key(graph) == _digest([canonical_form(graph)[0]])


def counted_sha256(monkeypatch):
    made = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda *args: made.append(args) or sha256(*args))
    return made


def test_canonical_form_and_trop_hash_nothing(tmp_path, capsys,
                                              monkeypatch):
    import json
    from fractions import Fraction

    from spinmod import cli
    from spinmod.tropical import INF, FamilyDescriptor

    made = counted_sha256(monkeypatch)
    canonical_form(make_loop_chain())
    assert made == []
    # the generic fiber's witness search certifies contracted targets,
    # and keys none of them
    theta = make_theta()
    family = FamilyDescriptor(SpinGraph(theta, spin(theta, [0, 1], (1,))),
                              [INF, INF, Fraction(1)])
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family.to_json_dict()))
    certified = []
    form = morphisms.canonical_form
    monkeypatch.setattr(morphisms, "canonical_form",
                        lambda graph: certified.append(graph) or form(graph))
    assert cli.main(["trop", str(path)]) == 0
    capsys.readouterr()
    assert certified and made == []


def test_each_certificate_hashed_once_per_graph(monkeypatch):
    # every hash the spin poset's run makes is one graph's certificate,
    # kept in that graph's memo: no graph is hashed twice
    from spinmod.posets import build_spin_poset

    made = counted_sha256(monkeypatch)
    certified = []
    form = morphisms.canonical_form
    monkeypatch.setattr(morphisms, "canonical_form",
                        lambda graph: certified.append(graph) or form(graph))
    build_spin_poset(3, 0)
    distinct = {id(graph): graph for graph in certified}.values()
    hashed = [graph for graph in distinct
              if graph.__dict__["_canonical_form"].hash is not None]
    assert len(made) == len(hashed) > 0


# -- order testing -------------------------------------------------------------

def test_order_test_matches_the_keyed_search():
    # every ordered pair of (2,1) spin classes: the orbit lookup finds a
    # witness exactly when keying each contracted target does, and the
    # same one
    from spinmod.posets import build_spin_poset

    reps = [nd.rep for nd in build_spin_poset(2, 1).nodes]
    assert len(reps) ** 2 == 7225
    found = 0
    for upper in reps:
        for lower in reps:
            witness = order_test(upper, lower)
            expected = key_oracle.keyed_order_test(upper, lower)
            assert (witness is None) == (expected is None)
            if witness is not None:
                assert witness.to_json_dict() == expected.to_json_dict()
                found += 1
    assert 0 < found < 7225


def test_contractions_onto_yield_the_keyed_subsets():
    # every ordered pair of (2,1) classes at most two edges apart: the
    # search yields exactly the subsets, in canonical order, whose
    # contracted target keys to the lower class, each carried onto the
    # lower graph object along an isomorphism; a target equal to it keeps
    # its maps
    from spinmod.posets import enumerate_stable_graphs

    classes = enumerate_stable_graphs(2, 1)
    identical = isomorphic = 0
    for ga in classes:
        for gb in classes:
            k = ga.n_edges - gb.n_edges
            if abs(k) > 2:
                continue
            key_b = canonical_key(gb)
            expected = [] if k < 0 else [
                subset for subset in itertools.combinations(
                    range(ga.n_edges), k)
                if canonical_key(contract(ga, list(subset)).target) == key_b]
            got = list(morphisms._contractions_onto(ga, gb))
            assert [tuple(c.contracted.indices()) for c, _ in got] == expected
            for c, carried in got:
                assert carried.target is gb and carried.source is ga
                assert carried.contracted.mask == c.contracted.mask
                if c.target == gb:
                    assert carried.vertex_map == c.vertex_map
                    assert carried.edge_map == c.edge_map
                    identical += 1
                else:
                    isomorphic += 1
                kept = {i: j for i, j in carried.edge_map.items()
                        if j is not None}
                assert sorted(kept.values()) == list(range(gb.n_edges))
                for i, j in kept.items():
                    ends = sorted(carried.vertex_map[v]
                                  for v in ga.edge_vertices(i))
                    assert ends == sorted(gb.edge_vertices(j))
    assert identical > 0 and isomorphic > 0


def _generic_fibers(g, n, seed):
    """Each spin class of ``(g, n)`` with a seeded valuation, paired with
    its generic fiber: the finite edges contracted, the spin structure
    pushed forward."""
    from spinmod.posets import build_spin_poset

    rng = random.Random(seed)
    for node in build_spin_poset(g, n).nodes:
        upper = node.rep
        finite = [i for i in range(upper.graph.n_edges) if rng.random() < 0.6]
        c = contract(upper.graph, finite)
        yield upper, SpinGraph(c.target, push_spin(c, upper.spin))


def _same_witness(upper, lower):
    witness = order_test(upper, lower)
    expected = oracles.order_test(upper, lower)
    assert (witness is None) == (expected is None)
    if witness is not None:
        assert witness.to_json_dict() == expected.to_json_dict()
    return witness


@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (3, 0)])
def test_order_test_skips_only_subsets_that_cannot_witness(g, n):
    # the b1 filter finds the same first witness as contracting every
    # subset, and no witness where that search finds none
    unrelated = 0
    for upper, generic in _generic_fibers(g, n, seed=g * 10 + n):
        assert _same_witness(upper, generic) is not None
        if generic.graph.n_edges < upper.graph.n_edges:
            # the wrong rank: a contraction never adds edges
            assert _same_witness(generic, upper) is None
            unrelated += 1
        # a structure outside the generic one's orbit: the other parity
        other = next((s for s in enumerate_spin(generic.graph)
                      if s.parity != generic.spin.parity), None)
        if other is not None:
            assert _same_witness(upper, SpinGraph(generic.graph, other)) \
                is None
            unrelated += 1
    assert unrelated > 0


@pytest.mark.parametrize("g,n", [(2, 1), (3, 0)])
def test_order_test_walks_the_lower_orbit_only_when_it_must(g, n,
                                                            monkeypatch):
    # a candidate pushed onto the lower structure itself is a witness
    # without the orbit; moving the lower structure along its orbit makes
    # some searches walk it, never more than once, and every witness
    # stays the one the up-front walk finds
    from spinmod import morphisms

    walks = []
    walk = orbits.spin_orbit
    monkeypatch.setattr(orbits, "spin_orbit",
                        lambda graph, spin: walks.append(graph)
                        or walk(graph, spin))
    per_call = []
    for upper, generic in _generic_fibers(g, n, seed=g * 10 + n):
        moved = {}
        for a in automorphisms(generic.graph).actions:
            image = SpinCarry(a, generic.spin.P,
                              generic.spin.dec).image(generic.spin)
            moved.setdefault(image.data(), image)
        for image in moved.values():
            before = len(walks)
            assert _same_witness(upper, SpinGraph(generic.graph, image)) \
                is not None
            per_call.append(len(walks) - before)
    assert set(per_call) == {0, 1}


def test_order_test_full_contraction(theta):
    upper = SpinGraph(theta, spin(theta, [0, 1], (1,)))
    gw = make_weight_vertex(2)
    lower = SpinGraph(gw, SpinStructure(gw, EdgeSet(gw, 0), (1,)))
    witness = order_test(upper, lower)
    assert witness is not None
    assert len(witness.contracted) == 3


def test_order_test_reflexive(dumbbell):
    sg = SpinGraph(dumbbell, spin(dumbbell, [0, 1], (1, 0)))
    witness = order_test(sg, sg)
    assert witness is not None
    assert witness.contracted.mask == 0


def test_order_test_parity_obstruction(theta):
    even = SpinGraph(theta, spin(theta, [0, 1], (0,)))
    gw = make_weight_vertex(2)
    odd = SpinGraph(gw, SpinStructure(gw, EdgeSet(gw, 0), (1,)))
    assert order_test(even, odd) is None


# -- decomposition identities as verification errors --------------------------

def test_act_spin_rejects_bad_decomposition(theta):
    # the decomposition memoised for the image mask is that of another
    # cyclic set, so a component lands on no component of the image
    s = spin(theta, [], (0, 0))
    wrong = pbar_decompose(theta, EdgeSet.from_indices(theta, [0, 1]))
    theta.__dict__["_pbar_decompositions"][0] = wrong
    ident = automorphisms(theta).actions[0]
    with pytest.raises(VerificationError) as info:
        SpinCarry(ident, s.P, s.dec).image(s)
    assert info.value.witnesses == (canonical_key(theta), "P=0", "image=0")


def test_push_spin_rejects_bad_decomposition(theta):
    # a spin structure carrying the decomposition of another cyclic set,
    # which the carry rejects before it reads any component
    wrong = pbar_decompose(theta, EdgeSet.from_indices(theta, [0, 1]))
    theta.__dict__["_pbar_decompositions"][0] = wrong
    s = SpinStructure(theta, EdgeSet(theta, 0), (1,))
    with pytest.raises(VerificationError) as info:
        push_spin(contract(theta, []), s)
    assert info.value.witnesses == (canonical_key(theta), "P=0", "F=0")


def test_act_spin_rejects_genus_change():
    # the decomposition memoised for the image mask has the vertex sets
    # of the right one but another genus
    rose = make_rose(3)
    s = spin(rose, [0], (1,))
    wrong = pbar_decompose(rose, EdgeSet.from_indices(rose, [0, 1]))
    rose.__dict__["_pbar_decompositions"][1] = wrong
    ident = automorphisms(rose).actions[0]
    with pytest.raises(VerificationError, match="genus") as info:
        SpinCarry(ident, s.P, s.dec).image(s)
    assert info.value.witnesses == (canonical_key(rose), "P=1", "image=1")


def test_act_spin_rejects_a_component_carried_onto_part_of_one():
    # the loop at vertex 0 alone against a decomposition memoised for it
    # that joins both vertices, with the same genus 1: component 0 lands
    # inside a larger component of the image
    chain = make_loop_chain()
    s = spin(chain, [2], (1, 0))
    joined = pbar_decompose(chain, EdgeSet.from_indices(chain, [0, 1]))
    chain.__dict__["_pbar_decompositions"][1 << 2] = joined
    ident = automorphisms(chain).actions[0]
    with pytest.raises(VerificationError,
                       match="maps component 0 of the opened graph onto "
                             "no component") as info:
        SpinCarry(ident, s.P, s.dec).image(s)
    assert info.value.witnesses == (canonical_key(chain), "P=4", "image=4")


def test_act_spin_rejects_two_components_carried_into_one():
    # the two loops of the loop chain, components {0} and {1} of genus 1,
    # against a decomposition memoised for their mask that is the 2-cycle
    # through both vertices, one component of genus 1: every genus
    # agrees, and only the two components meeting in one image betray it
    chain = make_loop_chain()
    s = spin(chain, [2, 3], (1, 0))
    joined = pbar_decompose(chain, EdgeSet.from_indices(chain, [0, 1]))
    assert joined.genera == (1,) == s.dec.genera[:1] == s.dec.genera[1:]
    chain.__dict__["_pbar_decompositions"][0b1100] = joined
    ident = automorphisms(chain).actions[0]
    with pytest.raises(VerificationError,
                       match="maps component 0 of the opened graph onto "
                             "no component") as info:
        SpinCarry(ident, s.P, s.dec).image(s)
    assert info.value.witnesses == (canonical_key(chain), "P=c", "image=c")


def test_push_spin_rejects_sign_on_genus_zero_component():
    # the target's decomposition of the image mask claims genus 0, so the
    # carried sign 1 lands where every sign must vanish
    rose = make_rose(3)
    s = spin(rose, [0], (1,))
    c = contract(rose, [])
    empty = pbar_decompose(c.target, EdgeSet(c.target, 0))
    c.target.__dict__["_pbar_decompositions"][1] = empty
    with pytest.raises(VerificationError, match="genus-0") as info:
        push_spin(c, s)
    assert info.value.witnesses == (canonical_key(rose), "P=1", "F=0")


def test_push_spin_rejects_parity_change(theta):
    s = spin(theta, [0, 1], (1,))
    s.parity = 0  # a stored parity that disagrees with the signs
    with pytest.raises(VerificationError) as info:
        push_spin(contract(theta, [2]), s)
    assert info.value.witnesses == (canonical_key(theta), "P=3", "F=4")


def test_spin_restriction_decomposes_each_mask_once(monkeypatch):
    from spinmod import cycles
    built = []
    init = cycles.PbarDecomposition.__init__

    def counting_init(self, graph, cyclic_set):
        built.append(cyclic_set.mask)
        init(self, graph, cyclic_set)

    monkeypatch.setattr(cycles.PbarDecomposition, "__init__", counting_init)
    for make in (make_theta, make_loop_chain, lambda: make_rose(3)):
        for s in enumerate_spin(make()):
            graph = make()  # no decomposition memoised on it yet
            s = SpinStructure(graph, EdgeSet(graph, s.P.mask), s.signs)
            group = automorphisms(graph)
            images = {a.act_mask(s.P.mask) for a in group.actions}
            del built[:]
            spin_orbit(graph, s)
            assert len(built) == len(set(built)) <= len(images)


def test_push_cycle_failure_is_verification_error(theta, monkeypatch):
    # a boundary map on the target that finds every image non-cyclic
    from spinmod import morphisms
    monkeypatch.setattr(morphisms, "boundary",
                        lambda graph, f: frozenset({0}))
    with pytest.raises(VerificationError) as info:
        push_cycle(contract(theta, [2]), EdgeSet.from_indices(theta, [0, 1]))
    assert info.value.witnesses == (canonical_key(theta), "P=3", "F=4")


def test_push_cycle_rejects_a_source_set_that_is_not_cyclic():
    # one edge of the 2-cycle of the loop chain has two odd ends
    chain = make_loop_chain()
    with pytest.raises(DomainError,
                       match="^pushforward requires a cyclic edge set$"):
        push_cycle(contract(chain, [3]), EdgeSet.from_indices(chain, [0]))


def _dropping_contraction():
    """The loop chain with its loop at vertex 1 contracted, an edge map
    altered to drop edge 1 of the 2-cycle ``P = {0, 1}``, and ``P``: the
    image is edge 0 alone, whose two ends are odd."""
    chain = make_loop_chain()
    c = contract(chain, [3])
    c.edge_map[1] = None
    return c, EdgeSet(chain, 0b0011)


def test_push_cycle_rejects_an_image_that_is_not_cyclic():
    c, p = _dropping_contraction()
    with pytest.raises(VerificationError,
                       match="^pushforward of a cyclic set is not cyclic$"
                       ) as info:
        push_cycle(c, p)
    assert info.value.witnesses == (canonical_key(c.source), "P=3", "F=8")


@pytest.mark.parametrize("proven", [True, False])
def test_carry_checks_the_image_on_a_decomposition_memo_miss(proven):
    # a decomposition of the set over the graph or over an equal copy of
    # it proves the set cyclic; either way the image, undecomposed on the
    # fresh target, fails as push_cycle fails
    c, p = _dropping_contraction()
    if not proven:
        p = EdgeSet(make_loop_chain(), p.mask)
    with pytest.raises(VerificationError,
                       match="^pushforward of a cyclic set is not cyclic$"
                       ) as info:
        SpinCarry(c, p, pbar_decompose(p.graph, p))
    assert info.value.witnesses == (canonical_key(c.source), "P=3", "F=8")


def test_carry_reads_a_memoised_image_decomposition_as_its_check(
        monkeypatch):
    # the set's own decomposition and the target's memoised one prove both
    # ends cyclic, so the carry walks no boundary
    chain = make_loop_chain()
    c = contract(chain, [3])
    p = EdgeSet(chain, 0b0011)
    dec = pbar_decompose(chain, p)
    pbar_decompose(c.target, EdgeSet(c.target, c.push_mask(p.mask)))
    walked = []
    monkeypatch.setattr(morphisms, "boundary",
                        lambda graph, f: walked.append(f.mask))
    assert SpinCarry(c, p, dec).mask == 0b011
    assert walked == []


def test_carry_walks_the_image_once_on_a_decomposition_memo_miss(
        monkeypatch):
    # the image's decomposition, built on the fresh target, is the one
    # walk of a memo miss; a second carry hits that memo and walks
    # nothing, in either module that calls boundary
    import sys
    from collections import Counter
    from spinmod import cycles

    chain = make_loop_chain()
    c = contract(chain, [3])
    p = EdgeSet(chain, 0b0011)
    dec = pbar_decompose(chain, p)
    walks = Counter()
    walk = cycles.boundary

    def counting(graph, edge_set):
        caller = sys._getframe(1)
        if caller.f_code is cycles.is_cyclic.__code__:
            caller = caller.f_back
        walks[caller.f_code.co_qualname] += 1
        return walk(graph, edge_set)

    monkeypatch.setattr(cycles, "boundary", counting)
    monkeypatch.setattr(morphisms, "boundary", counting)
    assert SpinCarry(c, p, dec).mask == 0b011
    assert walks == {"PbarDecomposition.__init__": 1}
    walks.clear()
    assert SpinCarry(c, p, dec).mask == 0b011
    assert walks == {}


def test_automorphism_carrying_a_set_off_the_cycle_space_fails_verification():
    # an action class whose edge permutation sends edge 1 of the 2-cycle
    # P = {0, 1} of the loop chain to the loop at vertex 1: the image
    # {0, 3} has two odd ends
    chain = make_loop_chain()
    bad = morphisms.Aut(chain, {0: 0, 1: 1}, (0, 3, 2, 1))
    p = EdgeSet(chain, 0b0011)
    with pytest.raises(VerificationError,
                       match="^pushforward of a cyclic set is not cyclic$"
                       ) as info:
        SpinCarry(bad, p, pbar_decompose(chain, p))
    assert info.value.witnesses == (canonical_key(chain), "P=3", "image=9")


@pytest.mark.parametrize("kind", ["automorphism", "contraction"])
def test_carry_rejects_the_decomposition_of_another_cyclic_set(kind):
    # {0, 2} has the shape of {0, 1} on the theta graph, one component
    # of genus 1, so only the mask tells them apart
    theta = make_theta()
    p = EdgeSet(theta, 0b011)
    other = pbar_decompose(theta, EdgeSet(theta, 0b101))
    assert other.genera == pbar_decompose(theta, p).genera
    if kind == "automorphism":
        f, last = automorphisms(theta).actions[0], "image=3"
    else:
        f, last = contract(theta, []), "F=0"
    with pytest.raises(VerificationError,
                       match="^a carry was given the decomposition of "
                             "another cyclic set$") as info:
        SpinCarry(f, p, other)
    assert info.value.witnesses == (canonical_key(theta), "P=3", last)


def test_canonical_form_then_automorphisms_refines_the_root_once(
        monkeypatch):
    # the group is ordered by the root colours the form's search refined
    calls = []
    initial = morphisms._initial_colors
    monkeypatch.setattr(morphisms, "_initial_colors",
                        lambda graph: calls.append(graph) or initial(graph))
    graph = make_loop_chain()
    canonical_form(graph)
    automorphisms(graph)
    assert calls == [graph]
    memo = graph.__dict__["_canonical_form"]
    assert memo.leaves is memo.colors is None


# -- spin data carried once per (map, cyclic set) -----------------------------

@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (3, 0)])
def test_spin_actions_match_per_image_oracle(g, n):
    # every element on every spin structure, and the contraction table's
    # one contraction per edge orbit (carried onto its target class) on
    # every spin structure, through one action shared by the class, against
    # the bodies that decompose and build each image
    from spinmod.posets import _edge_contractions, enumerate_stable_graphs

    classes = enumerate_stable_graphs(g, n)
    reps = {canonical_key(graph): graph for graph in classes}
    for graph in classes:
        act = oracles.spin_action()
        spins = enumerate_spin(graph)
        for a in oracles.element_group(graph).elements:
            for s in spins:
                want = oracles.act_spin(a, s).data()
                assert act(a, s) == SpinCarry(a, s.P, s.dec).image(s).data() \
                    == want
        for _, _, c in _edge_contractions(graph, reps):
            for s in spins:
                want = oracles.push_spin(c, s).data()
                assert act(c, s) == push_spin(c, s).data() == want


@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (3, 0)])
def test_spin_orbit_tables_match_per_image_orbits(g, n, shared_classes):
    for graph in shared_classes(g, n):
        spins = enumerate_spin(graph)
        group = oracles.element_group(graph).elements
        orbits = {s.data(): frozenset(oracles.act_spin(a, s).data()
                                      for a in group) for s in spins}
        walked = spin_orbits(automorphisms(graph), spin_fibres(graph))
        assert len(walked.reps) == len(set(orbits.values()))
        assert {(mask, signs) for mask, fibre in walked.table.items()
                for signs in fibre} == set(orbits)
        for data, orbit in orbits.items():
            assert {walked.orbit(*x) for x in orbit} == {walked.orbit(*data)}


@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (3, 0), (3, 1), (0, 6)])
def test_fibred_walk_matches_the_full_group_walk(g, n, shared_classes):
    # representatives, orbit table and stabilizers of the walk fibred
    # over the cyclic sets, against the walk of every action class over
    # every spin structure; its keys against the least encoding of each
    # representative over the whole group, element by element
    for graph in shared_classes(g, n):
        walked = spin_orbits(automorphisms(graph), spin_fibres(graph))
        reps, orbit_of, stabilizers, _ = oracles.spin_orbits(
            graph, enumerate_spin(graph))
        assert walked.reps == reps
        assert {(mask, signs): k for mask, fibre in walked.table.items()
                for signs, k in fibre.items()} == orbit_of
        assert walked.entries() == len(orbit_of)
        assert walked.stabilizers == stabilizers
        assert spin_orbit_keys(graph, walked) == [
            key_oracle.spin_key(SpinGraph(graph, s))
            for s in walked.representatives()]


def _mutate_transporters(monkeypatch, mutate):
    """Every walk over masks hands its transporters to ``mutate(group,
    reps, orbit_of, transporters)`` before they are read; ``mutate``
    returns whether it changed one."""
    original = morphisms.AutGroup.mask_orbits
    changed = []

    def walk(self, masks):
        out = original(self, masks)
        reps, orbit_of, _, transporters = out
        changed.append(mutate(self, reps, orbit_of, transporters))
        return out

    monkeypatch.setattr(morphisms.AutGroup, "mask_orbits", walk)
    return changed


def _dropped(group, reps, orbit_of, transporters):
    q = next((q for q, k in orbit_of.items() if q != reps[k]), None)
    if q is not None:
        del transporters[q]
    return q is not None


def _from_another_orbit(group, reps, orbit_of, transporters):
    # a mask's transporter replaced by that of a mask of another orbit,
    # when it carries the mask's orbit representative elsewhere
    for q, k in orbit_of.items():
        for other, j in orbit_of.items():
            c = transporters[other]
            if j != k and q != reps[k] and \
                    group.actions[c].act_mask(reps[k]) != q:
                transporters[q] = c
                return True
    return False


@pytest.mark.parametrize("mutate,message", [
    (_dropped, "no transporter"),
    (_from_another_orbit, "does not carry the least set")],
    ids=["dropped", "from-another-orbit"])
def test_a_wrong_transporter_fails_the_walk(mutate, message, monkeypatch):
    # a walk whose transporters lost one mask, or carry one mask's orbit
    # representative elsewhere, is a verification error naming the
    # class, its orbit's least set and the mask
    changed = _mutate_transporters(monkeypatch, mutate)
    from spinmod.posets import build_spin_poset

    with pytest.raises(VerificationError, match=message) as info:
        build_spin_poset(3, 0)
    assert any(changed)
    key, least, mask = info.value.witnesses
    assert least.startswith("P=") and mask.startswith(("image=", "F="))


def test_a_dropped_transporter_fails_a_spin_key(monkeypatch):
    # the walk over one structure's orbit: the theta graph's three
    # 2-cycles form one orbit, and the key fails once one loses its
    # transporter
    changed = _mutate_transporters(monkeypatch, _dropped)
    theta = make_theta()
    with pytest.raises(VerificationError, match="no transporter"):
        canonical_key(SpinGraph(theta, spin(theta, [0, 1], (1,))))
    assert changed == [True]


# -- orbit walks over action classes -------------------------------------------

def _rotation(r):
    """Rotation by ``r`` steps of the 4-cycle, on its vertex subsets
    given as 4-bit masks."""
    return lambda m: (m << r | m >> 4 - r) & 15


def test_orbit_walk_on_the_rotations_of_a_square():
    # the rotations of a 4-cycle on its vertex subsets: six orbits, the
    # least member of each met first; the empty and full sets are fixed
    # by every rotation, and equal stabilizers are one tuple
    reps, orbit_of, stabilizers, transporters = orbit_walk(
        range(16), [(r, _rotation(r)) for r in range(4)])
    assert reps == [0, 1, 3, 5, 7, 15]
    assert list(orbit_of.items()) == [
        (0, 0), (1, 1), (2, 1), (4, 1), (8, 1), (3, 2), (6, 2), (12, 2),
        (9, 2), (5, 3), (10, 3), (7, 4), (14, 4), (13, 4), (11, 4), (15, 5)]
    assert stabilizers == [(0, 1, 2, 3), (0,), (0,), (0, 2), (0,),
                           (0, 1, 2, 3)]
    assert stabilizers[0] is stabilizers[5]
    assert stabilizers[1] is stabilizers[2] is stabilizers[4]
    assert transporters == {0: 0, 1: 0, 2: 1, 4: 2, 8: 3, 3: 0, 6: 1,
                            12: 2, 9: 3, 5: 0, 10: 1, 7: 0, 14: 1, 13: 2,
                            11: 3, 15: 0}
    # a subgroup keeps the indices of its classes: the half-turn alone,
    # over items that are not closed under it
    reps, orbit_of, stabilizers, transporters = orbit_walk(
        [1, 2, 4, 5], [(0, _rotation(0)), (2, _rotation(2))])
    assert reps == [1, 2, 5]
    assert orbit_of == {1: 0, 4: 0, 2: 1, 8: 1, 5: 2}
    assert stabilizers == [(0,), (0,), (0, 2)]
    assert transporters == {1: 0, 4: 2, 2: 0, 8: 2, 5: 0}


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_action_classes_are_the_loop_flip_cosets(g, n, shared_classes):
    # a loop flip moves no vertex and no edge, so each action on vertices
    # and edges is carried by 2^loops elements of the oracle's group; two
    # elements share a class exactly when they differ by flipping loops:
    # on each half-edge they agree, or it lies on a loop and they send it
    # to the two ends of one loop.  The package holds the first element
    # of each class, in group order, and the loops as flips
    for graph in shared_classes(g, n):
        group = automorphisms(graph)
        oracle = oracles.element_group(graph)
        actions, class_of = oracle.action_classes
        loops = [i for i in range(graph.n_edges)
                 if len(set(graph.edge_vertices(i))) == 1]
        on_loop = {h for i in loops for h in graph.edges[i]}
        assert oracle.order == len(actions) * 2 ** len(loops)
        assert len(class_of) == oracle.order
        assert [oracle.elements[class_of.index(k)] for k in range(
            len(actions))] == list(actions)
        assert actions_of(group) == [(a.vertex_map, a.edge_perm)
                                     for a in actions]
        assert group.flips == len(loops)

        def flips_apart(a, b):
            return all(a.half_map[h] == b.half_map[h]
                       or (h in on_loop and a.half_map[h]
                           == graph.involution[b.half_map[h]])
                       for h in graph.half_edges)

        for (i, a), (j, b) in itertools.combinations(
                enumerate(oracle.elements), 2):
            assert (class_of[i] == class_of[j]) == flips_apart(a, b)


@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (3, 0), (3, 1)])
def test_orbit_walk_matches_the_walk_over_every_element(g, n,
                                                        shared_classes):
    # representatives, orbit table (in insertion order) and stabilizers
    # (every fixing element, in group order) on cyclic sets and spin
    # structures, against the walk that acts with every element; each
    # transporter is the first action class carrying the representative
    # onto its image
    for graph in shared_classes(g, n):
        group = automorphisms(graph)
        oracle = oracles.element_group(graph)
        cyclic, spins = enumerate_cyclic(graph), enumerate_spin(graph)
        for walked, items, data, act in (
                (group.mask_orbits([p.mask for p in cyclic]), cyclic,
                 lambda p: p.mask, lambda a, p: a.act_mask(p.mask)),
                (oracles.spin_orbits(graph, spins), spins,
                 SpinStructure.data, oracles.spin_action())):
            reps, orbit_of, stabs, transporters = walked
            want_reps, want_orbit_of, want_stabs = \
                oracles.orbit_representatives(oracle, items, data, act)
            assert reps == [data(r) for r in want_reps]
            assert list(orbit_of.items()) == list(want_orbit_of.items())
            assert [oracle.subgroup(s).elements for s in stabs] == \
                [s.elements for s in want_stabs]
            assert [group.subgroup(s).order for s in stabs] == \
                [s.order for s in want_stabs]
            rep_of = {data(r): r for r in want_reps}
            assert list(transporters) == list(orbit_of)
            for image, c in transporters.items():
                rep = rep_of[reps[orbit_of[image]]]
                assert [act(a, rep) for a in group.actions].index(image) == c


def test_spin_orbit_stabilizer_keeps_every_fixing_element(dumbbell):
    # the two loop flips fix every structure, so the stabilizer a walk
    # over one structure returns holds them too once expanded: every
    # element that fixes the structure, in group order, and a multiple of
    # 4 of them
    group = oracles.element_group(dumbbell)
    for s in enumerate_spin(dumbbell):
        (classes,) = spin_orbit(dumbbell, s).stabilizers
        fixing = group.subgroup(classes)
        want = oracles.orbit_representatives(
            group, [s], SpinStructure.data,
            lambda a, t: oracles.act_spin(a, t).data())[2][0]
        assert fixing.elements == want.elements
        assert len(fixing.elements) % 4 == 0
        assert automorphisms(dumbbell).subgroup(classes).order == \
            want.order
