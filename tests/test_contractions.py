"""Contractions derived from their source against the validating oracle,
the mask-walking boundary against a degree count, and the two checks a
contraction must pass, shown to fail on what it computes."""

import json
import random
from collections import Counter

import pytest

from spinmod import morphisms
from spinmod.cli import main
from spinmod.cycles import EdgeSet, boundary
from spinmod.errors import VerificationError
from spinmod.graphs import blow_up
from spinmod.morphisms import canonical_key, contract
from spinmod.posets import enumerate_stable_graphs

from conftest import make_dumbbell, make_theta
import oracles


def assert_matches_oracle(graph, mask):
    edges = EdgeSet(graph, mask)
    c = contract(graph, edges)
    target, vertex_map, edge_map = oracles.reference_contraction(graph, edges)
    # no second union-find runs while the target is derived
    assert not {"components", "c", "b1", "genus"} & c.target.__dict__.keys()
    assert c.target._ident() == target._ident()
    assert c.target.vertices == target.vertices
    assert c.target.half_edges == target.half_edges
    assert c.target.edges == target.edges
    assert c.target.exceptional == target.exceptional
    assert c.vertex_map == vertex_map
    assert c.edge_map == edge_map
    assert (c.target.b1, c.target.c, c.target.genus) == \
        (target.b1, target.c, target.genus)


@pytest.mark.parametrize("g,n", [(1, 2), (2, 0), (2, 1)])
def test_contraction_matches_the_oracle_on_every_subset(g, n, shared_classes):
    for graph in shared_classes(g, n):
        for mask in range(1 << graph.n_edges):
            assert_matches_oracle(graph, mask)


def test_contraction_keeps_the_exceptional_representatives():
    # a blown-up edge puts a weight-0 exceptional vertex on it; contracting
    # a half of that edge merges it into a smaller vertex, which is not
    # exceptional, and contracting neither half keeps it
    graph = blow_up(make_theta(), [0, 2])
    assert graph.exceptional == {2, 3}
    for mask in range(1 << graph.n_edges):
        assert_matches_oracle(graph, mask)


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_contraction_matches_the_oracle_on_a_seeded_sample(g, n,
                                                           shared_classes):
    classes = shared_classes(g, n)
    rng = random.Random(f"contract-{g}-{n}")
    for _ in range(500):
        graph = classes[rng.randrange(len(classes))]
        assert_matches_oracle(graph, rng.getrandbits(graph.n_edges))


def boundary_by_degrees(graph, mask):
    """The vertices of odd degree in the spanned subgraph, by counting
    both ends of every edge in the set (a loop counts twice)."""
    degree = Counter()
    for i in range(graph.n_edges):
        if mask >> i & 1:
            u, v = graph.edge_vertices(i)
            degree[u] += 1
            degree[v] += 1
    return frozenset(v for v, d in degree.items() if d % 2)


def test_boundary_matches_the_degree_count(shared_classes):
    rng = random.Random("boundary")
    with_loops = 0
    for g, n in [(1, 2), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]:
        for graph in shared_classes(g, n):
            loops = sum(1 << i for i in range(graph.n_edges)
                        if len(set(graph.edge_vertices(i))) == 1)
            for _ in range(8):
                mask = rng.getrandbits(graph.n_edges)
                with_loops += bool(mask & loops)
                assert boundary(graph, EdgeSet(graph, mask)) == \
                    boundary_by_degrees(graph, mask)
    assert with_loops > 100


# -- the checks on what a contraction computes --------------------------------

def merge_one_extra_pair(classes):
    """The classes with the first two merged into one."""
    if len(classes) < 2:
        return classes
    return [sorted(classes[0] + classes[1])] + classes[2:]


def count_a_member_twice(classes):
    """The classes with the least member of the first listed twice: its
    weight and its place in the class size count twice, which shifts the
    class's computed weight by one less than that vertex's weight (by
    minus one on a weight-0 vertex)."""
    return [classes[0] + classes[0][:1]] + classes[1:]


# the mutation, a graph and edge to contract under it, the failure it
# must raise there, and the start of every failure it raises
MUTATIONS = {
    "merged-pair": (merge_one_extra_pair, make_dumbbell, [0],
                    "left 1 vertices, expected |V| - |F| + b1(F) = 2",
                    "contraction left "),
    "shifted-weight": (count_a_member_twice, make_theta, [0],
                       "total weight of -1, expected the source's plus "
                       "b1(F) = 0", "contraction gave a total weight "),
}


def mutate(monkeypatch, alter):
    original = morphisms.connected_classes
    monkeypatch.setattr(morphisms, "connected_classes",
                        lambda items, pairs: alter(original(items, pairs)))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_contraction_checks_fail_on_a_wrong_computation(name, monkeypatch):
    alter, make, indices, message, _ = MUTATIONS[name]
    graph = make()
    key = canonical_key(graph)
    mutate(monkeypatch, alter)
    with pytest.raises(VerificationError) as info:
        contract(graph, indices)
    assert message in str(info.value)
    assert info.value.witnesses == (key, "F=1")


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_verify_reports_a_wrong_contraction(name, monkeypatch, capsys):
    # a contraction of the closure fails, and the record names a class
    # and a nonempty edge set over it
    classes = {canonical_key(graph): graph
               for graph in enumerate_stable_graphs(2, 0)}
    alter, _, _, _, start = MUTATIONS[name]
    mutate(monkeypatch, alter)
    assert main(["verify", "--g", "2", "--n", "0", "--suite", "posets"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "fail"
    assert record["error"].startswith(start)
    key, edges = record["witnesses"]
    assert edges.startswith("F=")
    assert 0 < int(edges[2:], 16) < 1 << classes[key].n_edges


def test_contraction_check_rejects_a_negative_weight():
    # contracting the dumbbell's loop at 0 leaves weights {0: 1, 1: 0};
    # moving two units from vertex 1 to vertex 0 keeps the vertex count
    # and the total, so only the sign check can fail
    graph = make_dumbbell()
    c = contract(graph, [0])
    assert c.target.weight == {0: 1, 1: 0}
    with pytest.raises(VerificationError) as info:
        c._check({0: 2, 1: -1})
    assert str(info.value) == ("contraction gave a vertex the negative "
                               "weight -1")
    assert info.value.witnesses == (canonical_key(graph), "F=1")


def test_isomorphism_of_different_classes_is_a_verification_error():
    theta, dumbbell = make_theta(), make_dumbbell()
    with pytest.raises(VerificationError) as info:
        morphisms._isomorphism(theta, dumbbell)
    assert "not isomorphic" in str(info.value)
    # each witness is the digest of a certificate, which is the graph's key
    assert info.value.witnesses == (canonical_key(theta),
                                    canonical_key(dumbbell))
