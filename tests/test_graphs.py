import json

import pytest

from spinmod.errors import InputError
from spinmod.graphs import (Graph, blow_up, canonical_divisor, classify,
                            is_stable)

from conftest import (make_dumbbell, make_loop_chain, make_one_loop_one_leg,
                      make_rose, make_theta, make_two_loops,
                      make_weight_vertex, subgraph_on)
from oracles import remove_edges


def test_genus_fixtures(theta, dumbbell):
    assert theta.genus == 2
    assert dumbbell.genus == 2
    assert make_weight_vertex(3).genus == 3
    assert make_one_loop_one_leg().genus == 1


def test_genus_disconnected():
    g = Graph.build([(0, 1), (1, 0)], [(1, 1)])
    assert g.c == 2
    assert g.genus == 1 + (1 - 2 + 2)


def test_stability(theta):
    assert is_stable(theta)
    bare_loop = make_rose(1)
    assert not is_stable(bare_loop)
    assert is_stable(make_one_loop_one_leg())
    assert not is_stable(Graph.build([(0, 0), (1, 1)], [(1, 1)]))


def test_canonical_divisor_values(theta, dumbbell):
    k = canonical_divisor(theta)
    assert [k[v] for v in theta.vertices] == [1, 1]
    assert k.degree == 2 * theta.genus - 2
    k = canonical_divisor(make_weight_vertex(3))
    assert k[0] == 4
    k = canonical_divisor(dumbbell)
    assert [k[v] for v in dumbbell.vertices] == [1, 1]


def test_canonical_divisor_degree_identity():
    for g in [make_theta(), make_dumbbell(), make_rose(3), make_loop_chain(),
              make_weight_vertex(2), make_one_loop_one_leg()]:
        assert canonical_divisor(g).degree == 2 * g.genus - 2 * g.c


def test_remove_edges_closed(theta):
    g = remove_edges(theta, [2])
    assert g.n_edges == 2
    assert g.n_legs == 0
    assert g.vertices == theta.vertices


def test_remove_edges_open(theta):
    g = remove_edges(theta, [2], open=True)
    assert g.n_edges == 2
    assert g.n_legs == 2
    assert g.vertices == theta.vertices
    # new legs keep the half-edge ids of the removed edge, sorted
    assert g.legs == (4, 5)


def test_remove_edges_identity(theta):
    assert remove_edges(theta, []) == theta
    assert remove_edges(theta, [], open=True) == theta


def test_remove_edges_leg_count_identity():
    for g in [make_theta(), make_dumbbell(), make_loop_chain()]:
        for mask in range(2 ** g.n_edges):
            f = [i for i in range(g.n_edges) if mask >> i & 1]
            assert remove_edges(g, f, open=True).n_legs == g.n_legs + 2 * len(f)


def test_remove_edges_dumbbell_open():
    g = make_dumbbell()
    out = remove_edges(g, [1, 2], open=True)
    comps = out.components
    assert len(comps) == 2
    pieces = [subgraph_on(out, c) for c in comps]
    by_vertex = {p.vertices[0]: p for p in pieces}
    assert by_vertex[0].n_edges == 1 and by_vertex[0].n_legs == 1
    assert by_vertex[1].n_edges == 0 and by_vertex[1].n_legs == 3


def test_remove_edges_open_components_stable():
    for g in [make_theta(), make_dumbbell(), make_loop_chain(),
              make_one_loop_one_leg()]:
        assert is_stable(g)
        for mask in range(2 ** g.n_edges):
            f = [i for i in range(g.n_edges) if mask >> i & 1]
            out = remove_edges(g, f, open=True)
            for comp in out.components:
                assert is_stable(subgraph_on(out, comp))


def test_remove_edges_bad_index(theta):
    with pytest.raises(InputError):
        remove_edges(theta, [7])


def test_blow_up_theta(theta):
    g = blow_up(theta, [2])
    assert len(g.vertices) == 3
    assert g.n_edges == 4
    new = (set(g.vertices) - set(theta.vertices)).pop()
    assert g.w(new) == 0
    assert g.deg(new) == 2
    assert new in g.exceptional
    assert g.genus == theta.genus


def test_blow_up_identity_and_loop(theta):
    assert blow_up(theta, []) == theta
    g = blow_up(make_one_loop_one_leg(), [0])
    assert len(g.vertices) == 2
    assert g.n_edges == 2
    assert g.n_legs == 1
    assert g.multiplicity == {(0, 1): 2}


def test_blow_up_preserves_genus():
    for g in [make_theta(), make_dumbbell(), make_rose(3), make_loop_chain()]:
        for mask in range(2 ** g.n_edges):
            r = [i for i in range(g.n_edges) if mask >> i & 1]
            assert blow_up(g, r).genus == g.genus


def test_classify_theta(theta):
    c = classify(theta)
    assert not c.eulerian
    assert c.three_regular
    assert not c.basic


def test_classify_rose3():
    c = classify(make_rose(3))
    assert c.eulerian
    assert not c.basic


def test_classify_two_loops_basic():
    c = classify(make_two_loops())
    assert c.basic
    assert c.vertex_classes == {0: (0, 2)}


def test_classify_loop_chain_basic():
    c = classify(make_loop_chain())
    assert c.basic
    assert c.vertex_classes == {0: (0, 1), 1: (0, 1)}


def test_classify_weight_one_loop():
    g = Graph.build([(0, 1)], [(0, 0)])
    c = classify(g)
    assert c.basic
    assert c.vertex_classes == {0: (1, 2)}


def test_json_roundtrip(theta, dumbbell):
    for g in [theta, dumbbell, make_one_loop_one_leg(), make_weight_vertex(2, 1)]:
        for half_edges in (False, True):
            text = json.dumps(g.to_json_dict(half_edges=half_edges))
            assert Graph.from_json_dict(json.loads(text)) == g


def test_json_loop_encoding():
    g = make_rose(2)
    data = g.to_json_dict()
    assert data["edges"] == [[0, 0], [0, 0]]


def test_json_malformed():
    with pytest.raises(InputError):
        Graph.from_json_dict(json.loads('{"edges": []}'))


def test_exceptional_id_must_be_a_vertex():
    with pytest.raises(InputError, match="exceptional vertex 9 is not a "
                                         "vertex"):
        Graph.build([(0, 0), (1, 1)], [(0, 1)], exceptional=[9])
    data = make_one_loop_one_leg().to_json_dict()
    data["exceptional"] = [0, 2]
    with pytest.raises(InputError, match="exceptional vertex 2"):
        Graph.from_json_dict(data)


@pytest.mark.parametrize("field", ["half_edges", "endpoint", "involution"])
def test_half_edge_block_must_hold_objects(field):
    data = make_one_loop_one_leg().to_json_dict(half_edges=True)
    if field == "half_edges":
        data[field] = []
    else:
        data["half_edges"][field] = []
    with pytest.raises(InputError, match=f"'{field}' holds \\[\\], not a "
                                         "JSON object"):
        Graph.from_json_dict(data)


@pytest.mark.parametrize("path,value,named", [
    (("half_edges", "endpoint", "0"), 0.5, "'endpoint'"),
    (("half_edges", "involution", "0"), True, "'involution'"),
    (("half_edges", "legs", 0), 6.0, "'legs'"),
    (("legs", 0), False, "'legs'"),
    (("exceptional",), [0.0], "'exceptional'"),
])
def test_json_fields_must_be_integers(path, value, named):
    data = make_one_loop_one_leg().to_json_dict(
        half_edges=path[0] == "half_edges")
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InputError, match=named):
        Graph.from_json_dict(data)


@pytest.mark.parametrize("block", ["endpoint", "involution"])
@pytest.mark.parametrize("spelling", [" 1", "1 ", "01", "+1", "-1", "0x1",
                                      "\uff11", ""])
def test_json_half_edge_ids_read_only_as_str_writes_them(block, spelling):
    graph = make_one_loop_one_leg()
    data = graph.to_json_dict(half_edges=True)
    assert Graph.from_json_dict(data) == graph
    entries = data["half_edges"][block]
    entries[spelling] = entries.pop("1")
    with pytest.raises(InputError, match=f"'{block}'"):
        Graph.from_json_dict(data)


def test_json_half_edge_id_spelled_twice_is_input_error():
    # int() would read both keys as half-edge 1, the second overwriting
    # the first
    data = make_one_loop_one_leg().to_json_dict(half_edges=True)
    data["half_edges"]["endpoint"][" 1"] = 0
    with pytest.raises(InputError, match="' 1'"):
        Graph.from_json_dict(data)


def test_half_edge_counts(dumbbell):
    assert len(dumbbell.half_edges) == 6
    assert dumbbell.n_edges == (len(dumbbell.half_edges) - dumbbell.n_legs) // 2
    g = make_one_loop_one_leg()
    assert g.n_edges == (len(g.half_edges) - g.n_legs) // 2


def _reordered(graph):
    """The same graph through the validating constructor, every dict
    built in reverse order."""
    return Graph(dict(reversed(graph.weight.items())),
                 dict(reversed(graph.endpoint.items())),
                 dict(reversed(graph.involution.items())), graph.legs,
                 graph.exceptional)


def _derived_copy(graph):
    """The same graph through ``Graph._derived``, with copied dicts in
    reverse order."""
    return Graph._derived(
        dict(reversed(graph.weight.items())),
        dict(reversed(graph.endpoint.items())),
        dict(reversed(graph.involution.items())), tuple(graph.legs),
        frozenset(graph.exceptional), graph.vertices, graph.half_edges,
        graph.edges)


def test_equal_data_in_any_dict_order_is_equal_and_hashes_equal():
    # two parallel edges between vertices 0 and 1, a leg at each
    weight = {0: 0, 1: 1}
    endpoint = {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1}
    involution = {0: 2, 2: 0, 1: 3, 3: 1, 4: 4, 5: 5}
    graph = Graph(weight, endpoint, involution, (4, 5))
    for copy in (_reordered(graph), _derived_copy(graph)):
        assert copy is not graph
        assert copy == graph and graph == copy
        assert hash(copy) == hash(graph)
    # one field changed at a time, each still a valid graph
    for other in (Graph({0: 1, 1: 0}, endpoint, involution, (4, 5)),
                  Graph(weight, {**endpoint, 4: 1, 5: 0}, involution,
                        (4, 5)),
                  Graph(weight, endpoint,
                        {0: 3, 3: 0, 1: 2, 2: 1, 4: 4, 5: 5}, (4, 5)),
                  Graph(weight, endpoint, involution, (5, 4))):
        assert other != graph and graph != other


def test_equality_agrees_with_the_structural_identity(shared_classes):
    # every pair among the (2,2) classes, their single-edge contraction
    # targets and a rebuilt copy of each: == holds exactly when _ident()
    # agrees, and equal graphs hash equal
    from spinmod.morphisms import contract

    graphs = list(shared_classes(2, 2))
    graphs += [contract(g, [i]).target for g in graphs[:]
               for i in range(g.n_edges)]
    graphs += [_reordered(g) for g in graphs[:]]
    idents = [g._ident() for g in graphs]
    equal_pairs = 0
    for a, ident_a in zip(graphs, idents):
        for b, ident_b in zip(graphs, idents):
            assert (a == b) is (ident_a == ident_b)
            if a is not b and a == b:
                assert hash(a) == hash(b)
                equal_pairs += 1
    assert equal_pairs >= len(graphs)
