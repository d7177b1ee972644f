import itertools

import pytest

from spinmod import cycles
from spinmod.cli import main
from spinmod.cycles import (EdgeSet, boundary, cycle_basis, enumerate_cyclic,
                            pbar_decompose)
from spinmod.errors import (BudgetError, DomainError, InputError,
                            VerificationError)
from spinmod.graphs import Graph
from spinmod.morphisms import (SpinCarry, automorphisms, canonical_key,
                               contract, cyclic_canonical_key, push_cycle)
from spinmod.spin import SpinStructure

from conftest import (make_dumbbell, make_loop_chain, make_one_loop_one_leg,
                      make_rose, make_theta, make_weight_vertex, subgraph_on)
import oracles


def brute_force_kernel(graph):
    """All edge subsets with empty boundary, by exhaustive search."""
    out = []
    for mask in range(2 ** graph.n_edges):
        f = EdgeSet(graph, mask)
        if not boundary(graph, f):
            out.append(mask)
    return sorted(out)


def test_boundary_theta(theta):
    assert boundary(theta, EdgeSet.from_indices(theta, [0])) == frozenset({0, 1})
    assert boundary(theta, EdgeSet.from_indices(theta, [0, 1])) == frozenset()


def test_boundary_loop(dumbbell):
    assert boundary(dumbbell, EdgeSet.from_indices(dumbbell, [0])) == frozenset()
    assert boundary(dumbbell, EdgeSet.from_indices(dumbbell, [2])) == frozenset({0, 1})


def test_boundary_linear():
    g = make_loop_chain()
    for m1, m2 in itertools.product(range(2 ** g.n_edges), repeat=2):
        b1 = boundary(g, EdgeSet(g, m1))
        b2 = boundary(g, EdgeSet(g, m2))
        b12 = boundary(g, EdgeSet(g, m1 ^ m2))
        assert b12 == b1 ^ b2


def test_cycle_basis_sizes():
    for g in [make_theta(), make_dumbbell(), make_rose(3), make_loop_chain(),
              make_weight_vertex(2), make_one_loop_one_leg()]:
        basis = cycle_basis(g)
        assert len(basis) == g.b1
        for b in basis:
            assert not boundary(g, b)


def test_cycle_basis_tree():
    tree = Graph.build([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])
    assert cycle_basis(tree) == []


def test_cycle_basis_dumbbell(dumbbell):
    masks = sorted(b.mask for b in cycle_basis(dumbbell))
    assert masks == [0b001, 0b010]


def test_enumerate_cyclic_matches_brute_force():
    for g in [make_theta(), make_dumbbell(), make_rose(3), make_loop_chain(),
              make_one_loop_one_leg(),
              Graph.build([(0, 0), (1, 0), (2, 0)],
                          [(0, 1), (1, 2), (0, 2), (0, 1)])]:
        got = sorted(f.mask for f in enumerate_cyclic(g))
        assert got == brute_force_kernel(g)
        assert len(got) == 2 ** g.b1


def test_enumerate_cyclic_theta(theta):
    masks = sorted(f.mask for f in enumerate_cyclic(theta))
    assert masks == [0b000, 0b011, 0b101, 0b110]


def test_enumerate_cyclic_no_edges():
    g = make_weight_vertex(3)
    assert [f.mask for f in enumerate_cyclic(g)] == [0]


def test_enumerate_cyclic_cap(monkeypatch):
    monkeypatch.setattr(cycles, "B1_CAP", 3)
    with pytest.raises(BudgetError):
        enumerate_cyclic(make_rose(4))


def test_enumerate_cyclic_memoised_with_cap_checked_every_call(monkeypatch):
    rose = make_rose(4)
    first = enumerate_cyclic(rose)
    assert isinstance(first, tuple) and len(first) == 16
    assert enumerate_cyclic(rose) is first
    with monkeypatch.context() as patch, pytest.raises(BudgetError):
        patch.setattr(cycles, "B1_CAP", 3)
        enumerate_cyclic(rose)
    # a copy of the graph is a different object with its own memo
    assert enumerate_cyclic(make_rose(4)) is not first


def test_pbar_theta_two_edges(theta):
    dec = pbar_decompose(theta, EdgeSet.from_indices(theta, [0, 1]))
    assert len(dec) == 1
    assert dec.genera == (1,)
    assert dec.c_plus == 1


def test_pbar_theta_empty(theta):
    dec = pbar_decompose(theta, EdgeSet(theta, 0))
    assert len(dec) == 2
    assert dec.genera == (0, 0)
    assert dec.c_plus == 0
    assert dec.component == (0, 1)
    opened = oracles.opened_graph(theta, EdgeSet(theta, 0))
    assert all(subgraph_on(opened, vs).n_legs == 3
               for vs in opened.components)


def test_pbar_dumbbell_loops(dumbbell):
    dec = pbar_decompose(dumbbell, EdgeSet.from_indices(dumbbell, [0, 1]))
    assert len(dec) == 2
    assert dec.genera == (1, 1)
    assert dec.c_plus == 2


def test_pbar_requires_cyclic(theta):
    with pytest.raises(DomainError):
        pbar_decompose(theta, EdgeSet.from_indices(theta, [0]))


def test_pbar_full_edge_set_cplus():
    for g in [make_theta(), make_dumbbell(), make_rose(3), make_loop_chain()]:
        cyc = [f for f in enumerate_cyclic(g)
               if f.mask == (1 << g.n_edges) - 1]
        if not cyc:
            continue
        dec = pbar_decompose(g, cyc[0])
        assert dec.c_plus == (1 if g.b1 > 0 else 0)


def test_b1_bookkeeping():
    # b1(G/P) = b1(G) - b1(P), checked through the decomposition genera:
    # sum over components of genus equals total weight plus b1(P).
    for g in [make_theta(), make_dumbbell(), make_rose(3), make_loop_chain()]:
        for p in enumerate_cyclic(g):
            dec = pbar_decompose(g, p)
            assert sum(dec.genera) == g.total_weight() + p.b1


def test_edge_set_ops(theta):
    a = EdgeSet.from_indices(theta, [0, 1])
    b = EdgeSet.from_indices(theta, [1, 2])
    assert 0 in a and 2 not in a
    assert len(a) == 2 and tuple(b) == (1, 2)


def test_edge_set_b1():
    g = make_dumbbell()
    assert EdgeSet(g, 0).b1 == 0
    assert EdgeSet.from_indices(g, [0]).b1 == 1
    assert EdgeSet.from_indices(g, [2]).b1 == 0
    assert EdgeSet.full(g).b1 == 2
    assert EdgeSet.from_indices(g, [0, 1]).b1 == 2


@pytest.mark.parametrize("g,n", [(2, 0), (1, 2), (2, 2)])
def test_pbar_union_find_matches_opened_graph(g, n, shared_classes):
    # the union-find decomposition against the definition of the opened
    # graph: remove the edges outside P, leaving legs, and split it
    for graph in shared_classes(g, n):
        for p in enumerate_cyclic(graph):
            opened = oracles.opened_graph(graph, p)
            dec = pbar_decompose(graph, p)
            assert dec.component == tuple(
                next(i for i, c in enumerate(opened.components) if v in c)
                for v in graph.vertices)
            assert dec.genera == tuple(subgraph_on(opened, c).genus
                                       for c in opened.components)


def test_pbar_decompose_memoised_per_graph(theta):
    p = EdgeSet.from_indices(theta, [0, 1])
    dec = pbar_decompose(theta, p)
    assert pbar_decompose(theta, EdgeSet(theta, p.mask)) is dec
    assert pbar_decompose(make_theta(), p) is not dec
    for _ in range(2):
        with pytest.raises(DomainError):
            pbar_decompose(theta, EdgeSet.from_indices(theta, [0]))


def test_edge_set_hash_matches_eq():
    a = EdgeSet.from_indices(make_theta(), [0, 1])
    b = EdgeSet.from_indices(make_theta(), [0, 1])
    assert a.graph is not b.graph and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# -- identities checked as verification errors --------------------------------

def test_cycle_basis_size_failure_is_verification_error(theta):
    key = canonical_key(theta)
    theta.__dict__["b1"] = 3  # a Betti number the elimination does not meet
    with pytest.raises(VerificationError) as info:
        cycle_basis(theta)
    assert info.value.witnesses == (key,)


def test_span_member_failure_is_verification_error(theta, monkeypatch,
                                                   capsys):
    # a boundary map that calls every nonempty edge set non-cyclic
    monkeypatch.setattr(cycles, "boundary", lambda graph, f: frozenset(f))
    with pytest.raises(VerificationError) as info:
        enumerate_cyclic(theta)
    assert info.value.witnesses == (canonical_key(theta), "P=3")
    # the CLI reports it as a verification failure, not a traceback
    assert main(["verify", "--g", "2", "--n", "0", "--suite", "counts"]) == 1
    assert '"status": "fail"' in capsys.readouterr().out


@pytest.mark.parametrize("g,n", [(2, 2), (3, 0), (3, 1)])
def test_compact_decomposition_matches_the_union_find_oracle(
        g, n, shared_classes):
    # every cyclic set of every class: the per-vertex component indices,
    # in component order (by smallest vertex), and the genera, against a
    # union-find grouping of its own
    for graph in shared_classes(g, n):
        for p in enumerate_cyclic(graph):
            dec = pbar_decompose(graph, p)
            members, genera = oracles.decomposition(graph, p)
            assert [min(vs) for vs in members] == \
                sorted(min(vs) for vs in members)
            assert dec.genera == genera
            assert dec.component == tuple(
                next(i for i, vs in enumerate(members) if v in vs)
                for v in graph.vertices)


def _decompose_after_a_memo_hit(theta, bouquet, foreign):
    pbar_decompose(bouquet, EdgeSet(bouquet, foreign.mask))
    return pbar_decompose(bouquet, foreign)


# each entry point given the bouquet of three loops and a set over the
# theta graph: both have three edges, so the theta mask is in range on the
# bouquet, and it must not be read there
OVER_ANOTHER_GRAPH = {
    "boundary": lambda theta, bouquet, foreign: boundary(bouquet, foreign),
    "pbar_decompose": lambda theta, bouquet, foreign: pbar_decompose(
        bouquet, foreign),
    "pbar_decompose memo hit": _decompose_after_a_memo_hit,
    "push_cycle": lambda theta, bouquet, foreign: push_cycle(
        contract(theta, EdgeSet(theta, 0b100)), EdgeSet(bouquet, 0b011)),
    "cyclic_canonical_key": lambda theta, bouquet, foreign:
        cyclic_canonical_key(bouquet, foreign),
    "SpinStructure": lambda theta, bouquet, foreign: SpinStructure(
        bouquet, foreign, (0,)),
    "SpinCarry": lambda theta, bouquet, foreign: SpinCarry(
        automorphisms(bouquet).actions[0], foreign,
        pbar_decompose(theta, foreign)),
}


@pytest.mark.parametrize("entry", OVER_ANOTHER_GRAPH)
def test_a_set_over_another_graph_is_an_input_error(entry):
    theta = make_theta()
    with pytest.raises(InputError,
                       match="cyclic set lives over a different graph"):
        OVER_ANOTHER_GRAPH[entry](theta, make_rose(3),
                                  EdgeSet(theta, 0b011))


def test_a_set_over_an_equal_graph_is_read():
    # the carrier is compared by value: a copy of the graph carries it
    theta = make_theta()
    dec = pbar_decompose(theta, EdgeSet(theta, 0b011))
    assert pbar_decompose(theta, EdgeSet(make_theta(), 0b011)) is dec
    assert cyclic_canonical_key(theta, EdgeSet(make_theta(), 0b011)) == \
        cyclic_canonical_key(theta, EdgeSet(theta, 0b011))
