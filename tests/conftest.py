"""Shared fixture graphs and hand-made posets.

All edge lists are written out explicitly so edge indices in the tests
are predictable: edges are indexed in input order (build assigns
half-edge ids 2i, 2i+1 to edge i).
"""

import random
from array import array

import pytest

from spinmod.errors import InputError
from spinmod.graphs import Graph
from spinmod.posets import Poset, enumerate_stable_graphs


def make_theta():
    """Two weight-0 vertices joined by three parallel edges (genus 2)."""
    return Graph.build([(0, 0), (1, 0)], [(0, 1), (0, 1), (0, 1)])


def make_dumbbell():
    """Two weight-0 vertices, a loop at each, one bridge (genus 2).

    Edge indices: 0 = loop at vertex 0, 1 = loop at vertex 1, 2 = bridge.
    """
    return Graph.build([(0, 0), (1, 0)], [(0, 0), (1, 1), (0, 1)])


def make_weight_vertex(g, n=0):
    """Single vertex of weight g with n legs and no edges."""
    return Graph.build([(0, g)], [], [0] * n)


def make_one_loop_one_leg():
    """Weight-0 vertex with one loop and one leg (genus 1)."""
    return Graph.build([(0, 0)], [(0, 0)], [0])


def make_rose(k):
    """One weight-0 vertex with k loops (genus k)."""
    return Graph.build([(0, 0)], [(0, 0)] * k)


def make_two_loops():
    """One weight-0 vertex with two loops (genus 2, basic)."""
    return make_rose(2)


def make_loop_chain():
    """Cycle of length 2 with one loop at each vertex (genus 3)."""
    return Graph.build([(0, 0), (1, 0)], [(0, 1), (0, 1), (0, 0), (1, 1)])


def subgraph_on(graph, vertex_set):
    """The induced subgraph on a union of components of ``graph``.

    Only valid when no edge or leg leaves ``vertex_set``; the tests use it
    to take the pieces of an opened graph apart, preserving all ids, as
    an independent check of the decomposition.
    """
    vs = set(vertex_set)
    weight = {v: graph.weight[v] for v in vs}
    endpoint = {h: v for h, v in graph.endpoint.items() if v in vs}
    for h in endpoint:
        if graph.endpoint[graph.involution[h]] not in vs:
            raise InputError("vertex set is not a union of components")
    involution = {h: graph.involution[h] for h in endpoint}
    legs = [h for h in graph.legs if h in endpoint]
    return Graph(weight, endpoint, involution, legs,
                 graph.exceptional & vs)


def poset_from_pairs(kind, g, n, nodes, pairs, walk=None):
    """A hand-made :class:`Poset` over ``nodes`` whose covers are the
    ``(upper, lower)`` index ``pairs``, given in any order; repeats are
    dropped.  The pairs are sorted into the flat ``offsets`` and
    ``lowers`` arrays a built poset keeps."""
    nodes = tuple(nodes)
    ends = [set() for _ in nodes]
    for u, l in pairs:
        ends[u].add(l)
    offsets = array("q", [0])
    lowers = array("q")
    for below in ends:
        lowers.extend(sorted(below))
        offsets.append(len(lowers))
    return Poset(kind, g, n, nodes, offsets, lowers, walk)


def without_covers_into(poset, node):
    """``poset`` with every cover into ``node`` removed: a hand-made poset
    in which ``node``, and whatever lies below it alone, lies below no top
    node."""
    return poset_from_pairs(poset.kind, poset.g, poset.n, poset.nodes,
                            [c for c in poset.covers() if c[1] != node])


def shuffled(poset, seed):
    """The same poset with its nodes in a seeded random order."""
    order = list(range(len(poset.nodes)))
    random.Random(seed).shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return poset_from_pairs(poset.kind, poset.g, poset.n,
                            [poset.nodes[i] for i in order],
                            [(where[u], where[l])
                             for u, l in poset.covers()])


@pytest.fixture(autouse=True)
def _no_caller_budget(monkeypatch):
    """Keep a SPINMOD_BUDGET exported by the caller out of every test,
    the CLI child processes included (they inherit os.environ).  Tests
    that want a budget set it themselves."""
    monkeypatch.delenv("SPINMOD_BUDGET", raising=False)


@pytest.fixture(scope="session")
def shared_classes():
    """``shared_classes(g, n)``: ``enumerate_stable_graphs(g, n)``, run
    once per test session.

    The graphs keep their memos (canonical forms, groups, cycle spaces,
    decompositions) from one test to the next, so only tests that read
    the classes may take them: never a test that counts calls,
    monkeypatches, or reads or asserts memo state.
    """
    cache = {}

    def classes(g, n):
        if (g, n) not in cache:
            cache[(g, n)] = enumerate_stable_graphs(g, n)
        return cache[(g, n)]

    return classes


@pytest.fixture
def theta():
    return make_theta()


@pytest.fixture
def dumbbell():
    return make_dumbbell()


@pytest.fixture
def one_loop_one_leg():
    return make_one_loop_one_leg()
