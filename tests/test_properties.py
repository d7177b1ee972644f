"""Property tests over randomly generated small graphs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from spinmod.cycles import EdgeSet, boundary, cycle_basis, enumerate_cyclic
from spinmod.graphs import Graph, blow_up, canonical_divisor
from spinmod.morphisms import canonical_key, contract, push_spin
from spinmod.spin import enumerate_spin
from spinmod.tropical import (INF, SpinTropicalCurve, TropicalCurve, double,
                              halve, pi_trop)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 4))
    weights = [draw(st.integers(0, 2)) for _ in range(n)]
    n_edges = draw(st.integers(0, 5))
    edges = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
             for _ in range(n_edges)]
    legs = [draw(st.integers(0, n - 1))
            for _ in range(draw(st.integers(0, 2)))]
    return Graph.build(list(enumerate(weights)), edges, legs)


@st.composite
def lengths_for(draw, graph):
    out = []
    for _ in range(graph.n_edges):
        if draw(st.booleans()):
            out.append(INF)
        else:
            out.append(Fraction(draw(st.integers(0, 20)),
                                draw(st.integers(1, 7))))
    return out


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_blow_up_preserves_genus(graph, data):
    mask = data.draw(st.integers(0, 2 ** graph.n_edges - 1))
    r = [i for i in range(graph.n_edges) if mask >> i & 1]
    assert blow_up(graph, r).genus == graph.genus


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_canonical_divisor_degree(graph):
    assert canonical_divisor(graph).degree == 2 * graph.genus - 2 * graph.c


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_cycle_space_membership(graph, data):
    mask = data.draw(st.integers(0, 2 ** graph.n_edges - 1))
    f = EdgeSet(graph, mask)
    in_kernel = not boundary(graph, f)
    spanned = {p.mask for p in enumerate_cyclic(graph)}
    assert (mask in spanned) == in_kernel
    assert len(cycle_basis(graph)) == graph.b1


@given(small_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_contraction_genus_and_keys(graph, data):
    mask = data.draw(st.integers(0, 2 ** graph.n_edges - 1))
    f = [i for i in range(graph.n_edges) if mask >> i & 1]
    c = contract(graph, f)
    assert c.target.genus == graph.genus
    assert canonical_key(c.target) == canonical_key(c.target)


@given(small_graphs(), st.data())
@settings(max_examples=30, deadline=None)
def test_push_spin_parity(graph, data):
    spins = enumerate_spin(graph)
    s = data.draw(st.sampled_from(spins))
    mask = data.draw(st.integers(0, 2 ** graph.n_edges - 1))
    f = [i for i in range(graph.n_edges) if mask >> i & 1]
    c = contract(graph, f)
    assert push_spin(c, s).parity == s.parity


@given(small_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_halve_double_roundtrip(graph, data):
    lengths = data.draw(lengths_for(graph))
    assert [double(halve(x)) for x in lengths] == lengths
    spins = enumerate_spin(graph)
    s = data.draw(st.sampled_from(spins))
    halved = [x if i in s.P else halve(x) for i, x in enumerate(lengths)]
    psi = SpinTropicalCurve(TropicalCurve(graph, halved), s)
    assert pi_trop(psi) == TropicalCurve(graph, lengths)
