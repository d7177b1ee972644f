"""Ratchet on the compact layout of the tables kept per class.

A decomposition keeps one component index per vertex and the genera, as
flat tuples of ints; an automorphism group's action class keeps its
vertex map as a dict keyed by vertex, its edge permutation as a flat
tuple of ints, and no map on half-edges; a contraction keeps its edge
map as a flat tuple over the source's edges, an int or ``None`` at each;
poset nodes, decompositions, spin carries, action classes and
contractions, and each graph's canonical-form memo, are slotted records
without an instance dict; a node keeps its stabilizer as the action classes that fix its structure, not
as a list of group elements, and equal stabilizers share one tuple; and
a poset keeps its covers once, as two flat arrays (``offsets``, one per
node and one more, and ``lowers``, one per cover), with no attribute
that holds a tuple or list with one entry per cover.  This guards the
layout only: it measures no memory.
"""

from array import array

import pytest

from spinmod.cycles import PbarDecomposition, enumerate_cyclic, pbar_decompose
from spinmod.morphisms import (Aut, Contraction, SpinCarry, _FormMemo,
                               automorphisms, canonical_key)
from spinmod.posets import (PosetNode, _edge_contractions, build_cyclic_poset,
                            build_graph_poset, build_spin_poset, poset_stats)


def _flat_ints(value):
    return type(value) is tuple and all(type(x) is int for x in value)


@pytest.mark.parametrize("cls", [PbarDecomposition, PosetNode, SpinCarry,
                                 Aut, Contraction, _FormMemo])
def test_per_class_records_define_slots(cls):
    assert "__slots__" in cls.__dict__
    assert "__dict__" not in cls.__slots__
    assert cls.__mro__[1:] == (object,)


def test_records_built_by_a_poset_have_no_instance_dict():
    poset = build_spin_poset(2, 1)
    nd = poset.nodes[-1]
    graph, spin = nd.rep.graph, nd.rep.spin
    dec = pbar_decompose(graph, spin.P)
    aut = automorphisms(graph).actions[0]
    carry = SpinCarry(aut, spin.P, dec)
    for record in (nd, dec, carry, aut):
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("build", [build_graph_poset, build_cyclic_poset,
                                   build_spin_poset])
def test_poset_keeps_its_covers_once_in_two_flat_arrays(build):
    poset = build(2, 1)
    report = poset_stats(poset)
    assert isinstance(poset.offsets, array)
    assert isinstance(poset.lowers, array)
    assert len(poset.offsets) == len(poset.nodes) + 1
    assert len(poset.lowers) == report["covers"] == poset.offsets[-1]
    # more covers than nodes, so no per-node field is mistaken for one
    assert report["covers"] > len(poset.nodes)
    for name, value in vars(poset).items():
        if type(value) in (tuple, list):
            assert len(value) != report["covers"], name


def test_decomposition_fields_are_flat_tuples_of_ints(shared_classes):
    for graph in shared_classes(2, 1):
        for p in enumerate_cyclic(graph):
            dec = pbar_decompose(graph, p)
            assert _flat_ints(dec.component) and _flat_ints(dec.genera)
            assert len(dec.component) == len(graph.vertices)
            assert set(dec.component) == set(range(len(dec.genera)))


def test_action_classes_keep_an_edge_permutation_and_no_half_edge_map(
        shared_classes):
    for graph in shared_classes(2, 1):
        for a in automorphisms(graph).actions:
            assert not hasattr(a, "__dict__")
            assert not hasattr(a, "half_map")
            assert _flat_ints(a.edge_perm)
            assert sorted(a.edge_perm) == list(range(graph.n_edges))


def test_table_contractions_keep_a_flat_tuple_edge_map(shared_classes):
    classes = shared_classes(2, 1)
    reps = {canonical_key(graph): graph for graph in classes}
    for graph in classes:
        for _, _, c in _edge_contractions(graph, reps):
            assert not hasattr(c, "__dict__")
            assert type(c.edge_map) is tuple
            assert len(c.edge_map) == graph.n_edges
            assert all(j is None or type(j) is int for j in c.edge_map)
            kept = sorted(j for j in c.edge_map if j is not None)
            assert kept == list(range(c.target.n_edges))


def test_node_stabilizers_hold_action_class_indices():
    shared = {}
    for poset in (build_spin_poset(2, 1), build_cyclic_poset(2, 1)):
        for nd in poset.nodes:
            graph = nd.rep.graph if poset.kind == "spin" else nd.rep[0]
            fixing = nd.stabilizer
            assert _flat_ints(fixing) and fixing == tuple(sorted(set(fixing)))
            assert 0 <= fixing[0] <= fixing[-1] < len(
                automorphisms(graph).actions)
            # equal tuples from one orbit walk are one object
            key = (poset.kind, id(graph), fixing)
            assert shared.setdefault(key, fixing) is fixing
    assert all(nd.stabilizer is None
               for nd in build_graph_poset(2, 1).nodes)
