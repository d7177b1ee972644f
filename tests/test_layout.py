"""Ratchet on the compact layout of the tables kept per class.

A decomposition keeps one component index per vertex and the genera, as
flat tuples of ints; an automorphism group's action class keeps its
vertex map and its edge permutation as a flat tuple of ints, and no map
on half-edges; poset nodes, decompositions, spin carries and action
classes, and each graph's canonical-form memo, are slotted records
without an instance dict; a node
keeps its stabilizer as the action classes that fix its structure, not
as a list of group elements, and equal stabilizers share one tuple; and
a poset keeps its covers once, as two flat arrays (``offsets``, one per
node and one more, and ``lowers``, one per cover), with no attribute
that holds a tuple or list with one entry per cover.  This guards the
layout only: it measures no memory.
"""

from array import array

import pytest

from spinmod.cycles import PbarDecomposition, enumerate_cyclic, pbar_decompose
from spinmod.morphisms import Aut, SpinCarry, _FormMemo, automorphisms
from spinmod.posets import (PosetNode, build_cyclic_poset, build_graph_poset,
                            build_spin_poset, poset_stats)


def _flat_ints(value):
    return type(value) is tuple and all(type(x) is int for x in value)


@pytest.mark.parametrize("cls", [PbarDecomposition, PosetNode, SpinCarry,
                                 Aut, _FormMemo])
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
