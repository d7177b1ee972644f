from fractions import Fraction

import pytest

from spinmod import tropical
from spinmod.cycles import EdgeSet
from spinmod.errors import InputError, VerificationError
from spinmod.graphs import Graph
from spinmod.morphisms import canonical_key
from spinmod.posets import build_spin_poset, poset_stats
from spinmod.spin import SpinGraph, SpinStructure, enumerate_spin
from spinmod.tropical import (INF, FamilyDescriptor,
                              SpinTropicalCurve, TropicalCurve,
                              build_cone_complex, cells_to_csv,
                              curve_automorphisms, diagram_check,
                              family_generic_fiber, family_stable_model,
                              length_from_json, length_to_json, pi_trop,
                              pi_trop_fiber, trop_family)

from conftest import (make_one_loop_one_leg, make_theta,
                      make_two_loops, make_weight_vertex, without_covers_into)
import oracles


def spin(graph, indices, signs):
    return SpinStructure(graph, EdgeSet.from_indices(graph, indices), signs)


def F(a, b=1):
    return Fraction(a, b)


def test_pi_trop_doubles_off_p(theta):
    psi = SpinTropicalCurve(TropicalCurve(theta, [F(1), F(2), F(3)]),
                            spin(theta, [0, 1], (1,)))
    assert pi_trop(psi).lengths == (F(1), F(2), F(6))


def test_pi_trop_identity_on_full():
    g = make_two_loops()
    s = SpinStructure(g, EdgeSet.full(g), (1,))
    psi = SpinTropicalCurve(TropicalCurve(g, [F(1), F(2)]), s)
    assert pi_trop(psi).lengths == (F(1), F(2))


def test_pi_trop_infinite_edge(theta):
    psi = SpinTropicalCurve(TropicalCurve(theta, [F(1), F(2), INF]),
                            spin(theta, [0, 1], (1,)))
    assert pi_trop(psi).lengths == (F(1), F(2), INF)


def test_lengths_reject_floats(theta):
    with pytest.raises(InputError):
        TropicalCurve(theta, [0.5, F(1), F(1)])


def test_fiber_one_loop_one_leg():
    g = make_one_loop_one_leg()
    reps = pi_trop_fiber(TropicalCurve(g, [F(1)]))
    assert len(reps) == 3
    lengths = sorted(r.curve.lengths[0] for r in reps)
    assert lengths == [F(1, 2), F(1), F(1)]
    for r in reps:
        assert pi_trop(r) == TropicalCurve(g, [F(1)])


def test_fiber_theta_generic_and_constant(theta):
    generic = pi_trop_fiber(TropicalCurve(theta, [F(1), F(2), F(3)]))
    assert len(generic) == 7
    constant = pi_trop_fiber(TropicalCurve(theta, [F(1), F(1), F(1)]))
    assert len(constant) == 3


def test_fiber_theta_intermediate_symmetry(theta):
    # one repeated length: fiber size sits strictly between the extremes
    partial = pi_trop_fiber(TropicalCurve(theta, [F(1), F(1), F(2)]))
    assert 3 <= len(partial) <= 7
    assert len(partial) == 5


def test_fiber_weight_vertex():
    g = make_weight_vertex(2)
    reps = pi_trop_fiber(TropicalCurve(g, []))
    assert len(reps) == 2
    assert sorted(r.spin.parity for r in reps) == [0, 1]


def test_fiber_extended_curve(theta):
    reps = pi_trop_fiber(TropicalCurve(theta, [F(1), F(2), INF]))
    assert len(reps) == 7
    for r in reps:
        assert pi_trop(r) == TropicalCurve(theta, [F(1), F(2), INF])


@pytest.mark.parametrize("lengths", [
    [F(1), F(2), F(3)], [F(1), F(1), F(1)], [F(1), F(1), F(2)],
    [F(1), F(2), INF]])
def test_fiber_representatives_are_orbit_minima(theta, lengths):
    # the fiber keeps, in enumeration order, the first spin structure
    # whose orbit minimum under the curve's automorphisms is new
    curve = TropicalCurve(theta, lengths)
    group = curve_automorphisms(curve)
    orbits = {}
    for s in enumerate_spin(theta):
        orbit = sorted(oracles.act_spin(a, s).data()
                       for a in group.actions)
        orbits.setdefault(orbit[0], s)
    assert [r.spin.data() for r in pi_trop_fiber(curve)] == \
        [s.data() for s in orbits.values()]


def test_fiber_round_trip_failure_is_verification_error(theta,
                                                        monkeypatch):
    monkeypatch.setattr(tropical, "halve", lambda x: x)
    with pytest.raises(VerificationError) as exc:
        pi_trop_fiber(TropicalCurve(theta, [F(1), F(2), F(3)]))
    assert exc.value.witnesses == (canonical_key(theta), "P=0")


def test_curve_automorphisms_stabilize_lengths(theta):
    full = curve_automorphisms(TropicalCurve(theta, [F(1), F(1), F(1)]))
    assert full.order_edge == 6
    partial = curve_automorphisms(TropicalCurve(theta, [F(1), F(1), F(2)]))
    assert partial.order_edge == 2
    generic = curve_automorphisms(TropicalCurve(theta, [F(1), F(2), F(3)]))
    assert generic.order_edge == 1


def test_cone_complex_11():
    poset = build_spin_poset(1, 1)
    report = build_cone_complex(poset)
    assert report["cells"] == 5
    assert report["covers"] == len(poset.lowers) == 3
    assert sorted(nd.rank for nd in poset.nodes) == [0, 0, 1, 1, 1]
    assert report["components"] == 2
    assert report["by_parity"] == {0: 3, 1: 2}
    assert report["pure"]


def test_cone_complex_20_maximal():
    poset = build_spin_poset(2, 0)
    report = build_cone_complex(poset)
    top = [nd for nd in poset.nodes if nd.rank == 3]
    assert len(top) == 9
    assert sum(1 for nd in top if nd.parity == 0) == 6
    assert report["dimension"] == 3


def test_cone_complex_03():
    poset = build_spin_poset(0, 3)
    report = build_cone_complex(poset)
    assert report["cells"] == 1
    assert poset.nodes[0].rank == 0
    assert report["components"] == 1


@pytest.mark.parametrize("g,n,node,witness", [
    (2, 0, 10, 10), (1, 2, 5, 5), (2, 0, 17, 4)])
def test_impure_cone_complex_raises_as_the_face_closure_does(g, n, node,
                                                              witness):
    # a real spin poset with every cover into one rank-(top-1) node
    # removed stays graded, connected and split by parity; the first cell
    # below no top cell, in node order, is the witness
    poset = without_covers_into(build_spin_poset(g, n), node)
    poset_stats(poset)
    with pytest.raises(VerificationError) as want:
        oracles.cone_purity(poset)
    with pytest.raises(VerificationError) as got:
        build_cone_complex(poset)
    assert str(got.value) == str(want.value) == \
        "cell is not a face of any top-dimensional cell"
    assert got.value.witnesses == want.value.witnesses == \
        (poset.nodes[witness].key,)


def test_cone_exports():
    csv = cells_to_csv(build_spin_poset(1, 1))
    assert csv.splitlines()[0] == "key,dim,parity,aut_edge_order"
    assert len(csv.splitlines()) == 6


def theta_family(val=None):
    theta = make_theta()
    s = spin(theta, [0, 1], (1,))
    return FamilyDescriptor(SpinGraph(theta, s),
                            val or [F(1), F(2), F(3)])


def test_trop_family_transcribes():
    fam = theta_family()
    psi = trop_family(fam)
    assert psi.curve.lengths == (F(1), F(2), F(3))
    assert psi.spin.data() == fam.spin_graph.spin.data()


def test_family_stable_model_doubles():
    fam = theta_family()
    assert family_stable_model(fam).lengths == (F(1), F(2), F(6))
    diagram = diagram_check(fam)
    assert diagram.commutes
    assert diagram.psi.curve == trop_family(fam).curve
    assert diagram.image == pi_trop(diagram.psi)
    assert diagram.stable_model == family_stable_model(fam)


def test_family_infinite_valuation():
    fam = theta_family([F(1), F(2), INF])
    assert family_stable_model(fam).lengths == (F(1), F(2), INF)
    assert diagram_check(fam).commutes


def test_family_val_positive():
    with pytest.raises(InputError):
        theta_family([F(0), F(1), F(1)])


def test_generic_fiber_all_finite():
    fam = theta_family()
    out = family_generic_fiber(fam)
    generic = out["generic"]
    assert generic.graph.n_edges == 0
    assert generic.graph.w(generic.graph.vertices[0]) == 2
    assert generic.spin.parity == fam.spin_graph.spin.parity == 1


def test_generic_fiber_all_infinite():
    fam = theta_family([INF, INF, INF])
    out = family_generic_fiber(fam)
    assert canonical_key(out["generic"]) == canonical_key(fam.spin_graph)


def test_generic_fiber_mixed():
    fam = theta_family([INF, F(2), F(5)])
    out = family_generic_fiber(fam)
    generic = out["generic"]
    assert len(generic.graph.vertices) == 1
    assert generic.graph.n_edges == 1
    assert sorted(generic.spin.P.indices()) == [0]
    assert out["witness"] is not None


def test_missing_generic_witness_is_verification_error(monkeypatch):
    monkeypatch.setattr(tropical, "order_test", lambda upper, lower: None)
    fam = theta_family([INF, F(2), F(5)])
    with pytest.raises(VerificationError) as exc:
        family_generic_fiber(fam)
    assert exc.value.witnesses[0] == canonical_key(fam.spin_graph)


def test_family_json_roundtrip(tmp_path):
    fam = theta_family([F(1), F(2), INF])
    data = fam.to_json_dict()
    back = FamilyDescriptor.from_json_dict(data)
    assert back.val == fam.val
    assert back.spin_graph.spin.data() == fam.spin_graph.spin.data()
    assert length_from_json(length_to_json(F(7, 3))) == F(7, 3)
    assert length_from_json("inf") is INF
