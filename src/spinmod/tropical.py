"""Tropical and extended tropical spin curves, the cone-complex cells of
their moduli, the length-doubling forgetful map with its fibers, and
symbolic one-parameter families given by edge valuations.

Edge lengths are exact non-negative rationals extended by a single
infinity symbol; no floating point is used anywhere, so halving and
doubling round-trip exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cycles import EdgeSet
from .errors import DomainError, InputError, VerificationError
from .graphs import Graph, is_stable, json_int
from .morphisms import (automorphisms, canonical_key, contract, order_test,
                        push_spin)
from .orbits import spin_orbits
from .posets import max_rank, poset_stats
from .spin import SpinGraph, SpinStructure, spin_fibres


class _Infinity:
    """The single point at infinity of the extended non-negative reals.

    An identity sentinel: it equals only itself and hashes by identity,
    as ``object`` does.  It has no order, and no length is ordered
    against it, since :func:`as_length` returns ``INF`` before it
    compares.  ``__new__`` keeps it single, so a copy is still
    ``INF``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


def as_length(value, positive=False):
    """Coerce to an extended non-negative rational (exact)."""
    if value is INF:
        return INF
    if isinstance(value, float):
        raise InputError("lengths must be exact rationals, not floats")
    x = value if type(value) is Fraction else Fraction(value)
    # a Fraction's denominator is positive: its numerator carries the sign
    if x.numerator < 0 or (positive and not x.numerator):
        kind = "positive" if positive else "non-negative"
        raise InputError(f"lengths must be {kind}, got {x}")
    return x

def double(x):
    return INF if x is INF else 2 * x


def halve(x):
    return INF if x is INF else x / 2


def length_to_json(x):
    if x is INF:
        return "inf"
    return {"num": x.numerator, "den": x.denominator}


def length_from_json(obj):
    if obj == "inf":
        return INF
    try:
        return as_length(Fraction(json_int(obj["num"], "num", "length"),
                                  json_int(obj["den"], "den", "length")))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed length entry {obj!r}: {exc}") from exc


class TropicalCurve:
    """A graph with an extended length per edge."""

    def __init__(self, graph, lengths):
        lengths = tuple(as_length(x) for x in lengths)
        if len(lengths) != graph.n_edges:
            raise InputError(f"expected {graph.n_edges} lengths, got "
                             f"{len(lengths)}")
        self.graph = graph
        self.lengths = lengths

    @property
    def stable(self):
        return is_stable(self.graph)

    @property
    def genus(self):
        return self.graph.genus

    def __eq__(self, other):
        return (isinstance(other, TropicalCurve)
                and self.graph == other.graph
                and self.lengths == other.lengths)

    def __hash__(self):
        return hash((self.graph, self.lengths))

    def __repr__(self):
        return f"TropicalCurve(g={self.genus}, lengths={self.lengths})"

    def to_json_dict(self, graph_json):
        """The curve as JSON; ``graph_json`` is its graph's
        :meth:`~spinmod.graphs.Graph.to_json_dict`, already built."""
        return {"graph": graph_json,
                "lengths": [length_to_json(x) for x in self.lengths]}


class SpinTropicalCurve:
    """A tropical curve with a spin structure on its graph."""

    def __init__(self, curve, spin):
        if spin.graph != curve.graph:
            raise InputError("spin structure lives over a different graph")
        self.curve = curve
        self.spin = spin

    @property
    def graph(self):
        return self.curve.graph

    def __eq__(self, other):
        return (isinstance(other, SpinTropicalCurve)
                and self.curve == other.curve
                and self.spin.data() == other.spin.data())

    def __repr__(self):
        return f"SpinTropicalCurve({self.curve!r}, {self.spin!r})"

    def to_json_dict(self, graph_json):
        out = self.curve.to_json_dict(graph_json)
        out["spin"] = self.spin.to_json_dict()
        return out


def curve_automorphisms(curve):
    """Length-preserving automorphisms: the stabilizer of the length
    vector inside the graph's automorphism group, as the action classes
    whose edge permutation keeps the lengths."""
    group = automorphisms(curve.graph)
    lengths = curve.lengths
    return group.subgroup(
        c for c, a in enumerate(group.actions)
        if all(lengths[j] == x for j, x in zip(a.edge_perm, lengths)))


def pi_trop(spin_curve):
    """Forget the spin structure, doubling the length of every edge
    outside its cyclic set."""
    curve = spin_curve.curve
    p = spin_curve.spin.P.mask
    lengths = [x if p >> i & 1 else double(x)
               for i, x in enumerate(curve.lengths)]
    return TropicalCurve(curve.graph, lengths)


def pi_trop_fiber(curve):
    """Representatives of the spin tropical curves mapping to the given
    curve: one per orbit of the spin structures under the curve's
    automorphisms, walked fibre-wise over the cyclic sets
    (:func:`~spinmod.orbits.spin_orbits`), with lengths halved
    outside the cyclic set.

    Every representative maps back to the input under :func:`pi_trop`.
    """
    if not curve.stable:
        raise DomainError("fibers are taken over stable curves")
    reps = []
    for s in spin_orbits(curve_automorphisms(curve),
                         spin_fibres(curve.graph)).representatives():
        lengths = [x if i in s.P else halve(x)
                   for i, x in enumerate(curve.lengths)]
        rep = SpinTropicalCurve(TropicalCurve(curve.graph, lengths), s)
        if pi_trop(rep) != curve:
            raise VerificationError(
                "fiber representative does not map back to the curve",
                (canonical_key(curve.graph), f"P={s.P.hex()}"))
        reps.append(rep)
    return reps


# -- the cone complex --------------------------------------------------------

def build_cone_complex(poset):
    """Check that the cone complex of a spin poset is pure, and return
    its report.

    The complex has one cell per node, of the node's rank as dimension;
    the cell of node ``j`` is a face of the cell of node ``i`` exactly
    when ``poset.leq(i, j)``.  So the cells are the poset's nodes, read
    off them where needed (:func:`cells_to_csv`), and the report's
    ``cells``, ``covers``, ``components`` and ``by_parity`` are the
    ``nodes``, ``covers``, ``components`` and ``parity_split`` of
    :func:`~spinmod.posets.poset_stats`.  Purity is one pass over the
    covers (:meth:`Poset.reaches_top`); the first cell, in node order,
    that lies below no top cell is the witness of a
    :class:`VerificationError`.
    """
    stats = poset_stats(poset)
    for nd, reaches in zip(poset.nodes, poset.reaches_top()):
        if not reaches:
            raise VerificationError(
                "cell is not a face of any top-dimensional cell", (nd.key,))
    return {"cells": stats["nodes"], "dimension": max_rank(poset.g, poset.n),
            "pure": True, "components": stats["components"],
            "covers": stats["covers"], "by_parity": stats["parity_split"]}


def cells_to_csv(poset):
    """The cells of a spin poset's cone complex as CSV, one row per node:
    its key, dimension, parity and ``aut_edge_order``, the order of the
    action its stabilizer induces on edges."""
    lines = ["key,dim,parity,aut_edge_order"]
    for nd in poset.nodes:
        fixing = automorphisms(nd.rep.graph).subgroup(nd.stabilizer)
        lines.append(f"{nd.key},{nd.rank},{nd.parity},{fixing.order_edge}")
    return "\n".join(lines) + "\n"


# -- symbolic one-parameter families -----------------------------------------

class FamilyDescriptor:
    """A spin graph with a positive extended valuation per edge: the
    combinatorial shadow of a one-parameter family whose special fiber
    has the given spin structure.

    Edges of infinite valuation are the nodes persisting in the generic
    fiber.
    """

    def __init__(self, spin_graph, val):
        val = tuple(as_length(x, positive=True) for x in val)
        if len(val) != spin_graph.graph.n_edges:
            raise InputError(f"expected {spin_graph.graph.n_edges} "
                             f"valuations, got {len(val)}")
        self.spin_graph = spin_graph
        self.val = val

    @property
    def graph(self):
        return self.spin_graph.graph

    def to_json_dict(self):
        return {"graph": self.graph.to_json_dict(),
                "spin": self.spin_graph.spin.to_json_dict(),
                "val": [length_to_json(x) for x in self.val]}

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise InputError("family descriptor must be a JSON object, not "
                             f"{type(data).__name__}")
        try:
            graph = Graph.from_json_dict(data["graph"])
            spin = SpinStructure.from_json_dict(graph, data["spin"])
            val = data["val"]
        except KeyError as exc:
            raise InputError(f"family descriptor missing field {exc}") from exc
        if not isinstance(val, list):
            raise InputError("family descriptor field 'val' must be a list "
                             f"of lengths, not {type(val).__name__}")
        return cls(SpinGraph(graph, spin), [length_from_json(x) for x in val])


def trop_family(family):
    """Tropicalize: read the valuations as edge lengths of an extended
    spin tropical curve with the family's spin structure."""
    return SpinTropicalCurve(
        TropicalCurve(family.graph, family.val), family.spin_graph.spin)


def family_stable_model(family):
    """Tropical curve of the family's stable model: valuations double
    exactly on the edges outside the cyclic set (the blown-up nodes)."""
    p = family.spin_graph.spin.P.mask
    lengths = [x if p >> i & 1 else double(x)
               for i, x in enumerate(family.val)]
    return TropicalCurve(family.graph, lengths)


FamilyDiagram = namedtuple("FamilyDiagram",
                           ("psi", "image", "stable_model", "commutes"))
FamilyDiagram.__doc__ = """The tropicalization square of a family, each
corner built once: ``psi``, the tropicalized family
(:func:`trop_family`); ``image``, its forgetful image :func:`pi_trop`;
``stable_model``, the tropical curve of the family's stable model; and
``commutes``, whether ``image`` equals ``stable_model``."""


def diagram_check(family):
    """Tropicalizing then forgetting against taking the stable model then
    tropicalizing, as a :class:`FamilyDiagram`.  It commutes by
    construction; kept as a tautology guard.  Callers read the three
    curves from the record rather than build them again."""
    psi = trop_family(family)
    image = pi_trop(psi)
    stable_model = family_stable_model(family)
    return FamilyDiagram(psi, image, stable_model, image == stable_model)


def family_generic_fiber(family):
    """Spin graph of the generic fiber: contract the edges of finite
    valuation and push the spin structure forward.

    Returns a dict with the generic spin graph, the dual contraction, and
    an independently searched witness that the special class dominates
    the generic one in the spin order.
    """
    finite = [i for i, x in enumerate(family.val) if x is not INF]
    c = contract(family.graph, EdgeSet.from_indices(family.graph, finite))
    pushed = push_spin(c, family.spin_graph.spin)
    generic = SpinGraph(c.target, pushed)
    witness = order_test(family.spin_graph, generic)
    if witness is None:
        raise VerificationError(
            "no witness for the generic fiber order relation",
            (canonical_key(family.spin_graph), canonical_key(generic)))
    return {"generic": generic, "contraction": c, "witness": witness}
