"""Spin structures on graphs: enumeration, counting identities, theta
divisors, stratum counts, and the refinement construction.

A spin structure is a cyclic edge set together with a sign on each
connected component of the graph obtained by opening the complementary
edges; signs vanish on genus-0 components.  The parity of the sign sum
is invariant under pushforward and splits everything in two.  So the
spin structures over a graph fibre over its cyclic sets, with
``2^{c_+}`` sign vectors above each (:func:`spin_fibres`); the spin
poset walks them as data, each vector an int with component 0 in its
most significant bit (:func:`sign_bits`), and builds a structure, whose
signs are a tuple, only for its nodes.

Every structure the package derives is built from its fibre or from a
fold onto one, through the unchecked :meth:`SpinStructure.over`: the
enumeration flattens the fibres, pushforwards and automorphisms build
their images from the image decomposition, and refinement builds its
lift from its fibre.  The validating constructor is for
structures that enter from outside (:meth:`SpinStructure.from_json_dict`).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import prod

from .cycles import EdgeSet, enumerate_cyclic, pbar_decompose
from .errors import DomainError, InputError, VerificationError
from .graphs import (Divisor, Graph, canonical_divisor, classify, is_stable,
                     json_int, json_numeral)


def _witness(graph, p=None):
    """Witnesses of a failed identity over ``graph``: its key, and
    ``P=<hex>`` when a cyclic set ``p`` is at fault."""
    from .morphisms import canonical_key  # deferred: morphisms imports us
    key = canonical_key(graph)
    return (key,) if p is None else (key, f"P={p.hex()}")


class SpinStructure:
    """A cyclic edge set plus a sign per component of the opened graph.

    Signs are indexed by the component order of the decomposition
    (components sorted by smallest vertex).  A spin poset keeps one per
    node, so the record is slotted.

    The constructor validates its input: the decomposition rejects a
    set that is not cyclic or lives over another graph, and the signs
    must be 0 or 1, one per component, and vanish on genus-0
    components.  It is for structures that enter from outside, such as
    :meth:`from_json_dict`; derived structures come from :meth:`over`.
    """

    __slots__ = ("graph", "P", "dec", "signs", "parity")

    def __init__(self, graph, cyclic_set, signs):
        self.graph = graph
        self.P = cyclic_set
        self.dec = pbar_decompose(graph, cyclic_set)
        signs = tuple(int(s) for s in signs)
        if len(signs) != len(self.dec):
            raise DomainError(
                f"expected {len(self.dec)} signs, got {len(signs)}")
        if any(s not in (0, 1) for s in signs):
            raise InputError("signs must be 0 or 1")
        for s, g in zip(signs, self.dec.genera):
            if s and g == 0:
                raise DomainError("sign must vanish on genus-0 components")
        self.signs = signs
        self.parity = sum(signs) & 1

    @classmethod
    def over(cls, cyclic_set, dec, signs):
        """The structure with ``signs`` over ``cyclic_set``, whose
        decomposition is ``dec``, with nothing checked again.

        ``signs`` is a tuple read off a sign vector that
        :func:`sign_vectors` gave over ``dec``, or off the output of a
        fold (:meth:`~spinmod.morphisms.SpinCarry.fold`) whose image
        decomposition is ``dec`` (:func:`sign_tuple`); either already
        satisfies the constructor's checks."""
        spin = object.__new__(cls)
        spin.graph, spin.P, spin.dec = dec.graph, cyclic_set, dec
        spin.signs, spin.parity = signs, sum(signs) & 1
        return spin

    def data(self):
        """Hashable (mask, signs) pair for orbit computations."""
        return (self.P.mask, self.signs)

    def __eq__(self, other):
        return (isinstance(other, SpinStructure)
                and self.graph == other.graph and self.data() == other.data())

    def __hash__(self):
        # consistent with __eq__, which compares graphs structurally
        return hash((self.graph.n_edges, self.data()))

    def __repr__(self):
        return f"SpinStructure(P={sorted(self.P.indices())}, s={self.signs})"

    def to_json_dict(self):
        return {
            "P": self.P.hex(),
            "sign": [{"component": i, "s": s} for i, s in enumerate(self.signs)],
            "parity": self.parity,
        }

    @classmethod
    def from_json_dict(cls, graph, data):
        try:
            mask = json_numeral(data["P"], "P", "spin structure", 16)
            by_component = {json_int(e["component"], "component",
                                     "spin structure"): e["s"]
                            for e in data["sign"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed spin structure JSON: {exc}") from exc
        if sorted(by_component) != list(range(len(data["sign"]))):
            raise InputError("spin structure field 'component' must number "
                             "the sign entries 0, 1, ... once each")
        signs = [json_int(by_component[i], "sign", "spin structure")
                 for i in range(len(by_component))]
        spin = cls(graph, EdgeSet(graph, mask), signs)
        if "parity" in data and json_int(data["parity"], "parity",
                                         "spin structure") != spin.parity:
            raise InputError("stored parity disagrees with the sign sum")
        return spin


class SpinGraph:
    """A graph together with a spin structure on it."""

    __slots__ = ("graph", "spin")

    def __init__(self, graph, spin):
        if spin.graph != graph:
            raise InputError("spin structure lives over a different graph")
        self.graph = graph
        self.spin = spin

    def __eq__(self, other):
        return (isinstance(other, SpinGraph) and self.graph == other.graph
                and self.spin == other.spin)

    def __hash__(self):
        return hash((self.graph, self.spin.data()))

    def __repr__(self):
        return f"SpinGraph({self.graph!r}, {self.spin!r})"


def sign_bits(signs):
    """A sign vector, given as a tuple over ``n`` components, as an int:
    the sign of component ``i`` is bit ``n - 1 - i``, so component 0
    holds the most significant bit and the ints of vectors over one
    decomposition ascend as the tuples do lexicographically."""
    return sum(s << i for i, s in enumerate(reversed(signs)))


@cache
def sign_tuple(bits, size):
    """The sign vector ``bits`` (:func:`sign_bits`) over ``size``
    components as a tuple; there are few distinct ones, so each is built
    once."""
    return tuple(bits >> i & 1 for i in range(size - 1, -1, -1))


def sign_vectors(dec):
    """Every sign vector over a decomposition as an int
    (:func:`sign_bits`), ascending, which is sign order: any sign on
    each component of positive genus, zero on the others.  Each free
    bit, taken from the least significant up, exceeds every vector met
    before it, so appending the vectors with it set keeps the order."""
    out = [0]
    free = (1 << len(dec)) - 1 & ~dec.genus_zero
    while free:
        low = free & -free
        free ^= low
        out += [x | low for x in out]
    return out


def spin_fibres(graph):
    """The spin structures on the graph as data, fibred over its cyclic
    sets: ``(cyclic_set, dec, signs)`` per set, in mask order, with its
    decomposition and the sign vectors above it as ints, in sign order
    (:func:`sign_vectors`).  The vectors depend on the genera alone, so
    sets with equal genera share one list."""
    out = []
    shared = {}
    for p in enumerate_cyclic(graph):
        dec = pbar_decompose(graph, p)
        signs = shared.get(dec.genera)
        if signs is None:
            signs = shared[dec.genera] = sign_vectors(dec)
        out.append((p, dec, signs))
    return out


def enumerate_spin(graph):
    """All spin structures on the graph, sorted by (mask, signs): the
    fibres of :func:`spin_fibres` flattened, which come in that order."""
    return [SpinStructure.over(p, dec, sign_tuple(signs, len(dec)))
            for p, dec, vectors in spin_fibres(graph) for signs in vectors]


def _theta_characteristics(h):
    """The numbers ``(even, odd)`` of theta characteristics on a curve of
    genus ``h``: ``(4^h + 2^h) / 2`` and ``(4^h - 2^h) / 2``."""
    return (4 ** h + 2 ** h) // 2, (4 ** h - 2 ** h) // 2


def spin_count_check(graph):
    """Closed counts of the spin structures over each cyclic set, read
    from its decomposition, with the parity split, the lower bound and a
    parity-weighted identity; no spin structure is built.

    Over a set ``P`` there are ``2^{c_+}`` structures, split evenly
    between the parities unless ``c_+ = 0``, which must happen exactly
    when ``P`` is empty and the graph weightless.  The identity weights
    each structure over ``P`` by ``2^{b1(G) - b1(P)}`` and, per component
    ``i`` of the opened graph with weight ``w_i`` and first Betti number
    ``b1_i``, by ``2^{2w_i + b1_i - 1}`` when ``b1_i > 0``, else by the
    count of theta characteristics of genus ``w_i`` and the component's
    sign.  Summed over the cyclic sets, the even and odd structures must
    give the theta characteristics of genus ``g`` (Cornalba 1989); the
    parity half, ``even - odd = 2^g``, comes from the empty set alone.

    The identity does not read ``b1_i``: for ``b1_i > 0`` its factor
    times the scale's ``2^{-b1_i}`` cancels it.  So each component's
    genus is also checked on its own: it must be ``w_i`` plus the first
    Betti number of the set's edges inside the component.  That number
    is read from the graph's cycle space, not from the decomposition's
    union-find: the cyclic sets inside those edges are their cycle
    space, ``2^{b1}`` sets.  The check is raised after the identity's,
    for the first cyclic set that fails it.

    Returns a report dict; raises :class:`VerificationError` on any
    mismatch, naming the offending graph and cyclic set.
    """
    weightless = graph.total_weight() == 0
    per_cyclic = []
    total = even = odd = 0
    weighted = []  # per cyclic set: (b1 of the opened graph, even, odd)
    tight_expected = weightless
    unmatched = None  # the first cyclic set with a component's genus off
    cyclic = enumerate_cyclic(graph)
    space = [q.mask for q in cyclic]
    position = graph.vertex_index
    # the position of one end of each edge, to find its component
    end = [position[graph.edge_vertices(j)[0]] for j in range(graph.n_edges)]
    for p in cyclic:
        dec = pbar_decompose(graph, p)
        c = dec.c_plus
        count = 1 << c
        n_even, n_odd = (1, 0) if c == 0 else (count // 2, count // 2)
        if (c == 0) != (p.mask == 0 and weightless):
            raise VerificationError(
                f"parity split ({n_even}, {n_odd}) from c_+ = {c}: c_+ "
                f"must be 0 exactly over the empty set of a weightless "
                f"graph", _witness(graph, p))
        if p.mask != 0 and c != 1:
            tight_expected = False
        per_cyclic.append({"P": p.hex(), "c_plus": c, "count": count,
                           "even": n_even, "odd": n_odd})
        total += count
        even += n_even
        odd += n_odd

        weights = [0] * len(dec)
        for v, i in zip(graph.vertices, dec.component):
            weights[i] += graph.weight[v]
        if unmatched is None and not _genera_match(dec, weights, space, end):
            unmatched = p
        e, o, b1_opened = 1, 0, 0
        for w, genus in zip(weights, dec.genera):
            b1 = genus - w
            b1_opened += b1
            if b1 > 0:
                a = b = 1 << (2 * w + b1 - 1)
            else:
                a, b = _theta_characteristics(w)
            e, o = e * a + o * b, e * b + o * a
        weighted.append((b1_opened, e, o))

    lower_bound = 2 ** (graph.b1 + 1) - 1
    if total < lower_bound:
        raise VerificationError(
            f"total {total} is below the lower bound {lower_bound}",
            _witness(graph))
    if (total == lower_bound) != tight_expected:
        raise VerificationError(
            f"bound tightness mismatch: total={total}, bound={lower_bound}, "
            f"characterization predicts tight={tight_expected}",
            _witness(graph))
    # both sides times 2^top, so that no scale 2^(b1(G) - b1) is a
    # fraction even when a faulty record opens more cycles than G has
    top = max(0, *(b1 for b1, _, _ in weighted))
    summed = (sum(e << (graph.b1 + top - b1) for b1, e, _ in weighted),
              sum(o << (graph.b1 + top - b1) for b1, _, o in weighted))
    expected = _theta_characteristics(graph.genus)
    if summed != tuple(x << top for x in expected):
        raise VerificationError(
            f"parity-weighted spin count {summed} / 2^{top} differs from "
            f"the theta characteristics {expected} of genus "
            f"{graph.genus}", _witness(graph))
    if unmatched is not None:
        raise VerificationError(
            "a component of the opened graph has a genus other than its "
            "weight plus the first Betti number of the cyclic set's edges "
            "inside it", _witness(graph, unmatched))
    return {
        "total": total, "even": even, "odd": odd,
        "lower_bound": lower_bound, "bound_tight": total == lower_bound,
        "per_cyclic": per_cyclic,
    }


def _genera_match(dec, weights, space, end):
    """Whether each component of ``dec`` has for genus its weight plus
    the first Betti number of the cyclic set's edges inside it.

    That number is read off ``space``, the masks of the graph's cyclic
    sets: those inside a component's edges are their cycle space,
    ``2^{b1}`` sets.  A nonempty one lies inside the component of its
    lowest edge or inside none; ``end[j]`` is the position of an end of
    edge ``j`` among the graph's vertices."""
    inside = [0] * len(dec)  # the mask of the set's edges in each component
    m = dec.mask
    while m:
        low = m & -m
        m ^= low
        inside[dec.component[end[low.bit_length() - 1]]] |= low
    sets = [1] * len(dec)  # the empty set lies inside every component
    for q in space:
        if q and not q & ~dec.mask:
            i = dec.component[end[(q & -q).bit_length() - 1]]
            if not q & ~inside[i]:
                sets[i] += 1
    return all(genus == w + count.bit_length() - 1
               for genus, w, count in zip(dec.genera, weights, sets))


class ThetaDivisor:
    """Half-canonical divisor on the opened graph, extended to the
    tropical side by a unit at the midpoint of every complementary edge."""

    def __init__(self, graph, vertex_divisor, midpoint_edges):
        self.graph = graph
        self.vertex_divisor = vertex_divisor
        self.midpoint_edges = midpoint_edges

    @property
    def degree(self):
        return self.vertex_divisor.degree + len(self.midpoint_edges)


def theta_divisors(graph, cyclic_sets):
    """For each cyclic set, in the order given, the divisor
    ``w(v) - 1 + d(v)/2`` on the opened graph, plus its tropical
    extension by a unit at the midpoint of every edge outside the set.

    The opened graph has the vertices of ``graph``; ``d(v)``, the degree
    of ``v`` in it, counts the half-edges of the set's edges at ``v`` (a
    loop twice), and the opened half-edges there become legs.  Both are
    read in one pass over the graph's edges, after
    :func:`~spinmod.cycles.pbar_decompose` has checked that the set is
    cyclic; no opened graph is built.  Three identities are checked:
    ``d(v)`` is even, twice the vertex divisor is the canonical divisor
    of the opened graph (the graph's canonical divisor less the opened
    half-edges at each vertex), and the total degree is ``g - c``.  The
    canonical divisor depends on the graph alone, so it is built once
    per call, from :meth:`Graph.deg`, not from the pass over the edges.
    """
    canonical = canonical_divisor(graph)
    return [_theta_divisor(graph, p, canonical) for p in cyclic_sets]


def _theta_divisor(graph, cyclic_set, canonical):
    """The theta divisor over one cyclic set, checked against
    ``canonical``, the graph's canonical divisor
    (:func:`theta_divisors`)."""
    pbar_decompose(graph, cyclic_set)
    mask, endpoint = cyclic_set.mask, graph.endpoint
    d_in, d_out = (dict.fromkeys(graph.vertices, 0) for _ in range(2))
    for i, (h, k) in enumerate(graph.edges):
        degree = d_in if mask >> i & 1 else d_out
        degree[endpoint[h]] += 1
        degree[endpoint[k]] += 1
    values = {}
    for v, d in d_in.items():
        if d % 2:
            raise VerificationError(
                f"vertex {v} has odd degree {d} in the opened graph",
                _witness(graph, cyclic_set))
        values[v] = graph.weight[v] - 1 + d // 2
    div = Divisor(graph, values)
    for v in graph.vertices:
        if 2 * div[v] != canonical[v] - d_out[v]:
            raise VerificationError(
                f"doubled theta value {2 * div[v]} differs from the "
                f"canonical divisor value {canonical[v] - d_out[v]} at "
                f"vertex {v}",
                _witness(graph, cyclic_set))
    midpoints = tuple(i for i in range(graph.n_edges) if i not in cyclic_set)
    theta = ThetaDivisor(graph, div, midpoints)
    if theta.degree != graph.genus - graph.c:
        raise VerificationError(
            f"theta degree {theta.degree} differs from g - c = "
            f"{graph.genus - graph.c}", _witness(graph, cyclic_set))
    return theta


class StratumCount:
    """Point counts and lengths of the boundary strata over one graph."""

    def __init__(self, graph, rows, grand_total):
        self.graph = graph
        self.rows = rows
        self.grand_total = grand_total


def stratum_counts(graph):
    """Per cyclic set: ``2^{b1(P) + 2|w|}`` points of length
    ``2^{b - b1(P)}`` each; the stratum total must be ``2^{b + 2|w|}``
    and the grand total ``2^{2g}``.

    The two factors read ``b1(P)`` from two sources.  The points count
    the graph's cyclic sets lying inside P, which are P's own cycle
    space, ``2^{b1(P)}`` sets.  The length, and the ``b1_P`` of the row,
    read it from the set's decomposition: ``b1(P) = |P| - |V| +
    c(Pbar)``.  So a stratum total fails exactly when the two disagree.
    When the spanned subgraph of P is connected with positive Betti
    number, the points split evenly between the two parities; the
    spanned subgraph is connected when P's edges meet exactly one
    component.
    """
    if not is_stable(graph):
        raise DomainError("stratum counts are defined for stable graphs")
    b = graph.b1
    w_total = graph.total_weight()
    g = graph.genus
    rows = []
    grand = 0
    cyclic = enumerate_cyclic(graph)
    for p in cyclic:
        dec = pbar_decompose(graph, p)
        b1_p = len(p) - len(graph.vertices) + len(dec)
        points = sum(1 for q in cyclic if not q.mask & ~p.mask) << 2 * w_total
        length = 2 ** (b - b1_p)
        total = points * length
        if total != 2 ** (b + 2 * w_total):
            raise VerificationError(
                f"stratum total {total} differs from 2^(b + 2|w|)",
                _witness(graph, p))
        split = None
        if b1_p and len({dec.component[graph.vertex_index[
                graph.edge_vertices(i)[0]]] for i in p}) == 1:
            split = (points // 2, points // 2)
        rows.append({"P": p.hex(), "b1_P": b1_p, "points": points,
                     "length": length, "total": total, "parity_split": split})
        grand += total
    if grand != 2 ** (2 * g):
        raise VerificationError(
            f"grand total {grand} differs from 2^(2g) = {2 ** (2 * g)}",
            _witness(graph))
    return StratumCount(graph, rows, grand)


def g_collections(graph):
    """Index sets of the ramification-point choices on a basic graph.

    Each positive-genus vertex contributes two choices if weightless and
    four if of weight one; the product counts the odd theta
    characteristics when there are at least two vertices.
    """
    cls = classify(graph)
    if not cls.basic:
        raise DomainError("collections are defined for basic graphs only")
    index_sets = {}
    for v, (w, genus) in cls.vertex_classes.items():
        if genus:
            index_sets[v] = (1, 2) if w == 0 else (1, 2, 3, 4)
    return {"index_sets": index_sets,
            "count": prod(len(s) for s in index_sets.values())}


# -- refinement of non-basic Eulerian graphs --------------------------------

def _split_vertex(graph, v, to_new, w_new, leg_positions_new):
    """Split ``v`` in two: a fresh vertex takes the half-edges in
    ``to_new``, weight ``w_new`` and the listed legs, and a new edge joins
    it to ``v``.  The joining edge has the largest half-edges, so it is
    the split graph's last edge; contracting it gives back ``graph``."""
    weight = dict(graph.weight)
    new_v = max(graph.vertices) + 1
    weight[v] -= w_new
    weight[new_v] = w_new
    endpoint = dict(graph.endpoint)
    for h in to_new:
        endpoint[h] = new_v
    for pos in leg_positions_new:
        endpoint[graph.legs[pos]] = new_v
    a = max(graph.half_edges) + 1
    b = a + 1
    endpoint[a], endpoint[b] = v, new_v
    involution = dict(graph.involution)
    involution[a], involution[b] = b, a
    return Graph(weight, endpoint, involution, graph.legs, graph.exceptional)


def _refinement_candidates(graph, v):
    """Vertex splits at ``v``, in a fixed canonical order."""
    legs = set(graph.legs)
    hs = sorted(h for h in graph.half_edges_at(v) if h not in legs)
    leg_pos = graph.leg_positions(v)
    for h1, h2 in combinations(hs, 2):
        rest = [h for h in hs if h not in (h1, h2)]
        for pick in range(2 ** len(rest)):
            to_new = [h2] + [h for j, h in enumerate(rest) if pick >> j & 1]
            for w_new in range(graph.w(v) + 1):
                for lp in range(2 ** len(leg_pos)):
                    moved = [p for j, p in enumerate(leg_pos) if lp >> j & 1]
                    yield to_new, w_new, moved


def refine_nonbasic(graph, sign):
    """Split one vertex of a non-basic Eulerian stable graph so that the
    given full spin structure lifts uniquely.

    Returns ``(refined_spin_graph, witness)`` where the witness contracts
    the new edge back onto the input graph and pushes the lift onto the
    full-set structure with ``sign``, and no other structure on the
    refined graph pushes onto it under any contraction onto the input's
    class.  The stable splits are tried in canonical order, and the
    first one with such a lift wins; its lift is found, not guessed
    (:func:`_unique_lift`).  The input's key is computed only to name it
    when no split has one.
    """
    cls = classify(graph)
    if cls.basic:
        raise DomainError("refinement applies to non-basic graphs")
    if not (is_stable(graph) and cls.eulerian and graph.genus >= 2
            and graph.n_edges > 0):
        raise DomainError("refinement needs a stable Eulerian graph of "
                          "genus at least 2 with edges")
    if sign not in (0, 1):
        raise InputError("sign must be 0 or 1")

    tried = 0
    for v in sorted(graph.vertices):
        for to_new, w_new, moved in _refinement_candidates(graph, v):
            tried += 1
            split = _split_vertex(graph, v, to_new, w_new, moved)
            if not is_stable(split):
                continue
            found = _unique_lift(split, graph, sign)
            if found is not None:
                return found
    raise VerificationError(
        f"no refinement found after {tried} candidates", _witness(graph))


def _unique_lift(split, graph, sign):
    """The unique lift onto ``split`` of the full-set structure with
    ``sign`` on ``graph``, as ``(SpinGraph(split, lift), witness)``, or
    ``None``.

    Every structure of ``split`` is pushed through one carry per
    contraction of ``split`` onto the class of ``graph``, carried onto
    ``graph`` (:func:`~spinmod.morphisms._contractions_onto`: one edge
    each, since the split adds one).  A structure lands when its pushed
    data is the target's, the full mask with ``(sign,)``: the graph is
    connected, so every automorphism fixes the full set and its one
    component, and the target's orbit is the target alone.  The split is
    accepted when exactly one structure lands.  The witness is the
    joining edge's contraction, not carried; it is the last one, since
    the joining edge is the last edge and contracting it gives back
    ``graph``.

    Nothing else is checked.  Every contraction onto the class pushes a
    structure of each parity onto the full set, so a unique lift lands
    under all of them.  An automorphism carries a landing structure to
    one that lands under another contraction, so it fixes a unique lift.
    Pushing onto the full set through the joining edge makes the lift's
    cyclic set the full set, or the full set less the joining edge, and
    a push keeps the parity.
    """
    from .morphisms import SpinCarry, _contractions_onto  # deferred

    found = list(_contractions_onto(split, graph))
    target = (EdgeSet.full(graph).mask, sign)  # one component: its bit
    lift = None
    for p, dec, vectors in spin_fibres(split):
        carries = [SpinCarry(carried, p, dec) for _, carried in found]
        for signs in vectors:
            if target in [(carry.mask, carry.fold(signs))
                          for carry in carries]:
                if lift is not None:
                    return None
                lift = SpinStructure.over(p, dec, sign_tuple(signs,
                                                             len(dec)))
    if lift is None:
        return None
    return SpinGraph(split, lift), found[-1][0]
