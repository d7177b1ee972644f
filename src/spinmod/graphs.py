"""Weighted multigraphs with legs, stored as half-edge structures.

A graph is a set of vertices with non-negative integer weights, a set of
half-edges with an involution and an endpoint map, and a global order on
the legs (the half-edges fixed by the involution).  Edges are unordered
pairs of half-edges swapped by the involution; loops and parallel edges
are allowed, and graphs may be disconnected.

Every graph carries a stable edge indexing: edges are sorted by their
smaller half-edge id, and bitmask-based edge sets elsewhere in the
package refer to these indices.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InputError


def json_int(value, field, owner):
    """``value`` when it is a JSON integer (an ``int``, not a ``bool``);
    anything else is an input error naming ``owner``'s ``field``."""
    if type(value) is int:
        return value
    raise InputError(f"{owner} field {field!r} holds {value!r}, not an "
                     "integer")


def _json_object(value, field):
    """``value`` when it is a JSON object; anything else is an input
    error naming the graph's ``field``."""
    if isinstance(value, dict):
        return value
    raise InputError(f"graph field {field!r} holds {value!r}, not a JSON "
                     "object")


def json_numeral(text, field, owner, base=10):
    """The integer ``text`` spells when it is written as ``str`` (base
    10) or ``format(_, "x")`` (base 16) writes a non-negative integer:
    lowercase ASCII digits with no sign, no padding and no leading zero
    except in ``"0"``.  Anything else is an input error naming
    ``owner``'s ``field``."""
    digits = "0123456789abcdef"[:base]
    if (type(text) is str and text and all(c in digits for c in text)
            and (text == "0" or text[0] != "0")):
        return int(text, base)
    raise InputError(f"{owner} field {field!r} holds {text!r}, not a "
                     f"canonical base-{base} numeral")


class Graph:
    """Immutable half-edge multigraph with vertex weights and ordered legs.

    Construct either directly from the half-edge data or through
    :meth:`build`, which assigns half-edge ids from an edge list; both
    validate.  Graphs derived from a validated one (contraction targets)
    come through :meth:`_derived`, which checks nothing.
    """

    def __init__(self, vertex_weights, endpoint, involution, legs,
                 exceptional=()):
        weight = {int(v): int(w) for v, w in dict(vertex_weights).items()}
        if not weight:
            raise InputError("a graph needs at least one vertex")
        if any(w < 0 for w in weight.values()):
            raise InputError("vertex weights must be non-negative")
        endpoint = {int(h): int(v) for h, v in dict(endpoint).items()}
        involution = {int(h): int(k) for h, k in dict(involution).items()}
        if involution.keys() != endpoint.keys():
            raise InputError("involution must be defined on all half-edges")
        # a map equals its inverse exactly when it is a self-inverse
        # permutation of its keys
        if involution != {k: h for h, k in involution.items()}:
            raise InputError("involution is not a self-inverse permutation")
        if not weight.keys() >= set(endpoint.values()):
            h, v = next((h, v) for h, v in endpoint.items() if v not in weight)
            raise InputError(f"half-edge {h} ends at unknown vertex {v}")
        legs = tuple(int(h) for h in legs)
        fixed = {h for h, k in involution.items() if h == k}
        if set(legs) != fixed or len(legs) != len(fixed):
            raise InputError("legs must list each involution fixed point once")
        exceptional = frozenset(exceptional)
        stray = sorted(exceptional - weight.keys())
        if stray:
            raise InputError(f"exceptional vertex {stray[0]} is not a vertex")

        self.weight = weight
        self.endpoint = endpoint
        self.involution = involution
        self.legs = legs
        self.exceptional = exceptional
        self.vertices = tuple(sorted(weight))
        self.half_edges = tuple(sorted(endpoint))
        # Stable edge indexing: pairs (h, h') with h < h', sorted by h.
        self.edges = tuple(sorted(
            [(h, k) for h, k in involution.items() if h < k]))
        self.n_edges = len(self.edges)
        self.n_legs = len(legs)

    @classmethod
    def build(cls, vertices, edges, legs=(), exceptional=()):
        """Build a graph from an edge list.

        ``vertices`` is an iterable of ``(id, weight)`` pairs, ``edges`` an
        iterable of vertex pairs (loops as ``(v, v)``), ``legs`` an ordered
        iterable of vertex ids.  Half-edge ids are assigned densely: edge
        ``i`` gets half-edges ``2i`` and ``2i+1``, legs follow.
        """
        weight = dict(vertices)
        endpoint, involution = {}, {}
        h = 0
        for u, v in edges:
            endpoint[h], endpoint[h + 1] = u, v
            involution[h], involution[h + 1] = h + 1, h
            h += 2
        leg_ids = []
        for v in legs:
            endpoint[h] = v
            involution[h] = h
            leg_ids.append(h)
            h += 1
        return cls(weight, endpoint, involution, leg_ids, exceptional)

    @classmethod
    def _derived(cls, weight, endpoint, involution, legs, exceptional,
                 vertices, half_edges, edges):
        """A graph from data its caller derived from a validated graph,
        taken as given: no coercion, no copies and no checks.  The caller
        supplies the sorted ``vertices``, ``half_edges`` and ``edges``
        that :meth:`__init__` would compute, and ``exceptional`` as a
        frozenset."""
        graph = object.__new__(cls)
        graph.weight = weight
        graph.endpoint = endpoint
        graph.involution = involution
        graph.legs = legs
        graph.exceptional = exceptional
        graph.vertices = vertices
        graph.half_edges = half_edges
        graph.edges = edges
        graph.n_edges = len(edges)
        graph.n_legs = len(legs)
        return graph

    # -- basic accessors -------------------------------------------------

    def w(self, v):
        return self.weight[v]

    @cached_property
    def _incidence(self):
        inc = {v: [] for v in self.vertices}
        for h, v in self.endpoint.items():
            inc[v].append(h)
        return {v: tuple(sorted(hs)) for v, hs in inc.items()}

    @cached_property
    def _leg_set(self):
        return frozenset(self.legs)

    def half_edges_at(self, v):
        return self._incidence[v]

    def deg(self, v):
        """Number of non-leg half-edges at ``v`` (a loop counts twice)."""
        return sum(1 for h in self._incidence[v] if h not in self._leg_set)

    def ell(self, v):
        """Number of legs ending at ``v``."""
        return sum(1 for h in self._incidence[v] if h in self._leg_set)

    def loops(self, v):
        return sum(1 for h, k in self.edges
                   if self.endpoint[h] == v and self.endpoint[k] == v)

    def leg_positions(self, v):
        """Indices in the global leg order of the legs ending at ``v``."""
        return tuple(i for i, h in enumerate(self.legs)
                     if self.endpoint[h] == v)

    def edge_vertices(self, i):
        """Endpoints of edge ``i`` as a sorted vertex pair."""
        h, k = self.edges[i]
        u, v = self.endpoint[h], self.endpoint[k]
        return (u, v) if u <= v else (v, u)

    @cached_property
    def vertex_index(self):
        """Position of each vertex in ``vertices``."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def multiplicity(self):
        """Map from sorted vertex pair to the number of parallel edges."""
        mult = {}
        for i in range(self.n_edges):
            pair = self.edge_vertices(i)
            mult[pair] = mult.get(pair, 0) + 1
        return mult

    # -- global invariants -----------------------------------------------

    @cached_property
    def components(self):
        """Connected components as sorted tuples of vertex ids.

        Isolated vertices form their own components; legs do not connect
        anything.
        """
        return tuple(tuple(c) for c in connected_classes(
            self.vertices, map(self.edge_vertices, range(self.n_edges))))

    @cached_property
    def c(self):
        return len(self.components)

    @cached_property
    def is_connected(self):
        return self.c == 1

    @cached_property
    def b1(self):
        return self.n_edges - len(self.vertices) + self.c

    @cached_property
    def genus(self):
        return sum(self.weight.values()) + self.b1

    def total_weight(self):
        return sum(self.weight.values())

    # -- structural identity ----------------------------------------------

    def _ident(self):
        return (tuple(sorted(self.weight.items())),
                tuple(sorted(self.endpoint.items())),
                tuple(sorted(self.involution.items())),
                self.legs)

    def __eq__(self, other):
        # dicts compare as sets of items, so this is _ident() equality
        # without sorting
        return self is other or (isinstance(other, Graph)
                                 and self.legs == other.legs
                                 and self.weight == other.weight
                                 and self.endpoint == other.endpoint
                                 and self.involution == other.involution)

    def __hash__(self):
        return hash(self._ident())

    def __repr__(self):
        return (f"Graph(|V|={len(self.vertices)}, |E|={self.n_edges}, "
                f"|L|={self.n_legs}, g={self.genus})")

    # -- serialization ----------------------------------------------------

    def to_json_dict(self, half_edges=False):
        data = {
            "vertices": [{"id": v, "weight": self.weight[v]}
                         for v in self.vertices],
            "edges": [list(self.edge_vertices(i)) for i in range(self.n_edges)],
            "legs": [self.endpoint[h] for h in self.legs],
        }
        if half_edges:
            data["half_edges"] = {
                "endpoint": {str(h): self.endpoint[h] for h in self.half_edges},
                "involution": {str(h): self.involution[h] for h in self.half_edges},
                "legs": list(self.legs),
            }
        if self.exceptional:
            data["exceptional"] = sorted(self.exceptional)
        return data

    @classmethod
    def from_json_dict(cls, data):
        """Read :meth:`to_json_dict` output.  Every id, weight and
        endpoint must be a JSON integer, and vertex ids must be distinct;
        the keys of the ``half_edges`` block must be half-edge ids as
        ``str`` writes them (:func:`json_numeral`)."""
        try:
            weight = {}
            for v in data["vertices"]:
                vid = json_int(v["id"], "id", "graph")
                if vid in weight:
                    raise InputError(f"duplicate vertex id {vid}")
                weight[vid] = json_int(v["weight"], "weight", "graph")
            exceptional = [json_int(v, "exceptional", "graph")
                           for v in data.get("exceptional", ())]
            if "half_edges" in data:
                block = _json_object(data["half_edges"], "half_edges")
                endpoint = _json_object(block["endpoint"], "endpoint")
                involution = _json_object(block["involution"], "involution")
                endpoint = {json_numeral(h, "endpoint", "half-edge"):
                            json_int(v, "endpoint", "half-edge")
                            for h, v in endpoint.items()}
                involution = {json_numeral(h, "involution", "half-edge"):
                              json_int(k, "involution", "half-edge")
                              for h, k in involution.items()}
                legs = [json_int(h, "legs", "half-edge")
                        for h in block["legs"]]
                return cls(weight, endpoint, involution, legs, exceptional)
            edges = [tuple(json_int(v, "edges", "graph") for v in e)
                     for e in data["edges"]]
            legs = [json_int(v, "legs", "graph") for v in data.get("legs", ())]
            return cls.build(weight, edges, legs, exceptional)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc


class Divisor:
    """Integer-valued divisor on the vertices of a graph."""

    def __init__(self, graph, values):
        self.graph = graph
        self.values = {v: int(values.get(v, 0)) for v in graph.vertices}

    @property
    def degree(self):
        return sum(self.values.values())

    def __getitem__(self, v):
        return self.values[v]

    def __eq__(self, other):
        return (isinstance(other, Divisor) and self.graph == other.graph
                and self.values == other.values)

    def __repr__(self):
        return f"Divisor({self.values})"


# -- single-graph operations ----------------------------------------------

def connected_classes(items, pairs):
    """Classes of the equivalence relation on ``items`` generated by
    ``pairs`` (union-find), each a sorted list, ordered by smallest
    member.  Roots are found inline, halving the path on the way up."""
    parent = {x: x for x in items}
    for u, v in pairs:
        while (up := parent[u]) != u:
            parent[u] = u = parent[up]
        while (up := parent[v]) != v:
            parent[v] = v = parent[up]
        # the root of a class is its smallest member
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    classes = {}
    for x in sorted(parent):
        root = x
        while (up := parent[root]) != root:
            parent[root] = root = parent[up]
        classes.setdefault(root, []).append(x)
    return list(classes.values())


def is_stable(graph):
    """Connected, and ``2w(v) - 2 + deg(v) + ell(v)`` positive at every
    vertex.  ``deg(v) + ell(v)`` is the number of half-edges at ``v``,
    counted in one pass over the endpoints."""
    if not graph.is_connected:
        return False
    valence = dict.fromkeys(graph.vertices, 0)
    for v in graph.endpoint.values():
        valence[v] += 1
    for v, w in graph.weight.items():
        if 2 * w - 2 + valence[v] <= 0:
            return False
    return True


def canonical_divisor(graph):
    """The divisor with value ``2w(v) - 2 + deg(v)`` at each vertex; its
    degree is ``2g - 2c``."""
    return Divisor(graph, {v: 2 * graph.w(v) - 2 + graph.deg(v)
                           for v in graph.vertices})


def _check_edge_subset(graph, edge_indices):
    idx = sorted(set(int(i) for i in edge_indices))
    if idx and (idx[0] < 0 or idx[-1] >= graph.n_edges):
        raise InputError(f"edge index out of range for graph with "
                         f"{graph.n_edges} edges: {idx}")
    return idx


def blow_up(graph, edge_indices):
    """Insert a weight-0 exceptional vertex in the interior of each given
    edge; all other ids are preserved."""
    chosen = _check_edge_subset(graph, edge_indices)
    weight = dict(graph.weight)
    endpoint = dict(graph.endpoint)
    involution = dict(graph.involution)
    exceptional = set(graph.exceptional)
    next_v = max(graph.vertices) + 1
    next_h = max(graph.half_edges) + 1 if graph.half_edges else 0
    for i in chosen:
        h, k = graph.edges[i]
        mid = next_v
        next_v += 1
        weight[mid] = 0
        exceptional.add(mid)
        a, b = next_h, next_h + 1
        next_h += 2
        endpoint[a] = mid
        endpoint[b] = mid
        # split edge {h,k} into {h,a} and {b,k} through the new vertex
        involution[h], involution[a] = a, h
        involution[k], involution[b] = b, k
    return Graph(weight, endpoint, involution, graph.legs, exceptional)


class GraphClass:
    """Result of :func:`classify`."""

    def __init__(self, eulerian, three_regular, basic, vertex_classes):
        self.eulerian = eulerian
        self.three_regular = three_regular
        self.basic = basic
        self.vertex_classes = vertex_classes

    def __repr__(self):
        return (f"GraphClass(eulerian={self.eulerian}, "
                f"three_regular={self.three_regular}, basic={self.basic})")


def classify(graph):
    """Degree-parity, 3-regularity and basicness flags for a graph.

    ``eulerian`` records only the parity condition (every vertex of even
    edge-degree, legs not counted); connectivity is checked separately
    where needed.  ``basic`` asks for a connected stable graph of genus at
    least 2 with edges, even degrees, all weights at most 1, and
    ``w + deg + ell <= 4`` everywhere with equality only at vertices
    carrying a loop.  Vertex classes ``(w(v), loop(v) + w(v))`` are
    reported for basic graphs only.
    """
    eulerian = all(graph.deg(v) % 2 == 0 for v in graph.vertices)
    three_regular = (graph.total_weight() == 0 and
                     all(graph.deg(v) + graph.ell(v) == 3
                         for v in graph.vertices))
    basic = (graph.genus >= 2 and graph.n_edges > 0 and eulerian
             and is_stable(graph)
             and all(graph.w(v) <= 1 for v in graph.vertices))
    if basic:
        for v in graph.vertices:
            total = graph.w(v) + graph.deg(v) + graph.ell(v)
            if total > 4 or (total == 4 and graph.loops(v) == 0):
                basic = False
                break
    vertex_classes = None
    if basic:
        vertex_classes = {v: (graph.w(v), graph.loops(v) + graph.w(v))
                          for v in graph.vertices}
    return GraphClass(eulerian, three_regular, basic, vertex_classes)
