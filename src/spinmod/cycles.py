"""GF(2) edge and vertex spaces, the boundary map, and cycle spaces.

Edge sets are bitmasks over a fixed graph's edge indexing; the carrier
graph is part of the value.  The cycle space is the kernel of the
boundary map, computed by GF(2) elimination, and its elements are
exactly the edge sets spanning subgraphs with all vertex degrees even.
"""

from __future__ import annotations

from functools import cached_property

from .errors import BudgetError, DomainError, InputError, VerificationError
from .graphs import connected_classes

B1_CAP = 24


class EdgeSet:
    """Subset of a graph's edges, stored as a bitmask over edge indices."""

    def __init__(self, graph, mask=0):
        if mask < 0 or mask >> graph.n_edges:
            raise InputError(f"mask {mask:#x} out of range for {graph.n_edges} edges")
        self.graph = graph
        self.mask = mask

    @classmethod
    def from_indices(cls, graph, indices):
        mask = 0
        for i in indices:
            if not 0 <= i < graph.n_edges:
                raise InputError(f"edge index {i} out of range")
            mask |= 1 << i
        return cls(graph, mask)

    @classmethod
    def full(cls, graph):
        return cls(graph, (1 << graph.n_edges) - 1)

    def indices(self):
        """The indices of the set's edges, in ascending order."""
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def __iter__(self):
        return iter(self.indices())

    def vertex_pairs(self):
        """The end vertices of each edge of the set, in index order, read
        over the mask's set bits against the graph's edges; each pair
        is ordered as the edge's half-edges, not sorted."""
        edges, endpoint = self.graph.edges, self.graph.endpoint
        out = []
        m = self.mask
        while m:
            low = m & -m
            m ^= low
            h, k = edges[low.bit_length() - 1]
            out.append((endpoint[h], endpoint[k]))
        return out

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, i):
        return bool(self.mask >> i & 1)

    def __eq__(self, other):
        return (isinstance(other, EdgeSet) and self.graph == other.graph
                and self.mask == other.mask)

    def __hash__(self):
        # consistent with __eq__, which compares carriers structurally
        return hash((self.graph.n_edges, self.mask))

    def hex(self):
        return format(self.mask, "x")

    def __repr__(self):
        return f"EdgeSet({sorted(self.indices())})"

    @cached_property
    def b1(self):
        """First Betti number of the spanned subgraph (support vertices only)."""
        pairs = self.vertex_pairs()
        if not pairs:
            return 0
        verts = {v for pair in pairs for v in pair}
        return (len(pairs) - len(verts)
                + len(connected_classes(verts, pairs)))


def boundary(graph, edge_set):
    """GF(2) boundary: the set of vertices of odd degree in the spanned
    subgraph.  Loops contribute nothing.  Reads the set's
    :meth:`~EdgeSet.vertex_pairs`; a set over another graph is an input
    error, not a mask read against this one."""
    if edge_set.graph is not graph and edge_set.graph != graph:
        raise InputError("cyclic set lives over a different graph")
    odd = set()
    for u, v in edge_set.vertex_pairs():
        if u != v:
            odd ^= {u, v}
    return frozenset(odd)


def _key(graph):
    """Canonical key of a witness graph, for failure reports only."""
    from .morphisms import canonical_key  # deferred: morphisms imports us
    return canonical_key(graph)


def is_cyclic(graph, edge_set):
    return not boundary(graph, edge_set)


def cycle_basis(graph):
    """A deterministic GF(2) basis of the cycle space, the kernel of the
    boundary map, by elimination.

    Each edge, in index order, is its boundary as a bitmask over vertex
    positions and its own bit as an edge set; it is reduced against the
    pivots kept so far, keyed by their highest vertex bit.  An edge whose
    boundary reduces to zero adds its edge set to the basis; any other
    becomes a pivot.
    """
    at = graph.vertex_index
    pivots = {}  # highest vertex bit: (boundary, edge set)
    basis = []
    for i in range(graph.n_edges):
        u, v = graph.edge_vertices(i)
        bound, edges = 1 << at[u] ^ 1 << at[v], 1 << i
        while bound:
            top = bound.bit_length() - 1
            if top not in pivots:
                pivots[top] = (bound, edges)
                break
            pivot_bound, pivot_edges = pivots[top]
            bound ^= pivot_bound
            edges ^= pivot_edges
        else:
            basis.append(EdgeSet(graph, edges))
    if len(basis) != graph.b1:
        raise VerificationError(
            f"cycle basis has {len(basis)} elements, b1 is {graph.b1}",
            (_key(graph),))
    return basis


def enumerate_cyclic(graph):
    """All ``2^{b1}`` elements of the cycle space, sorted by bitmask, as a
    tuple.

    Every element is re-checked against the even-degree criterion, so the
    span construction and the boundary kernel act as independent
    definitions of the same space.  The checked tuple is memoised per
    graph object in ``graph.__dict__``, like the decompositions;
    :data:`B1_CAP` is read and enforced on every call.
    """
    if graph.b1 > B1_CAP:
        raise BudgetError(f"cycle space of size 2^{graph.b1} exceeds the "
                          f"cap 2^{B1_CAP}")
    out = graph.__dict__.get("_cycle_space")
    if out is not None:
        return out
    basis = cycle_basis(graph)
    masks = {0}
    for b in basis:
        masks |= {m ^ b.mask for m in masks}
    out = tuple(EdgeSet(graph, m) for m in sorted(masks))
    for f in out:
        if boundary(graph, f):
            raise VerificationError(
                f"span member {f} fails the even-degree criterion",
                (_key(graph), f"P={f.hex()}"))
    graph.__dict__["_cycle_space"] = out
    return out


class PbarDecomposition:
    """The graph obtained by opening all edges outside a cyclic set, split
    into connected components.

    Components are ordered by their smallest vertex; this ordering is what
    sign vectors of spin structures refer to.  They come from one
    union-find over the edges of the cyclic set: a component's genus is
    its total weight plus its edges in the set, minus its vertices, plus
    one.  Only two flat tuples are kept: ``component``, the component
    index of each vertex in ``graph.vertices`` order, and ``genera``;
    ``genus_zero`` is the mask of the genus-0 components as a sign
    vector, component ``i`` of ``n`` at bit ``n - 1 - i``
    (:func:`~spinmod.spin.sign_bits`).
    Readers find a vertex's component through ``graph.vertex_index``; no
    component's vertex set is built.  No opened graph is built either:
    what the opened graph's vertices and legs carry (theta divisors,
    stratum rows) is read from this record and the graph's own edges.
    """

    __slots__ = ("graph", "mask", "component", "genera", "genus_zero")

    def __init__(self, graph, cyclic_set):
        if not is_cyclic(graph, cyclic_set):
            raise DomainError("decomposition requires a cyclic edge set")
        self.graph = graph
        self.mask = cyclic_set.mask
        edges = cyclic_set.vertex_pairs()
        classes = connected_classes(graph.vertices, edges)
        index = {v: i for i, vs in enumerate(classes) for v in vs}
        n_edges = [0] * len(classes)
        for u, _ in edges:
            n_edges[index[u]] += 1
        self.component = tuple(map(index.__getitem__, graph.vertices))
        weight = graph.weight.__getitem__
        self.genera = tuple(sum(map(weight, vs)) + e - len(vs) + 1
                            for vs, e in zip(classes, n_edges))
        self.genus_zero = sum(1 << len(classes) - 1 - i
                              for i, g in enumerate(self.genera) if g == 0)

    @property
    def c_plus(self):
        return sum(1 for g in self.genera if g > 0)

    def __len__(self):
        return len(self.genera)


def pbar_decompose(graph, cyclic_set):
    """Open all edges outside ``cyclic_set`` and split into components.

    Memoised per graph object by mask, in ``graph.__dict__`` like the
    canonical form and the automorphism group; a mask that is not cyclic,
    or a set over another graph, is rejected on every call.
    """
    cache = graph.__dict__.get("_pbar_decompositions")
    if cache is None:
        cache = graph.__dict__["_pbar_decompositions"] = {}
    dec = cache.get(cyclic_set.mask)
    if dec is None:
        dec = cache[cyclic_set.mask] = PbarDecomposition(graph, cyclic_set)
    elif cyclic_set.graph is not graph and cyclic_set.graph != graph:
        raise InputError("cyclic set lives over a different graph")
    return dec

