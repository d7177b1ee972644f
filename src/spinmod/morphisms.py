"""Contractions, automorphism groups, pushforwards and canonical keys.

A contraction derives its target from the source's validated data in
one pass over the source's sorted edges, and builds it without a second
validation: the kept edges, numbered in order, each kept half-edge at
the representative of its endpoint's class, the involution restricted
to them.  Contracting edges keeps connectivity, so no second union-find
recomputes the target's b1 and genus; instead what the contraction
computed must pass two checks against the contracted set's own first
Betti number ``b1(F)``: ``|V| - |F| + b1(F)`` target vertices, and
target weights summing to the source's total plus ``b1(F)``.

Morphisms act on vertices and half-edges.  A structure over a graph (a
cyclic set, a spin structure) sees only how an automorphism moves
vertices and edges, and every loop doubles the group by a flip that
moves neither.  So a group is held as its action classes, one vertex map
and edge permutation per distinct action (:attr:`AutGroup.actions`),
and the number of loop flips each carries; its order at half-edge level
is their product, and the factorization's subgroup and quotient action
count classes and the flips of loops inside and outside the cyclic set.
One routine, :func:`orbit_walk`, walks every orbit of a group: on
edges, on cyclic sets as masks (:meth:`AutGroup.mask_orbits`) and on
the sign vectors above a cyclic set.  It acts on hashable data with the
classes and returns each stabilizer as the indices of the classes that
fix the representative, and each image's transporter, for the caller to
keep.
The element-level group, one map on half-edges per element, lives in
the test suite as the oracle these counts are checked against.

A graph's canonical key is a digest of its certificate, computed by
color refinement with individualization from initial colors read in one
pass over the edges and legs; the brute-force isomorphism search it is
cross-checked against lives in the test suite.  The certificate is
serialised and hashed once per graph, on its first key request, and the
hash state is kept in the canonical-form memo, one record per graph
(:class:`_FormMemo`): a graph's key is its digest, and every orbit key
over the graph extends a copy of it.  Computing a canonical form hashes
nothing, so the order test, which compares certificates, hashes nothing
either.  The same search yields the group's vertex maps: it prunes
nothing, so the leaves with the best certificate are the canonical
labelling composed with each automorphism, and the group is ordered by
the root colours the search refined; the record keeps both until the
group is built.  Pruning the tree by automorphisms would break that, and
the group would then have to come from the pruning search's generators.
The orbits of a group on edges (:attr:`AutGroup.edge_orbits`) let the
contraction table contract one edge per orbit.

An automorphism or a contraction moves the signs of a spin structure
only by the way it carries the components of the opened graph, so that
map is computed and checked once per (map, cyclic set)
(:class:`SpinCarry`) and every sign vector over the set is folded
through it as data; orbit walks, stabilizers and cover pushes build no
spin structure per image.  Both kinds of map take one path: the set's
own decomposition proves the set cyclic, and the image's decomposition,
memoised or built, proves the image so.

The orbits of spin structures are walked fibre-wise over the cyclic
sets, in :mod:`spinmod.orbits`, which spin keys and the order test read.

The key of a cyclic set or spin structure adds the least encoding, under
the graph's canonical labelling, among the members of its orbit.  The
members are read off an orbit table, so no second pass over the group
runs; a cyclic set is encoded once per member, and a spin structure as
:func:`spinmod.orbits.spin_orbit_keys` says.

One search finds the contractions of a graph onto a class, carried
onto a given graph of it (:func:`_contractions_onto`); the order test
and refinement both read it.  It carries a contraction whose target
equals that graph through the identity, and computes certificates only
for the candidates whose targets differ from it but have its sorted
vertex invariants (weight, degree, loops and leg positions).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from functools import cached_property
from itertools import combinations, permutations, product

from .cycles import EdgeSet, boundary, is_cyclic, pbar_decompose
from .errors import BudgetError, DomainError, InputError, VerificationError
from .graphs import Graph, connected_classes
from .spin import SpinGraph, SpinStructure

AUT_HALF_EDGE_CAP = 40


# -- contractions -----------------------------------------------------------

class Contraction:
    """Contraction of an edge subset, with the induced vertex and edge maps.

    Target vertices are named by the smallest source vertex they absorb,
    and target weights are the genera of the contracted preimages.  Edges
    and legs keep their half-edge ids, so edge sets push forward by index
    translation.

    The target is derived from the source's validated data, not built
    and checked afresh: its edges are the source's sorted edges outside
    the contracted set, numbered in that order (``edge_map``), each kept
    half-edge ends at the representative of its endpoint's class, and
    the involution is the source's restricted to the kept half-edges.
    Contracting edges keeps connectivity, so b1 and the genus need no
    second union-find; instead, what the contraction computed must pass
    two checks against the contracted set's own first Betti number
    ``b1(F)``: the target has ``|V| - |F| + b1(F)`` vertices, and its
    weights, none negative, sum to the source's plus ``b1(F)``.  A
    failure is a :class:`VerificationError` naming the source's key and
    ``F``.  The target's ``b1``, ``c`` and ``genus`` stay lazy.
    """

    def __init__(self, source, contracted):
        if contracted.graph != source:
            raise InputError("edge set lives over a different graph")
        self.source = source
        self.contracted = contracted
        mask = contracted.mask
        endpoint = source.endpoint

        # one pass over the sorted edges: the contracted ones as vertex
        # pairs, the kept ones numbered in order as the target's edges
        pairs, kept, dropped, edge_map = [], [], set(), {}
        for i, (h, k) in enumerate(source.edges):
            if mask >> i & 1:
                pairs.append((endpoint[h], endpoint[k]))
                dropped.add(h)
                dropped.add(k)
                edge_map[i] = None
            else:
                edge_map[i] = len(kept)
                kept.append((h, k))
        self.edge_map = edge_map

        classes = connected_classes(source.vertices, pairs)
        rep = {v: members[0] for members in classes for v in members}
        self.vertex_map = rep

        # target weight = total weight + first Betti number of the
        # contracted piece over each class: its weights, plus its
        # contracted edges, minus its vertices, plus one
        source_weight = source.weight
        weight = {members[0]: sum(map(source_weight.__getitem__, members))
                  - len(members) + 1 for members in classes}
        for u, _ in pairs:
            weight[rep[u]] += 1
        self._check(weight)

        kept_endpoint = {h: rep[v] for h, v in endpoint.items()
                         if h not in dropped}
        involution = source.involution
        # the classes come ordered by their smallest member, their
        # representative, so the target's vertices are sorted as listed
        self.target = Graph._derived(
            weight, kept_endpoint,
            {h: involution[h] for h in kept_endpoint}, source.legs,
            source.exceptional.intersection(weight), tuple(weight),
            tuple([h for h in source.half_edges if h not in dropped]),
            tuple(kept))

    def _check(self, weight):
        """The target's vertex count and weights, ``weight`` by vertex,
        against ``b1(F)``."""
        source, contracted = self.source, self.contracted
        b1 = contracted.b1
        expected = len(source.vertices) - len(contracted) + b1
        if len(weight) != expected:
            raise VerificationError(
                f"contraction left {len(weight)} vertices, expected "
                f"|V| - |F| + b1(F) = {expected}",
                (canonical_key(source), f"F={contracted.hex()}"))
        total = sum(weight.values())
        expected = source.total_weight() + b1
        if total != expected:
            raise VerificationError(
                f"contraction gave a total weight of {total}, "
                f"expected the source's plus b1(F) = {expected}",
                (canonical_key(source), f"F={contracted.hex()}"))
        least = min(weight.values())
        if least < 0:
            raise VerificationError(
                f"contraction gave a vertex the negative weight {least}",
                (canonical_key(source), f"F={contracted.hex()}"))

    def onto(self, rep):
        """This contraction followed by an isomorphism of its target onto
        ``rep``, a graph of the same class: the source and the contracted
        set stay, the target becomes ``rep`` and the vertex and edge maps
        are composed with the isomorphism.  When ``rep`` equals the
        target (the same ids), the isomorphism is the identity and the
        maps stay as they are."""
        if rep == self.target:
            return self._with(rep, self.vertex_map, self.edge_map)
        vertex_iso, edge_iso = _isomorphism(self.target, rep)
        return self._with(
            rep, {v: vertex_iso[t] for v, t in self.vertex_map.items()},
            {i: None if j is None else edge_iso[j]
             for i, j in self.edge_map.items()})

    def _with(self, target, vertex_map, edge_map):
        out = object.__new__(Contraction)
        out.source, out.contracted, out.target = \
            self.source, self.contracted, target
        out.vertex_map, out.edge_map = vertex_map, edge_map
        return out

    def push_mask(self, mask):
        """The image of an edge set, given by its mask, as a mask over the
        target: the contracted edges dropped, the rest renumbered through
        ``edge_map``.  Nothing is checked; :func:`push_cycle` checks both
        ends."""
        edge_map = self.edge_map
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            j = edge_map[low.bit_length() - 1]
            if j is not None:
                out |= 1 << j
        return out

    def to_json_dict(self):
        return {"F": self.contracted.hex(),
                "vertex_map": sorted(self.vertex_map.items())}

    def __repr__(self):
        return (f"Contraction(F={sorted(self.contracted.indices())}, "
                f"target={self.target!r})")


def contract(graph, edge_set):
    """Contract an edge subset; identity when the set is empty."""
    if not isinstance(edge_set, EdgeSet):
        edge_set = EdgeSet.from_indices(graph, edge_set)
    return Contraction(graph, edge_set)


def composed_edges(first, second):
    """The edges of ``first.source`` that applying ``first`` then
    ``second`` contracts: ``first``'s set and the preimage of
    ``second``'s.  Contracting this union equals the composite; requires
    ``second.source == first.target``."""
    if second.source != first.target:
        raise InputError("contractions do not compose")
    mask = first.contracted.mask
    for i, j in first.edge_map.items():
        if j is not None and j in second.contracted:
            mask |= 1 << i
    return EdgeSet(first.source, mask)


def push_vertex_set(contraction, vertex_set):
    """GF(2) pushforward of a vertex vector (image with multiplicity
    mod 2)."""
    out = set()
    for v in vertex_set:
        out.symmetric_difference_update({contraction.vertex_map[v]})
    return frozenset(out)


def push_cycle(contraction, cyclic_set):
    """Image of a cyclic edge set: drop the contracted edges, reindex the
    rest (:meth:`Contraction.push_mask`).

    Both ends are checked by walking their boundaries: a source set that
    is not cyclic is a :class:`DomainError`, and an image that is not a
    :class:`VerificationError` naming the source's key, ``P`` and ``F``.
    This is the push for callers that hold no proof of either, such as
    the fuzz chains; the poset builders and :class:`SpinCarry` read the
    proofs their decompositions and orbit tables hold instead."""
    if not is_cyclic(contraction.source, cyclic_set):
        raise DomainError("pushforward requires a cyclic edge set")
    out = EdgeSet(contraction.target, contraction.push_mask(cyclic_set.mask))
    if boundary(contraction.target, out):
        raise VerificationError(
            "pushforward of a cyclic set is not cyclic",
            (canonical_key(contraction.source), f"P={cyclic_set.hex()}",
             f"F={contraction.contracted.hex()}"))
    return out


def push_spin(contraction, spin):
    """Pushforward of a spin structure: the image cyclic set with signs
    summed over merged components.  Parity is preserved."""
    return SpinCarry(contraction, spin.P, spin.dec).image(spin)


# -- automorphisms ----------------------------------------------------------

def _vertex_invariants(graph):
    """Each vertex's ``(weight, degree, loops, leg positions)``, read in
    one pass over the edges and one over the legs.  Isomorphic graphs
    have the same sorted list of them."""
    endpoint = graph.endpoint
    deg = dict.fromkeys(graph.vertices, 0)
    loops = dict.fromkeys(graph.vertices, 0)
    legs = {v: () for v in graph.vertices}
    for h, k in graph.edges:
        u, v = endpoint[h], endpoint[k]
        deg[u] += 1
        deg[v] += 1
        if u == v:
            loops[u] += 1
    for i, h in enumerate(graph.legs):
        legs[endpoint[h]] += (i,)
    return {v: (w, deg[v], loops[v], legs[v])
            for v, w in graph.weight.items()}


def _initial_colors(graph):
    """Each vertex's rank among the distinct :func:`_vertex_invariants`
    of the graph."""
    raw = _vertex_invariants(graph)
    ranks = {c: i for i, c in enumerate(sorted(set(raw.values())))}
    return {v: ranks[raw[v]] for v in graph.vertices}


def _neighbor_lists(graph):
    adj = {v: [] for v in graph.vertices}
    for (u, v), m in graph.multiplicity.items():
        if u != v:
            adj[u].append((v, m))
            adj[v].append((u, m))
    return adj


def _refine_colors(graph, colors, adj):
    while True:
        sig = {v: (colors[v], tuple(sorted((colors[u], m) for u, m in adj[v])))
               for v in graph.vertices}
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: ranks[sig[v]] for v in graph.vertices}
        if len(set(new.values())) == len(set(colors.values())):
            return new
        colors = new


def _encode(graph, pos):
    endpoint = graph.endpoint
    mult = defaultdict(int)
    for h, k in graph.edges:
        a, b = pos[endpoint[h]], pos[endpoint[k]]
        mult[(a, b) if a <= b else (b, a)] += 1
    order = sorted(graph.vertices, key=pos.get)
    return (
        len(graph.vertices), graph.n_edges,
        tuple(graph.weight[v] for v in order),
        tuple(pos[endpoint[h]] for h in graph.legs),
        tuple(sorted((a, b, m) for (a, b), m in mult.items())),
    )


class _FormMemo:
    """A graph's canonical-form memo, kept in
    ``graph.__dict__["_canonical_form"]``: ``form``, the ``(cert, pos)``
    pair :func:`canonical_form` returns; ``hash``, the hash state after
    the certificate, which only a key request fills
    (:func:`_certificate_hash`); and ``leaves`` and ``colors``, the
    search's best leaves, best first, and its refined root colours,
    which :func:`automorphisms` reads once and drops."""

    __slots__ = ("form", "hash", "leaves", "colors")

    def __init__(self, form, leaves, colors):
        self.form, self.hash = form, None
        self.leaves, self.colors = leaves, colors


def canonical_form(graph):
    """Canonical certificate and a labeling realizing it.

    Returns ``(cert, pos)`` where ``pos`` maps vertices to canonical
    positions; equal certificates characterize isomorphic graphs.

    The refinement tree is walked without pruning, so its leaves are
    permuted by the whole automorphism group, and distinct leaves give
    distinct labellings: a branch's individualized vertex comes first in
    its cell, since refinement keeps the order of cells.  The leaves
    whose certificate is the best one are therefore ``pos_best o a`` for
    exactly the automorphisms ``a``.  The memo is one record per graph
    (:class:`_FormMemo`): the form, a slot for the certificate's hash,
    and the best leaves and root colours, which :func:`automorphisms`
    reads the group off and then drops.  A search that prunes by
    automorphisms must supply the group from its generators instead.
    """
    memo = graph.__dict__.get("_canonical_form")
    if memo is not None:
        return memo.form
    adj = _neighbor_lists(graph)
    colors = _refine_colors(graph, _initial_colors(graph), adj)
    best = [None, []]
    _search(graph, adj, colors, best)
    form = (best[0], best[1][0])
    graph.__dict__["_canonical_form"] = _FormMemo(form, best[1], colors)
    return form


def _search(graph, adj, colors, best):
    """Walk the refinement tree below ``colors`` without pruning: keep in
    ``best`` the least certificate met, and every leaf labelling that
    has it in the order met.  A module-level function, not a closure
    over ``graph``, so no reference cycle keeps a searched graph alive
    until the cyclic garbage collector runs."""
    classes = defaultdict(list)
    for v, c in colors.items():
        classes[c].append(v)
    split = [c for c in sorted(classes) if len(classes[c]) > 1]
    if not split:
        pos = {v: i for i, (_, v) in enumerate(
            sorted((c, v) for v, c in colors.items()))}
        cert = _encode(graph, pos)
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, [pos]
        elif cert == best[0]:
            best[1].append(pos)
        return
    for v in sorted(classes[split[0]]):
        forced = {u: (c, 0 if u == v else 1) for u, c in colors.items()}
        ranks = {s: i for i, s in enumerate(sorted(set(forced.values())))}
        _search(graph, adj, _refine_colors(
            graph, {u: ranks[forced[u]] for u in graph.vertices}, adj), best)


def _isomorphism(a, b):
    """Vertex and edge maps of an isomorphism from ``a`` onto ``b``, read
    off their canonical labellings.  The edges between one vertex pair
    (parallel edges, or loops) are interchangeable, so they are matched
    in any order."""
    cert_a, pos_a = canonical_form(a)
    cert_b, pos_b = canonical_form(b)
    if cert_a != cert_b:
        raise VerificationError("graphs of different classes are not "
                                "isomorphic",
                                (_digest([cert_a]), _digest([cert_b])))
    at = {p: v for v, p in pos_b.items()}
    vertex_iso = {v: at[p] for v, p in pos_a.items()}
    edges_at = defaultdict(list)
    for j in range(b.n_edges):
        edges_at[b.edge_vertices(j)].append(j)
    edge_iso = {}
    for i in range(a.n_edges):
        u, v = (vertex_iso[x] for x in a.edge_vertices(i))
        edge_iso[i] = edges_at[(u, v) if u <= v else (v, u)].pop()
    return vertex_iso, edge_iso


class Aut:
    """One action class of automorphisms: a weight-preserving map on
    vertices with the permutation it induces on edge indices.  The
    elements of the class differ only by flips of loops, which move no
    vertex and no edge."""

    __slots__ = ("graph", "vertex_map", "edge_perm")

    def __init__(self, graph, vertex_map, edge_perm):
        self.graph = graph
        self.vertex_map = vertex_map
        self.edge_perm = edge_perm

    def act_mask(self, mask):
        """The image of an edge set, given by its mask, read over its
        set bits."""
        out = 0
        perm = self.edge_perm
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << perm[low.bit_length() - 1]
        return out

    def act_spin(self, spin):
        """Image of a spin structure under this automorphism."""
        return SpinCarry(self, spin.P, spin.dec).image(spin)

    def __repr__(self):
        return f"Aut(v={self.vertex_map})"


class AutGroup:
    """An automorphism group as its action classes and its loop flips.

    ``actions`` holds one :class:`Aut` per distinct action on vertices
    and edges, in group order, and every class carries ``2**flips``
    elements that differ by flipping loops.  Orbit walks act with the
    classes alone."""

    def __init__(self, graph, actions, flips):
        self.graph = graph
        self.actions = tuple(actions)
        self.flips = flips

    @property
    def order(self):
        """Order as a group of maps on vertices and half-edges."""
        return len(self.actions) << self.flips

    @property
    def order_edge(self):
        """Order of the induced action on edges alone."""
        return len({a.edge_perm for a in self.actions})

    @cached_property
    def edge_orbits(self):
        """The orbits of the group on edge indices, each sorted, in order
        of their least edges."""
        reps, orbit_of, _, _ = orbit_walk(
            range(self.graph.n_edges),
            [(c, a.edge_perm.__getitem__) for c, a in enumerate(self.actions)])
        orbits = [[] for _ in reps]
        for e in sorted(orbit_of):
            orbits[orbit_of[e]].append(e)
        return tuple(map(tuple, orbits))

    def subgroup(self, classes):
        """The action classes ``classes`` (indices into :attr:`actions`),
        with the same loop flips, as a group."""
        return AutGroup(self.graph, [self.actions[c] for c in classes],
                        self.flips)

    def mask_orbits(self, masks):
        """The orbits of the group on edge sets given by their masks, as
        :func:`orbit_walk` walks them with every action class."""
        return orbit_walk(masks, [(c, a.act_mask)
                                  for c, a in enumerate(self.actions)])


def orbit_walk(items, acts):
    """The first item met from each orbit, in the order given, with the
    orbit table, the stabilizers and the transporters the walk meets.

    Items are hashable data, and ``acts`` lists ``(c, act)`` pairs: the
    index ``c`` of an action class and ``act``, the function mapping an
    item to its image under that class.  An item is kept when it has not
    been met; its image under each class is then marked met.  When
    ``items`` are sorted and closed under the group, each kept item is the
    minimum of its orbit.

    Returns ``(reps, orbit_of, stabilizers, transporters)``: ``orbit_of``
    maps every image met to the index of its orbit in ``reps``,
    ``stabilizers[k]`` is the tuple of the class indices whose image of
    ``reps[k]`` is itself, which :meth:`AutGroup.subgroup` turns into a
    group, with equal tuples shared, and ``transporters`` maps every
    image met to the first class that carries its orbit's
    representative onto it.
    """
    orbit_of, transporters = {}, {}
    reps, stabilizers, shared = [], [], {}
    for item in items:
        if item in orbit_of:
            continue
        k = len(reps)
        reps.append(item)
        fixing = []
        for c, act in acts:
            image = act(item)
            if image not in orbit_of:
                orbit_of[image] = k
                transporters[image] = c
            if image == item:
                fixing.append(c)
        fixing = tuple(fixing)
        stabilizers.append(shared.setdefault(fixing, fixing))
    return reps, orbit_of, stabilizers, transporters


def _edge_permutations(graph, vmap):
    """Every edge permutation over a compatible vertex bijection: the
    edges between each vertex pair go, in every order, onto the edges
    between its image pair.  Pairs of distinct vertices vary first, in
    sorted order, then the loops of each vertex."""
    by_pair = defaultdict(list)
    for i in range(graph.n_edges):
        by_pair[graph.edge_vertices(i)].append(i)
    pairs = sorted(by_pair, key=lambda p: (p[0] == p[1], p))
    options = []
    for u, v in pairs:
        iu, iv = vmap[u], vmap[v]
        options.append(permutations(by_pair[(iu, iv) if iu <= iv
                                            else (iv, iu)]))
    perm = [0] * graph.n_edges
    for combo in product(*options):
        for pair, targets in zip(pairs, combo):
            for i, j in zip(by_pair[pair], targets):
                perm[i] = j
        yield tuple(perm)


def automorphisms(graph):
    """The full automorphism group, memoised per graph object; its
    vertex maps are read off the best leaves of :func:`canonical_form`,
    ordered by the root colours that search refined, and each loop of
    the graph adds a flip."""
    if len(graph.half_edges) > AUT_HALF_EDGE_CAP:
        raise BudgetError(
            f"automorphism search capped at {AUT_HALF_EDGE_CAP} half-edges, "
            f"graph has {len(graph.half_edges)}")
    cached = graph.__dict__.get("_aut_group")
    if cached is not None:
        return cached
    canonical_form(graph)
    memo = graph.__dict__["_canonical_form"]
    leaves, colors = memo.leaves, memo.colors
    memo.leaves = memo.colors = None
    at = {p: v for v, p in leaves[0].items()}
    # group order: lexicographic over the vertices by (refined root
    # color, vertex), as a backtracking search in that order meets the maps
    order = sorted(graph.vertices, key=lambda v: (colors[v], v))
    vmaps = sorted(({v: at[p] for v, p in pos.items()} for pos in leaves),
                   key=lambda vmap: [vmap[v] for v in order])
    group = AutGroup(graph, [
        Aut(graph, vmap, perm) for vmap in vmaps
        for perm in _edge_permutations(graph, vmap)],
        sum(map(graph.loops, graph.vertices)))
    graph.__dict__["_aut_group"] = group
    return group


def component_subgroup(group, spin):
    """The part of ``group`` that fixes every half-edge outside the spin
    structure's cyclic set and maps each component of the opened graph
    to itself (the product of the component groups).

    Its action classes fix each edge outside the set, and the ends of
    each such edge that is not a loop, and every component's vertex set;
    a loop outside the set must not flip, and a loop inside may."""
    graph = group.graph
    if spin.graph != graph:
        raise InputError("restricted groups need a spin structure over the "
                         "same graph")
    outside = [(i, graph.edge_vertices(i)) for i in range(graph.n_edges)
               if i not in spin.P]
    vertex_sets = spin.dec.vertex_sets
    loops_out = sum(1 for _, (u, v) in outside if u == v)
    return AutGroup(graph, [
        a for a in group.actions
        if all(a.edge_perm[i] == i and a.vertex_map[u] == u
               for i, (u, _) in outside)
        and all({a.vertex_map[v] for v in vs} == vs for vs in vertex_sets)],
        group.flips - loops_out)


def quotient_action_order(graph, spin, group):
    """Order of the action induced on the contracted graph by a group of
    spin-preserving automorphisms.

    Elements act on the vertices of the quotient (the components of the
    opened graph) and on its half-edges (those outside the cyclic set).
    An action class moves such a half-edge to the end of the image edge
    at the image of its vertex, and each loop outside the set doubles
    the count by its flip.  A class that does not map the components
    onto components is a :class:`VerificationError` naming the spin
    graph's key.
    """
    outside = [(i, graph.edge_vertices(i)) for i in range(graph.n_edges)
               if i not in spin.P]
    vertex_sets = spin.dec.vertex_sets
    comp_index = {vs: i for i, vs in enumerate(vertex_sets)}
    seen = set()
    for a in group.actions:
        comp_perm = tuple(
            comp_index.get(frozenset(a.vertex_map[v] for v in vs))
            for vs in vertex_sets)
        if None in comp_perm:
            raise VerificationError(
                "automorphism orders do not factor: an automorphism in the "
                "stabilizer maps a component of the opened graph onto no "
                "component", (canonical_key(SpinGraph(graph, spin)),))
        seen.add((comp_perm, tuple((a.edge_perm[i], a.vertex_map[u])
                                   for i, (u, _) in outside)))
    return len(seen) << sum(1 for _, (u, v) in outside if u == v)


# -- acting on spin data ----------------------------------------------------

class SpinCarry:
    """What an automorphism or a contraction ``f`` does to the spin
    structures over one cyclic set.

    A map moves signs only by the way it carries the components of the
    opened graph, so this depends on ``f`` and the cyclic set alone:
    ``graph`` is the graph the images live on, ``mask`` the image cyclic
    set, ``dec`` its decomposition, ``comps[i]`` the image component of
    component ``i`` of the source decomposition, ``size`` the number of
    image components and ``genus_zero`` those of genus 0.  Every sign
    vector over the set is then folded through it (:meth:`fold`).

    It is built from ``f``, a cyclic set over the map's source graph,
    and ``source``, that set's decomposition: the same mask, over the
    same or an equal graph.  Building ``source`` proved the set cyclic,
    so the set's mask is carried unchecked (:meth:`Aut.act_mask`,
    :meth:`Contraction.push_mask`), and :func:`pbar_decompose` of the
    image proves the image cyclic: a decomposition memoised on the image
    graph walks nothing, and a new one walks the image's boundary once.
    A set over another graph is an input error; a ``source`` of another
    set, or an image that is not cyclic, is a :class:`VerificationError`
    naming :meth:`witnesses`.  The source and image components are read
    from the component indices of ``source`` and of the image's
    decomposition, in one pass over the source vertices.  An
    automorphism must carry each component onto a component of the
    image of the same genus (it maps vertices bijectively, so no two
    components may meet in one image); a contraction must carry each
    into one component.
    """

    __slots__ = ("f", "source_mask", "graph", "mask", "dec", "comps", "size",
                 "genus_zero")

    def __init__(self, f, cyclic_set, source):
        self.f = f
        self.source_mask = mask = cyclic_set.mask
        is_aut = isinstance(f, Aut)
        graph = f.graph if is_aut else f.source
        if cyclic_set.graph != graph:
            raise InputError("cyclic set lives over a different graph")
        if is_aut:
            self.graph, self.mask = graph, f.act_mask(mask)
        else:
            self.graph, self.mask = f.target, f.push_mask(mask)
        if source.mask != mask or source.graph != graph:
            raise VerificationError(
                "a carry was given the decomposition of another cyclic set",
                self.witnesses())
        try:
            dec = pbar_decompose(self.graph, EdgeSet(self.graph, self.mask))
        except DomainError as exc:
            raise VerificationError(
                "pushforward of a cyclic set is not cyclic",
                self.witnesses()) from exc
        # one pass over the source vertices: the image component of each
        # source component, and whether one source component meets two
        # image components (split) or two meet one (shared)
        vertex_map, at, image_of = (f.vertex_map, self.graph.vertex_index,
                                    dec.component)
        comps = [-1] * len(source.genera)
        hit = [-1] * len(dec.genera)
        split = shared = False
        for v, i in zip(source.graph.vertices, source.component):
            j = image_of[at[vertex_map[v]]]
            c = comps[i]
            if c < 0:
                comps[i] = j
            elif c != j:
                split = True
            h = hit[j]
            if h < 0:
                hit[j] = i
            elif h != i:
                shared = True
        if split or is_aut and (shared or any(
                dec.genera[j] != g for j, g in zip(comps, source.genera))):
            self._reject(source, dec, is_aut)
        self.dec, self.comps = dec, tuple(comps)
        self.size = len(dec)
        self.genus_zero = tuple(j for j, g in enumerate(dec.genera) if g == 0)

    def _reject(self, source, dec, is_aut):
        """Raise for the first source component, in order, that ``f``
        does not carry as it must: an automorphism onto a component of
        the image of the same genus, a contraction into one component."""
        vertex_map, at = self.f.vertex_map, self.graph.vertex_index
        targets = dec.vertex_sets
        for i, vs in enumerate(source.vertex_sets):
            image = {vertex_map[v] for v in vs}
            j = dec.component[at[min(image)]]
            if is_aut:
                if image != targets[j]:
                    raise VerificationError(
                        f"automorphism maps component {i} of the opened "
                        f"graph onto no component of its image",
                        self.witnesses())
                if dec.genera[j] != source.genera[i]:
                    raise VerificationError(
                        f"automorphism changes the genus of component {i} "
                        f"of the opened graph from {source.genera[i]} to "
                        f"{dec.genera[j]}", self.witnesses())
            elif not image <= targets[j]:
                raise VerificationError(
                    f"component {i} of the opened graph does not map into "
                    f"one component of the pushed decomposition",
                    self.witnesses())

    def witnesses(self):
        f = self.f
        if isinstance(f, Aut):
            return (canonical_key(f.graph), f"P={self.source_mask:x}",
                    f"image={self.mask:x}")
        return (canonical_key(f.source), f"P={self.source_mask:x}",
                f"F={f.contracted.hex()}")

    def fold(self, signs):
        """The image of a sign vector over the source set, a sign vector
        over ``mask``: each sign is added into the image of its
        component, which keeps the parity of the sign sum.  Every sign on
        a genus-0 image component must vanish."""
        out = [0] * self.size
        for j, s in zip(self.comps, signs):
            out[j] ^= s
        for j in self.genus_zero:
            if out[j]:
                raise VerificationError(
                    f"carried sign is nonzero on the genus-0 component {j}",
                    self.witnesses())
        return tuple(out)

    def image(self, spin):
        """The image of ``spin``, a spin structure over the source set,
        as a spin structure; its stored parity must be preserved.  The
        fold has checked the image signs against ``dec``, so the
        structure is built over it unchecked
        (:meth:`~spinmod.spin.SpinStructure.over`)."""
        signs = self.fold(spin.signs)
        if sum(signs) & 1 != spin.parity:
            raise VerificationError(
                f"carrying a spin structure changed the parity from "
                f"{spin.parity} to {sum(signs) & 1}", self.witnesses())
        return SpinStructure.over(EdgeSet(self.graph, self.mask), self.dec,
                                  signs)


# -- canonical keys ---------------------------------------------------------

def _hashed(h, parts):
    """``h`` updated with each part's ``repr`` and a ``|`` after it."""
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"|")
    return h


def _digest(parts):
    return _hashed(hashlib.sha256(), parts).hexdigest()


def _certificate_hash(graph):
    """The hash state after the graph's certificate, as :func:`_digest`
    hashes its first part.  Computed on the graph's first key request
    and kept beside the labelling in the canonical-form memo, so each
    graph's certificate is serialised and hashed once however many keys
    read it; callers that extend it take a copy."""
    memo = graph.__dict__.get("_canonical_form")
    if memo is None:
        canonical_form(graph)
        memo = graph.__dict__["_canonical_form"]
    if memo.hash is None:
        memo.hash = _hashed(hashlib.sha256(), [memo.form[0]])
    return memo.hash


def _cyclic_encoding(graph, pos, mask):
    """A cyclic set, given by its mask, as edge multiplicities between
    canonical positions."""
    per_pair = defaultdict(int)
    for i in range(graph.n_edges):
        if mask >> i & 1:
            u, v = graph.edge_vertices(i)
            per_pair[(pos[u], pos[v]) if pos[u] <= pos[v]
                     else (pos[v], pos[u])] += 1
    return tuple(sorted(per_pair.items()))


def orbit_keys(graph, orbit_of):
    """Key of each cyclic orbit in a mask orbit table, by orbit index.

    ``orbit_of`` maps the mask of every member of the orbits to its orbit
    index, as :meth:`AutGroup.mask_orbits` returns it.  An orbit's key is
    the digest of the graph's certificate and the least
    :func:`_cyclic_encoding` among its members; each member is encoded
    once, and each key extends a copy of the certificate's hash state, so
    the certificate is not serialised again.  Encoding the image of a set
    as it is equals encoding the set through the automorphism, so this is
    the least encoding over the group.
    """
    _, pos = canonical_form(graph)
    best = {}
    for mask, k in orbit_of.items():
        code = _cyclic_encoding(graph, pos, mask)
        if k not in best or code < best[k]:
            best[k] = code
    base = _certificate_hash(graph)
    return [_hashed(base.copy(), [best[k]]).hexdigest()
            for k in range(len(best))]


def canonical_key(obj):
    """Deterministic iso-invariant key, as lowercase hex.

    Accepts a graph or a spin graph; spin keys agree exactly when the
    spin graphs are isomorphic (same underlying graph class, spin
    structures related by an isomorphism)."""
    if isinstance(obj, Graph):
        return _certificate_hash(obj).hexdigest()
    if isinstance(obj, SpinGraph):
        # deferred: the orbits module builds on this one
        from .orbits import spin_orbit, spin_orbit_keys
        return spin_orbit_keys(obj.graph, spin_orbit(obj.graph, obj.spin))[0]
    raise InputError(f"cannot key objects of type {type(obj).__name__}")


def cyclic_canonical_key(graph, cyclic_set):
    """Key of a (graph, cyclic set) pair up to isomorphism."""
    if not is_cyclic(graph, cyclic_set):
        raise DomainError("key requires a cyclic edge set")
    _, orbit_of, _, _ = automorphisms(graph).mask_orbits([cyclic_set.mask])
    return orbit_keys(graph, orbit_of)[0]


# -- order testing ----------------------------------------------------------

def _contractions_onto(ga, gb):
    """Each contraction of ``ga`` whose target lies in the class of
    ``gb``, as ``(c, c.onto(gb))``, over the edge subsets in canonical
    order.

    Only subsets of ``|E(ga)| - |E(gb)|`` edges, between graphs of one
    genus and leg count, are tried, and a subset is contracted only when
    its first Betti number is the drop from ``ga``'s to ``gb``'s, since
    contracting a set lowers b1 by exactly its own.  A target equal to
    ``gb`` (the same ids; only the subset whose dropped half-edges are
    exactly those missing from it can give one) is carried through the
    identity.  Any other is carried through an isomorphism read off the
    certificates, when it has the certificate of ``gb``; that
    certificate is computed only once such a candidate comes, and none
    is computed for a target whose sorted :func:`_vertex_invariants`
    differ from those of ``gb``, since its certificate would differ too.
    """
    if ga.genus != gb.genus or ga.n_legs != gb.n_legs:
        return
    k = ga.n_edges - gb.n_edges
    if k < 0:
        return
    drop = ga.b1 - gb.b1
    cert_b = invariants_b = None
    for subset in combinations(range(ga.n_edges), k):
        edges = EdgeSet.from_indices(ga, subset)
        if edges.b1 != drop:
            continue
        c = contract(ga, edges)
        if not (c.target.half_edges == gb.half_edges and c.target == gb):
            if invariants_b is None:
                invariants_b = sorted(_vertex_invariants(gb).values())
            if sorted(_vertex_invariants(c.target).values()) != invariants_b:
                continue
            if cert_b is None:
                cert_b, _ = canonical_form(gb)
            if canonical_form(c.target)[0] != cert_b:
                continue
        yield c, c.onto(gb)


def order_test(upper, lower):
    """Witness contraction showing ``upper >= lower`` in the spin-graph
    order, or ``None``.

    The candidates are the contractions of ``upper``'s graph onto the
    class of ``lower``'s, carried onto that graph, in canonical subset
    order (:func:`_contractions_onto`).  The first whose pushed structure
    lies in the orbit of ``lower``'s is the witness; that does not depend
    on the isomorphism carrying it.  Since the identity lies in every
    group, a structure pushed onto ``lower``'s own is a witness at once;
    the orbit is walked, at most once per call, only for a candidate that
    pushes somewhere else.
    """
    spin = upper.spin
    target = lower.spin.data()
    orbits = None
    for c, carried in _contractions_onto(upper.graph, lower.graph):
        carry = SpinCarry(carried, spin.P, spin.dec)
        pushed = (carry.mask, carry.fold(spin.signs))
        if pushed == target:
            return c
        if orbits is None:
            from .orbits import spin_orbit  # deferred, as in canonical_key
            orbits = spin_orbit(lower.graph, lower.spin)
        if orbits.orbit(*pushed) is not None:
            return c
    return None
