"""Isomorphism-free enumeration of stable graphs, cyclic pairs and spin
graphs of fixed genus and leg count, with their graded poset structure.

Enumeration seeds all 3-regular classes by degree-sequence backtracking,
one leg assignment per grouping of the legs, then closes downward under
single-edge contractions.  Within one assignment an isomorphism keeps
each leg, so it fixes every legged vertex: two candidates are isomorphic
exactly when a permutation of the leg-free vertices relates their edge
multisets.  So one candidate per relabelling orbit, the first met, is
built and keyed; the others are skipped before any graph exists.  An
independent direct generator (vertex counts, weights, leg placements,
multigraph fill) cross-checks the closure on small cases.  It visits
one (weights, legs) pair per orbit under vertex permutations: weights
in non-decreasing order, legs in restricted growth form within each
block of equal weight.  Its backtracking walk over the vertex pairs builds
only the edge multisets that leave every valence positive and connect
all vertices, once per (vertex count, edge count, valence base) in a
call; every survivor is built as a graph and checked for stability.

Covers are computed from two tables instead of keying every contracted
graph.  The contraction table holds, for each class and each orbit of
the class's automorphism group on edges, the orbit's least edge, the
key of the class its contraction lands in, and that contraction carried
onto the class's representative: its vertex and edge maps are composed
with the isomorphism read off the two canonical labellings.  Edges in
one orbit land in one class, and contracting ``a(e)`` equals contracting
``e`` after ``a^-1``, so a node's covers are pushed from every member of
its orbit through these contractions rather than from its
representative through every edge.  The downward closure fills the
table as it meets each class, and it is memoised on the class graph, so
the three posets share it.  The orbit tables map the data of every
structure over a class (cyclic mask, or mask and signs) to its orbit
among the class's nodes; they come out of the one orbit walk
(:func:`~spinmod.morphisms.orbit_walk`), which acts with one
automorphism per distinct action on vertices and edges (flipping a loop
moves no structure).  A structure's node is read from its own class's
table, and a cover's target is the orbit of the pushed structure's data
in the target class's table: no fresh graph, automorphism group or
group minimum per cover.  The walk also gives each node its stabilizer
(``PosetNode.stabilizer``).

The spin structures over a class fibre over its cyclic sets, with
``2^{c_+}`` sign vectors above each (:func:`~spinmod.spin.spin_fibres`),
and the spin kind keeps them as data: a spin structure is built only
for a node's representative.  Its orbit walk is fibred too
(:func:`~spinmod.orbits.spin_orbits`): the group walks the masks
once, only the stabilizer of each cyclic orbit's least mask walks the
sign vectors above it, and every other mask's table entries are folded
through one transporter.  Its node keys encode each mask once and zip
in the signs only over the masks whose encoding is the least in their
orbit (:func:`~spinmod.orbits.spin_orbit_keys`); the cyclic keys
encode each cyclic set once (:func:`orbit_keys`).  A spin cover push
carries each (cyclic set, contraction) pair once
(:class:`~spinmod.morphisms.SpinCarry`) and folds every sign vector
above the set through it; covers are pushed class by class and
deduplicated per node.  A poset keeps its covers once, as two flat
arrays the builder writes in node order: every node's sorted lower
ends, and the offsets where each node's run ends (:class:`Poset`).
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from itertools import combinations_with_replacement, permutations

from .cycles import enumerate_cyclic
from .errors import BudgetError, InputError, VerificationError
from .graphs import Graph, connected_classes, is_stable
from .morphisms import (SpinCarry, automorphisms, canonical_key, contract,
                        orbit_keys)
from .orbits import spin_orbit_keys, spin_orbits
from .spin import SpinGraph, SpinStructure, spin_fibres

BUDGET_ENV = "SPINMOD_BUDGET"


def max_rank(g, n):
    return 3 * g - 3 + n


def check_budget(g, n, budget_edges=None):
    """Desk-scale guard: leg-free graphs up to genus 4, legged up to
    genus 3, unless an explicit edge budget (argument or environment
    variable) says otherwise.  A negative genus or leg count is an input
    error.  An empty variable counts as unset; any other value that is
    not an integer, and any negative budget, is an input error."""
    for name, value in (("genus", g), ("leg count", n)):
        if value < 0:
            raise InputError(f"{name} {value} is negative")
    raw = os.environ.get(BUDGET_ENV)
    source = "edge budget"
    if budget_edges is None and raw:
        try:
            budget_edges = int(raw)
        except ValueError:
            raise InputError(f"{BUDGET_ENV}={raw!r} is not an integer "
                             f"edge count") from None
        source = BUDGET_ENV
    if budget_edges is not None:
        if budget_edges < 0:
            raise InputError(f"{source} {budget_edges} is negative")
        if max_rank(g, n) > budget_edges:
            raise BudgetError(
                f"enumeration at ({g},{n}) needs {max_rank(g, n)} edges, "
                f"budget allows {budget_edges}")
        return
    if (n == 0 and g > 4) or (n > 0 and g > 3):
        raise BudgetError(f"enumeration at ({g},{n}) exceeds the default "
                          f"desk-scale budget")


def _multigraphs_with_degrees(deg):
    """All edge multisets realizing the degree sequence, each exactly once
    (edges at the smallest open vertex are chosen with non-decreasing
    partners)."""
    k = len(deg)
    rem = list(deg)
    edges = []
    out = []

    def rec(cur, min_j):
        i = next((x for x in range(k) if rem[x] > 0), None)
        if i is None:
            out.append(list(edges))
            return
        lo = min_j if i == cur else i
        for j in range(lo, k):
            if j == i:
                if rem[i] < 2:
                    continue
                rem[i] -= 2
            else:
                if rem[i] < 1 or rem[j] < 1:
                    continue
                rem[i] -= 1
                rem[j] -= 1
            edges.append((i, j))
            rec(i, j)
            edges.pop()
            if j == i:
                rem[i] += 2
            else:
                rem[i] += 1
                rem[j] += 1

    rec(-1, 0)
    return out


def _leg_patterns(n, k):
    """The assignments of ``n`` legs to vertices ``0..k-1`` in restricted
    growth form, in lexicographic order: each leg goes to a vertex an
    earlier leg uses or to the next unused one.  Each is the least of the
    assignments that group the legs the same way."""
    assign = []

    def rec(used):
        if len(assign) == n:
            yield tuple(assign)
            return
        for v in range(min(used + 1, k)):
            assign.append(v)
            yield from rec(max(used, v + 1))
            assign.pop()

    return rec(0)


def three_regular_graphs(g, n):
    """All 3-regular classes: weightless, every vertex of total degree 3
    counting legs.

    Which legs share a vertex is an isomorphism invariant, so only one
    leg assignment per grouping is seeded: its restricted growth form,
    the least in the lexicographic order of all assignments.  Two
    patterns group the legs differently, so they share no class.  Within
    one pattern an isomorphism keeps each leg, so it fixes every legged
    vertex; two candidates are isomorphic exactly when a permutation of
    the leg-free vertices maps one edge multiset onto the other.

    So each pattern's candidates are walked in order, and a connected one
    that is not yet marked is kept: every relabelling of it under those
    permutations is marked, and only then is it built as a graph and
    keyed.  The marks are dropped when the pattern is done.  The first
    graph met per class is the one the full product of assignments would
    meet first.  Two kept candidates sharing a key is a
    :class:`VerificationError`: the relabelling orbits and the
    certificates check each other."""
    k = 2 * g - 2 + n
    if k <= 0:
        return []
    found = {}
    for assign in _leg_patterns(n, k):
        ell = Counter(assign)
        deg = [3 - ell.get(v, 0) for v in range(k)]
        if any(d < 0 for d in deg):
            continue
        free = [v for v in range(k) if v not in ell]
        marked = set()
        for edges in _multigraphs_with_degrees(deg):
            if _edge_code(k, edges) in marked:
                continue
            if len(connected_classes(range(k), edges)) != 1:
                continue
            marked.update(_edge_code(k, [(to[i], to[j]) for i, j in edges])
                          for to in _relabellings(k, free))
            graph = Graph.build([(v, 0) for v in range(k)], edges, assign)
            key = canonical_key(graph)
            if found.setdefault(key, graph) is not graph:
                raise VerificationError(
                    "two 3-regular seeds that no relabelling of the "
                    "leg-free vertices relates share a key",
                    (key, f"legs={assign}"))
    return [found[key] for key in sorted(found)]


def _relabellings(k, free):
    """Each map of ``0..k-1`` that permutes the vertices ``free`` and
    fixes the others, as a list; one list is updated in place and
    yielded for each map, so none is kept."""
    to = list(range(k))
    for image in permutations(free):
        for v, w in zip(free, image):
            to[v] = w
        yield to


def _edge_code(k, edges):
    """An edge multiset on vertices ``0..k-1`` as a sorted tuple of pair
    codes, equal for equal multisets however the pairs are listed or
    oriented."""
    return tuple(sorted(i * k + j if i <= j else j * k + i
                        for i, j in edges))


def enumerate_stable_graphs(g, n, budget_edges=None):
    """All stable classes of genus g with n legs, by downward closure of
    the 3-regular seeds under single-edge contractions.

    Returns representatives sorted by canonical key; empty when no stable
    graph exists.
    """
    check_budget(g, n, budget_edges)
    if 2 * g - 2 + n <= 0:
        return []
    reps = {canonical_key(s): s for s in three_regular_graphs(g, n)}
    frontier = list(reps.values())
    while frontier:
        fresh = []
        for graph in frontier:
            _edge_contractions(graph, reps, fresh)
        frontier = fresh
    return [reps[key] for key in sorted(reps)]


def _edge_contractions(graph, reps, fresh=None):
    """One entry per orbit of ``automorphisms(graph)`` on edges, in edge
    order: ``(e, key, c)``, where ``e`` is the orbit's least edge,
    ``key`` the key of the class its contraction lands in, and ``c`` that
    contraction carried onto the class representative ``reps[key]``
    (:meth:`Contraction.onto`).

    Edges in one orbit land in one class, and the contraction of
    ``a(e)`` is the one of ``e`` composed with ``a^-1`` up to an
    automorphism of the target, so no other edge of the orbit gets an
    entry: the poset builders push every member of a node's orbit
    through these instead.  A new class is met only at the least edge of
    an orbit, in edge order, as when every edge was contracted.  The
    group is capped like every group (:data:`AUT_HALF_EDGE_CAP`).

    Memoised per graph object in ``graph.__dict__``, so each (class,
    edge orbit) pair is contracted once however many posets read it; a
    memo whose targets are not the representatives in ``reps`` is
    rebuilt.  A target class missing from ``reps`` is a
    :class:`VerificationError`, unless ``fresh`` is a list: the downward
    closure then adds the contracted graph to ``reps`` and ``fresh`` as
    the representative of a new class.
    """
    table = graph.__dict__.get("_edge_contractions")
    if table is not None and all(reps.get(key) is c.target
                                 for _, key, c in table):
        return table
    table = []
    for orbit in automorphisms(graph).edge_orbits:
        e = orbit[0]
        c = contract(graph, [e])
        key = canonical_key(c.target)
        if key not in reps:
            if fresh is None:
                raise VerificationError(
                    "the target class of a cover is missing from the "
                    "classes", (canonical_key(graph), f"edge={e}", key))
            if not is_stable(c.target):
                raise VerificationError(
                    "contracting an edge of a stable graph gave an "
                    "unstable graph", (canonical_key(graph), f"edge={e}"))
            reps[key] = c.target
            fresh.append(c.target)
        table.append((e, key, c.onto(reps[key])))
    table = graph.__dict__["_edge_contractions"] = tuple(table)
    return table


def _valent_multisets(k, n_edges, base):
    """The edge multisets of ``n_edges`` pairs ``(i, j)``, ``i <= j``, on
    vertices ``0..k-1`` that make every valence ``base[v] + deg(v)``
    positive (a loop counts twice) and connect all vertices, each a tuple
    of pairs, in the order ``combinations_with_replacement`` yields them
    over the pairs listed lexicographically.

    A backtracking walk over non-decreasing pair indices builds only
    these.  It cuts a subtree when the summed deficit
    ``sum(max(0, 1 - val[v]))`` exceeds twice the edges left, since one
    edge lowers it by at most 2.  It also stops before the first pair
    whose first coordinate exceeds the least vertex of valence <= 0,
    since no later pair reaches a vertex below its first coordinate."""
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    # row_end[i]: the index after the last pair whose first coordinate is i
    row_end = [sum(k - u for u in range(i + 1)) for i in range(k)]
    val = list(base)
    edges = []
    out = []

    def rec(start, left, deficit):
        if deficit > 2 * left:
            return
        if not left:
            if len(connected_classes(range(k), edges)) == 1:
                out.append(tuple(edges))
            return
        low = next((v for v in range(k) if val[v] <= 0), k - 1)
        for p in range(start, row_end[low]):
            u, v = pair = pairs[p]
            drop = (val[u] <= 0) + (val[v] + (u == v) <= 0)
            val[u] += 1
            val[v] += 1
            edges.append(pair)
            rec(p, left - 1, deficit - drop)
            edges.pop()
            val[u] -= 1
            val[v] -= 1

    rec(0, n_edges, sum(max(0, 1 - x) for x in val))
    return out


def _placement_orbits(n, weights):
    """The placements of ``n`` legs on vertices of non-decreasing
    ``weights``, one per orbit under the vertex permutations that keep
    weights, in lexicographic order.

    Within each block of equal weight the legs go in restricted growth
    form: a leg goes to a vertex of the block that holds a leg already,
    or to the first one that holds none.  So the vertices of a block
    holding legs are ordered by their least leg, and those holding none
    come last; the multiset of (weight, legs at v), which fixes the
    orbit, fixes the placement."""
    k = len(weights)
    held = [0] * k
    assign = []

    def rec():
        if len(assign) == n:
            yield tuple(assign)
            return
        for v in range(k):
            if v and weights[v - 1] == weights[v] and not held[v - 1]:
                continue
            held[v] += 1
            assign.append(v)
            yield from rec()
            assign.pop()
            held[v] -= 1

    return rec()


def stable_graphs_direct(g, n, budget_edges=None):
    """Independent generator: all vertex counts, weights, leg placements
    and edge multisets, filtered by stability.  Exponential; used to
    cross-check the closure on the smallest cases.

    Relabelling the vertices of a graph, weights and legs along with
    them, gives an isomorphic graph.  So it suffices to visit one
    (weights, legs) pair per orbit under vertex permutations: the
    weights in non-decreasing order, and the placements of
    :func:`_placement_orbits`, in restricted growth form within each
    block of equal weight.  That walk is its own, not the seeds'
    :func:`_leg_patterns`, so the generator stays independent of the
    closure.

    The edge multisets come from :func:`_valent_multisets`, which walks
    only those that make every valence ``2w(v) - 2 + deg(v) + ell(v)``
    positive and connect all vertices.  They depend only on the vertex
    count, the edge count and the valence base ``2w(v) - 2 + ell(v)``,
    so each such pattern is walked once per call.  Every survivor is built
    as a graph, :func:`is_stable` still decides on it, and a stable one
    is keyed; the graph is not kept.  Returns the sorted canonical keys
    of the classes found."""
    check_budget(g, n, budget_edges)
    if 2 * g - 2 + n <= 0:
        return []
    found = set()
    survivors = {}
    for k in range(1, 2 * g - 2 + n + 1):
        for weights in combinations_with_replacement(range(g + 1), k):
            total = sum(weights)
            if total > g:
                continue
            n_edges = g - total + k - 1
            for legs in _placement_orbits(n, weights):
                base = [2 * w - 2 for w in weights]
                for v in legs:
                    base[v] += 1
                pattern = (k, n_edges, tuple(base))
                if pattern not in survivors:
                    survivors[pattern] = _valent_multisets(*pattern)
                for edges in survivors[pattern]:
                    graph = Graph.build(list(enumerate(weights)), edges, legs)
                    if is_stable(graph):
                        found.add(canonical_key(graph))
    return sorted(found)


class PosetNode:
    """One isomorphism class in a moduli poset.  ``stabilizer`` holds
    the action classes fixing the representative, as the orbit walk
    returns them (``None`` on the graph poset); JSON omits it."""

    __slots__ = ("key", "rank", "rep", "parity", "stabilizer")

    def __init__(self, key, rank, rep, parity=None, stabilizer=None):
        self.key = key
        self.rank = rank
        self.rep = rep
        self.parity = parity
        self.stabilizer = stabilizer

    def __repr__(self):
        tag = "" if self.parity is None else f", parity={self.parity}"
        return f"PosetNode(rank={self.rank}{tag}, key={self.key[:8]})"


class Poset:
    """Graded poset with covers between consecutive ranks.

    The covers are kept once, as two flat arrays: ``lowers`` holds the
    lower ends of every node's covers, node by node, each node's in
    index order, and ``offsets`` the running end of each node's run, so
    node ``u`` covers ``lowers[offsets[u]:offsets[u + 1]]`` and the
    poset has ``len(lowers)`` covers.  There is no key index: a caller
    that looks nodes up by key builds its own map.

    ``walk`` holds the orbit walk's counts when the poset was built over
    automorphism orbits (cyclic and spin kinds), else ``None``:
    ``group_actions``, the distinct actions on vertices and edges summed
    over the classes; ``orbit_images``, the images the walk computed: on
    the cyclic poset one mask per (orbit, action), on the spin poset
    the same mask images plus one sign vector per (spin orbit, action
    of its cyclic set's stabilizer) and per sign vector folded through a
    transporter; ``orbit_entries``, the entries of the orbit tables
    (every structure over the classes); ``decompositions``, the
    decompositions memoised on the classes when the build ended;
    ``carries``, the :class:`~spinmod.morphisms.SpinCarry` objects its
    orbit walks and cover pushes built; and, on the spin poset only,
    ``single_structure_fibres``, the cyclic orbits with one structure
    above each mask (``c_+ = 0``), which no sign walk visits."""

    def __init__(self, kind, g, n, nodes, offsets, lowers, walk=None):
        self.kind = kind
        self.walk = walk
        self.g = g
        self.n = n
        self.nodes = tuple(nodes)
        self.offsets = offsets
        self.lowers = lowers

    def lower(self, u):
        """The nodes that node ``u`` covers, in index order."""
        return self.lowers[self.offsets[u]:self.offsets[u + 1]]

    def covers(self):
        """Each cover as an ``(upper, lower)`` index pair, in sorted
        order."""
        for u in range(len(self.nodes)):
            for l in self.lower(u):
                yield u, l

    def descendants(self, i):
        """Everything reachable downward from node i, including i."""
        seen = {i}
        stack = [i]
        while stack:
            x = stack.pop()
            for y in self.lower(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def leq(self, i, j):
        """True when node j lies below node i in the order."""
        return j in self.descendants(i)

    def reaches_top(self):
        """For each node, whether it lies below some node of the top rank
        ``3g-3+n``, from one pass over the covers.

        The upper ends of the covers are visited from the highest rank
        down, whatever the node order, so each node is marked before the
        nodes it covers are read.  That needs every cover to descend in
        rank, as :func:`poset_stats` checks.
        """
        top = max_rank(self.g, self.n)
        ranks = [node.rank for node in self.nodes]
        reaches = [rank == top for rank in ranks]
        for u in sorted(range(len(ranks)), key=ranks.__getitem__,
                        reverse=True):
            if reaches[u]:
                for l in self.lower(u):
                    reaches[l] = True
        return reaches

    def components(self):
        """The connected components, as sorted lists of node indices,
        ordered by their least node; the covers are read straight from
        ``offsets`` and ``lowers``."""
        offsets, lowers = self.offsets, self.lowers
        return connected_classes(range(len(self.nodes)), (
            (u, lowers[i]) for u in range(len(self.nodes))
            for i in range(offsets[u], offsets[u + 1])))

    def rank_histogram(self):
        hist = Counter(node.rank for node in self.nodes)
        return {r: hist[r] for r in sorted(hist)}

    def to_json_dict(self):
        """The poset as JSON: each node's key, rank, parity (spin nodes
        only) and representative, and the covers as ``[upper, lower]``
        index pairs."""
        nodes = []
        for node in self.nodes:
            entry = {"key": node.key, "rank": node.rank}
            if node.parity is not None:
                entry["parity"] = node.parity
            entry.update(_rep_json(self.kind, node.rep))
            nodes.append(entry)
        return {"kind": self.kind, "g": self.g, "n": self.n,
                "nodes": nodes,
                "covers": [[u, l] for u, l in self.covers()]}

    def to_dot(self):
        lines = [f"digraph {self.kind}_poset {{", "  rankdir=BT;"]
        for i, node in enumerate(self.nodes):
            color = {0: "blue", 1: "red", None: "black"}[node.parity]
            lines.append(
                f'  n{i} [label="r{node.rank}\\n{node.key[:8]}", '
                f'color={color}];')
        for u, l in self.covers():
            lines.append(f"  n{l} -> n{u};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _rep_json(kind, rep):
    if kind == "graphs":
        return {"graph": rep.to_json_dict()}
    if kind == "cyclic":
        graph, cyc = rep
        return {"graph": graph.to_json_dict(), "P": cyc.hex()}
    return {"graph": rep.graph.to_json_dict(),
            "spin": rep.spin.to_json_dict()}


def _build_poset(kind, g, n, budget_edges, classes, orbits, push,
                 walk=None):
    """The graded poset of one kind: a node per orbit representative over
    each class, sorted by (rank, key), and a cover per single-edge
    contraction of each node's structure.

    The kind supplies two functions.  ``orbits(graph, rank, walk)``
    walks the automorphism orbits of the structures over one class and
    returns ``(here, table, structures)``: the class's nodes, one per
    orbit, each with its key, representative, parity and stabilizer; its
    orbit table, from structure data to orbit index; and its structures,
    as the kind lists them.  It adds its counts to ``walk``.
    ``push(class_key, structures, table, here, contractions, below,
    walk)`` returns, per node of the class, the indices of the nodes its
    covers land on; ``below`` maps each class key one rank down to its
    orbit table and node indices.

    Covers are looked up, not keyed: every contraction lands on its
    target class's representative, so the pushed data indexes that
    class's orbit table directly.  The contraction table holds one
    contraction ``c_e0`` per orbit of the class's group on edges, at its
    least edge ``e0`` (:func:`_edge_contractions`), and the covers of a
    node are pushed from every member of its orbit instead.  That gives
    the same covers: for ``e = a(e0)``, a contraction of ``e`` onto the
    target representative is ``c_e0 o a^-1`` up to an automorphism of
    the target, since any two contractions of one edge onto one graph
    differ by one.  So pushing ``x`` along ``e`` and pushing ``a^-1 x``
    along ``e0`` land in the same target orbit, and as ``a`` runs over
    the group, ``a^-1 x`` runs over the orbit of ``x``.  The covers of
    the node of ``x`` are thus the target orbits of ``c_e0`` applied to
    each member ``y`` of that orbit.  The node of ``y`` is read from its
    own class's orbit table, which holds the data of every structure
    over the class because the structures are closed under the group
    and the walk reaches every image of each representative; a structure
    missing from it, or a pushed one missing from its target's, is a
    :class:`VerificationError`.  No push walks a boundary again: each
    cyclic set's cyclicity is established once, when its class's cycle
    space is enumerated (cyclic kind) or its decomposition is built (spin
    kind).  A pushed mask is proven by the target's orbit table
    (:func:`_cyclic_push`) or by its decomposition on the target, which
    the target's fibres memoised a rank earlier, so the carry finds it
    and walks nothing (:func:`_spin_push`).  The two kinds share no push,
    so the spin covers stay an independent check on the cyclic ones.

    The classes are taken rank by rank, upward.  A rank's nodes follow
    every node of lower rank, so their indices are known once its
    classes are walked and its nodes sorted by key; two of them sharing
    a key is an error (nodes of different ranks cannot share one, since
    a key digests the graph's certificate).  Its covers land one rank
    lower, so each rank's orbit tables are dropped once the rank above
    has pushed its covers.  They are pushed class by class and
    deduplicated per node; once the rank is pushed, each node's sorted
    lower ends are appended to the flat ``lowers`` array, node by node,
    and the running end to ``offsets`` (:class:`Poset`), so the covers
    are stored in node order with no pairs built.  ``walk`` holds the
    counts of the orbit walks and pushes (:attr:`Poset.walk`), ``None``
    for the graph poset.
    """
    if classes is None:
        classes = enumerate_stable_graphs(g, n, budget_edges)
    reps = {}
    by_rank = {}
    for graph in classes:
        class_key = canonical_key(graph)
        reps[class_key] = graph
        by_rank.setdefault(graph.n_edges, []).append((class_key, graph))
    nodes = []
    offsets = array("q", [0])
    lowers = array("q")
    below = {}  # class key one rank down -> (orbit table, node indices)
    for rank in sorted(by_rank):
        level = []
        walked = []
        for class_key, graph in by_rank[rank]:
            here, table, structures = orbits(graph, rank, walk)
            walked.append((class_key, graph, table, structures, here))
            level += here
        level.sort(key=lambda nd: nd.key)
        first = len(nodes)
        index = {}
        for i, nd in enumerate(level, first):
            if index.setdefault(nd.key, i) != i:
                raise VerificationError(
                    "two orbit representatives share a key", (nd.key,))
        nodes += level
        lower = [()] * len(level)
        for class_key, graph, table, structures, here in walked:
            found = push(class_key, structures, table, here,
                         _edge_contractions(graph, reps), below, walk)
            for nd, targets in zip(here, found):
                lower[index[nd.key] - first] = tuple(sorted(targets))
        for ends in lower:
            lowers.extend(ends)
            offsets.append(len(lowers))
        below = {class_key: (table, [index[nd.key] for nd in here])
                 for class_key, _, table, _, here in walked}
    if walk is not None:
        walk["decompositions"] = sum(
            len(graph.__dict__.get("_pbar_decompositions", ()))
            for graph in classes)
    return Poset(kind, g, n, nodes, offsets, lowers, walk)


def _missing(class_key, structure):
    return VerificationError(
        "a structure is missing from the orbit table of its own class",
        (class_key, repr(structure)))


def _missing_target(node_key, e, target_key):
    return VerificationError(
        "a pushed structure is missing from the orbit table of its target "
        "class", (node_key, f"edge={e}", target_key))


def _graph_orbits(graph, rank, walk):
    return [PosetNode(canonical_key(graph), rank, graph)], None, None


def _graph_push(class_key, structures, table, here, contractions, below,
                walk):
    return [{below[target_key][1][0] for _, target_key, _ in contractions}]


def build_graph_poset(g, n, budget_edges=None, _classes=None):
    return _build_poset("graphs", g, n, budget_edges, _classes,
                        _graph_orbits, _graph_push)


# the counts every orbit walk records (Poset.walk)
_WALK_COUNTS = ("group_actions", "orbit_images", "orbit_entries",
                "decompositions", "carries")


def _cyclic_orbits(graph, rank, walk):
    """The cyclic nodes of one class, from one walk of its group over the
    masks of its cyclic sets
    (:meth:`~spinmod.morphisms.AutGroup.mask_orbits`), keyed off the mask
    table; each representative mask is read back as its set in the
    memoised cycle space."""
    cyclic = enumerate_cyclic(graph)
    at = {p.mask: p for p in cyclic}
    group = automorphisms(graph)
    reps, orbit_of, stabilizers, _ = group.mask_orbits(at)
    actions = len(group.actions)
    walk["group_actions"] += actions
    walk["orbit_images"] += actions * len(reps)
    walk["orbit_entries"] += len(orbit_of)
    keys = orbit_keys(graph, orbit_of)
    here = [PosetNode(key, rank, (graph, at[mask]), None, stabilizer)
            for mask, key, stabilizer in zip(reps, keys, stabilizers,
                                             strict=True)]
    return here, orbit_of, cyclic


def _cyclic_push(class_key, cyclic, orbit_of, here, contractions, below,
                 walk):
    """The covers of one class's cyclic nodes: each cyclic set's mask is
    pushed through each contraction unchecked
    (:meth:`~spinmod.morphisms.Contraction.push_mask`).  The sets come
    from the class's checked cycle space, and the target's orbit table
    holds exactly the target's checked cyclic sets, so the lookup of the
    image there is its check: a miss is :func:`_missing_target`."""
    found = [set() for _ in here]
    for p in cyclic:
        k = orbit_of.get(p.mask)
        if k is None:
            raise _missing(class_key, p)
        for e, target_key, c in contractions:
            target_orbit_of, target_nodes = below[target_key]
            t = target_orbit_of.get(c.push_mask(p.mask))
            if t is None:
                raise _missing_target(here[k].key, e, target_key)
            found[k].add(target_nodes[t])
    return found


def build_cyclic_poset(g, n, budget_edges=None, _classes=None):
    return _build_poset("cyclic", g, n, budget_edges, _classes,
                        _cyclic_orbits, _cyclic_push,
                        dict.fromkeys(_WALK_COUNTS, 0))


def _spin_orbits(graph, rank, walk):
    """The spin nodes of one class, from the fibred walk of its group
    (:func:`~spinmod.orbits.spin_orbits`) over its spin structures as
    data (:func:`~spinmod.spin.spin_fibres`); a spin structure is built
    for each node's representative only.  The orbit table maps each
    mask to the orbit index of each sign vector above it."""
    fibres = spin_fibres(graph)
    group = automorphisms(graph)
    walked = spin_orbits(group, fibres)
    walk["group_actions"] += len(group.actions)
    walk["orbit_images"] += walked.images
    walk["orbit_entries"] += walked.entries()
    walk["carries"] += walked.carries
    walk["single_structure_fibres"] += walked.single
    here = [PosetNode(key, rank, SpinGraph(graph, spin), spin.parity,
                      stabilizer)
            for spin, key, stabilizer in zip(
                walked.representatives(), spin_orbit_keys(graph, walked),
                walked.stabilizers, strict=True)]
    return here, walked.table, fibres


def _spin_push(class_key, fibres, table, here, contractions, below, walk):
    """The covers of one class's spin nodes: each cyclic set is carried
    through each contraction once (:class:`~spinmod.morphisms.SpinCarry`)
    and every sign vector above it is folded through that carry.  Each
    set comes with its own decomposition, which proves it cyclic, and
    the carry proves the image by its decomposition on the target class's
    representative, memoised when that class's fibres were listed a rank
    earlier; so a carry walks no boundary.  An image without one would
    be decomposed, walking its boundary once, and one that is not cyclic
    fails the carry."""
    found = [set() for _ in here]
    for p, dec, signs in fibres:
        own = table.get(p.mask, {})
        ks = [own.get(s) for s in signs]
        if None in ks:
            raise _missing(class_key, SpinStructure.over(
                p, dec, signs[ks.index(None)]))
        for e, target_key, c in contractions:
            carry = SpinCarry(c, p, dec)
            walk["carries"] += 1
            target_table, target_nodes = below[target_key]
            fibre = target_table.get(carry.mask, {})
            for image, k in zip(map(carry.fold, signs), ks):
                t = fibre.get(image)
                if t is None:
                    raise _missing_target(here[k].key, e, target_key)
                found[k].add(target_nodes[t])
    return found


def build_spin_poset(g, n, budget_edges=None, _classes=None):
    return _build_poset("spin", g, n, budget_edges, _classes,
                        _spin_orbits, _spin_push,
                        dict.fromkeys(_WALK_COUNTS
                                      + ("single_structure_fibres",), 0))


def poset_stats(poset):
    """Connectivity, gradedness, rank histogram and minimum checks.

    For spin posets: two components matching the parity classes when the
    genus is positive, one otherwise, each containing its unique rank-0
    node.  Raises :class:`VerificationError` with a witness on any
    violated claim.  A passing report is memoised on the poset object,
    so each poset is checked once; a failing one raises on every call.
    """
    cached = poset.__dict__.get("_stats")
    if cached is not None:
        return cached
    comps = poset.components()
    hist = poset.rank_histogram()

    for u, l in poset.covers():
        if poset.nodes[u].rank != poset.nodes[l].rank + 1:
            raise VerificationError(
                "cover between non-consecutive ranks",
                (poset.nodes[u].key, poset.nodes[l].key))
    if poset.nodes:
        ranks = sorted(hist)
        if ranks[0] != 0 or ranks[-1] != max_rank(poset.g, poset.n):
            raise VerificationError(
                f"rank range {ranks[0]}..{ranks[-1]} differs from "
                f"0..{max_rank(poset.g, poset.n)}",
                tuple(next(nd.key for nd in poset.nodes if nd.rank == r)
                      for r in (ranks[0], ranks[-1])))

    report = {"kind": poset.kind, "g": poset.g, "n": poset.n,
              "nodes": len(poset.nodes), "covers": len(poset.lowers),
              "components": len(comps), "graded": True,
              "rank_histogram": hist}

    if poset.kind == "spin":
        expected = 2 if poset.g > 0 else 1
        if len(comps) != expected:
            raise VerificationError(
                f"spin poset has {len(comps)} components, expected "
                f"{expected}", tuple(poset.nodes[c[0]].key for c in comps))
        parities = []
        for comp in comps:
            pset = {poset.nodes[i].parity for i in comp}
            if len(pset) != 1:
                raise VerificationError(
                    "component mixes parities",
                    tuple(poset.nodes[i].key for i in comp[:2]))
            parities.append(pset.pop())
            mins = [i for i in comp if poset.nodes[i].rank == 0]
            if len(mins) != 1:
                raise VerificationError(
                    f"component has {len(mins)} rank-0 nodes",
                    tuple(poset.nodes[i].key for i in comp[:2]))
            bottom = poset.nodes[mins[0]].rep
            if bottom.graph.n_edges or bottom.spin.P.mask:
                raise VerificationError(
                    "rank-0 node is not the edgeless spin graph",
                    (poset.nodes[mins[0]].key,))
        report["per_parity_components"] = sorted(
            (p, 1) for p in parities) if poset.g > 0 else [(0, 1)]
        report["parity_split"] = {
            p: sum(1 for nd in poset.nodes if nd.parity == p)
            for p in (0, 1)}
    else:
        if len(comps) != 1:
            raise VerificationError(
                f"{poset.kind} poset is disconnected "
                f"({len(comps)} components)",
                tuple(poset.nodes[c[0]].key for c in comps))
    poset.__dict__["_stats"] = report
    return report
