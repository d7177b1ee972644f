"""Test oracles: the automorphism group as a list of elements, each a
map on vertices and half-edges, found by a backtracking search over
vertex bijections and extended to every half-edge map, loop flips
included; the orbit walk that acts with every element, the walk of
the whole group over every spin structure (one image per structure
orbit and action class, through a carry kept per (map, cyclic set)),
which the package's walk fibred over the cyclic sets must reproduce, the
stabilizer of a spin structure filtered from the whole group one image
at a time,
and the component-wise subgroup and induced quotient action counted
element by element; the canonical-form search with the initial colors and the
certificate read through the graph's per-vertex and per-edge accessors,
the opened graph's components grouped by a union-find of
their own, the opened graph itself built by removing the edges outside a
cyclic set through the validating constructor, spin structures acted on
one image at a time, the unique refinement lift found by keying every
structure, the 3-regular seeding that tries every leg assignment, the
fuzz chains run in draw order, the order test that contracts every edge
subset of the right size and walks the lower orbit up front, purity
read off the full face closure, the direct generator's scan through
every edge multiset, every weight composition times every leg
placement, grouped by orbit, and the contraction whose target goes
through the validating constructor and whose edge map is read off the
target's edge indexing.

The package holds a group as one action class per distinct action on
vertices and edges times the number of loop flips, walks orbits with
the classes, reads the group's vertex maps off the leaves of the
canonical-form search that have the best certificate, reads the
initial colors in one pass over the edges and legs, keeps a
decomposition as one component index per vertex and reads theta
divisors and stratum rows off it and one pass over the edges, carries
each (map, cyclic set) component map once and folds sign vectors through
it, looks refinement lifts up in one orbit table, pushing every
structure once per split, seeds 3-regular classes once per leg pattern, runs the fuzz chains class by class,
contracting each distinct (graph, edge set) once, contracts only the
edge subsets
whose first Betti number is the drop in b1, carries a candidate equal
to the lower graph through the identity and walks the lower orbit only
for a candidate that needs it, checks purity in one pass over the
covers, walks only the edge multisets that leave no vertex of
non-positive valence, visits one leg placement per orbit under
vertex permutations, and derives a contraction's target from its
source's validated data, numbering the kept edges as it filters them.
These are the definitions those routines must reproduce exactly.
"""

import functools
import random
from collections import Counter, defaultdict
from functools import cached_property
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

from spinmod.cycles import EdgeSet, boundary, enumerate_cyclic, pbar_decompose
from spinmod.errors import VerificationError
from spinmod.graphs import Graph, _check_edge_subset, connected_classes
from spinmod.morphisms import (Aut, Contraction, SpinCarry, _neighbor_lists,
                               _refine_colors, automorphisms, canonical_form,
                               canonical_key, contract, orbit_walk,
                               push_cycle, push_vertex_set)
from spinmod.posets import _multigraphs_with_degrees, max_rank
from spinmod.spin import SpinGraph, SpinStructure, enumerate_spin

import key_oracle


class Element(Aut):
    """One automorphism: its action class (vertex map and edge
    permutation, read off the half-edge map) and its map on half-edges,
    which tells the two ends of a loop apart."""

    __slots__ = ("half_map",)

    def __init__(self, graph, vertex_map, half_map):
        idx = {pair: i for i, pair in enumerate(graph.edges)}
        super().__init__(graph, vertex_map, tuple(
            idx[tuple(sorted((half_map[h], half_map[k])))]
            for h, k in graph.edges))
        self.half_map = half_map


class ElementGroup:
    """An automorphism group as the tuple of its elements, in group
    order."""

    def __init__(self, graph, elements):
        self.graph = graph
        self.elements = tuple(elements)

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def action_classes(self):
        """``(actions, class_of)``: the first element, in group order, of
        each class of elements with the same vertex map and edge
        permutation, and each element's class index."""
        vertices = sorted(self.graph.vertices)
        index = {}
        actions = []
        class_of = []
        for a in self.elements:
            k = index.setdefault(
                (tuple(map(a.vertex_map.get, vertices)), a.edge_perm),
                len(actions))
            if k == len(actions):
                actions.append(a)
            class_of.append(k)
        return tuple(actions), tuple(class_of)

    def subgroup(self, classes):
        """The elements whose action class is one of ``classes``, in
        group order."""
        keep = set(classes)
        _, class_of = self.action_classes
        return ElementGroup(self.graph, [
            a for a, c in zip(self.elements, class_of) if c in keep])


@functools.cache
def element_group(graph):
    """The automorphism group of ``graph`` element by element, in the
    order of :func:`group_elements`; memoised per graph value."""
    return ElementGroup(graph, [Element(graph, vmap, half_map)
                                for vmap, half_map in group_elements(graph)])


def orbit_representatives(group, items, data, act):
    """The orbit walk over every element of ``group``, in group order:
    the first item met from each orbit, the table from the data of every
    image to its orbit index, and each representative's stabilizer as
    the elements, in group order, whose image equals it."""
    orbit_of = {}
    reps = []
    stabilizers = []
    for item in items:
        here = data(item)
        if here in orbit_of:
            continue
        k = len(reps)
        reps.append(item)
        fixing = []
        for a in group.elements:
            image = act(a, item)
            orbit_of[image] = k
            if image == here:
                fixing.append(a)
        stabilizers.append(ElementGroup(group.graph, fixing))
    return reps, orbit_of, stabilizers


def vertex_bijections(graph, colors):
    mult = graph.multiplicity

    def m(u, v):
        return mult.get((u, v) if u <= v else (v, u), 0)

    verts = sorted(graph.vertices, key=lambda v: (colors[v], v))
    candidates = {v: sorted(u for u in graph.vertices
                            if colors[u] == colors[v]) for v in verts}
    mapping = {}
    used = set()
    out = []

    def bt(i):
        if i == len(verts):
            out.append(dict(mapping))
            return
        v = verts[i]
        for u in candidates[v]:
            if u in used:
                continue
            if any(m(v, t) != m(u, mapping[t]) for t in mapping):
                continue
            mapping[v] = u
            used.add(u)
            bt(i + 1)
            del mapping[v]
            used.discard(u)

    bt(0)
    return out


def half_edge_extensions(graph, vmap):
    """All half-edge maps extending a compatible vertex bijection: the
    edges between each vertex pair go, in every order, onto those
    between its image pair, each end onto the end at the image of its
    vertex, and each loop goes onto its image either way round.  Pairs of
    distinct vertices vary first, in sorted order, then the loops of each
    vertex, and the flips of a vertex's loops vary fastest."""
    edges_by_pair = defaultdict(list)
    loops_by_vertex = defaultdict(list)
    for i in range(graph.n_edges):
        u, v = graph.edge_vertices(i)
        if u == v:
            loops_by_vertex[u].append(i)
        else:
            edges_by_pair[(u, v)].append(i)

    groups = []
    for (u, v), es in sorted(edges_by_pair.items()):
        iu, iv = vmap[u], vmap[v]
        targets = edges_by_pair[(iu, iv) if iu <= iv else (iv, iu)]
        options = []
        for perm in permutations(targets):
            frag = {}
            for e_idx, f_idx in zip(es, perm):
                h, k = graph.edges[e_idx]
                a, b = graph.edges[f_idx]
                if graph.endpoint[a] == vmap[graph.endpoint[h]]:
                    frag[h], frag[k] = a, b
                else:
                    frag[h], frag[k] = b, a
            options.append(frag)
        groups.append(options)
    for v, ls in sorted(loops_by_vertex.items()):
        targets = loops_by_vertex[vmap[v]]
        options = []
        for perm in permutations(targets):
            for flips in product((0, 1), repeat=len(ls)):
                frag = {}
                for l_idx, f_idx, flip in zip(ls, perm, flips):
                    h, k = graph.edges[l_idx]
                    a, b = graph.edges[f_idx]
                    frag[h], frag[k] = (b, a) if flip else (a, b)
                options.append(frag)
        groups.append(options)

    for combo in product(*groups):
        half_map = {h: h for h in graph.legs}
        for frag in combo:
            half_map.update(frag)
        yield half_map


def group_elements(graph):
    """The automorphism group as ``(vertex map, half-edge map)`` pairs:
    every vertex bijection that keeps the refined colors and the edge
    multiplicities, found by backtracking over the vertices sorted by
    (color, vertex), each extended to every compatible half-edge map."""
    colors = _refine_colors(graph, initial_colors(graph),
                            _neighbor_lists(graph))
    return [(vmap, half_map) for vmap in vertex_bijections(graph, colors)
            for half_map in half_edge_extensions(graph, vmap)]


def initial_colors(graph):
    """Each vertex's rank among the distinct ``(weight, degree, loops,
    leg positions)``, each read by the graph's own accessor, vertex by
    vertex."""
    raw = {v: (graph.w(v), graph.deg(v), graph.loops(v),
               graph.leg_positions(v)) for v in graph.vertices}
    ranks = {c: i for i, c in enumerate(sorted(set(raw.values())))}
    return {v: ranks[raw[v]] for v in graph.vertices}


def encode(graph, pos):
    """The certificate of a labelling: sizes, weights and leg ends in
    position order, and the edge multiplicities between positions, each
    edge read through ``edge_vertices``."""
    mult = defaultdict(int)
    for i in range(graph.n_edges):
        u, v = graph.edge_vertices(i)
        a, b = sorted((pos[u], pos[v]))
        mult[(a, b)] += 1
    order = sorted(graph.vertices, key=pos.get)
    return (
        len(graph.vertices), graph.n_edges,
        tuple(graph.w(v) for v in order),
        tuple(pos[graph.endpoint[h]] for h in graph.legs),
        tuple(sorted((a, b, m) for (a, b), m in mult.items())),
    )


def canonical_form_with_leaves(graph):
    """``(cert, pos, leaves)``, computed afresh and kept nowhere: the
    unpruned refinement tree from :func:`initial_colors`, its best
    certificate, the first leaf labelling with it and every leaf
    labelling with it, best first."""
    adj = _neighbor_lists(graph)
    best = [None, []]

    def rec(colors):
        classes = defaultdict(list)
        for v, c in colors.items():
            classes[c].append(v)
        split = [c for c in sorted(classes) if len(classes[c]) > 1]
        if not split:
            pos = {v: i for i, (_, v) in enumerate(
                sorted((c, v) for v, c in colors.items()))}
            cert = encode(graph, pos)
            if best[0] is None or cert < best[0]:
                best[0], best[1] = cert, [pos]
            elif cert == best[0]:
                best[1].append(pos)
            return
        for v in sorted(classes[split[0]]):
            forced = {u: (c, 0 if u == v else 1)
                      for u, c in colors.items()}
            ranks = {s: i for i, s in enumerate(sorted(set(forced.values())))}
            rec(_refine_colors(graph, {u: ranks[forced[u]]
                                       for u in graph.vertices}, adj))

    rec(_refine_colors(graph, initial_colors(graph), adj))
    return best[0], best[1][0], best[1]


def decomposition(graph, cyclic_set):
    """The components of the graph opened outside ``cyclic_set``, from a
    union-find of the oracle's own over the set's edges: their vertex
    sets, ordered by smallest vertex, and the genus of each (its weight
    plus its edges in the set, minus its vertices, plus one)."""
    parent = {v: v for v in graph.vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i in cyclic_set:
        u, v = graph.edge_vertices(i)
        parent[root(u)] = root(v)
    groups = {}
    for v in graph.vertices:
        groups.setdefault(root(v), set()).add(v)
    vertex_sets = sorted(groups.values(), key=min)
    genera = []
    for vs in vertex_sets:
        inside = sum(1 for i in cyclic_set if graph.edge_vertices(i)[0] in vs)
        genera.append(sum(graph.weight[v] for v in vs) + inside - len(vs) + 1)
    return tuple(map(frozenset, vertex_sets)), tuple(genera)


def remove_edges(graph, edge_indices, open=False):
    """Remove the given edges; with ``open=True`` each removed edge leaves
    two new legs at its former endpoints.

    New legs are appended to the leg order sorted by removed-edge index,
    then by half-edge id, so the result is reproducible.  The result goes
    through the validating ``Graph(...)``.
    """
    removed = _check_edge_subset(graph, edge_indices)
    involution = dict(graph.involution)
    legs = list(graph.legs)
    drop = set()
    for i in removed:
        h, k = graph.edges[i]
        if open:
            involution[h] = h
            involution[k] = k
            legs.extend(sorted((h, k)))
        else:
            drop.update((h, k))
    endpoint = {h: v for h, v in graph.endpoint.items() if h not in drop}
    for h in drop:
        del involution[h]
    return Graph(graph.weight, endpoint, involution, legs, graph.exceptional)


def opened_graph(graph, cyclic_set):
    """The opened graph of ``cyclic_set`` by its definition: ``graph``
    with every edge outside the set removed, each leaving two legs."""
    return remove_edges(graph, [i for i in range(graph.n_edges)
                                if i not in cyclic_set], open=True)


def _component_of(vertex_sets, vertex):
    """The index of the vertex set holding ``vertex``."""
    return next(i for i, vs in enumerate(vertex_sets) if vertex in vs)


def act_spin(aut, spin):
    """Image of a spin structure under an automorphism, decomposing the
    image cyclic set and building a spin structure for it."""
    graph = aut.graph
    p_out = EdgeSet(graph, aut.act_mask(spin.P.mask))
    targets = pbar_decompose(graph, p_out).vertex_sets
    signs = [0] * len(targets)
    for i, vs in enumerate(spin.dec.vertex_sets):
        image = {aut.vertex_map[v] for v in vs}
        j = _component_of(targets, min(image))
        if image != targets[j]:
            raise VerificationError("automorphism maps a component onto no "
                                    "component of its image")
        signs[j] = spin.signs[i]
    return SpinStructure(graph, p_out, tuple(signs))


def spin_action():
    """``act(f, spin)``: the ``(mask, signs)`` data of the image of
    ``spin`` under an automorphism or contraction ``f``, through a
    :class:`SpinCarry` built once per (map, mask) and kept in the dict
    ``act.carried``."""
    memo = {}

    def act(f, spin):
        key = (f, spin.P.mask)
        carried = memo.get(key)
        if carried is None:
            carried = memo[key] = SpinCarry(f, spin.P, spin.dec)
        return carried.mask, carried.fold(spin.signs)

    act.carried = memo
    return act


def spin_orbits(graph, spins):
    """The walk of the whole group over every structure in ``spins``, as
    ``(mask, signs)`` data: :func:`orbit_walk` with each action class
    acting through a fresh :func:`spin_action`, each representative's
    signs folded through every class."""
    act = spin_action()
    by_data = {s.data(): s for s in spins}

    def acting(a):
        return lambda data: act(a, by_data[data])

    return orbit_walk(by_data, [(c, acting(a)) for c, a in
                                enumerate(automorphisms(graph).actions)])


def spin_stabilizer(graph, spin):
    """The automorphisms of ``graph`` whose image of ``spin``, built one
    at a time by :func:`act_spin`, equals ``spin``, in group order."""
    return ElementGroup(graph, [a for a in element_group(graph).elements
                                if act_spin(a, spin) == spin])


def component_subgroup(group, spin):
    """The elements of ``group`` that fix every half-edge outside the
    spin structure's cyclic set and map each component of the opened
    graph to itself, in group order."""
    graph = group.graph
    outside = [h for i in range(graph.n_edges) if i not in spin.P
               for h in graph.edges[i]]
    vertex_sets = spin.dec.vertex_sets
    return ElementGroup(graph, [
        a for a in group.elements
        if all(a.half_map[h] == h for h in outside)
        and all({a.vertex_map[v] for v in vs} == vs for vs in vertex_sets)])


def quotient_action_order(graph, spin, group):
    """The number of distinct maps that the elements of ``group`` induce
    on the contracted graph: on the components of the opened graph, and
    on the half-edges outside the cyclic set."""
    outside = [h for i in range(graph.n_edges) if i not in spin.P
               for h in graph.edges[i]]
    vertex_sets = spin.dec.vertex_sets
    comp_index = {vs: i for i, vs in enumerate(vertex_sets)}
    seen = set()
    for a in group.elements:
        comp_perm = tuple(
            comp_index[frozenset(a.vertex_map[v] for v in vs)]
            for vs in vertex_sets)
        seen.add((comp_perm, tuple(a.half_map[h] for h in outside)))
    return len(seen)


def reference_contraction(graph, edge_set):
    """The contraction of ``edge_set`` as ``(target, vertex_map,
    edge_map)``: the target built through the validating ``Graph(...)``,
    each vertex sent to the least vertex of its class, each class
    weighted by the genus of its contracted piece, and each edge sent to
    the index of its pair of half-edges in the target's edge indexing."""
    indices = edge_set.indices()
    pairs = [graph.edge_vertices(i) for i in indices]
    classes = connected_classes(graph.vertices, pairs)
    rep = {v: members[0] for members in classes for v in members}
    weight = {}
    for members in classes:
        inside = sum(1 for u, _ in pairs if u in members)
        weight[members[0]] = (sum(graph.w(v) for v in members) + inside
                              - len(members) + 1)
    dropped = {h for i in indices for h in graph.edges[i]}
    endpoint = {h: rep[v] for h, v in graph.endpoint.items()
                if h not in dropped}
    involution = {h: graph.involution[h] for h in endpoint}
    target = Graph(weight, endpoint, involution, graph.legs,
                   graph.exceptional & set(weight))
    index = {pair: j for j, pair in enumerate(target.edges)}
    return target, rep, {i: index.get(pair)
                         for i, pair in enumerate(graph.edges)}


def push_spin(contraction, spin):
    """Pushforward of a spin structure, signs summed over the components
    each image component absorbs."""
    p_out = push_cycle(contraction, spin.P)
    targets = pbar_decompose(contraction.target, p_out).vertex_sets
    signs = [0] * len(targets)
    for i, vs in enumerate(spin.dec.vertex_sets):
        image = {contraction.vertex_map[v] for v in vs}
        j = _component_of(targets, min(image))
        if not image <= targets[j]:
            raise VerificationError("a component does not map into one "
                                    "component")
        signs[j] ^= spin.signs[i]
    out = SpinStructure(contraction.target, p_out, tuple(signs))
    if out.parity != spin.parity:
        raise VerificationError("pushforward changed the parity")
    return out


def order_test(upper, lower):
    """The witness search that contracts every edge subset of the right
    size in canonical order: the first contraction whose target has the
    certificate of ``lower``'s graph and whose pushed structure, carried
    onto that graph, lies in the orbit of ``lower``'s, walked up front."""
    ga, gb = upper.graph, lower.graph
    if ga.genus != gb.genus or ga.n_legs != gb.n_legs:
        return None
    k = ga.n_edges - gb.n_edges
    if k < 0:
        return None
    cert_b, _ = canonical_form(gb)
    _, orbit_of, _, _ = spin_orbits(gb, [lower.spin])
    for subset in combinations(range(ga.n_edges), k):
        c = contract(ga, EdgeSet.from_indices(ga, subset))
        if canonical_form(c.target)[0] != cert_b:
            continue
        if push_spin(c.onto(gb), upper.spin).data() in orbit_of:
            return c
    return None


def keyed_unique_lift(split, graph, target_key):
    """The data of the unique lift of the target onto ``split``, or
    ``None``, with every structure of ``split`` keyed on the freshly
    contracted target: exactly one structure pushes onto the target class
    under some contraction of an edge onto ``graph``'s class, it does
    under every one, the joining edge (the last) is among those edges,
    and every automorphism fixes it."""
    graph_key = canonical_key(graph)
    contractions = {}
    for f in range(split.n_edges):
        c = contract(split, EdgeSet.from_indices(split, [f]))
        if canonical_key(c.target) == graph_key:
            contractions[f] = c
    if split.n_edges - 1 not in contractions:
        return None

    def lands(c, s):
        pushed = push_spin(c, s)
        return key_oracle.spin_key(SpinGraph(c.target, pushed)) == target_key

    lifts = [s for s in enumerate_spin(split)
             if any(lands(c, s) for c in contractions.values())]
    if len(lifts) != 1:
        return None
    (lift,) = lifts
    if not all(lands(c, lift) for c in contractions.values()):
        return None
    group = element_group(split)
    fixing = [a for a in group.elements if act_spin(a, lift) == lift]
    if len(fixing) != group.order:
        return None
    return lift.data()


def three_regular_graphs(g, n):
    """Every 3-regular class, seeded from every assignment of the legs to
    the vertices; the first graph met per class represents it."""
    k = 2 * g - 2 + n
    if k <= 0:
        return []
    found = {}
    for assign in product(range(k), repeat=n):
        ell = Counter(assign)
        deg = [3 - ell.get(v, 0) for v in range(k)]
        if any(d < 0 for d in deg):
            continue
        for edges in _multigraphs_with_degrees(deg):
            graph = Graph.build([(v, 0) for v in range(k)], edges, assign)
            if not graph.is_connected:
                continue
            found.setdefault(canonical_key(graph), graph)
    return [found[key] for key in sorted(found)]


def valent_multisets(k, n_edges, base):
    """Every multiset of ``n_edges`` pairs ``(i, j)``, ``i <= j``, on
    vertices ``0..k-1``, in ``combinations_with_replacement`` order over
    the pairs listed lexicographically, kept when every valence
    ``base[v] + deg(v)`` is positive (a loop counts twice) and the edges
    connect all vertices."""
    vertices = range(k)
    pairs = [(i, j) for i in vertices for j in range(i, k)]
    kept = []
    for edges in combinations_with_replacement(pairs, n_edges):
        val = list(base)
        for u, v in edges:
            val[u] += 1
            val[v] += 1
        if min(val) <= 0:
            continue
        if len(connected_classes(vertices, edges)) > 1:
            continue
        kept.append(edges)
    return kept


def placement_orbits(g, n):
    """The set of orbits, under vertex permutations, of every (weights,
    legs) pair the direct generator could start from: every vertex count
    ``k``, every weight composition of total at most ``g`` and every
    placement in ``product(range(k), repeat=n)``."""
    return {placement_orbit(weights, legs)
            for k in range(1, 2 * g - 2 + n + 1)
            for weights in product(range(g + 1), repeat=k)
            if sum(weights) <= g
            for legs in product(range(k), repeat=n)}


def placement_orbit(weights, legs):
    """The orbit of a (weights, legs) pair under vertex permutations:
    the sorted multiset of (weight, legs at v) over the vertices."""
    return tuple(sorted(
        (w, tuple(i for i, u in enumerate(legs) if u == v))
        for v, w in enumerate(weights)))


def fuzz_contraction_chains(classes, count=1000, seed=0, record=None):
    """The fuzz chains drawn and run one at a time, in draw order, each
    building its three contractions afresh; the composite contracts the
    union of the first step's set and the preimage of the second's.

    When ``record`` is a list, each chain appends ``(id(graph), S1 mask,
    S2 mask, cyclic set mask, spin data, edge or None)`` once its checks
    pass."""
    done = {"chains": 0, "spin_chains": 0, "squares": 0}
    cyclic_of = {id(c): enumerate_cyclic(c) for c in classes}
    spins_of = {id(c): enumerate_spin(c) for c in classes}
    rng = random.Random(seed)

    def subset(n):
        return [i for i in range(n) if rng.random() < 0.4]

    for _ in range(count):
        graph = classes[rng.randrange(len(classes))]
        c1 = contract(graph, subset(graph.n_edges))
        c2 = contract(c1.target, subset(c1.target.n_edges))
        mask = c1.contracted.mask
        for i, j in c1.edge_map.items():
            if j is not None and j in c2.contracted:
                mask |= 1 << i
        c12 = Contraction(graph, EdgeSet(graph, mask))
        cyc = cyclic_of[id(graph)]
        p = cyc[rng.randrange(len(cyc))]
        if push_cycle(c12, p).mask != push_cycle(c2, push_cycle(c1, p)).mask:
            raise VerificationError("cycle pushforward does not compose",
                                    (canonical_key(graph), p.hex()))
        done["chains"] += 1
        spins = spins_of[id(graph)]
        s = spins[rng.randrange(len(spins))]
        a = push_spin(c12, s)
        b = push_spin(c2, push_spin(c1, s))
        if a.data() != b.data() or a.parity != s.parity:
            raise VerificationError("spin pushforward does not compose",
                                    (canonical_key(graph),))
        done["spin_chains"] += 1
        e = None
        if graph.n_edges:
            e = rng.randrange(graph.n_edges)
            es = EdgeSet.from_indices(graph, [e])
            j = c1.edge_map[e]
            img = EdgeSet(c1.target, 0 if j is None else 1 << j)
            if boundary(c1.target, img) != \
                    push_vertex_set(c1, boundary(graph, es)):
                raise VerificationError(
                    "boundary square does not commute",
                    (canonical_key(graph),))
            done["squares"] += 1
        if record is not None:
            record.append((id(graph), c1.contracted.mask,
                           c2.contracted.mask, p.mask, s.data(), e))
    return done


def face_closure(poset):
    """For each node, the sorted nodes strictly above it: one
    ``descendants`` walk per node, inverted.  The cone complex once
    stored this as each cell's faces."""
    above = [set() for _ in poset.nodes]
    for i in range(len(poset.nodes)):
        for j in poset.descendants(i):
            if j != i:
                above[j].add(i)
    return [tuple(sorted(a)) for a in above]


def reaches_top(poset):
    """Whether each node has the top rank or lies below a node that
    does, read off the face closure."""
    top = max_rank(poset.g, poset.n)
    return [nd.rank == top or any(poset.nodes[i].rank == top for i in above)
            for nd, above in zip(poset.nodes, face_closure(poset))]


def cone_purity(poset):
    """The cone complex's purity check over the face closure: the first
    cell, in node order, that is a face of no top-dimensional cell
    raises, with its key as witness."""
    for nd, reaches in zip(poset.nodes, reaches_top(poset)):
        if not reaches:
            raise VerificationError(
                "cell is not a face of any top-dimensional cell", (nd.key,))


def purity_precursor(graph_poset):
    """The union of ``descendants(t)`` over the top classes; the classes
    outside it raise, as keys in index order.  Returns the count
    reached."""
    top = max_rank(graph_poset.g, graph_poset.n)
    reached = set()
    for t, nd in enumerate(graph_poset.nodes):
        if nd.rank == top:
            reached |= graph_poset.descendants(t)
    missing = sorted(set(range(len(graph_poset.nodes))) - reached)
    if missing:
        raise VerificationError(
            "classes not dominated by any top class",
            tuple(graph_poset.nodes[i].key for i in missing))
    return len(reached)
