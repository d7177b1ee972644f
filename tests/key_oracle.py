"""Test oracles: canonical keys as a minimum over the whole automorphism
group, element by element (:func:`oracles.element_group`), and the order
test that keys every contracted target.

These are the definitions the package's orbit-table keys and lookup
order test must reproduce exactly: each automorphism is applied to the
structure inside the encoding, and the least encoding over the group is
digested with the graph's certificate.
"""

from collections import defaultdict
from itertools import combinations

from spinmod.cycles import EdgeSet
from spinmod.morphisms import (_digest, canonical_form, canonical_key,
                               contract, push_spin)
from spinmod.spin import SpinGraph

import oracles


def cyclic_encoding(graph, pos, aut, cyclic_set):
    """The cyclic set moved by ``aut``, as edge multiplicities between
    canonical positions."""
    per_pair = defaultdict(int)
    for i in cyclic_set:
        u, v = graph.edge_vertices(aut.edge_perm[i])
        per_pair[tuple(sorted((pos[u], pos[v])))] += 1
    return tuple(sorted(per_pair.items()))


def spin_encoding(graph, pos, aut, spin):
    """The spin structure moved by ``aut``: its cyclic set and the image
    of each component of the opened graph, with its sign."""
    comps = []
    for vs, s in zip(oracles.components_of(spin), spin.signs):
        comps.append((tuple(sorted(pos[aut.vertex_map[v]] for v in vs)), s))
    return (cyclic_encoding(graph, pos, aut, spin.P), tuple(sorted(comps)))


def min_over_group(graph, encode, structure):
    """Digest of the certificate and the least encoding of the structure
    over the whole automorphism group."""
    cert, pos = canonical_form(graph)
    best = min(encode(graph, pos, a, structure)
               for a in oracles.element_group(graph).elements)
    return _digest([cert, best])


def spin_key(spin_graph):
    return min_over_group(spin_graph.graph, spin_encoding, spin_graph.spin)


def cyclic_key(graph, cyclic_set):
    return min_over_group(graph, cyclic_encoding, cyclic_set)


def keyed_order_test(upper, lower):
    """The witness search that keys every contracted target: the first
    contraction, in canonical subset order, whose target graph and pushed
    spin structure have ``lower``'s keys."""
    ga, gb = upper.graph, lower.graph
    if ga.genus != gb.genus or ga.n_legs != gb.n_legs:
        return None
    k = ga.n_edges - gb.n_edges
    if k < 0:
        return None
    key_b = spin_key(lower)
    graph_key_b = canonical_key(gb)
    for subset in combinations(range(ga.n_edges), k):
        c = contract(ga, EdgeSet.from_indices(ga, subset))
        if canonical_key(c.target) != graph_key_b:
            continue
        if spin_key(SpinGraph(c.target, push_spin(c, upper.spin))) == key_b:
            return c
    return None
