"""Verification suites behind the ``verify`` command.

Each suite returns a list of check records ``{"name", "status", ...}``
and raises :class:`VerificationError` (with witness keys) on the first
violated identity.  Suites are deterministic: the only randomness is the
fuzz generator, whose seed is logged in the report.
"""

from __future__ import annotations

import functools
import random
import resource
import sys
import time
from fractions import Fraction

from .cycles import EdgeSet, boundary, enumerate_cyclic, pbar_decompose
from .errors import SpinmodError, VerificationError
from .graphs import classify
from .morphisms import (automorphisms, canonical_key, component_subgroup,
                        composed_edges, contract, cyclic_canonical_key,
                        order_test, push_cycle, push_spin, push_vertex_set,
                        quotient_action_order)
from .posets import (build_cyclic_poset, build_graph_poset, build_spin_poset,
                     enumerate_stable_graphs, max_rank, poset_stats,
                     stable_graphs_direct)
from .spin import (SpinGraph, SpinStructure, enumerate_spin, g_collections,
                   refine_nonbasic, spin_count_check, stratum_counts,
                   theta_divisors)
from .tropical import (INF, FamilyDescriptor, build_cone_complex,
                       diagram_check, family_generic_fiber)

DIRECT_ORACLE_LIMIT = 5  # largest 3g-3+n the exponential generator handles

GROUND_TRUTH = {
    # frozen regression constants, reproduced by the direct generator
    (1, 1): {"graphs": 2, "spin_nodes": 5},
    (2, 0): {"graphs": 7, "spin_top": 9, "spin_top_even": 6,
             "spin_top_odd": 3},
    (0, 3): {"graphs": 1, "spin_nodes": 1},
}


def suite_counts(g, classes):
    """Counting identities over every class, run on the enumerated
    objects themselves.  Each record counts the cases it evaluated."""
    cyclic_sets = 0
    collections = 0
    for graph in classes:
        spin_count_check(graph)
        stratum_counts(graph)
        cyclic = enumerate_cyclic(graph)
        theta_divisors(graph, cyclic)
        cyclic_sets += len(cyclic)
        if classify(graph).basic and len(graph.vertices) >= 2:
            count = g_collections(graph)["count"]
            expected = 2 ** (graph.b1 + 2 * graph.total_weight() - 1)
            if count != expected:
                raise VerificationError(
                    f"collection count {count} differs from odd-theta "
                    f"count {expected}", (canonical_key(graph),))
            collections += 1
    return [
        {"name": "spin-count-formula", "status": "pass",
         "graphs": len(classes)},
        {"name": "spin-parity-split", "status": "pass",
         "cyclic_sets": cyclic_sets},
        {"name": "stratum-degree", "status": "pass",
         "grand_total": 2 ** (2 * g), "graphs": len(classes)},
        {"name": "theta-divisor-identities", "status": "pass",
         "cyclic_sets": cyclic_sets},
        {"name": "collection-count", "status": "pass",
         "basic_graphs": collections},
    ]


def peak_rss_kib():
    """The peak resident set size of this process so far, in KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


def _timed(phases, name, run, *args, **kwargs):
    """``run(*args, **kwargs)``; when ``phases`` is a dict, the seconds it
    took and the peak RSS in KiB after it are stored as ``phases[name]``."""
    started = time.perf_counter()
    out = run(*args, **kwargs)
    if phases is not None:
        phases[name] = (time.perf_counter() - started, peak_rss_kib())
    return out


def _forgetful(source, target, image_of, onto, not_onto, not_cover):
    """Check that the forgetful map from ``source`` to ``target``, which
    sends each node of ``source`` to the node of ``target`` keyed
    ``image_of(node)``, is a monotone surjection.

    An image key that is no node of ``target`` is a verification error
    naming both keys.  The images of the nodes for which ``onto(node)``
    holds must be every node of ``target``, else ``not_onto`` names the
    nodes outside them.  A cover maps to a cover when the image of its
    lower end is among the nodes that the image of its upper end covers,
    else ``not_cover`` names the upper end."""
    index = {nd.key: i for i, nd in enumerate(target.nodes)}
    images = []
    for nd in source.nodes:
        key = image_of(nd)
        if key not in index:
            raise VerificationError(
                f"forgetful image is not a node of the {target.kind} poset",
                (nd.key, key))
        images.append(index[key])
    hit = {t for nd, t in zip(source.nodes, images) if onto(nd)}
    if hit != set(range(len(target.nodes))):
        raise VerificationError(not_onto, tuple(
            nd.key for i, nd in enumerate(target.nodes) if i not in hit))
    for u, nd in enumerate(source.nodes):
        below = set(target.lower(images[u]))
        for l in source.lower(u):
            if images[l] not in below:
                raise VerificationError(not_cover, (nd.key,))


def _burnside(poset, graph_of, count, message):
    """Burnside per class: the orbits ``|actions| / |stabilizer|`` of the
    nodes of ``poset`` over each class graph, ``graph_of(node)``, must sum
    to ``count(graph)`` (a loop flip fixes every structure, so the
    classes act as the group does), else ``message`` is raised with both
    numbers, naming the class.  Returns the counts summed over the
    classes."""
    by_class = {}  # id(class graph) -> (graph, its nodes' stabilizer sizes)
    for nd in poset.nodes:
        graph = graph_of(nd)
        by_class.setdefault(id(graph), (graph, []))[1].append(
            len(nd.stabilizer))
    total = 0
    for graph, orders in by_class.values():
        actions = len(automorphisms(graph).actions)
        summed = sum(actions // order for order in orders)
        expected = count(graph)
        if summed != expected:
            raise VerificationError(f"{message}: {summed} != {expected}",
                                    (canonical_key(graph),))
        total += expected
    return total


def suite_posets(g, n, classes, get_spin_poset, phases=None):
    graph_poset = _timed(phases, "graph_poset", build_graph_poset, g, n,
                         _classes=classes)
    cyclic_poset = _timed(phases, "cyclic_poset", build_cyclic_poset, g, n,
                          _classes=classes)
    spin_poset = get_spin_poset()
    checks = []
    for poset in (graph_poset, cyclic_poset, spin_poset):
        stats = poset_stats(poset)
        checks.append({"name": f"poset-{poset.kind}", "status": "pass",
                       **{k: v for k, v in stats.items()
                          if k not in ("kind",)},
                       **(poset.walk or {})})
    # the contraction table of the downward closure: one contraction per
    # orbit of each class's automorphism group on edges, held as its entry
    checks[0]["contractions"] = sum(len(automorphisms(graph).edge_orbits)
                                    for graph in classes)
    checks[0]["table_entries"] = sum(
        len(graph.__dict__.get("_edge_contractions", ())) for graph in classes)

    cone_report = _timed(phases, "cone_complex", build_cone_complex,
                         spin_poset)
    checks.append({"name": "cone-complex", "status": "pass", **cone_report})

    top = max_rank(g, n)
    for nd in graph_poset.nodes:
        if (nd.rank == top) != classify(nd.rep).three_regular:
            raise VerificationError(
                "top rank does not coincide with 3-regularity", (nd.key,))
    checks.append({"name": "top-rank-three-regular", "status": "pass",
                   "classes": len(graph_poset.nodes)})

    # purity precursor on the graph poset: everything below a top class
    reaches = graph_poset.reaches_top()
    if not all(reaches):
        raise VerificationError(
            "classes not dominated by any top class",
            tuple(nd.key for nd, r in zip(graph_poset.nodes, reaches)
                  if not r))
    checks.append({"name": "purity-precursor", "status": "pass",
                   "reached": sum(reaches)})

    # forgetful maps: even spin -> cyclic -> graphs, monotone surjections
    # keyed once per (class, cyclic set): the spin nodes over a class
    # share its representative graph object
    cyclic_keys = {}

    def cyclic_key(nd):
        graph, p = nd.rep.graph, nd.rep.spin.P
        at = (id(graph), p.mask)
        if at not in cyclic_keys:
            cyclic_keys[at] = cyclic_canonical_key(graph, p)
        return cyclic_keys[at]

    _forgetful(spin_poset, cyclic_poset, cyclic_key,
               lambda nd: nd.parity == 0,
               "even spin classes do not cover the cyclic poset",
               "spin cover does not map to a cyclic cover")
    _forgetful(cyclic_poset, graph_poset, lambda nd: canonical_key(nd.rep[0]),
               lambda nd: True, "cyclic classes do not cover the graph poset",
               "cyclic cover does not map to a graph cover")
    checks.append({"name": "forgetful-maps", "status": "pass",
                   "spin_covers": len(spin_poset.lowers),
                   "cyclic_covers": len(cyclic_poset.lowers)})

    checks[1]["cyclic_sets"] = _burnside(
        cyclic_poset, lambda nd: nd.rep[0],
        lambda graph: len(enumerate_cyclic(graph)),
        "cyclic orbits do not count the cyclic sets")

    # order relation agrees with the witness search on a sample
    rng = random.Random(0)
    size = len(spin_poset.nodes)
    pairs = {(i, (i * 7 + 3) % size) for i in range(min(size, 12))}
    pairs |= {(rng.randrange(size), rng.randrange(size)) for _ in range(8)}
    for i, j in sorted(pairs):
        a, b = spin_poset.nodes[i], spin_poset.nodes[j]
        witness = order_test(a.rep, b.rep)
        if (witness is not None) != spin_poset.leq(i, j):
            raise VerificationError(
                "poset order disagrees with the witness search",
                (a.key, b.key))
    checks.append({"name": "order-test-agreement", "status": "pass",
                   "pairs": len(pairs)})

    if max_rank(g, n) <= DIRECT_ORACLE_LIMIT:
        direct = set(_timed(
            phases, "direct_generator", stable_graphs_direct, g, n))
        closure = {nd.key for nd in graph_poset.nodes}
        if direct != closure:
            raise VerificationError(
                "downward closure disagrees with the direct generator",
                tuple(sorted(direct ^ closure)))
        checks.append({"name": "dual-generator-agreement", "status": "pass",
                       "classes": len(direct)})

    truth = GROUND_TRUTH.get((g, n))
    if truth:
        got = {"graphs": len(graph_poset.nodes),
               "spin_nodes": len(spin_poset.nodes)}
        tops = [nd for nd in spin_poset.nodes if nd.rank == top]
        got["spin_top"] = len(tops)
        got["spin_top_even"] = sum(1 for nd in tops if nd.parity == 0)
        got["spin_top_odd"] = sum(1 for nd in tops if nd.parity == 1)
        for name, want in truth.items():
            if got[name] != want:
                raise VerificationError(
                    f"ground truth {name} at ({g},{n}): got {got[name]}, "
                    f"expected {want}")
        checks.append({"name": "ground-truth", "status": "pass", **truth})
    return checks


def _random_edge_mask(rng, count):
    """Each of ``count`` edge indices, drawn with probability 0.4, as a
    mask."""
    mask = 0
    for i in range(count):
        if rng.random() < 0.4:
            mask |= 1 << i
    return mask


def fuzz_contraction_chains(classes, count=1000, seed=0):
    """Random two-step contraction chains over the given classes:
    composition on cycles and spin structures, parity preservation, and
    the boundary square.

    Every chain is drawn first: its class, the edge set ``S1`` that ``c1``
    contracts on the class graph, the edge set ``S2`` that ``c2``
    contracts on ``c1``'s target (which keeps the ``graph.n_edges - |S1|``
    edges that ``S1`` leaves), a cyclic set, a spin structure and an edge.
    A class's cyclic sets and spin structures are listed when it is first
    drawn, so a class no chain draws builds no spin structure.  The
    chains then run class by class, in order of first draw.  Each
    distinct (graph, edge set) among a class's chains is contracted once,
    in a table dropped before the next class.  The composite ``c12`` is
    the table's contraction of ``composed_edges(c1, c2)``, made from the
    class graph independently of ``c1`` and ``c2``.  A failing run raises
    the error of the first failing chain in draw order.

    Returns the number of cases each check evaluated: ``chains`` (cycle
    pushforwards composed), ``spin_chains`` (spin pushforwards composed
    and their parities compared) and ``squares`` (chains whose graph has
    an edge to take the boundary of); and ``contractions``, the distinct
    contractions the chains built.
    """
    structures_of = {}  # id(class graph) -> (cyclic sets, spin structures)
    rng = random.Random(seed)
    chains_of = {}  # id(class graph) -> (graph, its chains in draw order)
    for i in range(count):
        graph = classes[rng.randrange(len(classes))]
        s1 = _random_edge_mask(rng, graph.n_edges)
        s2 = _random_edge_mask(rng, graph.n_edges - s1.bit_count())
        if id(graph) not in structures_of:
            structures_of[id(graph)] = (enumerate_cyclic(graph),
                                        enumerate_spin(graph))
        cyc, spins = structures_of[id(graph)]
        p = cyc[rng.randrange(len(cyc))]
        s = spins[rng.randrange(len(spins))]
        e = rng.randrange(graph.n_edges) if graph.n_edges else None
        chains_of.setdefault(id(graph), (graph, []))[1].append(
            (i, s1, s2, p, s, e))

    done = {"chains": 0, "spin_chains": 0, "squares": 0, "contractions": 0}
    failure = None  # (draw index, error) of the first failing chain
    for graph, chains in chains_of.values():
        table = {}
        for i, s1, s2, p, s, e in chains:
            if failure is not None and failure[0] < i:
                break
            try:
                _check_chain(graph, table, s1, s2, p, s, e, done)
            except SpinmodError as err:
                failure = (i, err)
                break
        done["contractions"] += len(table)
    if failure is not None:
        raise failure[1]
    return done


def _contracted(table, edges):
    """The contraction of an edge set, built once per table.  Keyed by
    the id of the set's graph, which stays valid because the table holds
    every source and target."""
    at = (id(edges.graph), edges.mask)
    c = table.get(at)
    if c is None:
        c = table[at] = contract(edges.graph, edges)
    return c


def _check_chain(graph, table, s1, s2, p, s, e, done):
    """Run the checks of one fuzz chain, counting each in ``done``; its
    contractions come from the class's ``table``."""
    c1 = _contracted(table, EdgeSet(graph, s1))
    kept = graph.n_edges - s1.bit_count()
    if c1.target.n_edges != kept:
        raise VerificationError(
            f"contraction kept {c1.target.n_edges} edges, expected {kept}",
            (canonical_key(graph), f"F={s1:x}"))
    c2 = _contracted(table, EdgeSet(c1.target, s2))
    c12 = _contracted(table, composed_edges(c1, c2))
    if push_cycle(c12, p).mask != push_cycle(c2, push_cycle(c1, p)).mask:
        raise VerificationError("cycle pushforward does not compose",
                                (canonical_key(graph), p.hex()))
    done["chains"] += 1
    a = push_spin(c12, s)
    b = push_spin(c2, push_spin(c1, s))
    if a.data() != b.data() or a.parity != s.parity:
        raise VerificationError("spin pushforward does not compose",
                                (canonical_key(graph),))
    done["spin_chains"] += 1
    if e is not None:
        es = EdgeSet.from_indices(graph, [e])
        j = c1.edge_map[e]
        img = EdgeSet(c1.target, 0 if j is None else 1 << j)
        if boundary(c1.target, img) != \
                push_vertex_set(c1, boundary(graph, es)):
            raise VerificationError(
                "boundary square does not commute",
                (canonical_key(graph),))
        done["squares"] += 1


def check_aut_factorization(spin_poset):
    """Order of the spin-preserving group factors as the component-wise
    subgroup times the induced quotient action, at half-edge level, for
    every node of the poset, and the node orbits of each class count its
    spin structures.

    The spin-preserving group is the node's stabilizer; the
    component-wise subgroup is taken from the whole group, so the check
    also asks that each of its action classes fix the structure.  Per
    class, the orbits ``|actions| / |stabilizer|`` of its nodes must sum
    to ``sum_P 2^{c_+(P)}`` over its cyclic sets (Burnside: a loop flip
    fixes every structure, so the classes act as the group does).
    Neither factor reads the signs, so the subgroup is computed once per
    (class, cyclic set) and the quotient action once per (class, cyclic
    set, stabilizer), for this call only.
    Returns the number of nodes checked, the sum of their stabilizers'
    orders and the number of spin structures over their classes."""
    elements = 0
    subgroups = {}
    quotients = {}
    for nd in spin_poset.nodes:
        graph, spin = nd.rep.graph, nd.rep.spin
        group = automorphisms(graph)
        fixing = group.subgroup(nd.stabilizer)
        at = (id(graph), spin.P.mask)
        pbar = subgroups.get(at)
        if pbar is None:
            pbar = subgroups[at] = component_subgroup(group, spin)
        acting = at + (nd.stabilizer,)
        q_h = quotients.get(acting)
        if q_h is None:
            q_h = quotients[acting] = quotient_action_order(graph, spin,
                                                            fixing)
        elements += fixing.order
        if fixing.order != pbar.order * q_h:
            raise VerificationError(
                f"automorphism orders do not factor: {fixing.order} != "
                f"{pbar.order} * {q_h}", (nd.key,))
    structures = _burnside(
        spin_poset, lambda nd: nd.rep.graph,
        lambda graph: sum(2 ** pbar_decompose(graph, p).c_plus
                          for p in enumerate_cyclic(graph)),
        "spin orbits do not count the spin structures")
    return len(spin_poset.nodes), elements, structures


def fuzz_families(spin_poset, count=100, seed=0):
    """Random family descriptors over the poset's spin classes: the
    tropicalization diagram commutes, and the generic fiber is dominated
    with a witness and keys to a spin node of the poset with the
    family's parity."""
    rng = random.Random(seed)
    parity_of = {nd.key: nd.parity for nd in spin_poset.nodes}
    for _ in range(count):
        nd = spin_poset.nodes[rng.randrange(len(spin_poset.nodes))]
        val = []
        for _ in range(nd.rep.graph.n_edges):
            if rng.random() < 0.3:
                val.append(INF)
            else:
                val.append(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        fam = FamilyDescriptor(nd.rep, val)
        if not diagram_check(fam).commutes:
            raise VerificationError("tropicalization diagram does not "
                                    "commute", (nd.key,))
        key = canonical_key(family_generic_fiber(fam)["generic"])
        if parity_of.get(key) != nd.parity:
            raise VerificationError(
                f"generic fiber of a family is no spin node of parity "
                f"{nd.parity}", (nd.key, key))
    return count


def suite_functoriality(classes, get_spin_poset, fuzz=1000, seed=0,
                        phases=None):
    done = _timed(phases, "fuzz_chains", fuzz_contraction_chains, classes,
                  count=fuzz, seed=seed)
    checks = [{"name": "pushforward-composition", "status": "pass",
               "chains": done["chains"], "seed": seed,
               "contractions": done["contractions"]},
              {"name": "parity-preservation", "status": "pass",
               "chains": done["spin_chains"]},
              {"name": "boundary-square", "status": "pass",
               "squares": done["squares"]}]
    spin_poset = get_spin_poset()
    n_classes, elements, structures = _timed(
        phases, "aut_factorization", check_aut_factorization, spin_poset)
    checks.append({"name": "aut-factorization", "status": "pass",
                   "spin_classes": n_classes, "elements": elements,
                   "structures": structures})
    n_families = _timed(phases, "fuzz_families", fuzz_families, spin_poset,
                        count=max(1, fuzz // 10), seed=seed)
    checks.append({"name": "family-diagram", "status": "pass",
                   "families": n_families, "seed": seed})
    return checks


def suite_refine(classes):
    """Refine every eligible class with both signs, and check each
    witness: it contracts the refined graph, and pushes the lift onto a
    spin graph isomorphic to the full-set structure with that sign on
    the input graph, as the spin keys tell."""
    refined = 0
    skipped = 0
    for graph in classes:
        cls = classify(graph)
        eligible = (cls.eulerian and not cls.basic and graph.genus >= 2
                    and graph.n_edges > 0)
        if not eligible:
            skipped += 1
            continue
        full = EdgeSet.full(graph)
        dec = pbar_decompose(graph, full)
        for sign in (0, 1):
            sg, witness = refine_nonbasic(graph, sign)
            target = SpinGraph(graph, SpinStructure.over(full, dec, (sign,)))
            if witness.source is not sg.graph or canonical_key(SpinGraph(
                    witness.target, push_spin(witness, sg.spin))) != \
                    canonical_key(target):
                raise VerificationError(
                    "refinement witness does not push the lift onto the "
                    "full-set structure", (canonical_key(graph),
                                           f"sign={sign}"))
            refined += 1
    return [{"name": "refinement-postconditions", "status": "pass",
             "refined": refined, "ineligible": skipped}]


def run_suites(g, n, suite, budget_edges=None, fuzz=1000, seed=0,
               seconds=None, phases=None):
    """Run the selected suites over one enumeration of the classes and at
    most one spin poset, built when a suite first reads it.

    When ``seconds`` is a dict, it receives the time each suite that ran
    took, by suite name; a suite that first reads the spin poset includes
    its build.  When ``phases`` is a dict, it receives, for each phase
    that ran, its seconds paired with the process's peak RSS in KiB after
    it: ``enumerate`` (before any suite), ``graph_poset``,
    ``cyclic_poset``, ``spin_poset``, ``cone_complex``,
    ``direct_generator`` (only where ``3g - 3 + n`` is at most
    ``DIRECT_ORACLE_LIMIT``), ``fuzz_chains``, ``aut_factorization`` and
    ``fuzz_families``."""
    classes = _timed(phases, "enumerate", enumerate_stable_graphs, g, n,
                     budget_edges)

    @functools.cache
    def get_spin_poset():
        return _timed(phases, "spin_poset", build_spin_poset, g, n,
                      _classes=classes)

    suites = {
        "counts": lambda: suite_counts(g, classes),
        "posets": lambda: suite_posets(g, n, classes, get_spin_poset,
                                       phases),
        "functoriality": lambda: suite_functoriality(
            classes, get_spin_poset, fuzz=fuzz, seed=seed, phases=phases),
        "refine": lambda: suite_refine(classes),
    }
    checks = []
    for name, run in suites.items():
        if suite in (name, "all"):
            started = time.perf_counter()
            checks += run()
            if seconds is not None:
                seconds[name] = time.perf_counter() - started
    return checks
