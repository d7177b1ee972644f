"""Acceptance suite: exact desk-scale targets, zero tolerance.

Each test covers one criterion and prints a single summary line.  The
expensive enumerations are shared with the other read-only tests of the
session (``shared_classes``), and the spin posets through a
module-scoped cache.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from spinmod.morphisms import order_test
from spinmod.posets import (build_spin_poset, max_rank, poset_stats,
                            stable_graphs_direct)
from spinmod.spin import spin_count_check, stratum_counts
from spinmod.tropical import TropicalCurve, build_cone_complex, pi_trop, pi_trop_fiber
from spinmod.verify import (check_aut_factorization, fuzz_contraction_chains,
                            fuzz_families, suite_refine)

from conftest import make_one_loop_one_leg, make_theta

COUNTING_RANGE = [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
                  (3, 0), (3, 1), (3, 2)]
POSET_RANGE = [(0, 3), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
REFINE_RANGE = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]


@pytest.fixture(scope="module")
def cache(shared_classes):
    return {"classes": shared_classes, "posets": {}}


def classes_at(cache, g, n):
    return cache["classes"](g, n)


def poset_at(cache, g, n):
    if (g, n) not in cache["posets"]:
        cache["posets"][(g, n)] = build_spin_poset(
            g, n, _classes=classes_at(cache, g, n))
    return cache["posets"][(g, n)]


def report(num, name, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


def test_01_counting_identity(cache):
    started = time.time()
    total_graphs = 0
    for g, n in COUNTING_RANGE:
        expected = 2 ** (2 * g)
        for graph in classes_at(cache, g, n):
            sc = stratum_counts(graph)
            assert sc.grand_total == expected
            for row in sc.rows:
                assert row["points"] * row["length"] == \
                    2 ** (graph.b1 + 2 * graph.total_weight())
            total_graphs += 1
    report(1, "stratum counting identity",
           f"{total_graphs} graphs, {time.time() - started:.1f}s")


def test_02_spin_count_identities(cache):
    total = 0
    for g, n in COUNTING_RANGE:
        for graph in classes_at(cache, g, n):
            spin_count_check(graph)
            total += 1
    report(2, "spin structure counts and parity splits", f"{total} graphs")


def test_03_enumeration_ground_truth(cache):
    assert len(classes_at(cache, 1, 1)) == 2
    assert len(classes_at(cache, 2, 0)) == 7
    assert len(stable_graphs_direct(1, 1)) == 2
    assert len(stable_graphs_direct(2, 0)) == 7
    assert len(poset_at(cache, 1, 1).nodes) == 5
    top = [nd for nd in poset_at(cache, 2, 0).nodes if nd.rank == 3]
    assert len(top) == 9
    assert sum(1 for nd in top if nd.parity == 0) == 6
    assert sum(1 for nd in top if nd.parity == 1) == 3
    report(3, "enumeration ground truth",
           "|S_1,1|=2 |S_2,0|=7 spin(1,1)=5 top(2,0)=9=6+3")


def test_04_cone_complex_structure(cache):
    for g, n in POSET_RANGE:
        poset = poset_at(cache, g, n)
        stats = poset_stats(poset)
        rep = build_cone_complex(poset)
        assert rep["pure"]
        assert rep["dimension"] == max_rank(g, n)
        assert rep["components"] == (2 if g > 0 else 1)
        assert stats["components"] == (2 if g > 0 else 1)
        # faces follow the poset order: cell j is a face of cell i
        # exactly when poset.leq(i, j), which the witness search confirms
        # on sample pairs
        size = len(poset.nodes)
        pairs = {(i, (3 * i + 1) % size) for i in range(min(size, 8))}
        for i, j in sorted(pairs):
            in_order = poset.leq(i, j)
            witness = order_test(poset.nodes[i].rep, poset.nodes[j].rep)
            assert (witness is not None) == in_order, (g, n, i, j)
    report(4, "cone complex purity, components, face relation",
           f"{len(POSET_RANGE)} spaces")


def test_05_fiber_cardinalities():
    one_loop = make_one_loop_one_leg()
    fiber = pi_trop_fiber(TropicalCurve(one_loop, [Fraction(1)]))
    assert len(fiber) == 3
    theta = make_theta()
    generic = pi_trop_fiber(TropicalCurve(
        theta, [Fraction(1), Fraction(2), Fraction(3)]))
    assert len(generic) == 7
    constant = pi_trop_fiber(TropicalCurve(
        theta, [Fraction(1), Fraction(1), Fraction(1)]))
    assert len(constant) == 3
    for curve, fib in [(TropicalCurve(one_loop, [Fraction(1)]), fiber)]:
        for rep in fib:
            assert pi_trop(rep) == curve
    report(5, "forgetful-map fiber cardinalities", "3 / 7 / 3")


def test_06_functoriality_chains(cache):
    for g, n in [(1, 1), (2, 0), (2, 1), (3, 0)]:
        fuzz_contraction_chains(classes_at(cache, g, n), count=1000, seed=0)
    report(6, "pushforward functoriality", "1000 chains x 4 spaces")


def test_07_aut_order_factorization(cache):
    total = 0
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
        total += check_aut_factorization(poset_at(cache, g, n))[0]
    report(7, "automorphism order factorization",
           f"{total} spin classes")


def test_08_refinement(cache):
    total = 0
    for g, n in REFINE_RANGE:
        out = suite_refine(classes_at(cache, g, n))
        total += out[0]["refined"]
    assert total > 0
    report(8, "refinement of non-basic Eulerian graphs",
           f"{total} refinements verified")


def test_09_family_diagram(cache):
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
        fuzz_families(poset_at(cache, g, n), count=100, seed=0)
    report(9, "tropicalization diagram on fuzzed families",
           "100 families x 5 spaces")


def test_10_whole_suite_runtime():
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "spinmod.cli", "verify", "--g", "3",
         "--n", "0", "--suite", "all"],
        capture_output=True, text=True)
    elapsed = time.time() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 600
    body = json.loads(proc.stdout)
    assert body["failed"] == 0
    report(10, "whole-suite runtime", f"{elapsed:.1f}s < 600s")
