"""The agreement table: every cross-check that sweeps a seeded corpus, as one
(corpus, check) row.

A corpus is one of sample_graphs.CORPORA, drawn and bounded once per
session.  A check takes a graph, the report its evaluator gives for it and
the rewrites drawn with it; it asserts on that graph and returns tags, which
the row counts.  Where a corpus must reach some cases for its row to mean
anything, EXPECT holds what the counts must show.
"""

from __future__ import annotations

import collections
import itertools
import time

import pytest

from gmbound.bounds import best_bound, bound_general
from gmbound.gl2 import is_plus_minus_h
from gmbound.graph import is_valid, normalize_all
from gmbound.oracle import _all_spanning_trees, _sign_extras, _window_penalty_sum, bruteforce_min_f, replay
from gmbound.spanning import capital_phi
from sample_graphs import CORPORA, corpus, mirror, optimal_tree_ids, phi, reports


def _oracle(g, report, rewrites):
    """The brute force's least penalty sum and first minimizer are the
    report's.  Tags minima of 2 or more, general graphs, those whose optimal
    trees share H-edges, and tree graphs of up to six H-edges (2^6 sign sums
    to recount) with several least sign assignments."""
    result = bruteforce_min_f(g, "general" if report.theorem == "general" else "tree")
    assert ((result.value, result.tree, result.psi, result.psi_prime)
            == (report.min_penalty, report.witness_tree, report.witness_psi or (), report.witness_psi_prime or ()))
    tags = ["positive"] * (result.value >= 2)
    if report.phi_term:
        optimal = sum(1 for t in _all_spanning_trees(g) if phi(g, tuple(e.id for e in t)) == report.phi_term)
        tags += ["general"] + ["shared"] * (optimal > len(optimal_tree_ids(g)))
    elif report.theorem == "tree" and len(report.witness_psi) <= 6:
        h_edges = [e for e in g.edges if is_plus_minus_h(e.matrix)]
        tied = sum(_window_penalty_sum(g, *_sign_extras(h_edges, signs)) == result.value
                   for signs in itertools.product("+-", repeat=len(h_edges)))
        tags += ["tied"] * (tied > 1)
    return tags


def _replay(g, report, rewrites):
    """The report's every term is the formula's value at its own witness."""
    assert replay(g, report) == []
    return [report.theorem]


def _rewrites(g, report, rewrites):
    """Rewrites write down the same manifold, so the total does not move,
    nor, under new ids (the first rewrite), the least penalty sum.  Tags
    Phi."""
    assert all(is_valid(h) for h in rewrites)
    moved = [best_bound(h) for h in rewrites]
    assert [r.total for r in moved] == [report.total] * len(rewrites)
    assert moved[0].min_penalty == report.min_penalty
    return [capital_phi(g)]


def _mirror(g, report, rewrites):
    """Matveev complexity does not see orientation, so the mirror graph gets
    the same theorem, total, Phi and least penalty sum.  Per-vertex
    penalties and witnesses may move between vertices of equal sum, so they
    are not compared.  Unlike the oracle rows, this catches d+ and d-
    swapped in the windows of both the bounds and the oracle."""
    mirrored = mirror(g)
    assert is_valid(mirrored) and mirror(mirrored) == g
    other = best_bound(mirrored)
    assert ((other.theorem, other.total, other.phi_term, other.min_penalty)
            == (report.theorem, report.total, report.phi_term, report.min_penalty))
    return []


def _round_trip(g, report, rewrites):
    """normalize_all brings the un-normalized graph back, bound and all."""
    restored, _ = normalize_all(*rewrites)
    assert restored == g and best_bound(restored).total == report.total
    return []


# name: (the evaluator whose reports the check reads, the check)
CHECKS = {
    "oracle": (best_bound, _oracle),
    "replay": (best_bound, _replay),
    "replay_general": (bound_general, _replay),
    "rewrites": (best_bound, _rewrites),
    "mirror": (best_bound, _mirror),
    "round_trip": (best_bound, _round_trip),
}

ROWS = ([(name, "oracle") for name, spec in CORPORA.items() if spec.oracle]
        + [(name, "replay") for name in CORPORA]
        + [("criterion4", "replay_general"), ("presentation", "rewrites"), ("presentation", "mirror"),
           ("normalization", "round_trip")])

EXPECT = {
    **{(shape, "oracle"): lambda n: n["general"] >= 40 and n["shared"] >= 5
       for shape in ("components", "star", "parallel", "loops")},
    ("pruning", "oracle"): lambda n: 3 * n["positive"] >= len(corpus("pruning")) and n["tied"] >= 10,
    ("presentation", "replay"): lambda n: set(n) == {"regular", "tree", "general"},
    ("presentation", "rewrites"): lambda n: set(n) == {0, 1, 2},
}


@pytest.mark.parametrize("name, check", ROWS)
def test_row(name, check):
    evaluate, run = CHECKS[check]
    start = time.perf_counter()
    counts = collections.Counter()
    for (g, rewrites), report in zip(corpus(name), reports(name, evaluate)):
        counts.update(run(g, report, rewrites))
    assert time.perf_counter() - start < 15
    assert EXPECT.get((name, check), lambda n: True)(counts), counts
