from __future__ import annotations

import random

import pytest

from gmbound.bounds import bound_general, bound_tree
from gmbound.gl2 import Gl2Matrix
from gmbound.oracle import (
    LemmaFailure,
    LemmaReport,
    bruteforce_min_f,
    bruteforce_phi,
    verify_lemma,
)
from gmbound.spanning import CapExceeded, capital_phi, iter_spanning_trees, optimal_trees, phi
from sample_graphs import h_pair, parallel_h, random_shaped_graph, random_valid_graph, single_loop


def test_bruteforce_phi_examples():
    assert bruteforce_phi(parallel_h()) == 1
    assert bruteforce_phi(single_loop()) == 0
    assert bruteforce_phi(h_pair()) == 0


def test_min_f_tree_mode():
    result = bruteforce_min_f(h_pair(), "tree")
    assert result.value == 1
    assert result.tree is None
    assert result.psi == (("e1", "+"),)
    assert result.psi_prime == ()
    assert bound_tree(h_pair()).min_penalty == 1


def test_min_f_general_mode():
    result = bruteforce_min_f(parallel_h(), "general")
    production = bound_general(parallel_h())
    assert result.value == production.min_penalty == 0
    assert result.tree == production.witness_tree == ("e1",)
    assert result.psi == production.witness_psi == (("e1", "+"),)
    assert result.psi_prime == production.witness_psi_prime == (("e2", "++"),)


def test_min_f_rejects_unknown_mode():
    with pytest.raises(ValueError):
        bruteforce_min_f(h_pair(), "fast")


def test_min_f_assignment_cap():
    with pytest.raises(CapExceeded):
        bruteforce_min_f(h_pair(), "tree", assignment_cap=1)
    with pytest.raises(CapExceeded):
        bruteforce_min_f(parallel_h(), "general", assignment_cap=5)


def test_min_f_matches_production_sweep():
    rng = random.Random(59)
    for _ in range(1000):
        g = random_valid_graph(rng, max_edges=5)
        if capital_phi(g) == 0:
            production = bound_tree(g)
            result = bruteforce_min_f(g, "tree")
        else:
            production = bound_general(g)
            result = bruteforce_min_f(g, "general")
        assert result.value == production.min_penalty
        assert result.tree == production.witness_tree
        assert result.psi == production.witness_psi
        assert result.psi_prime == (production.witness_psi_prime or ())


@pytest.mark.parametrize("shape, seed", [("components", 61), ("star", 62), ("parallel", 63), ("loops", 64)])
def test_min_f_matches_production_on_h_shapes(shape, seed):
    # the H-edge shapes that decide which optimal trees share their H-edges
    rng = random.Random(seed)
    general = shared = 0
    for _ in range(100):
        g = random_shaped_graph(rng, shape)
        target = capital_phi(g)
        if target == 0:
            production = bound_tree(g)
            result = bruteforce_min_f(g, "tree")
        else:
            general += 1
            production = bound_general(g)
            result = bruteforce_min_f(g, "general")
            optimal = sum(1 for t in iter_spanning_trees(g) if phi(g, t) == target)
            shared += optimal > len(optimal_trees(g))
        assert result.value == production.min_penalty
        assert result.tree == production.witness_tree
        assert result.psi == production.witness_psi
        assert result.psi_prime == (production.witness_psi_prime or ())
    assert general >= 40 and shared >= 5


def test_verify_lemma_small():
    report = verify_lemma(8)
    assert report.ok
    assert report.h_cases_ok
    assert report.failures == ()
    # two matrices (m and -m) per unit delta mod beta, beta = 2..8
    assert report.checked == 2 * (1 + 2 + 2 + 4 + 2 + 6 + 4)


def test_lemma_report_flags_failures():
    bad = LemmaFailure(Gl2Matrix(0, 1, 1, 0), 0, 1, 1)
    assert not LemmaReport(5, 1, True, (bad,)).ok
    assert not LemmaReport(5, 1, False, ()).ok
    assert LemmaReport(5, 1, True, ()).ok


def test_verify_lemma_direct_distance_column():
    # the report only exists when formula, search and the single direct
    # distance all agree, so a passing run pins all three routes at once
    assert verify_lemma(12).ok
