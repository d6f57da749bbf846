from __future__ import annotations

import itertools
import math
import random

import pytest

from gmbound.bounds import CapExceeded, bound_general, bound_tree
from gmbound.gl2 import Gl2Matrix, is_plus_minus_h
from gmbound.graph import Edge, SeifertData, build_graph
from gmbound.oracle import (
    LemmaFailure,
    LemmaReport,
    _all_spanning_trees,
    _sign_extras,
    _window_penalty_sum,
    bruteforce_min_f,
    bruteforce_phi,
    verify_lemma,
)
from gmbound.spanning import capital_phi, optimal_trees
from sample_graphs import (
    h_loops,
    h_pair,
    parallel_h,
    phi,
    random_penalized_graph,
    random_shaped_graph,
    random_valid_graph,
    single_loop,
)


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


def test_oracle_cap_messages_outgrow_no_digit_limit():
    # every count here has more digits than Python turns into a string by default
    with pytest.raises(CapExceeded) as info:
        bruteforce_min_f(h_loops(5600), "general")
    assert info.value.needed == 6**5600
    assert str(info.value) == "needs a 4358-digit number > cap 1048576 assignments"
    with pytest.raises(CapExceeded) as info:
        bruteforce_min_f(h_loops(14300), "tree")
    assert info.value.needed == 2**14300
    assert str(info.value) == "needs a 4305-digit number > cap 1048576 assignments"
    # a path of 7200 pieces joined by double edges: C(14398, 7199) subsets to check
    n = 7200
    g = build_graph({f"v{i:04d}": SeifertData(0, ((2, 1),), 0) for i in range(n)},
                    [Edge(f"e{i:04d}{j}", f"v{i:04d}", f"v{i + 1:04d}", Gl2Matrix(1, 2, 1, 1))
                     for i in range(n - 1) for j in "ab"])
    with pytest.raises(CapExceeded) as info:
        bruteforce_phi(g)
    assert info.value.needed == math.comb(2 * n - 2, n - 1)
    assert str(info.value) == "subset enumeration needs a 4333-digit number > cap 1000000 candidate sets"


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
            optimal = sum(1 for t in _all_spanning_trees(g)
                          if phi(g, tuple(e.id for e in t)) == target)
            shared += optimal > len(optimal_trees(g))
        assert result.value == production.min_penalty
        assert result.tree == production.witness_tree
        assert result.psi == production.witness_psi
        assert result.psi_prime == (production.witness_psi_prime or ())
    assert general >= 40 and shared >= 5


# (vertices, H-forest edges, closing H-edges = Phi) of the general-mode draws
_PENALIZED_GENERAL = [(2, 1, 1), (2, 1, 2), (3, 2, 1), (3, 2, 2), (3, 1, 3), (4, 3, 1), (4, 2, 2), (4, 3, 2)]


def _sign_minimizers(g, value):
    """Number of sign assignments on the H-edges whose penalty sum is value,
    counted the oracle's way."""
    h_edges = [e for e in g.edges if is_plus_minus_h(e.matrix)]
    return sum(_window_penalty_sum(g, *_sign_extras(h_edges, signs)) == value
               for signs in itertools.product("+-", repeat=len(h_edges)))


def test_min_f_matches_production_where_the_search_prunes():
    # b drawn wide, so most minima are positive and the search cuts on real
    # bounds instead of stopping at a first labeling of sum 0
    rng = random.Random(65)
    sizes = [6] * 35 + [7] * 35 + [8] * 35 + [9] * 20 + [10, 11, 12]
    cases = [(h + 1, h, 0) for h in sizes] + [_PENALIZED_GENERAL[i % 8] for i in range(172)]
    positive = tied = 0
    for n, forest, closing in cases:
        g = random_penalized_graph(rng, n, forest, closing)
        assert capital_phi(g) == closing
        if closing:
            production = bound_general(g)
            result = bruteforce_min_f(g, "general")
        else:
            production = bound_tree(g)
            result = bruteforce_min_f(g, "tree")
            if forest == 6:
                tied += _sign_minimizers(g, result.value) > 1
        assert result.value == production.min_penalty
        assert result.tree == production.witness_tree
        assert result.psi == production.witness_psi
        assert result.psi_prime == (production.witness_psi_prime or ())
        positive += result.value >= 2
    assert 3 * positive >= len(cases)
    assert tied >= 10  # the first of several minimizers is the witness


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
