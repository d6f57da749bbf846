from __future__ import annotations

import math
from dataclasses import replace

import pytest

from gmbound.bounds import CapExceeded, bound_general, bound_tree
from gmbound.gl2 import H, Gl2Matrix
from gmbound.graph import Edge, SeifertData, build_graph
from gmbound.oracle import LemmaFailure, LemmaReport, bruteforce_min_f, bruteforce_phi, replay, verify_lemma
from sample_graphs import h_loops, h_pair, parallel_h, single_loop


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


def test_replay_flags_each_misreported_witness():
    # a flipped sign, a dropped six-valued label, a tree that leaves one
    # H-edge too many outside (e1 traded for the non-H edge e4) and a label
    # of no alphabet, each made from a real report, are each caught by the
    # first disagreement named
    m = Gl2Matrix(1, 2, 1, 1)
    g = build_graph(dict.fromkeys(("v1", "v2", "v3"), SeifertData(0, ((2, 1), (2, 1)), -3)),
                    [Edge("e1", "v1", "v2", H), Edge("e2", "v1", "v2", H), Edge("e3", "v2", "v3", m),
                     Edge("e4", "v1", "v3", m)])
    report = bound_general(g)
    assert report.witness_tree == ("e1", "e3") and report.witness_psi + report.witness_psi_prime == (
        ("e1", "-"), ("e2", "-"))
    assert replay(g, report) == []
    for mutant, first in ((replace(report, witness_psi=(("e1", "+"),)), "vertex terms"),
                          (replace(report, witness_psi_prime=()), "labeled H-edges"),
                          (replace(report, witness_tree=("e3", "e4")), "tree H-edges"),
                          (replace(report, witness_psi=(("e1", "?"),)), "labels")):
        assert replay(g, mutant)[0].startswith(f"{first}: "), replay(g, mutant)


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
