from __future__ import annotations

import hashlib
import inspect
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

import gmbound
from gmbound.bounds import (
    BoundReport,
    CapExceeded,
    TheoremInapplicable,
    best_bound,
    bound_general,
    bound_regular,
    bound_tree,
)
from gmbound.gl2 import H, Gl2Matrix, is_plus_minus_h
from gmbound.graph import (
    DecompositionGraph,
    Edge,
    SeifertData,
    build_graph,
    degree_stats as _stats,
    graph_from_json,
    graph_to_json,
    is_valid,
    normalize_all,
    validate,
)
from gmbound.oracle import bruteforce_min_f, f
from gmbound.spanning import capital_phi, optimal_trees
from sample_graphs import (
    compose,
    connectivity_sweep,
    h_loops,
    h_pair,
    mirror,
    negate_half,
    parallel_h,
    power_u,
    random_penalized_graph,
    random_shaped_graph,
    random_valid_graph,
    regular_pair,
    regular_pair_shifted,
    rename_ids,
    reverse_half,
    single_loop,
)

# frozen totals for the example graphs, each confirmed against the
# brute-force oracle before being written down here
REGULAR_PAIR_BOUND = 8
REGULAR_PAIR_SHIFTED_BOUND = 7
SINGLE_LOOP_BOUND = 9
H_PAIR_BOUND = 7
H_PAIR_EXCLUDED_BOUND = 6
PARALLEL_H_BOUND = 12

FIXTURES = Path(__file__).parent / "fixtures"

# sha256 over the best_bound and bound_general report bytes of the
# criterion-4 pool and the (normalized) fixtures: pins totals, breakdowns
# and witnesses byte for byte, tie-breaking included
REPORT_DIGEST = "aa40a587b162d4f023cd3ff227fc7e07d5dfd1c2f8aad564a8bc83aa62afebcb"


# ---------------------------------------------------------------------------
# the penalty function
# ---------------------------------------------------------------------------


def test_f_values():
    assert f(-1, 0, -3) == 2
    assert f(-1, 0, 2) == 2
    assert f(-1, 0, 0) == 0
    assert f(-1, 0, -1) == 0
    assert f(1, 2, 1) == 0
    assert f(-2, -1, -4) == 2


def test_f_rejects_bad_windows():
    with pytest.raises(ValueError):
        f(0, 0, 0)  # m == M
    with pytest.raises(ValueError):
        f(2, 3, 0)  # m > 1
    with pytest.raises(ValueError):
        f(-3, -2, 0)  # M < -1


def test_invalid_labeled_windows_are_rejected():
    # v2 has no fibres and one H-edge end: every sign leaves m >= M there
    leaf = build_graph(
        {"v1": SeifertData(0, ((2, 1), (2, 1)), 0), "v2": SeifertData(0, (), 0)},
        [Edge("e1", "v1", "v2", H)],
    )
    for evaluate in (best_bound, bound_tree, bound_general):
        with pytest.raises(ValueError, match="invalid penalty window"):
            evaluate(leaf)
    # a bare H-loop: ++ leaves a valid window, +- does not
    loop = build_graph({"v1": SeifertData(0, (), 0)}, [Edge("e1", "v1", "v1", H)])
    for evaluate in (best_bound, bound_general):
        with pytest.raises(ValueError, match="invalid penalty window"):
            evaluate(loop)


def test_vertices_with_only_h_edges_may_start_from_an_empty_window():
    # m = M before any label, at -1 (two fibres) and at 0 (one handle); each
    # label widens it, so every labeled window is valid
    for piece in (SeifertData(0, ((2, 1), (2, 1)), 0), SeifertData(-1, (), 1)):
        g = build_graph({"v1": piece, "v2": piece}, [Edge("e1", "v1", "v2", H)])
        stats = _stats(g)["v1"]
        assert stats.d_plus == stats.d_minus == 0
        for evaluate, mode in ((best_bound, "tree"), (bound_general, "general")):
            report = evaluate(g)
            expected = bruteforce_min_f(g, mode)
            assert report.min_penalty == expected.value
            assert report.witness_psi == expected.psi


def test_disjoint_h_edges_are_searched_fast():
    # 16 H-edges, each between two pieces of its own, in a chain: 2^16 sign
    # assignments, which the exhaustive loop scored one by one in 0.3 s
    rng = random.Random(16)
    ids = [f"v{i:02d}" for i in range(32)]
    vertices = {vid: SeifertData(0, ((2, 1), (3, 1)), rng.randint(-4, 4)) for vid in ids}
    edges = [Edge(f"e{i:02d}", ids[i], ids[i + 1], H if i % 2 == 0 else Gl2Matrix(1, 2, 1, 1))
             for i in range(31)]
    g = build_graph(vertices, edges)
    start = time.perf_counter()
    report = best_bound(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    assert report.theorem == "tree"
    assert report.min_penalty == 30
    assert len(report.witness_psi) == 16


# ---------------------------------------------------------------------------
# the three evaluators on the example graphs
# ---------------------------------------------------------------------------


def _check_sums(report: BoundReport) -> None:
    total = (
        report.cycle_term
        + report.phi_term
        + sum(v for _, v in report.edge_terms)
        + sum(t.total for _, t in report.vertex_terms)
    )
    assert report.total == total
    assert report.min_penalty == sum(t.penalty for _, t in report.vertex_terms)


def test_regular_pair():
    report = bound_regular(regular_pair())
    assert report.total == REGULAR_PAIR_BOUND
    assert report.theorem == "regular"
    assert report.cycle_term == 0 and report.phi_term == 0
    assert report.edge_terms == (("e1", 1),)
    assert dict(report.vertex_terms)["v1"].penalty == 0
    assert dict(report.vertex_terms)["v2"].penalty == 1
    assert report.witness_tree is None and report.witness_psi is None
    _check_sums(report)


def test_regular_pair_shifted():
    # the evaluator itself accepts any structurally sound graph, even one
    # that validation would reject as an excluded small pairing
    report = bound_regular(regular_pair_shifted())
    assert report.total == REGULAR_PAIR_SHIFTED_BOUND
    assert report.min_penalty == 0
    _check_sums(report)


def test_single_loop():
    report = bound_regular(single_loop())
    assert report.total == SINGLE_LOOP_BOUND
    assert report.cycle_term == 5
    assert report.edge_terms == (("e1", 1),)
    _check_sums(report)


def test_regular_rejects_mirror_edges():
    with pytest.raises(TheoremInapplicable):
        bound_regular(h_pair())


def test_h_pair():
    report = bound_tree(h_pair())
    assert report.total == H_PAIR_BOUND
    assert report.min_penalty == 1
    assert report.witness_psi == (("e1", "+"),)
    assert report.witness_tree is None and report.witness_psi_prime is None
    assert report.edge_terms == ()
    _check_sums(report)


def test_h_pair_excluded_labels():
    report = bound_tree(h_pair(0, 0))
    assert report.total == H_PAIR_EXCLUDED_BOUND
    assert report.min_penalty == 0
    _check_sums(report)


def test_tree_rejects_leftover_mirror_edges():
    with pytest.raises(TheoremInapplicable):
        bound_tree(parallel_h())


def test_parallel_h():
    report = bound_general(parallel_h())
    assert report.total == PARALLEL_H_BOUND
    assert report.phi_term == 1
    assert report.witness_tree == ("e1",)
    assert report.witness_psi == (("e1", "+"),)
    assert report.witness_psi_prime == (("e2", "++"),)
    assert report.min_penalty == 0
    _check_sums(report)


def test_best_bound_dispatch():
    assert best_bound(regular_pair()).theorem == "regular"
    assert best_bound(h_pair()).theorem == "tree"
    assert best_bound(parallel_h()).theorem == "general"


NO_TREE = "graph has no spanning tree (disconnected)"


def test_every_evaluator_refuses_a_graph_without_a_spanning_tree():
    piece = SeifertData(0, ((2, 1), (2, 1)), 0)
    four = {f"v{i}": piece for i in range(1, 5)}
    regular = Gl2Matrix(1, 2, 1, 1)
    two_h_edges = build_graph(four, [Edge("e1", "v1", "v2", H), Edge("e2", "v3", "v4", H)])
    two_regular_pairs = build_graph(four, [Edge("e1", "v1", "v2", regular), Edge("e2", "v3", "v4", regular)])
    h_free = (best_bound, bound_regular, bound_tree, bound_general)
    for g, evaluators in ((two_h_edges, (best_bound, bound_tree, bound_general)),
                          (two_regular_pairs, h_free),
                          (DecompositionGraph({}, ()), h_free)):
        for evaluate in evaluators:
            with pytest.raises(ValueError) as info:
                evaluate(g)
            assert str(info.value) == NO_TREE, (evaluate.__name__, graph_to_json(g))


def test_the_evaluators_refuse_exactly_the_disconnected_graphs():
    # the graphs of test_connectivity_verdict_matches_a_plain_traversal; with
    # the cap raised, a connected graph gets a total or an invalid window
    outcomes = {"refused": 0, "total": 0, "window": 0}
    for g in connectivity_sweep():
        disconnected = any(v.clause == "connectivity" for v in validate(g))
        try:
            best_bound(g, assignment_cap=2**40)
            outcome = "total"
        except ValueError as error:
            outcome = "refused" if str(error) == NO_TREE else "window"
        assert (outcome == "refused") == disconnected, graph_to_json(g)
        outcomes[outcome] += 1
    assert outcomes["refused"] >= 150 and outcomes["total"] >= 150, outcomes


def test_report_json_dict():
    d = bound_general(parallel_h()).to_json_dict()
    assert d["total"] == PARALLEL_H_BOUND
    assert d["witness"]["tree"] == ["e1"]
    assert d["witness"]["psi"] == {"e1": "+"}
    assert d["witness"]["psi_prime"] == {"e2": "++"}
    assert d["terms"]["phi"] == 1


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------


def test_tree_assignment_cap():
    with pytest.raises(CapExceeded) as info:
        bound_tree(h_pair(), assignment_cap=1)
    assert info.value.needed == 2


def test_general_assignment_cap():
    with pytest.raises(CapExceeded) as info:
        bound_general(parallel_h(), assignment_cap=5)
    assert info.value.needed == 12  # 2^1 * 6^1 per optimal tree


def test_assignment_cap_is_checked_before_any_tree(monkeypatch):
    def no_trees(*args, **kwargs):
        raise AssertionError("optimal trees enumerated before the assignment cap was checked")

    monkeypatch.setattr("gmbound.bounds.optimal_trees", no_trees)
    for search in (bound_general, best_bound):
        with pytest.raises(CapExceeded) as info:
            search(parallel_h(), assignment_cap=5)
        assert info.value.needed == 12


def test_the_assignment_cap_is_the_only_search_budget(monkeypatch):
    # the tree scan checks comb(|H|, Phi) <= 2^|H| <= 2^(|H|-Phi) * 6^Phi
    # subsets, so the assignment cap checked before it is its only limit
    assert list(inspect.signature(optimal_trees).parameters) == ["g"]
    seen = []

    def recording(*args, **kwargs):
        seen.append((args, kwargs))
        return optimal_trees(*args, **kwargs)

    monkeypatch.setattr("gmbound.bounds.optimal_trees", recording)
    g = parallel_h()
    for cap in (12, 10**7):
        assert best_bound(g, assignment_cap=cap).total == 12
    assert seen == [((g,), {}), ((g,), {})]


def test_the_cap_is_keyword_only():
    # an old positional tree cap must not silently become the assignment cap
    with pytest.raises(TypeError):
        best_bound(parallel_h(), tree_cap=5)
    with pytest.raises(TypeError):
        bound_general(parallel_h(), 5)
    with pytest.raises(TypeError):
        bound_tree(h_pair(), 5)


def test_cap_message_outgrows_no_digit_limit():
    # 6^5600 has 4358 digits, more than Python turns into a string by default
    with pytest.raises(CapExceeded) as info:
        best_bound(h_loops(5600))
    assert info.value.needed == 6**5600
    assert str(info.value) == "assignment search needs a 4358-digit number > cap 1048576 assignments"
    with pytest.raises(CapExceeded) as info:
        bound_general(h_loops(200), assignment_cap=10**150)
    assert str(info.value) == "assignment search needs a 156-digit number > cap a 151-digit number assignments"


# ---------------------------------------------------------------------------
# agreement between the evaluators on their common ground
# ---------------------------------------------------------------------------


def test_general_specializes_to_tree_and_regular():
    rng = random.Random(31)
    seen_tree = seen_regular = 0
    for _ in range(60):
        g = random_valid_graph(rng, max_edges=5)
        general = bound_general(g)
        if capital_phi(g) == 0:
            seen_tree += 1
            tree = bound_tree(g)
            assert general.total == tree.total
            assert general.min_penalty == tree.min_penalty
        if not any(v.d_zero for v in _stats(g).values()):
            seen_regular += 1
            assert bound_regular(g).total == general.total
    assert seen_tree > 0 and seen_regular > 0


def test_bound_invariant_under_normalization_moves():
    rng = random.Random(47)
    for _ in range(30):
        g = random_valid_graph(rng, max_edges=5)
        reference = best_bound(g)
        # un-normalize every edge with random shifts, then normalize back
        edges = []
        vertices = dict(g.vertices)
        for e in g.edges:
            k = rng.randint(-3, 3)
            h = rng.randint(-3, 3)
            messy = compose(power_u(-h), compose(e.matrix, power_u(-k)))
            edges.append(replace(e, matrix=messy))
            vertices[e.src] = replace(vertices[e.src], b=vertices[e.src].b - k)
            vertices[e.dst] = replace(vertices[e.dst], b=vertices[e.dst].b + h)
        messy_graph = build_graph(vertices, edges)
        restored, _ = normalize_all(messy_graph)
        assert restored == g
        assert best_bound(restored).total == reference.total


def test_bound_invariant_under_presentation():
    # new ids, edges read the other way and negated matrices write down the
    # same manifold, so the total must not move; on graphs of up to 40
    # pieces and 18 H-edges, past the oracles' reach, where renaming changes
    # the order in which the search meets the edges
    rng = random.Random(20261018)
    graphs = []
    for _ in range(300):
        closing = rng.randint(0, 2)
        n = rng.randint(15, 40)
        graphs.append(random_penalized_graph(rng, n, rng.randint(0, min(n - 1, 18 - 4 * closing)), closing))
    for shape in ("components", "star", "parallel", "loops"):
        graphs += [random_shaped_graph(rng, shape) for _ in range(50)]
    start = time.perf_counter()
    for g in graphs:
        reference = best_bound(g)
        renamed, reversed_, negated = rename_ids(g, rng), reverse_half(g, rng), negate_half(g, rng)
        assert is_valid(renamed) and is_valid(reversed_) and is_valid(negated)
        reports = [best_bound(h) for h in (renamed, reversed_, negated)]
        assert [r.total for r in reports] == [reference.total] * 3
        assert reports[0].min_penalty == reference.min_penalty
    assert time.perf_counter() - start < 15
    assert {capital_phi(g) for g in graphs} == {0, 1, 2}


def test_bound_invariant_under_orientation_reversal():
    # Matveev complexity does not see orientation, so the mirror graph of
    # each graph of the presentation sweep (same seed, same draws) gets the
    # same theorem, total, Phi and least penalty sum.  Per-vertex penalties
    # and witnesses may move between vertices of equal sum, so they are not
    # compared.  Unlike the oracle sweeps, this catches d+ and d- swapped in
    # the windows of both the bounds and the oracle
    rng = random.Random(20261018)
    graphs = []
    for _ in range(300):
        closing = rng.randint(0, 2)
        n = rng.randint(15, 40)
        graphs.append(random_penalized_graph(rng, n, rng.randint(0, min(n - 1, 18 - 4 * closing)), closing))
    for shape in ("components", "star", "parallel", "loops"):
        graphs += [random_shaped_graph(rng, shape) for _ in range(50)]
    for g in graphs:
        mirrored = mirror(g)
        assert is_valid(mirrored)
        assert mirror(mirrored) == g
        reference, report = best_bound(g), best_bound(mirrored)
        assert ((report.theorem, report.total, report.phi_term, report.min_penalty)
                == (reference.theorem, reference.total, reference.phi_term, reference.min_penalty))


def test_one_bound_classifies_each_edge_at_most_twice(monkeypatch):
    # graph._split tells H-edges from the others once per bound, and
    # optimal_trees, which takes the graph alone, once more; gl2's own
    # binding prices non-H labels by another rule and is left alone
    rng = random.Random(22)
    graphs = [normalize_all(graph_from_json(path.read_text()))[0] for path in sorted(FIXTURES.glob("*.json"))]
    graphs = [g for g in graphs if is_valid(g)] + [random_valid_graph(rng) for _ in range(300)]
    calls = []

    def counting(m):
        calls.append(m)
        return is_plus_minus_h(m)

    for module in (gmbound.graph, gmbound.spanning, gmbound.bounds):
        if hasattr(module, "is_plus_minus_h"):
            monkeypatch.setattr(module, "is_plus_minus_h", counting)
    theorems = set()
    for g in graphs:
        calls.clear()
        theorems.add(best_bound(g).theorem)
        assert len(calls) <= 2 * len(g.edges), graph_to_json(g)
    assert theorems == {"regular", "tree", "general"}


def test_report_bytes_pinned():
    rng = random.Random(20260401)
    graphs = [
        random_valid_graph(rng, max_vertices=5, max_edges=7, p_max=7, b_max=4, h_probability=0.4)
        for _ in range(1000)
    ]
    graphs += [normalize_all(graph_from_json(path.read_text()))[0]
               for path in sorted(FIXTURES.glob("*.json"))]
    digest = hashlib.sha256()
    for g in graphs:
        for evaluate in (best_bound, bound_general):
            digest.update(json.dumps(evaluate(g).to_json_dict(), indent=2).encode() + b"\n")
    assert digest.hexdigest() == REPORT_DIGEST
