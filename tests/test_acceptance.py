"""Acceptance suite: one test per criterion, exact checks throughout.

Each test prints a single "criterion N PASS" line with its headline numbers;
under pytest -v the test names give the per-criterion pass/fail lines.  The
frozen totals in criterion 5 were each confirmed through the brute-force
oracle route before being written down.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

from gmbound.bounds import bound_general, bound_regular, bound_tree
from gmbound.farey import complexity_by_search
from gmbound.gl2 import H, cf_sum, is_normalized, is_plus_minus_h, normalize
from gmbound.graph import degree_stats, graph_from_json, graph_to_json
from gmbound.oracle import bruteforce_min_f, bruteforce_phi, verify_lemma
from gmbound.seifert import handle_count
from gmbound.spanning import capital_phi
from sample_graphs import (
    h_pair,
    optimal_tree_ids,
    parallel_h,
    random_det_minus_one_matrix,
    random_multigraph,
    random_valid_graph,
    regular_pair,
    regular_pair_shifted,
    single_loop,
)

FIXTURES = Path(__file__).parent / "fixtures"

# instances from the worked examples with their frozen totals
FROZEN = (
    (regular_pair, 8),
    (regular_pair_shifted, 7),
    (single_loop, 9),
    (parallel_h, 12),
    (h_pair, 7),
    (lambda: h_pair(0, 0), 6),
)

_CRITERION4_INSTANCES: list | None = None


def _criterion4_instances() -> list:
    """The shared instance pool for criteria 4 and 6 (same seed either way)."""
    global _CRITERION4_INSTANCES
    if _CRITERION4_INSTANCES is None:
        rng = random.Random(20260401)
        _CRITERION4_INSTANCES = [
            random_valid_graph(rng, max_vertices=5, max_edges=7, p_max=7, b_max=4,
                               h_probability=0.4)
            for _ in range(1000)
        ]
    return _CRITERION4_INSTANCES


def test_criterion_1_lemma_formula_exact():
    started = time.monotonic()
    report = verify_lemma(30)
    elapsed = time.monotonic() - started
    assert report.ok, report.failures[:3]
    assert report.h_cases_ok
    assert report.failures == ()
    assert elapsed < 60.0
    print(f"criterion 1 PASS: formula = search for {report.checked} matrices,"
          f" |beta| <= 30, {elapsed:.1f}s")


def test_criterion_2_normalization_properties():
    rng = random.Random(20260402)
    for _ in range(10_000):
        m = random_det_minus_one_matrix(rng)
        out, _, _ = normalize(m)
        assert is_normalized(out)
        assert out.beta == m.beta
        assert out.beta * out.gamma > 0
        if abs(out.beta) == 1:
            assert out in (H, -H)
        if not is_plus_minus_h(out):
            assert (out.beta > 0) == (out.delta > 0)
        again, k, h = normalize(out)
        assert again == out and k == 0 and h == 0
    print("criterion 2 PASS: 10000 random matrices, all three sign properties,"
          " idempotence, beta preserved")


def test_criterion_3_phi_oracle_equivalence():
    rng = random.Random(20260403)
    checked = 0
    for n_vertices in range(1, 6):
        for n_edges in range(max(1, n_vertices - 1), 9):
            for _ in range(30):
                g = random_multigraph(rng, n_vertices, n_edges,
                                      h_probability=rng.random())
                assert capital_phi(g) == bruteforce_phi(g)
                checked += 1
    assert checked >= 1000
    print(f"criterion 3 PASS: greedy Phi = brute force Phi on {checked} multigraphs"
          " (all shapes <= 5 vertices, <= 8 edges)")


def test_criterion_4_theorem_specialization():
    tree_checked = regular_checked = 0
    for g in _criterion4_instances():
        general = bound_general(g)
        if capital_phi(g) == 0:
            tree = bound_tree(g)
            assert general.total == tree.total
            assert general.min_penalty == tree.min_penalty
            tree_checked += 1
            if not any(is_plus_minus_h(e.matrix) for e in g.edges):
                regular = bound_regular(g)
                assert regular.total == tree.total == general.total
                regular_checked += 1
    assert len(_criterion4_instances()) >= 1000
    assert tree_checked > 0 and regular_checked > 0
    print(f"criterion 4 PASS: {len(_criterion4_instances())} valid graphs;"
          f" general = tree on {tree_checked}, all three equal on {regular_checked}")


def _oracle_total(g) -> int:
    """Full bound recomputed by the slow routes only."""
    cycle = 5 * (len(g.edges) - len(g.vertices) + 1)
    edge_sum = sum(
        complexity_by_search(e.matrix) for e in g.edges if not is_plus_minus_h(e.matrix))
    vertex_sum = 0
    for vid, s in g.vertices.items():
        d = sum((e.src == vid) + (e.dst == vid) for e in g.edges)
        r = len(s.fibres)
        h = handle_count(s)
        vertex_sum += 3 * (d + r + 2 * h - 2) + sum(cf_sum(p, q) - 2 for p, q in s.fibres)
    phi_value = bruteforce_phi(g)
    if phi_value == 0:
        return cycle + edge_sum + vertex_sum + bruteforce_min_f(g, "tree").value
    return cycle + phi_value + edge_sum + vertex_sum + bruteforce_min_f(g, "general").value


def test_criterion_5_worked_examples_frozen():
    for build, frozen in FROZEN:
        g = build()
        oracle_value = _oracle_total(g)
        if any(is_plus_minus_h(e.matrix) for e in g.edges):
            production = bound_general(g) if capital_phi(g) else bound_tree(g)
        else:
            production = bound_regular(g)
        assert oracle_value == frozen, (production.theorem, oracle_value, frozen)
        assert production.total == frozen
    print("criterion 5 PASS: worked examples give 8, 7, 9, 12 (and 7, 6 for the"
          " mirror-edge pair), oracle route and evaluators agreeing")


def _visit_windows(g) -> tuple[int, int]:
    """(window violations, labelings visited) over the labelings the
    evaluators enumerate for this graph, recomputed without calling f."""
    stats = degree_stats(g)
    h_edges = [e for e in g.edges if is_plus_minus_h(e.matrix)]
    violations = 0
    visited = 0

    def check(plus: dict[str, int], minus: dict[str, int]) -> None:
        nonlocal violations, visited
        visited += 1
        for vid, s in g.vertices.items():
            m = 1 - len(s.fibres) - handle_count(s) - stats[vid].d_minus - minus.get(vid, 0)
            M = handle_count(s) + stats[vid].d_plus + plus.get(vid, 0) - 1
            if not (m < M and m <= 1 and M >= -1):
                violations += 1

    def sign_extras(edges, values):
        plus: dict[str, int] = {}
        minus: dict[str, int] = {}
        for e, val in zip(edges, values):
            bucket = plus if val == "+" else minus
            bucket[e.src] = bucket.get(e.src, 0) + 1
            bucket[e.dst] = bucket.get(e.dst, 0) + 1
        return plus, minus

    if capital_phi(g) == 0:
        for values in itertools.product("+-", repeat=len(h_edges)):
            check(*sign_extras(h_edges, values))
        return violations, visited

    six = {
        "++": ((2, 0), (1, 0)),
        "+": ((1, 0), (2, 0)),
        "+-": ((1, 0), (0, 1)),
        "-+": ((0, 1), (1, 0)),
        "-": ((0, 1), (0, 2)),
        "--": ((0, 2), (0, 1)),
    }
    for tree in optimal_tree_ids(g):
        inside = set(tree)
        tree_h = [e for e in h_edges if e.id in inside]
        outer_h = [e for e in h_edges if e.id not in inside]
        for psi in itertools.product("+-", repeat=len(tree_h)):
            base_plus, base_minus = sign_extras(tree_h, psi)
            for psip in itertools.product(six, repeat=len(outer_h)):
                plus = dict(base_plus)
                minus = dict(base_minus)
                for e, val in zip(outer_h, psip):
                    (sp, sm), (tp, tm) = six[val]
                    plus[e.src] = plus.get(e.src, 0) + sp
                    minus[e.src] = minus.get(e.src, 0) + sm
                    plus[e.dst] = plus.get(e.dst, 0) + tp
                    minus[e.dst] = minus.get(e.dst, 0) + tm
                check(plus, minus)
    return violations, visited


def test_criterion_6_labeling_domain_invariant():
    total_violations = 0
    total_visited = 0
    identity_checked = 0
    for g in _criterion4_instances():
        violations, visited = _visit_windows(g)
        total_violations += violations
        total_visited += visited
        if capital_phi(g) != 0:
            continue
        # footnote identity under tree bookkeeping: every mirror-edge end
        # gets exactly one sign, so d = d+ + d- + d+_psi + d-_psi
        stats = degree_stats(g)
        h_edges = [e for e in g.edges if is_plus_minus_h(e.matrix)]
        for values in itertools.product("+-", repeat=len(h_edges)):
            psi_plus = dict.fromkeys(g.vertices, 0)
            psi_minus = dict.fromkeys(g.vertices, 0)
            for e, val in zip(h_edges, values):
                bucket = psi_plus if val == "+" else psi_minus
                bucket[e.src] += 1
                bucket[e.dst] += 1
            for vid in g.vertices:
                st = stats[vid]
                assert st.d == st.d_plus + st.d_minus + psi_plus[vid] + psi_minus[vid]
                identity_checked += 1
    assert total_violations == 0
    assert total_visited > 0
    print(f"criterion 6 PASS: 0 window violations over {total_visited} visited"
          f" labelings; degree identity checked {identity_checked} times")


def test_criterion_7_round_trip_and_determinism():
    files = sorted(FIXTURES.glob("*.json"))
    assert files
    for path in files:
        text = path.read_text()
        g = graph_from_json(text)
        assert graph_from_json(graph_to_json(g)) == g
    runs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "gmbound", "bound", "--breakdown",
             str(FIXTURES / "parallel_h.json")],
            capture_output=True,
        )
        assert result.returncode == 0
        runs.append(result.stdout + result.stderr)
    assert runs[0] == runs[1]
    print(f"criterion 7 PASS: {len(files)} fixtures round-trip; two bound runs"
          " byte-identical")
