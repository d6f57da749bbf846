"""Tests of the benchmark itself: corpus determinism, the checker, the span
arithmetic and the metric names.  Run with: python3 -m pytest bench"""

from __future__ import annotations

import importlib.util
import json
import random

import pytest

import check
import gen
import run
import spans

SMALL = {"census": 300, "big_regular": 4, "tree_search": 12, "general_search": 12}


@pytest.fixture(scope="module")
def gm():
    return run.import_gmbound()


def reports(gm, graphs, tmp_path) -> list:
    paths = []
    for g in graphs:
        path = tmp_path / f"{g.name}.json"
        path.write_text(g.text)
        paths.append(str(path))
    _, _, outputs = run.run_pass(run.Pipeline(gm), graphs, paths)
    return outputs


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_corpus(workload):
    make = gen.WORKLOADS[workload]
    first = [g.text for g in make(5, SMALL[workload])]
    assert first == [g.text for g in make(5, SMALL[workload])]
    assert first != [g.text for g in make(6, SMALL[workload])]


def test_census_draws_follow_the_test_suite_generator():
    path = run.ROOT / "tests" / "sample_graphs.py"
    if not path.exists():
        pytest.skip("tests/sample_graphs.py is not present")
    spec = importlib.util.spec_from_file_location("sample_graphs", path)
    sample_graphs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample_graphs)
    from gmbound import graph_to_json

    a, b = random.Random(20260401), random.Random(20260401)
    for _ in range(300):
        want = graph_to_json(sample_graphs.random_valid_graph(a, 5, 7, 7, 4, 0.4))
        assert json.dumps(gen.census_draw(b), indent=2) + "\n" == want


def test_classification_matches_the_package(gm):
    from gmbound.spanning import capital_phi, optimal_trees

    rng = random.Random(11)
    for _ in range(400):
        doc = gen.census_draw(rng)
        g = gm.graph.graph_from_json(json.dumps(doc))
        theorem, phi, labelings = gen.classify(doc)
        assert theorem == gm.bounds.best_bound(g).theorem
        assert phi == capital_phi(g)
        if theorem == "general":
            h = {e.id for e in g.edges if gm.gl2.is_plus_minus_h(e.matrix)}
            assert labelings == sum(2 ** len(h & set(t.edge_ids)) * 6 ** phi for t in optimal_trees(g))


def test_big_regular_reference_is_the_normalized_graph(gm):
    for g in gen.big_regular(3, 3):
        normalized, _ = gm.graph.normalize_all(gm.graph.graph_from_json(g.text))
        assert gm.graph.graph_to_json(normalized) == gm.graph.graph_to_json(
            gm.graph.graph_from_json(json.dumps(g.reference)))


def test_recorded_descriptors_match_the_generators():
    recorded = json.loads(run.RECORD.read_text())
    names = [w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert recorded["default_seed"] == gen.DEFAULT_SEED
    assert sorted(recorded["workloads"]) == sorted(gen.WORKLOADS)
    assert set(names) <= set(gen.WORKLOADS)
    for name, entry in recorded["workloads"].items():
        graphs = gen.WORKLOADS[name](gen.DEFAULT_SEED)
        assert entry["descriptor"] == gen.describe(graphs)
        assert entry["oracle_confirmed"] == len(graphs)
        assert len(entry["digest"]) == 64


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def general_case(gm, tmp_path_factory):
    graphs = gen.general_search(4, 3)
    outputs = reports(gm, graphs, tmp_path_factory.mktemp("general"))
    return graphs[0], json.loads(outputs[0])


def corrupted(report: dict, change) -> str:
    copy = json.loads(json.dumps(report))
    change(copy)
    return json.dumps(copy, indent=2)


def test_checker_accepts_the_real_report(general_case):
    graph, report = general_case
    assert check.check_report(graph, json.dumps(report, indent=2)) == []
    assert check.check_oracle(graph, json.dumps(report, indent=2)) == []


def test_checker_rejects_a_wrong_total(general_case):
    graph, report = general_case

    def change(r):
        r["total"] += 1

    assert check.check_report(graph, corrupted(report, change))


def test_checker_rejects_a_witness_that_misses_min_penalty(general_case):
    graph, report = general_case

    def change(r):
        r["min_penalty"] += 1
        r["terms"]["vertices"][0]["penalty"] += 1
        r["total"] += 1

    problems = check.check_report(graph, corrupted(report, change))
    assert any("replays" in p for p in problems)

    def flip(r):
        r["witness"]["psi"] = {k: "-" if v == "+" else "+" for k, v in r["witness"]["psi"].items()}

    assert check.check_report(graph, corrupted(report, flip))


def test_checker_rejects_a_non_spanning_tree(general_case):
    graph, report = general_case

    def change(r):
        r["witness"]["tree"] = r["witness"]["tree"][:-1]

    assert "witness tree is not a spanning tree" in check.check_report(graph, corrupted(report, change))


def test_checker_rejects_a_wrong_edge_term(general_case):
    graph, report = general_case

    def change(r):
        r["terms"]["edges"][0]["value"] += 1
        r["total"] += 1

    assert check.check_report(graph, corrupted(report, change))


def test_oracle_rejects_a_suboptimal_report(general_case):
    graph, report = general_case

    def change(r):
        r["min_penalty"] += 1

    assert check.check_oracle(graph, corrupted(report, change))


def test_corrupted_report_counts_as_a_failed_run(gm, tmp_path):
    graphs = gen.general_search(4, 3)
    outputs = reports(gm, graphs, tmp_path)
    bad = list(outputs)
    bad[1] = bad[1].replace('"total": ', '"total": 1', 1)
    differs = [b != o for b, o in zip(bad, outputs)]
    failed, ok = run.check_outputs("general_search", 4, graphs, outputs, 2, differs, lambda line: None)
    assert (failed, ok) == (1, True)
    failed, _ = run.check_outputs("general_search", 4, graphs, bad, 2, [0] * len(bad), lambda line: None)
    assert failed == 2


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_self_times_add_up():
    rows = [
        (0, 0, -1, "pipeline", 0, 100),
        (0, 1, 0, "graph.validate", 10, 40),
        (0, 2, 1, "graph.degree", 15, 20),
        (0, 3, 0, "bounds.best_bound", 50, 90),
    ]
    assert spans.self_times(rows) == [30, 25, 5, 40]
    assert spans.unbalanced_graphs(rows) == []
    broken = rows + [(0, 4, 3, "bounds.tree", 80, 120)]  # ends after its parent
    assert spans.unbalanced_graphs(broken) == [0]


def test_recorder_restores_patched_functions(gm):
    original = gm.graph.degree
    recorder = spans.Recorder()
    with recorder.patched([(gm.graph, "degree", "graph.degree", False)]):
        assert gm.graph.degree is not original
        g = gm.graph.graph_from_json(gen.general_search(4, 1)[0].text)
        gm.graph.validate(g)
    assert gm.graph.degree is original
    assert recorder.names == ["graph.degree"] * len(g.vertices)


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(trace):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer"] if trace else declared["end_to_end"]
    lines: list[str] = []
    result = run.run("general_search", 4, 0.0, trace, count=8, log=lines.append)
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    for m in section:
        assert any(line.startswith(m["name"] + " ") for line in lines)
