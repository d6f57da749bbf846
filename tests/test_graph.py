from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from gmbound import gl2, graph
from gmbound.bounds import best_bound
from gmbound.gl2 import H, Gl2Matrix
from gmbound.graph import (
    DecompositionGraph,
    DegreeStats,
    Edge,
    GraphFormatError,
    SeifertData,
    Violation,
    _matches_shifted_h,
    _matches_shifted_h_transposed,
    build_graph,
    degree,
    degree_stats,
    graph_from_json,
    graph_to_json,
    is_valid,
    normalize_all,
    validate,
)
from gmbound.oracle import _all_spanning_trees, _spans, bruteforce_phi
from gmbound.spanning import capital_phi
from sample_graphs import (
    U,
    compose,
    connectivity_sweep,
    h_loops,
    h_pair,
    normalize_edge,
    parallel_h,
    power_u,
    random_multigraph,
    random_valid_graph,
    regular_pair,
    regular_pair_shifted,
    single_loop,
    two_disk_pieces,
)


FIXTURES = Path(__file__).parent / "fixtures"


def _clauses(g: DecompositionGraph, severity: str = "error") -> list[str]:
    return [v.clause for v in validate(g) if v.severity == severity]


# ---------------------------------------------------------------------------
# construction and degrees
# ---------------------------------------------------------------------------


def test_build_graph_rejects_dangling_edges():
    with pytest.raises(GraphFormatError):
        build_graph(
            {"v1": SeifertData(0, ((2, 1),), 0)},
            [Edge("e1", "v1", "v9", H)],
        )


def test_build_graph_rejects_duplicate_edge_ids():
    v = {"v1": SeifertData(0, ((2, 1),), 0)}
    with pytest.raises(GraphFormatError):
        build_graph(v, [Edge("e1", "v1", "v1", H), Edge("e1", "v1", "v1", H)])


_PIECE = SeifertData(0, ((2, 1),), 0)


@pytest.mark.parametrize("vertices, edges, message", [
    ({"": _PIECE}, [], "vertex ids must be non-empty strings"),
    ({1: _PIECE}, [], "vertex ids must be non-empty strings"),
    ({"v1": _PIECE}, [Edge("", "v1", "v1", H)], "edge ids must be non-empty strings"),
    ({"v1": _PIECE}, [Edge(7, "v1", "v1", H)], "edge ids must be non-empty strings"),
])
def test_build_graph_rejects_empty_and_non_string_ids(vertices, edges, message):
    with pytest.raises(GraphFormatError) as info:
        build_graph(vertices, edges)
    assert str(info.value) == message


def test_degree_counts_loops_twice():
    g = single_loop()
    assert degree(g, "v1") == 2
    stats = degree_stats(g)["v1"]
    assert stats == DegreeStats(d=2, d_plus=1, d_minus=1, d_zero=0)


def test_degree_stats_split_by_label():
    g = parallel_h()
    for vid in ("v1", "v2"):
        assert degree_stats(g)[vid] == DegreeStats(d=2, d_plus=0, d_minus=0, d_zero=2)
    g = regular_pair()
    assert degree_stats(g)["v1"] == DegreeStats(d=1, d_plus=1, d_minus=0, d_zero=0)
    assert degree_stats(g)["v2"] == DegreeStats(d=1, d_plus=0, d_minus=1, d_zero=0)


def test_degree_stats_h_loop():
    g = build_graph(
        {"v1": SeifertData(1, ((2, 1),), 0)},
        [Edge("e1", "v1", "v1", H)],
    )
    assert degree_stats(g)["v1"] == DegreeStats(d=2, d_plus=0, d_minus=0, d_zero=2)


def test_the_split_agrees_with_the_raw_edge_list():
    # graph._split classifies each edge once for every reader; here each of
    # its answers is recounted from e.src, e.dst and the matrix alone, and
    # its Phi and completion from every spanning tree wherever the graph
    # has one
    rng = random.Random(22)
    graphs = []
    for _ in range(300):
        n = rng.randint(1, 6)
        graphs.append(random_multigraph(rng, n, rng.randint(n - 1, n + 5), rng.random()))
    graphs += [h_loops(n) for n in range(4)] + connectivity_sweep()
    for g in graphs:
        is_h = [gl2.is_plus_minus_h(e.matrix) for e in g.edges]
        index = {vid: i for i, vid in enumerate(g.vertices)}
        split = graph._split(g)
        assert split.phi == capital_phi(g)
        # the split is the one connectivity test: it gives a completion
        # exactly when the graph is connected, and that completion holds
        # non-H ids only, in id order, and with the H-forest is one
        # spanning tree
        connected = _spans(list(g.vertices), g.edges)
        assert (split.completion is not None) == connected, graph_to_json(g)
        if connected:
            done = set(split.completion)
            assert split.completion == tuple([e.id for e, h in zip(g.edges, is_h) if e.id in done and not h])
            assert len(split.h_links) - split.phi + len(split.completion) == len(g.vertices) - 1
            assert split.phi == bruteforce_phi(g), graph_to_json(g)
            # the first tree of each class of optimal trees sharing their
            # H-edges is those H-edges plus the completion
            classes = {}
            for tree in _all_spanning_trees(g):
                ids = tuple(sorted(e.id for e in tree))
                inside = frozenset(e.id for e, h in zip(g.edges, is_h) if h and e.id in ids)
                if len(inside) == len(split.h_links) - split.phi:
                    classes.setdefault(inside, []).append(ids)
            assert classes
            assert all(min(trees) == tuple(sorted(done | inside)) for inside, trees in classes.items())
        assert split.h_links == tuple([(e.id, index[e.src], index[e.dst]) for e, h in zip(g.edges, is_h) if h])
        assert split.rest == tuple([e for e, h in zip(g.edges, is_h) if not h])
        stats = degree_stats(g)
        assert list(stats) == list(g.vertices)
        for vid in g.vertices:
            d_plus = sum(e.src == vid for e, h in zip(g.edges, is_h) if not h)
            d_minus = sum(e.dst == vid for e, h in zip(g.edges, is_h) if not h)
            d_zero = sum((e.src == vid) + (e.dst == vid) for e, h in zip(g.edges, is_h) if h)
            assert stats[vid] == DegreeStats(d_plus + d_minus + d_zero, d_plus, d_minus, d_zero), graph_to_json(g)
    assert sum(any(e.is_loop for e in g.edges) for g in graphs) >= 100


# ---------------------------------------------------------------------------
# validation clauses
# ---------------------------------------------------------------------------


def test_validate_accepts_examples():
    for g in (regular_pair(), single_loop(), h_pair(), parallel_h()):
        assert _clauses(g) == []
        assert is_valid(g)


def test_validate_rejects_empty_and_disconnected():
    g = DecompositionGraph(vertices={"v1": SeifertData(1, (), 0)}, edges=())
    assert "non-trivial" in _clauses(g)
    g = build_graph(
        {"v1": SeifertData(1, (), 0), "v2": SeifertData(1, (), 0), "v3": SeifertData(1, (), 0)},
        [Edge("e1", "v1", "v1", H)],
    )
    assert "connectivity" in _clauses(g)


def test_connectivity_verdict_matches_a_plain_traversal():
    graphs = connectivity_sweep()
    disconnected = 0
    for g in graphs:
        spans = _spans(list(g.vertices), g.edges)
        assert ("connectivity" in _clauses(g)) == (not spans), graph_to_json(g)
        disconnected += not spans
    assert 150 <= disconnected <= 350
    assert sum(any(e.is_loop for e in g.edges) for g in graphs) >= 100


def test_validate_normalization_clause():
    g = two_disk_pieces(0, 0, Gl2Matrix(5, 3, 2, 1))
    assert _clauses(g) == ["normalization"]


def test_validate_seifert_data_clause():
    g = build_graph(
        {"v1": SeifertData(0, ((4, 2), (2, 1)), 0), "v2": SeifertData(0, ((2, 1), (3, 1)), 0)},
        [Edge("e1", "v1", "v2", Gl2Matrix(1, 2, 1, 1))],
    )
    assert validate(g) == [
        Violation("seifert-data", "v1", "fibre pair (4, 2) must be coprime"),
        Violation("seifert-data", "v1", "fibre pairs must be listed in non-decreasing order"),
    ]


def test_validate_class_s_clause():
    g = two_disk_pieces(0, 0, Gl2Matrix(1, 2, 1, 1))
    bad = dict(g.vertices)
    bad["v2"] = SeifertData(0, ((2, 1),), 0)  # degree 1, single fibre
    g = DecompositionGraph(vertices=bad, edges=g.edges)
    assert _clauses(g) == ["class-S"]


def test_validate_condition_i():
    # degree-1 piece (0, (2,1), (2,1), b=-1) must not meet a mirror edge
    g = two_disk_pieces(-1, 0, H)
    assert "(i)" in _clauses(g)
    g = two_disk_pieces(0, -1, H)
    assert "(i)" in _clauses(g)
    # same piece on a non-mirror edge is fine
    g = two_disk_pieces(-1, 0, Gl2Matrix(1, 2, 1, 1))
    assert "(i)" not in _clauses(g)
    # the (i) lines of an edge name its source, then its target, whichever
    # id sorts first; edges come in id order
    piece = SeifertData(0, ((2, 1), (2, 1)), -1)
    g = build_graph({"v1": piece, "v2": piece}, [Edge("e1", "v2", "v1", H)])
    assert validate(g) == [
        Violation("(i)", "e1", "+-H gluing touches vertex v2, a (0,1,(2,1),(2,1),-1) piece"),
        Violation("(i)", "e1", "+-H gluing touches vertex v1, a (0,1,(2,1),(2,1),-1) piece"),
    ]
    g = build_graph(
        {"v1": piece, "v2": SeifertData(0, ((2, 1), (3, 1)), 0), "v3": piece},
        [Edge("e1", "v2", "v3", H), Edge("e2", "v1", "v2", -H)],
    )
    assert validate(g) == [
        Violation("(i)", "e1", "+-H gluing touches vertex v3, a (0,1,(2,1),(2,1),-1) piece"),
        Violation("(i)", "e2", "+-H gluing touches vertex v1, a (0,1,(2,1),(2,1),-1) piece"),
    ]


def test_validate_classifies_each_edge_once(monkeypatch):
    # validate reads H-ness from the graph's one split, so each edge goes
    # through is_plus_minus_h once, for exclusion (i) and (ii)(a) alike; the
    # random graphs were validated when drawn, so each is checked as a copy,
    # which keeps no split
    rng = random.Random(23)
    graphs = [graph_from_json(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    graphs += [random_valid_graph(rng) for _ in range(200)]
    calls = []

    def counting(m):
        calls.append(m)
        return gl2.is_plus_minus_h(m)

    monkeypatch.setattr(graph, "is_plus_minus_h", counting)
    for g in map(replace, graphs):
        calls.clear()
        validate(g)
        assert len(calls) == len(g.edges), graph_to_json(g)


def test_validate_condition_ii_a():
    assert _clauses(h_pair(0, 0)) == ["(ii)(a)"]
    assert _clauses(h_pair(-2, -2)) == ["(ii)(a)"]
    assert _clauses(h_pair(0, -2)) == []
    assert _clauses(h_pair(-2, 0)) == []


def test_validate_condition_ii_b():
    g = two_disk_pieces(-1, -2, Gl2Matrix(1, 3, 1, 2))
    assert _clauses(g) == ["(ii)(b)"]
    g = two_disk_pieces(-1, -2, -Gl2Matrix(1, 3, 1, 2))
    assert _clauses(g) == ["(ii)(b)"]
    assert _clauses(two_disk_pieces(-2, -1, Gl2Matrix(1, 3, 1, 2))) == []
    assert _clauses(two_disk_pieces(0, -2, Gl2Matrix(1, 3, 1, 2))) == []


def test_validate_condition_ii_c():
    g = two_disk_pieces(0, -1, Gl2Matrix(2, 3, 1, 1))
    assert _clauses(g) == ["(ii)(c)"]
    g = two_disk_pieces(0, -1, -Gl2Matrix(2, 3, 1, 1))
    assert _clauses(g) == ["(ii)(c)"]
    assert _clauses(two_disk_pieces(-1, 0, Gl2Matrix(2, 3, 1, 1))) == []


def test_validate_condition_ii_beta_two_overlap():
    # at beta = 2 the two single-edge patterns coincide, so both forbidden
    # label pairs apply to the same matrix
    m = Gl2Matrix(1, 2, 1, 1)
    assert _clauses(two_disk_pieces(-1, -2, m)) == ["(ii)(b)"]
    assert _clauses(two_disk_pieces(0, -1, m)) == ["(ii)(c)"]
    assert _clauses(two_disk_pieces(0, 0, m)) == []


def test_shifted_h_patterns_match_their_definition():
    small = range(-5, 6)
    labels = [Gl2Matrix(*x) for x in itertools.product(small, repeat=4)
              if x[0] * x[3] - x[1] * x[2] in (1, -1)]
    for m in labels:
        assert _matches_shifted_h(m) == any(
            c.beta > 1 and c.alpha == 1 and c.gamma == 1 and c.delta == c.beta - 1 for c in (m, -m))
        assert _matches_shifted_h_transposed(m) == any(
            c.beta > 1 and c.alpha == c.beta - 1 and c.gamma == 1 and c.delta == 1 for c in (m, -m))
    assert sum(map(_matches_shifted_h, labels)) == sum(map(_matches_shifted_h_transposed, labels)) == 8


def test_validate_condition_ii_needs_exact_shape():
    # conditions (ii) apply only to the two-disk pieces on a single edge
    g = build_graph(
        {
            "v1": SeifertData(0, ((2, 1), (2, 1)), 0),
            "v2": SeifertData(0, ((2, 1), (2, 1)), 0),
        },
        [Edge("e1", "v1", "v2", H), Edge("e2", "v1", "v2", Gl2Matrix(1, 2, 1, 1))],
    )
    assert _clauses(g) == []
    g = two_disk_pieces(0, 0, H)
    bad = dict(g.vertices)
    bad["v1"] = SeifertData(0, ((2, 1), (3, 1)), 0)
    assert _clauses(DecompositionGraph(vertices=bad, edges=g.edges)) == []


def test_loops_are_notes_not_errors():
    g = single_loop()
    notes = [v for v in validate(g) if v.severity == "note"]
    assert len(notes) == 1
    assert notes[0].subject == "e1"
    assert is_valid(g)


def test_validation_collects_everything():
    g = build_graph(
        {
            "v1": SeifertData(0, (), 0),  # class-S violation at degree 1
            "v2": SeifertData(0, ((2, 1), (2, 1)), 0),
        },
        [Edge("e1", "v1", "v2", Gl2Matrix(5, 3, 2, 1))],
    )
    clauses = _clauses(g)
    assert "normalization" in clauses and "class-S" in clauses


# ---------------------------------------------------------------------------
# edge normalization moves
# ---------------------------------------------------------------------------


def test_normalize_edge_shifts_end_weights():
    g = two_disk_pieces(0, 0, Gl2Matrix(5, 3, 2, 1))
    out, move = normalize_edge(g, "e1")
    assert (move.k, move.h) == (-1, 0)
    assert out.edges[0].matrix == Gl2Matrix(2, 3, 1, 1)
    assert out.vertices["v1"].b == -1
    assert out.vertices["v2"].b == 0
    assert is_valid(out)


def test_normalize_edge_loop_applies_net_shift():
    g = build_graph(
        {"v1": SeifertData(1, (), 0)},
        [Edge("e1", "v1", "v1", Gl2Matrix(3, 2, -1, -1))],
    )
    out, move = normalize_edge(g, "e1")
    assert (move.k, move.h) == (-1, 1)
    assert out.vertices["v1"].b == -2
    assert out.edges[0].matrix == Gl2Matrix(1, 2, 1, 1)


def test_normalize_all_idempotent():
    g = two_disk_pieces(0, 0, Gl2Matrix(5, 3, 2, 1))
    once, moves = normalize_all(g)
    assert [m.edge_id for m in moves] == ["e1"]
    twice, moves2 = normalize_all(once)
    assert twice == once
    assert all(m.k == 0 and m.h == 0 for m in moves2)


def _fold_normalize_edge(g: DecompositionGraph):
    moves = []
    for e in g.edges:
        g, move = normalize_edge(g, e.id)
        moves.append(move)
    return g, moves


def _denormalize(g: DecompositionGraph, rng: random.Random) -> DecompositionGraph:
    """Replace each edge matrix A by U^h * A * U^k for random h and k."""
    edges = tuple(
        Edge(e.id, e.src, e.dst,
             compose(power_u(rng.randint(-9, 9)), compose(e.matrix, power_u(rng.randint(-9, 9)))))
        for e in g.edges
    )
    return DecompositionGraph(g.vertices, edges)


def _loops_and_parallel_edges(rng: random.Random) -> DecompositionGraph:
    """Loops at both ends of parallel edges in both directions; twelve edges,
    so id order (e1, e10, e11, e12, e2, ...) differs from insertion order."""
    ends = [("v1", "v1"), ("v1", "v2"), ("v1", "v2"), ("v2", "v1"), ("v2", "v2"), ("v2", "v3"),
            ("v3", "v3"), ("v3", "v1"), ("v1", "v3"), ("v3", "v3"), ("v2", "v2"), ("v1", "v2")]
    vertices = {vid: SeifertData(0, ((2, 1),), rng.randint(-4, 4)) for vid in ("v1", "v2", "v3")}
    edges = [Edge(f"e{i + 1}", src, dst, H if i % 3 == 0 else Gl2Matrix(2, 3, 1, 1))
             for i, (src, dst) in enumerate(ends)]
    return build_graph(vertices, edges)


def test_normalize_all_equals_folding_normalize_edge():
    rng = random.Random(20261018)
    graphs = [random_valid_graph(rng) for _ in range(500)]
    graphs += [single_loop(), parallel_h()] + [_loops_and_parallel_edges(rng) for _ in range(20)]
    moved = 0
    for g in graphs:
        g = _denormalize(g, rng)
        expected, expected_moves = _fold_normalize_edge(g)
        out, moves = normalize_all(g)
        assert out == expected
        assert graph_to_json(out) == graph_to_json(expected)
        assert moves == expected_moves
        moved += sum(1 for m in moves if m.k or m.h)
    assert moved > 1000  # the sweep really moves matrices out of normal form


@pytest.mark.parametrize("bad", [Gl2Matrix(1, 0, 0, -1), U], ids=["beta_zero", "det_plus_one"])
def test_normalize_all_raises_like_the_fold(bad):
    # e3 fails too, so the message also shows which edge failed first
    g = build_graph(
        {"v1": SeifertData(0, ((2, 1), (2, 1)), 0), "v2": SeifertData(0, ((2, 1), (2, 1)), 0)},
        [Edge("e1", "v1", "v2", Gl2Matrix(5, 3, 2, 1)), Edge("e2", "v2", "v1", bad),
         Edge("e3", "v1", "v1", Gl2Matrix(1, 0, 0, -1))],
    )
    with pytest.raises(ValueError) as folded:
        _fold_normalize_edge(g)
    with pytest.raises(ValueError) as direct:
        normalize_all(g)
    assert str(direct.value) == str(folded.value)
    assert type(direct.value) is type(folded.value)


def test_normalize_all_is_linear():
    # folding normalize_edge, which rebuilds the graph once per edge, takes seconds on this cycle
    n = 4000
    vertices = {f"v{i:04d}": SeifertData(0, ((2, 1), (3, 1)), 0) for i in range(n)}
    edges = [Edge(f"e{i:04d}", f"v{i:04d}", f"v{(i + 1) % n:04d}", Gl2Matrix(5, 3, 2, 1))
             for i in range(n)]
    g = build_graph(vertices, edges)
    start = time.perf_counter()
    out, moves = normalize_all(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    assert all((m.k, m.h) == (-1, 0) for m in moves)
    assert all(s.b == -1 for s in out.vertices.values())
    assert is_valid(out)


def test_load_path_checks_each_label_at_most_three_times(monkeypatch):
    # normalize_all checks each input label, validate each normalized one,
    # and matrix_complexity each non-H one: no label is checked twice in a layer
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gl2, "_check_edge_label", counted("check", gl2._check_edge_label))
    for module in (graph, gl2):
        monkeypatch.setattr(module, "is_normalized", counted("is_normalized", module.is_normalized))
    monkeypatch.setattr(Gl2Matrix, "det", property(counted("det", Gl2Matrix.det.fget)))
    n = 60  # a cycle of non-normalized labels with every fifth edge +-H
    vertices = {f"v{i:02d}": SeifertData(0, ((2, 1), (3, 1)), 0) for i in range(n)}
    edges = [Edge(f"e{i:02d}", f"v{i:02d}", f"v{(i + 1) % n:02d}", H if i % 5 == 0 else Gl2Matrix(5, 3, 2, 1))
             for i in range(n)]
    g, _ = normalize_all(build_graph(vertices, edges))
    assert is_valid(g)
    best_bound(g)
    assert calls["det"] <= 3 * n
    assert calls["check"] <= 3 * n
    assert calls["is_normalized"] <= 2 * n


# ---------------------------------------------------------------------------
# json round trips
# ---------------------------------------------------------------------------


def test_json_round_trip_examples():
    for g in (regular_pair(), regular_pair_shifted(), single_loop(), parallel_h()):
        text = graph_to_json(g)
        assert graph_from_json(text) == g
        assert graph_to_json(graph_from_json(text)) == text


def test_json_round_trip_random(tmp_path):
    rng = random.Random(13)
    for _ in range(25):
        g = random_valid_graph(rng)
        assert graph_from_json(graph_to_json(g)) == g


def test_json_rejects_malformed():
    with pytest.raises(GraphFormatError):
        graph_from_json("{not json")
    with pytest.raises(GraphFormatError):
        graph_from_json("[]")
    base = {
        "vertices": [{"id": "v1", "g": 1, "fibres": [], "b": 0}],
        "edges": [{"id": "e1", "from": "v1", "to": "v1", "matrix": [[0, 1], [1, 0]]}],
    }
    bad_variants = []
    v = json.loads(json.dumps(base))
    v["vertices"][0]["g"] = 1.0
    bad_variants.append(v)  # float
    v = json.loads(json.dumps(base))
    v["vertices"][0]["g"] = True
    bad_variants.append(v)  # bool posing as int
    v = json.loads(json.dumps(base))
    v["vertices"][0]["colour"] = "red"
    bad_variants.append(v)  # unknown key
    v = json.loads(json.dumps(base))
    del v["vertices"][0]["b"]
    bad_variants.append(v)  # missing key
    v = json.loads(json.dumps(base))
    v["edges"][0]["matrix"] = [[0, 1], [1, 0], [0, 0]]
    bad_variants.append(v)  # wrong shape
    v = json.loads(json.dumps(base))
    v["edges"][0]["matrix"] = [[1, 1], [1, 1]]
    bad_variants.append(v)  # determinant 0
    v = json.loads(json.dumps(base))
    v["edges"][0]["to"] = "v2"
    bad_variants.append(v)  # dangling endpoint
    v = json.loads(json.dumps(base))
    v["vertices"].append(dict(v["vertices"][0]))
    bad_variants.append(v)  # duplicate vertex id
    for variant in bad_variants:
        with pytest.raises(GraphFormatError):
            graph_from_json(json.dumps(variant))


_WELL_FORMED = {
    "vertices": [{"id": "v1", "g": 1, "fibres": [[3, 1]], "b": 0}],
    "edges": [{"id": "e1", "from": "v1", "to": "v1", "matrix": [[0, 1], [1, 0]]}],
}


def _edited(edit) -> str:
    """The well-formed document after edit(document, its vertex, its edge)."""
    doc = json.loads(json.dumps(_WELL_FORMED))
    edit(doc, doc["vertices"][0], doc["edges"][0])
    return json.dumps(doc)


# the exact message of every malformed shape, each a single defect in an
# otherwise well-formed document
MALFORMED = [
    ("invalid_json", "{not json",
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("trailing_data", json.dumps(_WELL_FORMED) + " []", "invalid JSON: Extra data: line 1 column 145 (char 144)"),
    ("byte_order_mark", "﻿" + json.dumps(_WELL_FORMED),
     "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("top_level_array", "[]", "document must be an object"),
    ("float", _edited(lambda d, v, e: v.update(g=1.5)), "fractional or non-finite numbers are not allowed: 1.5"),
    ("nan", _edited(lambda d, v, e: v.update(b=float("nan"))),
     "fractional or non-finite numbers are not allowed: NaN"),
    ("infinity", _edited(lambda d, v, e: e.update(matrix=[[float("-inf"), 1], [1, 0]])),
     "fractional or non-finite numbers are not allowed: -Infinity"),
    ("bool_genus", _edited(lambda d, v, e: v.update(g=True)), "vertex 'v1' genus must be an integer, got True"),
    ("bool_b", _edited(lambda d, v, e: v.update(b=False)), "vertex 'v1' parameter b must be an integer, got False"),
    ("bool_fibre_p", _edited(lambda d, v, e: v.update(fibres=[[True, 1]])),
     "vertex 'v1' fibre p must be an integer, got True"),
    ("bool_fibre_q", _edited(lambda d, v, e: v.update(fibres=[[3, True]])),
     "vertex 'v1' fibre q must be an integer, got True"),
    ("bool_matrix_entry", _edited(lambda d, v, e: e.update(matrix=[[0, 1], [True, 0]])),
     "edge 'e1' matrix entry must be an integer, got True"),
    ("string_genus", _edited(lambda d, v, e: v.update(g="1")), "vertex 'v1' genus must be an integer, got '1'"),
    ("null_b", _edited(lambda d, v, e: v.update(b=None)), "vertex 'v1' parameter b must be an integer, got None"),
    ("fibre_checked_before_genus", _edited(lambda d, v, e: v.update(g=None, fibres=[[3, "1"]])),
     "vertex 'v1' fibre q must be an integer, got '1'"),
    ("non_ascii_id", _edited(lambda d, v, e: (v.update(id="vé", g=True), e.update({"from": "vé", "to": "vé"}))),
     "vertex 'vé' genus must be an integer, got True"),
    ("unknown_vertex_key", _edited(lambda d, v, e: v.update(colour="red")), "vertex has unknown keys: ['colour']"),
    ("missing_vertex_key", _edited(lambda d, v, e: v.pop("b")), "vertex is missing keys: ['b']"),
    ("unknown_edge_key", _edited(lambda d, v, e: e.update(weight=1)), "edge has unknown keys: ['weight']"),
    ("missing_edge_key", _edited(lambda d, v, e: e.pop("matrix")), "edge is missing keys: ['matrix']"),
    ("unknown_document_key", _edited(lambda d, v, e: d.update(name="x")), "document has unknown keys: ['name']"),
    ("missing_document_key", _edited(lambda d, v, e: d.pop("edges")), "document is missing keys: ['edges']"),
    ("non_object_vertex", _edited(lambda d, v, e: d.update(vertices=[["v1"]])), "vertex must be an object"),
    ("non_object_edge", _edited(lambda d, v, e: d.update(edges=["e1"])), "edge must be an object"),
    ("non_array_vertices", _edited(lambda d, v, e: d.update(vertices={})), "'vertices' and 'edges' must be arrays"),
    ("non_array_fibres", _edited(lambda d, v, e: v.update(fibres=3)), "vertex 'v1': fibres must be an array"),
    ("fibre_of_length_3", _edited(lambda d, v, e: v.update(fibres=[[3, 1, 1]])),
     "vertex 'v1': each fibre must be a pair [p, q]"),
    ("fibre_not_array", _edited(lambda d, v, e: v.update(fibres=[3])), "vertex 'v1': each fibre must be a pair [p, q]"),
    ("empty_vertex_id", _edited(lambda d, v, e: v.update(id="")), "vertex id must be a non-empty string, got ''"),
    ("non_string_vertex_id", _edited(lambda d, v, e: v.update(id=1)), "vertex id must be a non-empty string, got 1"),
    ("empty_edge_id", _edited(lambda d, v, e: e.update(id="")), "edge id must be a non-empty string, got ''"),
    ("non_string_edge_id", _edited(lambda d, v, e: e.update(id=["e1"])),
     "edge id must be a non-empty string, got ['e1']"),
    ("empty_source", _edited(lambda d, v, e: e.update({"from": ""})), "edge source must be a non-empty string, got ''"),
    ("non_string_target", _edited(lambda d, v, e: e.update(to=None)),
     "edge target must be a non-empty string, got None"),
    ("three_row_matrix", _edited(lambda d, v, e: e.update(matrix=[[0, 1], [1, 0], [0, 0]])),
     "edge 'e1': matrix must be a 2x2 array"),
    ("three_column_row", _edited(lambda d, v, e: e.update(matrix=[[0, 1, 0], [1, 0]])),
     "edge 'e1': matrix must be a 2x2 array"),
    ("non_array_matrix", _edited(lambda d, v, e: e.update(matrix=1)), "edge 'e1': matrix must be a 2x2 array"),
    ("non_array_row", _edited(lambda d, v, e: e.update(matrix=[[0, 1], 1])), "edge 'e1': matrix must be a 2x2 array"),
    ("determinant_zero", _edited(lambda d, v, e: e.update(matrix=[[1, 1], [1, 1]])),
     "edge 'e1': determinant must be +1 or -1, got 0"),
    ("dangling_endpoint", _edited(lambda d, v, e: e.update(to="v2")), "edge 'e1' references unknown vertex 'v2'"),
    ("duplicate_vertex_id", _edited(lambda d, v, e: d["vertices"].append(dict(v))), "duplicate vertex id 'v1'"),
    ("duplicate_edge_id", _edited(lambda d, v, e: d["edges"].append(dict(e))), "duplicate edge id 'e1'"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_json_error_messages(text, message):
    with pytest.raises(GraphFormatError) as raised:
        graph_from_json(text)
    assert str(raised.value) == message


def test_json_accepts_bytes_like_json_loads():
    text = json.dumps(_WELL_FORMED)
    assert graph_from_json(text.encode("utf-16")) == graph_from_json(text)


def test_json_accepts_non_normalized_edges():
    # parsing is a format check; normalization is a validation concern
    g = graph_from_json(
        json.dumps(
            {
                "vertices": [
                    {"id": "v1", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0},
                    {"id": "v2", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0},
                ],
                "edges": [{"id": "e1", "from": "v1", "to": "v2", "matrix": [[5, 3], [2, 1]]}],
            }
        )
    )
    assert not is_valid(g)
    assert is_valid(normalize_all(g)[0])
