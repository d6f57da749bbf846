from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from gmbound.bounds import CapExceeded, best_bound
from gmbound.gl2 import H, Gl2Matrix, is_plus_minus_h
from gmbound.graph import Edge, SeifertData, _split, build_graph, is_valid
from gmbound.oracle import _all_spanning_trees, bruteforce_phi
from gmbound.spanning import _grow, capital_phi, is_spanning_tree, optimal_trees
from sample_graphs import optimal_tree_ids, parallel_h, phi, random_multigraph, single_loop

_DISK = SeifertData(0, ((2, 1), (2, 1)), 0)
_M = Gl2Matrix(1, 2, 1, 1)


def _triangle_graph():
    vertices = {"v1": _DISK, "v2": _DISK, "v3": _DISK}
    edges = [
        Edge("e1", "v1", "v2", H),
        Edge("e2", "v2", "v3", H),
        Edge("e3", "v3", "v1", _M),
    ]
    return build_graph(vertices, edges)


def _all_trees(g):
    """Every spanning tree as an edge-id tuple, from the oracle's subset scan."""
    return [tuple(e.id for e in tree) for tree in _all_spanning_trees(g)]


def test_loops_never_enter_trees():
    g = build_graph(
        {"v1": _DISK, "v2": _DISK},
        [Edge("e1", "v1", "v2", _M), Edge("e2", "v1", "v1", H)],
    )
    assert _all_trees(g) == [("e1",)]
    assert optimal_tree_ids(g) == (("e1",),)
    assert is_spanning_tree(g, ("e1",))
    assert not is_spanning_tree(g, ("e2",))
    assert not is_spanning_tree(g, ())


def test_phi_counts_mirror_edges_outside_tree():
    g = _triangle_graph()
    assert phi(g, ("e1", "e2")) == 0
    assert phi(g, ("e1", "e3")) == 1
    assert phi(g, ("e2", "e3")) == 1


def test_capital_phi_examples():
    assert capital_phi(_triangle_graph()) == 0
    assert capital_phi(parallel_h()) == 1
    assert capital_phi(single_loop()) == 0
    g = build_graph(
        {"v1": SeifertData(1, (), 0)},
        [Edge("e1", "v1", "v1", H)],
    )
    assert capital_phi(g) == 1  # an H-loop can never be a tree edge


def test_optimal_trees_triangle():
    best = optimal_tree_ids(_triangle_graph())
    assert best == (("e1", "e2"),)


def test_optimal_trees_keep_all_minimisers():
    best = optimal_tree_ids(parallel_h())
    assert best == (("e1",), ("e2",))


def test_optimal_trees_refuse_a_disconnected_graph():
    # connectivity is decided by graph._split alone: it gives no completion,
    # and the bound refuses the graph; the scan itself refuses nothing
    g = build_graph(
        {"v1": _DISK, "v2": _DISK, "v3": _DISK},
        [Edge("e1", "v1", "v2", H), Edge("e2", "v3", "v3", _M)],
    )
    split = _split(g)
    assert split.completion is None and split.phi == 0
    assert [signed for signed, _ in optimal_trees(len(g.vertices), split.h_links, split.phi)] == [split.h_links]
    for refuse in (best_bound, optimal_tree_ids):
        with pytest.raises(ValueError, match=r"^graph has no spanning tree \(disconnected\)$"):
            refuse(g)


def test_a_disconnected_graph_is_refused_before_the_scan(monkeypatch):
    # a path of k H-digons has 2^k bases among comb(2k, k) subsets, and a
    # pair of pieces off to the side leaves every one of them short of a
    # spanning tree; the refusal must come before any subset is checked,
    # whatever the budget, or its cost grows with comb(2k, k)
    k = 10
    vertices = {f"v{i:02d}": _DISK for i in range(k + 1)} | {"w1": _DISK, "w2": _DISK}
    edges = [Edge("w", "w1", "w2", _M)]
    for i in range(k):
        edges += [Edge(f"d{i:02d}{side}", f"v{i:02d}", f"v{i + 1:02d}", H) for side in "ab"]
    g = build_graph(vertices, edges)
    checks = []

    def counting(parent, links):
        checks.append(len(links))
        return _grow(parent, links)

    monkeypatch.setattr("gmbound.spanning._grow", counting)
    with pytest.raises(ValueError, match=r"^graph has no spanning tree \(disconnected\)$"):
        best_bound(g, assignment_cap=10**40)
    assert checks == []


def test_one_budget_bounds_the_doubled_h_four_cycle():
    # doubled 4-cycle of H-edges: 4 * 2^3 = 32 spanning trees, each holding
    # a different set of H-edges, so all 32 are returned as optimal trees
    vertices = {f"v{i}": _DISK for i in range(1, 5)}
    edges = []
    for i in range(4):
        u, v = f"v{i + 1}", f"v{(i + 1) % 4 + 1}"
        edges.append(Edge(f"e{2 * i + 1}", u, v, H))
        edges.append(Edge(f"e{2 * i + 2}", u, v, H))
    g = build_graph(vertices, edges)
    assert len(optimal_tree_ids(g)) == 32
    # the one budget bounds the scan: 2^3 * 6^5 labelings per tree, 8 H-edges
    with pytest.raises(CapExceeded) as info:
        best_bound(g, assignment_cap=62207)
    assert info.value.needed == 2**3 * 6**5 == 62208
    assert best_bound(g, assignment_cap=62208).theorem == "general"


def _optimal_trees_by_h_basis(g):
    """Reference for optimal_trees: every spanning tree attaining Phi, keyed
    by its set of tree H-edges in order of first occurrence."""
    target = capital_phi(g)
    h_ids = frozenset(e.id for e in g.edges if is_plus_minus_h(e.matrix))
    classes = {}
    for t in _all_trees(g):
        if phi(g, t) == target:
            classes.setdefault(h_ids.intersection(t), []).append(t)
    return classes


def test_optimal_trees_are_the_first_tree_of_each_h_basis():
    rng = random.Random(303)
    graphs = [_triangle_graph(), parallel_h(), single_loop()]
    for _ in range(400):
        n = rng.randint(1, 6)
        e = rng.randint(max(1, n - 1), 9)
        graphs.append(random_multigraph(rng, n, e, h_probability=rng.random()))
    shared = 0
    for g in graphs:
        classes = _optimal_trees_by_h_basis(g)
        split = _split(g)
        layouts = optimal_trees(len(g.vertices), split.h_links, split.phi)
        # a layout holds no tree: its tree is its basis, the signed H-edges, plus the completion
        layout_trees = [tuple(sorted([eid for eid, _, _ in signed] + list(split.completion)))
                        for signed, _ in layouts]
        assert tuple(layout_trees) == tuple(trees[0] for trees in classes.values())
        # each layout splits the H-edges, as (id, u, v) links in id order, by its tree
        index = {vid: i for i, vid in enumerate(g.vertices)}
        h_edges = [(e.id, index[e.src], index[e.dst]) for e in g.edges if is_plus_minus_h(e.matrix)]
        for tree, (signed, outside) in zip(layout_trees, layouts):
            assert list(signed) == [link for link in h_edges if link[0] in tree]
            assert list(outside) == [link for link in h_edges if link[0] not in tree]
        # the premise of the one search budget: the assignment count bounds the layouts
        assert len(layouts) <= 2 ** (len(h_edges) - split.phi) * 6**split.phi
        assert len(layouts) <= math.comb(len(h_edges), split.phi)
        shared += any(len(trees) > 1 for trees in classes.values())
    assert shared >= 100  # many draws have several optimal trees per set of H-edges


def _cycle(n, extra=(), matrix=_M):
    """A cycle of n (0, [(2,1), (3,1)], 0) pieces glued by matrix, (1 2 / 1 1)
    unless given."""
    piece = SeifertData(0, ((2, 1), (3, 1)), 0)
    ids = [f"v{i:04d}" for i in range(n)]
    edges = [Edge(f"e{i:04d}", ids[i], ids[(i + 1) % n], matrix) for i in range(n)]
    return build_graph(dict.fromkeys(ids, piece), edges + [Edge(eid, ids[0], ids[1], H) for eid in extra])


def test_deep_graphs_need_no_recursion():
    g = _cycle(1500, extra=("h1", "h2"))
    assert is_valid(g)
    report = best_bound(g)
    assert report.theorem == "general"
    assert is_spanning_tree(g, report.witness_tree)
    assert phi(g, report.witness_tree) == capital_phi(g) == 1


def test_tree_enumeration_memory_does_not_grow_with_depth():
    # an H-cycle has one optimal tree per H-edge left out; beyond the layouts
    # it returns, the scan holds one union-find and one subset at a time
    g = _cycle(500, matrix=H)
    split = _split(g)
    tracemalloc.start()
    try:
        trees = optimal_trees(len(g.vertices), split.h_links, split.phi)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trees) == 500
    assert peak - kept < 2**20


def test_layout_memory_does_not_grow_with_the_non_h_part():
    # a layout holds only H-links: two parallel H-edges beside a cycle of n
    # pieces give two layouts, one H-edge signed and one outside, at any n
    kept, results = [], []
    for n in (1000, 4000):
        g = _cycle(n, extra=("h1", "h2"))
        split = _split(g)
        # a first, untraced call keeps any one-time interpreter allocation out of the count
        optimal_trees(n, split.h_links, split.phi)
        tracemalloc.start()
        try:
            layouts = optimal_trees(n, split.h_links, split.phi)
            kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        results.append(layouts)
    assert kept[0] == kept[1] < 1024
    for layouts in results:
        assert [[[eid for eid, _, _ in part] for part in layout] for layout in layouts] == [[["h1"], ["h2"]], [["h2"], ["h1"]]]


def test_union_find_stays_flat_on_a_star():
    # every link starts at the hub, so each union re-points the hub's root at
    # a leaf; without path compression each find would walk the whole chain
    class CountingList(list):
        reads = 0

        def __getitem__(self, i):
            self.reads += 1
            return super().__getitem__(i)

    leaves = 4000
    parent = CountingList(range(leaves + 1))
    assert len(_grow(parent, [(f"e{i}", 0, i) for i in range(1, leaves + 1)])) == leaves
    assert parent.reads < 10 * leaves


def test_capital_phi_greedy_matches_bruteforce_sweep():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 5)
        e = rng.randint(max(1, n - 1), 8)
        g = random_multigraph(rng, n, e, h_probability=rng.random())
        assert capital_phi(g) == bruteforce_phi(g)


def test_optimal_trees_realise_capital_phi():
    rng = random.Random(202)
    for _ in range(100):
        n = rng.randint(1, 5)
        e = rng.randint(max(1, n - 1), 8)
        g = random_multigraph(rng, n, e)
        best = optimal_tree_ids(g)
        target = capital_phi(g)
        assert best
        for t in best:
            assert is_spanning_tree(g, t)
            assert phi(g, t) == target
