from __future__ import annotations

import random
import tracemalloc

import pytest

from gmbound.bounds import best_bound
from gmbound.gl2 import H, Gl2Matrix, is_plus_minus_h
from gmbound.graph import Edge, SeifertData, build_graph, is_valid
from gmbound.oracle import bruteforce_phi
from gmbound.spanning import (
    CapExceeded,
    capital_phi,
    is_spanning_tree,
    iter_spanning_trees,
    optimal_trees,
    phi,
)
from sample_graphs import parallel_h, random_multigraph, single_loop

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


def test_iter_spanning_trees_triangle():
    trees = list(iter_spanning_trees(_triangle_graph()))
    assert trees == [("e1", "e2"), ("e1", "e3"), ("e2", "e3")]


def test_iter_spanning_trees_single_vertex():
    assert list(iter_spanning_trees(single_loop())) == [()]


def test_loops_never_enter_trees():
    g = build_graph(
        {"v1": _DISK, "v2": _DISK},
        [Edge("e1", "v1", "v2", _M), Edge("e2", "v1", "v1", H)],
    )
    assert list(iter_spanning_trees(g)) == [("e1",)]
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
    best = optimal_trees(_triangle_graph())
    assert best == (("e1", "e2"),)


def test_optimal_trees_keep_all_minimisers():
    best = optimal_trees(parallel_h())
    assert best == (("e1",), ("e2",))


def test_tree_cap():
    # doubled 4-cycle of H-edges: 4 * 2^3 = 32 spanning trees, each holding
    # a different set of H-edges, so all 32 are returned as optimal trees
    vertices = {f"v{i}": _DISK for i in range(1, 5)}
    edges = []
    for i in range(4):
        u, v = f"v{i + 1}", f"v{(i + 1) % 4 + 1}"
        edges.append(Edge(f"e{2 * i + 1}", u, v, H))
        edges.append(Edge(f"e{2 * i + 2}", u, v, H))
    g = build_graph(vertices, edges)
    assert len(list(iter_spanning_trees(g))) == 32
    with pytest.raises(CapExceeded):
        list(iter_spanning_trees(g, cap=2))
    assert len(optimal_trees(g, cap=32)) == 32
    with pytest.raises(CapExceeded):
        optimal_trees(g, cap=31)


def _optimal_trees_by_h_basis(g):
    """Reference for optimal_trees: every spanning tree attaining Phi, keyed
    by its set of tree H-edges in order of first occurrence."""
    target = capital_phi(g)
    h_ids = frozenset(e.id for e in g.edges if is_plus_minus_h(e.matrix))
    classes = {}
    for t in iter_spanning_trees(g):
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
        assert optimal_trees(g) == tuple(trees[0] for trees in classes.values())
        shared += any(len(trees) > 1 for trees in classes.values())
    assert shared >= 100  # many draws have several optimal trees per set of H-edges


def _cycle(n, extra=()):
    """A cycle of n (0, [(2,1), (3,1)], 0) pieces glued by (1 2 / 1 1)."""
    piece = SeifertData(0, ((2, 1), (3, 1)), 0)
    ids = [f"v{i:04d}" for i in range(n)]
    edges = [Edge(f"e{i:04d}", ids[i], ids[(i + 1) % n], _M) for i in range(n)]
    return build_graph(dict.fromkeys(ids, piece), edges + [Edge(eid, ids[0], ids[1], H) for eid in extra])


def test_deep_graphs_need_no_recursion():
    assert sum(1 for _ in iter_spanning_trees(_cycle(1500))) == 1500
    g = _cycle(1500, extra=("h1", "h2"))
    assert is_valid(g)
    report = best_bound(g)
    assert report.theorem == "general"
    assert is_spanning_tree(g, report.witness_tree)
    assert phi(g, report.witness_tree) == capital_phi(g) == 1


def test_tree_enumeration_memory_does_not_grow_with_depth():
    # a copy of the union-find per stack frame peaked at about 26 MB on this cycle
    g = _cycle(1500)
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_spanning_trees(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1500
    assert peak < 4 * 2**20


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
        best = optimal_trees(g)
        target = capital_phi(g)
        assert best
        for t in best:
            assert is_spanning_tree(g, t)
            assert phi(g, t) == target
