"""Spanning trees of a decomposition graph and the H-edge defect Phi.

For a spanning tree T, phi(T) counts the H-edges (matrix +-H) left outside
T, and Phi(G) is the minimum of phi over all spanning trees.  Spanning
forests form a matroid, so Phi comes from a greedy forest construction, and
a tree attains Phi exactly when its H-edges T & H form a basis of the
H-subgraph's graphic matroid, a spanning forest of the H-edges.  Everything
the bounds score depends on T only through T & H, so the optimal trees are
enumerated one per basis.

The bases are found by their definition: one scan of the rank-sized
subsets of the H-edges, in lexicographic order, keeps each subset that a
greedy forest construction takes whole.  That is comb(|H|, Phi) checks, a
count known before the scan starts, which the bounds check against their
budget; the scan itself has no cap.  Nothing recurses, and memory is
O(|V| + |H|) however deep the graph.

Loops never belong to a spanning tree, so every H-loop contributes 1 to Phi
no matter what.  A single-vertex graph has exactly one spanning tree, the
empty one.
"""

from __future__ import annotations

import itertools

from .gl2 import is_plus_minus_h
from .graph import DecompositionGraph


def _links(g: DecompositionGraph, keep) -> list[tuple[str, int, int]]:
    """(id, source index, target index) of the edges that keep accepts, in id order."""
    index = {vid: i for i, vid in enumerate(g.vertices)}
    return [(e.id, index[e.src], index[e.dst]) for e in g.edges if keep(e)]


def _find(parent: list[int], x: int) -> int:
    # path halving: each step re-points x at its grandparent, so a chain
    # that _grow built root to root is flattened while it is walked
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _grow(parent: list[int], links) -> list[str]:
    """Add, in order, each link that joins two components of the union-find
    parent; return the ids of the links added."""
    added = []
    for eid, u, v in links:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            added.append(eid)
    return added


# checking code, which no production module calls; the benchmark checker imports it
def is_spanning_tree(g: DecompositionGraph, edge_ids) -> bool:
    """Whether the given edge ids form a spanning tree of g."""
    listed = list(edge_ids)
    ids = set(listed)
    if len(ids) != len(listed) or len(ids) != len(g.vertices) - 1:
        return False
    links = _links(g, lambda e: e.id in ids)
    return len(_grow(list(range(len(g.vertices))), links)) == len(ids)


def capital_phi(g: DecompositionGraph) -> int:
    """Minimum of phi over all spanning trees, computed greedily.

    Spanning forests form a matroid, so inserting the H-edges first packs
    as many of them into a single spanning tree as possible; what cannot be
    placed, every H-loop among it, is exactly the minimum.  The graph must
    be connected.
    """
    h_links = _links(g, lambda e: is_plus_minus_h(e.matrix))
    return len(h_links) - len(_grow(list(range(len(g.vertices))), h_links))


def optimal_trees(g: DecompositionGraph) -> tuple[tuple[str, ...], ...]:
    """One spanning tree attaining Phi(G) per distinct set of tree H-edges,
    as sorted edge-id tuples in lexicographic order.

    The tree H-edges of an optimal tree are a basis B of the H-subgraph's
    graphic matroid, and every basis occurs.  For each B the tree is the
    greedy completion of B over all edges in id order, which is the
    lexicographically first tree holding B; every other H-edge closes a
    cycle, because B is maximal.  So the result is the first tree of each
    class of optimal trees sharing their H-edges.

    The bases are found by checking every rank-sized subset of the H-edges,
    comb(|H|, rank) = comb(|H|, Phi) of them, each with a union-find of
    O(n) memory.  Nothing here limits that count; the bounds check it
    against their budget before calling.
    """
    n = len(g.vertices)
    links = _links(g, lambda e: True)
    h_links = [link for link, e in zip(links, g.edges) if is_plus_minus_h(e.matrix)]
    rank = len(_grow(list(range(n)), h_links))
    trees = []
    for basis in itertools.combinations(h_links, rank):
        if len(_grow(list(range(n)), basis)) < rank:
            continue
        # B is acyclic, so the greedy pass takes all of it before the other edges
        tree = set(_grow(list(range(n)), itertools.chain(basis, links)))
        if len(tree) != n - 1:
            raise ValueError("graph has no spanning tree (disconnected)")
        trees.append(tuple(e.id for e in g.edges if e.id in tree))
    return tuple(sorted(trees))
