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

Every forest is grown by the union-find of graph (_grow), the one validate
asks whether the graph is connected.  Its links come from graph: Phi and
the optimal trees read the H-links from _split, the one pass that tells
H-edges apart, and is_spanning_tree filters _links.  This module keeps
only the bound's forest questions.

Loops never belong to a spanning tree, so every H-loop contributes 1 to Phi
no matter what.  A single-vertex graph has exactly one spanning tree, the
empty one.
"""

from __future__ import annotations

import itertools

from .graph import DecompositionGraph, _grow, _links, _split


# checking code, which no production module calls; the benchmark checker imports it
def is_spanning_tree(g: DecompositionGraph, edge_ids) -> bool:
    """Whether the given edge ids form a spanning tree of g."""
    listed = list(edge_ids)
    ids = set(listed)
    if len(ids) != len(listed) or len(ids) != len(g.vertices) - 1:
        return False
    links = [link for link in _links(g) if link[0] in ids]
    return len(_grow(list(range(len(g.vertices))), links)) == len(ids)


def capital_phi(g: DecompositionGraph) -> int:
    """Minimum of phi over all spanning trees, computed greedily.

    Spanning forests form a matroid, so inserting the H-edges first packs
    as many of them into a single spanning tree as possible; what cannot be
    placed, every H-loop among it, is exactly the minimum.  The graph must
    be connected.
    """
    h_links = _split(g)[1]
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
    O(n) memory, and a union-find that takes the whole subset goes on to
    complete it.  Nothing here limits that count; the bounds check it
    against their budget before calling.
    """
    n = len(g.vertices)
    links, h_links = _split(g)[:2]
    rank = len(_grow(list(range(n)), h_links))
    trees = []
    for basis in itertools.combinations(h_links, rank):
        parent = list(range(n))
        if len(_grow(parent, basis)) < rank:
            continue
        # parent has joined all of B, so growing it over every edge in id
        # order completes B to the first tree that holds it
        tree = {eid for eid, _, _ in basis}.union(_grow(parent, links))
        if len(tree) != n - 1:
            raise ValueError("graph has no spanning tree (disconnected)")
        trees.append(tuple(e.id for e in g.edges if e.id in tree))
    return tuple(sorted(trees))
