"""Spanning trees of a decomposition graph and the H-edge defect Phi.

For a spanning tree T, phi(T) counts the H-edges (matrix +-H) left outside
T, and Phi(G) is the minimum of phi over all spanning trees.  Spanning
forests form a matroid, so a tree attains Phi exactly when its H-edges
T & H form a basis of the H-subgraph's graphic matroid, a spanning forest
of the H-edges.  Everything the bounds score depends on T only through
T & H, so the optimal trees are enumerated one per basis, each given by
its H-edges alone: the basis, signed, and the other H-edges, outside.

The bases are found by their definition: one scan of the rank-sized
subsets of the H-edges, in lexicographic order, keeps each subset that a
greedy forest construction takes whole.  That is comb(|H|, Phi) checks, a
count known before the scan starts, which the bounds check against their
budget; the scan itself has no cap.  Nothing recurses, and memory is
O(|V| + |H|) however deep the graph.

Phi, the H-links, the completion that makes a basis a tree, and the
connectivity test all come from graph._split, whose docstring tells how.
capital_phi reads its phi; optimal_trees takes its h_links and phi and
nothing else, so it makes no split, builds no tree and refuses nothing.
The bases depend only on the H-edges, so the scan runs as well on the
H-links of one H-component, re-indexed over that component's vertices,
with that component's Phi.

Besides the bound's forest questions, the module holds is_spanning_tree,
checking code that no production module calls: only the benchmark checker
(bench/check.py) and the tests import it.  It stays until that checker no
longer needs it.

Loops never belong to a spanning tree, so every H-loop contributes 1 to Phi
no matter what.  A single-vertex graph has exactly one spanning tree, the
empty one.
"""

from __future__ import annotations

import itertools

from .graph import DecompositionGraph, _grow, _split


# checking code, which no production module calls; the benchmark checker imports it
def is_spanning_tree(g: DecompositionGraph, edge_ids) -> bool:
    """Whether the given edge ids form a spanning tree of g."""
    listed = list(edge_ids)
    ids = set(listed)
    if len(ids) != len(listed) or len(ids) != len(g.vertices) - 1:
        return False
    index = {vid: i for i, vid in enumerate(g.vertices)}
    links = [(e.id, index[e.src], index[e.dst]) for e in g.edges if e.id in ids]
    return len(_grow(list(range(len(g.vertices))), links)) == len(ids)


def capital_phi(g: DecompositionGraph) -> int:
    """Minimum of phi over all spanning trees, computed greedily.

    Spanning forests form a matroid, so inserting the H-edges first packs
    as many of them into a single spanning tree as possible; what cannot be
    placed, every H-loop among it, is exactly the minimum.  It is the phi
    of graph._split.  The graph must be connected.
    """
    return _split(g).phi


def optimal_trees(n: int, h_links, phi: int):
    """One layout (signed, outside) per distinct set of tree H-edges of the
    spanning trees attaining Phi, in tree order.

    n is the number of vertices, and h_links and phi are those fields of
    graph._split(g): the H-edges as (id, u, v) links in id order, and
    Phi(G), which is len(h_links) less the rank of the H-edges.  signed is
    a basis B, a tuple of H-links, and outside the other H-links, both in
    h_links order, as bounds._search reads them.  No tree is built, and
    nothing here reads the rest of the graph or decides connectivity.  The
    first tree of the class of optimal trees sharing B as their H-edges is
    B's ids and the split's completion, sorted (see _split).

    The bases are found by checking every rank-sized subset of the H-edges,
    comb(|H|, rank) = comb(|H|, Phi) of them, each with a union-find of
    O(n) memory; a layout holds H-links only, so the result does not grow
    with the rest of the graph.  Nothing here limits the count; the bounds
    check it against their budget before calling.  The bases come out in
    tree order without sorting: two sorted id tuples of equal length
    compare as the least id of their symmetric difference, the one holding
    it coming first.  completion holds no H-edge and is shared, so two
    trees compare as their bases do, and combinations over the id-ordered
    h_links yields the bases in that order.
    """
    rank = len(h_links) - phi
    layouts = []
    for basis in itertools.combinations(h_links, rank):
        if len(_grow(list(range(n)), basis)) < rank:
            continue
        ids = {eid for eid, _, _ in basis}
        layouts.append((basis, [link for link in h_links if link[0] not in ids]))
    return layouts
