"""Spanning trees of a decomposition graph and the H-edge defect Phi.

For a spanning tree T, phi(T) counts the H-edges (matrix +-H) left outside
T, and Phi(G) is the minimum of phi over all spanning trees.  Spanning
forests form a matroid, so Phi comes from a greedy forest construction, and
a tree attains Phi exactly when its H-edges T & H form a basis of the
H-subgraph's graphic matroid, a spanning forest of the H-edges.  Everything
the bounds score depends on T only through T & H, so the optimal trees are
enumerated one per basis; the enumeration of every spanning tree stays as
the reference the tests compare against.

Both enumerations follow the definition: they scan the subsets of the right
size, in lexicographic order, and keep each one that a greedy forest
construction takes whole.  A scan of k-subsets of m edges costs comb(m, k)
checks, a count known before it starts; nothing recurses, and memory is
O(|V| + k) however deep the graph.

Loops never belong to a spanning tree, so every H-loop contributes 1 to Phi
no matter what.  A single-vertex graph has exactly one spanning tree, the
empty one.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .gl2 import int_text, is_plus_minus_h
from .graph import DecompositionGraph

DEFAULT_TREE_CAP = 10**6


class CapExceeded(RuntimeError):
    """A search would visit more objects than its cap allows.

    The bounds have one cap, the assignment cap, checked against a count
    known before any search; the tree enumerations here and the oracles'
    searches have caps of their own.  needed is the count, when known.
    """

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


def _links(g: DecompositionGraph, keep) -> list[tuple[str, int, int]]:
    """(id, source index, target index) of the edges that keep accepts, in id order."""
    index = {vid: i for i, vid in enumerate(g.vertices)}
    return [(e.id, index[e.src], index[e.dst]) for e in g.edges if keep(e)]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
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


def _forests(n: int, links, need: int, cap: int, what: str) -> Iterator[tuple[str, ...]]:
    """Every acyclic need-subset of links as a tuple of ids, in lexicographic
    order of link positions.

    Checks the need-subsets one by one against the definition: a subset is
    a forest when _grow, on a fresh union-find, adds all of its links.  That
    is comb(len(links), need) checks whatever the output, with no recursion
    and O(n + need) memory.  Raises CapExceeded once more than cap subsets
    have been produced, so a capped caller never sees a silently truncated
    list.
    """
    emitted = 0
    for subset in itertools.combinations(links, need):
        ids = _grow(list(range(n)), subset)
        if len(ids) == need:
            emitted += 1
            if emitted > cap:
                raise CapExceeded(f"more than {int_text(cap)} {what}")
            yield tuple(ids)


def iter_spanning_trees(g: DecompositionGraph, cap: int = DEFAULT_TREE_CAP) -> Iterator[tuple[str, ...]]:
    """All spanning trees as sorted edge-id tuples, in lexicographic order:
    the acyclic sets of |V| - 1 non-loop edges.

    This is the reference enumeration, and it checks every candidate set:
    comb(|E'|, |V| - 1) of them for the non-loop edges E', however few are
    trees, so its cost does not follow the size of its output.
    """
    links = _links(g, lambda e: e.src != e.dst)
    return _forests(len(g.vertices), links, len(g.vertices) - 1, cap, "spanning trees")


def is_spanning_tree(g: DecompositionGraph, edge_ids) -> bool:
    """Whether the given edge ids form a spanning tree of g."""
    listed = list(edge_ids)
    ids = set(listed)
    if len(ids) != len(listed) or len(ids) != len(g.vertices) - 1:
        return False
    links = _links(g, lambda e: e.id in ids)
    return len(_grow(list(range(len(g.vertices))), links)) == len(ids)


def phi(g: DecompositionGraph, tree: tuple[str, ...]) -> int:
    """Number of H-edges outside the tree, given by its edge ids."""
    inside = set(tree)
    return sum(1 for e in g.edges if e.id not in inside and is_plus_minus_h(e.matrix))


def capital_phi(g: DecompositionGraph) -> int:
    """Minimum of phi over all spanning trees, computed greedily.

    Spanning forests form a matroid, so inserting the H-edges first packs
    as many of them into a single spanning tree as possible; what cannot be
    placed, every H-loop among it, is exactly the minimum.  The graph must
    be connected.
    """
    h_links = _links(g, lambda e: is_plus_minus_h(e.matrix))
    return len(h_links) - len(_grow(list(range(len(g.vertices))), h_links))


def optimal_trees(g: DecompositionGraph, cap: int = DEFAULT_TREE_CAP) -> tuple[tuple[str, ...], ...]:
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
    O(n) memory.  Raises CapExceeded when there are more than cap such
    trees.
    """
    n = len(g.vertices)
    links = _links(g, lambda e: True)
    h_links = [link for link, e in zip(links, g.edges) if is_plus_minus_h(e.matrix)]
    rank = len(_grow(list(range(n)), h_links))
    by_id = {link[0]: link for link in h_links}
    trees = []
    for basis in _forests(n, h_links, rank, cap, "optimal trees"):
        # B is acyclic, so the greedy pass takes all of it before the other edges
        tree = set(_grow(list(range(n)), [by_id[eid] for eid in basis] + links))
        if len(tree) != n - 1:
            raise ValueError("graph has no spanning tree (disconnected)")
        trees.append(tuple(e.id for e in g.edges if e.id in tree))
    return tuple(sorted(trees))
