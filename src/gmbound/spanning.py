"""Spanning trees of a decomposition graph and the H-edge defect Phi.

For a spanning tree T, phi(T) counts the H-edges (matrix +-H) left outside
T, and Phi(G) is the minimum of phi over all spanning trees.  Phi comes from
a greedy forest construction; the exhaustive enumeration below is only used
when the full set of optimal trees is needed, and doubles as an internal
cross-check of the greedy value.

Loops never belong to a spanning tree, so every H-loop contributes 1 to Phi
no matter what.  A single-vertex graph has exactly one spanning tree, the
empty one.
"""

from __future__ import annotations

from typing import Iterator

from .gl2 import is_plus_minus_h
from .graph import DecompositionGraph

DEFAULT_TREE_CAP = 10**6


class CapExceeded(RuntimeError):
    """A search would visit more objects than the configured cap allows."""

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def iter_spanning_trees(g: DecompositionGraph, cap: int = DEFAULT_TREE_CAP) -> Iterator[tuple[str, ...]]:
    """All spanning trees as sorted edge-id tuples, in lexicographic order.

    Backtracks over the non-loop edges in id order, keeping partial choices
    acyclic with a union-find; any acyclic set of |V| - 1 edges is a
    spanning tree.  Raises CapExceeded once more than cap trees have been
    produced, so a capped caller never sees a silently truncated list.
    """
    index = {vid: i for i, vid in enumerate(g.vertices)}
    cands = [(e.id, index[e.src], index[e.dst]) for e in g.edges if e.src != e.dst]
    need = len(g.vertices) - 1
    if need == 0:
        yield ()
        return

    emitted = 0

    def extend(start: int, parent: list[int], chosen: list[str]) -> Iterator[tuple[str, ...]]:
        nonlocal emitted
        if len(chosen) == need:
            emitted += 1
            if emitted > cap:
                raise CapExceeded(f"more than {cap} spanning trees", needed=None)
            yield tuple(chosen)
            return
        for i in range(start, len(cands)):
            if len(cands) - i < need - len(chosen):
                break
            eid, u, v = cands[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                continue
            merged = parent.copy()
            merged[ru] = rv
            chosen.append(eid)
            yield from extend(i + 1, merged, chosen)
            chosen.pop()

    yield from extend(0, list(range(len(g.vertices))), [])


def is_spanning_tree(g: DecompositionGraph, edge_ids) -> bool:
    """Whether the given edge ids form a spanning tree of g."""
    listed = list(edge_ids)
    ids = set(listed)
    if len(ids) != len(listed) or len(ids) != len(g.vertices) - 1:
        return False
    index = {vid: i for i, vid in enumerate(g.vertices)}
    parent = list(range(len(g.vertices)))
    for e in g.edges:
        if e.id not in ids:
            continue
        ids.discard(e.id)
        if e.src == e.dst:
            return False
        ru, rv = _find(parent, index[e.src]), _find(parent, index[e.dst])
        if ru == rv:
            return False
        parent[ru] = rv
    return not ids  # every id matched an edge of g


def phi(g: DecompositionGraph, tree: tuple[str, ...]) -> int:
    """Number of H-edges outside the tree, given by its edge ids."""
    inside = set(tree)
    return sum(1 for e in g.edges if e.id not in inside and is_plus_minus_h(e.matrix))


def capital_phi(g: DecompositionGraph) -> int:
    """Minimum of phi over all spanning trees, computed greedily.

    Spanning forests form a matroid, so inserting the non-loop H-edges
    first packs as many of them into a single spanning tree as possible;
    what cannot be placed, plus every H-loop, is exactly the minimum.
    The graph must be connected.
    """
    index = {vid: i for i, vid in enumerate(g.vertices)}
    parent = list(range(len(g.vertices)))
    leftover = 0
    for e in g.edges:
        if not is_plus_minus_h(e.matrix):
            continue
        if e.src == e.dst:
            leftover += 1
            continue
        ru, rv = _find(parent, index[e.src]), _find(parent, index[e.dst])
        if ru == rv:
            leftover += 1
        else:
            parent[ru] = rv
    return leftover


def optimal_trees(g: DecompositionGraph, cap: int = DEFAULT_TREE_CAP) -> tuple[tuple[str, ...], ...]:
    """All spanning trees attaining Phi(G), as sorted edge-id tuples in
    lexicographic order.

    The minimum is taken over the full enumeration rather than trusting
    capital_phi, which keeps the two routes independently checkable.
    """
    best: list[tuple[str, ...]] = []
    best_phi: int | None = None
    for ids in iter_spanning_trees(g, cap):
        value = phi(g, ids)
        if best_phi is None or value < best_phi:
            best_phi = value
            best = [ids]
        elif value == best_phi:
            best.append(ids)
    if best_phi is None:
        raise ValueError("graph has no spanning tree (disconnected)")
    return tuple(best)
