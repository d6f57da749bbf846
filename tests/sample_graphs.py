"""Shared builders and seeded random generators for the test suite."""

from __future__ import annotations

import math
import random

from gmbound import (
    DecompositionGraph,
    Edge,
    Gl2Matrix,
    SeifertData,
    build_graph,
    handle_count,
    is_valid,
)
from gmbound.gl2 import H

# ---------------------------------------------------------------------------
# fixed example graphs (expected values frozen after oracle confirmation)
# ---------------------------------------------------------------------------


def two_disk_pieces(b1: int, b2: int, matrix: Gl2Matrix) -> DecompositionGraph:
    """Two (0, 1, (2,1), (2,1), b) pieces joined by a single edge."""
    vertices = {
        "v1": SeifertData(0, ((2, 1), (2, 1)), b1),
        "v2": SeifertData(0, ((2, 1), (2, 1)), b2),
    }
    return build_graph(vertices, [Edge("e1", "v1", "v2", matrix)])


def regular_pair() -> DecompositionGraph:  # bound 8
    return two_disk_pieces(0, 0, Gl2Matrix(1, 2, 1, 1))


def regular_pair_shifted() -> DecompositionGraph:  # bound 7 (formula value)
    return two_disk_pieces(0, -1, Gl2Matrix(1, 2, 1, 1))


def single_loop() -> DecompositionGraph:  # bound 9
    return build_graph(
        {"v1": SeifertData(0, ((2, 1),), 0)},
        [Edge("e1", "v1", "v1", Gl2Matrix(1, 2, 1, 1))],
    )


def h_pair(b1: int = 0, b2: int = -2) -> DecompositionGraph:  # bound 7 at (0, -2)
    return two_disk_pieces(b1, b2, H)


def parallel_h() -> DecompositionGraph:  # bound 12
    vertices = {
        "v1": SeifertData(0, ((2, 1),), 0),
        "v2": SeifertData(0, ((2, 1),), 0),
    }
    return build_graph(
        vertices,
        [Edge("e1", "v1", "v2", H), Edge("e2", "v1", "v2", H)],
    )


def h_loops(n: int) -> DecompositionGraph:
    """One piece with n H-loops: valid, Phi = n, and 6^n labelings to search."""
    return build_graph({"v1": SeifertData(0, (), 0)}, [Edge(f"e{i:05d}", "v1", "v1", H) for i in range(n)])


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------


def random_normalized_matrix(rng: random.Random, beta_max: int = 12) -> Gl2Matrix:
    """A random normalized determinant -1 matrix with 2 <= |beta| <= beta_max."""
    beta = rng.randint(2, beta_max)
    units = [d for d in range(1, beta) if math.gcd(d, beta) == 1]
    delta = rng.choice(units)
    alpha = (-pow(delta, -1, beta)) % beta
    gamma = (alpha * delta + 1) // beta
    m = Gl2Matrix(alpha, beta, gamma, delta)
    return -m if rng.random() < 0.5 else m


def random_det_minus_one_matrix(rng: random.Random, size: int = 1000) -> Gl2Matrix:
    """A random determinant -1 matrix with beta != 0, entries within 10^6.

    Draws a coprime (beta, delta) with |beta| <= size, solves the Bezout
    identity for one (alpha, gamma), then shifts along the kernel direction
    (beta, delta) to spread the entries around.
    """
    while True:
        beta = rng.randint(-size, size)
        delta = rng.randint(-size, size)
        if beta != 0 and math.gcd(abs(beta), abs(delta)) == 1:
            break
    # alpha*delta - gamma*beta = -1
    x, y = _bezout(delta, beta)  # x*delta + y*beta = 1
    alpha, gamma = -x, y
    t = rng.randint(-(size - 1), size - 1)
    return Gl2Matrix(alpha + t * beta, beta, gamma + t * delta, delta)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x*a + y*b = gcd(a, b), by the extended Euclidean algorithm."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def random_h_matrix(rng: random.Random) -> Gl2Matrix:
    return H if rng.random() < 0.5 else -H


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------


def _random_topology(rng: random.Random, n_vertices: int, n_edges: int):
    """Connected multigraph skeleton: list of (src_index, dst_index)."""
    ends = []
    for i in range(1, n_vertices):
        other = rng.randrange(i)
        ends.append((i, other) if rng.random() < 0.5 else (other, i))
    while len(ends) < n_edges:
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        ends.append((u, v))
    return ends


def random_multigraph(
    rng: random.Random,
    n_vertices: int,
    n_edges: int,
    h_probability: float = 0.5,
) -> DecompositionGraph:
    """Connected multigraph with random H / non-H labels and placeholder
    vertex data; intended for the spanning-tree machinery, which never looks
    at the Seifert data."""
    ends = _random_topology(rng, n_vertices, n_edges)
    vertices = {f"v{i + 1}": SeifertData(0, ((2, 1), (2, 1)), 0) for i in range(n_vertices)}
    edges = []
    for idx, (u, v) in enumerate(ends):
        if rng.random() < h_probability:
            matrix = random_h_matrix(rng)
        else:
            matrix = random_normalized_matrix(rng)
        edges.append(Edge(f"e{idx + 1}", f"v{u + 1}", f"v{v + 1}", matrix))
    return build_graph(vertices, edges)


def _random_piece(rng: random.Random, degree: int, p_max: int, b_max: int) -> SeifertData:
    """Seifert data passing the class-S inequality for the given degree."""
    while True:
        g = rng.choice((-2, -1, 0, 0, 0, 1, 1, 2))
        r = rng.randint(0, 3)
        s = SeifertData(g, (), 0)
        if degree + r + 2 * handle_count(s) >= 3:
            break
    fibres = []
    for _ in range(r):
        p = rng.randint(2, p_max)
        q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
        fibres.append((p, q))
    return SeifertData(g, tuple(sorted(fibres)), rng.randint(-b_max, b_max))


def random_valid_graph(
    rng: random.Random,
    max_vertices: int = 5,
    max_edges: int = 7,
    p_max: int = 7,
    b_max: int = 4,
    h_probability: float = 0.45,
) -> DecompositionGraph:
    """A random graph that passes validation, by redraw on the rare clashes
    with the small-graph exclusions."""
    for _ in range(1000):
        n = rng.randint(1, max_vertices)
        e = rng.randint(max(1, n - 1), max_edges)
        g = _with_random_pieces(rng, random_multigraph(rng, n, e, h_probability), p_max, b_max)
        if is_valid(g):
            return g
    raise RuntimeError("failed to draw a valid graph; generator parameters too tight")


def _with_random_pieces(rng: random.Random, skeleton: DecompositionGraph, p_max: int, b_max: int):
    """The skeleton's edges with class-S pieces drawn for its vertex degrees."""
    degrees = {vid: 0 for vid in skeleton.vertices}
    for edge in skeleton.edges:
        degrees[edge.src] += 1
        degrees[edge.dst] += 1
    vertices = {vid: _random_piece(rng, degrees[vid], p_max, b_max) for vid in skeleton.vertices}
    return build_graph(vertices, skeleton.edges)


def _shaped_h_ends(rng: random.Random, shape: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and H-edge ends (as vertex indices) of one shape."""
    if shape == "components":  # two or three H-components, one maybe doubled
        n = rng.randint(4, 6)
        ends = [(0, 1), (2, 3)] + ([(4, 5)] if n == 6 else [])
        return n, ends + ([rng.choice(ends)] if rng.random() < 0.5 else [])
    if shape == "star":  # every H-edge at one centre, one spoke maybe doubled
        n = rng.randint(3, 5)
        centre = rng.randrange(n)
        leaves = rng.sample([v for v in range(n) if v != centre], rng.randint(2, n - 1))
        ends = [(centre, leaf) for leaf in leaves]
        return n, ends + ([rng.choice(ends)] if rng.random() < 0.5 else [])
    if shape == "parallel":  # one H-pair met by two or three parallel H-edges
        n = rng.randint(3, 5)
        return n, [(0, 1)] * rng.randint(2, 3)
    if shape == "loops":  # one or two H-loops beside at most one other H-edge
        n = rng.randint(1, 4)
        ends = [(v, v) for v in (rng.randrange(n) for _ in range(rng.randint(1, 2)))]
        if n > 1 and rng.random() < 0.5:
            ends.append(tuple(rng.sample(range(n), 2)))
        return n, ends
    raise ValueError(f"unknown shape {shape!r}")


def random_shaped_graph(rng: random.Random, shape: str) -> DecompositionGraph:
    """A random valid graph whose H-edges take the given shape: "components"
    (two or more H-components), "star" (all at one vertex), "parallel" (many
    optimal trees share their H-edges) or "loops" (H-loops).

    The other edges are non-H: a random spanning tree plus up to two random
    edges.  Orientations, matrix signs and the id order are random.
    """
    for _ in range(1000):
        n, h_ends = _shaped_h_ends(rng, shape)
        ends = [(u, v, random_h_matrix(rng)) for u, v in h_ends]
        ends += [(u, v, random_normalized_matrix(rng))
                 for u, v in _random_topology(rng, n, n - 1 + rng.randint(0, 2))]
        rng.shuffle(ends)
        edges = []
        for i, (u, v, m) in enumerate(ends):
            if rng.random() < 0.5:
                u, v = v, u
            edges.append(Edge(f"e{i + 1}", f"v{u + 1}", f"v{v + 1}", m))
        skeleton = build_graph({f"v{i + 1}": SeifertData(0, (), 0) for i in range(n)}, edges)
        g = _with_random_pieces(rng, skeleton, p_max=7, b_max=4)
        if is_valid(g):
            return g
    raise RuntimeError(f"failed to draw a valid {shape} graph")


def random_penalized_graph(rng: random.Random, n: int, forest: int, closing: int, b_max: int = 6) -> DecompositionGraph:
    """A random valid graph on n vertices with forest + closing H-edges, so
    that Phi = closing, and b drawn from [-b_max, b_max], wide enough that
    many vertices pay a penalty under every labeling.

    forest of the n - 1 edges of a random spanning tree are H-edges; each
    closing H-edge joins two vertices of one H-component, or is a loop.
    The other tree edges and up to two random extra edges are non-H.
    Orientations, matrix signs and the id order are random.
    """
    for _ in range(1000):
        tree = _random_topology(rng, n, n - 1)
        h_tree = set(rng.sample(range(n - 1), forest))
        component = list(range(n))
        for i in sorted(h_tree):
            u, v = tree[i]
            old, new = component[u], component[v]
            component = [new if c == old else c for c in component]
        ends = [(u, v, random_h_matrix(rng) if i in h_tree else random_normalized_matrix(rng))
                for i, (u, v) in enumerate(tree)]
        for _ in range(closing):
            u = rng.randrange(n)
            v = rng.choice([w for w in range(n) if component[w] == component[u]])
            ends.append((u, v, random_h_matrix(rng)))
        ends += [(rng.randrange(n), rng.randrange(n), random_normalized_matrix(rng))
                 for _ in range(rng.randint(0, 2))]
        rng.shuffle(ends)
        edges = []
        for i, (u, v, m) in enumerate(ends):
            if rng.random() < 0.5:
                u, v = v, u
            edges.append(Edge(f"e{i + 1}", f"v{u + 1}", f"v{v + 1}", m))
        skeleton = build_graph({f"v{i + 1}": SeifertData(0, (), 0) for i in range(n)}, edges)
        g = _with_random_pieces(rng, skeleton, p_max=7, b_max=b_max)
        if is_valid(g):
            return g
    raise RuntimeError("failed to draw a valid penalized graph")
