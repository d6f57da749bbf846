"""Shared builders, seeded random generators and reference helpers for the
test suite.

The reference helpers are plain, separate code that the tests check the
package against: matrix products, one-edge normalization, phi of one tree,
and the rewrites that change how a manifold is written down but not the
manifold itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from gmbound import (
    DecompositionGraph,
    Edge,
    Gl2Matrix,
    SeifertData,
    build_graph,
    handle_count,
    is_valid,
)
from gmbound.gl2 import H, is_plus_minus_h, normalize
from gmbound.graph import EdgeMove, normalize_all

# ---------------------------------------------------------------------------
# reference helpers
# ---------------------------------------------------------------------------

IDENTITY = Gl2Matrix(1, 0, 0, 1)
U = Gl2Matrix(1, 0, 1, 1)


def compose(a: Gl2Matrix, b: Gl2Matrix) -> Gl2Matrix:
    """Matrix product a * b."""
    return Gl2Matrix(
        a.alpha * b.alpha + a.beta * b.gamma,
        a.alpha * b.beta + a.beta * b.delta,
        a.gamma * b.alpha + a.delta * b.gamma,
        a.gamma * b.beta + a.delta * b.delta,
    )


def power_u(k: int) -> Gl2Matrix:
    """U^k in closed form: (1 0 / k 1), valid for any integer k."""
    return Gl2Matrix(1, 0, k, 1)


def normalize_edge(g: DecompositionGraph, edge_id: str) -> tuple[DecompositionGraph, EdgeMove]:
    """Normalize one edge matrix, shifting the endpoint b parameters.

    Replacing A by A * U^k adds k to b at the source; replacing A by U^h * A
    subtracts h from b at the target.  Both moves describe the same manifold,
    so bounds computed before and after must agree.  On a loop both shifts
    land on the same vertex, changing its b by k - h.  A label that cannot
    be normalized raises the ValueError of gl2.normalize with the edge id in
    front, as in normalize_all.
    """
    by_id = {e.id: e for e in g.edges}
    if edge_id not in by_id:
        raise ValueError(f"no edge with id {edge_id!r}")
    e = by_id[edge_id]
    try:
        new_matrix, k, h = normalize(e.matrix)
    except ValueError as exc:
        raise ValueError(f"edge {e.id!r}: {exc}") from exc
    vertices = dict(g.vertices)
    vertices[e.src] = replace(vertices[e.src], b=vertices[e.src].b + k)
    vertices[e.dst] = replace(vertices[e.dst], b=vertices[e.dst].b - h)
    edges = tuple(replace(x, matrix=new_matrix) if x.id == edge_id else x for x in g.edges)
    return DecompositionGraph(vertices, edges), EdgeMove(edge_id, k, h)


def phi(g: DecompositionGraph, tree: tuple[str, ...]) -> int:
    """Number of H-edges outside the tree, given by its edge ids."""
    inside = set(tree)
    return sum(1 for e in g.edges if e.id not in inside and is_plus_minus_h(e.matrix))


# ---------------------------------------------------------------------------
# rewrites of the presentation: same manifold, another graph
# ---------------------------------------------------------------------------


def rename_ids(g: DecompositionGraph, rng: random.Random) -> DecompositionGraph:
    """Every vertex and edge under a fresh id, handed out in a random
    permutation, so the id order of both changes."""
    vids = [f"w{i:03d}" for i in range(len(g.vertices))]
    eids = [f"x{i:03d}" for i in range(len(g.edges))]
    rng.shuffle(vids)
    rng.shuffle(eids)
    new_vid = dict(zip(g.vertices, vids))
    vertices = {new_vid[vid]: s for vid, s in g.vertices.items()}
    edges = [Edge(eid, new_vid[e.src], new_vid[e.dst], e.matrix) for eid, e in zip(eids, g.edges)]
    return build_graph(vertices, edges)


def reverse_half(g: DecompositionGraph, rng: random.Random) -> DecompositionGraph:
    """A random half of the edges turned around, then normalize_all.

    Reading an edge the other way swaps its ends and replaces M by
    M^-1 = (-delta beta / gamma -alpha), its inverse at determinant -1;
    that label is out of normal form unless delta = 0, so normalize_all
    brings it back and shifts b at the ends to match."""
    turned = set(rng.sample([e.id for e in g.edges], len(g.edges) // 2))
    edges = [Edge(e.id, e.dst, e.src, Gl2Matrix(-e.matrix.delta, e.matrix.beta, e.matrix.gamma, -e.matrix.alpha))
             if e.id in turned else e for e in g.edges]
    return normalize_all(build_graph(g.vertices, edges))[0]


def negate_half(g: DecompositionGraph, rng: random.Random) -> DecompositionGraph:
    """The matrices of a random half of the edges replaced by -M."""
    flipped = set(rng.sample([e.id for e in g.edges], len(g.edges) // 2))
    return build_graph(g.vertices, [replace(e, matrix=-e.matrix) if e.id in flipped else e for e in g.edges])


def mirror(g: DecompositionGraph) -> DecompositionGraph:
    """The graph of the manifold with its orientation reversed, then
    normalize_all: each fibre (p, q) becomes (p, p - q), re-sorted, b
    becomes -b - r for r fibres, and each matrix (alpha beta / gamma delta)
    becomes (alpha -beta / -gamma delta).  Every +-H label stays +-H."""
    vertices = {vid: SeifertData(s.g, tuple(sorted((p, p - q) for p, q in s.fibres)), -s.b - len(s.fibres))
                for vid, s in g.vertices.items()}
    edges = [replace(e, matrix=Gl2Matrix(e.matrix.alpha, -e.matrix.beta, -e.matrix.gamma, e.matrix.delta))
             for e in g.edges]
    return normalize_all(build_graph(vertices, edges))[0]


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


def connectivity_sweep() -> list[DecompositionGraph]:
    """502 seeded graphs of which about half are disconnected: the empty
    graph, one bare piece, and random multigraphs, loops and parallel edges
    kept, with some edges dropped and some isolated pieces added."""
    rng = random.Random(13)
    piece = SeifertData(0, ((2, 1), (2, 1)), 0)
    graphs = [DecompositionGraph({}, ()), DecompositionGraph({"v1": piece}, ())]
    for _ in range(500):
        n = rng.randint(1, 6)
        g = random_multigraph(rng, n, rng.randint(n, n + 4))
        vertices = dict(g.vertices)
        for i in range(rng.choice((0, 0, 0, 1, 2))):
            vertices[f"w{i + 1}"] = piece
        graphs.append(build_graph(vertices, [e for e in g.edges if rng.random() < 0.9]))
    return graphs


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
