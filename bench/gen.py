"""Seeded workload generators for the benchmark; standard library only.

Every generator returns a list of Graph records built from a single
random.Random(seed), so the same seed always yields byte-identical files.
Nothing here imports gmbound: the corpus, its descriptors and the search
space sizes are derived by this module's own code, so set-up time does not
move when the package's search code changes.

Workloads:

  census          the criterion-4 pool generator (at most 5 vertices and 7
                  edges, p <= 7, |b| <= 4, H-probability 0.4), drawn as a
                  stratified sample with a fixed count per search class;
  big_regular     long cycles with a few chords, no H-edges, and edge
                  matrices deliberately moved out of normal form;
  tree_search     Phi = 0 trees with 10-12 H-edges in several H-components;
  general_search  ladders with H-rungs plus H-loops or parallel H-edges,
                  so that Phi >= 1 and there are many optimal trees.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations

DEFAULT_SEED = 1

H_ROWS = ([0, 1], [1, 0])
MINUS_H_ROWS = ([0, -1], [-1, 0])


@dataclass(frozen=True)
class Graph:
    """One benchmark input.

    text is the file the pipeline reads; reference is the graph the report
    must describe (the normalized form when normalize_first is set, else the
    parsed text itself).  labelings is the evaluator's naive search space:
    1 for regular graphs, 2^|H| in tree mode, and in general mode
    (#optimal trees) * 2^|T and H| * 6^Phi.
    """

    name: str
    text: str
    reference: dict
    normalize_first: bool
    theorem: str
    labelings: int


# ---------------------------------------------------------------------------
# graph arithmetic shared by the generators and the checker
# ---------------------------------------------------------------------------


def is_h(rows) -> bool:
    return rows in (list(H_ROWS), list(MINUS_H_ROWS))


def handle_count(g: int) -> int:
    return 2 * g if g >= 0 else -g


def cf_sum(p: int, q: int) -> int:
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


def _find(parent: dict, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def capital_phi(doc: dict) -> int:
    """H-edges that no spanning tree can hold: |H| minus the H-forest rank."""
    parent = {v["id"]: v["id"] for v in doc["vertices"]}
    leftover = 0
    for e in doc["edges"]:
        if not is_h(e["matrix"]):
            continue
        ru, rv = _find(parent, e["from"]), _find(parent, e["to"])
        if ru == rv:
            leftover += 1
        else:
            parent[ru] = rv
    return leftover


def _det(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _tree_count(vertices, edges) -> int:
    """Spanning trees of a multigraph (Kirchhoff); loops are ignored."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(index)
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        i, j = index[u], index[v]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return _det([row[1:] for row in lap[1:]])


def classify(doc: dict) -> tuple[str, int, int]:
    """(theorem, Phi, naive labeling count) from the document alone.

    The optimal trees are exactly those whose H-part is a basis of the
    H-subgraph's graphic matroid, so their number is the sum over bases B
    of the spanning-tree count of the non-H multigraph with B contracted.
    """
    h_edges = [(e["from"], e["to"]) for e in doc["edges"] if is_h(e["matrix"])]
    if not h_edges:
        return "regular", 0, 1
    phi = capital_phi(doc)
    if phi == 0:
        return "tree", 0, 2 ** len(h_edges)
    vids = [v["id"] for v in doc["vertices"]]
    other = [(e["from"], e["to"]) for e in doc["edges"] if not is_h(e["matrix"])]
    rank = len(h_edges) - phi
    trees = 0
    for basis in combinations([(u, v) for u, v in h_edges if u != v], rank):
        parent = {v: v for v in vids}
        acyclic = True
        for u, v in basis:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            roots = sorted({_find(parent, v) for v in vids})
            trees += _tree_count(roots, [(_find(parent, u), _find(parent, v)) for u, v in other])
    return "general", phi, trees * 2 ** rank * 6 ** phi


def document(vertices, edges) -> dict:
    """A graph document with vertices and edges sorted by id."""
    return {
        "vertices": sorted(vertices, key=lambda v: v["id"]),
        "edges": sorted(edges, key=lambda e: e["id"]),
    }


def _graph(name: str, doc: dict, reference: dict | None = None) -> Graph:
    theorem, _, labelings = classify(doc)
    return Graph(name, json.dumps(doc) + "\n", reference or doc, reference is not None, theorem, labelings)


# ---------------------------------------------------------------------------
# random pieces
# ---------------------------------------------------------------------------


def random_normalized_matrix(rng: random.Random, beta_max: int = 12) -> list[list[int]]:
    """A normalized determinant -1 matrix with 2 <= |beta| <= beta_max."""
    beta = rng.randint(2, beta_max)
    units = [d for d in range(1, beta) if math.gcd(d, beta) == 1]
    delta = rng.choice(units)
    alpha = (-pow(delta, -1, beta)) % beta
    gamma = (alpha * delta + 1) // beta
    sign = -1 if rng.random() < 0.5 else 1
    return [[sign * alpha, sign * beta], [sign * gamma, sign * delta]]


def random_h_matrix(rng: random.Random) -> list[list[int]]:
    return [list(r) for r in (H_ROWS if rng.random() < 0.5 else MINUS_H_ROWS)]


def _fibres(rng: random.Random, r: int, p_max: int) -> list[list[int]]:
    out = []
    for _ in range(r):
        p = rng.randint(2, p_max)
        q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
        out.append((p, q))
    return [list(pair) for pair in sorted(out)]


def _degrees(n: int, ends) -> list[int]:
    degree = [0] * n
    for u, v in ends:
        degree[u] += 1
        degree[v] += 1
    return degree


def _piece(rng: random.Random, vid: str, degree: int, p_max: int = 7, b_max: int = 4) -> dict:
    """Seifert data passing the class-S inequality d + r + 2h >= 3."""
    while True:
        g = rng.choice((-2, -1, 0, 0, 0, 1, 1, 2))
        r = rng.randint(0, 3)
        if degree + r + 2 * handle_count(g) >= 3:
            break
    fibres = _fibres(rng, r, p_max)
    return {"id": vid, "g": g, "fibres": fibres, "b": rng.randint(-b_max, b_max)}


# ---------------------------------------------------------------------------
# census: the criterion-4 pool, stratified by search class
# ---------------------------------------------------------------------------

CENSUS_GRAPHS = 2000

# Expected share of each search class among valid draws of the criterion-4
# generator, measured over 200000 draws.  "general-k" holds the general-mode
# graphs with 2^k <= naive labelings < 2^(k+1).  Draws of 2^16 or more
# labelings (about 1 in 3200; 1-3 s each, so a single one would be half a
# pass) are left out of census; general_search covers large searches.
CENSUS_SHARES = {
    "regular": 0.14520,
    "tree": 0.38804,
    "general-2": 0.07589,
    "general-3": 0.04458,
    "general-4": 0.06087,
    "general-5": 0.09567,
    "general-6": 0.04412,
    "general-7": 0.07201,
    "general-8": 0.02043,
    "general-9": 0.01494,
    "general-10": 0.02229,
    "general-11": 0.00361,
    "general-12": 0.00817,
    "general-13": 0.00187,
    "general-14": 0.00068,
    "general-15": 0.00128,
}
CENSUS_MAX_LABELINGS = 2 ** 16


def census_class(theorem: str, labelings: int) -> str:
    if theorem != "general":
        return theorem
    return f"general-{labelings.bit_length() - 1}"


def census_quotas(count: int) -> dict[str, int]:
    """Graphs per search class, rounded so that they sum to count."""
    total = sum(CENSUS_SHARES.values())
    raw = {k: count * v / total for k, v in CENSUS_SHARES.items()}
    quotas = {k: int(x) for k, x in raw.items()}
    for k in sorted(raw, key=lambda k: quotas[k] - raw[k])[:count - sum(quotas.values())]:
        quotas[k] += 1
    return quotas


def _excluded(doc: dict) -> bool:
    """The small labeled shapes that validation excludes, (i) and (ii)(a)-(c)."""
    degree = {v["id"]: 0 for v in doc["vertices"]}
    for e in doc["edges"]:
        degree[e["from"]] += 1
        degree[e["to"]] += 1
    pieces = {v["id"]: v for v in doc["vertices"]}

    def half_disk(v):
        return v["g"] == 0 and v["fibres"] == [[2, 1], [2, 1]]

    for e in doc["edges"]:
        if is_h(e["matrix"]):
            for vid in {e["from"], e["to"]}:
                v = pieces[vid]
                if half_disk(v) and v["b"] == -1 and degree[vid] == 1:
                    return True
    if len(pieces) == 2 and len(doc["edges"]) == 1 and doc["edges"][0]["from"] != doc["edges"][0]["to"]:
        e = doc["edges"][0]
        s, t = pieces[e["from"]], pieces[e["to"]]
        if half_disk(s) and half_disk(t):
            pair = (s["b"], t["b"])
            (a, b), (c, d) = e["matrix"]
            for sign in (1, -1):
                a2, b2, c2, d2 = sign * a, sign * b, sign * c, sign * d
                if b2 > 1 and a2 == 1 and c2 == 1 and d2 == b2 - 1 and pair == (-1, -2):
                    return True
                if b2 > 1 and a2 == b2 - 1 and c2 == 1 and d2 == 1 and pair == (0, -1):
                    return True
            if is_h(e["matrix"]) and pair in ((0, 0), (-2, -2)):
                return True
    return False


def census_draw(rng: random.Random) -> dict:
    """One valid graph, with the same draw sequence as the test suite's
    random_valid_graph(rng, 5, 7, 7, 4, 0.4)."""
    while True:
        n = rng.randint(1, 5)
        m = rng.randint(max(1, n - 1), 7)
        ends = []
        for i in range(1, n):
            other = rng.randrange(i)
            ends.append((i, other) if rng.random() < 0.5 else (other, i))
        while len(ends) < m:
            ends.append((rng.randrange(n), rng.randrange(n)))
        edges = []
        for idx, (u, v) in enumerate(ends):
            matrix = random_h_matrix(rng) if rng.random() < 0.4 else random_normalized_matrix(rng)
            edges.append({"id": f"e{idx + 1}", "from": f"v{u + 1}", "to": f"v{v + 1}", "matrix": matrix})
        degree = _degrees(n, ends)
        vertices = [_piece(rng, f"v{i + 1}", degree[i]) for i in range(n)]
        doc = document(vertices, edges)
        if not _excluded(doc):
            return doc


def census(seed: int, count: int = CENSUS_GRAPHS) -> list[Graph]:
    rng = random.Random(seed)
    quotas = census_quotas(count)
    out: list[Graph] = []
    while len(out) < count:
        doc = census_draw(rng)
        theorem, _, labelings = classify(doc)
        if labelings >= CENSUS_MAX_LABELINGS:
            continue
        cls = census_class(theorem, labelings)
        if quotas.get(cls):
            quotas[cls] -= 1
            out.append(Graph(f"g{len(out):05d}", json.dumps(doc) + "\n", doc, False, theorem, labelings))
    return out


# ---------------------------------------------------------------------------
# big_regular: long cycles, no H-edges, matrices out of normal form
# ---------------------------------------------------------------------------

BIG_REGULAR_GRAPHS = 100


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count integers covering [lo, hi] evenly (one per stratum), shuffled."""
    values = [lo + int((hi - lo + 1) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return values


def _denormalize(rng: random.Random, matrix, span: int = 3):
    """U^-h * A * U^-k for random k, h: normalizing gives back A with moves (k, h)."""
    (a, b), (c, d) = matrix
    k, h = rng.randint(-span, span), rng.randint(-span, span)
    # A * U^-k: column 0 -= k * column 1
    a, c = a - k * b, c - k * d
    # U^-h * (.): row 1 -= h * row 0
    c, d = c - h * a, d - h * b
    return [[a, b], [c, d]], k, h


def big_regular(seed: int, count: int = BIG_REGULAR_GRAPHS) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for i, n in enumerate(_stratified(rng, count, 100, 600)):
        ends = [(j, (j + 1) % n) for j in range(n)]
        for _ in range(rng.randint(1, 3)):
            u = rng.randrange(n)
            ends.append((u, (u + rng.randint(2, n - 2)) % n))
        degree = _degrees(n, ends)
        vids = [f"v{j:04d}" for j in range(n)]
        vertices = [_piece(rng, vids[j], degree[j]) for j in range(n)]
        edges, raw_edges = [], []
        shift = [0] * n
        for j, (u, v) in enumerate(ends):
            matrix = random_normalized_matrix(rng)
            moved, k, h = _denormalize(rng, matrix)
            shift[u] -= k
            shift[v] += h
            eid = f"e{j:04d}"
            edges.append({"id": eid, "from": vids[u], "to": vids[v], "matrix": matrix})
            raw_edges.append({"id": eid, "from": vids[u], "to": vids[v], "matrix": moved})
        raw_vertices = [dict(vx, b=vx["b"] + shift[j]) for j, vx in enumerate(vertices)]
        out.append(_graph(f"g{i:05d}", document(raw_vertices, raw_edges), document(vertices, edges)))
    return out


# ---------------------------------------------------------------------------
# tree_search: Phi = 0, 10-12 H-edges in several H-components
# ---------------------------------------------------------------------------

TREE_SEARCH_GRAPHS = 100


def _h_components(n: int, h_ends) -> tuple[int, int]:
    """(H-components with at least one edge, largest H-degree)."""
    parent = list(range(n))
    degree = [0] * n
    for u, v in h_ends:
        degree[u] += 1
        degree[v] += 1
        parent[_find(parent, u)] = _find(parent, v)
    roots = {_find(parent, u) for u, v in h_ends}
    return len(roots), max(degree)


def tree_search(seed: int, count: int = TREE_SEARCH_GRAPHS) -> list[Graph]:
    rng = random.Random(seed)
    ks = [10 + i % 3 for i in range(count)]
    rng.shuffle(ks)
    out = []
    for i, k in enumerate(ks):
        while True:
            n = rng.randint(18, 22)
            tree = [(j, rng.randrange(j)) for j in range(1, n)]
            h_ends = rng.sample(tree, k)
            components, star = _h_components(n, h_ends)
            if components >= 2 and star >= 3:
                break
        h_set = set(h_ends)
        ends = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in tree]
        kinds = [(u, v) in h_set for u, v in tree]
        for _ in range(rng.randint(2, 4)):
            u, v = rng.sample(range(n), 2)
            ends.append((u, v))
            kinds.append(False)
        degree = _degrees(n, ends)
        vids = [f"v{j:02d}" for j in range(n)]
        edges = [
            {"id": f"e{j:02d}", "from": vids[u], "to": vids[v],
             "matrix": random_h_matrix(rng) if h else random_normalized_matrix(rng)}
            for j, ((u, v), h) in enumerate(zip(ends, kinds))
        ]
        while True:
            vertices = [_piece(rng, vids[j], degree[j]) for j in range(n)]
            doc = document(vertices, edges)
            if not _excluded(doc):
                break
        out.append(_graph(f"g{i:05d}", doc))
    return out


# ---------------------------------------------------------------------------
# general_search: ladders with H-rungs and Phi >= 1
# ---------------------------------------------------------------------------

GENERAL_SEARCH_GRAPHS = 100
GENERAL_MIN_LABELINGS = 2 ** 10
GENERAL_MAX_LABELINGS = 2 ** 14


def _ladder(rng: random.Random) -> tuple[int, list, list]:
    """(vertex count, edge ends, H flags) of a ladder with H-rungs and
    one or two H-loops or H-edges parallel to an H-rung."""
    rungs = rng.randint(4, 6)
    n = 2 * rungs
    ends, kinds = [], []
    for j in range(rungs - 1):
        ends += [(j, j + 1), (rungs + j, rungs + j + 1)]
        kinds += [False, False]
    h_rungs = rng.sample(range(rungs), rng.randint(2, rungs))
    for j in range(rungs):
        ends.append((j, rungs + j) if rng.random() < 0.5 else (rungs + j, j))
        kinds.append(j in h_rungs)
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            u = rng.randrange(n)
            ends.append((u, u))
        else:
            j = rng.choice(h_rungs)
            ends.append((rungs + j, j))
        kinds.append(True)
    order = list(range(len(ends)))
    rng.shuffle(order)
    return n, [ends[j] for j in order], [kinds[j] for j in order]


def general_search(seed: int, count: int = GENERAL_SEARCH_GRAPHS) -> list[Graph]:
    """Ladders whose naive labeling count lies in [2^10, 2^14), an equal
    number in each of eight strata of log2(labelings)."""
    rng = random.Random(seed)
    lo, hi = math.log2(GENERAL_MIN_LABELINGS), math.log2(GENERAL_MAX_LABELINGS)
    strata = [i % 8 for i in range(count)]
    rng.shuffle(strata)
    out = []
    for i, stratum in enumerate(strata):
        low = lo + (hi - lo) * stratum / 8
        high = lo + (hi - lo) * (stratum + 1) / 8
        while True:
            n, ends, kinds = _ladder(rng)
            vids = [f"v{j:02d}" for j in range(n)]
            edges = [
                {"id": f"e{j:02d}", "from": vids[u], "to": vids[v],
                 "matrix": random_h_matrix(rng) if h else random_normalized_matrix(rng)}
                for j, ((u, v), h) in enumerate(zip(ends, kinds))
            ]
            _, _, labelings = classify(document([{"id": v} for v in vids], edges))
            if low <= math.log2(labelings) < high:
                break
        degree = _degrees(n, ends)
        vertices = [_piece(rng, vids[j], degree[j]) for j in range(n)]
        out.append(_graph(f"g{i:05d}", document(vertices, edges)))
    return out


WORKLOADS = {
    "census": census,
    "big_regular": big_regular,
    "tree_search": tree_search,
    "general_search": general_search,
}


def describe(graphs: list[Graph]) -> dict:
    """Structural descriptor of a corpus, from the documents alone."""
    docs = [g.reference for g in graphs]
    vs = [len(d["vertices"]) for d in docs]
    es = [len(d["edges"]) for d in docs]
    hs = [sum(is_h(e["matrix"]) for e in d["edges"]) for d in docs]
    mix: dict[str, int] = {}
    for g in graphs:
        mix[g.theorem] = mix.get(g.theorem, 0) + 1
    labelings = [g.labelings for g in graphs]
    return {
        "graphs": len(graphs),
        "vertices": [min(vs), max(vs)],
        "edges": [min(es), max(es)],
        "h_edges": [min(hs), max(hs)],
        "h_edges_total": sum(hs),
        "theorem_mix": dict(sorted(mix.items())),
        "naive_labelings": [min(labelings), max(labelings)],
        "naive_labelings_total": sum(labelings),
    }
