"""Output checks for the benchmark.

check_report recomputes every report entry it can from the graph document
with this file's own arithmetic: the term sums, the cycle term, vertex
bases from degrees counted on the raw edge list, fibre sums, Phi from a
greedy H-forest, edge terms by Farey flip search, and the penalty of every
vertex replayed from the witness.  It does not recompute the minimization;
check_oracle does that for a subset of graphs, through the brute-force
oracles, and compares value and witnesses.
"""

from __future__ import annotations

import json
import random

import gen
from gmbound.farey import complexity_by_search
from gmbound.gl2 import Gl2Matrix
from gmbound.graph import graph_from_json
from gmbound.oracle import bruteforce_min_f, bruteforce_phi
from gmbound.spanning import is_spanning_tree

# six-valued label -> ((source d+, source d-), (target d+, target d-))
PSI_PRIME_WEIGHTS = {
    "++": ((2, 0), (1, 0)),
    "+": ((1, 0), (2, 0)),
    "+-": ((1, 0), (0, 1)),
    "-+": ((0, 1), (1, 0)),
    "-": ((0, 1), (0, 2)),
    "--": ((0, 2), (0, 1)),
}

# graphs are eligible for the per-run oracle subset when naive labelings
# * |V| * |E| stays below this; the oracle spends about 3 us per unit
ORACLE_MAX_WORK = 500_000

_COMPLEXITY: dict[tuple, int] = {}


def _complexity(rows) -> int:
    key = (rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    if key not in _COMPLEXITY:
        _COMPLEXITY[key] = complexity_by_search(Gl2Matrix(*key))
    return _COMPLEXITY[key]


def _penalty(m: int, M: int, b: int) -> int:
    return m - b if b < m else b - M if b > M else 0


def check_report(graph: gen.Graph, text: str) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    try:
        rep = json.loads(text)
        terms, witness = rep["terms"], rep["witness"]
        edge_terms = [(t["id"], t["value"]) for t in terms["edges"]]
        vertex_terms = [(t["id"], t["base"], t["fibres"], t["penalty"]) for t in terms["vertices"]]
        tree, psi, psi_prime = witness["tree"], witness["psi"], witness["psi_prime"]
        theorem, total, phi_term = rep["theorem"], rep["total"], terms["phi"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]

    doc = graph.reference
    problems = []
    vertices = {v["id"]: v for v in doc["vertices"]}
    h_ids = [e["id"] for e in doc["edges"] if gen.is_h(e["matrix"])]
    phi = gen.capital_phi(doc)

    expected = sum(v for _, v in edge_terms) + sum(b + f + p for _, b, f, p in vertex_terms)
    if total != terms["cycle"] + phi_term + expected:
        problems.append(f"total {total} is not the sum of its terms")
    if terms["cycle"] != 5 * (len(doc["edges"]) - len(vertices) + 1):
        problems.append("cycle term")
    want = "regular" if not h_ids else "tree" if phi == 0 else "general"
    if theorem != want or phi_term != (phi if want == "general" else 0):
        problems.append(f"theorem {theorem} with phi {phi_term}, expected {want} with Phi {phi}")
        return problems

    non_h = [e for e in doc["edges"] if not gen.is_h(e["matrix"])]
    if [eid for eid, _ in edge_terms] != [e["id"] for e in non_h]:
        problems.append("edge term ids")
    elif any(val != _complexity(e["matrix"]) for (_, val), e in zip(edge_terms, non_h)):
        problems.append("edge term differs from the Farey flip search")

    degree = dict.fromkeys(vertices, 0)
    d_plus = dict.fromkeys(vertices, 0)
    d_minus = dict.fromkeys(vertices, 0)
    for e in doc["edges"]:
        degree[e["from"]] += 1
        degree[e["to"]] += 1
        if not gen.is_h(e["matrix"]):
            d_plus[e["from"]] += 1
            d_minus[e["to"]] += 1

    # degree increments from the witness labels
    plus = dict.fromkeys(vertices, 0)
    minus = dict.fromkeys(vertices, 0)
    ends = {e["id"]: (e["from"], e["to"]) for e in doc["edges"]}
    if theorem == "regular":
        inside, outside = [], []
        if (tree, psi, psi_prime) != (None, None, None):
            problems.append("regular report carries witnesses")
    elif theorem == "tree":
        inside, outside = h_ids, []
        if tree is not None or psi_prime is not None:
            problems.append("tree report carries a tree or psi'")
    else:
        if not isinstance(tree, list) or not is_spanning_tree(graph_from_json(json.dumps(doc)), tree):
            return problems + ["witness tree is not a spanning tree"]
        inside = [eid for eid in h_ids if eid in set(tree)]
        outside = [eid for eid in h_ids if eid not in set(tree)]
        if len(outside) != phi_term:
            problems.append(f"witness tree leaves {len(outside)} H-edges outside, phi is {phi_term}")
    if theorem != "regular" and (not isinstance(psi, dict) or sorted(psi) != sorted(inside)
                                 or any(v not in ("+", "-") for v in psi.values())):
        return problems + ["psi does not label the H-edges inside the tree"]
    if theorem == "general" and (not isinstance(psi_prime, dict) or sorted(psi_prime) != sorted(outside)
                                 or any(v not in PSI_PRIME_WEIGHTS for v in psi_prime.values())):
        return problems + ["psi' does not label the H-edges outside the tree"]
    for eid in inside:
        bucket = plus if psi[eid] == "+" else minus
        src, dst = ends[eid]
        bucket[src] += 1
        bucket[dst] += 1
    for eid in outside:
        (sp, sm), (tp, tm) = PSI_PRIME_WEIGHTS[psi_prime[eid]]
        src, dst = ends[eid]
        plus[src] += sp
        minus[src] += sm
        plus[dst] += tp
        minus[dst] += tm

    if [vid for vid, *_ in vertex_terms] != sorted(vertices):
        return problems + ["vertex term ids"]
    replayed = 0
    for vid, base, fibres, penalty in vertex_terms:
        v = vertices[vid]
        r, h = len(v["fibres"]), gen.handle_count(v["g"])
        if base != 3 * (degree[vid] + r + 2 * h - 2):
            problems.append(f"vertex {vid}: base term")
        if fibres != sum(gen.cf_sum(p, q) - 2 for p, q in v["fibres"]):
            problems.append(f"vertex {vid}: fibre sum")
        m = 1 - r - h - d_minus[vid] - minus[vid]
        M = h + d_plus[vid] + plus[vid] - 1
        pen = _penalty(m, M, v["b"])
        replayed += pen
        if pen != penalty:
            problems.append(f"vertex {vid}: witness gives penalty {pen}, report says {penalty}")
    if replayed != rep["min_penalty"]:
        problems.append(f"witness replays to {replayed}, min_penalty is {rep['min_penalty']}")
    return problems


def oracle_work(graph: gen.Graph) -> int:
    doc = graph.reference
    return graph.labelings * len(doc["vertices"]) * len(doc["edges"])


def oracle_subset(graphs: list[gen.Graph], seed: int, count: int) -> list[int]:
    """Indices of a seed-drawn subset of the graphs the oracle can afford."""
    eligible = [i for i, g in enumerate(graphs) if oracle_work(g) <= ORACLE_MAX_WORK]
    rng = random.Random(f"oracle-{seed}")
    return sorted(rng.sample(eligible, min(count, len(eligible))))


def check_oracle(graph: gen.Graph, text: str) -> list[str]:
    """Compare value and witnesses with bruteforce_phi and bruteforce_min_f.

    Phi is 0 without H-edges, and bruteforce_phi is skipped there: its
    subset enumeration cannot reach graphs of hundreds of pieces.
    """
    rep = json.loads(text)
    g = graph_from_json(json.dumps(graph.reference))
    has_h = any(gen.is_h(e["matrix"]) for e in graph.reference["edges"])
    phi = bruteforce_phi(g) if has_h else 0
    best = bruteforce_min_f(g, "tree" if phi == 0 else "general")
    witness = rep["witness"]
    expected_tree = list(best.tree) if phi else None
    problems = []
    if rep["terms"]["phi"] != phi:
        problems.append(f"oracle Phi {phi}, report phi {rep['terms']['phi']}")
    if rep["min_penalty"] != best.value:
        problems.append(f"oracle minimum {best.value}, report {rep['min_penalty']}")
    if witness["tree"] != expected_tree:
        problems.append("oracle witness tree differs")
    if (witness["psi"] or {}) != dict(best.psi) or (witness["psi_prime"] or {}) != dict(best.psi_prime):
        problems.append("oracle labels differ")
    return problems
