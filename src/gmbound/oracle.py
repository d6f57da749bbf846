"""Brute-force recomputation of every optimized quantity in the package.

Each function here takes the slow, obviously-correct route so that the
production shortcuts can be checked against it:

  bruteforce_phi     spanning trees by subset enumeration instead of the
                     greedy forest argument;
  bruteforce_min_f   plain nested loops over assignments (and over the
                     optimal trees, themselves re-derived by enumeration)
                     with the degree counts recomputed from the raw edge
                     list on every use;
  verify_lemma       enumerates every normalized determinant -1 matrix with
                     bounded |beta| and compares the continued fraction
                     formula with the flip-distance search.

Only the value types, the default assignment cap, the penalty function f
and cf_sum are shared with the production code; the search logic is written
independently on purpose.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bounds import DEFAULT_ASSIGNMENT_CAP, CapExceeded, f
from .farey import TAU_MINUS, TAU_PLUS, act, complexity_by_search, farey_distance, matrix_complexity
from .gl2 import H, Gl2Matrix, int_text, is_normalized, is_plus_minus_h
from .graph import DecompositionGraph

# the most candidate sets the spanning-tree enumeration checks by default
DEFAULT_TREE_CAP = 10**6


# ---------------------------------------------------------------------------
# spanning trees, the slow way
# ---------------------------------------------------------------------------


def _spans(vertex_ids, edges) -> bool:
    """Whether the edges connect all vertices (checked by plain traversal)."""
    if not vertex_ids:
        return False
    neighbours = {vid: [] for vid in vertex_ids}
    for e in edges:
        neighbours[e.src].append(e.dst)
        neighbours[e.dst].append(e.src)
    todo = [next(iter(vertex_ids))]
    seen = set(todo)
    while todo:
        for nxt in neighbours[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == len(vertex_ids)


def _all_spanning_trees(g: DecompositionGraph, cap: int) -> list[tuple]:
    """Every spanning tree as a tuple of edges, by checking all subsets of
    size |V| - 1.  A subset of that size spans exactly when it is a tree."""
    vids = list(g.vertices)
    non_loop = [e for e in g.edges if e.src != e.dst]
    total = math.comb(len(non_loop), len(vids) - 1)
    if total > cap:
        raise CapExceeded(
            f"subset enumeration needs {int_text(total)} > cap {int_text(cap)} candidate sets", needed=total)
    return [combo for combo in itertools.combinations(non_loop, len(vids) - 1)
            if _spans(vids, combo)]


def bruteforce_phi(g: DecompositionGraph, cap: int = DEFAULT_TREE_CAP) -> int:
    """Minimum number of H-edges outside a spanning tree, by full enumeration."""
    trees = _all_spanning_trees(g, cap)
    if not trees:
        raise ValueError("graph has no spanning tree (disconnected)")
    h_total = sum(1 for e in g.edges if is_plus_minus_h(e.matrix))
    return min(h_total - sum(1 for e in tree if is_plus_minus_h(e.matrix)) for tree in trees)


# ---------------------------------------------------------------------------
# penalty minimum, the slow way
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinFResult:
    """Minimum penalty sum and the first witnesses attaining it."""

    value: int
    tree: tuple[str, ...] | None
    psi: tuple[tuple[str, str], ...]
    psi_prime: tuple[tuple[str, str], ...]


def _window_penalty_sum(g: DecompositionGraph, plus_extra, minus_extra) -> int:
    """Penalty sum with all degree counts recomputed from the edge list."""
    total = 0
    for vid, s in g.vertices.items():
        d_plus = sum(1 for e in g.edges if not is_plus_minus_h(e.matrix) and e.src == vid)
        d_minus = sum(1 for e in g.edges if not is_plus_minus_h(e.matrix) and e.dst == vid)
        r = len(s.fibres)
        h = 2 * s.g if s.g >= 0 else -s.g
        m = 1 - r - h - d_minus - minus_extra.get(vid, 0)
        M = h + d_plus + plus_extra.get(vid, 0) - 1
        total += f(m, M, s.b)
    return total


def _sign_extras(edges, values):
    plus: dict[str, int] = {}
    minus: dict[str, int] = {}
    for e, val in zip(edges, values):
        if val == "+":
            plus[e.src] = plus.get(e.src, 0) + 1
            plus[e.dst] = plus.get(e.dst, 0) + 1
        elif val == "-":
            minus[e.src] = minus.get(e.src, 0) + 1
            minus[e.dst] = minus.get(e.dst, 0) + 1
        else:
            raise ValueError(f"bad sign {val!r}")
    return plus, minus


def _add_six_valued(plus, minus, e, val) -> None:
    if val == "++":
        plus[e.src] = plus.get(e.src, 0) + 2
        plus[e.dst] = plus.get(e.dst, 0) + 1
    elif val == "+":
        plus[e.src] = plus.get(e.src, 0) + 1
        plus[e.dst] = plus.get(e.dst, 0) + 2
    elif val == "+-":
        plus[e.src] = plus.get(e.src, 0) + 1
        minus[e.dst] = minus.get(e.dst, 0) + 1
    elif val == "-+":
        minus[e.src] = minus.get(e.src, 0) + 1
        plus[e.dst] = plus.get(e.dst, 0) + 1
    elif val == "-":
        minus[e.src] = minus.get(e.src, 0) + 1
        minus[e.dst] = minus.get(e.dst, 0) + 2
    elif val == "--":
        minus[e.src] = minus.get(e.src, 0) + 2
        minus[e.dst] = minus.get(e.dst, 0) + 1
    else:
        raise ValueError(f"bad six-valued sign {val!r}")


def bruteforce_min_f(
    g: DecompositionGraph,
    mode: str,
    tree_cap: int = DEFAULT_TREE_CAP,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> MinFResult:
    """Exhaustive penalty minimum for the tree or general bookkeeping.

    mode "tree": minimize over sign assignments on all H-edges (no tree is
    involved).  mode "general": re-derive the optimal trees by enumeration,
    then minimize over tree, signs on tree H-edges, and six-valued signs on
    the rest.  Enumeration order matches the production evaluators, so the
    witnesses must agree as well.
    """
    h_edges = [e for e in g.edges if is_plus_minus_h(e.matrix)]

    if mode == "tree":
        count = 2 ** len(h_edges)
        if count > assignment_cap:
            raise CapExceeded(f"needs {int_text(count)} > cap {int_text(assignment_cap)} assignments", needed=count)
        best = None
        for values in itertools.product(("+", "-"), repeat=len(h_edges)):
            plus, minus = _sign_extras(h_edges, values)
            total = _window_penalty_sum(g, plus, minus)
            if best is None or total < best[0]:
                best = (total, values)
        total, values = best
        return MinFResult(total, None, tuple((e.id, v) for e, v in zip(h_edges, values)), ())

    if mode != "general":
        raise ValueError(f"mode must be 'tree' or 'general', got {mode!r}")

    trees = _all_spanning_trees(g, tree_cap)
    if not trees:
        raise ValueError("graph has no spanning tree (disconnected)")
    h_total = len(h_edges)
    phi_per_tree = [h_total - sum(1 for e in tree if is_plus_minus_h(e.matrix)) for tree in trees]
    best_phi = min(phi_per_tree)

    best = None
    for tree, tree_phi in zip(trees, phi_per_tree):
        if tree_phi != best_phi:
            continue
        tree_ids = {e.id for e in tree}
        inside = [e for e in h_edges if e.id in tree_ids]
        outside = [e for e in h_edges if e.id not in tree_ids]
        count = (2 ** len(inside)) * (6 ** len(outside))
        if count > assignment_cap:
            raise CapExceeded(f"needs {int_text(count)} > cap {int_text(assignment_cap)} assignments", needed=count)
        for psi_vals in itertools.product(("+", "-"), repeat=len(inside)):
            for psip_vals in itertools.product(
                    ("++", "+", "+-", "-+", "-", "--"), repeat=len(outside)):
                plus, minus = _sign_extras(inside, psi_vals)
                for e, val in zip(outside, psip_vals):
                    _add_six_valued(plus, minus, e, val)
                total = _window_penalty_sum(g, plus, minus)
                if best is None or total < best[0]:
                    best = (total, tree, psi_vals, psip_vals)

    total, tree, psi_vals, psip_vals = best
    tree_ids = {e.id for e in tree}
    inside = [e for e in h_edges if e.id in tree_ids]
    outside = [e for e in h_edges if e.id not in tree_ids]
    return MinFResult(
        total,
        tuple(sorted(e.id for e in tree)),
        tuple((e.id, v) for e, v in zip(inside, psi_vals)),
        tuple((e.id, v) for e, v in zip(outside, psip_vals)),
    )


# ---------------------------------------------------------------------------
# the complexity formula, checked matrix by matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaFailure:
    matrix: Gl2Matrix
    formula: int
    searched: int
    direct: int


@dataclass(frozen=True)
class LemmaReport:
    beta_max: int
    checked: int
    h_cases_ok: bool
    failures: tuple[LemmaFailure, ...]

    @property
    def ok(self) -> bool:
        return self.h_cases_ok and not self.failures


def _normalized_matrices(beta_max: int):
    """Every normalized determinant -1 matrix with 2 <= |beta| <= beta_max.

    For beta > 0 the window forces 0 <= alpha, delta < beta; the determinant
    then pins alpha = -delta^(-1) mod beta (so delta must be a unit) and
    gamma = (alpha * delta + 1) / beta.  Negating a normalized matrix gives
    exactly the normalized matrices with beta < 0.
    """
    for beta in range(2, beta_max + 1):
        for delta in range(1, beta):
            if math.gcd(delta, beta) != 1:
                continue
            alpha = (-pow(delta, -1, beta)) % beta
            gamma = (alpha * delta + 1) // beta
            m = Gl2Matrix(alpha, beta, gamma, delta)
            if not is_normalized(m):
                raise RuntimeError(f"enumeration produced a non-normalized matrix {m}")
            yield m
            yield -m


def verify_lemma(beta_max: int) -> LemmaReport:
    """Check the complexity formula against pure tree search.

    For every normalized matrix with 2 <= |beta| <= beta_max the continued
    fraction value cf_sum(|beta|, |delta|) - 1 must equal both the minimum
    over the four image/base distance combinations and the single distance
    d(m(tau-), tau+).  The +-H cases are checked separately: complexity 0,
    attained by both fixed base triangles.
    """
    failures = []
    checked = 0
    for m in _normalized_matrices(beta_max):
        checked += 1
        formula = matrix_complexity(m)
        searched = complexity_by_search(m)
        direct = farey_distance(act(m, TAU_MINUS), TAU_PLUS)
        if not (formula == searched == direct):
            failures.append(LemmaFailure(m, formula, searched, direct))

    h_cases_ok = True
    for m in (H, -H):
        if matrix_complexity(m) != 0 or complexity_by_search(m) != 0:
            h_cases_ok = False
        if farey_distance(act(m, TAU_MINUS), TAU_MINUS) != 0:
            h_cases_ok = False
        if farey_distance(act(m, TAU_PLUS), TAU_PLUS) != 0:
            h_cases_ok = False

    return LemmaReport(beta_max, checked, h_cases_ok, tuple(failures))
