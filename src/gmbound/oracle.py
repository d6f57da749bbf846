"""Brute-force recomputation of every optimized quantity in the package.

Each function here takes the slow, obviously-correct route so that the
production shortcuts can be checked against it:

  bruteforce_phi     spanning trees by subset enumeration instead of the
                     greedy forest argument;
  bruteforce_min_f   plain nested loops over assignments (and over the
                     optimal trees, themselves re-derived by enumeration)
                     with the degree counts recomputed from the raw edge
                     list on every use;
  replay             a report's every term recomputed at its own witness,
                     where the brute force cannot reach;
  verify_lemma       enumerates every normalized determinant -1 matrix with
                     bounded |beta| and compares the continued fraction
                     formula with the flip-distance search.

From the production code it imports only the value types (Gl2Matrix, H,
DecompositionGraph), the budget's default and error (DEFAULT_ASSIGNMENT_CAP,
CapExceeded), int_text for its messages, the label predicates is_normalized
and is_plus_minus_h, and the closed forms matrix_complexity, which
verify_lemma checks, and cf_sum, which replay prices fibres with.  From farey
it imports the flip search it checks matrix_complexity with (TAU_MINUS,
TAU_PLUS, act, farey_distance, complexity_by_search).  Nothing else: not
graph._split, spanning.optimal_trees or bounds._search, the code it checks.
The penalty function f and the search logic are written here, independently
on purpose.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bounds import DEFAULT_ASSIGNMENT_CAP, CapExceeded
from .farey import TAU_MINUS, TAU_PLUS, act, complexity_by_search, farey_distance
from .gl2 import H, Gl2Matrix, cf_sum, int_text, is_normalized, is_plus_minus_h, matrix_complexity
from .graph import DecompositionGraph

# the most candidate sets the spanning-tree enumeration checks
DEFAULT_TREE_CAP = 10**6


# ---------------------------------------------------------------------------
# spanning trees, the slow way
# ---------------------------------------------------------------------------


def _components(vertex_ids, edges) -> int:
    """Number of connected components the edges leave (by plain traversal)."""
    neighbours = {vid: [] for vid in vertex_ids}
    for e in edges:
        neighbours[e.src].append(e.dst)
        neighbours[e.dst].append(e.src)
    seen, count = set(), 0
    for start in vertex_ids:
        if start not in seen:
            count += 1
            seen.add(start)
            todo = [start]
            while todo:
                for nxt in neighbours[todo.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
    return count


def _spans(vertex_ids, edges) -> bool:
    """Whether the edges connect all vertices, of which there is at least one."""
    return _components(vertex_ids, edges) == 1


def _all_spanning_trees(g: DecompositionGraph) -> list[tuple]:
    """Every spanning tree as a tuple of edges, by checking all subsets of
    size |V| - 1.  A subset of that size spans exactly when it is a tree."""
    vids = list(g.vertices)
    non_loop = [e for e in g.edges if e.src != e.dst]
    total = math.comb(len(non_loop), len(vids) - 1)
    if total > DEFAULT_TREE_CAP:
        raise CapExceeded(
            f"subset enumeration needs {int_text(total)} > cap {int_text(DEFAULT_TREE_CAP)} candidate sets",
            needed=total)
    return [combo for combo in itertools.combinations(non_loop, len(vids) - 1)
            if _spans(vids, combo)]


def bruteforce_phi(g: DecompositionGraph) -> int:
    """Minimum number of H-edges outside a spanning tree, by full enumeration."""
    trees = _all_spanning_trees(g)
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


def f(m: int, M: int, b: int) -> int:
    """Distance of b from the window [m, M]: m - b below, b - M above, else 0.

    Requires m < M, m <= 1 and M >= -1; violations signal an inadmissible
    piece upstream and are rejected rather than clamped.
    """
    if not (m < M and m <= 1 and M >= -1):
        raise ValueError(f"invalid penalty window m={m}, M={M}; need m < M, m <= 1, M >= -1")
    if b < m:
        return m - b
    if b > M:
        return b - M
    return 0


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


def bruteforce_min_f(g: DecompositionGraph, mode: str, *, assignment_cap: int = DEFAULT_ASSIGNMENT_CAP) -> MinFResult:
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

    trees = _all_spanning_trees(g)
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
# a report, replayed from its own witness
# ---------------------------------------------------------------------------


def replay(g: DecompositionGraph, report) -> list[str]:
    """The disagreements between a bounds.BoundReport for g and its own
    witness, replayed with this module's bookkeeping; [] when all agree.

    The witness labels the H-edges: each once, psi and psi' each in id
    order, psi' as many as Phi, |H| less the rank of the H-edges.  In
    general mode the tree is a spanning tree whose H-edges are psi's; the
    other modes report no tree and no psi', and regular mode no psi and no
    H-edge.  Every term is then recomputed at that witness, with the
    degrees counted from the raw edges: the vertex terms, compared as
    (base, fibres, penalty) triples, the penalty sum, the edge, cycle and
    Phi terms, and the total.

    Nothing comes from graph._split, spanning.optimal_trees or the search.
    An empty list shows that the total is the formula's value at the
    reported witness.  The bound is the least such value, so the total is
    still an upper bound; whether it is the least, replay cannot tell.
    """
    h_edges = [e for e in g.edges if is_plus_minus_h(e.matrix)]
    h_ids = [e.id for e in h_edges]
    psi, psi_prime = report.witness_psi or (), report.witness_psi_prime or ()
    signs, six = dict(psi), dict(psi_prime)
    phi = len(h_edges) - len(g.vertices) + _components(g.vertices, h_edges)
    regular = report.theorem == "regular"
    # (what, reported, replayed)
    rows = [
        ("labeled H-edges", sorted([eid for eid, _ in psi + psi_prime]), h_ids),
        ("psi order", [eid for eid, _ in psi], [eid for eid in h_ids if eid in signs]),
        ("psi' order", [eid for eid, _ in psi_prime], [eid for eid in h_ids if eid in six]),
        ("psi given", report.witness_psi is not None, not regular),
        ("H-edges under regular", h_ids if regular else [], []),
        ("phi term", report.phi_term, phi),
        ("psi' size", len(psi_prime), phi),
    ]
    if report.theorem == "general":
        inside = set(report.witness_tree or ())
        tree = [e for e in g.edges if e.id in inside]
        rows += [
            ("tree ids", sorted(report.witness_tree or ()), sorted([e.id for e in tree])),
            ("tree size", len(tree), len(g.vertices) - 1),
            ("tree spans", True, _spans(g.vertices, tree)),
            ("tree H-edges", [eid for eid, _ in psi], [eid for eid in h_ids if eid in inside]),
        ]
    else:
        rows += [("tree", report.witness_tree, None), ("psi'", report.witness_psi_prime, None)]
    d_plus, d_minus, d = (dict.fromkeys(g.vertices, 0) for _ in range(3))
    for e in g.edges:
        d[e.src] += 1
        d[e.dst] += 1
        if not is_plus_minus_h(e.matrix):
            d_plus[e.src] += 1
            d_minus[e.dst] += 1
    edge_terms = [(e.id, matrix_complexity(e.matrix)) for e in g.edges if not is_plus_minus_h(e.matrix)]
    cycle = 5 * (len(g.edges) - len(g.vertices) + 1)
    rows += [("edge terms", list(report.edge_terms), edge_terms), ("cycle term", report.cycle_term, cycle)]
    found = []
    # a label outside the two alphabets, or a window a label leaves invalid,
    # raises in the oracle's bookkeeping; no term is priced then
    try:
        signed = [e for e in h_edges if e.id in signs]
        plus, minus = _sign_extras(signed, [signs[e.id] for e in signed])
        for e in h_edges:
            if e.id in six:
                _add_six_valued(plus, minus, e, six[e.id])
        terms = []
        for vid, s in g.vertices.items():
            r, h = len(s.fibres), 2 * s.g if s.g >= 0 else -s.g
            penalty = f(1 - r - h - d_minus[vid] - minus.get(vid, 0), h + d_plus[vid] + plus.get(vid, 0) - 1, s.b)
            terms.append((vid, (3 * (d[vid] + r + 2 * h - 2), sum([cf_sum(p, q) - 2 for p, q in s.fibres]), penalty)))
        window_sum = _window_penalty_sum(g, plus, minus)
    except ValueError as exc:
        found.append(f"labels: {exc}")
    else:
        rows += [
            ("vertex terms", [(vid, (t.base, t.fibre_sum, t.penalty)) for vid, t in report.vertex_terms], terms),
            ("min penalty", report.min_penalty, window_sum),
            ("min penalty, vertex by vertex", report.min_penalty, sum([penalty for _, (_, _, penalty) in terms])),
            ("total", report.total, cycle + phi + sum([v for _, v in edge_terms]) + sum([sum(t) for _, t in terms])),
        ]
    return found + [f"{what}: reported {got!r}, replayed {want!r}" for what, got, want in rows if got != want]


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
