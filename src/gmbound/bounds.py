"""Complexity upper bounds for validated decomposition graphs.

The bound is one formula: a cycle term 5(|E| - |V| + 1), plus Phi(G), plus
one term cf_sum(|beta|, |delta|) - 1 per non-H edge, plus a vertex term
3(d + r + 2h - 2) + sum(cf_sum(p, q) - 2) per piece, plus the least sum of
penalties f, one per vertex, each measuring how far b lies from a window
[m, M] set by the degree bookkeeping.  One search minimizes that penalty
sum over layouts, each a spanning tree (or none) with its H-edges split
into signed ones and six-valued ones; the three theorems are three labels
over it:

  bound_regular   no H-edges: one empty layout, nothing to choose;
  bound_tree      every H-edge fits into a single spanning tree (Phi = 0):
                  one layout with a sign + or - on every H-edge;
  bound_general   arbitrary graphs: one layout per distinct set T & H of
                  H-edges inside an optimal spanning tree T, taking the
                  first such tree, since the penalties depend on T only
                  through T & H; signs on T & H and one of six values on
                  each H-edge left outside, paying Phi(G) for those.

The search is exhaustive, capped and deterministic: ties go to the first
labeling in enumeration order (layouts in tree order, then signs with +
before -, then six values in PSI_PRIME_VALUES order, the last edge varying
fastest), so reports are byte-reproducible.

Windows always satisfy m < M, m <= 1, M >= -1 on class-S data; f checks
this on every call instead of assuming it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .farey import cf_sum, matrix_complexity
from .gl2 import is_plus_minus_h
from .graph import DecompositionGraph, degree_stats
from .seifert import handle_count
from .spanning import CapExceeded, capital_phi, optimal_trees, DEFAULT_TREE_CAP

DEFAULT_ASSIGNMENT_CAP = 2**20

# weighted degree increments of an H-edge per label, a sign on a tree edge
# or one of six values on an edge outside the tree:
# label -> ((source d+, source d-), (target d+, target d-))
_SIGN_WEIGHTS = {
    "+": ((1, 0), (1, 0)),
    "-": ((0, 1), (0, 1)),
}
_PSI_PRIME_WEIGHTS = {
    "++": ((2, 0), (1, 0)),
    "+": ((1, 0), (2, 0)),
    "+-": ((1, 0), (0, 1)),
    "-+": ((0, 1), (1, 0)),
    "-": ((0, 1), (0, 2)),
    "--": ((0, 2), (0, 1)),
}
PSI_PRIME_VALUES = tuple(_PSI_PRIME_WEIGHTS)


class TheoremInapplicable(ValueError):
    """The requested evaluator does not apply to this graph."""


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


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexTerms:
    """Per-vertex summands: 3(d + r + 2h - 2), fibre sum, window penalty."""

    base: int
    fibre_sum: int
    penalty: int

    @property
    def total(self) -> int:
        return self.base + self.fibre_sum + self.penalty


@dataclass(frozen=True)
class BoundReport:
    """A bound together with its full term breakdown and witnesses.

    total always equals cycle_term + phi_term + the edge terms + the vertex
    terms; min_penalty is the winning penalty sum and equals the sum of the
    per-vertex penalty entries.  Witness fields are None when the evaluator
    had nothing to choose (regular has no assignment, tree no tree).
    """

    theorem: str
    total: int
    cycle_term: int
    phi_term: int
    edge_terms: tuple[tuple[str, int], ...]
    vertex_terms: tuple[tuple[str, VertexTerms], ...]
    min_penalty: int
    witness_tree: tuple[str, ...] | None
    witness_psi: tuple[tuple[str, str], ...] | None
    witness_psi_prime: tuple[tuple[str, str], ...] | None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "total": self.total,
            "terms": {
                "cycle": self.cycle_term,
                "phi": self.phi_term,
                "edges": [{"id": eid, "value": val} for eid, val in self.edge_terms],
                "vertices": [
                    {"id": vid, "base": t.base, "fibres": t.fibre_sum, "penalty": t.penalty}
                    for vid, t in self.vertex_terms
                ],
            },
            "min_penalty": self.min_penalty,
            "witness": {
                "tree": list(self.witness_tree) if self.witness_tree is not None else None,
                "psi": dict(self.witness_psi) if self.witness_psi is not None else None,
                "psi_prime": dict(self.witness_psi_prime) if self.witness_psi_prime is not None else None,
            },
        }


# ---------------------------------------------------------------------------
# the search and its three labels
# ---------------------------------------------------------------------------


def _search(layouts, low, high, bs, index):
    """First labeling of least penalty sum over all layouts.

    A layout is (tree, signed H-edges, six-valued H-edges); low, high and bs
    hold each vertex's window [m, M] before any label and its b, indexed as
    in index.  Returns (per-vertex penalties, tree, psi, psi').
    """
    best = None
    for tree, signed, outside in layouts:
        edges = signed + outside
        tables = [_SIGN_WEIGHTS] * len(signed) + [_PSI_PRIME_WEIGHTS] * len(outside)
        choices = [[(label, index[e.src], index[e.dst], weights) for label, weights in table.items()]
                   for e, table in zip(edges, tables)]
        for labels in itertools.product(*choices):
            m, M = low.copy(), high.copy()
            for _, u, v, ((up, um), (vp, vm)) in labels:
                M[u] += up
                m[u] -= um
                M[v] += vp
                m[v] -= vm
            pens = [f(lo, hi, b) for lo, hi, b in zip(m, M, bs)]
            total = sum(pens)
            if best is None or total < best[0]:
                best = (total, pens, tree, edges, len(signed), labels)
    _, pens, tree, edges, n_signed, labels = best
    witness = tuple((e.id, label[0]) for e, label in zip(edges, labels))
    return pens, tree, witness[:n_signed], witness[n_signed:]


def _bound(
    g: DecompositionGraph,
    theorem: str | None,
    tree_cap: int = DEFAULT_TREE_CAP,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> BoundReport:
    """The evaluator behind all three theorems; None picks the most
    specific one that applies, any other label is checked to apply."""
    h_edges, rest = [], []
    for e in g.edges:
        (h_edges if is_plus_minus_h(e.matrix) else rest).append(e)
    phi_value = capital_phi(g) if h_edges else 0
    if theorem is None:
        theorem = "general" if phi_value else "tree" if h_edges else "regular"
    elif theorem == "regular" and h_edges:
        raise TheoremInapplicable(
            f"regular evaluator needs a graph without +-H edges, found {[e.id for e in h_edges]}")
    elif theorem == "tree" and phi_value:
        raise TheoremInapplicable("tree evaluator needs every +-H edge inside one spanning tree")

    # every optimal tree leaves Phi(G) H-edges outside, so the count does not
    # depend on the tree and is checked before any tree is enumerated
    count = 2 ** (len(h_edges) - phi_value) * 6 ** phi_value
    if theorem != "regular" and count > assignment_cap:
        raise CapExceeded(
            f"assignment search needs {count} > cap {assignment_cap} assignments", needed=count)
    if theorem == "general":
        layouts = []
        for tree in optimal_trees(g, cap=tree_cap):
            inside = set(tree)
            layouts.append((tree, [e for e in h_edges if e.id in inside],
                            [e for e in h_edges if e.id not in inside]))
    else:
        layouts = [(None, h_edges, [])]

    stats = degree_stats(g)
    index = {vid: i for i, vid in enumerate(g.vertices)}
    low, high, bs, fixed = [], [], [], []
    for vid, s in g.vertices.items():
        r, h, st = len(s.fibres), handle_count(s), stats[vid]
        low.append(1 - r - h - st.d_minus)
        high.append(h + st.d_plus - 1)
        bs.append(s.b)
        fixed.append((3 * (st.d + r + 2 * h - 2), sum(cf_sum(p, q) - 2 for p, q in s.fibres)))
    pens, tree, psi, psi_prime = _search(layouts, low, high, bs, index)

    cycle = 5 * (len(g.edges) - len(g.vertices) + 1)
    edge_terms = tuple((e.id, matrix_complexity(e.matrix)) for e in rest)
    vertex_terms = tuple(
        (vid, VertexTerms(base, fib, pen)) for vid, (base, fib), pen in zip(g.vertices, fixed, pens))
    return BoundReport(
        theorem=theorem,
        total=cycle + phi_value + sum(v for _, v in edge_terms) + sum(t.total for _, t in vertex_terms),
        cycle_term=cycle,
        phi_term=phi_value,
        edge_terms=edge_terms,
        vertex_terms=vertex_terms,
        min_penalty=sum(pens),
        witness_tree=tree,
        witness_psi=None if theorem == "regular" else psi,
        witness_psi_prime=psi_prime if theorem == "general" else None,
    )


def bound_regular(g: DecompositionGraph) -> BoundReport:
    """Bound for graphs without H-edges; no minimization is involved."""
    return _bound(g, "regular")


def bound_tree(g: DecompositionGraph, assignment_cap: int = DEFAULT_ASSIGNMENT_CAP) -> BoundReport:
    """Bound for graphs whose H-edges all fit in one spanning tree (Phi = 0).

    Minimizes the penalty sum over all sign assignments on the H-edges;
    a + on an H-edge raises M by one at both ends, a - lowers m by one at
    both ends.  The first assignment attaining the minimum (in + before -
    order over id-sorted edges) is reported as the witness.
    """
    return _bound(g, "tree", assignment_cap=assignment_cap)


def bound_general(
    g: DecompositionGraph,
    tree_cap: int = DEFAULT_TREE_CAP,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> BoundReport:
    """Bound for arbitrary graphs: Phi(G) joins the sum, and the penalty is
    minimized over optimal spanning trees, sign assignments on tree H-edges
    and six-valued assignments on the H-edges outside the tree.

    Non-tree H-edge weights: ++ adds (2, 1) to the d+ of (source, target),
    + adds (1, 2); +- adds 1 to the source d+ and 1 to the target d-;
    -+ mirrors +-; - and -- mirror + and ++ on d-.  Ties are broken by
    enumeration order: trees lexicographically, then psi (+ before -),
    then psi' in the order ++, +, +-, -+, -, --.
    """
    return _bound(g, "general", tree_cap, assignment_cap)


def best_bound(
    g: DecompositionGraph,
    tree_cap: int = DEFAULT_TREE_CAP,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> BoundReport:
    """Bound by the most specific applicable theorem."""
    return _bound(g, None, tree_cap, assignment_cap)
