"""Complexity upper bounds for validated decomposition graphs.

The bound is one formula: a cycle term 5(|E| - |V| + 1), plus Phi(G), plus
one term cf_sum(|beta|, |delta|) - 1 per non-H edge, plus a vertex term
3(d + r + 2h - 2) + sum(cf_sum(p, q) - 2) per piece, plus the least sum of
penalties f, one per vertex, each measuring how far b lies from a window
[m, M] set by the degree bookkeeping.  One search minimizes that penalty
sum over layouts, each a split of the H-edges into signed ones, T & H, and
six-valued ones.  Every layout comes from optimal_trees: one per distinct
set T & H of H-edges inside an optimal spanning tree T, standing for the
first such tree, since the penalties depend on T only through T & H.  A
disconnected or empty graph has no spanning tree, so every evaluator
refuses it, before the scan.  The three theorems are three labels over
the search:

  bound_regular   no H-edges: the one layout optimal_trees gives, with
                  nothing to label;
  bound_tree      every H-edge fits into a single spanning tree (Phi = 0):
                  the one layout optimal_trees gives, with a sign + or -
                  on every H-edge;
  bound_general   arbitrary graphs: every layout optimal_trees gives; signs
                  on T & H and one of six values on each H-edge left
                  outside, paying Phi(G) for those.

Only bound_general reports its tree as a witness, the one tree _bound
builds; the other two have a single tree and report None.

The search reads an instance of plain integers: per vertex m - b and
b - M, in vertex order, and per layout its H-edges as (id, u, v) links of
vertex indices, the format of graph's union-find.  _bound alone turns a
graph into that instance, from the graph's one graph._split, which gives
its H-edges, degrees, Phi, completion and connectivity, and from the
layouts that optimal_trees builds from that split; and tests can pin the
search on instances built directly.

The search is exact, capped and deterministic: it returns the first
labeling of least penalty sum in enumeration order (layouts in tree order,
then signs with + before -, then six values in the order ++, +, +-, -+, -,
--, the last edge varying fastest), so reports are byte-reproducible.  It walks
that order depth first, one H-edge per level.  Each node holds a lower
bound on all the labelings below it: each vertex's shortfall from its
window, less the most that the edges still unlabeled could take off it.
A node is a generator over its edge's labels that yields each child's
bound, setting the label as it yields and undoing it when done.  A node
lives only while its bound is below the least sum found so far: it is
created only below it, the root included, and stops once a leaf beneath
it lowers the sum to its bound.  Nothing else stops the search.
Everything it cuts is at least that sum, so every leaf it reaches is
strictly smaller, and the result is the first minimizer of the
exhaustive search, witnesses included.  The live nodes sit in a list,
not on the call stack: a layout is as deep as it has H-edges, which a
raised cap leaves unbounded, so recursion could exceed the interpreter's
limit.

The assignment cap is the search's one budget.  It counts the labelings of
a layout's uncut search, 2^(|H| - Phi) * 6^Phi, and is checked before the
scan.  It bounds the tree scan as well, which runs in every mode: the
layouts are the bases of the H-subgraph's graphic matroid, found by
checking the comb(|H|, Phi) subsets of H of its rank (one subset, all of
H, when Phi = 0), and comb(|H|, Phi) <= 2^|H| is no more than that count.
So the budget bounds the scan's work, not only the layouts it finds,
before the scan starts.

A window must satisfy m < M, m <= 1, M >= -1, where the paper defines f
(oracle.f rejects any other window); labels only widen it, so each vertex
is checked once, before the search, against all of its labeled windows at
once.  Given the counts, only m < M + ends can fail, and it is the class-S
inequality d + r + 2h >= 3, so class-S data always passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gl2 import cf_sum, int_text, matrix_complexity
# bounds calls neither degree_stats nor capital_phi; bench/run.py internal_bindings wraps them here
from .graph import DecompositionGraph, _split, degree_stats
from .seifert import handle_count
from .spanning import capital_phi, optimal_trees

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


def _tables(weights):
    """The label tables of a weight map for an edge and for a loop, as the
    search reads them.

    A label takes d- off m - b and d+ off b - M at each end; on a loop both
    ends are the one vertex.  A table is (rows, most): most holds the most
    any label takes off source m - b, source b - M, target m - b and
    target b - M, and a row is the label followed by what it leaves of
    each of those four maxima.

    The sign table's loop half is never read: signed H-edges are tree
    edges, and no tree edge is a loop.  It is kept so that one indexing,
    by u == v, serves both groups.
    """
    tables = []
    for loop in (False, True):
        moves = {label: (um + vm, up + vp, 0, 0) if loop else (um, up, vm, vp)
                 for label, ((up, um), (vp, vm)) in weights.items()}
        most = tuple(map(max, zip(*moves.values())))
        tables.append((tuple((label, *(x - y for x, y in zip(most, move))) for label, move in moves.items()), most))
    return tuple(tables)


# indexed by whether the edge is a loop
_SIGN_TABLES = _tables(_SIGN_WEIGHTS)
_PSI_PRIME_TABLES = _tables(_PSI_PRIME_WEIGHTS)


class TheoremInapplicable(ValueError):
    """The requested evaluator does not apply to this graph."""


class CapExceeded(RuntimeError):
    """A search would visit more objects than its cap allows.

    The bounds have one budget, the assignment cap, which _bound checks
    against a count known from graph._split alone, before the scan; that
    count also bounds the tree scan, which has no cap of its own.  The
    oracles' exhaustive searches have caps of their own.  needed is the
    count, when known.
    """

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VertexTerms:
    """Per-vertex summands: 3(d + r + 2h - 2), fibre sum, window penalty."""

    base: int
    fibre_sum: int
    penalty: int

    @property
    def total(self) -> int:
        return self.base + self.fibre_sum + self.penalty


@dataclass(frozen=True, slots=True)
class BoundReport:
    """A bound together with its full term breakdown and witnesses.

    total always equals cycle_term + phi_term + the edge terms + the vertex
    terms; min_penalty is the winning penalty sum and equals the sum of the
    per-vertex penalty entries.  Witness fields are None when the evaluator
    had nothing to choose (regular has no assignment, tree and regular a
    single tree).
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


def _search(layouts, short, over):
    """First labeling of least penalty sum over all layouts.

    An instance is plain integers and ids.  A layout is (signed,
    outside): the signed and the six-valued H-edges, each an (id, u, v)
    link of vertex indices, source first, in the order they are labeled.
    short and over are lists holding each vertex's m - b and b - M before
    any label; its penalty is the sum of their positive parts once the
    labels take d- off short and d+ off over.  Returns (per-vertex
    penalties, psi, psi'), psi and psi' as (id, label) pairs; psi names the
    winning layout's signed edges, so the search carries no tree.

    Each layout is searched depth first, one edge per depth.  lack and want
    hold short and over less the most that the edges not yet labeled could
    still take off them, so the sum of their positive parts is a lower
    bound for every labeling below a node, and the penalty sum itself at a
    leaf.  A label moves only its edge's ends, so the bound changes by
    theirs alone.  A node is a generator over its edge's labels: for each
    child whose bound is below the least sum so far it sets that label on
    the two ends and yields the bound, it stops once its own bound is no
    longer below, and when it is done it puts the ends back.  A loop
    drives the live nodes, kept in a list as deep as the layout has
    H-edges, so a raised cap never meets the recursion limit: it advances
    the deepest node, drops it once exhausted, and adds a node below it for
    each bound it yields, or records a leaf at full depth.

    A node is created only below least, the root included, so a layout
    that cannot win is never entered, and after a sum of 0 nothing is.
    Everything cut is at least least, so a leaf always lowers it strictly,
    and the first minimizer of the exhaustive search is kept, witnesses
    included.  A leaf keeps copies of lack, want and the labels; the
    penalties and psi and psi' are built once, from the last leaf.
    """
    n = len(short)
    least = float("inf")

    def node(depth, total):
        _, u, v, rows = steps[depth]
        lu, wu, lv, wv = lack[u], want[u], lack[v], want[v]
        rest = total - ((lu if lu > 0 else 0) + (wu if wu > 0 else 0) + (lv if lv > 0 else 0) + (wv if wv > 0 else 0))
        for label, a, b, c, d in rows:
            a += lu
            b += wu
            c += lv
            d += wv
            bound = rest + (a if a > 0 else 0) + (b if b > 0 else 0) + (c if c > 0 else 0) + (d if d > 0 else 0)
            if bound < least:
                lack[u], want[u], lack[v], want[v] = a, b, c, d
                labels[depth] = label
                yield bound
                if total >= least:
                    break
        lack[u], want[u], lack[v], want[v] = lu, wu, lv, wv

    for signed, outside in layouts:
        # slot n stands in for the second end of a loop
        lack, want, steps = short + [0], over + [0], []
        for group, tables in ((signed, _SIGN_TABLES), (outside, _PSI_PRIME_TABLES)):
            for eid, u, v in group:
                rows, (ul, uw, vl, vw) = tables[u == v]
                if u == v:
                    v = n
                lack[u] -= ul
                want[u] -= uw
                lack[v] -= vl
                want[v] -= vw
                steps.append((eid, u, v, rows))
        bound = sum([(a if a > 0 else 0) + (b if b > 0 else 0) for a, b in zip(lack, want)])
        labels = [None] * len(steps)
        # the root yields its own bound, as a node yields a child's
        nodes = [iter((bound,))] if bound < least else []
        while nodes:
            total = next(nodes[-1], None)
            if total is None:
                nodes.pop()
            elif len(nodes) <= len(steps):
                nodes.append(node(len(nodes) - 1, total))
            else:
                least, kept = total, (lack[:n], want[:n], labels[:], steps, len(signed))
    lack, want, labels, steps, cut = kept
    witness = tuple([(eid, label) for (eid, _, _, _), label in zip(steps, labels)])
    return [(a if a > 0 else 0) + (b if b > 0 else 0) for a, b in zip(lack, want)], witness[:cut], witness[cut:]


def _bound(g: DecompositionGraph, theorem: str | None, assignment_cap: int = DEFAULT_ASSIGNMENT_CAP) -> BoundReport:
    """The evaluator behind all three theorems; None picks the most
    specific one that applies, any other label is checked to apply.

    The checks come in a fixed order: the theorem label, the assignment
    cap, then connectivity (a None completion from graph._split, refused
    with a ValueError), all before the scan and the per-vertex window check.

    The only place a tree is built: in general mode, the witness tree is
    psi's H-edges, the winning basis, plus the split's completion, sorted.
    Regular and tree mode report None and build none."""
    split = _split(g)
    if theorem is None:
        theorem = "general" if split.phi else "tree" if split.h_links else "regular"
    elif theorem == "regular" and split.h_links:
        raise TheoremInapplicable(
            f"regular evaluator needs a graph without +-H edges, found {[eid for eid, _, _ in split.h_links]}")
    elif theorem == "tree" and split.phi:
        raise TheoremInapplicable("tree evaluator needs every +-H edge inside one spanning tree")

    # every optimal tree leaves Phi(G) H-edges outside, so the count does not
    # depend on the tree and is checked before the scan
    count = 2 ** (len(split.h_links) - split.phi) * 6 ** split.phi
    if theorem != "regular" and count > assignment_cap:
        raise CapExceeded(
            f"assignment search needs {int_text(count)} > cap {int_text(assignment_cap)} assignments",
            needed=count)
    if split.completion is None:
        raise ValueError("graph has no spanning tree (disconnected)")
    # the scan checks comb(|H|, Phi) <= 2^|H| <= count <= assignment_cap
    # subsets, so the check above is its only budget
    layouts = optimal_trees(len(g.vertices), split.h_links, split.phi)

    short, over, fixed = [], [], []
    for (vid, s), d_plus, d_minus, k in zip(g.vertices.items(), split.plus, split.minus, split.zero):
        r, h = len(s.fibres), handle_count(s)
        m, M = 1 - r - h - d_minus, h + d_plus - 1
        # f's window check on every labeled window at once: labels only widen
        # the window, by at least one unit per H-edge end in all, and can
        # leave either side where it is.  With r, h, d- and d+ >= 0, m <= 1
        # and M >= -1 always hold, and m < M + k is d + r + 2h >= 3, class S.
        if not m < M + k:
            raise ValueError(f"invalid penalty window at vertex {vid!r}: m={m}, M={M} with {k} H-edge "
                             "ends; need m < M + ends")
        short.append(m - s.b)
        over.append(s.b - M)
        fixed.append((3 * (d_plus + d_minus + k + r + 2 * h - 2), sum([cf_sum(p, q) for p, q in s.fibres]) - 2 * r))
    pens, psi, psi_prime = _search(layouts, short, over)

    cycle = 5 * (len(g.edges) - len(g.vertices) + 1)
    edge_terms = tuple([(e.id, matrix_complexity(e.matrix)) for e in split.rest])
    vertex_terms = tuple([
        (vid, VertexTerms(base, fib, pen)) for vid, (base, fib), pen in zip(g.vertices, fixed, pens)])
    min_penalty = sum(pens)
    return BoundReport(
        theorem=theorem,
        total=cycle + split.phi + sum([v for _, v in edge_terms]) + sum(map(sum, fixed)) + min_penalty,
        cycle_term=cycle,
        phi_term=split.phi,
        edge_terms=edge_terms,
        vertex_terms=vertex_terms,
        min_penalty=min_penalty,
        witness_tree=tuple(sorted([*split.completion, *[eid for eid, _ in psi]])) if theorem == "general" else None,
        witness_psi=None if theorem == "regular" else psi,
        witness_psi_prime=psi_prime if theorem == "general" else None,
    )


def bound_regular(g: DecompositionGraph) -> BoundReport:
    """Bound for graphs without H-edges; no minimization is involved."""
    return _bound(g, "regular")


def bound_tree(g: DecompositionGraph, *, assignment_cap: int = DEFAULT_ASSIGNMENT_CAP) -> BoundReport:
    """Bound for graphs whose H-edges all fit in one spanning tree (Phi = 0).

    Minimizes the penalty sum over all sign assignments on the H-edges;
    a + on an H-edge raises M by one at both ends, a - lowers m by one at
    both ends.  The first assignment attaining the minimum (in + before -
    order over id-sorted edges) is reported as the witness.
    """
    return _bound(g, "tree", assignment_cap=assignment_cap)


def bound_general(g: DecompositionGraph, *, assignment_cap: int = DEFAULT_ASSIGNMENT_CAP) -> BoundReport:
    """Bound for arbitrary graphs: Phi(G) joins the sum, and the penalty is
    minimized over optimal spanning trees, sign assignments on tree H-edges
    and six-valued assignments on the H-edges outside the tree.

    Non-tree H-edge weights: ++ adds (2, 1) to the d+ of (source, target),
    + adds (1, 2); +- adds 1 to the source d+ and 1 to the target d-;
    -+ mirrors +-; - and -- mirror + and ++ on d-.  Ties are broken by
    enumeration order: trees lexicographically, then psi (+ before -),
    then psi' in the order ++, +, +-, -+, -, --.
    """
    return _bound(g, "general", assignment_cap)


def best_bound(g: DecompositionGraph, *, assignment_cap: int = DEFAULT_ASSIGNMENT_CAP) -> BoundReport:
    """Bound by the most specific applicable theorem."""
    return _bound(g, None, assignment_cap)
