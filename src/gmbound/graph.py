"""Decomposition graphs: Seifert-labeled vertices glued along matrix edges.

A decomposition graph is a connected multigraph (loops and parallel edges
allowed) whose vertices carry SeifertData and whose directed edges carry
normalized determinant -1 matrices.  An edge from v to w means a boundary
torus of the piece at v is glued to one of the piece at w; the direction
fixes which way the matrix acts, and reversing an edge would replace the
matrix by its (re-normalized) inverse.

Edges with matrix +-H play a special role in the bound evaluators and are
referred to as H-edges throughout.  _split tells them from the other edges
once per graph and is the one connectivity test; validate, degree_stats,
spanning and bounds read its Split by name.  Its docstring is the one
account of what it computes, how and when.

Each check runs in one place:

  graph_from_json  the document format, which is strict: valid JSON,
                   integer entries only (no fractions, NaN or booleans),
                   exactly the known keys, non-empty string ids, unique
                   vertex ids, fibres as [p, q] pairs, 2x2 matrices;
  Gl2Matrix        determinant +1 or -1, on construction;
  build_graph      non-empty string ids, unique edge ids, endpoints that
                   exist;
  gl2              the label contract, decided and worded there alone:
                   determinant -1, beta != 0 and the window (is_normalized);
                   normalize checks the first two on its input only, as its
                   output is normalized by construction, and normalize_all
                   puts the edge id in front of its errors;
  validate         admissibility: at least one edge, connected (_split
                   gives a completion), every edge label normalized (one
                   is_normalized call each, whose error
                   becomes the violation), well-formed fibres, class S for
                   the vertex degree, and the small-graph exclusions (i)
                   and (ii)(a)-(c); degrees and H-edges come from the
                   graph's one split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gl2 import Gl2Matrix, is_normalized, is_plus_minus_h, normalize
from .seifert import SeifertData, fibre_problems, validate_class_s

# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


class GraphFormatError(ValueError):
    """The document does not parse as a decomposition graph."""


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    src: str
    dst: str
    matrix: Gl2Matrix

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst


class _Kept:
    """One slot, outside the dataclass fields, for the Split of _split."""

    __slots__ = ("_kept",)


@dataclass(frozen=True, slots=True)
class DecompositionGraph(_Kept):
    """Vertices keyed by id plus an id-sorted tuple of edges; immutable."""

    vertices: dict[str, SeifertData]
    edges: tuple[Edge, ...]


def build_graph(vertices: dict[str, SeifertData], edges) -> DecompositionGraph:
    """Assemble a graph, sorting vertices and edges by id.

    Only structural soundness is enforced here (unique non-empty ids,
    endpoints that exist); admissibility is validate()'s job.
    """
    for vid in vertices:
        if not isinstance(vid, str) or not vid:
            raise GraphFormatError("vertex ids must be non-empty strings")
    edges = list(edges)
    seen = set()
    for e in edges:
        if not isinstance(e.id, str) or not e.id:
            raise GraphFormatError("edge ids must be non-empty strings")
        if e.id in seen:
            raise GraphFormatError(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        for end in (e.src, e.dst):
            if end not in vertices:
                raise GraphFormatError(f"edge {e.id!r} references unknown vertex {end!r}")
    ordered = {vid: vertices[vid] for vid in sorted(vertices)}
    return DecompositionGraph(ordered, tuple(sorted(edges, key=lambda e: e.id)))


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DegreeStats:
    """Degree split at a vertex: d = d_plus + d_minus + d_zero.

    d_plus counts outgoing non-H ends, d_minus incoming non-H ends, and
    d_zero all H-edge ends regardless of direction.  A loop contributes
    both of its ends to the same vertex.
    """

    d: int
    d_plus: int
    d_minus: int
    d_zero: int


# no production module calls it (validate and bounds._bound read their
# degrees from _split); the benchmark's traced run wraps it
def degree(g: DecompositionGraph, vid: str) -> int:
    return sum((e.src == vid) + (e.dst == vid) for e in g.edges)


def degree_stats(g: DecompositionGraph) -> dict[str, DegreeStats]:
    s = _split(g)
    return {vid: DegreeStats(p + m + z, p, m, z) for vid, p, m, z in zip(g.vertices, s.plus, s.minus, s.zero)}


# ---------------------------------------------------------------------------
# spanning forests
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Split:
    """Each edge of a graph classified once; _split tells what each field is."""

    h_links: tuple[tuple[str, int, int], ...]
    rest: tuple[Edge, ...]
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    zero: tuple[int, ...]
    completion: tuple[str, ...] | None
    phi: int


def _split(g: DecompositionGraph) -> Split:
    """Each edge classified once, as H-edge or not, with the one union-find
    grown over them.  This is the one account of the split; its readers
    refer here.

    Fields, read by name (a Split is a frozen, slotted dataclass, so it
    cannot be indexed or unpacked, and none of its readers depends on field
    order):

      h_links     the H-edges (matrix +-H) as (id, u, v) links, in id order;
                  u and v are the positions of the ends in g.vertices;
      rest        the other edges, in id order;
      plus, minus, zero
                  per vertex index, the non-H out-ends, the non-H in-ends
                  and the H-ends, as DegreeStats counts them; a loop gives
                  both of its ends to its vertex;
      completion  the ids of the non-H edges that complete the H-forest to
                  a spanning tree, in id order; None when the graph is
                  disconnected or has no vertices;
      phi         Phi(G), the fewest H-edges any spanning tree leaves out.

    One walk over g.edges indexes each edge's ends and classifies it.  Then
    one union-find is grown, in two passes.  The first takes h_links
    greedily; phi counts the H-links it cannot take, every H-loop among
    them.  Spanning forests form a matroid, so that is the fewest H-edges
    any spanning tree of a connected graph leaves out.  The second goes on
    over the non-H links in id order, and adds those that join what the
    H-forest leaves apart: the union-find already joins each H-component,
    so no H-link could join anything more.  Every H-basis joins the same
    vertices, so the completion is the same for every basis, and a basis
    plus the completion, sorted, is the first spanning tree holding that
    basis.

    The H-forest and the completion hold n - 1 edges exactly when the graph
    is connected; otherwise, and for a graph with no vertices, completion
    is None.  This is the one connectivity test: validate reports a
    violation and bounds._bound refuses the graph on None, and
    spanning.optimal_trees, which takes h_links and phi, decides nothing.

    It runs once per graph.  The first call keeps the Split in the graph's
    one slot outside its fields (_Kept), filled with object.__setattr__,
    and every later call returns that same Split; as no field holds it,
    repr, ==, hash, dataclasses.replace, copy and pickle never see it, so a
    graph that replace, copy, pickle or normalize_all gives splits anew.
    The Split holds only tuples, None and an int, so no reader can change
    what the next one reads, and every command classifies each edge once,
    however many readers it calls.
    """
    kept = getattr(g, "_kept", None)
    if kept:
        return kept
    n = len(g.vertices)
    index = {vid: i for i, vid in enumerate(g.vertices)}
    h_links, rest, rest_links = [], [], []
    plus, minus, zero = [0] * n, [0] * n, [0] * n
    for e in g.edges:
        u, v = index[e.src], index[e.dst]
        if is_plus_minus_h(e.matrix):
            h_links.append((e.id, u, v))
            zero[u] += 1
            zero[v] += 1
        else:
            rest.append(e)
            rest_links.append((e.id, u, v))
            plus[u] += 1
            minus[v] += 1
    parent = list(range(n))
    phi = len(h_links) - len(_grow(parent, h_links))
    completion = _grow(parent, rest_links)
    # a spanning forest of n vertices is one tree exactly when it holds n - 1
    # edges, which no forest does on no vertices
    connected = len(h_links) - phi + len(completion) == n - 1
    kept = Split(tuple(h_links), tuple(rest), tuple(plus), tuple(minus), tuple(zero),
                 tuple(completion) if connected else None, phi)
    object.__setattr__(g, "_kept", kept)
    return kept


def _find(parent: list[int], x: int) -> int:
    # path halving: each step re-points x at its grandparent, so a chain
    # that _grow built root to root is flattened while it is walked
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
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


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Violation:
    clause: str
    subject: str
    message: str
    severity: str = "error"  # "error" or "note"


def _is_two_half_fibred_disk(s: SeifertData) -> bool:
    """The piece (0, 1, (2,1), (2,1), b): disk base with two (2, 1) fibres."""
    return s.g == 0 and s.fibres == ((2, 1), (2, 1))


def _matches_shifted_h(m: Gl2Matrix) -> bool:
    """Whether m = +-(1 beta / 1 beta-1) for some beta > 1; the sign is alpha."""
    return m.alpha == m.gamma in (1, -1) and m.alpha * m.beta > 1 and m.delta == m.beta - m.alpha


def _matches_shifted_h_transposed(m: Gl2Matrix) -> bool:
    """Whether m = +-(beta-1 beta / 1 1) for some beta > 1; the sign is delta."""
    return m.gamma == m.delta in (1, -1) and m.delta * m.beta > 1 and m.alpha == m.beta - m.delta


def validate(g: DecompositionGraph) -> list[Violation]:
    """Collect every admissibility violation; an empty error list means valid.

    Checks, in order: the graph is non-trivial (at least one edge) and
    connected; every edge matrix has determinant -1, beta != 0 and is
    normalized; every vertex has well-formed fibre data and passes the
    class-S inequality for its degree; and the two small-graph exclusions
    (i) and (ii)(a)-(c).  Loops are admitted and only flagged as notes.
    """
    out: list[Violation] = []

    if not g.edges:
        out.append(Violation("non-trivial", "graph", "graph must contain at least one edge"))
    split = _split(g)
    if split.completion is None:
        out.append(Violation("connectivity", "graph", "graph must be connected"))

    for e in g.edges:
        try:
            if not is_normalized(e.matrix):
                out.append(Violation("normalization", e.id, "matrix is not normalized"))
        except ValueError as exc:  # determinant +1, or beta = 0
            out.append(Violation("normalization", e.id, str(exc)))
        if e.is_loop:
            out.append(Violation("loops", e.id, "loop edge (admitted; never part of a spanning tree)", "note"))

    pieces = list(g.vertices.items())
    for (vid, s), d_plus, d_minus, d_zero in zip(pieces, split.plus, split.minus, split.zero):
        for msg in fibre_problems(s):
            out.append(Violation("seifert-data", vid, msg))
        for msg in validate_class_s(s, d_plus + d_minus + d_zero):
            out.append(Violation("class-S", vid, msg))

    # exclusion (i): an H-edge may not touch a degree-1 piece (0,1,(2,1),(2,1),-1);
    # its ends are visited source first
    for eid, u, v in split.h_links:
        for i in (u, v):
            vid, s = pieces[i]
            if _is_two_half_fibred_disk(s) and s.b == -1 and split.plus[i] + split.minus[i] + split.zero[i] == 1:
                out.append(Violation(
                    "(i)", eid,
                    f"+-H gluing touches vertex {vid}, a (0,1,(2,1),(2,1),-1) piece"))

    # exclusion (ii): two pieces (0,1,(2,1),(2,1),b_i) joined by a single edge
    if len(g.vertices) == 2 and len(g.edges) == 1 and not g.edges[0].is_loop:
        e = g.edges[0]
        s1, s2 = g.vertices[e.src], g.vertices[e.dst]
        if _is_two_half_fibred_disk(s1) and _is_two_half_fibred_disk(s2):
            pair = (s1.b, s2.b)
            # the one edge is an H-edge exactly when h_links holds it
            if split.h_links and pair in ((0, 0), (-2, -2)):
                out.append(Violation(
                    "(ii)(a)", e.id, f"+-H gluing of two (2,1)(2,1) disk pieces with b = {pair}"))
            if _matches_shifted_h(e.matrix) and pair == (-1, -2):
                out.append(Violation(
                    "(ii)(b)", e.id,
                    "+-(1 beta / 1 beta-1) gluing of two (2,1)(2,1) disk pieces with b = (-1, -2)"))
            if _matches_shifted_h_transposed(e.matrix) and pair == (0, -1):
                out.append(Violation(
                    "(ii)(c)", e.id,
                    "+-(beta-1 beta / 1 1) gluing of two (2,1)(2,1) disk pieces with b = (0, -1)"))

    return out


def is_valid(g: DecompositionGraph) -> bool:
    return not any(v.severity == "error" for v in validate(g))


# ---------------------------------------------------------------------------
# normalization moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EdgeMove:
    """Record of the normalization moves applied to one edge."""

    edge_id: str
    k: int
    h: int


def normalize_all(g: DecompositionGraph) -> tuple[DecompositionGraph, list[EdgeMove]]:
    """Normalize every edge in id order; returns the new graph and the moves.

    Replacing an edge's A by A * U^k adds k to b at its source; replacing A
    by U^h * A subtracts h from b at its target.  Both moves describe the
    same manifold, so bounds computed before and after must agree.  On a
    loop both shifts land on the same vertex, changing its b by k - h.

    One O(V + E) pass: each edge's matrix depends only on itself, and the b
    shifts add and commute, so they are summed per vertex and applied once.
    The graph, the moves and any error equal those of normalizing the edges
    one at a time in id order: a label that cannot be normalized raises the
    ValueError of gl2.normalize with the edge id in front.
    """
    shift = dict.fromkeys(g.vertices, 0)
    edges = []
    moves = []
    for e in g.edges:
        try:
            new_matrix, k, h = normalize(e.matrix)
        except ValueError as exc:
            raise ValueError(f"edge {e.id!r}: {exc}") from exc
        shift[e.src] += k
        shift[e.dst] -= h
        edges.append(Edge(e.id, e.src, e.dst, new_matrix))
        moves.append(EdgeMove(e.id, k, h))
    vertices = {vid: SeifertData(s.g, s.fibres, s.b + shift[vid]) if shift[vid] else s
                for vid, s in g.vertices.items()}
    return DecompositionGraph(vertices, tuple(edges)), moves


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------

_VERTEX_KEYS = {"id", "g", "fibres", "b"}
_EDGE_KEYS = {"id", "from", "to", "matrix"}


def _reject_float(text: str):
    raise GraphFormatError(f"fractional or non-finite numbers are not allowed: {text}")


# built once: json.loads builds a new decoder on every call given parse_float
_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{where} must be an integer, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise GraphFormatError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise GraphFormatError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise GraphFormatError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise GraphFormatError(f"{where} is missing keys: {sorted(missing)}")


def graph_from_json(text: str) -> DecompositionGraph:
    """Parse the strict JSON document format.

    Structural problems (wrong shapes, unknown keys, non-integer numbers,
    integers beyond Python's digit limit, nesting too deep to decode,
    duplicate ids, dangling endpoint references, matrices outside GL2(Z))
    raise GraphFormatError; admissibility problems are left to validate().

    Each value is first matched against the exact type the decoder gives a
    well-formed document; any other value goes to the check that names the
    problem, so no error message is built for a document that parses.
    """
    try:
        if type(text) is str and not text.startswith("\ufeff"):
            doc = _DECODER.decode(text)
        else:  # json.loads decodes bytes and refuses a byte order mark first
            doc = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except GraphFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise GraphFormatError(f"invalid JSON: {exc}") from exc

    _check_keys(doc, {"vertices", "edges"}, "document")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")

    vertices: dict[str, SeifertData] = {}
    for item in doc["vertices"]:
        if type(item) is not dict or item.keys() != _VERTEX_KEYS:
            _check_keys(item, _VERTEX_KEYS, "vertex")
        vid = item["id"]
        if type(vid) is not str or not vid:
            vid = _as_str(vid, "vertex id")
        if vid in vertices:
            raise GraphFormatError(f"duplicate vertex id {vid!r}")
        raw = item["fibres"]
        if not isinstance(raw, list):
            raise GraphFormatError(f"vertex {vid!r}: fibres must be an array")
        fibres = []
        for pair in raw:
            if not isinstance(pair, list) or len(pair) != 2:
                raise GraphFormatError(f"vertex {vid!r}: each fibre must be a pair [p, q]")
            p, q = pair
            if type(p) is not int:
                p = _as_int(p, f"vertex {vid!r} fibre p")
            if type(q) is not int:
                q = _as_int(q, f"vertex {vid!r} fibre q")
            fibres.append((p, q))
        genus, b = item["g"], item["b"]
        if type(genus) is not int:
            genus = _as_int(genus, f"vertex {vid!r} genus")
        if type(b) is not int:
            b = _as_int(b, f"vertex {vid!r} parameter b")
        vertices[vid] = SeifertData(genus, tuple(fibres), b)

    edges = []
    for item in doc["edges"]:
        if type(item) is not dict or item.keys() != _EDGE_KEYS:
            _check_keys(item, _EDGE_KEYS, "edge")
        eid = item["id"]
        if type(eid) is not str or not eid:
            eid = _as_str(eid, "edge id")
        rows = item["matrix"]
        if (not isinstance(rows, list) or len(rows) != 2
                or not isinstance(rows[0], list) or len(rows[0]) != 2
                or not isinstance(rows[1], list) or len(rows[1]) != 2):
            raise GraphFormatError(f"edge {eid!r}: matrix must be a 2x2 array")
        entries = rows[0] + rows[1]
        if not (type(entries[0]) is int and type(entries[1]) is int
                and type(entries[2]) is int and type(entries[3]) is int):
            entries = [_as_int(x, f"edge {eid!r} matrix entry") for x in entries]
        try:
            matrix = Gl2Matrix(*entries)
        except ValueError as exc:
            raise GraphFormatError(f"edge {eid!r}: {exc}") from exc
        src, dst = item["from"], item["to"]
        if type(src) is not str or not src:
            src = _as_str(src, "edge source")
        if type(dst) is not str or not dst:
            dst = _as_str(dst, "edge target")
        edges.append(Edge(eid, src, dst, matrix))

    return build_graph(vertices, edges)


def graph_to_json(g: DecompositionGraph) -> str:
    """Serialize canonically: ids sorted, fixed key order, two-space indent."""
    doc = {
        "vertices": [
            {"id": vid, "g": s.g, "fibres": [list(p) for p in s.fibres], "b": s.b}
            for vid, s in g.vertices.items()
        ],
        "edges": [
            {"id": e.id, "from": e.src, "to": e.dst, "matrix": e.matrix.rows()}
            for e in g.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
