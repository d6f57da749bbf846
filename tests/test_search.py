"""The labeling search against a plain brute force, on a complete finite box.

bounds._search reads instances of plain integers: short and over hold each
vertex's m - b and b - M, and each layout is (signed, outside), its
H-edges as (id, u, v) links of vertex indices.  A layout holds no tree;
the bound builds its one witness tree from psi and the completion, outside
the search.  A labeling takes d- off short and d+ off over at every vertex,
so a vertex pays max(0, short - d-) + max(0, over - d+), and the search
returns the first labeling of least sum in enumeration order.

Why the box is complete over windows.  Let d be the most the labels can
take off a vertex: 1 per signed end and 2 per six-valued end.  A short <= 0
behaves as 0 and a short >= d as d plus a constant, which moves neither the
least sum's argmin nor the first minimizer; the same holds for over.  When
short + over < 0 at most one of the two is positive, so the vertex has one
window class t in [-d, d], written here as short = t, over = -1 - t.  The
box takes t from -(d + 1) to d + 1 at every vertex, one past each end, on
every listed shape.  So it is complete over windows for those shapes, not
over shapes.  In a valid graph, short and over can both be positive only
at a vertex with three or more H-edge ends; the random draws at the end
cover such windows.

The last tests bound whole graphs of three families, where the search is
deep or slow: the bytes of their reports are pinned, and an H-path of 1500
edges, as deep as the search goes, must be bounded without recursion.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from gmbound.bounds import _search, best_bound
from gmbound.gl2 import H, Gl2Matrix
from gmbound.graph import Edge, SeifertData, build_graph, is_valid
from gmbound.oracle import replay
from gmbound.spanning import optimal_trees

# (source d+, source d-, target d+, target d-) of each label, in enumeration
# order, as the bound_tree and bound_general docstrings state them: a sign
# + raises M by one at both ends and - lowers m by one at both ends; ++
# adds (2, 1) to the d+ of (source, target), + adds (1, 2), +- adds 1 to
# the source d+ and 1 to the target d-, -+ mirrors +-, and - and -- mirror
# + and ++ on d-
SIGNS = (("+", (1, 0, 1, 0)), ("-", (0, 1, 0, 1)))
SIX_VALUES = (
    ("++", (2, 0, 1, 0)),
    ("+", (1, 0, 2, 0)),
    ("+-", (1, 0, 0, 1)),
    ("-+", (0, 1, 1, 0)),
    ("-", (0, 1, 0, 2)),
    ("--", (0, 2, 0, 1)),
)


def brute_force(layouts, short, over):
    """Score every labeling of every layout in order; keep the first least."""
    best = least = None
    for signed, outside in layouts:
        edges = signed + outside
        for labeling in itertools.product(*[SIGNS] * len(signed), *[SIX_VALUES] * len(outside)):
            plus, minus = [0] * len(short), [0] * len(short)
            for (_, u, v), (_, (up, um, vp, vm)) in zip(edges, labeling):
                plus[u] += up
                minus[u] += um
                plus[v] += vp
                minus[v] += vm
            pens = [max(0, s - m) + max(0, o - p) for s, o, m, p in zip(short, over, minus, plus)]
            if least is None or sum(pens) < least:
                least = sum(pens)
                labels = tuple((eid, label) for (eid, _, _), (label, _) in zip(edges, labeling))
                best = (pens, labels[:len(signed)], labels[len(signed):])
    return best


def _links(pairs, first=0):
    return [(f"e{first + i}", u, v) for i, (u, v) in enumerate(pairs)]


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def _forests(n):
    """Every forest on vertices 0..n-1, in id order, each edge (u, v) with
    u < v: a sign takes the same off both ends, so the direction of a
    signed edge only swaps the search's two slots, and the random draws
    cover it."""
    for k in range(n):
        for pairs in itertools.combinations(itertools.combinations(range(n), 2), k):
            parent = list(range(n))
            for u, v in pairs:
                ru, rv = _root(parent, u), _root(parent, v)
                if ru == rv:
                    break
                parent[ru] = rv
            else:
                yield pairs


def _reach(n, signed, outside):
    """The most the labels can take off each vertex's short, or its over."""
    d = [0] * n
    for per_end, group in ((1, signed), (2, outside)):
        for _, u, v in group:
            d[u] += per_end
            d[v] += per_end
    return d


def _box(n, signed_pairs, outside_pairs):
    """The instances of one shape: every window class, one past each end."""
    signed = _links(signed_pairs)
    outside = _links(outside_pairs, len(signed))
    layouts = [(signed, outside)]
    for ts in itertools.product(*[range(-d - 1, d + 2) for d in _reach(n, signed, outside)]):
        yield layouts, list(ts), [-1 - t for t in ts]


def _mismatches(instances):
    return [(layouts, short, over) for layouts, short, over in instances
            if _search(layouts, short, over) != brute_force(layouts, short, over)]


def box_signed_forests():
    """Signed forests on at most 4 vertices, nothing six-valued."""
    for n in range(1, 5):
        for forest in _forests(n):
            yield from _box(n, forest, [])


def box_one_six_valued():
    """One six-valued edge or loop beside a signed forest on at most 3 vertices."""
    for n in range(1, 4):
        for forest in _forests(n):
            for pair in itertools.product(range(n), repeat=2):
                yield from _box(n, forest, [pair])


def box_two_six_valued():
    """Two six-valued edges or loops beside a signed forest on at most 2
    vertices.  A search that leaves the target's over out of a node's bound
    passes the boxes above; two parallel six-valued edges catch it."""
    for n in (1, 2):
        for forest in _forests(n):
            for pairs in itertools.product(itertools.product(range(n), repeat=2), repeat=2):
                yield from _box(n, forest, list(pairs))


def random_instances(count, seed):
    """Larger shapes from the same classes: a signed forest on up to 8
    vertices and one or two six-valued edges or loops, with short and over
    drawn independently, so both can be positive.  A quarter of the
    instances repeat their layout as a second one, so the two tie, and
    another quarter add a second layout that splits the same edges anew."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        parent, pairs = list(range(n)), []
        for _ in range(rng.randint(0, n - 1)):
            u, v = rng.randrange(n), rng.randrange(n)
            ru, rv = _root(parent, u), _root(parent, v)
            if ru != rv:
                parent[ru] = rv
                pairs.append((u, v))
        pool = pairs + [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2))]
        links = _links(pool)
        layouts = [(links[:len(pairs)], links[len(pairs):])]
        if rng.random() < 0.25:
            layouts.append(layouts[0])
        elif rng.random() < 1 / 3:
            inside = set(rng.sample(links, len(pairs)))
            layouts.append(([e for e in links if e in inside], [e for e in links if e not in inside]))
        d = [max(ds) for ds in zip(*[_reach(n, signed, outside) for signed, outside in layouts])]
        yield (layouts, [rng.randint(-k - 1, k + 1) for k in d], [rng.randint(-k - 1, k + 1) for k in d])


def test_brute_force_scores_a_known_instance():
    # one six-valued edge 0 -> 1; vertex 0 is 2 short of its window and
    # vertex 1 is 1 over it: -+ takes 1 off the source's short and 1 off
    # the target's over, leaving 1 + 0, and -- takes 2 off the source's
    # short only, leaving 0 + 1, the same sum but later
    layouts = [([], [("e0", 0, 1)])]
    expected = ([1, 0], (), (("e0", "-+"),))
    assert brute_force(layouts, [2, -2], [-3, 1]) == expected
    assert _search(layouts, [2, -2], [-3, 1]) == expected


def test_search_matches_brute_force_on_signed_forests():
    assert not _mismatches(box_signed_forests())


def test_search_matches_brute_force_with_one_six_valued_edge():
    assert not _mismatches(box_one_six_valued())


def test_search_matches_brute_force_with_two_six_valued_edges():
    assert not _mismatches(box_two_six_valued())


def test_search_matches_brute_force_on_random_larger_shapes():
    instances = list(random_instances(600, seed=10))
    assert any(len(layouts) == 2 and layouts[0] == layouts[1] for layouts, _, _ in instances)
    assert any(s > 0 and o > 0 for _, short, over in instances for s, o in zip(short, over))
    assert not _mismatches(instances)


def test_later_layouts_that_only_tie_keep_the_first_tree():
    # a layout is known by its split of the H-links alone, so the tied
    # layouts split two parallel edges 0 -> 1 differently, each edge signed
    # in one of them; the two are mirror images, so they tie
    e0, e1 = _links([(0, 1), (0, 1)])
    swapped = [([e0], [e1]), ([e1], [e0])]
    cases = [
        # the first layout's least sum, 2, is the second layout's root bound
        (swapped, [-1, -1], [-1, 5]),
        # the second layout's root bound is 1, so its tie with the first
        # layout's least sum, 2, is met below its root; a third layout
        # without H-edges pays 7
        (swapped + [([], [])], [-1, -1], [3, 4]),
        # the first layout reaches 0 at its first leaf, and a later one
        # without H-edges reaches 0 at its root: that root is its leaf, so
        # only the strict < that a root must pass keeps the first layout
        ([([e0], []), ([], [])], [0, 0], [-1, -1]),
        # the same tie after two tied layouts with H-edges
        (swapped + [([], [])], [0, 0], [-1, -1]),
    ]
    for layouts, short, over in cases:
        result = _search(layouts, short, over)
        assert result == brute_force(layouts, short, over)
        assert [[eid for eid, _ in part] for part in result[1:]] == [[eid for eid, _, _ in part] for part in layouts[0]]


def _components(n, links):
    """The vertex lists of the components of the links that hold an edge
    end, an H-loop's vertex included, by the test's own union-find."""
    parent = list(range(n))
    for _, u, v in links:
        parent[_root(parent, u)] = _root(parent, v)
    groups = {}
    for x in range(n):
        groups.setdefault(_root(parent, x), []).append(x)
    ends = {x for _, u, v in links for x in (u, v)}
    return [group for group in groups.values() if ends.intersection(group)]


def split_forest_instances(count, seed):
    """Signed forests on at most 9 vertices with two or more components that
    hold an edge, short and over drawn from [-4, 4]."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(4, 9)
        parent, pairs = list(range(n)), []
        for _ in range(rng.randint(2, n - 2)):
            u, v = rng.randrange(n), rng.randrange(n)
            ru, rv = _root(parent, u), _root(parent, v)
            if ru != rv:
                parent[ru] = rv
                pairs.append((u, v))
        links = _links(pairs)
        if len(_components(n, links)) < 2:
            continue
        count -= 1
        yield n, links, [rng.randint(-4, 4) for _ in range(n)], [rng.randint(-4, 4) for _ in range(n)]


def split_general_instances(count, seed):
    """Two or three H-components on at most 13 vertices, one of them with
    Phi >= 1 at least: each is a random tree on one to four vertices plus
    at most one more edge, which closes a cycle, a parallel pair or an
    H-loop (always a loop on a lone vertex).  The vertices are shuffled, a
    spare vertex may stay bare, and the edges are shuffled before they get
    their ids, so the ids of the components interleave.  short and over are
    drawn from [-4, 4]."""
    rng = random.Random(seed)
    while count:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        n = sum(sizes) + rng.randint(0, 1)
        order = rng.sample(range(n), n)
        pairs, start, owner = [], 0, []
        for size in sizes:
            group = order[start:start + size]
            start += size
            own = [(group[rng.randrange(i)], group[i]) for i in range(1, size)]
            own += [(rng.choice(group), rng.choice(group)) for _ in range(rng.randint(size == 1, 1))]
            pairs += [(u, v) if rng.random() < 0.5 else (v, u) for u, v in own]
            owner += [group[0]] * len(own)
        if not len(pairs) - sum(size - 1 for size in sizes):
            continue
        shuffled = rng.sample(range(len(pairs)), len(pairs))
        # ids in blocks by component change owner len(sizes) - 1 times
        if sum(owner[i] != owner[j] for i, j in zip(shuffled, shuffled[1:])) < len(sizes):
            continue
        count -= 1
        links = _links([pairs[i] for i in shuffled])
        yield n, links, [rng.randint(-4, 4) for _ in range(n)], [rng.randint(-4, 4) for _ in range(n)]


def _phi(links, groups):
    """The links a spanning forest of links leaves out, given the vertex
    lists of their components."""
    return len(links) - sum(len(group) - 1 for group in groups)


def test_searching_each_h_component_alone_gives_the_same_labeling():
    # a vertex's penalty depends only on the labels of its own edges, and
    # the components share no vertex, so the least-sum labelings form a
    # product over the H-components, each component with its own layouts.
    # The first of them factorizes too: two layouts compare by the least id
    # of their symmetric difference, which lies in one component, and psi
    # and psi' compare position by position in id order.  So each component
    # can be searched alone, on its own vertices and its own layouts, the
    # penalties put back in place and psi and psi' merged in id order
    general = list(split_general_instances(1000, seed=4))
    assert all(2 <= len(_components(n, links)) <= 3 for n, links, _, _ in general)
    assert all(_phi(links, _components(n, links)) for n, links, _, _ in general)
    assert any(u == v for _, links, _, _ in general for _, u, v in links)
    for n, links, short, over in list(split_forest_instances(400, seed=3)) + general:
        groups = _components(n, links)
        pens, psi, psi_prime = _search(optimal_trees(n, links, _phi(links, groups)), short, over)
        split_pens, split_psi, split_psi_prime = [max(0, s) + max(0, o) for s, o in zip(short, over)], [], []
        for group in groups:
            index = {x: i for i, x in enumerate(group)}
            own = [(eid, index[u], index[v]) for eid, u, v in links if u in index]
            part, part_psi, part_psi_prime = _search(
                optimal_trees(len(group), own, _phi(own, [group])), [short[x] for x in group], [over[x] for x in group])
            for x, pen in zip(group, part):
                split_pens[x] = pen
            split_psi += part_psi
            split_psi_prime += part_psi_prime
        order = [eid for eid, _, _ in links]
        merged = [tuple(sorted(part, key=lambda p: order.index(p[0]))) for part in (split_psi, split_psi_prime)]
        assert (pens, psi, psi_prime) == (split_pens, *merged)


# the families below join pieces (0, ((2,1),(3,1)), b) by H-edges and by
# this non-H label
NON_H = Gl2Matrix(1, 2, 1, 1)


def _family_graph(bs, ends):
    """One piece per b, joined by the (u, v, label) ends in id order."""
    ids = [f"v{i:04d}" for i in range(len(bs))]
    return build_graph({vid: SeifertData(0, ((2, 1), (3, 1)), b) for vid, b in zip(ids, bs)},
                       [Edge(f"e{i:04d}", ids[u], ids[v], m) for i, (u, v, m) in enumerate(ends)])


def _h_path(k):
    return [(i, i + 1, H) for i in range(k)]


def _disjoint_h_edges(k):
    """k H-edges in a path, each between two pieces of its own."""
    return [(i, i + 1, H if i % 2 == 0 else NON_H) for i in range(2 * k - 1)]


def _h_triangles(c):
    """c triangles of H-edges in a chain, Phi = c."""
    ends = []
    for t in range(0, 3 * c, 3):
        ends += [(t, t + 1, H), (t + 1, t + 2, H), (t, t + 2, H)] + [(t + 2, t + 3, NON_H)] * (t + 3 < 3 * c)
    return ends


FAMILIES = {"disjoint H-edges": _disjoint_h_edges(20), "H-path": _h_path(20), "H-triangles": _h_triangles(4)}

# sha256 of json.dumps(best_bound(g).to_json_dict(), indent=2) on each
# family, b drawn from Random(seed).randint(-4, 4) per vertex
FAMILY_DIGESTS = {
    ("disjoint H-edges", 0): "876f877c77d860d25beeab869c5394d4517ca31e9ba3ad19662034042b2a9762",
    ("disjoint H-edges", 1): "e846a08135b66d5eef41cb7ca3b80fb18e67ea98788b89228fed70a21800c869",
    ("disjoint H-edges", 2): "2d9721a6390912c48af8bcf417a71bb4353ccea016f13ee55dcf902d47f0f2b0",
    ("H-path", 0): "6d44068bd23e3851a733e85da6e4584cdad6c492b36f65a41ad80e7ff6dafcf8",
    ("H-path", 1): "b50401bf8e3df52cfe1ad5bb98ca43c453996d993b7f10e2c3572f0dec758a32",
    ("H-path", 2): "a77b79198f3db14930b341bf8ad703769eed65dd1ba3f4d4a438655aa4d709a1",
    ("H-triangles", 0): "f6dfeb89ad26188b986930108c42982b37d903b1323ed1bb467574834ca42b20",
    ("H-triangles", 1): "8851643d3f15cc6f1ff2f635a046906b2737120e86eaec483eb408d68beb6ef9",
    ("H-triangles", 2): "54bc2676390e90b03a6bb76aa0ecdad3fe853b5ad7999ae6c049104c252bfb6e",
}


def test_family_report_bytes_pinned():
    # the largest instances the default budget lets through on each family,
    # where the cut has the most to do: a change to the search that moves a
    # witness or a term moves these bytes
    for (name, seed), digest in FAMILY_DIGESTS.items():
        ends = FAMILIES[name]
        rng = random.Random(seed)
        g = _family_graph([rng.randint(-4, 4) for _ in range(max(max(u, v) for u, v, _ in ends) + 1)], ends)
        assert is_valid(g)
        text = json.dumps(best_bound(g).to_json_dict(), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, seed)


def test_a_deep_h_path_is_searched_without_recursion():
    # 1500 H-edges in a path make a search 1500 edges deep, past the
    # interpreter's recursion limit; all +, the first labeling, sums to 0
    # at b = 0, and at b = 1 each end of the path pays 1 whatever its label
    for b, least in ((0, 0), (1, 2)):
        g = _family_graph([b] * 1501, _h_path(1500))
        report = best_bound(g, assignment_cap=2**1500)
        assert report.min_penalty == least
        assert replay(g, report) == []
