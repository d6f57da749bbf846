"""Farey triangulation combinatorics: the flip-search reference for the
complexity of a gluing matrix.

Slopes are primitive integer pairs (a, b) taken up to overall sign and
written a/b, with 1/0 standing for infinity.  Two slopes span an edge of the
Farey triangulation when |a1*b2 - a2*b1| = 1, and three pairwise-joined
slopes span a triangle.  The dual graph of the triangulation is a tree, so
any two triangles are connected by a unique path of edge flips; its length
is the distance computed here.

The two base triangles are tau+ = {inf, 0, 1} and tau- = {inf, 0, -1}.
GL2(Z) acts on slopes by (a, b) -> (alpha*a + beta*b, gamma*a + delta*b),
permuting the triangulation.  The complexity of a normalized determinant -1
matrix is the distance from its image of tau- back to tau+, which collapses
to a continued fraction sum, gl2.matrix_complexity.  complexity_by_search
recomputes it by walking the tree, with no continued fractions involved; the
oracle, the tests and the benchmark checker use it to check the closed form,
and no production module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gl2 import Gl2Matrix


@dataclass(frozen=True, order=True)
class Slope:
    """Canonical primitive pair: b > 0, or b = 0 and a = 1 (infinity)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("slope (0, 0) is not a slope")
        if math.gcd(abs(self.a), abs(self.b)) != 1:
            raise ValueError(f"slope ({self.a}, {self.b}) is not primitive")
        if self.b < 0 or (self.b == 0 and self.a < 0):
            raise ValueError(f"slope ({self.a}, {self.b}) is not in canonical form")

    def __str__(self) -> str:
        return "inf" if self.b == 0 else f"{self.a}/{self.b}"


def slope(a: int, b: int) -> Slope:
    """Canonicalize a primitive pair up to sign."""
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return Slope(a, b)


def cross(s: Slope, t: Slope) -> int:
    """Intersection pairing a1*b2 - a2*b1 (sign depends on representatives)."""
    return s.a * t.b - t.a * s.b


@dataclass(frozen=True)
class FareyTriangle:
    """Three slopes, pairwise crossing once; stored sorted."""

    slopes: tuple[Slope, Slope, Slope]

    def __post_init__(self) -> None:
        s0, s1, s2 = self.slopes
        if not (s0 <= s1 <= s2):
            raise ValueError("triangle slopes must be sorted; use triangle()")
        for u, v in ((s0, s1), (s0, s2), (s1, s2)):
            if abs(cross(u, v)) != 1:
                raise ValueError(f"slopes {u} and {v} do not span a Farey edge")


def triangle(s: Slope, t: Slope, u: Slope) -> FareyTriangle:
    return FareyTriangle(tuple(sorted((s, t, u))))


INF = slope(1, 0)
ZERO = slope(0, 1)
TAU_PLUS = triangle(INF, ZERO, slope(1, 1))
TAU_MINUS = triangle(INF, ZERO, slope(-1, 1))


def act(m: Gl2Matrix, t: FareyTriangle) -> FareyTriangle:
    """Image of a triangle under m; matrices of determinant +1 or -1 only."""
    return triangle(
        *(slope(m.alpha * s.a + m.beta * s.b, m.gamma * s.a + m.delta * s.b) for s in t.slopes)
    )


def _separating_edge(cur: FareyTriangle, target: FareyTriangle):
    """The edge of cur that the path toward target crosses first.

    A slope s lies on the same side of the edge (u, v) as the opposite
    vertex w exactly when cross(u,s)*cross(v,s)*cross(u,w)*cross(v,w) > 0;
    the product is representative-independent because every slope appears
    twice.  Since edges of the triangulation never cross, all three target
    slopes sit on the far side (or on the edge itself) for exactly one of
    the three edges.
    """
    s0, s1, s2 = cur.slopes
    for u, v, w in ((s0, s1, s2), (s0, s2, s1), (s1, s2, s0)):
        uw_vw = cross(u, w) * cross(v, w)
        if all(cross(u, s) * cross(v, s) * uw_vw <= 0 for s in target.slopes):
            return u, v, w
    raise RuntimeError("no separating edge found; triangles are not both Farey triangles")


def _flip(u: Slope, v: Slope, w: Slope) -> Slope:
    """Third vertex of the other triangle on the edge (u, v).

    The two triangles hanging on an edge have third vertices u+v and u-v
    (up to sign); w is one of them and the flip returns the other.
    """
    plus = slope(u.a + v.a, u.b + v.b)
    minus = slope(u.a - v.a, u.b - v.b)
    if w == plus:
        return minus
    if w == minus:
        return plus
    raise RuntimeError(f"{w} is not adjacent to the edge ({u}, {v})")


def farey_distance(t1: FareyTriangle, t2: FareyTriangle) -> int:
    """Flip distance between two triangles (path length in the dual tree).

    Walks from t1, always flipping across the unique edge separating the
    current triangle from t2; in a tree every step is forced, so the walk
    needs no search and terminates after exactly distance-many flips.
    """
    steps = 0
    cur = t1
    while cur != t2:
        u, v, w = _separating_edge(cur, t2)
        cur = triangle(u, v, _flip(u, v, w))
        steps += 1
    return steps


def complexity_by_search(m: Gl2Matrix) -> int:
    """Complexity recomputed with no shortcut: the least flip distance from
    m(tau-) or m(tau+) to either base triangle.  Any determinant +-1 matrix
    is accepted; for normalized ones this must agree with gl2.matrix_complexity."""
    images = (act(m, TAU_MINUS), act(m, TAU_PLUS))
    bases = (TAU_MINUS, TAU_PLUS)
    return min(farey_distance(img, base) for img in images for base in bases)
