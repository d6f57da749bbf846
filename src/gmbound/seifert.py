"""Seifert fibre space data carried by decomposition-graph vertices.

A vertex stands for an orientable Seifert fibred piece with non-empty
boundary: base surface of genus g (negative g means a non-orientable base),
a list of exceptional fibre pairs (p, q), and an integer parameter b.  The
number of boundary components equals the degree d of the vertex in the
graph, so d is supplied by the caller rather than stored here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SeifertData:
    """Vertex label (g, fibres, b); fibres is a tuple of (p, q) pairs."""

    g: int
    fibres: tuple[tuple[int, int], ...] = ()
    b: int = 0


def handle_count(s: SeifertData) -> int:
    """Handles needed to build the base surface: 2g if orientable, -g if not."""
    return 2 * s.g if s.g >= 0 else -s.g


def fibre_problems(s: SeifertData) -> list[str]:
    """Check the exceptional fibre pairs: 0 < q < p, coprime, sorted."""
    problems = []
    for p, q in s.fibres:
        if not 0 < q < p:
            problems.append(f"fibre pair ({p}, {q}) must satisfy 0 < q < p")
        elif math.gcd(p, q) != 1:
            problems.append(f"fibre pair ({p}, {q}) must be coprime")
    if list(s.fibres) != sorted(s.fibres):
        problems.append("fibre pairs must be listed in non-decreasing order")
    return problems


def validate_class_s(s: SeifertData, d: int) -> list[str]:
    """Admissibility of a piece with d boundary tori; empty list means ok.

    The piece is admissible exactly when d >= 1 and d + r + 2h >= 3, with
    r the number of exceptional fibres and h = handle_count(s).  That single
    inequality rules out precisely the fibred solid tori (g = 0, d = 1,
    r <= 1) and the thickened torus (g = 0, d = 2, r = 0).
    """
    h = handle_count(s)
    r = len(s.fibres)
    if d < 1:
        return ["piece has no boundary component (degree 0)"]
    if d + r + 2 * h < 3:
        if d == 1:
            return ["fibred solid torus shape (g=0, d=1, r<=1)"]
        return ["thickened torus shape (g=0, d=2, r=0)"]
    return []
