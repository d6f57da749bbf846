"""Exact 2x2 integer matrix arithmetic for gluing labels.

Edge labels of a decomposition graph live in GL2(Z) and have determinant -1.
A label (alpha beta / gamma delta) with beta != 0 is called *normalized* when

    0 <= eps * alpha < |beta|   and   0 <= eps * delta < |beta|,

where eps is the sign of beta.  Every determinant -1 matrix with beta != 0
can be brought to normalized form by multiplying with powers of
U = (1 0 / 1 1) on both sides.  The exponents are returned alongside the
result because the same moves shift the integer parameters b of the Seifert
pieces glued along the edge (see graph.normalize_all).

This module alone decides whether a label keeps that contract and words
each way it can break it (_check_edge_label); graph.validate reports the
error of is_normalized as it is.  It also prices a label: the complexity of
a normalized gluing is a continued fraction sum (matrix_complexity, on
cf_sum), which the flip search in farey checks.  All arithmetic is plain
Python integer arithmetic, so it is exact at any magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def int_text(n: int) -> str:
    """n in decimal up to 100 digits, else its sign and length: Python will
    not print an int of over 4300 digits (by default; 640 at the least)."""
    if abs(n) < 10**100:
        return str(n)
    k = int(math.log10(abs(n)))  # one less than the length, or one off from that
    k += (10 ** (k + 1) <= abs(n)) - (10**k > abs(n))
    return f"a {'negative ' if n < 0 else ''}{k + 1}-digit number"


@dataclass(frozen=True, slots=True)
class Gl2Matrix:
    """Row-major integer matrix (alpha beta / gamma delta), determinant +1 or -1."""

    alpha: int
    beta: int
    gamma: int
    delta: int

    def __post_init__(self) -> None:
        d = self.alpha * self.delta - self.beta * self.gamma
        if d not in (1, -1):
            raise ValueError(f"determinant must be +1 or -1, got {int_text(d)}")

    @property
    def det(self) -> int:
        return self.alpha * self.delta - self.beta * self.gamma

    def __neg__(self) -> "Gl2Matrix":
        return Gl2Matrix(-self.alpha, -self.beta, -self.gamma, -self.delta)

    def rows(self) -> list[list[int]]:
        return [[self.alpha, self.beta], [self.gamma, self.delta]]


H = Gl2Matrix(0, 1, 1, 0)


def is_plus_minus_h(a: Gl2Matrix) -> bool:
    """True exactly for H and -H, the fibre-swapping gluings."""
    return a.alpha == a.delta == 0 and a.beta == a.gamma and a.beta in (1, -1)


def _check_edge_label(a: Gl2Matrix) -> None:
    """Raise ValueError naming how a breaks the label contract, if it does."""
    if a.det != -1:
        raise ValueError(f"matrix determinant must be -1, got {a.det}")
    if a.beta == 0:
        raise ValueError("matrix has beta = 0: the gluing matches fibres, so the decomposition is non-minimal")


def is_normalized(a: Gl2Matrix) -> bool:
    """Whether the window conditions hold; rejects det != -1 or beta = 0
    inputs with the ValueError that graph.validate reports."""
    _check_edge_label(a)
    eps = 1 if a.beta > 0 else -1
    bound = abs(a.beta)
    return 0 <= eps * a.alpha < bound and 0 <= eps * a.delta < bound


def normalize(a: Gl2Matrix) -> tuple[Gl2Matrix, int, int]:
    """Normalize a determinant -1 matrix with beta != 0.

    Returns (a_normalized, k, h) with a_normalized = U^h * a * U^k, where
    k = -floor(alpha / beta) and h = -floor(delta / beta).  The product is
    built in closed form: right multiplication by U^k adds k times the
    second column to the first, giving alpha' = alpha + k*beta and
    gamma + k*delta, and leaves beta and delta untouched, which is why h can
    be read off the original delta (a unit test pins that down); left
    multiplication by U^h then adds h times the first row to the second.
    So a_normalized = (alpha', beta / gamma + k*delta + h*alpha',
    delta + h*beta).  Already-normalized input comes back unchanged with
    k = h = 0, and beta itself is never changed.

    The window holds by construction, so only the input is checked:
    alpha' = alpha - beta*floor(alpha / beta) is alpha mod beta, which lies
    between 0 and beta with the sign eps of beta, and delta' is delta mod
    beta in the same way, which is exactly 0 <= eps*alpha', eps*delta' <
    |beta|; U^h and U^k have determinant 1, so the determinant stays -1.
    """
    _check_edge_label(a)
    k = -(a.alpha // a.beta)
    h = -(a.delta // a.beta)
    alpha = a.alpha + k * a.beta
    return Gl2Matrix(alpha, a.beta, a.gamma + k * a.delta + h * alpha, a.delta + h * a.beta), k, h


def cf_sum(p: int, q: int) -> int:
    """Sum of the continued fraction coefficients of p/q.

    The coefficients are the quotients of the Euclidean algorithm, so the
    sum does not depend on whether the expansion ends [..., a] or
    [..., a-1, 1].
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"cf_sum needs positive integers, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"cf_sum needs a reduced fraction, got ({p}, {q})")
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


def matrix_complexity(m: Gl2Matrix) -> int:
    """Complexity of a normalized determinant -1 gluing: 0 for +-H, else
    cf_sum(|beta|, |delta|) - 1.  Non-normalized input is rejected."""
    if not is_normalized(m):
        raise ValueError("matrix_complexity needs a normalized matrix")
    if is_plus_minus_h(m):
        return 0
    # normalized and not +-H forces |beta| > |delta| >= 1 with beta/delta > 0
    return cf_sum(abs(m.beta), abs(m.delta)) - 1
