"""Exact 2x2 integer matrix arithmetic for gluing labels.

Edge labels of a decomposition graph live in GL2(Z) and have determinant -1.
A label (alpha beta / gamma delta) with beta != 0 is called *normalized* when

    0 <= eps * alpha < |beta|   and   0 <= eps * delta < |beta|,

where eps is the sign of beta.  Every determinant -1 matrix with beta != 0
can be brought to normalized form by multiplying with powers of
U = (1 0 / 1 1) on both sides.  The exponents are returned alongside the
result because the same moves shift the integer parameters b of the Seifert
pieces glued along the edge (see graph.normalize_edge for one edge and
graph.normalize_all for a whole graph).

All arithmetic is plain Python integer arithmetic, so it is exact at any
magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass


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
            raise ValueError(f"determinant must be +1 or -1, got {d}")

    @property
    def det(self) -> int:
        return self.alpha * self.delta - self.beta * self.gamma

    def __neg__(self) -> "Gl2Matrix":
        return Gl2Matrix(-self.alpha, -self.beta, -self.gamma, -self.delta)

    def rows(self) -> list[list[int]]:
        return [[self.alpha, self.beta], [self.gamma, self.delta]]

    @classmethod
    def from_rows(cls, rows) -> "Gl2Matrix":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)


IDENTITY = Gl2Matrix(1, 0, 0, 1)
H = Gl2Matrix(0, 1, 1, 0)
U = Gl2Matrix(1, 0, 1, 1)


def compose(a: Gl2Matrix, b: Gl2Matrix) -> Gl2Matrix:
    """Matrix product a * b."""
    return Gl2Matrix(
        a.alpha * b.alpha + a.beta * b.gamma,
        a.alpha * b.beta + a.beta * b.delta,
        a.gamma * b.alpha + a.delta * b.gamma,
        a.gamma * b.beta + a.delta * b.delta,
    )


def power_u(k: int) -> Gl2Matrix:
    """U^k in closed form: (1 0 / k 1), valid for any integer k."""
    return Gl2Matrix(1, 0, k, 1)


def is_plus_minus_h(a: Gl2Matrix) -> bool:
    """True exactly for H and -H, the fibre-swapping gluings."""
    return a.alpha == a.delta == 0 and a.beta == a.gamma and a.beta in (1, -1)


def _check_edge_label(a: Gl2Matrix) -> None:
    if a.det != -1:
        raise ValueError(f"edge label must have determinant -1, got {a.det}")
    if a.beta == 0:
        raise ValueError("edge label must have beta != 0 (non-minimal decomposition otherwise)")


def is_normalized(a: Gl2Matrix) -> bool:
    """Whether the window conditions hold; rejects det != -1 or beta = 0 inputs."""
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
    """
    _check_edge_label(a)
    k = -(a.alpha // a.beta)
    h = -(a.delta // a.beta)
    alpha = a.alpha + k * a.beta
    out = Gl2Matrix(alpha, a.beta, a.gamma + k * a.delta + h * alpha, a.delta + h * a.beta)
    if not is_normalized(out):
        raise RuntimeError(f"normalization failed for {a}; this is a bug")
    return out, k, h
