from __future__ import annotations

import random

import pytest

from gmbound.gl2 import H, Gl2Matrix, int_text, is_normalized, is_plus_minus_h, normalize
from sample_graphs import IDENTITY, U, compose, power_u, random_det_minus_one_matrix


def test_determinant_enforced():
    with pytest.raises(ValueError):
        Gl2Matrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Gl2Matrix(2, 1, 0, 1)
    assert Gl2Matrix(0, 1, 1, 0).det == -1
    assert Gl2Matrix(1, 1, 0, 1).det == 1
    # the determinant 10^8598 - 1 is longer than Python turns into a string by default
    big = 10**4299
    with pytest.raises(ValueError, match=r"^determinant must be \+1 or -1, got a 8598-digit number$"):
        Gl2Matrix(big, 1, 1, big)
    with pytest.raises(ValueError, match=r"got a negative 8599-digit number$"):
        Gl2Matrix(big, 1, 1, -big)  # -10^8598 - 1


def test_int_text():
    assert [int_text(n) for n in (0, 7, -7, 10**100 - 1)] == ["0", "7", "-7", "9" * 100]
    assert int_text(10**100) == "a 101-digit number"
    assert int_text(-(10**100)) == "a negative 101-digit number"
    # at each power of ten, on either side, where a float logarithm may land one off
    for k in (101, 999, 4300, 4301, 10**5):
        assert int_text(10**k - 1) == f"a {k}-digit number"
        assert int_text(10**k) == f"a {k + 1}-digit number"
        assert int_text(-(10**k) - 1) == f"a negative {k + 1}-digit number"


def test_constants():
    assert H == Gl2Matrix(0, 1, 1, 0)
    assert U == Gl2Matrix(1, 0, 1, 1)
    assert IDENTITY == Gl2Matrix(1, 0, 0, 1)
    assert power_u(0) == IDENTITY
    assert power_u(3) == Gl2Matrix(1, 0, 3, 1)
    assert power_u(-2) == Gl2Matrix(1, 0, -2, 1)


def test_compose_is_matrix_product():
    a = Gl2Matrix(1, 2, 1, 1)
    b = Gl2Matrix(0, 1, 1, 0)
    assert compose(a, b) == Gl2Matrix(2, 1, 1, 1)
    assert compose(b, a) == Gl2Matrix(1, 1, 1, 2)
    assert compose(a, IDENTITY) == a
    assert compose(IDENTITY, a) == a


def test_power_u_composes():
    assert compose(power_u(2), power_u(3)) == power_u(5)
    assert compose(power_u(-4), power_u(4)) == IDENTITY


def test_is_plus_minus_h():
    assert is_plus_minus_h(H)
    assert is_plus_minus_h(-H)
    assert not is_plus_minus_h(Gl2Matrix(1, 2, 1, 1))
    assert not is_plus_minus_h(U)


def test_is_plus_minus_h_agrees_with_equality():
    rng = random.Random(4300)
    samples = [random_det_minus_one_matrix(rng) for _ in range(10_000)]
    # normalized labels with |beta| <= 2: about half of them are +-H
    samples += [normalize(random_det_minus_one_matrix(rng, size=2))[0] for _ in range(1000)]
    # near misses: det +1 rotations, and a diagonal label
    samples += [H, -H, Gl2Matrix(0, 1, -1, 0), Gl2Matrix(0, -1, 1, 0), Gl2Matrix(1, 0, 0, -1)]
    answers = [is_plus_minus_h(a) for a in samples]
    assert answers == [a == H or a == -H for a in samples]
    assert 100 < sum(answers) < len(samples) - 100


def test_is_normalized_examples():
    assert is_normalized(H)
    assert is_normalized(-H)
    assert is_normalized(Gl2Matrix(1, 2, 1, 1))
    assert is_normalized(Gl2Matrix(2, 3, 1, 1))
    assert not is_normalized(Gl2Matrix(5, 3, 2, 1))
    # negative beta: window is 0 <= -alpha < |beta|, 0 <= -delta < |beta|
    assert is_normalized(Gl2Matrix(-1, -2, -1, -1))
    assert not is_normalized(Gl2Matrix(1, -2, -1, 1))


def test_is_normalized_rejects_bad_labels():
    # the wording graph.validate reports, and normalize raises for its input
    for check in (is_normalized, normalize):
        with pytest.raises(ValueError, match=r"^matrix determinant must be -1, got 1$"):
            check(U)
        with pytest.raises(ValueError, match=r"^matrix has beta = 0: the gluing matches fibres, so the"
                                             r" decomposition is non-minimal$"):
            check(Gl2Matrix(1, 0, 0, -1))


def test_normalize_worked_example():
    out, k, h = normalize(Gl2Matrix(5, 3, 2, 1))
    assert out == Gl2Matrix(2, 3, 1, 1)
    assert (k, h) == (-1, 0)


def test_normalize_fixes_h_up_to_sign():
    for m in (H, -H):
        out, k, h = normalize(m)
        assert out == m
        assert (k, h) == (0, 0)


def test_normalize_negative_beta():
    # negating the input negates the output and keeps the shifts
    m = Gl2Matrix(-5, -3, -2, -1)
    out, k, h = normalize(m)
    assert out == Gl2Matrix(-2, -3, -1, -1)
    assert (k, h) == (-1, 0)
    assert compose(power_u(h), compose(m, power_u(k))) == out


def test_normalize_shift_directions():
    """The column shift rewrites only the first column, the row shift only
    the bottom row, so beta survives both and alpha survives the second."""
    m = Gl2Matrix(7, 3, 19, 8)
    out, k, h = normalize(m)
    step = compose(m, power_u(k))
    assert (step.beta, step.delta) == (m.beta, m.delta)
    final = compose(power_u(h), step)
    assert (final.alpha, final.beta) == (step.alpha, step.beta)
    assert final == out
    assert is_normalized(out)


def test_negation_and_rows():
    m = Gl2Matrix(2, 3, 1, 1)
    assert -m == Gl2Matrix(-2, -3, -1, -1)
    assert m.rows() == [[2, 3], [1, 1]]
