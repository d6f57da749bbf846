from __future__ import annotations

import random

import pytest

from gmbound.farey import (
    INF,
    TAU_MINUS,
    TAU_PLUS,
    ZERO,
    Slope,
    act,
    complexity_by_search,
    cross,
    farey_distance,
    slope,
    triangle,
)
from gmbound.gl2 import H, Gl2Matrix, cf_sum, matrix_complexity
from sample_graphs import random_normalized_matrix


def test_slope_canonical_form():
    assert slope(1, -2) == Slope(-1, 2)
    assert slope(-1, 0) == Slope(1, 0)
    assert slope(3, 2) == Slope(3, 2)
    assert slope(0, -1) == Slope(0, 1)
    with pytest.raises(ValueError):
        Slope(0, 0)
    with pytest.raises(ValueError):
        slope(6, 4)  # not primitive
    with pytest.raises(ValueError):
        Slope(-1, 0)  # wrong representative of infinity


def test_cross():
    assert cross(INF, ZERO) == 1
    assert cross(ZERO, INF) == -1
    assert cross(slope(1, 1), slope(1, 2)) == 1


def test_triangle_requires_pairwise_unimodular():
    assert TAU_PLUS == triangle(slope(1, 0), slope(0, 1), slope(1, 1))
    assert TAU_MINUS == triangle(slope(1, 0), slope(0, 1), slope(-1, 1))
    with pytest.raises(ValueError):
        triangle(slope(1, 0), slope(0, 1), slope(1, 2))
    with pytest.raises(ValueError):
        triangle(slope(1, 0), slope(1, 0), slope(0, 1))


def test_cf_sum_examples():
    assert cf_sum(1, 1) == 1
    assert cf_sum(2, 1) == 2
    assert cf_sum(3, 1) == 3
    assert cf_sum(3, 2) == 3  # 3/2 = [1; 2]
    assert cf_sum(5, 3) == 4  # 5/3 = [1; 1, 2]
    assert cf_sum(7, 5) == 5  # 7/5 = [1; 2, 2]
    with pytest.raises(ValueError):
        cf_sum(4, 2)
    with pytest.raises(ValueError):
        cf_sum(0, 1)


def test_act_on_triangle():
    m = Gl2Matrix(1, 2, 1, 1)
    assert act(m, TAU_PLUS) == triangle(slope(1, 1), slope(2, 1), slope(3, 2))
    assert act(H, TAU_PLUS) == TAU_PLUS  # H swaps infinity and zero


def test_farey_distance_base_cases():
    assert farey_distance(TAU_PLUS, TAU_PLUS) == 0
    assert farey_distance(TAU_PLUS, TAU_MINUS) == 1
    assert farey_distance(TAU_MINUS, TAU_PLUS) == 1


def test_farey_distance_symmetry_sweep():
    rng = random.Random(7)
    for _ in range(200):
        m = random_normalized_matrix(rng)
        t = act(m, TAU_PLUS)
        d1 = farey_distance(t, TAU_MINUS)
        d2 = farey_distance(TAU_MINUS, t)
        assert d1 == d2


def test_matrix_complexity_examples():
    assert matrix_complexity(H) == 0
    assert matrix_complexity(-H) == 0
    assert matrix_complexity(Gl2Matrix(1, 2, 1, 1)) == 1  # S(2/1) - 1
    assert matrix_complexity(Gl2Matrix(2, 3, 1, 1)) == 2  # S(3/1) - 1
    assert matrix_complexity(Gl2Matrix(1, 3, 1, 2)) == 2  # S(3/2) - 1
    assert matrix_complexity(-Gl2Matrix(2, 3, 1, 1)) == 2


def test_matrix_complexity_rejects_non_normalized():
    with pytest.raises(ValueError):
        matrix_complexity(Gl2Matrix(5, 3, 2, 1))


def test_complexity_by_search_matches_formula():
    for m in (H, -H, Gl2Matrix(1, 2, 1, 1), Gl2Matrix(2, 3, 1, 1), Gl2Matrix(1, 3, 1, 2)):
        assert complexity_by_search(m) == matrix_complexity(m)
