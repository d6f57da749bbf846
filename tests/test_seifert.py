from __future__ import annotations

from gmbound.seifert import SeifertData, fibre_problems, handle_count, validate_class_s


def test_fibre_problems_flags_bad_pairs():
    assert fibre_problems(SeifertData(0, ((2, 1), (5, 3)))) == []
    assert fibre_problems(SeifertData(0, ((4, 2),))) == ["fibre pair (4, 2) must be coprime"]
    assert fibre_problems(SeifertData(0, ((2, 3),))) == ["fibre pair (2, 3) must satisfy 0 < q < p"]
    assert fibre_problems(SeifertData(0, ((1, 0),))) == ["fibre pair (1, 0) must satisfy 0 < q < p"]
    assert fibre_problems(SeifertData(0, ((3, 2), (2, 1)))) == ["fibre pairs must be listed in non-decreasing order"]
    assert fibre_problems(SeifertData(0, ((2, 1), (2, 1)))) == []  # repeats allowed


def test_handle_count():
    assert handle_count(SeifertData(0, ())) == 0
    assert handle_count(SeifertData(2, ())) == 4
    assert handle_count(SeifertData(-1, ())) == 1
    assert handle_count(SeifertData(-3, ())) == 3


def test_class_s_accepts_core_shapes():
    assert validate_class_s(SeifertData(0, ((2, 1), (2, 1))), d=1) == []
    assert validate_class_s(SeifertData(0, ()), d=3) == []
    assert validate_class_s(SeifertData(1, ()), d=1) == []
    assert validate_class_s(SeifertData(-1, ()), d=1) == []
    assert validate_class_s(SeifertData(0, ((2, 1),)), d=2) == []


def test_class_s_rejections():
    assert validate_class_s(SeifertData(0, ()), d=0)
    assert validate_class_s(SeifertData(1, ()), d=0)
    # fibred solid torus shapes: g=0, one boundary, at most one fibre
    assert validate_class_s(SeifertData(0, ()), d=1)
    assert validate_class_s(SeifertData(0, ((2, 1),)), d=1)
    # thickened torus shape: g=0, two boundaries, no fibres
    assert validate_class_s(SeifertData(0, ()), d=2)


def test_class_s_message_shapes():
    msgs = validate_class_s(SeifertData(0, ((3, 1),)), d=1)
    assert len(msgs) == 1 and "solid torus" in msgs[0]
    msgs = validate_class_s(SeifertData(0, ()), d=2)
    assert len(msgs) == 1 and "thickened torus" in msgs[0]
    msgs = validate_class_s(SeifertData(3, ()), d=0)
    assert len(msgs) == 1 and "degree 0" in msgs[0]
