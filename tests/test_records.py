"""The model records stay immutable, slotted dataclasses with value semantics."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from gmbound.bounds import BoundReport, VertexTerms, best_bound
from gmbound.gl2 import H, Gl2Matrix
from gmbound.graph import DecompositionGraph, DegreeStats, Edge, EdgeMove, Violation
from gmbound.seifert import SeifertData
from sample_graphs import U, h_pair

# record -> (instance, a field, another valid value for it)
RECORDS = {
    Gl2Matrix: (Gl2Matrix(1, 2, 1, 1), "delta", 3),
    SeifertData: (SeifertData(0, ((2, 1), (3, 1)), -1), "b", 4),
    Edge: (Edge("e1", "v1", "v2", H), "matrix", U),
    DecompositionGraph: (h_pair(), "edges", ()),
    EdgeMove: (EdgeMove("e1", -1, 2), "h", 0),
    DegreeStats: (DegreeStats(3, 1, 1, 1), "d_zero", 2),
    Violation: (Violation("(i)", "e1", "message"), "severity", "note"),
    VertexTerms: (VertexTerms(3, 1, 2), "penalty", 0),
    BoundReport: (best_bound(h_pair()), "total", 0),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_slotted_dataclasses(record):
    obj, name, value = RECORDS[record]
    assert type(obj) is record
    assert not hasattr(obj, "__dict__")

    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, value)
    # a name that is no field has no slot; Python 3.11's frozen __setattr__
    # then fails on its super() call with a TypeError
    with pytest.raises((FrozenInstanceError, TypeError)):
        obj.extra = value

    changed = replace(obj, **{name: value})
    assert getattr(changed, name) == value
    assert changed != obj
    assert replace(changed, **{name: getattr(obj, name)}) == obj

    twin = record(*[getattr(obj, f.name) for f in fields(obj)])
    assert twin == obj and twin is not obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert repr(obj) == f"{record.__qualname__}(" + ", ".join(
        f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj)) + ")"
    if record is DecompositionGraph:  # its vertices are a dict
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(twin) == hash(obj)
