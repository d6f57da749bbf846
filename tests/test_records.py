"""The model records stay immutable, slotted dataclasses with value semantics."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from gmbound import gl2
from gmbound.bounds import BoundReport, VertexTerms, best_bound
from gmbound.gl2 import H, Gl2Matrix
from gmbound.graph import (
    DecompositionGraph,
    DegreeStats,
    Edge,
    EdgeMove,
    Split,
    Violation,
    _split,
    normalize_all,
    validate,
)
from gmbound.seifert import SeifertData
from sample_graphs import U, connectivity_sweep, h_loops, h_pair, parallel_h, random_multigraph

# a graph that keeps its split: the record checks below see it with the slot
# that graph._split fills
SPLIT = h_pair()
assert not validate(SPLIT)

# record -> (instance, a field, another valid value for it)
RECORDS = {
    Gl2Matrix: (Gl2Matrix(1, 2, 1, 1), "delta", 3),
    SeifertData: (SeifertData(0, ((2, 1), (3, 1)), -1), "b", 4),
    Edge: (Edge("e1", "v1", "v2", H), "matrix", U),
    DecompositionGraph: (SPLIT, "edges", ()),
    Split: (_split(SPLIT), "phi", 1),
    EdgeMove: (EdgeMove("e1", -1, 2), "h", 0),
    DegreeStats: (DegreeStats(3, 1, 1, 1), "d_zero", 2),
    Violation: (Violation("(i)", "e1", "message"), "severity", "note"),
    VertexTerms: (VertexTerms(3, 1, 2), "penalty", 0),
    BoundReport: (best_bound(SPLIT), "total", 0),
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
        # the split is kept, and no assignment replaces it (the frozen
        # __setattr__ of Python 3.11 fails on its super() call, as above)
        kept = _split(obj)
        assert obj._kept is kept
        with pytest.raises((FrozenInstanceError, TypeError)):
            obj._kept = None
        assert _split(obj) is kept
    else:
        assert hash(twin) == hash(obj)


def _some_graphs():
    """Connected and disconnected graphs, with and without H-edges, loops
    and parallel edges, and the graph with no vertices."""
    rng = random.Random(30)
    graphs = [h_pair(), parallel_h()] + [h_loops(n) for n in range(3)] + connectivity_sweep()
    for _ in range(50):
        n = rng.randint(1, 6)
        graphs.append(random_multigraph(rng, n, rng.randint(0, n + 4), rng.random()))
    return graphs


def test_the_kept_split_is_immutable():
    # no reader can change what the next one reads: the kept value is a
    # Split of tuples, completion is None exactly when the graph is
    # disconnected, phi an int
    disconnected = set()
    for g in _some_graphs():
        kept = _split(g)
        assert _split(g) is kept and type(kept) is Split
        assert [f.name for f in fields(kept)] == ["h_links", "rest", "plus", "minus", "zero", "completion", "phi"]
        parts = (kept.h_links, kept.rest, kept.plus, kept.minus, kept.zero, *kept.h_links)
        assert all(type(part) is tuple for part in parts)
        assert kept.completion is None or type(kept.completion) is tuple
        assert type(kept.phi) is int
        disconnected.add(kept.completion is None)
    assert disconnected == {True, False}


def test_a_split_is_read_by_name():
    # a Split has no order to lean on: indexing or unpacking it raises
    split = _split(parallel_h())
    with pytest.raises(TypeError):
        tuple(split)
    with pytest.raises(TypeError):
        split[0]
    with pytest.raises(TypeError):
        h_links, *_ = split


def test_a_new_graph_splits_anew(monkeypatch):
    # the slot is no field: normalize_all, replace, copy and pickle all give a
    # graph that classifies its edges again, while the original reads its own
    calls = []

    def counting(m):
        calls.append(m)
        return gl2.is_plus_minus_h(m)

    monkeypatch.setattr("gmbound.graph.is_plus_minus_h", counting)
    for g in _some_graphs():
        kept = _split(g)
        copies = [normalize_all(g)[0], replace(g), copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))]
        for twin in copies:
            assert twin == g and repr(twin) == repr(g)
            calls.clear()
            assert _split(twin) == kept and _split(twin) is not kept
            assert len(calls) == len(g.edges)
        calls.clear()
        assert _split(g) is kept and not calls
