"""The benchmark's traced run (`bench/run.py --trace 1`) wraps names bound in
the package's modules; a refactor that renames or drops one must fail here,
not leave a span that silently reads zero."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import gmbound
import gmbound.bounds
import gmbound.cli
import gmbound.graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_run(monkeypatch):
    """bench/run.py imported by path, with its sibling modules importable."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists(monkeypatch):
    run = _bench_run(monkeypatch)
    bindings = run.internal_bindings(gmbound)
    assert bindings
    missing = [(module.__name__, attribute) for module, attribute, *_ in bindings
               if not callable(getattr(module, attribute, None))]
    assert missing == []
    run.Pipeline(gmbound)  # the untraced calls, read off gmbound.graph and gmbound.bounds
