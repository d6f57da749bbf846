"""The production modules import no checking code: the flip search in farey
and the brute-force oracles check the bound and are no part of it."""

from __future__ import annotations

import ast
from pathlib import Path

import gmbound

PACKAGE = Path(gmbound.__file__).parent


def _imports(module: str) -> set[str]:
    """Absolute names of the modules, and of the names in them, that a
    module of the package imports."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("gmbound" if node.level else "", node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_production_modules_import_no_checking_code():
    checking = {"gmbound.farey", "gmbound.oracle"}
    found = {module: sorted(_imports(module) & checking)
             for module in ("gl2", "seifert", "graph", "spanning", "bounds")}
    assert found == dict.fromkeys(found, [])
