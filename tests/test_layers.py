"""The production modules and the package root import no checking code: the
flip search in farey and the brute-force oracles check the bound and are no
part of it.  The CLI loads them only for its oracle commands, and the oracle
imports only the production names its docstring lists.  No test
module imports another.  Last, CI runs the suite on every supported Python,
down to the floor in pyproject.toml."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import textwrap
from pathlib import Path

import gmbound
from conftest import interpreter

PACKAGE = Path(gmbound.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _imports(path: Path) -> set[str]:
    """Absolute names of the modules, and of the names in them, that a
    module of the package, or of the tests, imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("gmbound" if node.level else "", node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_production_modules_import_no_checking_code():
    checking = {"gmbound.farey", "gmbound.oracle"}
    found = {module: sorted(_imports(PACKAGE / f"{module}.py") & checking)
             for module in ("__init__", "gl2", "seifert", "graph", "spanning", "bounds")}
    assert found == dict.fromkeys(found, [])


def test_the_oracle_imports_only_what_its_docstring_lists():
    # the oracle checks graph._split, spanning.optimal_trees and
    # bounds._search, so it must never read them
    listed = {"gmbound.bounds": "DEFAULT_ASSIGNMENT_CAP CapExceeded",
              "gmbound.farey": "TAU_MINUS TAU_PLUS act complexity_by_search farey_distance",
              "gmbound.gl2": "H Gl2Matrix cf_sum int_text is_normalized is_plus_minus_h matrix_complexity",
              "gmbound.graph": "DecompositionGraph"}
    names = {f"{module}.{name}" for module, names in listed.items() for name in names.split()}
    assert {name for name in _imports(PACKAGE / "oracle.py") if name.startswith("gmbound.")} == set(listed) | names
    doc = ast.get_docstring(ast.parse((PACKAGE / "oracle.py").read_text()))
    assert sorted(name for name in names if name.rsplit(".", 1)[1] not in doc) == []


def test_no_test_module_imports_another():
    # what tests share lives in sample_graphs.py and conftest.py
    found = {path.name: sorted(name for name in _imports(path) if name.startswith("test_"))
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert found == dict.fromkeys(found, [])


def test_the_package_root_loads_and_exports_only_its_api():
    """A fresh `import gmbound` loads no checking code and no CLI, and its
    public names, modules aside, are exactly `__all__`."""
    probe = textwrap.dedent("""
        import json, sys, types, gmbound
        print(json.dumps({
            "loaded": sorted(m for m in ("gmbound.oracle", "gmbound.farey", "gmbound.cli") if m in sys.modules),
            "exported": sorted(n for n, v in vars(gmbound).items()
                               if not n.startswith("_") and not isinstance(v, types.ModuleType)),
            "all": sorted(gmbound.__all__),
        }))
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([*interpreter(), "-c", probe], capture_output=True, text=True, check=True, env=env)
    found = json.loads(out.stdout)
    assert found["loaded"] == []
    assert found["exported"] == found["all"]


def test_the_cli_loads_checking_code_only_for_oracle_commands():
    """`bound` and `validate` run without loading the oracle or the flip
    search; only the `oracle` commands import them."""
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        from gmbound import cli
        fixture = sys.argv[1]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["bound", fixture]), cli.main(["validate", fixture])]
        print(json.dumps({
            "codes": codes,
            "loaded": sorted(m for m in ("gmbound.oracle", "gmbound.farey") if m in sys.modules),
        }))
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    fixture = Path(__file__).parent / "fixtures" / "parallel_h.json"
    out = subprocess.run([*interpreter(), "-c", probe, str(fixture)], capture_output=True, text=True, check=True,
                         env=env)
    assert json.loads(out.stdout) == {"codes": [0, 0], "loaded": []}


def test_ci_runs_the_suite_on_the_floor():
    # by regex, since 3.10 has neither tomllib nor a YAML parser: the one
    # matrix list holds the requires-python floor, and every setup-python
    # step takes the matrix's version, so no job pins its own interpreter
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)[1]
    values = re.findall(r"^\s*python-version:\s*(.*?)\s*$", (ROOT / ".github/workflows/tests.yml").read_text(), re.M)
    matrices = [v for v in values if v.startswith("[")]
    assert len(matrices) == 1
    assert floor in re.findall(r'"([^"]*)"', matrices[0])
    assert set(values) - set(matrices) == {"${{ matrix.python-version }}"}
