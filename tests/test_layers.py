"""The production modules and the package root import no checking code: the
flip search in farey and the brute-force oracles check the bound and are no
part of it.  The CLI loads them only for its oracle commands.  Last, CI runs
the suite on every supported Python, down to the floor in pyproject.toml."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import gmbound

PACKAGE = Path(gmbound.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


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
             for module in ("__init__", "gl2", "seifert", "graph", "spanning", "bounds")}
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
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
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
    out = subprocess.run([sys.executable, "-c", probe, str(fixture)], capture_output=True, text=True, check=True,
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
