"""Most CLI tests call `cli.main` in the test's own interpreter (`run_cli` in
test_cli.py).  A few start a new interpreter, because what they check lives
in the process: `main_exit`'s stream setup and SIGPIPE, the exit status, and
independence from the hash seed (test_cli.py and criterion 7), and a fresh
interpreter's imports (the test_layers.py probes and the README's python
blocks).  Each starts it with `interpreter()`, and imports the package from
this checkout's src/, as the `pythonpath` setting in pyproject.toml does for
the tests themselves."""

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def interpreter() -> list[str]:
    """The command that starts a Python like the one running the tests: a
    child does not inherit `-X dev` or `-W` options, so a run under
    `python -X dev -W error` passes them on."""
    return [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []), *(f"-W{opt}" for opt in sys.warnoptions)]
