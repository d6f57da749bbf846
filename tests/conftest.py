"""The CLI tests run `python -m gmbound` in a child process; let the child
import the package from this checkout's src/, as the `pythonpath` setting
in pyproject.toml does for the tests themselves."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
