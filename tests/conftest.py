"""Make ``python -m qwick`` in subprocesses import this checkout's source,
also when pytest runs without PYTHONPATH set (pyproject.toml puts ``src`` on
the test process's own path)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
