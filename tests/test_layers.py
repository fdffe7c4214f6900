"""The two routes to every identity stay independent by import.

The diagram layer (diagrams, wick) and the Fock-space oracle (fock) meet
only in verify and cli; algebra, which both use, depends on neither.
"""

import ast
from pathlib import Path

import pytest
import qwick

PACKAGE = Path(qwick.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_imports(module: str) -> set[str]:
    """The qwick modules a source file imports; "qwick" stands for the
    package itself, which re-exports every layer."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(_absolute(node.module))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.update(_absolute(alias.name))
    return found


def _absolute(name: str) -> set[str]:
    parts = name.split(".")
    if parts[0] != "qwick":
        return set()
    return {parts[1] if len(parts) > 1 else "qwick"}


@pytest.mark.parametrize(
    "module, allowed",
    [("fock", {"algebra", "errors"}), ("algebra", {"errors"})],
)
def test_imports_only_from(module, allowed):
    assert package_imports(module) <= allowed


@pytest.mark.parametrize("module", ["wick", "diagrams"])
def test_diagram_layer_never_imports_the_oracle(module):
    assert "fock" not in package_imports(module)
    assert "qwick" not in package_imports(module)


def test_every_module_is_read():
    assert {"algebra", "diagrams", "fock", "wick", "verify", "cli"} <= set(MODULES)
    for module in MODULES:
        package_imports(module)


def test_reader_sees_each_import_form():
    # the reader itself must not miss an import and pass by accident
    assert package_imports("verify") >= {"algebra", "diagrams", "errors", "fock", "wick"}
    assert _absolute("qwick.fock") == {"fock"}
    assert _absolute("qwick") == {"qwick"}
    assert _absolute("itertools") == set()
