"""The two routes to every identity stay independent by import, and
validation stays at the API boundary.

The diagram layer (diagrams, wick) and the Fock-space oracle (fock) meet
only in verify and cli; algebra, which both use, depends on neither.  The
trusted constructors, which skip validation, are used only by the
expansion core (algebra and wick); every other module builds its values
through the validating public constructors.
"""

import ast
from pathlib import Path

import pytest
import qwick
from qwick import (
    CovarianceMonomial,
    DomainError,
    FeynmanDiagram,
    GroundSet,
    OneParticleVector,
    OperatorWord,
    SignSequence,
    VariableWord,
)

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


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_the_environment(module):
    # every option arrives as an argument, so no process state changes a result
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"environ", "environb", "getenv", "getenvb"}


def test_reader_sees_each_import_form():
    # the reader itself must not miss an import and pass by accident
    assert package_imports("verify") >= {"algebra", "diagrams", "errors", "fock", "wick"}
    assert _absolute("qwick.fock") == {"fock"}
    assert _absolute("qwick") == {"qwick"}
    assert _absolute("itertools") == set()


TRUSTED = {"_trusted", "_normal_expansion"}
EXPANSION_CORE = {"algebra", "wick"}


def trusted_uses(module: str) -> set[str]:
    """The trusted constructors a source file names, as a name, an
    attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found & TRUSTED


@pytest.mark.parametrize("module", sorted(set(MODULES) - EXPANSION_CORE))
def test_trusted_constructors_stay_in_the_expansion_core(module):
    assert not trusted_uses(module)


def test_reader_sees_each_trusted_use():
    # the reader itself must not miss a use and pass by accident
    assert trusted_uses("wick") == {"_trusted", "_normal_expansion"}
    assert trusted_uses("algebra") == {"_trusted"}


def permutation_uses(source: str) -> bool:
    """Whether source names itertools.permutations, as an attribute or an import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "permutations":
            return True
        if isinstance(node, ast.alias) and node.name == "permutations":
            return True
    return False


@pytest.mark.parametrize("module", MODULES)
def test_the_permutation_sum_stays_in_the_tests(module):
    # the oracle's inner product goes through the annihilation kernel; the
    # defining permutation sum is the tests' reference for it
    assert not permutation_uses((PACKAGE / f"{module}.py").read_text())


def test_reader_sees_each_permutation_use():
    assert permutation_uses("import itertools\nitertools.permutations(range(3))")
    assert permutation_uses("from itertools import permutations")
    assert not permutation_uses("import itertools\nitertools.product(range(3), repeat=2)")


REFERENCE = Path(__file__).parent / "reference.py"
MOVED = {
    "PairStats",
    "CrossingStats",
    "crossing_stats",
    "DiagramClasses",
    "classify",
    "epsilon_of",
    "block_of",
    "diagram_term",
    "wick_to_normal_word",
}


def reference_uses(source: str) -> set[str]:
    """The moved reference names that source defines, as a function, method
    or class, or imports, under its own name or an alias."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update((node.name, node.asname))
    return found & MOVED


@pytest.mark.parametrize("module", MODULES)
def test_the_references_stay_in_the_tests(module):
    # the walker carries the statistics and the rows stream the keys; the
    # from-scratch definitions they are checked against live in the tests
    assert not reference_uses((PACKAGE / f"{module}.py").read_text())


def test_reader_sees_each_reference_use():
    assert reference_uses(REFERENCE.read_text()) == MOVED
    assert reference_uses("class GroundSet:\n    def block_of(self, pos): pass") == {"block_of"}
    assert reference_uses("from .diagrams import crossing_stats as stats") == {"crossing_stats"}
    assert reference_uses("import qwick.wick as diagram_term") == {"diagram_term"}
    assert not reference_uses("from .diagrams import _walk\ndef lex_labels(): pass")


def test_keys_have_no_instance_dict():
    for value in (CovarianceMonomial(((1, 2),)), VariableWord((1, 3))):
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(
    "build",
    [
        lambda: CovarianceMonomial(((2, 2),)),
        lambda: CovarianceMonomial(((1, 3), (4, 4))),
        lambda: VariableWord((1, 2, 1)),
        lambda: VariableWord((3, 3), "wick"),
        lambda: VariableWord((1,), "ordered"),
        lambda: VariableWord((), "other"),
        lambda: GroundSet(4, 4),
        lambda: SignSequence(5),
        lambda: FeynmanDiagram(GroundSet(4), 5),
        lambda: FeynmanDiagram(GroundSet(4), [(1,)]),
        lambda: FeynmanDiagram(4),
        lambda: FeynmanDiagram(4, ((1, 2),)),
        lambda: VariableWord(5),
        lambda: CovarianceMonomial(5),
        lambda: CovarianceMonomial([(1,)]),
        lambda: OperatorWord(5),
        lambda: OperatorWord([(1,)]),
        lambda: OneParticleVector(5),
    ],
)
def test_public_constructors_still_validate(build):
    with pytest.raises(DomainError):
        build()


WALKER_ROUTE = {"_walk", "terms", "_row_terms", "_diagram_sum", "expand", "IDENTITIES"}


def function_node(module: str, function: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return node


def names_in_function(module: str, function: str) -> set[str]:
    """The bare names a module-level function mentions or imports; an
    attribute such as Expansion.terms is not the module-level function terms."""
    found = set()
    for sub in ast.walk(function_node(module, function)):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


@pytest.mark.parametrize("function", ["normal_form"])
def test_recursion_stays_a_second_route(function):
    # the recursion checks the diagram walker, so it must not go through it
    assert not names_in_function("wick", function) & WALKER_ROUTE


def test_reader_sees_each_walker_use():
    # the reader itself must not miss a use and pass by accident
    assert {"_walk", "_row_terms", "IDENTITIES"} <= names_in_function("wick", "terms")
    assert "_diagram_sum" in names_in_function("wick", "expand")


def names_and_attributes(module: str, function: str) -> set[str]:
    """names_in_function plus every attribute name the function reads, such
    as evaluate in poly.evaluate(q)."""
    node = function_node(module, function)
    attributes = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
    return names_in_function(module, function) | attributes


def test_the_cutoff_rule_stays_in_the_step():
    # graded_expansion evaluates no coefficient at any q: the word's summed
    # coefficient reaches _step, which alone decides whether a word at the
    # cutoff is nonzero at one of the q values
    assert not names_and_attributes("fock", "graded_expansion") & {"evaluate", "_poly_value"}


def test_reader_sees_each_evaluation():
    assert "_poly_value" in names_and_attributes("fock", "_step")
    assert "at" in names_and_attributes("fock", "evaluate_expansion")
