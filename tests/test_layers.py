"""The two routes to every identity stay independent by import,
validation stays at the API boundary, and the public names and README's
library example are pinned.

The diagram layer (diagrams, wick) and the Fock-space oracle (fock) meet
only in verify and cli; algebra, which both use, depends on neither.  The
trusted constructors, which skip validation, are used only by the
expansion core (algebra and wick); every other module builds its values
through the validating public constructors.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
import qwick
from qwick import (
    CovarianceMonomial,
    DomainError,
    Expansion,
    FeynmanDiagram,
    FockParams,
    FockVector,
    GroundSet,
    OneParticleVector,
    OperatorWord,
    QPolynomial,
    SignSequence,
    VariableWord,
    apply,
    catalan_check,
    enumerate_compatible,
    evaluate_expansion,
    expand,
    normal_form,
    q_inner,
    vacuum_expectation,
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
        lambda: catalan_check(5),
        lambda: catalan_check((2,)),
        lambda: catalan_check((2, -1)),
        lambda: next(enumerate_compatible(5)),
        lambda: next(enumerate_compatible((1, 0))),
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
        lambda: QPolynomial(5),
        lambda: Expansion(5),
        lambda: FockVector(5),
        lambda: Expansion({5: 1}),
        lambda: Expansion.from_json(5),
        lambda: QPolynomial.from_json(5),
        lambda: Expansion.from_json([{}]),
        lambda: QPolynomial.from_json([{}]),
        lambda: QPolynomial({0: "a"}),
        lambda: OneParticleVector(("a",)),
        lambda: FockParams(2, 3, "x"),
        lambda: FockVector({(1,): "a"}),
        lambda: QPolynomial({0: None}),
        lambda: OneParticleVector((None,)),
        lambda: FockVector({5: 1}),
        lambda: Expansion({(1, 2): 1}),
        lambda: QPolynomial.from_json([{"exp": 0, "num": "a", "den": 1}]),
        lambda: QPolynomial.one().evaluate("x"),
        lambda: FockVector.vacuum().scaled("a"),
        lambda: FockVector({(1.5,): 1}),
        lambda: FockVector({("a",): 1}),
        lambda: FockVector({(0,): 1}),
        lambda: FockVector({(-2,): 1}),
        lambda: apply([OperatorWord(((1, 1),))], {1: 5}, FockParams(2, 3, 0), FockVector.vacuum()),
        lambda: evaluate_expansion(expand("moment", 2), {1: 5, 2: (1, 0)}, FockParams(2, 3, 0)),
        lambda: vacuum_expectation(
            [VariableWord((1, 2))], {1: None, 2: (1, 0)}, FockParams(2, 3, 0)
        ),
        lambda: q_inner({(1,): 1}, FockVector.vacuum(), FockParams(2, 3, 0)),
        lambda: q_inner(FockVector.vacuum(), {(1,): 1}, FockParams(2, 3, 0)),
        lambda: q_inner(FockVector.vacuum(), FockVector.vacuum(), None),
        lambda: apply([OperatorWord(((1, 1),))], {1: (1, 0)}, FockParams(2, 3, 0), {(): 1}),
        lambda: apply([((1, 1),)], {1: (1, 0)}, FockParams(2, 3, 0)),
        lambda: apply([OperatorWord(((1, 1),))], {1: (1, 0)}, None),
        lambda: evaluate_expansion({}, {}, FockParams(2, 3, 0)),
        lambda: evaluate_expansion(Expansion.zero(), {}, None),
        lambda: vacuum_expectation(5, {1: (1, 0)}, FockParams(2, 3, 0)),
        lambda: vacuum_expectation((1,), {1: (1, 0)}, FockParams(2, 3, 0)),
        lambda: vacuum_expectation([VariableWord((1,))], {1: (1, 0)}, None),
        lambda: OneParticleVector((1, 2)).dot((3, 4)),
        lambda: OneParticleVector((1, 2)).dot(OneParticleVector((3,))),
        lambda: normal_form(5),
        lambda: normal_form({}),
        lambda: expand("nope", 2),
        lambda: expand("product-expansion", 5),
    ],
)
def test_public_constructors_still_validate(build):
    with pytest.raises(DomainError):
        build()


def test_values_that_fraction_takes_are_still_accepted():
    assert QPolynomial({0: "1/3", 1: 0.5, 2: Fraction(2, 4), 3: True}) == QPolynomial(
        {0: Fraction(1, 3), 1: Fraction(1, 2), 2: Fraction(1, 2), 3: 1}
    )
    assert OneParticleVector((1, "1/2", 0.25)).coords == (1, Fraction(1, 2), Fraction(1, 4))
    assert FockParams(2, 3, "1/3").q == Fraction(1, 3)
    assert FockVector({(1,): "2/3"}).entries == {(1,): Fraction(2, 3)}
    term = ((), (1,), "normal")
    assert Expansion({term: "3/2"}) == Expansion({term: Fraction(3, 2)})


PUBLIC_NAMES = [
    "CovarianceMonomial",
    "DomainError",
    "Expansion",
    "FeynmanDiagram",
    "FockParams",
    "FockVector",
    "GroundSet",
    "IDENTITIES",
    "NORMAL",
    "OneParticleVector",
    "OperatorWord",
    "QPolynomial",
    "QwickError",
    "SignSequence",
    "SizeLimitError",
    "TruncationOverflowError",
    "VariableWord",
    "VerifyReport",
    "WICK",
    "apply",
    "catalan_check",
    "catalan_sequences",
    "enumerate_compatible",
    "enumerate_complete",
    "enumerate_diagrams",
    "enumerate_nonlinking",
    "evaluate_expansion",
    "expand",
    "gram_check",
    "normal_form",
    "q_inner",
    "run_check",
    "specialize_free",
    "vacuum_expectation",
    "wick_operator_form",
]


def test_the_public_names_are_pinned():
    # an API cut or addition edits this list, so it is seen and logged; the
    # submodules imported by the package are not public names
    assert sorted(qwick.__all__) == PUBLIC_NAMES


def row_wrappers(source: str) -> set[str]:
    """The functions in source whose body, past a docstring, only returns
    expand or terms called with a literal row name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in {"expand", "terms"}
            and call.args
            and isinstance(call.args[0], ast.Constant)
        ):
            found.add(node.name)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_function_restates_a_row(module):
    # a row is reached by its name through expand or terms, not by a
    # function per row
    assert not row_wrappers((PACKAGE / f"{module}.py").read_text())


def test_reader_sees_each_row_wrapper():
    wrapper = 'def moment(n, free=False):\n    """Doc."""\n    return expand("moment", n, free)'
    assert row_wrappers(wrapper) == {"moment"}
    assert not row_wrappers("def f(name, n):\n    return expand(name, n)")


README = Path(__file__).parent.parent / "README.md"


def readme_example() -> str:
    """The first python block under README's "## Library example" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library example\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```\n", start)]


def test_the_readme_example_runs_as_written(capsys):
    exec(compile(readme_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "c(1,2) c(3,4) + q c(1,3) c(2,4) + c(1,4) c(2,3)",
        "c(1,2) c(3,4) + c(1,4) c(2,3)",
    ]


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


def test_the_formula_side_skips_the_operator_form():
    # a Wick word of an expansion meets only the weighted vacuum, where its
    # creation sequence is all that is left; the oracle side keeps the whole
    # operator form, so the two routes stay independent
    operator_form = {"_wick", "wick_operator_form", "_wick_operator_form"}
    assert not names_and_attributes("fock", "graded_expansion") & operator_form
    assert "_wick" in names_and_attributes("fock", "graded_apply")


def test_reader_sees_each_evaluation():
    assert "_poly_value" in names_and_attributes("fock", "_step")
    assert "at" in names_and_attributes("fock", "evaluate_expansion")
