"""Oracle behaviour: operators, inner products, evaluation, positivity."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwick import (
    IDENTITIES,
    DomainError,
    FockParams,
    FockVector,
    OneParticleVector,
    OperatorWord,
    SizeLimitError,
    TruncationOverflowError,
    apply,
    catalan_sequences,
    evaluate_expansion,
    expand,
    gram_check,
    q_inner,
    vacuum_expectation,
    wick_operator_form,
)
from qwick.algebra import NORMAL, WICK, CovarianceMonomial, Expansion, QPolynomial, VariableWord
from qwick import fock
from qwick.algebra import _poly_value
from qwick.fock import (
    GRAM_DEGREE_CAP,
    GRAM_WORD_CAP,
    Graded,
    WICK_FORM_CAP,
    _gram,
    _positive_definite,
    graded_apply,
)
from qwick.verify import GRAM_Q_GRID, Q_GRID, SAMPLES, _vec_json, sample_assignments

E1 = OneParticleVector((1, 0))
E2 = OneParticleVector((0, 1))
# one creation, annihilation or field of variable 1
CREATE = OperatorWord(((1, 1),))
ANNIHILATE = OperatorWord(((-1, 1),))
FIELD = VariableWord((1,))


def params(q, dim=2, level=6):
    return FockParams(dim, level, Fraction(q))


def field_word(indices, assignment):
    """A field word whose variables may repeat, which a VariableWord cannot:
    distinct positions 1..k, and an assignment giving each position its
    variable's vector."""
    positions = {pos: assignment[i] for pos, i in enumerate(indices, 1)}
    return VariableWord(range(1, len(indices) + 1)), positions


class TestOperators:
    def test_create_on_vacuum(self):
        p = params("1/3")
        assert apply([CREATE], {1: E1}, p) == FockVector({(1,): 1})

    def test_create_prepends(self):
        p = params("1/3")
        assert apply([CREATE], {1: E2}, p, FockVector({(1,): 1})) == FockVector({(2, 1): 1})

    def test_create_is_linear_in_the_vector(self):
        p = params("1/3")
        f = OneParticleVector((1, 1))
        assert apply([CREATE], {1: f}, p) == FockVector({(1,): 1, (2,): 1})

    def test_create_overflow_is_an_error(self):
        p = params("1/3", level=2)
        u = FockVector({(1, 1): 1})
        with pytest.raises(TruncationOverflowError):
            apply([CREATE], {1: E1}, p, u)

    def test_annihilate_vacuum_is_zero(self):
        p = params("1/3")
        assert apply([ANNIHILATE], {1: E1}, p).is_zero()

    def test_annihilate_repeated_letter(self):
        p = params("1/3")
        got = apply([ANNIHILATE], {1: E1}, p, FockVector({(1, 1): 1}))
        assert got == FockVector({(1,): Fraction(4, 3)})  # weights 1 and q

    def test_annihilate_second_position_picks_up_q(self):
        p = params("1/3")
        got = apply([ANNIHILATE], {1: E1}, p, FockVector({(2, 1): 1}))
        assert got == FockVector({(2,): Fraction(1, 3)})

    def test_field_apply_squares_the_vacuum(self):
        p = params("1/3")
        got = apply([FIELD], {1: E1}, p, apply([FIELD], {1: E1}, p))
        assert got == FockVector({(1, 1): 1, (): 1})

    @given(
        q=st.fractions(min_value=-2, max_value=2, max_denominator=5),
        fc=st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=4)] * 2),
        gc=st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=4)] * 2),
        word=st.lists(st.integers(1, 2), max_size=3).map(tuple),
    )
    @settings(max_examples=80)
    def test_commutation_relation_on_basis_words(self, q, fc, gc, word):
        p = FockParams(2, len(word) + 1, q)
        f, g = OneParticleVector(fc), OneParticleVector(gc)
        u = FockVector({word: 1})
        fg = {1: f, 2: g}
        lhs = apply([OperatorWord(((-1, 1), (1, 2)))], fg, p, u)
        lhs = lhs - apply([OperatorWord(((1, 2), (-1, 1)))], fg, p, u).scaled(q)
        assert lhs == u.scaled(f.dot(g))


class TestOperatorWords:
    def test_annihilate_then_create_gives_covariance(self):
        p = params("1/2")
        f1 = OneParticleVector((2, -1))
        f2 = OneParticleVector((1, 3))
        word = OperatorWord(((-1, 1), (1, 2)))
        got = apply([word], {1: f1, 2: f2}, p)
        assert got == FockVector({(): f1.dot(f2)})

    def test_excess_annihilators_give_zero(self):
        p = params("1/2")
        word = OperatorWord(((-1, 1), (-1, 2)))
        got = apply([word], {1: E1, 2: E1}, p)
        assert got.is_zero()

    def test_missing_assignment_raises_lookup_error(self):
        p = params("1/2")
        word = OperatorWord(((1, 7),))
        with pytest.raises(KeyError, match="7"):
            apply([word], {1: E1}, p)

    def test_vacuum_expectation_of_covariance(self):
        p = params("1/3")
        f = OneParticleVector((2, 1))
        g = OneParticleVector((-1, 3))
        assert vacuum_expectation([VariableWord((1, 2))], {1: f, 2: g}, p) == f.dot(g)

    def test_wrong_order_pattern_vanishes(self):
        p = params("1/3")
        word = OperatorWord(((1, 1), (-1, 2)))
        assert vacuum_expectation([word], {1: E1, 2: E1}, p) == 0

    def test_odd_field_moment_vanishes(self):
        p = params("1/3")
        assert vacuum_expectation([VariableWord((1, 2, 3))], {i: E1 for i in (1, 2, 3)}, p) == 0

    def test_fourth_field_moment(self):
        for q in (Fraction(0), Fraction(1, 3), Fraction(-1, 2)):
            p = params(q)
            got = vacuum_expectation([VariableWord((1, 2, 3, 4))], {i: E1 for i in range(1, 5)}, p)
            assert got == 2 + q

    def test_sign_expansion_equals_direct_field_application(self):
        # expanding every field factor into its creation and annihilation
        # parts and summing the 2^n signed words reproduces the moment
        p = params("1/3")
        assign = {
            1: OneParticleVector((1, 2)),
            2: OneParticleVector((0, 1)),
            3: OneParticleVector((2, -1)),
            4: OneParticleVector((1, 1)),
        }
        direct = vacuum_expectation([VariableWord((1, 2, 3, 4))], assign, p)
        expanded = sum(
            vacuum_expectation(
                [OperatorWord(tuple((s, k) for k, s in enumerate(signs, start=1)))],
                assign,
                p,
            )
            for signs in itertools.product((1, -1), repeat=4)
        )
        assert expanded == direct

    def test_identities_hold_outside_the_unit_interval(self):
        # everything is polynomial in q, so evaluation at q = 2 is legitimate;
        # only positivity checks restrict q to (-1, 1)
        p = params(2)
        assign = {i: E1 for i in range(1, 5)}
        assert vacuum_expectation([VariableWord((1, 2, 3, 4))], assign, p) == 4
        assert evaluate_expansion(expand("moment", 4), assign, p) == 4

    def test_wick_product_missing_assignment_raises_lookup_error(self):
        with pytest.raises(KeyError, match="no vector assigned to variable 7"):
            apply([VariableWord((1, 7), WICK)], {1: E1}, params("1/2"))

    def test_wick_form_has_its_own_cap(self):
        # the oracle's wall, not the enumeration cap of the diagram layer
        assert len(wick_operator_form(WICK_FORM_CAP)) == 2**WICK_FORM_CAP
        with pytest.raises(SizeLimitError, match="Wick operator form cap"):
            wick_operator_form(WICK_FORM_CAP + 1)


class TestInnerProduct:
    def test_vacuum_is_a_unit_vector(self):
        assert q_inner(FockVector.vacuum(), FockVector.vacuum(), params("1/3")) == 1

    def test_repeated_letter_pair(self):
        u = FockVector({(1, 1): 1})
        assert q_inner(u, u, params("1/2")) == Fraction(3, 2)

    def test_transposed_words_pick_up_q(self):
        u = FockVector({(1, 2): 1})
        v = FockVector({(2, 1): 1})
        assert q_inner(u, v, params("1/3")) == Fraction(1, 3)

    def test_only_letter_equality_matters(self):
        # letters outside 1..dim pair as any other letters do
        u = FockVector({(9, 7): 1, (2,): 3})
        v = FockVector({(7, 9): 1, (7,): 5})
        assert q_inner(u, v, params("1/3", dim=1)) == Fraction(1, 3)

    def test_cross_degree_is_zero(self):
        u = FockVector({(1,): 1})
        v = FockVector({(1, 1): 1})
        assert q_inner(u, v, params("1/3")) == 0

    def test_long_word_has_the_q_factorial_norm(self):
        # <1^9, 1^9> = [9]_q!, past the degree any Gram matrix reaches
        q = Fraction(1, 2)
        u = FockVector({(1,) * 9: 1})
        want = math.prod(sum(q**j for j in range(k)) for k in range(1, 10))
        assert q_inner(u, u, FockParams(1, 10, q)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_permutation_sum(self, data):
        dim = data.draw(st.integers(1, 3))
        word = st.lists(st.integers(1, dim), max_size=4).map(tuple)
        coeff = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
        u, v = (FockVector(data.draw(st.dictionaries(word, coeff, max_size=5))) for _ in "uv")
        pairs = [
            (c1 * c2, ref_inner(w1, w2))
            for w1, c1 in u.entries.items()
            for w2, c2 in v.entries.items()
        ]
        for q in GRAM_Q_GRID:
            want = sum((c * _poly_value(poly.items(), q) for c, poly in pairs), Fraction(0))
            assert q_inner(u, v, FockParams(dim, 4, q)) == want

    def test_consistency_with_operator_route(self):
        # <a+(f)a+(g) vac, a+(h)a+(k) vac> computed both ways
        p = params("1/3", level=3)
        f = OneParticleVector((1, 2))
        g = OneParticleVector((3, -1))
        h = OneParticleVector((0, 2))
        k = OneParticleVector((1, 1))
        creations = OperatorWord(((1, 1), (1, 2)))
        u = apply([creations], {1: f, 2: g}, p)
        v = apply([creations], {1: h, 2: k}, p)
        direct = q_inner(u, v, p)
        # annihilation is the adjoint of creation, so peel u off v
        peeled = apply([OperatorWord(((-1, 2), (-1, 1)))], {1: f, 2: g}, p, v)
        assert direct == peeled.coefficient(())


class TestGradedComparison:
    """Graded sides compare as whole polynomials: equal entries and the same
    scalar flag, so equal at every q."""

    def test_equal_entries_and_flag(self):
        assert Graded({((1,), 2): 3}) == Graded({((1,), 2): Fraction(3)})
        assert Graded({((1,), 2): 3}) != Graded({((1,), 1): 3})
        assert Graded({((), 0): 1, ((1,), 0): 2}, scalar=True) == Graded({((), 0): 1}, True)

    def test_scalar_flag_must_match(self):
        # at(q) gives a Fraction on one side and a FockVector on the other
        assert Graded({((), 0): 1}, scalar=True) != Graded({((), 0): 1})

    def test_other_types_are_unequal(self):
        assert Graded({}, scalar=True) != 0
        assert Graded({((), 0): 1}, scalar=True) != Fraction(1)

    def test_truth_is_nonzero_polynomial(self):
        assert not Graded({})
        assert not Graded({((1,), 0): 5}, scalar=True)
        assert Graded({((), 3): -1})


class TestSupportCap:
    F = OneParticleVector((1, -2, 3))

    @pytest.mark.parametrize("cap, fails", [(27, False), (26, True)])
    def test_a_vector_past_the_cap_raises(self, monkeypatch, cap, fails):
        # three creations of a full 3-dim vector reach 27 basis words
        monkeypatch.setattr(fock, "FOCK_SUPPORT_CAP", cap)
        word = OperatorWord(((1, 1), (1, 1), (1, 1)))
        if fails:
            with pytest.raises(SizeLimitError) as exc:
                apply([word], {1: self.F}, params("1/3", 3))
            assert str(exc.value) == "27 vector entries exceed the support cap 26"
        else:
            out = apply([word], {1: self.F}, params("1/3", 3))
            assert len(out.entries) == 27

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_step_stops_once_an_entry_fans_out_past_the_cap(self, monkeypatch, sign):
        # each of the three input words fans out to three new entries, so the
        # second one passes a cap of 5, before the step's nine are all built
        monkeypatch.setattr(fock, "FOCK_SUPPORT_CAP", 5)
        u = FockVector({(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1})
        word = OperatorWord(((sign, 1),))
        with pytest.raises(SizeLimitError) as exc:
            apply([word], {1: self.F}, params("1/3", 3), u)
        assert str(exc.value) == "6 vector entries exceed the support cap 5"


class TestGram:
    def test_degree_one_is_the_identity(self):
        assert gram_check(1, params("1/3")) is True

    def test_one_dimensional_degree_two(self):
        assert gram_check(2, FockParams(1, 2, Fraction(1, 2))) is True

    def test_two_dimensional_negative_q(self):
        assert gram_check(2, FockParams(2, 2, Fraction(-1, 2))) is True

    def test_q_outside_open_interval_rejected(self):
        with pytest.raises(DomainError):
            gram_check(2, FockParams(2, 2, Fraction(5, 4)))
        with pytest.raises(DomainError):
            gram_check(1, FockParams(2, 2, Fraction(1)))

    def test_degree_above_cap_rejected(self):
        assert GRAM_DEGREE_CAP == 8
        assert gram_check(8, FockParams(1, 8, Fraction(0))) is True
        with pytest.raises(SizeLimitError, match="degree 9 exceeds the Gram degree cap 8"):
            gram_check(9, FockParams(1, 9, Fraction(0)))

    def test_every_block_must_pass(self, monkeypatch):
        # no Gram block fails for -1 < q < 1, so stand in blocks of constant entries
        one = ((0, 1),)
        good, bad = ((one,),), ((one, one), (one, one))
        for blocks, expected in [((good, good), True), ((good, bad), False), ((bad, good), False)]:
            monkeypatch.setattr(fock, "_gram", lambda dim, degree: [((), b) for b in blocks])
            assert gram_check(1, params("1/3")) is expected

    def test_too_many_basis_words_rejected(self):
        assert 3**5 > GRAM_WORD_CAP >= 3**4
        assert gram_check(4, FockParams(3, 4, Fraction(1, 3))) is True
        with pytest.raises(SizeLimitError):
            gram_check(5, FockParams(3, 5, Fraction(1, 3)))

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            ([], True),
            ([[2]], True),
            ([[2, 1], [1, 2]], True),
            ([[4, 2, 0], [2, 5, 1], [0, 1, 3]], True),
            ([[1, 2], [2, 1]], False),
            ([[0, 0], [0, 1]], False),
            ([[0, 1], [1, 0]], False),
            ([[-1]], False),
            ([[1, 1], [1, 1]], False),
            ([[1, 0, 0], [0, 1, 2], [0, 2, 1]], False),
        ],
    )
    def test_pivot_pass_follows_sylvester(self, matrix, expected):
        rows = [[Fraction(x) for x in row] for row in matrix]
        assert _positive_definite(rows) is expected


def fraction_pivot_pass(matrix):
    """Sylvester's criterion as gram_check decided it before the integer
    elimination: Gaussian elimination over Fractions, positive pivots."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    for col in range(n):
        if rows[col][col] <= 0:
            return False
        for row in rows[col + 1 :]:
            if row[col]:
                factor = Fraction(row[col]) / rows[col][col]
                for k in range(col + 1, n):
                    row[k] -= factor * rows[col][k]
    return True


def integer_multiple(matrix):
    """A positive integer multiple of a rational matrix."""
    lcm = math.lcm(1, *(Fraction(x).denominator for row in matrix for x in row))
    return [[int(x * lcm) for x in row] for row in matrix]


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 8 x 8: random entries (mostly
    indefinite), B B^T of any rank (semidefinite, singular below full rank),
    or B D B^T with signs in D."""
    n = draw(st.integers(0, 8))
    entry = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)
    kind = draw(st.sampled_from(["random", "gram", "signed"]))
    if kind == "random":
        upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
        return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    rank = draw(st.integers(0, n))
    b = [[draw(entry) for _ in range(rank)] for _ in range(n)]
    d = [1 if kind == "gram" else draw(st.sampled_from([-1, 1, 2])) for _ in range(rank)]
    return [
        [sum((b[i][k] * d[k] * b[j][k] for k in range(rank)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


GRAM_SHAPES = [
    (dim, degree)
    for dim in range(1, GRAM_WORD_CAP + 1)
    for degree in range(GRAM_DEGREE_CAP + 1)
    if dim**degree <= GRAM_WORD_CAP
]
assert len(GRAM_SHAPES) == 223 and (2, 6) in GRAM_SHAPES and (100, 1) in GRAM_SHAPES


class TestIntegerElimination:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrices())
    def test_bareiss_matches_the_fraction_pivot_pass(self, matrix):
        assert _positive_definite(integer_multiple(matrix)) is fraction_pivot_pass(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0, 0], [0, 1]],
            [[1, 1], [1, 1]],
            [[2, 1, 1], [1, 2, 1], [1, 1, -1]],
            [[-3, 1], [1, 2]],
            [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
        ],
    )
    def test_singular_indefinite_and_negative_diagonal_fail(self, matrix):
        assert _positive_definite(matrix) is False is fraction_pivot_pass(matrix)

    def test_pivots_are_the_leading_minors(self):
        # Bareiss pivots on [[4,2,0],[2,5,1],[0,1,3]]: 4, 4*5-2*2 = 16, det = 44
        matrix = [[4, 2, 0], [2, 5, 1], [0, 1, 3]]
        assert _positive_definite(matrix) is True
        assert matrix[1][1] == 16 and matrix[2][2] == 44

    @pytest.mark.parametrize(
        "q",
        GRAM_Q_GRID
        + tuple(Fraction(s * n, d) for s in (1, -1) for n, d in ((9, 10), (99, 100))),
    )
    def test_gram_check_matches_the_fraction_path(self, q):
        # the whole matrix from the defining permutation sum, not block by block
        for dim, degree in GRAM_SHAPES:
            words, ref = ref_gram(dim, degree)
            polys = [[ref[w1, w2].items() for w2 in words] for w1 in words]
            gram = [[_poly_value(p, q) if p else 0 for p in row] for row in polys]
            want = fraction_pivot_pass(gram)
            assert gram_check(degree, FockParams(dim, max(degree, 1), q)) is want, (dim, degree)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4)])
    def test_distinct_letters_follow_zagier(self, n, q):
        # Zagier 1992: the block of the n! orderings of n distinct letters has
        # determinant prod_k (1 - q^(k^2 + k))^((n - k) n! / (k^2 + k))
        words = sorted(itertools.permutations(range(1, n + 1)))
        num, den, top = q.numerator, q.denominator, n * (n - 1) // 2
        units = fock._units(n)
        entries = [[fock._inner(w1, units, {(w2, 0): 1}) for w2 in words] for w1 in words]
        matrix = [[sum(c * num**k * den ** (top - k) for k, c in p) for p in r] for r in entries]
        want = math.prod(
            (1 - q ** (k * k + k)) ** ((n - k) * math.factorial(n) // (k * k + k))
            for k in range(1, n)
        )
        # the last Bareiss pivot is the determinant of the den^top multiple
        assert _positive_definite(matrix) is True
        assert matrix[-1][-1] == want * den ** (top * len(words))


class TestEvaluateExpansion:
    def test_moment_of_four_at_a_third(self):
        p = params("1/3")
        assign = {i: E1 for i in range(1, 5)}
        assert evaluate_expansion(expand("moment", 4), assign, p) == Fraction(7, 3)

    def test_wick_product_sends_vacuum_to_the_tensor(self):
        p = params("1/3")
        assign = {1: E1, 2: E2, 3: E1}
        got = evaluate_expansion(expand("wick-to-normal", 3), assign, p)
        assert got == FockVector({(1, 2, 1): 1})
        direct = apply([VariableWord((1, 2, 3), WICK)], assign, p)
        assert direct == got

    def test_zero_expansion(self):
        p = params("1/3")
        assert evaluate_expansion(Expansion.zero(), {}, p) == 0

    def test_missing_assignment_raises(self):
        p = params("1/3")
        with pytest.raises(KeyError):
            evaluate_expansion(expand("moment", 2), {1: E1}, p)

    def test_normal_words_apply_field_operators(self):
        p = params("1/2")

        assign = {1: OneParticleVector((1, 1)), 2: OneParticleVector((2, -1))}
        lhs = apply([VariableWord((1, 2))], assign, p)
        rhs = evaluate_expansion(expand("normal-to-wick", 2), assign, p)
        assert lhs == rhs


def reference_graded_expansion(e, assignment, params, qs):
    """graded_expansion term by term: each term's word acts on the unit
    vacuum for the q where the term's own coefficient is nonzero, a Wick
    word through its whole operator form, and its output is scaled by the
    term's covariances and q-polynomial."""
    coords = fock._Coordinates(assignment, params.dim)
    out = {}
    for (factors, indices, kind), poly in e.terms.items():
        scale = 1
        for i, j in factors:
            scale *= sum(a * b for a, b in zip(coords[i], coords[j]))
        live = tuple(q for q in qs if poly.evaluate(q)) if scale and indices else qs
        if not scale or not live:
            continue
        coeffs = [(p, a * scale) for p, a in poly.coeffs.items()]
        vacuum = {((), 0): 1}
        if kind == NORMAL:
            word = fock._letters(tuple((0, i) for i in indices), coords, vacuum, params, live)
        else:
            word = fock._wick(indices, coords, vacuum, params, live)
        for (w, k), c in word.items():
            for p, a in coeffs:
                out[w, k + p] = out.get((w, k + p), 0) + a * c
    return Graded({key: c for key, c in out.items() if c}, e.is_scalar())


# a few words, each carrying several terms through different covariances,
# with rational q-polynomials of up to three terms
WORD_POOL = st.lists(
    st.tuples(
        st.lists(st.integers(1, 4), max_size=4, unique=True).map(tuple),
        st.sampled_from((NORMAL, WICK)),
    ),
    min_size=1,
    max_size=3,
)
POOL_COVS = st.lists(st.sampled_from(((1, 2), (1, 5), (2, 3), (5, 6))), max_size=2).map(tuple)
POOL_POLYS = st.dictionaries(
    st.integers(0, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
    min_size=1,
    max_size=3,
).map(QPolynomial)


@st.composite
def pooled_expansions(draw):
    words = draw(WORD_POOL)
    keys = st.tuples(POOL_COVS, st.sampled_from(words)).map(lambda t: (t[0],) + t[1])
    return Expansion(draw(st.dictionaries(keys, POOL_POLYS, min_size=1, max_size=8)))


class TestOneRunPerWord:
    """graded_expansion sums the terms on one word into one weighted vacuum,
    and runs each letter prefix that words share once, on their merged sum."""

    @given(pooled_expansions(), st.integers(1, 2), st.data())
    @settings(max_examples=150)
    def test_matches_the_per_term_route(self, e, dim, data):
        coords = st.lists(COORDINATE, min_size=dim, max_size=dim).map(tuple)
        assignment = {i: data.draw(coords) for i in range(1, 7)}
        p = FockParams(dim, 5, 0)  # the suites' default cutoff: one above the top degree 4
        got = fock.graded_expansion(e, assignment, p, Q_GRID)
        want = reference_graded_expansion(e, assignment, p, Q_GRID)
        for q in Q_GRID:
            assert got.at(q) == want.at(q)

    def test_one_step_per_letter_prefix(self, monkeypatch):
        signs = []
        original = fock._step

        def counted(sign, *args):
            signs.append(sign)
            return original(sign, *args)

        monkeypatch.setattr(fock, "_step", counted)
        e = expand("product-expansion", (2, 2, 1))
        assignment = {i: (1, i) for i in range(1, 6)}  # every covariance is nonzero
        fock.graded_expansion(e, assignment, params("1/2", level=6), Q_GRID)
        # a normal word is fields (0, i); a Wick word on the vacuum is creations (1, i)
        words = {tuple((int(kind == WICK), i) for i in indices) for _, indices, kind in e.terms}
        prefixes = {word[:k] for word in words for k in range(1, len(word) + 1)}
        assert sorted(signs) == sorted(prefix[-1][0] for prefix in prefixes)
        assert len(signs) == 20 < sum(map(len, words)) == 34  # one run per word took 34


# The oracle before it kept q formal: one direct Fraction pass per q.  The
# public functions must give the same values, of the same types.
def ref_create(coords, u, level):
    out = {}
    for word, val in u.items():
        if len(word) >= level:
            raise TruncationOverflowError(
                f"creation on a degree-{len(word)} word exceeds the cutoff {level}"
            )
        for letter, coord in enumerate(coords, start=1):
            if coord:
                key = (letter,) + word
                out[key] = out.get(key, Fraction(0)) + coord * val
    return {w: v for w, v in out.items() if v}


def ref_annihilate(coords, u, q):
    out = {}
    for word, val in u.items():
        for i, letter in enumerate(word):
            coord = coords[letter - 1]
            if coord:
                key = word[:i] + word[i + 1 :]
                out[key] = out.get(key, Fraction(0)) + q**i * coord * val
    return {w: v for w, v in out.items() if v}


def ref_letters(letters, assignment, u, q, level):
    """(sign, variable) letters right to left; sign 0 is a field."""
    for sign, idx in reversed(letters):
        coords = [Fraction(c) for c in assignment[idx]]
        created = ref_create(coords, u, level) if sign >= 0 else {}
        removed = ref_annihilate(coords, u, q) if sign <= 0 else {}
        u = {w: created.get(w, 0) + removed.get(w, 0) for w in {**created, **removed}}
        u = {w: v for w, v in u.items() if v}
    return u


def ref_wick(indices, assignment, u, q, level):
    by_position = {p: assignment[i] for p, i in enumerate(indices, start=1)}
    out = {}
    for opword, qpow in wick_operator_form(len(indices)):
        for w, v in ref_letters(opword.letters, by_position, u, q, level).items():
            out[w] = out.get(w, 0) + q**qpow * v
    return {w: v for w, v in out.items() if v}


def outcome(fn, *args):
    """The value, or the message of a truncation error."""
    try:
        return fn(*args)
    except TruncationOverflowError as exc:
        return ("overflow", str(exc))


def assert_same(got, want):
    if isinstance(got, FockVector):
        got = got.entries
    assert got == want
    if not isinstance(got, tuple):
        assert all(type(v) is Fraction for v in (got.values() if isinstance(got, dict) else [got]))


SIGNED_LETTERS = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 3)), max_size=4)
Q_VALUES = st.sampled_from(Q_GRID) | st.fractions(min_value=-2, max_value=2, max_denominator=6)
COORDINATE = st.integers(-2, 2) | st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def oracle_cases(draw):
    dim = draw(st.integers(1, 2))
    assignment = {
        i: tuple(draw(st.lists(COORDINATE, min_size=dim, max_size=dim))) for i in (1, 2, 3)
    }
    words = st.lists(st.integers(1, dim), max_size=2).map(tuple)
    u = draw(st.dictionaries(words, COORDINATE.filter(bool), min_size=1, max_size=3))
    level = draw(st.integers(2, 5))
    return FockParams(dim, level, draw(Q_VALUES)), assignment, u


def operator_form_sum(indices, assignment, u, p):
    """The Wick product of indices as the sum of its operator-form summands,
    each applied through apply and weighted by q to its power."""
    total = FockVector()
    for opword, qpow in wick_operator_form(len(indices)):
        letters = tuple((sign, indices[pos - 1]) for sign, pos in opword.letters)
        total = total + apply([OperatorWord(letters)], assignment, p, u).scaled(p.q**qpow)
    return total


@st.composite
def low_degree_cases(draw):
    """A Wick product of n variables on a vector whose top degree is below n,
    so that the summands with more annihilators than that degree vanish."""
    n = draw(st.integers(1, 4))
    indices = tuple(draw(st.permutations(range(1, 5)))[:n])
    coords = st.lists(COORDINATE, min_size=2, max_size=2).map(tuple)
    assignment = {i: draw(coords) for i in range(1, 5)}
    words = st.lists(st.integers(1, 2), max_size=n - 1).map(tuple)
    u = draw(st.dictionaries(words, COORDINATE.filter(bool), max_size=3))
    return indices, assignment, FockVector(u), FockParams(2, 8, draw(Q_VALUES))


class TestWickSkipsDeadSummands:
    @given(low_degree_cases())
    @settings(max_examples=100)
    def test_matches_the_full_operator_form(self, case):
        indices, assignment, u, p = case
        got = apply([VariableWord(indices, WICK)], assignment, p, u)
        assert got == operator_form_sum(indices, assignment, u, p)

    @pytest.mark.parametrize("n", range(11))
    def test_annihilator_counts_never_decrease(self, n):
        # _wick stops at the first summand with more annihilators than the
        # input's top degree, so a reordered form would drop later summands
        counts = [sum(sign < 0 for sign, _ in w.letters) for w, _ in wick_operator_form(n)]
        assert counts == sorted(counts)


class TestAgainstReference:
    @given(oracle_cases(), SIGNED_LETTERS)
    @settings(max_examples=150)
    def test_operator_words(self, case, letters):
        p, assignment, u = case
        word = OperatorWord(tuple(letters))
        got = outcome(apply, [word], assignment, p, FockVector(u))
        want = outcome(ref_letters, word.letters, assignment, u, p.q, p.level)
        assert_same(got, want)
        got = outcome(vacuum_expectation, [word], assignment, p)
        want = outcome(ref_letters, word.letters, assignment, {(): Fraction(1)}, p.q, p.level)
        assert_same(got, want if isinstance(want, tuple) else want.get((), Fraction(0)))

    @given(oracle_cases(), st.lists(st.integers(1, 3), max_size=4))
    @settings(max_examples=150)
    def test_field_words(self, case, indices):
        p, assignment, u = case
        letters = tuple((0, i) for i in indices)
        word, positions = field_word(indices, assignment)
        got = outcome(apply, [word], positions, p, FockVector(u))
        assert_same(got, outcome(ref_letters, letters, assignment, u, p.q, p.level))
        if indices:
            f = assignment[indices[0]]
            for one, sign in ((CREATE, 1), (ANNIHILATE, -1), (FIELD, 0)):
                got = outcome(apply, [one], {1: f}, p, FockVector(u))
                want = outcome(ref_letters, ((sign, indices[0]),), assignment, u, p.q, p.level)
                assert_same(got, want)

    @given(oracle_cases(), st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    @settings(max_examples=100)
    def test_wick_products(self, case, indices):
        p, assignment, u = case
        got = outcome(apply, [VariableWord(indices, WICK)], assignment, p, FockVector(u))
        assert_same(got, outcome(ref_wick, tuple(indices), assignment, u, p.q, p.level))

    # a+(e1) a+(e1) a(e1) a+(e2) a+(e1) on the vacuum at cutoff 2: the middle
    # annihilation leaves q (2,), so (1, 2) reaches the cutoff with coefficient
    # q, which only q = 0 cancels
    CANCELS_AT_ZERO = OperatorWord(((1, 1), (1, 1), (-1, 1), (1, 2), (1, 1)))

    @pytest.mark.parametrize("q", Q_GRID)
    def test_a_word_that_cancels_only_at_zero(self, q):
        p = FockParams(2, 2, q)
        assignment = {1: (1, 0), 2: (0, 1)}
        prefix = OperatorWord(self.CANCELS_AT_ZERO.letters[1:])
        got = apply([prefix], assignment, p)
        assert_same(got, ref_letters(prefix.letters, assignment, {(): Fraction(1)}, q, 2))
        assert got.is_zero() == (q == 0)
        word = self.CANCELS_AT_ZERO
        got = outcome(apply, [word], assignment, p)
        want = outcome(ref_letters, word.letters, assignment, {(): 1}, q, 2)
        assert_same(got, want)
        assert isinstance(got, tuple) == (q != 0)

    def test_one_formal_run_raises_where_some_q_would(self):
        # the cutoff counts at the q values a run is for, no others
        assignment = {1: (1, 0), 2: (0, 1)}
        p = FockParams(2, 2, 0)
        zero = Fraction(0)
        assert graded_apply((self.CANCELS_AT_ZERO,), assignment, p, (zero,)).at(zero).is_zero()
        with pytest.raises(TruncationOverflowError, match="degree-2 word exceeds the cutoff 2"):
            graded_apply((self.CANCELS_AT_ZERO,), assignment, p, Q_GRID)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_a_term_acts_only_where_its_coefficient_is_nonzero(self, q):
        # q x1 x2 at cutoff 1: the word overflows, but at q = 0 the term is
        # skipped, as evaluating it term by term at each q did
        e = Expansion.single(
            CovarianceMonomial.identity(), VariableWord((1, 2), NORMAL), QPolynomial({1: 1})
        )
        p = FockParams(1, 1, q)
        got = outcome(evaluate_expansion, e, {1: (1,), 2: (1,)}, p)
        if q == 0:
            assert_same(got, {})
        else:
            assert got == ("overflow", "creation on a degree-1 word exceeds the cutoff 1")

    def test_terms_that_cancel_on_one_word_give_zero(self):
        # c(1,2) x3 x5 - c(1,4) x3 x5 at cutoff 1: x3 x5 overflows, but the
        # covariances are equal, so the word's summed coefficient is zero
        word = VariableWord((3, 5), NORMAL)
        e = Expansion.single(CovarianceMonomial(((1, 2),)), word, QPolynomial.one())
        e = e - Expansion.single(CovarianceMonomial(((1, 4),)), word, QPolynomial.one())
        assignment = {1: (1, 0), 2: (1, 0), 4: (1, 0), 3: (1, 0), 5: (0, 1)}
        got = evaluate_expansion(e, assignment, FockParams(2, 1, Fraction(1, 3)))
        assert got == FockVector({})

    def test_words_that_cancel_under_one_prefix_give_zero(self):
        # x1 x2 - x1 x3 with x2 = x3 at cutoff 1: run one word at a time, x1
        # would overflow on x2's output, but the merged sum under x1 is zero
        e = Expansion({((), (1, 2), NORMAL): 1, ((), (1, 3), NORMAL): -1})
        assignment = {1: (1, 0), 2: (0, 1), 3: (0, 1)}
        got = fock.graded_expansion(e, assignment, FockParams(2, 1, 0), Q_GRID)
        assert got == Graded({})
        assert all(got.at(q).is_zero() for q in Q_GRID)

    @pytest.mark.parametrize("dim, degree", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 6)])
    def test_gram_polynomials_are_the_permutation_sum(self, dim, degree):
        words, ref = ref_gram(dim, degree)
        blocks = _gram(dim, degree)
        # the blocks partition the words, and words in different blocks are orthogonal
        assert sorted(w for block_words, _ in blocks for w in block_words) == words
        block_of = {w: b for b, (block_words, _) in enumerate(blocks) for w in block_words}
        assert all(not poly for (w1, w2), poly in ref.items() if block_of[w1] != block_of[w2])
        for block_words, entries in blocks:
            assert len(entries) == len(block_words)
            for w1, row in zip(block_words, entries):
                assert [dict(p) for p in row] == [ref[w1, w2] for w2 in block_words]


def word_degree(word) -> int:
    return len(word.letters) if isinstance(word, OperatorWord) else len(word)


@st.composite
def scalar_runs(draw):
    """Words for a graded_apply run over variables 1..4: fields, Wick blocks,
    signed operator words and Catalan sign patterns, on rational
    coordinates, for one q or the grid, at a cutoff from 1 to one above the
    total degree."""
    dim = draw(st.integers(1, 2))
    coords = st.lists(COORDINATE, min_size=dim, max_size=dim).map(tuple)
    assignment = {i: draw(coords) for i in range(1, 5)}
    variables = st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)
    patterns = [eps.entries for length in (2, 4) for eps in catalan_sequences(length)]
    word = st.one_of(
        variables.map(lambda ix: VariableWord(ix, NORMAL)),
        variables.map(lambda ix: VariableWord(ix, WICK)),
        SIGNED_LETTERS.map(lambda letters: OperatorWord(tuple(letters))),
        st.sampled_from(patterns).map(lambda eps: IDENTITIES["operator-moment"].left_words(eps)[0]),
    )
    words = tuple(draw(st.lists(word, min_size=1, max_size=3)))
    level = draw(st.integers(1, sum(map(word_degree, words)) + 1))
    qs = draw(st.sampled_from((Q_GRID, (Fraction(0),), (Fraction(1, 2),))))
    return words, assignment, FockParams(dim, level, qs[0]), qs


class TestScalarRunsSkipDeadWords:
    """A scalar run skips the words that can neither return to the vacuum nor
    meet a creation at the cutoff; its vacuum coefficient and its cutoff
    errors are those of the full run."""

    @given(scalar_runs())
    @settings(max_examples=300)
    def test_matches_the_full_run(self, run):
        words, assignment, p, qs = run
        got = outcome(graded_apply, words, assignment, p, qs, True)
        full = outcome(graded_apply, words, assignment, p, qs)
        assert got == (full if isinstance(full, tuple) else Graded(full.entries, scalar=True))

    @given(oracle_cases(), st.lists(st.integers(1, 3), max_size=6), SIGNED_LETTERS)
    @settings(max_examples=150)
    def test_vacuum_expectation_matches_the_full_run(self, case, indices, letters):
        # repeated variables too; the full run keeps the whole vector
        p, assignment, _ = case
        runs = (field_word(indices, assignment), (OperatorWord(tuple(letters)), assignment))
        for word, vectors in runs:
            want = outcome(apply, [word], vectors, p)
            want = want if isinstance(want, tuple) else want.coefficient(())
            assert_same(outcome(vacuum_expectation, [word], vectors, p), want)

    @given(scalar_runs())
    @settings(max_examples=200)
    def test_vacuum_expectation_is_the_vacuum_coefficient(self, run):
        # every word kind apply takes, Wick words included
        words, assignment, p, _ = run
        want = outcome(apply, words, assignment, p)
        want = want if isinstance(want, tuple) else want.coefficient(())
        assert_same(outcome(vacuum_expectation, words, assignment, p), want)

    @staticmethod
    def count_steps(monkeypatch) -> list:
        """(sign, input size) of each step that gets a nonzero vector."""
        steps, original = [], fock._step

        def counted(sign, coords, u, *rest):
            if u:
                steps.append((sign, len(u)))
            return original(sign, coords, u, *rest)

        monkeypatch.setattr(fock, "_step", counted)
        return steps

    def test_wick_summands_stop_annihilating_once_they_cannot_return(self, monkeypatch):
        # the right Wick word of blocks (4, 4) leaves degree 4 on the vacuum.  In
        # the left one's form, a summand's first annihilation leaves degree 3,
        # more than its other annihilators less its creators can lower unless
        # it has no creator: of the 32 annihilations of the 15 summands with
        # one, only those 15 and the 3 more of the all-annihilator summand run
        steps = self.count_steps(monkeypatch)
        words = IDENTITIES["product-expectation"].left_words((4, 4))
        assignment = {i: (1, i, -1) for i in range(1, 9)}
        p = FockParams(3, 9, 0)
        full = graded_apply(words, assignment, p, Q_GRID)
        full_sizes = [size for sign, size in steps if sign < 0]
        steps.clear()
        assert graded_apply(words, assignment, p, Q_GRID, scalar=True) == Graded(full.entries, True)
        sizes = [size for sign, size in steps if sign < 0]
        assert (len(full_sizes), len(sizes)) == (32, 18)
        assert sum(sizes) < 0.6 * sum(full_sizes)

    def test_vacuum_expectation_skips_dead_words(self, monkeypatch):
        # a field word's fields lower and raise the degree alike, so each step
        # keeps only the words its fields still to act can bring back
        steps = self.count_steps(monkeypatch)
        word, assignment = field_word((1, 2, 3, 2, 4, 1), {i: (1, i) for i in range(1, 5)})
        p = params("1/2", level=7)
        full = apply([word], assignment, p).coefficient(())
        full_work = sum(size for _, size in steps)
        steps.clear()
        assert vacuum_expectation([word], assignment, p) == full
        assert sum(size for _, size in steps) < full_work

def ref_inner(w1, w2):
    """<w1, w2> by its defining sum over the permutations that carry w2 onto
    w1, each weighted by q to its inversions, as {inversions: count}."""
    if len(w1) != len(w2):
        return {}
    n = len(w1)
    total = {}
    for perm in itertools.permutations(range(n)):
        if all(w2[perm[k]] == w1[k] for k in range(n)):
            inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
            total[inversions] = total.get(inversions, 0) + 1
    return total


@functools.cache
def ref_gram(dim, degree):
    """The degree-d words over 1..dim in order, and every ref_inner between them."""
    words = list(itertools.product(range(1, dim + 1), repeat=degree))
    return words, {(w1, w2): ref_inner(w1, w2) for w1 in words for w2 in words}


class TestIntegerInput:
    """The oracle's constructors reject a non-integer sign, index, dimension
    or cutoff, which int() alone would truncate, and name the bad value."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: OperatorWord(((1, 1), (-1.7, 2))),
                "operator sign must be an integer, got -1.7",
            ),
            (lambda: OperatorWord(((1, 1.5),)), "variable index must be an integer, got 1.5"),
            (lambda: FockParams(2.5, 3, 0), "one-particle dimension must be an integer, got 2.5"),
            (lambda: FockParams(2, 2.5, 0), "tensor degree cutoff must be an integer, got 2.5"),
        ],
    )
    def test_non_integer_is_a_domain_error_naming_it(self, build, message):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message

    def test_ints_and_bools_are_accepted(self):
        assert OperatorWord(((True, 2), (-1, True))).letters == ((1, 2), (-1, 1))
        assert FockParams(True, 2, 0).dim == 1
        assert FockParams(2, True, 0).level == 1

    def test_signs_are_still_checked(self):
        with pytest.raises(DomainError, match="operator signs must be"):
            OperatorWord(((2, 1),))


class TestIntegralCoordinates:
    """A one-particle vector keeps an integral coordinate as an int and any
    other as a Fraction, so the oracle builds no Fraction for integer vectors;
    the values, their text and the dot product are as before."""

    def test_sampled_vectors_are_pinned(self):
        samples = sample_assignments(4, 3, 0)
        assert [[a[i].coords for i in sorted(a)] for a in samples] == [
            [(3, 0, 3), (0, -3, -1), (1, 0, 0), (3, 3, -1)],
            [(0, -1, 1), (-2, 1, -2), (-1, -2, 3), (-3, 1, 3)],
            [(-1, 1, 2), (3, 1, -2), (-1, -3, 2), (-3, 3, 2)],
            [(-1, 0, 1), (-3, -1, 0), (-1, 1, 2), (-2, 1, 0)],
            [(0, 3, 1), (-1, -3, 3), (1, -3, -3), (2, 3, 0)],
        ]
        assert all(type(c) is int for a in samples for v in a.values() for c in v.coords)
        assert _vec_json(samples[0]) == {
            "1": ["3", "0", "3"],
            "2": ["0", "-3", "-1"],
            "3": ["1", "0", "0"],
            "4": ["3", "3", "-1"],
        }

    @pytest.mark.parametrize("seed", range(0, 50, 7))
    def test_sampled_vectors_are_randint_draws(self, seed):
        # each coordinate is the randint(-3, 3) the sampler once called
        for nvars, dim in itertools.product(range(13), range(-1, 6)):
            rng = random.Random(seed)
            want = [
                {i: tuple(rng.randint(-3, 3) for _ in range(dim)) for i in range(1, nvars + 1)}
                for _ in range(SAMPLES)
            ]
            got = sample_assignments(nvars, dim, seed)
            assert [{i: v.coords for i, v in a.items()} for a in got] == want

    def test_integral_coordinates_are_ints(self):
        coords = OneParticleVector((2, Fraction(4, 2), 2.0, True)).coords
        assert coords == (2, 2, 2, 1)
        assert all(type(c) is int for c in coords)

    def test_other_coordinates_stay_fractions(self):
        (c,) = OneParticleVector((Fraction(1, 2),)).coords
        assert type(c) is Fraction and c == Fraction(1, 2)
        assert OneParticleVector(("3/4",)).coords == (Fraction(3, 4),)

    def test_dot_is_a_fraction(self):
        value = OneParticleVector((1, 2)).dot(OneParticleVector((3, -1)))
        assert type(value) is Fraction and value == 1
        half = OneParticleVector((Fraction(1, 2), 0))
        assert type(OneParticleVector((1, 2)).dot(half)) is Fraction


class TestCoordinatesOncePerCall:
    """graded_apply and graded_expansion convert each variable's coordinates
    once per call, and only those of the variables they use."""

    def count_conversions(self, monkeypatch):
        calls = []
        original = fock.as_vector

        def counted(f, dim):
            calls.append(tuple(f))
            return original(f, dim)

        monkeypatch.setattr(fock, "as_vector", counted)
        return calls

    def test_each_used_variable_once(self, monkeypatch):
        calls = self.count_conversions(monkeypatch)
        assignment = {1: (1, 2), 2: (0, 3), 3: (5, 5)}
        words = (VariableWord((1, 2), "wick"), VariableWord((2, 1)), OperatorWord(((1, 1),)))
        graded_apply(words, assignment, params("1/2"), Q_GRID)
        assert sorted(calls) == [(0, 3), (1, 2)]

        calls.clear()
        e = expand("wick-to-normal", 2) + expand("moment", 2)
        fock.graded_expansion(e, {1: (1, 2), 2: (0, 3)}, params("1/2"), Q_GRID)
        assert sorted(calls) == [(0, 3), (1, 2)]

    def test_unused_variables_are_never_read(self):
        # an unused variable may be missing, or of the wrong dimension
        p = params("1/2")
        assignment = {1: (1, 2), 9: (1, 2, 3)}
        got = graded_apply((VariableWord((1,)),), assignment, p, Q_GRID)
        assert got == graded_apply((VariableWord((1,)),), {1: (1, 2)}, p, Q_GRID)

    @pytest.mark.parametrize(
        "word, missing",
        [
            (VariableWord((1, 8, 7), "wick"), 8),
            (VariableWord((8, 1, 7)), 7),
            (OperatorWord(((1, 7), (-1, 8))), 8),
        ],
    )
    def test_a_missing_variable_is_named(self, word, missing):
        # a Wick product names its first missing index; a field or operator
        # word the first one it applies, rightmost first
        with pytest.raises(KeyError, match=f"no vector assigned to variable {missing}"):
            graded_apply((word,), {1: (1, 2)}, params("1/2"), Q_GRID)


class TestLettersOutsideTheBasis:
    """A basis word of an input vector has letters in 1..dim; a letter
    outside, which would read another letter's coordinate or none, is a
    DomainError naming it."""

    P = FockParams(2, 3, Fraction(1, 3))

    @pytest.mark.parametrize(
        "apply",
        [
            lambda u, p: apply([CREATE], {1: (0, 1)}, p, u),
            lambda u, p: apply([ANNIHILATE], {1: (0, 1)}, p, u),
            lambda u, p: apply([FIELD], {1: (0, 1)}, p, u),
            lambda u, p: apply([OperatorWord(((-1, 1),))], {1: (1, 1)}, p, u),
            lambda u, p: apply([VariableWord((1,))], {1: (1, 1)}, p, u),
            lambda u, p: apply([VariableWord((1,), WICK)], {1: (1, 1)}, p, u),
        ],
    )
    @pytest.mark.parametrize("letter", [0, 3])
    def test_each_operator_rejects_it(self, apply, letter):
        # a letter below 1 is rejected by the vector itself, which cannot know dim
        where = "must be positive" if letter < 1 else "lies outside 1..2"
        for word in ((letter,), (1, letter, 2)):
            with pytest.raises(DomainError) as exc:
                apply(FockVector({(1,): 1, word: 1}), self.P)
            assert str(exc.value) == f"basis letter {letter} {where}"

    def test_letters_in_range_still_apply(self):
        u = FockVector({(2,): 3, (1, 2): 1})
        assert apply([ANNIHILATE], {1: (0, 1)}, self.P, u) == FockVector(
            {(): 3, (1,): Fraction(1, 3)}
        )

    def test_the_inner_product_still_numbers_letters_itself(self):
        # q_inner reads no coordinates, so any letters pair by equality
        assert q_inner(FockVector({(4, 3): 1}), FockVector({(3, 4): 2}), self.P) == Fraction(2, 3)
        u = FockVector({(4, 3): 1, (3, 3): 1})
        assert q_inner(u, FockVector({(3, 4): 2, (3, 3): 1}), self.P) == 2
