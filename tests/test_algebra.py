"""Exact polynomial arithmetic and canonical-expansion behaviour."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwick import (
    IDENTITIES,
    NORMAL,
    WICK,
    CovarianceMonomial,
    DomainError,
    Expansion,
    FeynmanDiagram,
    GroundSet,
    QPolynomial,
    VariableWord,
    enumerate_complete,
    expand,
    normal_form,
    specialize_free,
)
from reference import crossing_stats, diagram_term, row_args

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
qpolys = st.dictionaries(
    st.integers(min_value=0, max_value=6), rationals, max_size=5
).map(QPolynomial)

cov_factors = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda t: t[0] != t[1]),
    max_size=2,
).map(tuple)

word_indices = st.sets(st.integers(1, 6), max_size=3).map(lambda s: tuple(sorted(s)))

expansions = st.dictionaries(
    st.tuples(cov_factors, word_indices, st.sampled_from((NORMAL, WICK))), qpolys, max_size=4
).map(Expansion)


def make(terms):
    """terms: iterable of (cov pairs, word, kind, {exp: coeff})."""
    acc = {}
    for cov, word, kind, poly in terms:
        key = (tuple(cov), tuple(word), kind)
        cur = acc.get(key, QPolynomial.zero())
        acc[key] = cur + QPolynomial(poly)
    return Expansion(acc)


class TestQPolynomial:
    def test_zero_stays_canonical(self):
        assert QPolynomial({3: 0, 1: Fraction(0)}).is_zero()
        assert QPolynomial() == QPolynomial.zero()

    def test_eval_examples(self):
        assert QPolynomial.q_power(1).evaluate(Fraction(1, 2)) == Fraction(1, 2)
        assert QPolynomial({0: 1, 1: 1}).evaluate(0) == 1
        assert QPolynomial({0: 2, 2: 3}).evaluate(Fraction(-1, 3)) == Fraction(7, 3)

    def test_eval_of_crossing_generating_polynomial(self):
        poly = QPolynomial.zero()
        for d in enumerate_complete(GroundSet(6)):
            poly = poly + QPolynomial.q_power(crossing_stats(d).c)
        assert poly.evaluate(1) == 15  # 5!! by direct product: 1*3*5
        assert poly.evaluate(0) == 5  # noncrossing pairings of six points

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            QPolynomial({-1: 1})

    @given(qpolys, qpolys, qpolys)
    @settings(max_examples=100)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c

    @given(qpolys, qpolys, rationals)
    @settings(max_examples=100)
    def test_eval_is_a_ring_homomorphism(self, a, b, q0):
        assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
        assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)

    @given(qpolys)
    def test_canonicalization_is_idempotent(self, p):
        assert QPolynomial(p.coeffs) == p

    def test_json_sums_records_of_one_exponent(self):
        # as Expansion.from_json sums records of one term
        records = [{"exp": 1, "num": 1, "den": 1}, {"exp": 1, "num": 2, "den": 1}]
        assert QPolynomial.from_json(records) == QPolynomial({1: 3})
        term = {"cov": [], "word": [1], "kind": NORMAL}
        e = Expansion.from_json([dict(term, poly=[record]) for record in records])
        assert e.terms[(), (1,), NORMAL] == QPolynomial.from_json(records)
        records.append({"exp": 1, "num": -3, "den": 1})
        assert QPolynomial.from_json(records) == QPolynomial.zero()

    def test_json_round_trip(self):
        p = QPolynomial({0: Fraction(1, 2), 3: -2})
        assert QPolynomial.from_json(p.to_json()) == p
        assert p.to_json() == [
            {"exp": 0, "num": 1, "den": 2},
            {"exp": 3, "num": -2, "den": 1},
        ]

    def test_pretty(self):
        assert QPolynomial().pretty() == "0"
        assert QPolynomial({0: 1, 2: 1}).pretty() == "1 + q^2"
        assert QPolynomial({0: 1, 1: -1}).pretty() == "1 - q"
        assert QPolynomial({1: Fraction(1, 2)}).pretty() == "1/2 q"


class TestCovarianceMonomial:
    def test_factors_are_normalized(self):
        m = CovarianceMonomial(((4, 1), (2, 3)))
        assert m.factors == ((1, 4), (2, 3))

    def test_repeated_factors_stay_a_multiset(self):
        m = CovarianceMonomial(((3, 4), (1, 2), (2, 1)))
        assert m.factors == ((1, 2), (1, 2), (3, 4))

    def test_equal_indices_rejected(self):
        with pytest.raises(DomainError):
            CovarianceMonomial(((2, 2),))


class TestVariableWord:
    def test_empty_word_is_always_normal(self):
        assert VariableWord((), WICK).kind == NORMAL
        assert VariableWord((), WICK) == VariableWord((), NORMAL)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(DomainError):
            VariableWord((1, 1), NORMAL)

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            VariableWord((1,), "other")


class TestDiagramTerm:
    def test_complete_pair(self):
        assert diagram_term(FeynmanDiagram(GroundSet(2), ((1, 2),))) == (((1, 2),), (), NORMAL)

    def test_pair_with_singleton(self):
        factors, indices, kind = diagram_term(FeynmanDiagram(GroundSet(3), ((1, 3),)))
        assert factors == ((1, 3),)
        assert indices == (2,)

    def test_large_example_singleton_word(self):
        d = FeynmanDiagram(GroundSet(10), ((1, 3), (2, 6), (4, 9), (8, 10)))
        factors, indices, kind = diagram_term(d)
        assert len(factors) == 4
        assert indices == (5, 7)

    def test_relabelling(self):
        d = FeynmanDiagram(GroundSet(3), ((1, 3),))
        assert diagram_term(d, WICK, labels=(2, 5, 9)) == (((2, 9),), (5,), WICK)


class TestExpansion:
    def test_zero_terms_are_dropped(self):
        e = make([(((1, 2),), (), NORMAL, {0: 0})])
        assert e.is_zero()

    def test_combine_with_zero_scalar(self):
        a = make([((), (1, 2), NORMAL, {0: 1})])
        b = make([(((1, 2),), (), NORMAL, {1: 3})])
        assert a + b.scaled(QPolynomial.zero()) == a

    def test_self_cancellation(self):
        t = make([(((1, 3),), (2,), NORMAL, {1: 1})])
        assert (t - t).is_zero()

    def test_combine_reassembles_moment_of_four(self):
        terms = [
            make([(((1, 2), (3, 4)), (), NORMAL, {0: 1})]),
            make([(((1, 3), (2, 4)), (), NORMAL, {1: 1})]),
            make([(((1, 4), (2, 3)), (), NORMAL, {0: 1})]),
        ]
        total = Expansion.zero()
        for t in terms:
            total = total + t.scaled(QPolynomial.one())

        assert total == expand("moment", 4)

    def test_scalar_detection(self):
        assert Expansion.scalar(Fraction(3, 2)).is_scalar()
        assert not make([((), (1,), NORMAL, {0: 1})]).is_scalar()

    @given(expansions)
    def test_canonicalization_is_idempotent(self, e):
        assert Expansion(e.terms) == e

    @given(expansions)
    @settings(max_examples=100)
    def test_specialize_free_is_evaluation_at_zero(self, e):
        expected = Expansion(
            {key: QPolynomial.constant(poly.evaluate(0)) for key, poly in e.terms.items()}
        )
        assert specialize_free(e) == expected

    def test_specialize_free_drops_pure_q_terms(self):
        e = make([(((1, 3),), (2,), NORMAL, {1: 1})])
        assert specialize_free(e).is_zero()

    def test_json_round_trip_and_stability(self):
        e = make(
            [
                ((), (1, 2), NORMAL, {0: 1}),
                (((1, 2),), (), NORMAL, {0: -1, 2: Fraction(1, 3)}),
                (((1, 3),), (2,), WICK, {1: 1}),
            ]
        )
        blob = json.dumps(e.to_json())
        assert Expansion.from_json(e.to_json()) == e
        assert json.dumps(e.to_json()) == blob

    def test_pretty_zero(self):
        assert Expansion.zero().pretty() == "0"


class TestNormalForm:
    def test_two_variable_round_trip(self):
        e = make(
            [
                ((), (1, 2), WICK, {0: 1}),
                (((1, 2),), (), NORMAL, {0: 1}),
            ]
        )
        assert normal_form(e) == make([((), (1, 2), NORMAL, {0: 1})])

    def test_expansion_without_wick_terms_is_unchanged(self):
        e = make([((), (1, 2), NORMAL, {0: 1}), (((1, 2),), (), NORMAL, {1: -1})])
        assert normal_form(e) == e

    def test_three_variable_round_trip(self):

        e = expand("normal-to-wick", 3)
        assert normal_form(e) == make([((), (1, 2, 3), NORMAL, {0: 1})])


class TestBoundaryValidation:
    """The public constructors reject a non-integer index or exponent, which
    int() alone would truncate, and name the bad value."""

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: QPolynomial({1.5: 1}), "1.5"),
            (lambda: CovarianceMonomial(((1.7, 2),)), "1.7"),
            (lambda: CovarianceMonomial(((1, Fraction(5, 2)),)), "Fraction(5, 2)"),
            (lambda: VariableWord((1.9, 1)), "1.9"),
            (lambda: VariableWord(("2",)), "'2'"),
            (lambda: QPolynomial.from_json([{"exp": 0, "num": 1, "den": 0}]), "'den': 0"),
            (lambda: QPolynomial({2.0: 1}), "2.0"),
            (lambda: QPolynomial.from_json([{"exp": [1], "num": 1, "den": 1}]), "[1]"),
        ],
    )
    def test_non_integer_is_a_domain_error_naming_it(self, build, bad):
        with pytest.raises(DomainError) as exc:
            build()
        assert bad in str(exc.value)

    def test_ints_and_bools_are_accepted(self):
        assert QPolynomial({True: 2, 2: True}).coeffs == {1: 2, 2: 1}
        assert CovarianceMonomial(((3, True),)).factors == ((1, 3),)
        assert VariableWord((False, 2)).indices == (0, 2)
        assert QPolynomial.from_json([{"exp": 1, "num": -3, "den": 6}]).coeffs == {
            1: Fraction(-1, 2)
        }

    @pytest.mark.parametrize(
        "key, bad",
        [
            ((((1.5, 2),), (), NORMAL), "1.5"),
            ((((1, 2), (3, Fraction(7, 2))), (4,), WICK), "Fraction(7, 2)"),
            (((), (1, 2.5), WICK), "2.5"),
            (((), ("3",), NORMAL), "'3'"),
            ((((3, 3),), (1,), NORMAL), "(3,3)"),
            (((), (4, 2, 4), NORMAL), "(4, 2, 4)"),
            (((), (1,), "ordered"), "'ordered'"),
            ((((1, 2),), (), "other"), "'other'"),
        ],
    )
    def test_tuple_keys_are_validated(self, key, bad):
        with pytest.raises(DomainError) as exc:
            Expansion({key: 1})
        assert bad in str(exc.value)

    def test_keys_equal_once_canonical_merge(self):
        e = Expansion({(((2, 1),), (3,), WICK): 1, (((1, 2),), (3,), WICK): QPolynomial({1: 2})})
        assert e.terms == {(((1, 2),), (3,), WICK): QPolynomial({0: 1, 1: 2})}
        e = Expansion(
            {
                (((4, 3), (2, 1)), (), NORMAL): 1,
                (((1, 2), (3, 4)), (), WICK): -1,
                ((), (5,), NORMAL): 1,
            }
        )
        assert e.terms == {((), (5,), NORMAL): QPolynomial.one()}

    def test_an_empty_wick_word_is_stored_as_normal(self):
        e = Expansion({(((1, 2),), (), WICK): 3})
        assert list(e.terms) == [(((1, 2),), (), NORMAL)]
        assert e == Expansion({(((1, 2),), (), NORMAL): 3})

    def test_integer_coefficients_are_stored_as_ints(self):
        p = QPolynomial({0: Fraction(4, 2), 1: Fraction(1, 2), 2: 3})
        assert [type(v) for _, v in sorted(p.coeffs.items())] == [int, Fraction, int]


def as_fractions(poly):
    return {e: Fraction(v) for e, v in poly.coeffs.items()}


def reference_add(*polys):
    out = {}
    for poly in polys:
        for e, v in as_fractions(poly).items():
            out[e] = out.get(e, Fraction(0)) + v
    return QPolynomial(out)


def reference_mul(a, b):
    """a times a polynomial or a rational b, through Fractions only."""
    b = as_fractions(b) if isinstance(b, QPolynomial) else {0: Fraction(b)}
    out = {}
    for e1, v1 in as_fractions(a).items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
    return QPolynomial(out)


def reference_expansion(items):
    """The validating Expansion of (key, poly) items, summed with Fractions."""
    acc = {}
    for key, poly in items:
        acc[key] = reference_add(acc[key], poly) if key in acc else reference_add(poly)
    return Expansion(acc)


def exact_coefficients(poly):
    """No zero coefficient is stored, and each is an int or a Fraction that
    is not an integer."""
    return all(
        v and (type(v) is int or (type(v) is Fraction and v.denominator != 1))
        for v in poly.coeffs.values()
    )


def is_clean(value):
    if isinstance(value, QPolynomial):
        return exact_coefficients(value)
    return all(poly.coeffs and exact_coefficients(poly) for poly in value.terms.values())


def assert_matches(result, reference):
    assert result == reference
    assert is_clean(result)
    assert json.dumps(result.to_json()) == json.dumps(reference.to_json())
    assert result.pretty() == reference.pretty()
    assert repr(result) == repr(reference)


scalars = st.one_of(st.integers(-3, 3), rationals)
# few indices, so that merged terms often collide and cancel
small_covs = st.lists(st.sampled_from(((1, 2), (1, 3), (2, 3))), max_size=2).map(tuple)
small_words = st.sets(st.integers(1, 3), max_size=2).map(lambda s: tuple(sorted(s)))
small_polys = st.dictionaries(st.integers(0, 2), rationals, max_size=2).map(QPolynomial)


either_kind = st.sampled_from((NORMAL, WICK))


def small_expansions(kinds):
    keys = st.tuples(small_covs, small_words, kinds)
    return st.dictionaries(keys, small_polys, max_size=4).map(Expansion)


class TestTrustedArithmetic:
    """Results built through the trusted constructors against the same
    operation through the validating constructors with Fraction-only
    coefficients."""

    @given(small_polys, small_polys)
    @settings(max_examples=200)
    def test_polynomial_add_sub_neg(self, a, b):
        assert_matches(a + b, reference_add(a, b))
        assert_matches(a - b, reference_add(a, reference_mul(b, -1)))
        assert_matches(-a, reference_mul(a, Fraction(-1)))

    @given(small_polys, st.one_of(small_polys, scalars))
    @settings(max_examples=200)
    def test_polynomial_mul(self, a, b):
        assert_matches(a * b, reference_mul(a, b))
        assert_matches(b * a, reference_mul(a, b))

    @given(small_expansions(either_kind), small_expansions(either_kind))
    @settings(max_examples=100)
    def test_expansion_add_sub(self, a, b):
        assert_matches(a + b, reference_expansion([*a.terms.items(), *b.terms.items()]))
        negated = [(key, reference_mul(p, -1)) for key, p in b.terms.items()]
        assert_matches(a - b, reference_expansion([*a.terms.items(), *negated]))

    @given(small_expansions(either_kind), st.one_of(small_polys, scalars))
    @settings(max_examples=100)
    def test_scaled(self, e, factor):
        reference = Expansion({key: reference_mul(p, factor) for key, p in e.terms.items()})
        assert_matches(e.scaled(factor), reference)

    @given(small_expansions(either_kind))
    @settings(max_examples=100)
    def test_specialize_free(self, e):
        reference = Expansion(
            {key: QPolynomial({0: Fraction(p.constant_term())}) for key, p in e.terms.items()}
        )
        assert_matches(specialize_free(e), reference)


def assert_plain_keys(e):
    """Every key is a canonical (factors, indices, kind) tuple built of
    tuples, ints and a str, never an instance of a key class."""
    for key in e.terms:
        assert type(key) is tuple and len(key) == 3
        factors, indices, kind = key
        assert type(factors) is tuple and all(type(f) is tuple for f in factors)
        assert all(type(i) is int for f in factors for i in f)
        assert type(indices) is tuple and all(type(i) is int for i in indices)
        assert type(kind) is str
        word = VariableWord(indices, kind)
        assert key == (CovarianceMonomial(factors).factors, word.indices, word.kind)


class TestKeysArePlainTuples:
    """No operation brings back key objects: every result is keyed by the
    same plain tuples that the diagram walker yields."""

    @given(
        small_expansions(either_kind),
        small_expansions(either_kind),
        st.one_of(small_polys, scalars),
    )
    @settings(max_examples=100)
    def test_arithmetic_and_json(self, a, b, factor):
        for result in (
            a + b,
            a - b,
            a.scaled(factor),
            specialize_free(a),
            Expansion.from_json(a.to_json()),
        ):
            assert_plain_keys(result)

    @given(small_expansions(either_kind))
    @settings(max_examples=100)
    def test_normal_form(self, e):
        assert_plain_keys(normal_form(e))

    @given(
        st.sampled_from(sorted(IDENTITIES)),
        st.integers(0, 6),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=50)
    def test_expand_and_recursion(self, name, n, blocks, free):
        for arg in row_args(name, (n,), (blocks,)):
            assert_plain_keys(expand(name, arg, free))
        assert_plain_keys(normal_form(Expansion({((), tuple(range(1, n + 1)), WICK): 1})))

    def test_bools_become_ints(self):
        e = Expansion({(((3, True),), (False, 2), WICK): 1})
        assert list(e.terms) == [(((1, 3),), (0, 2), WICK)]
        assert_plain_keys(e)
