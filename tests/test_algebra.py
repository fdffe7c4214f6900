"""Exact polynomial arithmetic and canonical-expansion behaviour."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwick import (
    NORMAL,
    WICK,
    CovarianceMonomial,
    DomainError,
    Expansion,
    FeynmanDiagram,
    GroundSet,
    QPolynomial,
    VariableWord,
    crossing_stats,
    diagram_term,
    enumerate_complete,
    specialize_free,
    substitute_wick,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
qpolys = st.dictionaries(
    st.integers(min_value=0, max_value=6), rationals, max_size=5
).map(QPolynomial)

cov_monomials = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda t: t[0] != t[1]),
    max_size=2,
).map(lambda factors: CovarianceMonomial(tuple(factors)))

variable_words = st.tuples(
    st.sets(st.integers(1, 6), max_size=3).map(lambda s: tuple(sorted(s))),
    st.sampled_from((NORMAL, WICK)),
).map(lambda t: VariableWord(*t))

expansions = st.dictionaries(
    st.tuples(cov_monomials, variable_words), qpolys, max_size=4
).map(Expansion)


def make(terms):
    """terms: iterable of (cov pairs, word, kind, {exp: coeff})."""
    acc = {}
    for cov, word, kind, poly in terms:
        key = (CovarianceMonomial(tuple(cov)), VariableWord(tuple(word), kind))
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

    def test_multiset_multiplication(self):
        a = CovarianceMonomial(((1, 2),))
        b = CovarianceMonomial(((1, 2), (3, 4)))
        assert (a * b).factors == ((1, 2), (1, 2), (3, 4))

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
        cov, word = diagram_term(FeynmanDiagram(GroundSet(2), ((1, 2),)))
        assert cov.factors == ((1, 2),)
        assert word.indices == ()

    def test_pair_with_singleton(self):
        cov, word = diagram_term(FeynmanDiagram(GroundSet(3), ((1, 3),)))
        assert cov.factors == ((1, 3),)
        assert word.indices == (2,)

    def test_large_example_singleton_word(self):
        d = FeynmanDiagram(GroundSet(10), ((1, 3), (2, 6), (4, 9), (8, 10)))
        cov, word = diagram_term(d)
        assert len(cov.factors) == 4
        assert word.indices == (5, 7)

    def test_relabelling(self):
        d = FeynmanDiagram(GroundSet(3), ((1, 3),))
        cov, word = diagram_term(d, WICK, labels=(2, 5, 9))
        assert cov.factors == ((2, 9),)
        assert word.indices == (5,)
        assert word.kind == WICK


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
        from qwick import moment_expansion

        assert total == moment_expansion(4)

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


class TestSubstituteWick:
    def test_two_variable_round_trip(self):
        e = make(
            [
                ((), (1, 2), WICK, {0: 1}),
                (((1, 2),), (), NORMAL, {0: 1}),
            ]
        )
        rule = {
            VariableWord((1, 2), WICK): make(
                [
                    ((), (1, 2), NORMAL, {0: 1}),
                    (((1, 2),), (), NORMAL, {0: -1}),
                ]
            )
        }
        assert substitute_wick(e, rule) == make([((), (1, 2), NORMAL, {0: 1})])

    def test_expansion_without_wick_terms_is_unchanged(self):
        e = make([((), (1, 2), NORMAL, {0: 1}), (((1, 2),), (), NORMAL, {1: -1})])
        assert substitute_wick(e, {}) == e

    def test_three_variable_round_trip(self):
        from qwick import normal_to_wick, wick_substitution_rules

        e = normal_to_wick(3)
        result = substitute_wick(e, wick_substitution_rules(e))
        assert result == make([((), (1, 2, 3), NORMAL, {0: 1})])

    def test_missing_rule_names_the_word(self):
        e = make([((), (1, 2), WICK, {0: 1})])
        with pytest.raises(KeyError, match=r"\(1, 2\)"):
            substitute_wick(e, {})

    def test_rules_must_be_normal(self):
        e = make([((), (1,), WICK, {0: 1})])
        rule = {VariableWord((1,), WICK): make([((), (1,), WICK, {0: 1})])}
        with pytest.raises(DomainError):
            substitute_wick(e, rule)
