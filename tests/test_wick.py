"""Expansion-valued identities: moments, conversions, operator forms, products."""

import itertools

import pytest
from qwick import (
    NORMAL,
    WICK,
    CovarianceMonomial,
    DomainError,
    Expansion,
    GroundSet,
    QPolynomial,
    SignSequence,
    SizeLimitError,
    VariableWord,
    catalan_check,
    catalan_sequences,
    crossing_stats,
    diagram_term,
    enumerate_compatible,
    enumerate_complete,
    enumerate_diagrams,
    enumerate_nonlinking,
    free_moment_expansion,
    free_normal_to_wick,
    free_product_expansion,
    free_product_expectation,
    free_wick_to_normal,
    m_epsilon_expansion,
    moment_expansion,
    normal_to_wick,
    product_expansion,
    product_expectation,
    specialize_free,
    substitute_wick,
    wick_operator_form,
    wick_recursive,
    wick_substitution_rules,
    wick_to_normal,
    wick_to_normal_word,
)


def reference_sum(diagrams, kind, power, signed=False, keep=None, labels=None):
    """A diagram sum with every statistic recomputed by crossing_stats."""
    acc = {}
    for diagram in diagrams:
        stats = crossing_stats(diagram)
        if keep is not None and not keep(stats):
            continue
        key = diagram_term(diagram, kind, labels=labels)
        sign = -1 if signed and len(diagram.pairs) % 2 else 1
        acc[key] = acc.get(key, QPolynomial.zero()) + QPolynomial.q_power(power(stats), sign)
    return Expansion(acc)


CROSS_CHECK_BLOCKS = ((1, 1, 1, 1), (2, 1), (2, 2), (1, 2, 2), (2, 2, 2), (3, 3, 2), (2, 1, 2, 1))


def make(terms):
    acc = {}
    for cov, word, kind, poly in terms:
        key = (CovarianceMonomial(tuple(cov)), VariableWord(tuple(word), kind))
        cur = acc.get(key, QPolynomial.zero())
        acc[key] = cur + QPolynomial(poly)
    return Expansion(acc)


class TestSignedMoments:
    def test_minimal_pattern(self):
        got = m_epsilon_expansion(SignSequence((-1, 1)))
        assert got == make([(((1, 2),), (), NORMAL, {0: 1})])

    def test_two_pair_pattern(self):
        got = m_epsilon_expansion(SignSequence((-1, -1, 1, 1)))
        assert got == make(
            [
                (((1, 3), (2, 4)), (), NORMAL, {1: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_non_catalan_gives_zero(self):
        assert m_epsilon_expansion(SignSequence((1, -1))).is_zero()

    def test_kernel_property(self):
        for length in (2, 4, 6):
            for entries in itertools.product((-1, 1), repeat=length):
                eps = SignSequence(entries)
                ok, _ = catalan_check(eps)
                assert m_epsilon_expansion(eps).is_zero() == (not ok)


class TestMoments:
    def test_order_two(self):
        assert moment_expansion(2) == make([(((1, 2),), (), NORMAL, {0: 1})])

    def test_order_four(self):
        assert moment_expansion(4) == make(
            [
                (((1, 2), (3, 4)), (), NORMAL, {0: 1}),
                (((1, 3), (2, 4)), (), NORMAL, {1: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_odd_orders_vanish(self):
        assert moment_expansion(3).is_zero()
        assert moment_expansion(7).is_zero()

    def test_moments_are_scalar(self):
        for n in range(1, 7):
            assert moment_expansion(n).is_scalar()

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            moment_expansion(14)


class TestWickToNormal:
    def test_single_variable(self):
        assert wick_to_normal(1) == make([((), (1,), NORMAL, {0: 1})])

    def test_two_variables(self):
        assert wick_to_normal(2) == make(
            [
                ((), (1, 2), NORMAL, {0: 1}),
                (((1, 2),), (), NORMAL, {0: -1}),
            ]
        )

    def test_three_variables(self):
        assert wick_to_normal(3) == make(
            [
                ((), (1, 2, 3), NORMAL, {0: 1}),
                (((1, 2),), (3,), NORMAL, {0: -1}),
                (((2, 3),), (1,), NORMAL, {0: -1}),
                (((1, 3),), (2,), NORMAL, {1: -1}),
            ]
        )

    def test_recursion_agrees_with_diagram_formula(self):
        for n in range(1, 8):
            assert wick_recursive(n) == wick_to_normal(n)

    def test_word_variant_relabels(self):
        got = wick_to_normal_word((2, 5, 9))
        assert got == make(
            [
                ((), (2, 5, 9), NORMAL, {0: 1}),
                (((2, 5),), (9,), NORMAL, {0: -1}),
                (((5, 9),), (2,), NORMAL, {0: -1}),
                (((2, 9),), (5,), NORMAL, {1: -1}),
            ]
        )

    def test_word_variant_requires_increasing_indices(self):
        with pytest.raises(DomainError):
            wick_to_normal_word((3, 1))


class TestOperatorForm:
    def test_empty_product_is_identity(self):
        form = wick_operator_form(0)
        assert len(form.summands) == 1
        word, power = form.summands[0]
        assert word.letters == () and power == 0

    def test_single_variable(self):
        got = [(w.letters, p) for w, p in wick_operator_form(1).summands]
        assert got == [(((1, 1),), 0), (((-1, 1),), 0)]

    def test_two_variables(self):
        got = [(w.letters, p) for w, p in wick_operator_form(2).summands]
        assert got == [
            (((1, 1), (1, 2)), 0),
            (((1, 1), (-1, 2)), 0),
            (((1, 2), (-1, 1)), 1),
            (((-1, 1), (-1, 2)), 0),
        ]

    def test_summand_count_and_weight_sum(self):
        for n in range(0, 7):
            form = wick_operator_form(n)
            assert len(form.summands) == 2**n
            total = QPolynomial.zero()
            for _, power in form.summands:
                total = total + QPolynomial.q_power(power)
            assert total.evaluate(1) == 2**n

    def test_json_shape(self):
        blob = wick_operator_form(1).to_json()
        assert blob == [
            {"word": [[1, 1]], "qpow": 0},
            {"word": [[-1, 1]], "qpow": 0},
        ]


class TestNormalToWick:
    def test_single_variable(self):
        assert normal_to_wick(1) == make([((), (1,), WICK, {0: 1})])

    def test_two_variables(self):
        assert normal_to_wick(2) == make(
            [
                ((), (1, 2), WICK, {0: 1}),
                (((1, 2),), (), NORMAL, {0: 1}),
            ]
        )

    def test_three_variables(self):
        assert normal_to_wick(3) == make(
            [
                ((), (1, 2, 3), WICK, {0: 1}),
                (((1, 2),), (3,), WICK, {0: 1}),
                (((2, 3),), (1,), WICK, {0: 1}),
                (((1, 3),), (2,), WICK, {1: 1}),
            ]
        )

    def test_round_trip_to_bare_word(self):
        for n in range(1, 7):
            e = normal_to_wick(n)
            result = substitute_wick(e, wick_substitution_rules(e))
            expected = make([((), tuple(range(1, n + 1)), NORMAL, {0: 1})])
            assert result == expected


class TestProducts:
    def test_two_singleton_blocks_reduce_to_covariance(self):
        assert product_expectation((1, 1)) == make([(((1, 2),), (), NORMAL, {0: 1})])

    def test_two_by_two_expectation(self):
        assert product_expectation((2, 2)) == make(
            [
                (((1, 3), (2, 4)), (), NORMAL, {1: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_singleton_blocks_recover_moments(self):
        for n in range(1, 7):
            assert product_expectation((1,) * n) == moment_expansion(n)

    def test_odd_total_expectation_vanishes(self):
        assert product_expectation((2, 3)).is_zero()

    def test_single_block_expansion_is_one_wick_term(self):
        assert product_expansion((4,)) == make([((), (1, 2, 3, 4), WICK, {0: 1})])

    def test_two_one_block_expansion(self):
        assert product_expansion((2, 1)) == make(
            [
                ((), (1, 2, 3), WICK, {0: 1}),
                (((2, 3),), (1,), WICK, {0: 1}),
                (((1, 3),), (2,), WICK, {1: 1}),
            ]
        )

    def test_singleton_blocks_recover_wick_expansion(self):
        for n in range(1, 6):
            assert product_expansion((1,) * n) == normal_to_wick(n)

    def test_blocks_must_be_positive(self):
        with pytest.raises(DomainError):
            product_expansion((2, 0))
        with pytest.raises(DomainError):
            product_expectation(())

    def test_expansion_rewrites_to_the_distributed_product(self):
        # independent route: rewrite every Wick term back into plain products
        # and compare against distributing the blocks' own normal forms,
        # e.g. (x1 x2 - c12)(x3 x4 - c34) for blocks (2, 2)
        e = product_expansion((2, 2))
        got = substitute_wick(e, wick_substitution_rules(e))
        assert got == make(
            [
                ((), (1, 2, 3, 4), NORMAL, {0: 1}),
                (((3, 4),), (1, 2), NORMAL, {0: -1}),
                (((1, 2),), (3, 4), NORMAL, {0: -1}),
                (((1, 2), (3, 4)), (), NORMAL, {0: 1}),
            ]
        )
        e = product_expansion((1, 2, 2))
        got = substitute_wick(e, wick_substitution_rules(e))
        assert got == make(
            [
                ((), (1, 2, 3, 4, 5), NORMAL, {0: 1}),
                (((4, 5),), (1, 2, 3), NORMAL, {0: -1}),
                (((2, 3),), (1, 4, 5), NORMAL, {0: -1}),
                (((2, 3), (4, 5)), (1,), NORMAL, {0: 1}),
            ]
        )


class TestFreeFormulas:
    def test_free_wick_product_of_three(self):
        assert free_wick_to_normal(3) == make(
            [
                ((), (1, 2, 3), NORMAL, {0: 1}),
                (((1, 2),), (3,), NORMAL, {0: -1}),
                (((2, 3),), (1,), NORMAL, {0: -1}),
            ]
        )

    def test_free_moment_of_four(self):
        assert free_moment_expansion(4) == make(
            [
                (((1, 2), (3, 4)), (), NORMAL, {0: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_free_normal_to_wick_of_two(self):
        assert free_normal_to_wick(2) == make(
            [
                ((), (1, 2), WICK, {0: 1}),
                (((1, 2),), (), NORMAL, {0: 1}),
            ]
        )

    def test_filter_matches_constant_part(self):
        for n in range(1, 7):
            assert free_moment_expansion(n) == specialize_free(moment_expansion(n))
            assert free_wick_to_normal(n) == specialize_free(wick_to_normal(n))
            assert free_normal_to_wick(n) == specialize_free(normal_to_wick(n))
        for blocks in ((2, 1), (2, 2), (1, 2, 2), (2, 2, 2)):
            assert free_product_expectation(blocks) == specialize_free(
                product_expectation(blocks)
            )
            assert free_product_expansion(blocks) == specialize_free(
                product_expansion(blocks)
            )

    def test_ground_set_block_labels(self):
        ground = GroundSet(5, (2, 3))
        assert ground.lex_labels() == ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))
        assert [ground.block_of(p) for p in ground.positions()] == [1, 1, 2, 2, 2]


class TestAgainstCrossingStats:
    """Each builder equals the same sum with statistics from crossing_stats."""

    def test_general_builders(self):
        for n in range(0, 9):
            ground = GroundSet(n)
            assert moment_expansion(n) == reference_sum(
                enumerate_complete(ground), NORMAL, lambda s: s.c
            )
            assert wick_to_normal(n) == reference_sum(
                enumerate_diagrams(ground), NORMAL, lambda s: s.a, signed=True
            )
            assert normal_to_wick(n) == reference_sum(
                enumerate_diagrams(ground), WICK, lambda s: s.tc
            )

    def test_relabelled_wick_product(self):
        indices = (2, 3, 7, 11, 12)
        expected = reference_sum(
            enumerate_diagrams(GroundSet(5)), NORMAL, lambda s: s.a, signed=True, labels=indices
        )
        assert wick_to_normal_word(indices) == expected

    def test_signed_moments(self):
        for length in range(0, 9, 2):
            for eps in catalan_sequences(length):
                expected = reference_sum(enumerate_compatible(eps), NORMAL, lambda s: s.c)
                assert m_epsilon_expansion(eps) == expected

    def test_product_builders(self):
        for blocks in CROSS_CHECK_BLOCKS:
            ground = GroundSet(sum(blocks), blocks)
            assert product_expectation(blocks) == reference_sum(
                enumerate_nonlinking(ground, complete_only=True), NORMAL, lambda s: s.c
            )
            assert product_expansion(blocks) == reference_sum(
                enumerate_nonlinking(ground), WICK, lambda s: s.tc
            )

    def test_free_builders_are_class_filters(self):
        def zero(s):
            return 0

        for n in range(0, 9):
            ground = GroundSet(n)
            assert free_moment_expansion(n) == reference_sum(
                enumerate_complete(ground), NORMAL, zero, keep=lambda s: s.c == 0
            )
            assert free_wick_to_normal(n) == reference_sum(
                enumerate_diagrams(ground), NORMAL, zero, signed=True, keep=lambda s: s.g == 0
            )
            assert free_normal_to_wick(n) == reference_sum(
                enumerate_diagrams(ground), WICK, zero, keep=lambda s: s.tc == 0
            )
        for blocks in CROSS_CHECK_BLOCKS:
            ground = GroundSet(sum(blocks), blocks)
            assert free_product_expectation(blocks) == reference_sum(
                enumerate_nonlinking(ground, complete_only=True),
                NORMAL,
                zero,
                keep=lambda s: s.c == 0,
            )
            assert free_product_expansion(blocks) == reference_sum(
                enumerate_nonlinking(ground), WICK, zero, keep=lambda s: s.tc == 0
            )
