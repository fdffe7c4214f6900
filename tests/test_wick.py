"""Expansion-valued identities: moments, conversions, operator forms, products."""

import dataclasses
import functools
import itertools
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
    FockParams,
    GroundSet,
    QPolynomial,
    SignSequence,
    SizeLimitError,
    VariableWord,
    catalan_check,
    catalan_sequences,
    enumerate_compatible,
    enumerate_complete,
    enumerate_diagrams,
    enumerate_nonlinking,
    expand,
    gram_check,
    normal_form,
    specialize_free,
    wick_operator_form,
)
from qwick.algebra import accumulate_term
from qwick.verify import CHECKS, _check_row, _peel_row, run_check
from qwick.wick import _diagram_sum, terms
from reference import block_of, crossing_stats, diagram_term, row_args, wick_to_normal_word


def peel_wick_word(n):
    """The Wick product of 1..n by the peeling recursion alone: normal_form
    of the single Wick word 1..n."""
    return normal_form(Expansion({((), tuple(range(1, n + 1)), WICK): 1}))


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

# the q = 0 form of each identity, stated apart from the table: whether it
# runs over complete diagrams only, its word kind, its sign rule and the
# class of diagrams it keeps
FREE_CLASSES = {
    "moment": (True, NORMAL, False, lambda s: s.c == 0),
    "wick-to-normal": (False, NORMAL, True, lambda s: s.g == 0),
    "normal-to-wick": (False, WICK, False, lambda s: s.tc == 0),
    "product-expectation": (True, NORMAL, False, lambda s: s.c == 0),
    "product-expansion": (False, WICK, False, lambda s: s.tc == 0),
    "operator-moment": (True, NORMAL, False, lambda s: s.c == 0),
}


def make(terms):
    acc = {}
    for cov, word, kind, poly in terms:
        key = (tuple(cov), tuple(word), kind)
        cur = acc.get(key, QPolynomial.zero())
        acc[key] = cur + QPolynomial(poly)
    return Expansion(acc)


class TestSignedMoments:
    def test_minimal_pattern(self):
        got = expand("operator-moment", SignSequence((-1, 1)))
        assert got == make([(((1, 2),), (), NORMAL, {0: 1})])

    def test_two_pair_pattern(self):
        got = expand("operator-moment", SignSequence((-1, -1, 1, 1)))
        assert got == make(
            [
                (((1, 3), (2, 4)), (), NORMAL, {1: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_non_catalan_gives_zero(self):
        assert expand("operator-moment", SignSequence((1, -1))).is_zero()
        assert expand("operator-moment", (-1, 1, 1)).is_zero()  # odd: no complete diagram

    def test_kernel_property(self):
        for length in (2, 4, 6):
            for entries in itertools.product((-1, 1), repeat=length):
                eps = SignSequence(entries)
                ok, _ = catalan_check(eps)
                assert expand("operator-moment", eps).is_zero() == (not ok)


class TestMoments:
    def test_order_two(self):
        assert expand("moment", 2) == make([(((1, 2),), (), NORMAL, {0: 1})])

    def test_order_four(self):
        assert expand("moment", 4) == make(
            [
                (((1, 2), (3, 4)), (), NORMAL, {0: 1}),
                (((1, 3), (2, 4)), (), NORMAL, {1: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_odd_orders_vanish(self):
        assert expand("moment", 3).is_zero()
        assert expand("moment", 7).is_zero()

    def test_moments_are_scalar(self):
        for n in range(1, 7):
            assert expand("moment", n).is_scalar()

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            expand("moment", 14)


class TestWickToNormal:
    def test_single_variable(self):
        assert expand("wick-to-normal", 1) == make([((), (1,), NORMAL, {0: 1})])

    def test_two_variables(self):
        assert expand("wick-to-normal", 2) == make(
            [
                ((), (1, 2), NORMAL, {0: 1}),
                (((1, 2),), (), NORMAL, {0: -1}),
            ]
        )

    def test_three_variables(self):
        assert expand("wick-to-normal", 3) == make(
            [
                ((), (1, 2, 3), NORMAL, {0: 1}),
                (((1, 2),), (3,), NORMAL, {0: -1}),
                (((2, 3),), (1,), NORMAL, {0: -1}),
                (((1, 3),), (2,), NORMAL, {1: -1}),
            ]
        )

    def test_recursion_agrees_with_diagram_formula(self):
        for n in range(1, 8):
            assert peel_wick_word(n) == expand("wick-to-normal", n)

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
        assert len(form) == 1
        word, power = form[0]
        assert word.letters == () and power == 0

    def test_single_variable(self):
        got = [(w.letters, p) for w, p in wick_operator_form(1)]
        assert got == [(((1, 1),), 0), (((-1, 1),), 0)]

    def test_two_variables(self):
        got = [(w.letters, p) for w, p in wick_operator_form(2)]
        assert got == [
            (((1, 1), (1, 2)), 0),
            (((1, 1), (-1, 2)), 0),
            (((1, 2), (-1, 1)), 1),
            (((-1, 1), (-1, 2)), 0),
        ]

    def test_summand_count_and_weight_sum(self):
        for n in range(0, 7):
            form = wick_operator_form(n)
            assert len(form) == 2**n
            total = QPolynomial.zero()
            for _, power in form:
                total = total + QPolynomial.q_power(power)
            assert total.evaluate(1) == 2**n


class TestNormalToWick:
    def test_single_variable(self):
        assert expand("normal-to-wick", 1) == make([((), (1,), WICK, {0: 1})])

    def test_two_variables(self):
        assert expand("normal-to-wick", 2) == make(
            [
                ((), (1, 2), WICK, {0: 1}),
                (((1, 2),), (), NORMAL, {0: 1}),
            ]
        )

    def test_three_variables(self):
        assert expand("normal-to-wick", 3) == make(
            [
                ((), (1, 2, 3), WICK, {0: 1}),
                (((1, 2),), (3,), WICK, {0: 1}),
                (((2, 3),), (1,), WICK, {0: 1}),
                (((1, 3),), (2,), WICK, {1: 1}),
            ]
        )

    def test_round_trip_to_bare_word(self):
        for n in range(1, 7):
            e = expand("normal-to-wick", n)
            result = normal_form(e)
            expected = make([((), tuple(range(1, n + 1)), NORMAL, {0: 1})])
            assert result == expected


class TestProducts:
    def test_two_singleton_blocks_reduce_to_covariance(self):
        assert expand("product-expectation", (1, 1)) == make([(((1, 2),), (), NORMAL, {0: 1})])

    def test_two_by_two_expectation(self):
        assert expand("product-expectation", (2, 2)) == make(
            [
                (((1, 3), (2, 4)), (), NORMAL, {1: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_singleton_blocks_recover_moments(self):
        for n in range(1, 7):
            assert expand("product-expectation", (1,) * n) == expand("moment", n)

    def test_odd_total_expectation_vanishes(self):
        assert expand("product-expectation", (2, 3)).is_zero()

    def test_single_block_expansion_is_one_wick_term(self):
        assert expand("product-expansion", (4,)) == make([((), (1, 2, 3, 4), WICK, {0: 1})])

    def test_two_one_block_expansion(self):
        assert expand("product-expansion", (2, 1)) == make(
            [
                ((), (1, 2, 3), WICK, {0: 1}),
                (((2, 3),), (1,), WICK, {0: 1}),
                (((1, 3),), (2,), WICK, {1: 1}),
            ]
        )

    def test_singleton_blocks_recover_wick_expansion(self):
        for n in range(1, 6):
            assert expand("product-expansion", (1,) * n) == expand("normal-to-wick", n)

    def test_blocks_must_be_positive(self):
        with pytest.raises(DomainError):
            expand("product-expansion", (2, 0))
        with pytest.raises(DomainError):
            expand("product-expectation", ())

    def test_expansion_rewrites_to_the_distributed_product(self):
        # independent route: rewrite every Wick term back into plain products
        # and compare against distributing the blocks' own normal forms,
        # e.g. (x1 x2 - c12)(x3 x4 - c34) for blocks (2, 2)
        e = expand("product-expansion", (2, 2))
        got = normal_form(e)
        assert got == make(
            [
                ((), (1, 2, 3, 4), NORMAL, {0: 1}),
                (((3, 4),), (1, 2), NORMAL, {0: -1}),
                (((1, 2),), (3, 4), NORMAL, {0: -1}),
                (((1, 2), (3, 4)), (), NORMAL, {0: 1}),
            ]
        )
        e = expand("product-expansion", (1, 2, 2))
        got = normal_form(e)
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
        assert expand("wick-to-normal", 3, free=True) == make(
            [
                ((), (1, 2, 3), NORMAL, {0: 1}),
                (((1, 2),), (3,), NORMAL, {0: -1}),
                (((2, 3),), (1,), NORMAL, {0: -1}),
            ]
        )

    def test_free_moment_of_four(self):
        assert expand("moment", 4, free=True) == make(
            [
                (((1, 2), (3, 4)), (), NORMAL, {0: 1}),
                (((1, 4), (2, 3)), (), NORMAL, {0: 1}),
            ]
        )

    def test_free_normal_to_wick_of_two(self):
        assert expand("normal-to-wick", 2, free=True) == make(
            [
                ((), (1, 2), WICK, {0: 1}),
                (((1, 2),), (), NORMAL, {0: 1}),
            ]
        )

    def test_filter_matches_constant_part(self):
        for name in IDENTITIES:
            for arg in row_args(name, range(1, 7), ((2, 1), (2, 2), (1, 2, 2), (2, 2, 2))):
                assert expand(name, arg, free=True) == specialize_free(expand(name, arg))

    def test_ground_set_block_labels(self):
        ground = GroundSet(5, (2, 3))
        assert ground.lex_labels() == ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))
        assert [block_of(ground, p) for p in ground.positions()] == [1, 1, 2, 2, 2]


class TestAgainstCrossingStats:
    """Each builder equals the same sum with statistics from crossing_stats."""

    def test_general_builders(self):
        for n in range(0, 9):
            ground = GroundSet(n)
            assert expand("moment", n) == reference_sum(
                enumerate_complete(ground), NORMAL, lambda s: s.c
            )
            assert expand("wick-to-normal", n) == reference_sum(
                enumerate_diagrams(ground), NORMAL, lambda s: s.a, signed=True
            )
            assert expand("normal-to-wick", n) == reference_sum(
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
                assert expand("operator-moment", eps) == expected

    def test_product_builders(self):
        for blocks in CROSS_CHECK_BLOCKS:
            ground = GroundSet(sum(blocks), blocks)
            assert expand("product-expectation", blocks) == reference_sum(
                enumerate_nonlinking(ground, complete_only=True), NORMAL, lambda s: s.c
            )
            assert expand("product-expansion", blocks) == reference_sum(
                enumerate_nonlinking(ground), WICK, lambda s: s.tc
            )

    @pytest.mark.parametrize("name", list(IDENTITIES))
    def test_free_rows_are_class_filters(self, name):
        complete, kind, signed, keep = FREE_CLASSES[name]
        on = IDENTITIES[name].on
        for arg in row_args(name, range(0, 9), CROSS_CHECK_BLOCKS):
            if on == "pattern":
                diagrams = enumerate_compatible(arg)
            elif on == "blocks":
                ground = GroundSet(sum(arg), arg)
                diagrams = enumerate_nonlinking(ground, complete_only=complete)
            else:
                ground = GroundSet(arg)
                diagrams = enumerate_complete(ground) if complete else enumerate_diagrams(ground)
            expected = reference_sum(diagrams, kind, lambda s: 0, signed, keep)
            assert expand(name, arg, free=True) == expected

    def test_every_row_is_verified(self):
        assert {r.instance["target"] for r in run_check("free")} == set(IDENTITIES)


STREAM_BLOCKS = ((2, 3, 2), (4, 4), (1, 2, 2, 1))


class TestTermStream:
    """terms yields an identity's expansion term by term, in sorted order."""

    @pytest.mark.parametrize("free", [False, True])
    @pytest.mark.parametrize(
        "name, arg",
        [
            (name, arg)
            for name in IDENTITIES
            for arg in row_args(name, range(9), STREAM_BLOCKS)
        ],
    )
    def test_one_term_per_key_in_sorted_order(self, name, arg, free):
        streamed = [
            ((pairs, kind, singles), QPolynomial.q_power(exp, coeff))
            for pairs, singles, kind, exp, coeff in terms(name, arg, free)
        ]
        keys = [key for key, _ in streamed]
        assert len(set(keys)) == len(keys)
        expected = [
            ((pairs, kind, singles), poly)
            for (pairs, singles, kind), poly in expand(name, arg, free).sorted_terms()
        ]
        assert streamed == expected

    @pytest.mark.parametrize(
        "name, arg, error",
        [
            ("moment", 13, SizeLimitError),
            ("moment", -1, DomainError),
            ("product-expansion", (2, 0), DomainError),
            ("product-expectation", (), DomainError),
            ("operator-moment", (1, -1) * 7, SizeLimitError),  # not Catalan, and past the cap
            ("operator-moment", (0, 1), DomainError),
            ("nope", 2, DomainError),
            ("product-expansion", 5, DomainError),
        ],
    )
    def test_checks_run_before_the_first_term(self, name, arg, error):
        with pytest.raises(error):
            terms(name, arg)

    def test_an_unknown_row_names_the_rows(self):
        with pytest.raises(DomainError) as exc:
            terms("nope", 2)
        names = ", ".join(sorted(IDENTITIES))
        assert str(exc.value) == f"unknown identity 'nope'; expected one of {names}"


SUM_BLOCKS = ((1,), (2, 1), (2, 2), (1, 2, 2), (2, 3, 2), (1, 2, 2, 1))


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize(
    "name, arg",
    [
        (name, arg)
        for name in IDENTITIES
        for arg in row_args(name, range(8), SUM_BLOCKS)
    ],
)
def test_diagram_sum_matches_the_validated_accumulation(name, arg, free):
    # _diagram_sum stores the stream's keys unchecked and unmerged; the
    # reference merges through accumulate_term and validates every key
    acc = {}
    for pairs, singles, kind, exp, coeff in terms(name, arg, free):
        accumulate_term(acc, (pairs, singles, kind), QPolynomial({exp: Fraction(coeff)}))
    reference = Expansion(acc)
    result = _diagram_sum(terms(name, arg, free))
    assert result == reference
    assert result.to_json() == reference.to_json()
    assert result.pretty() == reference.pretty()
    assert all(
        poly.coeffs and all(type(v) is int and v for v in poly.coeffs.values())
        for poly in result.terms.values()
    )


class TestIntegerInput:
    """The diagram-sum entry points reject non-integer indices and blocks,
    which int() alone would truncate, and name the bad value."""

    def test_wick_word_indices(self):
        with pytest.raises(DomainError) as exc:
            wick_to_normal_word((1.5, 2.7))
        assert str(exc.value) == "variable index must be an integer, got 1.5"
        assert wick_to_normal_word((True, 2)) == expand("wick-to-normal", 2)

    def test_product_blocks(self):
        with pytest.raises(DomainError) as exc:
            expand("product-expansion", (1.5, 1.2))
        assert str(exc.value) == "block size must be an integer, got 1.5"
        assert expand("product-expansion", (True, 1)) == expand("product-expansion", (1, 1))

    @pytest.mark.parametrize("name", ["product-expectation", "product-expansion"])
    def test_terms_checks_blocks_at_once(self, name):
        with pytest.raises(DomainError) as exc:
            terms(name, (2, 0.5))
        assert str(exc.value) == "block size must be an integer, got 0.5"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: expand("moment", 4, cap=2.5), "cap must be an integer, got 2.5"),
            (
                lambda: next(enumerate_diagrams(GroundSet(4), cap="5")),
                "cap must be an integer, got '5'",
            ),
            (lambda: wick_operator_form(2.5), "variable count must be an integer, got 2.5"),
            (lambda: wick_operator_form([3]), "variable count must be an integer, got [3]"),
            (
                lambda: next(catalan_sequences("4")),
                "sign sequence length must be an integer, got '4'",
            ),
            (
                lambda: gram_check("2", FockParams(2, 3, Fraction(1, 3))),
                "degree must be an integer, got '2'",
            ),
        ],
        ids=[
            "expand-cap",
            "enumerate_diagrams-cap",
            "wick_operator_form",
            "wick_operator_form-unhashable",
            "catalan_sequences",
            "gram_check",
        ],
    )
    def test_a_non_integer_size_or_cap_is_a_domain_error(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message

    def test_bool_sizes_and_caps_are_accepted(self):
        params = FockParams(2, 3, Fraction(1, 3))
        assert expand("wick-to-normal", True, cap=True) == expand("wick-to-normal", 1)
        assert list(enumerate_diagrams(GroundSet(1), cap=True)) == list(
            enumerate_diagrams(GroundSet(1))
        )
        assert wick_operator_form(True) == wick_operator_form(1)
        assert list(catalan_sequences(False)) == list(catalan_sequences(0))
        assert gram_check(True, params) == gram_check(1, params)


def reference_substitution_rules(e, cap=None):
    """The rewrite rule of every Wick word of e, in sorted word order, as one
    wick_to_normal_word call, hence one diagram walk, per word."""
    words = sorted({indices for _, indices, kind in e.terms if kind == WICK})
    return {word: wick_to_normal_word(word, cap=cap) for word in words}


def reference_substitute_wick(e, rules):
    """Every Wick word of e rewritten through its rule, as a merge of
    validated keys: every term goes through accumulate_term with its joined
    factors sorted by CovarianceMonomial and a QPolynomial product, and the
    result through the validating Expansion."""
    out = {}
    for key, poly in e.terms.items():
        factors, indices, kind = key
        if kind != WICK:
            accumulate_term(out, key, poly)
            continue
        for (rfactors, rindices, rkind), rpoly in rules[indices].terms.items():
            joined = CovarianceMonomial(factors + rfactors).factors
            accumulate_term(out, (joined, rindices, rkind), poly * rpoly)
    return Expansion(out)


def reference_normal_form(e, cap=None):
    """normal_form through a rule map built whole: one walk per Wick word."""
    return reference_substitute_wick(e, reference_substitution_rules(e, cap))


def reference_peel_wick_word(n):
    """peel_wick_word as a merge of validated keys: every term goes through
    accumulate_term with its factors sorted by CovarianceMonomial and a
    QPolynomial product, and the result through the validating Expansion."""

    def expand_(indices, memo):
        if indices not in memo:
            head, rest = indices[0], indices[1:]
            acc = memo[indices] = {}
            for (factors, word, kind), poly in expand_(rest, memo).items():
                accumulate_term(acc, (factors, (head,) + word, NORMAL), poly)
            for pos, other in enumerate(rest):
                trimmed = rest[:pos] + rest[pos + 1 :]
                factor = QPolynomial.q_power(pos, -1)
                for (factors, word, kind), poly in expand_(trimmed, memo).items():
                    joined = CovarianceMonomial(((head, other),) + factors).factors
                    accumulate_term(acc, (joined, word, kind), poly * factor)
        return memo[indices]

    return Expansion(expand_(tuple(range(1, n + 1)), {(): Expansion.identity().terms}))


def int_coefficients(e):
    return all(type(v) is int for poly in e.terms.values() for v in poly.coeffs.values())


def exact_coefficients(e):
    """No zero coefficient is stored, and each is an int or a Fraction that
    is not an integer."""
    return all(
        v and (type(v) is int or v.denominator != 1)
        for poly in e.terms.values()
        for v in poly.coeffs.values()
    )


def rewrite_outcome(rewrite, e, cap):
    try:
        result = rewrite(e, cap)
    except (DomainError, SizeLimitError) as exc:
        return type(exc), str(exc)
    assert exact_coefficients(result)
    return result, json.dumps(result.to_json()), result.pretty()


increasing_words = st.sets(st.integers(1, 9), min_size=1, max_size=6).map(sorted)
any_order_words = st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True)
wick_word_lists = st.lists(
    st.one_of(increasing_words, any_order_words).map(lambda ix: VariableWord(tuple(ix), WICK)),
    min_size=1,
    max_size=5,
)


NOT_INCREASING = "variable indices must be strictly increasing"


# few indices and rational coefficients, so that rewritten terms often
# collide with each other and with the normal terms, and cancel
few_covs = st.lists(st.sampled_from(((1, 2), (1, 3), (2, 4), (3, 4))), max_size=2).map(tuple)
few_words = st.sets(st.integers(1, 4), max_size=4).map(lambda s: tuple(sorted(s)))
rational_polys = st.dictionaries(
    st.integers(0, 2), st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=2
).map(QPolynomial)
mixed_expansions = st.dictionaries(
    st.tuples(few_covs, few_words, st.sampled_from((NORMAL, WICK))), rational_polys, max_size=5
).map(Expansion)


@st.composite
def cancelling_expansions(draw):
    """A mixed expansion less the rewrite of some of its Wick terms, scaled,
    so that those terms' images cancel against normal terms."""
    e = draw(mixed_expansions)
    wick_terms = sorted(item for item in e.terms.items() if item[0][2] == WICK)
    chosen = []
    if wick_terms:
        chosen = draw(st.lists(st.sampled_from(wick_terms), unique_by=lambda t: t[0]))
    scale = draw(st.sampled_from((1, Fraction(1, 3), Fraction(-5, 2))))
    return e - reference_normal_form(Expansion(dict(chosen))).scaled(scale)


class TestNormalFormAgainstRuleMaps:
    """normal_form against a rule map with one wick_to_normal_word per Wick
    word, substituted term by term through validated keys."""

    @given(st.lists(increasing_words, max_size=6), st.sampled_from((None, 6, 9)))
    @settings(max_examples=100)
    def test_same_rules(self, words, cap):
        e = Expansion(
            {((), tuple(w), WICK): QPolynomial.one() for w in words}
        )
        assert rewrite_outcome(normal_form, e, cap) == rewrite_outcome(
            reference_normal_form, e, cap
        )

    @given(st.one_of(mixed_expansions, cancelling_expansions()), st.sampled_from((None, 2, 4)))
    @settings(max_examples=200)
    def test_same_expansion(self, e, cap):
        assert rewrite_outcome(normal_form, e, cap) == rewrite_outcome(
            reference_normal_form, e, cap
        )

    # -1, 1.5 and "x" are invalid caps, which the one-pass check leaves to the sorted loop
    @given(wick_word_lists, st.sampled_from((None, 0, 2, 4, -1, 1.5, "x")))
    @settings(max_examples=200)
    def test_same_error_first(self, words, cap):
        e = Expansion({((), w.indices, w.kind): QPolynomial.one() for w in words})
        assert rewrite_outcome(normal_form, e, cap) == rewrite_outcome(
            reference_normal_form, e, cap
        )

    @pytest.mark.parametrize(
        "words, cap, error",
        [
            (((3, 1),), None, (DomainError, f"{NOT_INCREASING}, got (3, 1)")),
            (((1, 2, 3),), 2, (SizeLimitError, "ground size 3 exceeds enumeration cap 2")),
            (((1, 2, 3), (3, 1)), 2, (SizeLimitError, "ground size 3 exceeds enumeration cap 2")),
            (((2, 1), (2, 3, 4)), 2, (DomainError, f"{NOT_INCREASING}, got (2, 1)")),
            # the first fault is the first in sorted word order, not in term
            # order or by length, and a normal term's word is never checked
            (((3, 1), (1, 2, 3)), 2, (SizeLimitError, "ground size 3 exceeds enumeration cap 2")),
            (((1, 2, 3, 4), (2, 1)), 3, (SizeLimitError, "ground size 4 exceeds enumeration cap 3")),
        ],
    )
    def test_errors_name_the_first_fault(self, words, cap, error):
        e = Expansion(
            {((), tuple(w), WICK): QPolynomial.one() for w in words}
        )
        e = e + Expansion({(((1, 2),), (6, 5, 4, 3, 2, 1), NORMAL): 1})
        assert rewrite_outcome(normal_form, e, cap) == error
        assert rewrite_outcome(reference_normal_form, e, cap) == error

    # the roundtrip suite's inputs, cancellation-heavy and past the few
    # indices of the strategies above, as are the product expansions below
    @pytest.mark.parametrize("n", range(10))
    def test_roundtrip(self, n):
        e = expand("normal-to-wick", n)
        expected = Expansion({((), tuple(range(1, n + 1)), NORMAL): 1})
        assert rewrite_outcome(normal_form, e, None) == rewrite_outcome(
            reference_normal_form, e, None
        )
        assert normal_form(e) == expected

    @pytest.mark.parametrize("blocks", [(2, 2), (1, 2, 2), (2, 2, 2), (3, 3)])
    def test_product_expansion(self, blocks):
        e = expand("product-expansion", blocks)
        assert rewrite_outcome(normal_form, e, None) == rewrite_outcome(
            reference_normal_form, e, None
        )


# Each mutated row must fail the suites that check it: its own oracle suite,
# and the one that checks it against the peel (wick-to-normal meets the peel
# in wick2-vs-recursion, normal-to-wick in roundtrip).  The block rows meet
# only their oracle suites, on their default block lists, and the sign
# pattern row only t2.1.  Power c + d is no mutant of that row: its diagrams
# are complete, so d = 0 on every one of them.
ROW_MUTANTS = [
    ("wick-to-normal", {"power": lambda c, d, g: g}, "wick2-vs-recursion", {"n": 6}),
    ("wick-to-normal", {"signed": False}, "wick2-vs-recursion", {"n": 6}),
    ("normal-to-wick", {"power": lambda c, d, g: c}, "roundtrip", {"n": 6}),
    ("normal-to-wick", {"power": lambda c, d, g: c + d + (g > 0)}, "roundtrip", {"n": 6}),
    ("wick-to-normal", {"power": lambda c, d, g: g}, "wick-to-normal", {"n": 6}),
    ("wick-to-normal", {"signed": False}, "wick-to-normal", {"n": 6}),
    ("normal-to-wick", {"power": lambda c, d, g: c}, "normal-to-wick", {"n": 6}),
    ("normal-to-wick", {"power": lambda c, d, g: c + d + (g > 0)}, "normal-to-wick", {"n": 6}),
    ("product-expansion", {"power": lambda c, d, g: c}, "t3.4", {}),
    ("product-expansion", {"power": lambda c, d, g: c + d + (g > 0)}, "t3.4", {}),
    ("product-expansion", {"signed": True}, "t3.4", {}),
    ("product-expectation", {"power": lambda c, d, g: g}, "t3.3", {}),
    ("product-expectation", {"power": lambda c, d, g: c + (c > 1)}, "t3.3", {}),
    ("operator-moment", {"power": lambda c, d, g: g}, "t2.1", {"n": 6}),
    ("operator-moment", {"power": lambda c, d, g: 0}, "t2.1", {"n": 6}),
    ("operator-moment", {"signed": True}, "t2.1", {"n": 6}),
]


@pytest.mark.parametrize(
    "name, change, check, options",
    ROW_MUTANTS,
    ids=[f"{name}-change{i}-{check}" for i, (name, _, check, _) in enumerate(ROW_MUTANTS)],
)
def test_a_mutated_row_fails_its_suite(monkeypatch, name, change, check, options):
    assert all(r.passed for r in run_check(check, **options))
    monkeypatch.setitem(IDENTITIES, name, dataclasses.replace(IDENTITIES[name], **change))
    assert not all(r.passed for r in run_check(check, **options))


def rows_checked_by(checker):
    return [
        suite.args[1]
        for suite, _ in CHECKS.values()
        if isinstance(suite, functools.partial) and suite.func is checker
    ]


def test_every_row_meets_the_oracle():
    assert set(rows_checked_by(_check_row)) == set(IDENTITIES)


def test_every_row_with_one_left_word_meets_the_peel():
    # a complete row is a vacuum expectation and a blocked row has one left
    # word per block, so the rewrite of a single left word checks neither
    rows = rows_checked_by(_peel_row)
    assert sorted(rows) == sorted(
        name for name, row in IDENTITIES.items() if not (row.complete or row.on == "blocks")
    )
    assert set(rows) == {"wick-to-normal", "normal-to-wick"}


def test_normal_form_changes_neither_its_input_nor_shared_caches():
    # the rewrite must not merge into the QPolynomial coefficient dicts it
    # reads, which the q-power cache shares between expansions
    e = expand("normal-to-wick", 6)
    before = json.dumps(e.to_json())
    normal_form(e)
    assert json.dumps(e.to_json()) == before
    assert json.dumps(expand("normal-to-wick", 6).to_json()) == before
    assert expand("wick-to-normal", 6) == peel_wick_word(6)


def test_an_expansion_of_normal_words_is_its_own_normal_form():
    # wick2-vs-recursion sends the whole wick-to-normal sum through
    # normal_form, so that sum must not be accumulated again
    e = expand("wick-to-normal", 6)
    assert normal_form(e) is e


@pytest.mark.parametrize("n", range(10))
def test_recursion_matches_the_key_object_merge(n):
    result = peel_wick_word(n)
    reference = reference_peel_wick_word(n)
    assert result == reference == expand("wick-to-normal", n)
    assert json.dumps(result.to_json()) == json.dumps(reference.to_json())
    assert int_coefficients(result)
    assert peel_wick_word(n) == result
