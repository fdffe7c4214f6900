"""Enumeration counts, crossing statistics and sign-pattern checks."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwick import (
    DomainError,
    FeynmanDiagram,
    GroundSet,
    SignSequence,
    SizeLimitError,
    catalan_check,
    catalan_sequences,
    enumerate_compatible,
    enumerate_complete,
    enumerate_diagrams,
    enumerate_nonlinking,
)
from qwick.diagrams import _block_forbid, _sign_forbid, _walk
from reference import block_of, classify, crossing_stats, epsilon_of


# Reference counts, independent of the enumerators under test.

def involution_count(n):
    if n == 0:
        return 1
    a, b = 1, 1  # counts for n-2 and n-1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def double_factorial_odd(n):
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def catalan_number(n):
    return comb(2 * n, n) // (n + 1)


def all_diagrams(n):
    return list(enumerate_diagrams(GroundSet(n)))


@st.composite
def random_diagrams(draw, max_size=10, complete=False):
    if complete:
        n = 2 * draw(st.integers(min_value=0, max_value=max_size // 2))
    else:
        n = draw(st.integers(min_value=0, max_value=max_size))
    perm = draw(st.permutations(tuple(range(1, n + 1))))
    k = n // 2 if complete else draw(st.integers(min_value=0, max_value=n // 2))
    pairs = tuple(tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(k))
    return FeynmanDiagram(GroundSet(n), pairs)


class TestEnumeration:
    def test_counts_match_involution_recurrence(self):
        for n in range(0, 9):
            assert len(all_diagrams(n)) == involution_count(n)

    def test_empty_ground_has_one_diagram(self):
        assert all_diagrams(0) == [FeynmanDiagram(GroundSet(0), ())]

    def test_size_two_stream(self):
        ground = GroundSet(2)
        assert all_diagrams(2) == [
            FeynmanDiagram(ground, ()),
            FeynmanDiagram(ground, ((1, 2),)),
        ]

    def test_stream_is_lexicographic_and_duplicate_free(self):
        seen = [d.pairs for d in all_diagrams(6)]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))

    def test_complete_counts(self):
        for n in range(1, 5):
            got = sum(1 for _ in enumerate_complete(GroundSet(2 * n)))
            assert got == double_factorial_odd(n)

    def test_complete_odd_is_empty(self):
        assert list(enumerate_complete(GroundSet(5))) == []

    def test_complete_pairings_of_four(self):
        ground = GroundSet(4)
        got = [d.pairs for d in enumerate_complete(ground)]
        assert got == [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]

    def test_determinism(self):
        first = list(enumerate_diagrams(GroundSet(6)))
        second = list(enumerate_diagrams(GroundSet(6)))
        assert first == second
        assert list(enumerate_complete(GroundSet(6))) == list(
            enumerate_complete(GroundSet(6))
        )

    def test_cap_exceeded_names_the_cap(self):
        with pytest.raises(SizeLimitError, match="12"):
            next(enumerate_diagrams(GroundSet(13)))
        with pytest.raises(SizeLimitError, match="4"):
            next(enumerate_diagrams(GroundSet(6), cap=4))

    @pytest.mark.parametrize("raw", ["3", "abc", "-2"])
    def test_cap_environment_variable_is_not_read(self, monkeypatch, raw):
        # only the cap argument overrides the default
        monkeypatch.setenv("QWICK_CAP", raw)
        assert sum(1 for _ in enumerate_diagrams(GroundSet(6))) == involution_count(6)


class TestCompatible:
    def test_minimal_pattern(self):
        eps = SignSequence((-1, 1))
        got = [d.pairs for d in enumerate_compatible(eps)]
        assert got == [((1, 2),)]

    def test_two_pair_pattern_matches_exhaustive_filter(self):
        eps = SignSequence((-1, -1, 1, 1))
        expected = [
            d
            for d in enumerate_complete(GroundSet(4))
            if all(
                eps.entries[i - 1] == -1 and eps.entries[j - 1] == 1
                for i, j in d.pairs
            )
        ]
        assert list(enumerate_compatible(eps)) == expected
        assert [d.pairs for d in expected] == [((1, 3), (2, 4)), ((1, 4), (2, 3))]

    def test_length_eight_pattern(self):
        eps = SignSequence((-1, -1, 1, -1, -1, 1, 1, 1))
        diagrams = list(enumerate_compatible(eps))
        assert diagrams
        for d in diagrams:
            assert {i for i, _ in d.pairs} == {1, 2, 4, 5}

    def test_exhaustive_filter_agreement_small_lengths(self):
        for length in (2, 4, 6):
            for eps in catalan_sequences(length):
                expected = [
                    d
                    for d in enumerate_complete(GroundSet(length))
                    if all(
                        eps.entries[i - 1] == -1 and eps.entries[j - 1] == 1
                        for i, j in d.pairs
                    )
                ]
                assert list(enumerate_compatible(eps)) == expected
                assert expected  # guaranteed non-empty for Catalan patterns

    def test_non_catalan_rejected(self):
        with pytest.raises(DomainError):
            next(enumerate_compatible(SignSequence((1, -1))))


class TestNonlinking:
    def test_two_by_two_complete(self):
        ground = GroundSet(4, (2, 2))
        got = [d.pairs for d in enumerate_nonlinking(ground, complete_only=True)]
        assert got == [((1, 3), (2, 4)), ((1, 4), (2, 3))]

    def test_matches_independent_filter(self):
        ground = GroundSet(4, (2, 2))
        def crosses_block(d):
            return any((i <= 2) == (j <= 2) for i, j in d.pairs)
        expected = [d.pairs for d in enumerate_complete(GroundSet(4)) if not crosses_block(d)]
        got = [d.pairs for d in enumerate_nonlinking(ground, complete_only=True)]
        assert got == expected

    def test_single_block_leaves_only_the_empty_diagram(self):
        ground = GroundSet(4, (4,))
        got = list(enumerate_nonlinking(ground))
        assert got == [FeynmanDiagram(ground, ())]

    def test_singleton_blocks_are_unrestricted(self):
        ground = GroundSet(4, (1, 1, 1, 1))
        assert [d.pairs for d in enumerate_nonlinking(ground)] == [
            d.pairs for d in enumerate_diagrams(GroundSet(4))
        ]
        assert [d.pairs for d in enumerate_nonlinking(ground, complete_only=True)] == [
            d.pairs for d in enumerate_complete(GroundSet(4))
        ]

    def test_requires_blocks(self):
        with pytest.raises(DomainError):
            next(enumerate_nonlinking(GroundSet(4)))

    def test_bad_block_sum_rejected(self):
        with pytest.raises(DomainError):
            GroundSet(4, (2, 3))


class TestCrossingStats:
    def test_worked_example_on_ten_points(self):
        d = FeynmanDiagram(GroundSet(10), ((1, 3), (2, 6), (4, 9), (8, 10)))
        s = crossing_stats(d)
        assert s.c == 3
        assert [p.left_crossings for p in s.per_pair] == [0, 1, 1, 1]
        assert sum(p.right_crossings for p in s.per_pair) == 3
        assert s.d == 3  # singleton 5 in (2,6) and (4,9); singleton 7 in (4,9)
        assert s.tc == 6
        assert s.g == 9
        assert s.a == 6

    def test_empty_diagram(self):
        s = crossing_stats(FeynmanDiagram(GroundSet(5), ()))
        assert (s.c, s.d, s.tc, s.g, s.a) == (0, 0, 0, 0, 0)

    def test_single_spanning_pair(self):
        s = crossing_stats(FeynmanDiagram(GroundSet(3), ((1, 3),)))
        assert (s.c, s.d, s.tc, s.g, s.a) == (0, 1, 1, 1, 1)

    @given(random_diagrams())
    @settings(max_examples=150)
    def test_left_and_right_totals_agree(self, diagram):
        s = crossing_stats(diagram)
        assert sum(p.left_crossings for p in s.per_pair) == s.c
        assert sum(p.right_crossings for p in s.per_pair) == s.c

    @given(random_diagrams())
    @settings(max_examples=150)
    def test_gap_bounds(self, diagram):
        s = crossing_stats(diagram)
        assert 2 * s.c <= s.g
        assert all(p.a >= 0 for p in s.per_pair)
        assert s.a == s.g - s.c
        assert s.tc == s.c + s.d

    def test_complete_diagram_has_no_degenerate_crossings(self):
        for d in enumerate_complete(GroundSet(6)):
            s = crossing_stats(d)
            assert s.d == 0 and s.tc == s.c


class TestClassify:
    def test_adjacent_pairs_are_gap_free(self):
        flags = classify(FeynmanDiagram(GroundSet(4), ((1, 2), (3, 4))))
        assert flags.noncrossing and flags.strongly_noncrossing and flags.gap_free

    def test_crossing_pair(self):
        flags = classify(FeynmanDiagram(GroundSet(4), ((1, 3), (2, 4))))
        assert not flags.noncrossing

    def test_degenerate_only(self):
        flags = classify(FeynmanDiagram(GroundSet(3), ((1, 3),)))
        assert flags.noncrossing
        assert not flags.strongly_noncrossing
        assert not flags.gap_free

    def test_inclusion_chain(self):
        for d in all_diagrams(6):
            flags = classify(d)
            if flags.gap_free:
                assert flags.strongly_noncrossing
            if flags.strongly_noncrossing:
                assert flags.noncrossing

    def test_noncrossing_complete_counts_are_catalan(self):
        for n in range(1, 7):
            got = sum(
                1
                for d in enumerate_complete(GroundSet(2 * n))
                if classify(d).noncrossing
            )
            assert got == catalan_number(n)


class TestSignSequences:
    def test_catalan_examples(self):
        ok, sigma = catalan_check(SignSequence((-1, 1)))
        assert ok and sigma == (0, 1)
        ok, sigma = catalan_check(SignSequence((1, -1)))
        assert not ok and sigma == (0, -1)
        ok, _ = catalan_check(SignSequence((-1, -1, 1, -1, -1, 1, 1, 1)))
        assert ok

    def test_empty_sequence_is_catalan(self):
        ok, sigma = catalan_check(SignSequence(()))
        assert ok and sigma == ()

    def test_odd_length_rejected(self):
        with pytest.raises(DomainError):
            catalan_check(SignSequence((-1, 1, -1)))

    def test_bad_entries_rejected(self):
        with pytest.raises(DomainError):
            SignSequence((0, 1))

    def test_a_plain_sequence_is_a_sign_pattern(self):
        eps = SignSequence((-1, -1, 1, 1))
        assert SignSequence(eps) == eps and tuple(eps) == eps.entries
        assert catalan_check((1, -1)) == catalan_check(SignSequence((1, -1)))
        assert catalan_check([-1, 1]) == (True, (0, 1))
        assert list(enumerate_compatible((-1, -1, 1, 1))) == list(enumerate_compatible(eps))
        assert [d.pairs for d in enumerate_compatible((-1, 1))] == [((1, 2),)]

    def test_negative_length_is_a_domain_error(self):
        with pytest.raises(DomainError) as exc:
            list(catalan_sequences(-2))
        assert str(exc.value) == "sign sequence length must be nonnegative, got -2"

    def test_catalan_sequence_counts(self):
        for n in range(1, 5):
            got = sum(1 for _ in catalan_sequences(2 * n))
            assert got == catalan_number(n)

    def test_epsilon_of_examples(self):
        assert epsilon_of(FeynmanDiagram(GroundSet(2), ((1, 2),))).entries == (-1, 1)
        assert epsilon_of(
            FeynmanDiagram(GroundSet(4), ((1, 3), (2, 4)))
        ).entries == (-1, -1, 1, 1)
        assert epsilon_of(
            FeynmanDiagram(GroundSet(4), ((1, 2), (3, 4)))
        ).entries == (-1, 1, -1, 1)

    def test_epsilon_of_requires_complete(self):
        with pytest.raises(DomainError):
            epsilon_of(FeynmanDiagram(GroundSet(3), ((1, 2),)))

    @given(random_diagrams(max_size=8, complete=True))
    @settings(max_examples=100)
    def test_epsilon_round_trip(self, diagram):
        eps = epsilon_of(diagram)
        ok, _ = catalan_check(eps)
        assert ok
        assert diagram in list(enumerate_compatible(eps))


class TestDiagramInvariants:
    def test_pairs_are_canonically_sorted(self):
        d = FeynmanDiagram(GroundSet(4), ((3, 4), (1, 2)))
        assert d.pairs == ((1, 2), (3, 4))
        assert d == FeynmanDiagram(GroundSet(4), ((1, 2), (3, 4)))

    def test_singletons_derived(self):
        d = FeynmanDiagram(GroundSet(5), ((2, 4),))
        assert d.singletons == (1, 3, 5)
        assert not d.is_complete

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(DomainError):
            FeynmanDiagram(GroundSet(4), ((1, 2), (2, 3)))

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(DomainError):
            FeynmanDiagram(GroundSet(3), ((1, 4),))
        with pytest.raises(DomainError):
            FeynmanDiagram(GroundSet(3), ((2, 2),))

    def test_serialized_form(self):
        d = FeynmanDiagram(GroundSet(4, (2, 2)), ((1, 3),))
        assert d.to_json() == {"size": 4, "blocks": [2, 2], "pairs": [[1, 3]]}
        assert FeynmanDiagram(GroundSet(2)).to_json() == {
            "size": 2,
            "blocks": None,
            "pairs": [],
        }


def reference_pair_tuples(n):
    """Every diagram on 1..n, built without the walker: the smallest
    remaining position is either a singleton or pairs with a later one."""

    def build(free):
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        yield from build(rest)
        for k, other in enumerate(rest):
            for tail in build(rest[:k] + rest[k + 1 :]):
                yield ((first, other),) + tail

    return sorted(build(tuple(range(1, n + 1))))


def links_within_block(ground, pairs):
    return any(block_of(ground, i) == block_of(ground, j) for i, j in pairs)


def assert_carried_stats(ground, walk):
    for pairs, singles, c, d, g in walk:
        diagram = FeynmanDiagram(ground, pairs)
        stats = crossing_stats(diagram)
        assert diagram.pairs == pairs
        assert singles == diagram.singletons
        assert (c, d, g) == (stats.c, stats.d, stats.g)


class TestWalker:
    def test_order_matches_reference(self):
        for n in range(0, 10):
            expected = reference_pair_tuples(n)
            assert [w[0] for w in _walk(n)] == expected
            complete = [p for p in expected if 2 * len(p) == n]
            assert [w[0] for w in _walk(n, complete_only=True)] == complete

    def test_carried_stats_equal_crossing_stats(self):
        for n in range(0, 10):
            assert_carried_stats(GroundSet(n), _walk(n))
            assert_carried_stats(GroundSet(n), _walk(n, complete_only=True))

    def test_nonlinking_equals_filter_after_enumeration(self):
        for blocks in ((1, 1, 1, 1), (2, 2, 2), (3, 3, 2), (4, 3)):
            ground = GroundSet(sum(blocks), blocks)
            plain = GroundSet(ground.size)
            for complete_only, base in ((False, enumerate_diagrams), (True, enumerate_complete)):
                expected = [
                    d.pairs for d in base(plain) if not links_within_block(ground, d.pairs)
                ]
                got = [d.pairs for d in enumerate_nonlinking(ground, complete_only)]
                assert got == expected
                walk = _walk(ground.size, complete_only, _block_forbid(ground))
                assert_carried_stats(ground, walk)

    def test_compatible_stats_and_order(self):
        for length in range(0, 9, 2):
            ground = GroundSet(length)
            for eps in catalan_sequences(length):
                expected = [
                    d.pairs
                    for d in enumerate_complete(ground)
                    if all(eps.entries[i - 1] == -1 for i, _ in d.pairs)
                ]
                assert [d.pairs for d in enumerate_compatible(eps)] == expected
                assert_carried_stats(ground, _walk(length, True, _sign_forbid(eps)))

    def test_zero_modes_are_class_filters(self):
        classes = {"c": lambda s: s.c, "tc": lambda s: s.tc, "g": lambda s: s.g}
        for n in range(0, 9):
            ground = GroundSet(n)
            for complete_only in (False, True):
                stream = list(_walk(n, complete_only))
                for zero, stat in classes.items():
                    expected = [
                        w
                        for w in stream
                        if stat(crossing_stats(FeynmanDiagram(ground, w[0]))) == 0
                    ]
                    assert list(_walk(n, complete_only, zero=zero)) == expected

    def test_masked_zero_modes_are_class_filters(self):
        classes = {"c": lambda s: s.c, "tc": lambda s: s.tc, "g": lambda s: s.g}
        masked = []
        for blocks in ((1, 1, 1, 1), (2, 2, 2), (3, 3, 2), (4, 3)):
            ground = GroundSet(sum(blocks), blocks)
            masked.append((ground, _block_forbid(ground)))
        for length in range(0, 9, 2):
            masked += [(GroundSet(length), _sign_forbid(eps)) for eps in catalan_sequences(length)]
        for ground, forbid in masked:
            for complete_only in (False, True):
                stream = list(_walk(ground.size, complete_only, forbid))
                for zero, stat in classes.items():
                    expected = [
                        w
                        for w in stream
                        if stat(crossing_stats(FeynmanDiagram(ground, w[0]))) == 0
                    ]
                    got = list(_walk(ground.size, complete_only, forbid, zero))
                    assert got == expected
                    assert_carried_stats(ground, got)


class TestIntegerInput:
    """The diagram-layer constructors reject a non-integer size, block,
    position or sign, which int() alone would truncate, and name it."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GroundSet(4.7), "ground size must be an integer, got 4.7"),
            (lambda: GroundSet(3, (1.5, 1.5)), "block size must be an integer, got 1.5"),
            (
                lambda: FeynmanDiagram(GroundSet(4), ((1.9, 3.2),)),
                "position must be an integer, got 1.9",
            ),
            (lambda: SignSequence((1.5, -1)), "sign entry must be an integer, got 1.5"),
            (lambda: SignSequence(("1", -1)), "sign entry must be an integer, got '1'"),
        ],
    )
    def test_non_integer_is_a_domain_error_naming_it(self, build, message):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message

    def test_ints_and_bools_are_accepted(self):
        assert GroundSet(True).size == 1
        assert GroundSet(3, (True, 2)).blocks == (1, 2)
        assert FeynmanDiagram(GroundSet(3), ((True, 3),)).pairs == ((1, 3),)
        assert SignSequence((True, -1)).entries == (1, -1)
