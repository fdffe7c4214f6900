"""From-scratch reference definitions that the tests check qwick against.

None of these is on a code path of the package.  The walker carries each
diagram's crossing statistics as popcount differences; crossing_stats
recounts them from the definitions, pair by pair.  The diagram sums stream
the walker's keys unchecked; diagram_term builds each key through the
validating _term_key.  wick_to_normal_word is the Wick product 1..n
relabelled onto other variable indices, the rewrite rule of one Wick word
in normal_form.  row_args, a test helper rather than a reference, gives each
identity row its test arguments by the kind of argument the row takes.

The file name does not match pytest's test pattern, so it is imported by
the test modules and never collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from qwick import (
    IDENTITIES,
    NORMAL,
    Expansion,
    FeynmanDiagram,
    GroundSet,
    SignSequence,
    catalan_sequences,
    expand,
)
from qwick.algebra import _term_key
from qwick.diagrams import ensure_within_cap
from qwick.errors import DomainError
from qwick.wick import _increasing


@dataclass(frozen=True)
class PairStats:
    """Per-pair crossing data for one pair (i, j).

    left_crossings counts pairs (k, l) with k < i < l < j, right_crossings
    those with i < k < j < l, gap every position strictly between i and j,
    and a = gap - left_crossings.
    """

    pair: tuple[int, int]
    left_crossings: int
    right_crossings: int
    gap: int
    a: int


@dataclass(frozen=True)
class CrossingStats:
    """Crossing counts of a whole diagram.

    c    crossing number: interleaved pair configurations k < i < l < j
    d    degenerate crossings: triples i < k < j with k a singleton
    tc   total crossings, c + d
    g    total gap: positions strictly inside a pair, summed over pairs
    a    g - c
    """

    c: int
    d: int
    tc: int
    g: int
    a: int
    per_pair: tuple[PairStats, ...]


def crossing_stats(diagram: FeynmanDiagram) -> CrossingStats:
    """All crossing statistics of a diagram.

    The gap of a pair counts every intermediate position, paired or not;
    degenerate crossings count (pair, inner singleton) triples.
    """
    pairs = diagram.pairs
    singles = diagram.singletons
    per = []
    for i, j in pairs:
        left = sum(1 for k, l in pairs if k < i < l < j)
        right = sum(1 for k, l in pairs if i < k < j < l)
        gap = j - i - 1
        per.append(PairStats((i, j), left, right, gap, gap - left))
    c = sum(p.left_crossings for p in per)
    d = sum(1 for i, j in pairs for k in singles if i < k < j)
    g = sum(p.gap for p in per)
    return CrossingStats(c=c, d=d, tc=c + d, g=g, a=g - c, per_pair=tuple(per))


@dataclass(frozen=True)
class DiagramClasses:
    noncrossing: bool
    strongly_noncrossing: bool
    gap_free: bool


def classify(diagram: FeynmanDiagram) -> DiagramClasses:
    """Class flags: noncrossing (c=0), strongly noncrossing (tc=0), gap free (g=0)."""
    stats = crossing_stats(diagram)
    return DiagramClasses(
        noncrossing=stats.c == 0,
        strongly_noncrossing=stats.tc == 0,
        gap_free=stats.g == 0,
    )


def epsilon_of(diagram: FeynmanDiagram) -> SignSequence:
    """Sign pattern of a complete diagram: -1 on left endpoints, +1 on right."""
    if not diagram.is_complete:
        raise DomainError("sign pattern is defined for complete diagrams only")
    entries = [1] * diagram.ground.size
    for i, _ in diagram.pairs:
        entries[i - 1] = -1
    return SignSequence(tuple(entries))


def block_of(ground: GroundSet, pos: int) -> int:
    """1-based index of the block of ground containing a position."""
    if ground.blocks is None:
        raise DomainError("ground set has no block structure")
    upper = 0
    for b, width in enumerate(ground.blocks, start=1):
        upper += width
        if pos <= upper:
            return b
    raise DomainError(f"position {pos} out of range for size {ground.size}")


def diagram_term(diagram: FeynmanDiagram, kind: str = NORMAL, labels=None) -> tuple:
    """The (factors, indices, kind) key of the term a diagram contributes:
    one covariance factor per pair and the increasing word of its
    singletons, with coefficient 1 left to the caller.

    labels, when given, must be strictly increasing and maps position p to
    labels[p - 1]; it transfers a diagram on 1..n onto other variable indices.
    """
    if labels is None:
        factors = diagram.pairs
        word = diagram.singletons
    else:
        factors = tuple((labels[i - 1], labels[j - 1]) for i, j in diagram.pairs)
        word = tuple(labels[h - 1] for h in diagram.singletons)
    return _term_key(factors, word, kind)


def wick_to_normal_word(indices: Sequence[int], cap: int | None = None) -> Expansion:
    """Wick product of the given (strictly increasing) variable indices as a
    signed sum of plain products: expand("wick-to-normal", len(indices))
    with position p relabelled to indices[p - 1], checked as normal_form
    checks a word."""
    indices = _increasing(indices)
    ensure_within_cap(len(indices), cap)
    return Expansion(
        {
            (
                tuple((indices[i - 1], indices[j - 1]) for i, j in factors),
                tuple(indices[h - 1] for h in word),
                kind,
            ): poly
            for (factors, word, kind), poly in expand(
                "wick-to-normal", len(indices), cap=cap
            ).terms.items()
        }
    )


def row_args(name: str, sizes, blocks) -> list:
    """The test arguments of the identity row name, by its on: the ground
    sizes, the block lists, or the Catalan patterns of the even sizes, each
    as a plain tuple of +/-1."""
    on = IDENTITIES[name].on
    if on == "pattern":
        return [eps.entries for n in sizes if n % 2 == 0 for eps in catalan_sequences(n)]
    return list(blocks if on == "blocks" else sizes)
