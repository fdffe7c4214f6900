"""Pair-partition diagrams on ordered ground sets and their crossing counts.

A diagram splits the positions 1..n into disjoint ordered pairs (i, j) with
i < j plus leftover singletons.  Pairs are stored sorted by left endpoint,
so the stored form is canonical and diagram equality is plain field
equality.  Every enumerator streams in the lexicographic order of the
stored pair tuples, which makes runs reproducible byte for byte.

All enumeration runs through one recursive walker, _walk.  It places one
pair at a time, always opening at the smallest free position, and carries
the crossing number c, the degenerate crossings d and the total gap g
along, so each diagram arrives with its statistics at O(1) extra cost per
pair.  It prunes instead of filtering: a block (or sign) mask stops a pair
from being placed at all, and a zero mode cuts a branch as soon as c, tc
or g turns positive.  The diagram sums in the wick module and the CLI
listing read the walker's tuples directly.  The enumerate_* generators
wrap it in validated FeynmanDiagram objects for library callers, and
crossing_stats stays the from-scratch reference definition of the
statistics, off the hot path, against which the tests check the walker.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .errors import DomainError, SizeLimitError

DEFAULT_CAP = 12
CAP_ENV_VAR = "QWICK_CAP"


def enumeration_cap() -> int:
    """Active ground-size bound for exhaustive enumeration.

    The default keeps full sweeps fast (10395 pairings and 140152
    pair/singleton diagrams at size 12); set the QWICK_CAP environment
    variable to override.
    """
    raw = os.environ.get(CAP_ENV_VAR)
    if not raw:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise DomainError(f"{CAP_ENV_VAR} must be a nonnegative integer, got {raw!r}")
    return cap


def ensure_within_cap(size: int, cap: int | None = None) -> None:
    limit = enumeration_cap() if cap is None else cap
    if size > limit:
        raise SizeLimitError(f"ground size {size} exceeds enumeration cap {limit}")


@dataclass(frozen=True)
class GroundSet:
    """Positions 1..size, optionally partitioned into consecutive blocks.

    A block structure is bookkeeping on top of the natural order: position
    labels and comparisons never change, the blocks only record which
    positions belong together.  Position p in block b at offset k carries
    the lexicographic label (b, k).
    """

    size: int
    blocks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise DomainError(f"ground size must be nonnegative, got {self.size}")
        if self.blocks is not None:
            blocks = tuple(int(b) for b in self.blocks)
            object.__setattr__(self, "blocks", blocks)
            if any(b <= 0 for b in blocks):
                raise DomainError(f"block sizes must be positive, got {blocks}")
            if sum(blocks) != self.size:
                raise DomainError(
                    f"block sizes {blocks} sum to {sum(blocks)}, expected {self.size}"
                )

    def positions(self) -> range:
        return range(1, self.size + 1)

    def block_of(self, pos: int) -> int:
        """1-based index of the block containing a position."""
        if self.blocks is None:
            raise DomainError("ground set has no block structure")
        upper = 0
        for b, width in enumerate(self.blocks, start=1):
            upper += width
            if pos <= upper:
                return b
        raise DomainError(f"position {pos} out of range for size {self.size}")

    def lex_labels(self) -> tuple[tuple[int, int], ...]:
        """(block, offset) label for each position, in position order."""
        if self.blocks is None:
            raise DomainError("ground set has no block structure")
        labels = []
        for b, width in enumerate(self.blocks, start=1):
            labels.extend((b, k) for k in range(1, width + 1))
        return tuple(labels)


@dataclass(frozen=True)
class FeynmanDiagram:
    """Disjoint ordered pairs on a ground set; unpaired positions are singletons."""

    ground: GroundSet
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        seen: set[int] = set()
        for i, j in pairs:
            if not 1 <= i < j <= self.ground.size:
                raise DomainError(
                    f"pair ({i},{j}) invalid on ground of size {self.ground.size}"
                )
            if i in seen or j in seen:
                raise DomainError(f"position reused across pairs: ({i},{j})")
            seen.update((i, j))

    @property
    def singletons(self) -> tuple[int, ...]:
        paired = {p for pair in self.pairs for p in pair}
        return tuple(p for p in self.ground.positions() if p not in paired)

    @property
    def is_complete(self) -> bool:
        return 2 * len(self.pairs) == self.ground.size

    def left_endpoints(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    def right_endpoints(self) -> tuple[int, ...]:
        return tuple(j for _, j in self.pairs)

    def to_json(self) -> dict:
        return {
            "size": self.ground.size,
            "blocks": list(self.ground.blocks) if self.ground.blocks else None,
            "pairs": [list(p) for p in self.pairs],
        }


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


@dataclass(frozen=True)
class SignSequence:
    """A +/-1 pattern marking creation (+1) and annihilation (-1) slots."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(e not in (1, -1) for e in entries):
            raise DomainError(f"sign entries must be +1 or -1, got {entries}")

    def __len__(self) -> int:
        return len(self.entries)

    def right_partial_sums(self) -> tuple[int, ...]:
        """sigma_k = entries[k-1] + ... + entries[-1], listed for k = 1..len."""
        sums = []
        total = 0
        for e in reversed(self.entries):
            total += e
            sums.append(total)
        return tuple(reversed(sums))


def catalan_check(eps: SignSequence) -> tuple[bool, tuple[int, ...]]:
    """Catalan test together with the full profile of right partial sums.

    The sequence passes when the running sum read from the right never dips
    below zero, starts with a strict rise (last entry +1) and closes at
    zero.  These are exactly the sign patterns whose operator words have a
    nonzero vacuum expectation.
    """
    if len(eps) % 2:
        raise DomainError(f"sign sequence length must be even, got {len(eps)}")
    sigma = eps.right_partial_sums()
    if not sigma:
        return True, sigma
    ok = sigma[-1] > 0 and all(s >= 0 for s in sigma[1:-1]) and sigma[0] == 0
    return ok, sigma


def catalan_sequences(length: int, cap: int | None = None):
    """All Catalan sign patterns of the given even length, in lexicographic
    order with -1 before +1."""
    if length % 2:
        raise DomainError(f"sign sequence length must be even, got {length}")
    ensure_within_cap(length, cap)
    for entries in itertools.product((-1, 1), repeat=length):
        seq = SignSequence(entries)
        ok, _ = catalan_check(seq)
        if ok:
            yield seq


def epsilon_of(diagram: FeynmanDiagram) -> SignSequence:
    """Sign pattern of a complete diagram: -1 on left endpoints, +1 on right."""
    if not diagram.is_complete:
        raise DomainError("sign pattern is defined for complete diagrams only")
    entries = [1] * diagram.ground.size
    for i, _ in diagram.pairs:
        entries[i - 1] = -1
    return SignSequence(tuple(entries))


def enumerate_diagrams(ground: GroundSet, cap: int | None = None):
    """Every partition of the ground positions into pairs and singletons.

    Streams each diagram exactly once, ordered lexicographically by the
    stored pair tuple; the all-singleton diagram comes first.
    """
    ensure_within_cap(ground.size, cap)
    for pairs, *_ in _walk(ground.size):
        yield FeynmanDiagram(ground, pairs)


def enumerate_complete(ground: GroundSet, cap: int | None = None):
    """Perfect pairings of the ground set; empty stream for odd size."""
    ensure_within_cap(ground.size, cap)
    for pairs, *_ in _walk(ground.size, complete_only=True):
        yield FeynmanDiagram(ground, pairs)


def enumerate_compatible(eps: SignSequence, cap: int | None = None):
    """Complete diagrams whose left endpoints sit exactly on the -1 entries
    of a Catalan sign pattern (and right endpoints on the +1 entries)."""
    ensure_within_cap(len(eps), cap)
    ok, _ = catalan_check(eps)
    if not ok:
        raise DomainError("sign sequence is not Catalan; no compatible pairings exist")
    ground = GroundSet(len(eps))
    for pairs, *_ in _walk(ground.size, complete_only=True, forbid=_sign_forbid(eps)):
        yield FeynmanDiagram(ground, pairs)


def enumerate_nonlinking(
    ground: GroundSet, complete_only: bool = False, cap: int | None = None
):
    """Diagrams with no pair inside a single block.

    Requires a block structure on the ground set.  With singleton blocks the
    restriction is vacuous and the stream equals the unrestricted enumeration.
    """
    if ground.blocks is None:
        raise DomainError("non-linking enumeration needs a block structure")
    ensure_within_cap(ground.size, cap)
    for pairs, *_ in _walk(ground.size, complete_only, _block_forbid(ground)):
        yield FeynmanDiagram(ground, pairs)


def _block_forbid(ground: GroundSet) -> tuple[int, ...]:
    """Walker partner masks that keep every pair across two blocks: entry p
    has the bits of all positions in the block of p (entry 0 is unused)."""
    masks = [0]
    for width in ground.blocks:
        masks += [((1 << width) - 1) << len(masks)] * width
    return tuple(masks)


def _sign_forbid(eps: SignSequence) -> tuple[int, ...]:
    """Walker partner masks of the diagrams compatible with a sign pattern:
    a -1 position pairs only with +1 positions, a +1 position opens no pair."""
    everything = (1 << (len(eps) + 1)) - 1
    minus = sum(1 << k for k, e in enumerate(eps.entries, start=1) if e == -1)
    return (0,) + tuple(minus if e == -1 else everything for e in eps.entries)


def _walk(
    size: int,
    complete_only: bool = False,
    forbid: tuple[int, ...] | None = None,
    zero: str | None = None,
):
    """Stream (pairs, singletons, c, d, g) for the diagrams on 1..size.

    The order is the lexicographic order of the pair tuples, the same as
    enumerate_diagrams (or enumerate_complete with complete_only).  Pairs are
    sorted by left endpoint and singletons ascend, so both are canonical
    as they come.  c, d and g are carried along the recursion and equal
    crossing_stats of the diagram.

    forbid, when given, is indexed by position: a pair (i, j) is never placed
    when bit j of forbid[i] is set.  zero ("c", "tc" or "g") keeps only the
    diagrams on which that statistic is 0; since all three only grow as
    pairs and singletons are placed, a branch is cut as soon as it turns
    positive, which is exactly the class filter.
    """
    return _place(tuple(range(1, size + 1)), complete_only, forbid, zero, (), (), 0, 0, 0, 0)


def _place(free, complete_only, forbid, zero, pairs, singles, rights, c, d, g):
    # free ascends.  The next pair takes i = free[a] as its left endpoint,
    # so free[:a] can never be paired later and fall out as singletons;
    # that is what keeps the output duplicate-free.  rights has bit r set
    # for every placed right endpoint r.  Every placed pair opens left of
    # any free position, so a placed pair contains position s exactly when
    # its right endpoint exceeds s.
    if not complete_only or not free:
        extra = sum((rights >> s).bit_count() for s in free) if rights else 0
        if not (extra and zero == "tc"):
            yield pairs, singles + free, c, d + extra, g
    stop = len(free) - 1
    if complete_only:
        stop = min(stop, 1)  # the smallest free position must be paired
    skipped = 0  # degenerate crossings of the singletons free[:a]
    for a in range(stop):
        i = free[a]
        if a:
            skipped += (rights >> free[a - 1]).bit_count()
            if skipped and zero == "tc":
                break
        barred = forbid[i] if forbid else 0
        for b in range(a + 1, len(free)):
            j = free[b]
            if barred >> j & 1:
                continue
            # placed right endpoints strictly between i and j
            cross = (rights >> i & ((1 << (j - i)) - 1)).bit_count()
            gap = j - i - 1
            if zero and (gap if zero == "g" else cross):
                break  # gap and cross only grow with j
            yield from _place(
                free[a + 1 : b] + free[b + 1 :],
                complete_only,
                forbid,
                zero,
                pairs + ((i, j),),
                singles + free[:a],
                rights | 1 << j,
                c + cross,
                d + skipped,
                g + gap,
            )
