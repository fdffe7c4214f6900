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
pair.  A pair's crossings are a difference of two popcounts over the
placed right endpoints, and the degenerate crossings that the free
positions would add as singletons (d's free-tail term) are carried down
the recursion, updated by the same popcounts.  A diagram that leaves no
pair to place is yielded by its parent call without a call of its own.
The walker prunes instead of filtering: a block (or sign) mask stops a
pair from being placed at all, and a zero mode cuts a branch as soon as
c, tc or g turns positive.  The diagram sums in the wick module and the
CLI listing read the walker's tuples directly, and the enumerate_*
generators wrap it in validated FeynmanDiagram objects for library
callers.  The from-scratch definitions of the statistics, which the tests
check the walker against, live with the tests in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _integer, _pairs, _sequence
from .errors import DomainError, SizeLimitError

# enumeration bound when no cap is given: 10395 pairings, 140152 diagrams at 12
DEFAULT_CAP = 12


def ensure_within_cap(size: int, cap: int | None = None) -> None:
    """SizeLimitError past cap (DEFAULT_CAP if None); DomainError for a bad cap."""
    limit = DEFAULT_CAP if cap is None else _integer(cap, "cap")
    if limit < 0:
        raise DomainError(f"cap must be a nonnegative integer, got {cap}")
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
        object.__setattr__(self, "size", _integer(self.size, "ground size"))
        if self.size < 0:
            raise DomainError(f"ground size must be nonnegative, got {self.size}")
        if self.blocks is not None:
            blocks = tuple(_integer(b, "block size") for b in _sequence(self.blocks, "blocks"))
            object.__setattr__(self, "blocks", blocks)
            if not blocks:
                raise DomainError("at least one block is required")
            if any(b <= 0 for b in blocks):
                raise DomainError(f"block sizes must be positive, got {blocks}")
            if sum(blocks) != self.size:
                raise DomainError(
                    f"block sizes {blocks} sum to {sum(blocks)}, expected {self.size}"
                )

    def positions(self) -> range:
        return range(1, self.size + 1)

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
        if not isinstance(self.ground, GroundSet):
            raise DomainError(f"ground must be a GroundSet, got {self.ground!r}")
        pairs = _pairs(self.pairs, "pairs", "pair")
        pairs = tuple(sorted((_integer(i, "position"), _integer(j, "position")) for i, j in pairs))
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

    def to_json(self) -> dict:
        return {
            "size": self.ground.size,
            "blocks": list(self.ground.blocks) if self.ground.blocks else None,
            "pairs": [list(p) for p in self.pairs],
        }


@dataclass(frozen=True)
class SignSequence:
    """A +/-1 pattern marking creation (+1) and annihilation (-1) slots."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(_integer(e, "sign entry") for e in _sequence(self.entries, "sign entries"))
        object.__setattr__(self, "entries", entries)
        if any(e not in (1, -1) for e in entries):
            raise DomainError(f"sign entries must be +1 or -1, got {entries}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def right_partial_sums(self) -> tuple[int, ...]:
        """sigma_k = entries[k-1] + ... + entries[-1], listed for k = 1..len."""
        sums = []
        total = 0
        for e in reversed(self.entries):
            total += e
            sums.append(total)
        return tuple(reversed(sums))


def catalan_check(eps) -> tuple[bool, tuple[int, ...]]:
    """Catalan test together with the full profile of right partial sums.

    eps is a SignSequence or any sequence of +/-1.  It passes when the
    running sum read from the right never dips below zero, starts with a
    strict rise (last entry +1) and closes at zero.  These are exactly the
    sign patterns whose operator words have a nonzero vacuum expectation.
    """
    eps = SignSequence(eps)
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
    length = _integer(length, "sign sequence length")
    if length < 0:
        raise DomainError(f"sign sequence length must be nonnegative, got {length}")
    if length % 2:
        raise DomainError(f"sign sequence length must be even, got {length}")
    ensure_within_cap(length, cap)
    # place each sign only while a Catalan completion remains: read from the
    # left, a -1 opens and a +1 closes, and what is open must close in time
    prefixes = [((), 0)]  # (entries, open count), in lexicographic order
    for left in range(length - 1, -1, -1):  # entries still to place after this one
        prefixes = [
            (entries + (e,), opened - e)
            for entries, opened in prefixes
            for e in (-1, 1)
            if 0 <= opened - e <= left
        ]
    for entries, _ in prefixes:
        yield SignSequence(entries)


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


def enumerate_compatible(eps, cap: int | None = None):
    """Complete diagrams whose left endpoints sit exactly on the -1 entries
    of a Catalan sign pattern (and right endpoints on the +1 entries); eps
    is a SignSequence or any sequence of +/-1."""
    eps = SignSequence(eps)
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
    the from-scratch crossing_stats of tests/reference.py: a pair's
    crossings and d's free-tail term come from popcount differences, never
    from a scan, and a diagram with fewer than two free positions left is
    yielded by the call that placed its last pair.

    forbid, when given, is indexed by position: a pair (i, j) is never placed
    when bit j of forbid[i] is set.  zero ("c", "tc" or "g") keeps only the
    diagrams on which that statistic is 0; since all three only grow as
    pairs and singletons are placed, a branch is cut as soon as it turns
    positive, which is exactly the class filter.
    """
    return _place(tuple(range(1, size + 1)), complete_only, forbid, zero, (), (), 0, 0, 0, 0, 0)


def _place(free, complete_only, forbid, zero, pairs, singles, rights, c, d, g, extra):
    # free ascends.  The next pair takes i = free[a] as its left endpoint,
    # so free[:a] can never be paired later and fall out as singletons;
    # that is what keeps the output duplicate-free.  rights has bit r set
    # for every placed right endpoint r.  Every placed pair opens left of
    # any free position, so a placed pair contains position s exactly when
    # its right endpoint exceeds s, and above(s) = (rights >> s).bit_count()
    # counts those pairs.  extra, the sum of above(s) over free, is the
    # degenerate crossings that free would add as singletons.
    if not complete_only or not free:
        if not (extra and zero == "tc"):
            yield pairs, singles + free, c, d + extra, g
    size = len(free)
    stop = size - 1
    if complete_only:
        stop = min(stop, 1)  # the smallest free position must be paired
    skipped = 0  # degenerate crossings of the singletons free[:a]
    for a in range(stop):
        if skipped and zero == "tc":
            break
        i = free[a]
        above_i = (rights >> i).bit_count()
        lone = singles + free[:a]
        barred = forbid[i] if forbid else 0
        # the child's extra is extra - skipped - above(i) - above(j), plus
        # b - a - 1 for the free positions that the new pair contains
        base = extra - skipped - above_i - a - 1
        childless = size - a < 4  # fewer than 2 free positions left: no pair
        for b in range(a + 1, size):
            j = free[b]
            if barred >> j & 1:
                continue
            above_j = (rights >> j).bit_count()
            cross = above_i - above_j  # placed right endpoints inside (i, j)
            gap = j - i - 1
            if zero and (gap if zero == "g" else cross):
                break  # gap and cross only grow with j
            rest = free[a + 1 : b] + free[b + 1 :]
            rest_extra = base - above_j + b
            if childless:  # the child would yield only itself: yield it here
                if (not complete_only or not rest) and not (rest_extra and zero == "tc"):
                    yield (
                        pairs + ((i, j),),
                        lone + rest,
                        c + cross,
                        d + skipped + rest_extra,
                        g + gap,
                    )
                continue
            yield from _place(
                rest,
                complete_only,
                forbid,
                zero,
                pairs + ((i, j),),
                lone,
                rights | 1 << j,
                c + cross,
                d + skipped,
                g + gap,
                rest_extra,
            )
        skipped += above_i
