"""Expansion-valued identities for q-Gaussian variables.

Moments, vacuum expectations of signed creation/annihilation words,
conversions between plain products and Wick products, and products of Wick
products over block-partitioned index sets.  The diagram-sum identities
are the rows of one table, IDENTITIES, and each row also states its left
side, the words it expands.  A row takes a ground size, block sizes or a
sign pattern, and the walker's mask follows from that argument kind.  A row
is reached by its name and nothing else: terms(name, arg) streams its
terms from the diagram walker, expand(name, arg) sums them into an
Expansion, and free=True gives the q = 0 form as a class filter.
normal_form rewrites the Wick words of an expansion by the peeling
recursion, without the walker, so it is an independent second route to
each row that is neither complete nor blocked: the rewrite of the row's
diagram sum must equal the rewrite of its left word.  Every function returns exact canonical data
with q kept as a formal variable; specializing q is left to the oracle
module, fock, which defines the Wick product on its own and is not
imported here.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import (
    NORMAL,
    WICK,
    Expansion,
    OperatorWord,
    QPolynomial,
    VariableWord,
    _exact,
    _integer,
    _sequence,
    _typed,
)
from .diagrams import (
    DEFAULT_CAP,
    GroundSet,
    SignSequence,
    _block_forbid,
    _sign_forbid,
    _walk,
    ensure_within_cap,
)
from .errors import DomainError


# (exp, coeff) -> coeff * q^exp, shared between terms and expansions:
# a QPolynomial is never mutated
_q_power = functools.cache(QPolynomial.q_power)


def _diagram_sum(stream) -> Expansion:
    """Sum a term stream (as from terms) into an expansion; the stream yields
    every key once and canonical (see _row_terms), and its (pairs,
    singletons, kind) is the expansion's key, so nothing is merged, checked
    or converted."""
    return Expansion._trusted({(p, s, k): _q_power(e, c) for p, s, k, e, c in stream})


def _normal_expansion(done: dict) -> Expansion:
    """The expansion of a {(factors, word, exp): coeff} map of normal words, less its zeros."""
    terms: dict = {}
    for (factors, word, exp), coeff in done.items():
        if coeff:
            terms.setdefault((factors, word, NORMAL), {})[exp] = _exact(coeff)
    return Expansion._trusted({key: QPolynomial._trusted(c) for key, c in terms.items()})


@dataclass(frozen=True)
class Identity:
    """One diagram-sum identity, stated as data.

    on names the argument the row takes: a ground size n ("size"), block
    sizes ("blocks") or a +/-1 sign pattern ("pattern").  The row's left
    side is one word of kind left per block, over consecutive variables (a
    size row has the one block 1..n): the block elements in lexicographic
    order, relabelled 1..total.  A pattern row's left side, of kind
    "operator", is the one OperatorWord of its pattern on variables
    1..len, creating at the +1 and annihilating at the -1 slots.
    left_words builds it, and the oracle applies it to the vacuum, keeping
    only the vacuum coefficient when complete is set.  The sum runs over
    all diagrams on the ground set (complete ones only when complete is
    set, so an odd ground size gives zero; with blocks, only the
    non-linking ones, which pair no two positions of one block; with a
    pattern, only the compatible ones, which open each pair at a -1 and
    close it at a +1, so a pattern that is not Catalan gives zero).  Each
    diagram contributes its covariance factors and a singleton word of the
    given kind, times q to power(c, d, g) of its crossings c, degenerate
    crossings d and total gap g, negated for an odd pair count when signed.
    zero names the statistic ("c", "g" or "tc" = c + d) whose vanishing
    class gives the q = 0 form; power is 0 on that class, so the free sum
    is the same sum restricted by diagram class.
    """

    left: str
    kind: str
    complete: bool
    power: Callable[[int, int, int], int]
    zero: str
    signed: bool = False
    on: str = "size"

    def left_words(self, arg) -> tuple[VariableWord | OperatorWord, ...]:
        """The left side on arg, taken as for terms."""
        if self.on == "pattern":
            return (OperatorWord(tuple(zip(SignSequence(arg), itertools.count(1)))),)
        blocks = arg if self.on == "blocks" else (arg,)
        ends = itertools.accumulate(blocks)
        return tuple(
            VariableWord(range(end - w + 1, end + 1), self.left) for w, end in zip(blocks, ends)
        )


IDENTITIES = {
    "moment": Identity(NORMAL, NORMAL, True, lambda c, d, g: c, "c"),
    "wick-to-normal": Identity(WICK, NORMAL, False, lambda c, d, g: g - c, "g", signed=True),
    "normal-to-wick": Identity(NORMAL, WICK, False, lambda c, d, g: c + d, "tc"),
    "product-expectation": Identity(WICK, NORMAL, True, lambda c, d, g: c, "c", on="blocks"),
    "product-expansion": Identity(WICK, WICK, False, lambda c, d, g: c + d, "tc", on="blocks"),
    "operator-moment": Identity("operator", NORMAL, True, lambda c, d, g: c, "c", on="pattern"),
}


def terms(name: str, arg, free: bool = False, cap: int | None = None):
    """The term stream of the identity IDENTITIES[name] on arg: a ground size,
    block sizes or a sign pattern, as the row's on says.  The argument and
    the cap are checked here, before the stream is returned.

    With free set, the q = 0 form: the walker keeps only the row's zero
    class, cutting each branch on which that statistic has turned positive.
    See _row_terms for what the stream yields.
    """
    try:
        row = IDENTITIES[name]
    except (KeyError, TypeError):
        names = ", ".join(sorted(IDENTITIES))
        raise DomainError(f"unknown identity {name!r}; expected one of {names}") from None
    if row.on == "blocks":
        blocks = tuple(_integer(b, "block size") for b in _sequence(arg, "block sizes"))
        ground = GroundSet(sum(blocks), blocks)
    elif row.on == "pattern":
        arg = SignSequence(arg)
        ground = GroundSet(len(arg))
    else:
        ground = GroundSet(arg)
    ensure_within_cap(ground.size, cap)
    forbid = _sign_forbid(arg) if row.on == "pattern" else ground.blocks and _block_forbid(ground)
    walk = _walk(ground.size, row.complete, forbid, row.zero if free else None)
    return _row_terms(row, walk)


def _row_terms(row: Identity, walk):
    """Apply a row's term rule to the walker's (pairs, singletons, c, d, g)
    stream, yielding (pairs, singletons, kind, exp, coeff): the diagram's
    term is coeff * q^exp times its covariance factors and singleton word.
    coeff is -1 for an odd pair count when the row is signed and 1
    otherwise; the empty word is always normal.

    (pairs, singletons, kind) is the Expansion key of the term as it stands:
    the pairs come sorted with i < j and the singletons increasing.  Each
    diagram gives its own key, since the singletons follow from the pairs,
    and the walker's lexicographic order of pair tuples is the order of
    Expansion.sorted_terms, so the stream is the expansion term by term.
    """
    kind, power, signed = row.kind, row.power, row.signed
    for pairs, singles, c, d, g in walk:
        coeff = -1 if signed and len(pairs) % 2 else 1
        yield pairs, singles, kind if singles else NORMAL, power(c, d, g), coeff


def expand(name: str, arg, free: bool = False, cap: int | None = None) -> Expansion:
    """The identity IDENTITIES[name] on arg as an expansion; the arguments
    are as for terms."""
    return _diagram_sum(terms(name, arg, free, cap))


def _increasing(indices: Sequence[int]) -> tuple[int, ...]:
    indices = tuple(_integer(i, "variable index") for i in indices)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise DomainError(f"variable indices must be strictly increasing, got {indices}")
    return indices


def normal_form(e: Expansion, cap: int | None = None) -> Expansion:
    """e with every Wick-tagged word rewritten into plain products by the peeling
    recursion; normal terms pass through, and an e with no Wick word is e itself.

    Before any rewrite, one pass checks that each Wick word increases (its
    indices are distinct, so sorted ones do) and stays within cap; only if
    one fails, or cap is not a plain int, are they checked again in sorted
    order, so that the first fault in that order is raised.  A term is held
    as factors * prefix * :rest:, with a plain prefix, on a flat (factors,
    prefix, exp) key, and in round t every term whose rest is (t,) + r becomes

        prefix t :r:  -  sum over pos of q^pos c(t, r[pos]) prefix :r without r[pos]:

    Each image joins the terms of a later round, or the result once its
    rest has at most one variable, so terms merge, and cancel, as they go.
    """
    _typed(e, "e", Expansion)
    words = [indices for _, indices, kind in e.terms if kind == WICK]
    if not words:
        return e
    limit = DEFAULT_CAP if cap is None else cap
    if type(limit) is not int or any(len(w) > limit or list(w) != sorted(w) for w in words):
        for indices in sorted(words):
            ensure_within_cap(len(_increasing(indices)), cap)
    done: dict = {}  # (factors, word, exp) -> coeff, as every output word is normal
    waiting = collections.defaultdict(dict)  # t -> rest (t, ...) -> (factors, prefix, exp) -> coeff
    for (factors, indices, kind), poly in e.terms.items():
        if kind == WICK and len(indices) > 1:
            group = waiting[indices[0]].setdefault(indices, {})
            for exp, c in poly.coeffs.items():
                group[factors, (), exp] = c
        else:
            for exp, c in poly.coeffs.items():
                done[factors, indices, exp] = done.get((factors, indices, exp), 0) + c
    while waiting:
        for rest, group in waiting.pop(min(waiting)).items():
            if not (live := [item for item in group.items() if item[1]]):
                continue  # every term here has cancelled, so it has no images
            t, r = rest[0], rest[1:]
            # the image t :r:, whose prefix gains t; factors and power stay
            bucket = waiting[r[0]].setdefault(r, {}) if len(r) > 1 else done
            tail = (t,) if len(r) > 1 else (t,) + r
            for (factors, prefix, exp), c in live:
                key = factors, prefix + tail, exp
                bucket[key] = bucket.get(key, 0) + c
            for pos, u in enumerate(r):  # the image c(t, u) :r without u: times -q^pos
                pair, kept = (t, u), r[:pos] + r[pos + 1 :]
                bucket = waiting[kept[0]].setdefault(kept, {}) if len(kept) > 1 else done
                tail = () if len(kept) > 1 else kept
                for (factors, prefix, exp), c in live:
                    joined = factors + (pair,)
                    if factors and factors[-1] > pair:
                        joined = tuple(sorted(joined))
                    key = joined, prefix + tail, exp + pos
                    bucket[key] = bucket.get(key, 0) - c
    return _normal_expansion(done)
