"""Expansion-valued identities for q-Gaussian variables.

Moments, conversions between plain products and Wick products, and
products of Wick products over block-partitioned index sets.  The
diagram-sum identities are the rows of one table, IDENTITIES, and each row
also states its left side, the words it expands; terms streams a row's
terms from the diagram walker, expand sums them into an Expansion, and
free=True gives the q = 0 form as a class filter.  normal_form rewrites
the Wick words of an expansion by the peeling recursion, without the
walker, so it is an independent second route to each row that is neither
complete nor blocked: the rewrite of the row's diagram sum must equal the
rewrite of its left word.  Every function returns exact canonical data
with q kept as a formal variable; specializing q is left to the oracle
module, fock, which defines the Wick product on its own and is not
imported here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import (
    NORMAL,
    WICK,
    Expansion,
    QPolynomial,
    VariableWord,
    _exact,
    _integer,
)
from .diagrams import (
    GroundSet,
    SignSequence,
    _block_forbid,
    _sign_forbid,
    _walk,
    catalan_check,
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


def _normal_expansion(sums: dict) -> Expansion:
    """The expansion of {(factors, indices): {exp: coeff}} sums of normal words
    on canonical parts, dropping zero coefficients and empty terms."""
    out: dict = {}
    for (factors, indices), coeffs in sums.items():
        coeffs = {exp: _exact(val) for exp, val in coeffs.items() if val}
        if coeffs:
            out[factors, indices, NORMAL] = QPolynomial._trusted(coeffs)
    return Expansion._trusted(out)


@dataclass(frozen=True)
class Identity:
    """One diagram-sum identity, stated as data.

    The row's left side is one word of kind left per block, over
    consecutive variables (a row without blocks has the one block 1..n);
    left_words builds it, and the oracle applies it to the vacuum, keeping
    only the vacuum coefficient when complete is set.  The sum runs over
    all diagrams on the ground set (complete ones only when complete is
    set; with blocks, only those pairing no two positions of one block).
    Each diagram contributes its covariance factors and a singleton word of
    the given kind, times q to power(c, d, g), negated for an odd pair count
    when signed.  zero names the statistic ("c", "g" or "tc") whose
    vanishing class gives the q = 0 form; power is 0 on that class, so the
    free sum is the same sum restricted by diagram class.
    """

    left: str
    kind: str
    complete: bool
    power: Callable[[int, int, int], int]
    zero: str
    signed: bool = False
    blocks: bool = False

    def left_words(self, arg) -> tuple[VariableWord, ...]:
        """The left side on arg, a ground size or block sizes as for terms."""
        blocks = arg if self.blocks else (arg,)
        ends = itertools.accumulate(blocks)
        return tuple(
            VariableWord(range(end - w + 1, end + 1), self.left) for w, end in zip(blocks, ends)
        )


IDENTITIES = {
    "moment": Identity(NORMAL, NORMAL, True, lambda c, d, g: c, "c"),
    "wick-to-normal": Identity(WICK, NORMAL, False, lambda c, d, g: g - c, "g", signed=True),
    "normal-to-wick": Identity(NORMAL, WICK, False, lambda c, d, g: c + d, "tc"),
    "product-expectation": Identity(WICK, NORMAL, True, lambda c, d, g: c, "c", blocks=True),
    "product-expansion": Identity(WICK, WICK, False, lambda c, d, g: c + d, "tc", blocks=True),
}


def terms(name: str, arg, free: bool = False, cap: int | None = None):
    """The term stream of the identity IDENTITIES[name] on arg: a ground size,
    or block sizes for a row with blocks.  The ground set, blocks and cap are
    checked here, before the stream is returned.

    With free set, the q = 0 form: the walker keeps only the row's zero
    class, cutting each branch on which that statistic has turned positive.
    See _row_terms for what the stream yields.
    """
    row = IDENTITIES[name]
    if row.blocks:
        blocks = tuple(_integer(b, "block size") for b in arg)
        ground = GroundSet(sum(blocks), blocks)
    else:
        ground = GroundSet(arg)
    ensure_within_cap(ground.size, cap)
    forbid = _block_forbid(ground) if row.blocks else None
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


def m_epsilon_expansion(eps: SignSequence, cap: int | None = None) -> Expansion:
    """Vacuum expectation of the signed operator word as a covariance sum.

    Zero for non-Catalan patterns; otherwise one scalar term per compatible
    complete diagram, weighted by q to its crossing number.
    """
    ok, _ = catalan_check(eps)
    if not ok:
        return Expansion.zero()
    ensure_within_cap(len(eps), cap)
    row = IDENTITIES["moment"]
    return _diagram_sum(_row_terms(row, _walk(len(eps), row.complete, _sign_forbid(eps))))


def moment_expansion(n: int, cap: int | None = None, free: bool = False) -> Expansion:
    """Joint moment of n variables: complete diagrams weighted by q^crossings
    (zero for odd n); with free, the complete noncrossing diagrams only."""
    return expand("moment", n, free, cap)


def _increasing(indices: Sequence[int]) -> tuple[int, ...]:
    indices = tuple(_integer(i, "variable index") for i in indices)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise DomainError(f"variable indices must be strictly increasing, got {indices}")
    return indices


def wick_to_normal(n: int, cap: int | None = None, free: bool = False) -> Expansion:
    """Wick product of variables 1..n expanded into plain products; with
    free, the gap-free diagrams only, signs retained."""
    return expand("wick-to-normal", n, free, cap)


def normal_to_wick(n: int, cap: int | None = None, free: bool = False) -> Expansion:
    """Plain product of variables 1..n as a sum of Wick-tagged terms, with
    power the total crossing number and no sign factor; with free, the
    strongly noncrossing diagrams only."""
    return expand("normal-to-wick", n, free, cap)


def normal_form(e: Expansion, cap: int | None = None) -> Expansion:
    """e with every Wick-tagged word rewritten into plain products by the
    peeling recursion; normal terms pass through unchanged, and an e with
    no Wick-tagged term is returned as it is, since a canonical expansion
    of normal words is its own normal form.

    Every Wick word is checked, in sorted order, before the first is
    rewritten: its indices must increase strictly and their count stay
    within cap.  A term is held as factors * prefix * :rest:, with a plain
    prefix, and terms are peeled by global position: in round t, every term
    whose rest is (t,) + r becomes

        prefix t :r:  -  sum over pos of q^pos c(t, r[pos]) prefix :r without r[pos]:

    Each image joins the terms of a later round, or the result once its
    rest has at most one variable, so terms merge, and cancel, as they go.
    """
    if all(kind != WICK for _, _, kind in e.terms):
        return e
    done: dict = {}  # (factors, word) -> {exp: coeff}, as every output word is normal
    waiting: dict = {}  # t -> rest -> (factors, prefix) -> {exp: coeff}, for rests (t, ...)
    for (factors, indices, kind), poly in e.terms.items():
        if kind == WICK and len(indices) > 1:
            group = waiting.setdefault(indices[0], {}).setdefault(indices, {})
            group[factors, ()] = dict(poly.coeffs)
        else:
            acc = done.setdefault((factors, indices), {})
            for k, c in poly.coeffs.items():
                acc[k] = acc.get(k, 0) + c
    for indices in sorted(key[1] for key in e.terms if key[2] == WICK):
        ensure_within_cap(len(_increasing(indices)), cap)
    while waiting:
        t = min(waiting)
        for rest, group in waiting.pop(t).items():
            r = rest[1:]
            live = [(key, [i for i in coeffs.items() if i[1]]) for key, coeffs in group.items()]
            live = [(key, items) for key, items in live if items]  # cancelled terms stop here
            # (pair, tail, trimmed, shift, sign): an image gains the factor pair,
            # appends tail to its prefix, has Wick rest trimmed and weight sign * q^shift
            images = [(None, (t,), r, 0, 1)]
            images += [((t, u), (), r[:pos] + r[pos + 1 :], pos, -1) for pos, u in enumerate(r)]
            for pair, tail, trimmed, shift, sign in images:
                if len(trimmed) > 1:
                    bucket = waiting.setdefault(trimmed[0], {}).setdefault(trimmed, {})
                else:
                    bucket, tail = done, tail + trimmed
                for (factors, prefix), items in live:
                    if pair:
                        factors = tuple(sorted(factors + (pair,)))
                    acc = bucket.setdefault((factors, prefix + tail), {})
                    for k, c in items:
                        acc[k + shift] = acc.get(k + shift, 0) + sign * c
    return _normal_expansion(done)


def product_expectation(
    blocks: Sequence[int], cap: int | None = None, free: bool = False
) -> Expansion:
    """Expectation of a product of Wick products, one per block.

    Positions are the block elements in lexicographic order, relabelled
    1..total; the sum runs over complete diagrams that never pair two
    positions of the same block, weighted by q^crossings.  With free, the
    noncrossing ones only.
    """
    return expand("product-expectation", blocks, free, cap)


def product_expansion(
    blocks: Sequence[int], cap: int | None = None, free: bool = False
) -> Expansion:
    """Product of Wick products, one per block, expanded into Wick terms.

    Runs over all non-linking diagrams (singletons allowed), each carrying a
    Wick-tagged singleton word and the power tc = crossings + degenerate.
    With free, the strongly noncrossing ones only.
    """
    return expand("product-expansion", blocks, free, cap)
