"""Expansion-valued identities for q-Gaussian variables.

Moments, conversions between plain products and Wick products, the
creator/annihilator operator form of a Wick product, and products of Wick
products over block-partitioned index sets.  Every function returns exact
canonical data with q kept as a formal variable; specializing q is left to
the evaluator in the oracle module.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import (
    NORMAL,
    WICK,
    CovarianceMonomial,
    Expansion,
    QPolynomial,
    VariableWord,
    _canonical_term,
    accumulate_term,
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


@dataclass(frozen=True)
class OperatorWord:
    """Product of creation (+1) and annihilation (-1) operators on indexed vectors.

    letters[0] is the leftmost factor; application to a vector runs right to
    left.  Operator order is meaningful, so there is no canonical reordering.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        letters = tuple((int(s), int(i)) for s, i in self.letters)
        object.__setattr__(self, "letters", letters)
        if any(s not in (1, -1) for s, _ in letters):
            raise DomainError("operator signs must be +1 (create) or -1 (annihilate)")

    def __len__(self) -> int:
        return len(self.letters)

    def to_json(self) -> list[list[int]]:
        return [list(letter) for letter in self.letters]


@dataclass(frozen=True)
class WickOperatorForm:
    """Creator-then-annihilator operator sum of a Wick product.

    One summand per split of the variables into a creator set and an
    annihilator set (each listed increasingly), weighted by q raised to the
    number of creator/annihilator index inversions.  n variables give 2^n
    summands.
    """

    summands: tuple[tuple[OperatorWord, int], ...]

    def to_json(self) -> list[dict]:
        return [{"word": w.to_json(), "qpow": p} for w, p in self.summands]


def wick_operator_form(n: int, cap: int | None = None) -> WickOperatorForm:
    """Operator form of the Wick product of variables 1..n."""
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    ensure_within_cap(n, cap)
    universe = tuple(range(1, n + 1))
    summands = []
    for k in range(n, -1, -1):
        for creators in itertools.combinations(universe, k):
            annihilators = tuple(x for x in universe if x not in creators)
            inversions = sum(1 for i in creators for j in annihilators if i > j)
            letters = tuple((1, i) for i in creators) + tuple(
                (-1, j) for j in annihilators
            )
            summands.append((OperatorWord(letters), inversions))
    return WickOperatorForm(tuple(summands))


@functools.cache
def _q_power(exp: int, coeff: int) -> QPolynomial:
    # shared between terms and expansions: QPolynomial is never mutated
    return QPolynomial.q_power(exp, coeff)


def _diagram_sum(
    walk,
    kind: str,
    power: Callable[[int, int, int], int],
    signed: bool = False,
    labels=None,
) -> Expansion:
    """Sum over the walker's (pairs, singletons, c, d, g) stream: each diagram
    contributes its covariance factors and singleton word, times q to
    power(c, d, g), negated for an odd pair count when signed.  labels, when
    given, must be strictly increasing and maps position p to labels[p - 1]."""
    acc: dict = {}
    for pairs, singles, c, d, g in walk:
        if labels is not None:
            pairs = tuple((labels[i - 1], labels[j - 1]) for i, j in pairs)
            singles = tuple(labels[h - 1] for h in singles)
        coeff = -1 if signed and len(pairs) % 2 else 1
        cov, word = _canonical_term(pairs, singles, kind)
        accumulate_term(acc, cov, word, _q_power(power(c, d, g), coeff))
    return Expansion(acc)


def m_epsilon_expansion(eps: SignSequence, cap: int | None = None) -> Expansion:
    """Vacuum expectation of the signed operator word as a covariance sum.

    Zero for non-Catalan patterns; otherwise one scalar term per compatible
    complete diagram, weighted by q to its crossing number.
    """
    ok, _ = catalan_check(eps)
    if not ok:
        return Expansion.zero()
    ensure_within_cap(len(eps), cap)
    return _diagram_sum(_walk(len(eps), True, _sign_forbid(eps)), NORMAL, lambda c, d, g: c)


def moment_expansion(n: int, cap: int | None = None) -> Expansion:
    """Joint moment of n variables: complete diagrams weighted by q^crossings.

    Odd n gives the zero expansion.
    """
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got {n}")
    ensure_within_cap(n, cap)
    if n % 2:
        return Expansion.zero()
    return _diagram_sum(_walk(n, True), NORMAL, lambda c, d, g: c)


def wick_to_normal_word(indices: Sequence[int], cap: int | None = None) -> Expansion:
    """Wick product of the given (strictly increasing) variable indices as a
    signed sum of plain products: every diagram contributes its covariance
    factors and singleton word, with sign (-1)^pairs and power g - c."""
    indices = tuple(int(i) for i in indices)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise DomainError(f"variable indices must be strictly increasing, got {indices}")
    ensure_within_cap(len(indices), cap)
    n = len(indices)
    labels = None if indices == tuple(range(1, n + 1)) else indices
    return _diagram_sum(_walk(n), NORMAL, lambda c, d, g: g - c, signed=True, labels=labels)


def wick_to_normal(n: int, cap: int | None = None) -> Expansion:
    """Wick product of variables 1..n expanded into plain products."""
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    return wick_to_normal_word(range(1, n + 1), cap=cap)


def wick_recursive(n: int, cap: int | None = None) -> Expansion:
    """Wick product of 1..n via the peel-the-first-variable recursion.

    Must agree term for term with wick_to_normal; kept as an independent
    construction so the two routes check each other.
    """
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    ensure_within_cap(n, cap)
    return _wick_recursive(tuple(range(1, n + 1)))


def _wick_recursive(indices: tuple[int, ...]) -> Expansion:
    if not indices:
        return Expansion.identity()
    head, rest = indices[0], indices[1:]
    acc: dict = {}
    # multiplying by the field of the head variable on the left prepends it
    # to every plain word
    for (cov, word), poly in _wick_recursive(rest).terms.items():
        accumulate_term(acc, cov, VariableWord((head,) + word.indices, NORMAL), poly)
    for pos, other in enumerate(rest):
        trimmed = rest[:pos] + rest[pos + 1 :]
        factor = QPolynomial.q_power(pos, -1)
        cov_head = CovarianceMonomial(((head, other),))
        for (cov, word), poly in _wick_recursive(trimmed).terms.items():
            accumulate_term(acc, cov_head * cov, word, poly * factor)
    return Expansion(acc)


def normal_to_wick(n: int, cap: int | None = None) -> Expansion:
    """Plain product of variables 1..n as a sum of Wick-tagged terms, with
    power the total crossing number and no sign factor."""
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    ensure_within_cap(n, cap)
    return _diagram_sum(_walk(n), WICK, lambda c, d, g: c + d)


def wick_substitution_rules(
    e: Expansion, cap: int | None = None
) -> dict[VariableWord, Expansion]:
    """Normal-product rewrite rule for every Wick word occurring in e."""
    return {word: wick_to_normal_word(word.indices, cap=cap) for word in e.wick_words()}


def _block_ground(blocks: Sequence[int]) -> GroundSet:
    blocks = tuple(int(b) for b in blocks)
    if not blocks:
        raise DomainError("at least one block is required")
    return GroundSet(sum(blocks), blocks)


def product_expectation(blocks: Sequence[int], cap: int | None = None) -> Expansion:
    """Expectation of a product of Wick products, one per block.

    Positions are the block elements in lexicographic order, relabelled
    1..total; the sum runs over complete diagrams that never pair two
    positions of the same block, weighted by q^crossings.
    """
    ground = _block_ground(blocks)
    ensure_within_cap(ground.size, cap)
    return _diagram_sum(
        _walk(ground.size, True, _block_forbid(ground)), NORMAL, lambda c, d, g: c
    )


def product_expansion(blocks: Sequence[int], cap: int | None = None) -> Expansion:
    """Product of Wick products, one per block, expanded into Wick terms.

    Runs over all non-linking diagrams (singletons allowed), each carrying a
    Wick-tagged singleton word and the power tc = crossings + degenerate.
    """
    ground = _block_ground(blocks)
    ensure_within_cap(ground.size, cap)
    return _diagram_sum(
        _walk(ground.size, False, _block_forbid(ground)), WICK, lambda c, d, g: c + d
    )


# Free specializations: the same sums restricted by diagram class instead of
# by killing q-powers afterwards.  Each must coincide with specialize_free of
# its general counterpart.  The walker keeps exactly the class (c = 0,
# g = 0 or tc = 0) by cutting every branch on which the statistic has
# turned positive.

def free_moment_expansion(n: int, cap: int | None = None) -> Expansion:
    """Moment at q = 0: complete noncrossing diagrams only."""
    if n < 0:
        raise DomainError(f"moment order must be nonnegative, got {n}")
    ensure_within_cap(n, cap)
    if n % 2:
        return Expansion.zero()
    return _diagram_sum(_walk(n, True, zero="c"), NORMAL, lambda c, d, g: 0)


def free_wick_to_normal(n: int, cap: int | None = None) -> Expansion:
    """Wick product at q = 0: gap-free diagrams only, signs retained."""
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    ensure_within_cap(n, cap)
    return _diagram_sum(_walk(n, zero="g"), NORMAL, lambda c, d, g: 0, signed=True)


def free_normal_to_wick(n: int, cap: int | None = None) -> Expansion:
    """Plain product at q = 0: strongly noncrossing diagrams only."""
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    ensure_within_cap(n, cap)
    return _diagram_sum(_walk(n, zero="tc"), WICK, lambda c, d, g: 0)


def free_product_expectation(blocks: Sequence[int], cap: int | None = None) -> Expansion:
    """Product expectation at q = 0: noncrossing complete non-linking diagrams."""
    ground = _block_ground(blocks)
    ensure_within_cap(ground.size, cap)
    return _diagram_sum(
        _walk(ground.size, True, _block_forbid(ground), zero="c"), NORMAL, lambda c, d, g: 0
    )


def free_product_expansion(blocks: Sequence[int], cap: int | None = None) -> Expansion:
    """Product of Wick products at q = 0: strongly noncrossing non-linking diagrams."""
    ground = _block_ground(blocks)
    ensure_within_cap(ground.size, cap)
    return _diagram_sum(
        _walk(ground.size, False, _block_forbid(ground), zero="tc"), WICK, lambda c, d, g: 0
    )
