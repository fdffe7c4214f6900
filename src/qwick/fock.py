"""Brute-force ground truth on a truncated q-deformed tensor algebra.

A basis word is a tuple over 1..dim; vectors are finitely supported
rational combinations of basis words up to the configured tensor degree.
Creation prepends, annihilation deletes with weights q^(position-1) times
the matching coordinate, and the inner product is the explicit permutation
sum with the inversion statistic.  A Wick product acts through its own
2^n-summand operator form.  Nothing here comes from the diagram layer (wick,
diagrams), so this is a second route to every identity computed there.
All arithmetic is fractions.Fraction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .algebra import NORMAL, Expansion, Rational
from .errors import DomainError, SizeLimitError, TruncationOverflowError

PERMUTATION_CAP = 8
# largest basis of one Gram matrix: its dim^degree squared entries are each a
# permutation sum, so the cost grows far faster than the word count
GRAM_WORD_CAP = 100
# most variables in one Wick product's operator form, which has 2^n summands
WICK_FORM_CAP = 12


@dataclass(frozen=True)
class FockParams:
    """Oracle configuration: one-particle dimension, degree cutoff, rational q.

    The cutoff is a hard wall: pushing a vector past it raises instead of
    silently projecting, so algebraic identities survive truncation intact.
    """

    dim: int
    level: int
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.dim < 1:
            raise DomainError(f"one-particle dimension must be positive, got {self.dim}")
        if self.level < 1:
            raise DomainError(f"tensor degree cutoff must be >= 1, got {self.level}")


@dataclass(frozen=True)
class OneParticleVector:
    """Element of the rational one-particle space, as coordinates over the basis."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def dot(self, other: OneParticleVector) -> Fraction:
        if len(self.coords) != len(other.coords):
            raise DomainError("dot product needs vectors of equal dimension")
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))


VectorLike = Union[OneParticleVector, Sequence[Rational]]


def as_vector(f: VectorLike, dim: int) -> OneParticleVector:
    if not isinstance(f, OneParticleVector):
        f = OneParticleVector(tuple(f))
    if len(f.coords) != dim:
        raise DomainError(f"vector has {len(f.coords)} coordinates, expected {dim}")
    return f


def dot(f: VectorLike, g: VectorLike) -> Fraction:
    """Exact dot product; the one-particle space is real, so this is symmetric."""
    fv = f if isinstance(f, OneParticleVector) else OneParticleVector(tuple(f))
    gv = g if isinstance(g, OneParticleVector) else OneParticleVector(tuple(g))
    return fv.dot(gv)


class FockVector:
    """Finitely supported rational combination of basis words.

    entries maps a word (tuple over 1..dim) to a nonzero Fraction; the empty
    word is the vacuum.  Treated as an immutable value.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, ...], Rational] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if entries:
            for word, val in entries.items():
                val = Fraction(val)
                if val:
                    clean[tuple(word)] = val
        self.entries = clean

    @classmethod
    def zero(cls) -> FockVector:
        return cls()

    @classmethod
    def vacuum(cls) -> FockVector:
        return cls({(): 1})

    def coefficient(self, word) -> Fraction:
        return self.entries.get(tuple(word), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: FockVector) -> FockVector:
        if not isinstance(other, FockVector):
            return NotImplemented
        merged = dict(self.entries)
        for word, val in other.entries.items():
            merged[word] = merged.get(word, Fraction(0)) + val
        return FockVector(merged)

    def __sub__(self, other: FockVector) -> FockVector:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, factor: Rational) -> FockVector:
        factor = Fraction(factor)
        return FockVector({w: factor * v for w, v in self.entries.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        body = ", ".join(
            f"{w}: {v}" for w, v in sorted(self.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))
        )
        return f"FockVector({{{body}}})"

    def to_json(self) -> list[dict]:
        return [
            {"word": list(w), "num": v.numerator, "den": v.denominator}
            for w, v in sorted(self.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]


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


@functools.cache
def wick_operator_form(n: int) -> tuple[tuple[OperatorWord, int], ...]:
    """Creator-then-annihilator operator sum of the Wick product of variables
    1..n, as (word, power of q) summands.

    One summand per split of the variables into a creator set and an
    annihilator set (each listed increasingly), weighted by q raised to the
    number of creator/annihilator index inversions: 2^n summands, so more
    than WICK_FORM_CAP variables raise SizeLimitError.
    """
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    if n > WICK_FORM_CAP:
        raise SizeLimitError(f"{n} variables exceed the Wick operator form cap {WICK_FORM_CAP}")
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
    return tuple(summands)


def create(f: VectorLike, u: FockVector, params: FockParams) -> FockVector:
    """Prepend f to every word of u, expanding f over the basis letters.

    Raises TruncationOverflowError if any word already sits at the cutoff.
    """
    coords = as_vector(f, params.dim).coords
    out: dict[tuple[int, ...], Fraction] = {}
    for word, val in u.entries.items():
        if len(word) >= params.level:
            raise TruncationOverflowError(
                f"creation on a degree-{len(word)} word exceeds the cutoff {params.level}"
            )
        for letter, coord in enumerate(coords, start=1):
            if coord:
                key = (letter,) + word
                out[key] = out.get(key, Fraction(0)) + coord * val
    return FockVector(out)


def annihilate(f: VectorLike, u: FockVector, params: FockParams) -> FockVector:
    """Weighted deletion sum: removing position i carries q^(i-1) times the
    coordinate of f matching the deleted letter.  The vacuum maps to zero."""
    coords = as_vector(f, params.dim).coords
    q = params.q
    out: dict[tuple[int, ...], Fraction] = {}
    for word, val in u.entries.items():
        for i, letter in enumerate(word):
            coord = coords[letter - 1]
            if coord:
                key = word[:i] + word[i + 1 :]
                out[key] = out.get(key, Fraction(0)) + q**i * coord * val
    return FockVector(out)


def field_apply(f: VectorLike, u: FockVector, params: FockParams) -> FockVector:
    """The field operator: create plus annihilate."""
    return create(f, u, params) + annihilate(f, u, params)


def _vector(assignment: Mapping[int, VectorLike], idx: int) -> VectorLike:
    if idx not in assignment:
        raise KeyError(f"no vector assigned to variable {idx}")
    return assignment[idx]


def apply_operator_word(
    word: OperatorWord,
    assignment: Mapping[int, VectorLike],
    u: FockVector,
    params: FockParams,
) -> FockVector:
    """Apply a signed operator word, rightmost letter first."""
    vec = u
    for sign, idx in reversed(word.letters):
        f = _vector(assignment, idx)
        vec = create(f, vec, params) if sign == 1 else annihilate(f, vec, params)
    return vec


def apply_field_word(
    indices: Sequence[int],
    assignment: Mapping[int, VectorLike],
    u: FockVector,
    params: FockParams,
) -> FockVector:
    """Apply a product of field operators, rightmost variable first."""
    vec = u
    for idx in reversed(tuple(indices)):
        vec = field_apply(_vector(assignment, idx), vec, params)
    return vec


def apply_wick_product(
    indices: Sequence[int],
    assignment: Mapping[int, VectorLike],
    u: FockVector,
    params: FockParams,
) -> FockVector:
    """Apply the Wick product of the given variables through its 2^n-summand
    creator/annihilator operator form, position p standing for indices[p - 1]."""
    indices = tuple(indices)
    form = wick_operator_form(len(indices))
    by_position = {pos: _vector(assignment, idx) for pos, idx in enumerate(indices, start=1)}
    out = FockVector.zero()
    for opword, qpow in form:
        vec = apply_operator_word(opword, by_position, u, params)
        out = out + vec.scaled(params.q**qpow)
    return out


def vacuum_expectation(
    word: Union[OperatorWord, Sequence[int]],
    assignment: Mapping[int, VectorLike],
    params: FockParams,
) -> Fraction:
    """Vacuum coefficient after applying the word to the unit vacuum.

    Accepts a signed OperatorWord, or a plain sequence of variable indices
    meaning a product of field operators.
    """
    if isinstance(word, OperatorWord):
        vec = apply_operator_word(word, assignment, FockVector.vacuum(), params)
    else:
        vec = apply_field_word(word, assignment, FockVector.vacuum(), params)
    return vec.coefficient(())


def _basis_inner(w1: tuple[int, ...], w2: tuple[int, ...], q: Fraction) -> Fraction:
    if sorted(w1) != sorted(w2):
        return Fraction(0)
    n = len(w1)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        if all(w2[perm[k]] == w1[k] for k in range(n)):
            inversions = sum(
                1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
            )
            total += q**inversions
    return total


def q_inner(u: FockVector, v: FockVector, params: FockParams) -> Fraction:
    """The q-deformed hermitian form, by explicit permutation enumeration.

    Words of different degrees are orthogonal; equal-degree basis words pair
    through every letter-matching permutation, each weighted by q to its
    inversion count.  The permutation sum is factorial in the degree, hence
    the word-length cap.
    """
    for vec in (u, v):
        for word in vec.entries:
            if len(word) > PERMUTATION_CAP:
                raise SizeLimitError(
                    f"word of length {len(word)} exceeds the permutation cap {PERMUTATION_CAP}"
                )
    total = Fraction(0)
    for w1, c1 in u.entries.items():
        for w2, c2 in v.entries.items():
            if len(w1) != len(w2):
                continue
            kernel = _basis_inner(w1, w2, params.q)
            if kernel:
                total += c1 * c2 * kernel
    return total


def _positive_definite(matrix: list[list[Fraction]]) -> bool:
    """Sylvester's criterion in one pass: every leading minor is positive
    exactly when elimination without row swaps meets only positive pivots.
    Eliminates in place."""
    n = len(matrix)
    for col in range(n):
        pivot_row = matrix[col]
        pivot = pivot_row[col]
        if pivot <= 0:
            return False
        for row in matrix[col + 1 :]:
            factor = row[col] / pivot
            if factor:
                for k in range(col + 1, n):
                    row[k] -= factor * pivot_row[k]
    return True


def gram_check(degree: int, params: FockParams) -> bool:
    """Exact positive-definiteness of the Gram matrix of all degree-d basis
    words, decided by the signs of the leading principal minors.

    Only meaningful for -1 < q < 1; anything else raises DomainError.  More
    than GRAM_WORD_CAP basis words raise SizeLimitError.
    """
    if not -1 < params.q < 1:
        raise DomainError(f"positivity requires -1 < q < 1, got q = {params.q}")
    if degree < 0:
        raise DomainError(f"degree must be nonnegative, got {degree}")
    if degree > PERMUTATION_CAP:
        raise SizeLimitError(f"degree {degree} exceeds the permutation cap {PERMUTATION_CAP}")
    if params.dim**degree > GRAM_WORD_CAP:
        raise SizeLimitError(
            f"{params.dim}^{degree} basis words exceed the Gram matrix cap {GRAM_WORD_CAP}"
        )
    words = list(itertools.product(range(1, params.dim + 1), repeat=degree))
    gram = [[_basis_inner(w1, w2, params.q) for w2 in words] for w1 in words]
    return _positive_definite(gram)


def evaluate_expansion(
    e: Expansion,
    assignment: Mapping[int, VectorLike],
    params: FockParams,
) -> Union[Fraction, FockVector]:
    """Evaluate a symbolic expansion on concrete vectors at the configured q.

    Covariance factors become dot products, coefficients evaluate at q, and
    each word acts on the unit vacuum (Wick-tagged words through their
    creator/annihilator operator form).  Returns the vacuum coefficient when
    every word is empty, otherwise the full vector.
    """
    scalar_only = e.is_scalar()
    total = FockVector.zero()
    for (cov, word), poly in e.terms.items():
        scale = poly.evaluate(params.q)
        for i, j in cov.factors:
            f, g = (as_vector(_vector(assignment, k), params.dim) for k in (i, j))
            scale *= dot(f, g)
        if not scale:
            continue
        if not word.indices:
            vec = FockVector.vacuum()
        elif word.kind == NORMAL:
            vec = apply_field_word(word.indices, assignment, FockVector.vacuum(), params)
        else:
            vec = apply_wick_product(word.indices, assignment, FockVector.vacuum(), params)
        total = total + vec.scaled(scale)
    if scalar_only:
        return total.coefficient(())
    return total
