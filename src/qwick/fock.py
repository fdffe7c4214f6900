"""Brute-force ground truth on a truncated q-deformed tensor algebra.

A basis word is a tuple over 1..dim; vectors are finitely supported
rational combinations of basis words up to the configured tensor degree.
Creation prepends, annihilation deletes with weights q^(position-1) times
the matching coordinate, and as the adjoint of creation it gives the inner
product: a basis word pairs with a vector through what annihilating its
letters leaves in the vacuum.  A Wick product acts through its 2^n-summand
operator form, but in an expansion as the creations that form leaves on the
weighted vacuum, and words that share leftmost letters share those steps, on
merged sums, which are what the cutoff sees.  Nothing here comes from the
diagram layer (wick, diagrams): this is a second route to every identity.

Each letter moves a word's degree by exactly one, so a run that keeps only
the vacuum coefficient (a scalar run) carries the reach of the letters
still to act: down, the annihilations and fields less the creations, and
up, the creations and fields, a Wick word counting its length in both.  A
word of degree d is skipped when d > down, as it can never return to the
vacuum, and d + up <= level, as it can never meet a creation at the
cutoff.  The vacuum coefficient and every cutoff error stay those of the
full run; only the support cap is met later, if at all.

Every q-dependence is polynomial, so the operators keep q formal (Graded):
one run serves every q, results compare as whole polynomials, and only
evaluating one at a rational q builds Fractions.  The public functions run
for params.q and evaluate there; Gram positivity is decided in integers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .algebra import (
    NORMAL,
    Expansion,
    OperatorWord,
    Rational,
    _exact,
    _integer,
    _items,
    _poly_value,
    _rational,
    _sequence,
)
from .errors import DomainError, SizeLimitError, TruncationOverflowError

# most basis words of one Gram matrix: listing them alone costs dim^degree
GRAM_WORD_CAP = 100
# largest degree of one Gram matrix, which the word cap leaves unbounded at dim 1
GRAM_DEGREE_CAP = 8
# most variables in one Wick product's operator form, which has 2^n summands
WICK_FORM_CAP = 12
# most (basis word, power of q) entries of one graded vector, about 1 s per step;
# a scalar run counts only the words that can still reach the vacuum or the cutoff
FOCK_SUPPORT_CAP = 100_000


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
        object.__setattr__(self, "dim", _integer(self.dim, "one-particle dimension"))
        object.__setattr__(self, "level", _integer(self.level, "tensor degree cutoff"))
        object.__setattr__(self, "q", _rational(self.q, "q"))
        if self.dim < 1:
            raise DomainError(f"one-particle dimension must be positive, got {self.dim}")
        if self.level < 1:
            raise DomainError(f"tensor degree cutoff must be >= 1, got {self.level}")


@dataclass(frozen=True)
class OneParticleVector:
    """Element of the one-particle space: Rational coordinates, integral ones as ints."""

    coords: tuple[Rational, ...]

    def __post_init__(self):
        coords = _sequence(self.coords, "coordinates")
        coords = tuple(c if type(c) is int else _exact(_rational(c, "coordinate")) for c in coords)
        object.__setattr__(self, "coords", coords)

    def dot(self, other: OneParticleVector) -> Fraction:
        if not isinstance(other, OneParticleVector) or len(self.coords) != len(other.coords):
            raise DomainError(f"dot product needs a vector of dimension {len(self.coords)}")
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))


VectorLike = Union[OneParticleVector, Sequence[Rational]]


def as_vector(f: VectorLike, dim: int) -> OneParticleVector:
    if not isinstance(f, OneParticleVector):
        f = OneParticleVector(f)
    if len(f.coords) != dim:
        raise DomainError(f"vector has {len(f.coords)} coordinates, expected {dim}")
    return f


class FockVector:
    """Finitely supported rational combination of basis words.

    entries maps a word (tuple over 1..dim) to a nonzero Fraction; the empty
    word is the vacuum.  Treated as an immutable value.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, ...], Rational] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if entries:
            for word, val in _items(entries, "entries"):
                val = _rational(val, "coefficient")
                if val:
                    word = tuple(_integer(a, "basis letter") for a in _sequence(word, "basis word"))
                    if min(word, default=1) < 1:  # past dim is caught where dim is known
                        raise DomainError(f"basis letter {min(word)} must be positive")
                    clean[word] = val
        self.entries = clean

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
        factor = _rational(factor, "factor")
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


def wick_operator_form(n: int) -> tuple[tuple[OperatorWord, int], ...]:
    """Creator-then-annihilator operator sum of the Wick product of variables
    1..n, as (word, power of q) summands.

    One summand per split of the variables into a creator set and an
    annihilator set (each listed increasingly), weighted by q raised to the
    number of creator/annihilator index inversions: 2^n summands, so more
    than WICK_FORM_CAP variables raise SizeLimitError.  They come with n,
    n - 1, ..., 0 creators, and _wick relies on that order.
    """
    n = _integer(n, "variable count")
    if n < 0:
        raise DomainError(f"variable count must be nonnegative, got {n}")
    if n > WICK_FORM_CAP:
        raise SizeLimitError(f"{n} variables exceed the Wick operator form cap {WICK_FORM_CAP}")
    return _wick_operator_form(n)


@functools.cache  # keyed by the validated int, so an unhashable n never reaches it
def _wick_operator_form(n: int) -> tuple[tuple[OperatorWord, int], ...]:
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


class Graded:
    """A Fock vector, or with scalar set its vacuum coefficient, for every q at
    once.  entries maps (basis word, power of q) to a nonzero exact
    coefficient, an int wherever the coordinates are; at(q) is the value."""

    def __init__(self, entries: dict, scalar: bool = False):
        self.entries = {key: c for key, c in entries.items() if not key[0]} if scalar else entries
        self.scalar = scalar

    def __eq__(self, other) -> bool:  # equal as polynomials, hence at every q
        same_kind = isinstance(other, Graded) and self.scalar == other.scalar
        return same_kind and self.entries == other.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def at(self, q: Fraction) -> Union[Fraction, FockVector]:
        polys: dict[tuple[int, ...], list] = {}
        for (word, k), c in self.entries.items():
            polys.setdefault(word, []).append((k, c))
        vec = FockVector({word: _poly_value(terms, q) for word, terms in polys.items()})
        return vec.coefficient(()) if self.scalar else vec


def _step(sign: int, coords, u: dict, params: FockParams, qs, reach=None) -> dict:
    """Creation (sign 1) prepends a letter and keeps the power of q;
    annihilation (-1) deletes position i, adding i to it; the field (0) is
    their sum.  Creation on a word at the cutoff raises if the word is
    nonzero at one of qs, the q values the result is for, else drops it.
    The support cap is checked after each input entry's fan-out.

    reach = (down, up) bounds what the letters still to act after this one
    can lower and raise the degree by, in a run that keeps only the vacuum
    coefficient.  An output word of degree d is then skipped when d > down,
    since it can never return to the vacuum, and d + up <= params.level,
    since it can never meet a creation at the cutoff.  None skips nothing."""
    out: dict = {}
    cap = FOCK_SUPPORT_CAP
    # creation skips input degrees lo..hi, whose outputs lie above down and
    # at most up below the cutoff
    lo, hi = (reach[0], params.level - reach[1] - 1) if reach else (1, 0)
    if sign >= 0:
        letters = [(letter, coord) for letter, coord in enumerate(coords, start=1) if coord]
        over: dict[tuple[int, ...], list] = {}
        level = params.level
        for (word, k), c in u.items():
            d = len(word)
            if lo <= d <= hi:
                continue
            if d >= level:
                over.setdefault(word, []).append((k, c))
                continue
            for letter, coord in letters:
                out[((letter,) + word, k)] = coord * c
            if len(out) > cap:
                raise SizeLimitError(f"{len(out)} vector entries exceed the support cap {cap}")
        for word, terms in over.items():
            if any(_poly_value(terms, q) for q in qs):
                raise TruncationOverflowError(
                    f"creation on a degree-{len(word)} word exceeds the cutoff {level}"
                )
    if sign <= 0:
        lo, hi = lo + 2, hi + 2  # a deletion's output is two degrees below a creation's
        for (word, k), c in u.items():
            if lo <= len(word) <= hi:
                continue
            for i, letter in enumerate(word):
                coord = coords[letter - 1]
                if coord:
                    key = (word[:i] + word[i + 1 :], k + i)
                    out[key] = out.get(key, 0) + coord * c
            if len(out) > cap:
                raise SizeLimitError(f"{len(out)} vector entries exceed the support cap {cap}")
        out = {key: c for key, c in out.items() if c}
    return out


class _Coordinates(dict):
    """Each variable's coordinates, as its OneParticleVector keeps them, read
    from the assignment on first use; an unused variable is never read."""

    def __init__(self, assignment: Mapping[int, VectorLike], dim: int):
        self.assignment, self.dim = assignment, dim

    def __missing__(self, idx: int) -> tuple:
        if idx not in self.assignment:
            raise KeyError(f"no vector assigned to variable {idx}")
        coords = self[idx] = as_vector(self.assignment[idx], self.dim).coords
        return coords


def _reaches(letters, reach) -> list:
    """The reach (see _step) after each letter acts, left to right, then that
    of all of them, for letters acting before others of the given reach; a
    creation takes one off down, and None stays None."""
    if reach is None:
        return [None] * (len(letters) + 1)
    down, up = reach
    reaches = [reach]
    for sign, _ in letters:
        down, up = down + (1 if sign <= 0 else -1), up + (sign >= 0)
        reaches.append((down, up))
    return reaches


def _letters(letters, coords: _Coordinates, u: dict, params: FockParams, qs, reach=None) -> dict:
    """Apply (sign, variable) letters, rightmost first; sign 0 is a field.
    reach is that of what acts after them, or None to keep every word."""
    reaches = _reaches(letters, reach)
    for i in range(len(letters) - 1, -1, -1):
        sign, idx = letters[i]
        u = _step(sign, coords[idx], u, params, qs, reaches[i])
    return u


def _wick(indices, coords: _Coordinates, u: dict, params: FockParams, qs, reach=None) -> dict:
    """The Wick product by its operator form, position p standing for
    indices[p - 1], each summand's letters run by _letters with the given
    reach.  A summand's annihilators act first and each lowers the degree
    by one, so the first with more of them than u's top degree, and every
    later one, gives zero."""
    indices = tuple(indices)
    form = wick_operator_form(len(indices))
    by_position = {pos: coords[idx] for pos, idx in enumerate(indices, start=1)}
    top = max((len(word) for word, _ in u), default=0)
    out: dict = {}
    for opword, qpow in form:
        if sum(sign < 0 for sign, _ in opword.letters) > top:
            break
        for (word, k), c in _letters(opword.letters, by_position, u, params, qs, reach).items():
            out[word, k + qpow] = out.get((word, k + qpow), 0) + c
    return {key: c for key, c in out.items() if c}


def graded_apply(words, assignment, params: FockParams, qs, scalar: bool = False) -> Graded:
    """The words applied to the unit vacuum, rightmost first, for every q of
    qs at once (params.q is not read).  Each is an OperatorWord or a
    VariableWord: fields or, Wick-tagged, a Wick product's full operator form.

    With scalar set, only the vacuum coefficient is kept, and each step
    skips the words that can neither return to the vacuum nor meet a
    creation at the cutoff (see _step); a Wick word still to act counts its
    length in both down and up, as its fields do."""
    coords = _Coordinates(assignment, params.dim)
    runs, reach = [], (0, 0) if scalar else None
    for word in words:  # left to right, growing the reach of what acts after each
        operator = isinstance(word, OperatorWord)
        letters = word.letters if operator else tuple((0, i) for i in word.indices)
        runs.append((word, letters, reach))
        reach = _reaches(letters, reach)[-1]
    vec = {((), 0): 1}
    for word, letters, reach in reversed(runs):
        if isinstance(word, OperatorWord) or word.kind == NORMAL:
            vec = _letters(letters, coords, vec, params, qs, reach)
        else:
            vec = _wick(word.indices, coords, vec, params, qs, reach)
    return Graded(vec, scalar)


def graded_expansion(e: Expansion, assignment, params: FockParams, qs) -> Graded:
    """evaluate_expansion for every q of qs at once, by Horner's scheme on the
    words' letters: fields (0, i), or a Wick word's creations (1, i), all its
    operator form leaves on the vacuum.  Each node's last letter acts once on
    T(p) = s_p + sum_a x_a T(p a), s_p being p's own weighted vacuum, so the
    cutoff raises only where such a merged sum is nonzero at one of qs."""
    coords = _Coordinates(assignment, params.dim)
    covariances: dict = {}
    starts: dict = {}
    for (factors, indices, kind), poly in e.terms.items():
        scale = 1
        for pair in factors:
            if pair not in covariances:
                i, j = pair
                covariances[pair] = sum(a * b for a, b in zip(coords[i], coords[j]))
            scale *= covariances[pair]
        if scale:
            start = starts.setdefault((indices, kind), {})
            for p, a in poly.coeffs.items():
                start[(), p] = start.get(((), p), 0) + a * scale
    nodes = {tuple((int(kind != NORMAL), i) for i in ix): u for (ix, kind), u in starts.items()}
    for depth in range(max(map(len, nodes), default=0), 0, -1):
        for prefix in [p for p in nodes if len(p) == depth]:
            (sign, idx), parent = prefix[-1], nodes.setdefault(prefix[:-1], {})
            u = {key: c for key, c in nodes.pop(prefix).items() if c}
            for key, c in _step(sign, coords[idx], u, params, qs).items():
                parent[key] = parent.get(key, 0) + c
    return Graded({key: c for key, c in nodes.get((), {}).items() if c}, e.is_scalar())


def _numeric(kernel, *args, scalar: bool = False):
    """Run a kernel for q = params.q and evaluate it there.  args end with
    (assignment, u, params); the kernel gets the assignment as _Coordinates
    and the FockVector u as a graded vector, whose letters must lie in
    1..params.dim.  A scalar run gives the kernel reach (0, 0), as nothing
    acts after it (see _step)."""
    *args, assignment, u, params = args
    basis = range(1, params.dim + 1)
    for word in u.entries:
        for letter in word:
            if letter not in basis:
                raise DomainError(f"basis letter {letter!r} lies outside 1..{params.dim}")
    coords = _Coordinates(assignment, params.dim)
    graded = {(word, 0): _exact(val) for word, val in u.entries.items()}
    reach = (0, 0) if scalar else None
    return Graded(kernel(*args, coords, graded, params, (params.q,), reach), scalar).at(params.q)


def create(f: VectorLike, u: FockVector, params: FockParams) -> FockVector:
    """Prepend f to every word of u, expanding f over the basis letters.

    Raises TruncationOverflowError if any word already sits at the cutoff.
    """
    return _numeric(_letters, ((1, 1),), {1: f}, u, params)


def annihilate(f: VectorLike, u: FockVector, params: FockParams) -> FockVector:
    """Weighted deletion sum: removing position i carries q^(i-1) times the
    coordinate of f matching the deleted letter.  The vacuum maps to zero."""
    return _numeric(_letters, ((-1, 1),), {1: f}, u, params)


def field_apply(f: VectorLike, u: FockVector, params: FockParams) -> FockVector:
    """The field operator: create plus annihilate."""
    return _numeric(_letters, ((0, 1),), {1: f}, u, params)


def apply_operator_word(
    word: OperatorWord, assignment: Mapping[int, VectorLike], u: FockVector, params: FockParams
) -> FockVector:
    """Apply a signed operator word, rightmost letter first."""
    return _numeric(_letters, word.letters, assignment, u, params)


def apply_field_word(
    indices: Sequence[int], assignment: Mapping[int, VectorLike], u: FockVector, params: FockParams
) -> FockVector:
    """Apply a product of field operators, rightmost variable first."""
    return _numeric(_letters, tuple((0, idx) for idx in indices), assignment, u, params)


def apply_wick_product(
    indices: Sequence[int], assignment: Mapping[int, VectorLike], u: FockVector, params: FockParams
) -> FockVector:
    """Apply the Wick product of the given variables through its 2^n-summand
    creator/annihilator operator form, position p standing for indices[p - 1]."""
    return _numeric(_wick, indices, assignment, u, params)


def vacuum_expectation(
    word: Union[OperatorWord, Sequence[int]],
    assignment: Mapping[int, VectorLike],
    params: FockParams,
) -> Fraction:
    """Vacuum coefficient after applying the word to the unit vacuum.

    Accepts a signed OperatorWord, or a plain sequence of variable indices
    meaning a product of field operators.
    """
    letters = word.letters if isinstance(word, OperatorWord) else tuple((0, i) for i in word)
    return _numeric(_letters, letters, assignment, FockVector.vacuum(), params, scalar=True)


def _units(dim: int) -> dict[int, tuple[int, ...]]:
    """The coordinates of each basis letter 1..dim."""
    return {x: tuple(int(x == y) for y in range(1, dim + 1)) for x in range(1, dim + 1)}


def _inner(word, units, v: dict) -> tuple:
    """<word, v> for a basis word and a graded vector, as (power of q,
    coefficient) pairs: the vacuum part of v once the word's letters are
    annihilated from it, first letter first (annihilation reads no params)."""
    annihilated = _letters(tuple((-1, x) for x in reversed(word)), units, v, None, ())
    return tuple((k, c) for (rest, k), c in annihilated.items() if not rest)


def q_inner(u: FockVector, v: FockVector, params: FockParams) -> Fraction:
    """The q-deformed inner product at params.q: each basis word of u pairs
    with v through _inner, so words of different degrees are orthogonal.  Only
    letter equality matters, so letters are numbered in order of appearance."""
    letters = dict.fromkeys(x for vec in (u, v) for word in vec.entries for x in word)
    label = {x: i for i, x in enumerate(letters, start=1)}
    units = _units(len(label))
    graded = {(tuple(map(label.get, w)), 0): _exact(c) for w, c in v.entries.items()}
    total = Fraction(0)
    for word, c in u.entries.items():
        total += c * _poly_value(_inner(tuple(map(label.get, word)), units, graded), params.q)
    return total


def _positive_definite(matrix: list[list[int]]) -> bool:
    """Sylvester's criterion by fraction-free (Bareiss) elimination of an
    integer matrix, in place: the k-th pivot is the k-th leading minor."""
    n = len(matrix)
    prev = 1
    for col in range(n):
        pivot_row = matrix[col]
        pivot = pivot_row[col]
        if pivot <= 0:
            return False
        for row in matrix[col + 1 :]:
            for k in range(col + 1, n):
                row[k] = (row[k] * pivot - row[col] * pivot_row[k]) // prev
        prev = pivot
    return True


def ensure_gram_shape(degree: int, params: FockParams) -> None:
    """Raise as gram_check does: DomainError for q outside (-1, 1) or a negative
    degree, SizeLimitError past GRAM_DEGREE_CAP or GRAM_WORD_CAP."""
    if not -1 < params.q < 1:
        raise DomainError(f"positivity requires -1 < q < 1, got q = {params.q}")
    degree = _integer(degree, "degree")
    if degree < 0:
        raise DomainError(f"degree must be nonnegative, got {degree}")
    if degree > GRAM_DEGREE_CAP:
        raise SizeLimitError(f"degree {degree} exceeds the Gram degree cap {GRAM_DEGREE_CAP}")
    if params.dim**degree > GRAM_WORD_CAP:
        raise SizeLimitError(
            f"{params.dim}^{degree} basis words exceed the Gram matrix cap {GRAM_WORD_CAP}"
        )


def gram_check(degree: int, params: FockParams) -> bool:
    """Exact positive-definiteness of the Gram matrix of all degree-d basis
    words, decided by the signs of the leading principal minors of each
    block: a block-diagonal matrix is positive definite exactly when each
    block is.  The shape must pass ensure_gram_shape."""
    ensure_gram_shape(degree, params)
    # den^top q^k = num^k den^(top - k): a positive multiple of the matrix, in integers
    num, den, top = params.q.numerator, params.q.denominator, degree * (degree - 1) // 2
    scale = [num**k * den ** (top - k) for k in range(top + 1)]
    return all(
        _positive_definite([[sum(c * scale[k] for k, c in p) for p in row] for row in block])
        for _, block in _gram(params.dim, degree)
    )


@functools.cache
def _gram(dim: int, degree: int) -> tuple:
    """The Gram matrix of the degree-d basis words as one (words, entries)
    block per letter multiset, since words of different content are
    orthogonal; each entry is an inversion polynomial in (power, count) pairs."""
    blocks: dict[tuple[int, ...], list] = {}
    for word in itertools.product(range(1, dim + 1), repeat=degree):
        blocks.setdefault(tuple(sorted(word)), []).append(word)
    units = _units(dim)
    return tuple(
        (tuple(ws), tuple(tuple(_inner(a, units, {(b, 0): 1}) for b in ws) for a in ws))
        for ws in blocks.values()
    )


def evaluate_expansion(
    e: Expansion, assignment: Mapping[int, VectorLike], params: FockParams
) -> Union[Fraction, FockVector]:
    """Evaluate a symbolic expansion on concrete vectors at the configured q.

    Covariance factors become dot products; a Wick word acts as the creations
    its operator form leaves on the vacuum, and words sharing leftmost letters
    run them once on the merged, covariance-scaled sum, so the cutoff raises
    only where that sum is nonzero at q.  Returns the vacuum coefficient when
    every word is empty, otherwise the full vector.
    """
    return graded_expansion(e, assignment, params, (params.q,)).at(params.q)
