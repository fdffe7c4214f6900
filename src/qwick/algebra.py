"""Exact arithmetic for q-polynomials and canonical symbolic expansions.

Coefficients are exact, an int or else a fractions.Fraction; no floating
point enters any computation in this module.  An expansion is the canonical
form used everywhere downstream: a finite map from (factors, indices, kind)
tuples, the form in which the diagram walker yields its terms, to a
q-polynomial, with zero values never stored, so two expansions are equal
exactly when their maps are equal.  The public constructors validate, the
keys through CovarianceMonomial and VariableWord; arithmetic on canonical
values builds its results through the unchecked _trusted constructors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError

NORMAL = "normal"
WICK = "wick"

Rational = Union[int, Fraction]


def _exact(x: Rational) -> Rational:
    """x as an int when it is an integer, else the Fraction itself."""
    return x.numerator if x.denominator == 1 else x


def _integer(value, what: str) -> int:
    """value as an int; a non-integer such as 1.5 or "2" is a DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _sequence(value, what: str) -> tuple:
    """value as a tuple; a non-sequence such as 4 is a DomainError."""
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{what} must be a sequence, got {value!r}") from None


def _pairs(value, what: str, item: str) -> tuple[tuple, ...]:
    """value as a tuple of pairs; a non-sequence, or an item that is not a
    sequence of two entries, is a DomainError."""
    pairs = tuple(_sequence(pair, item) for pair in _sequence(value, what))
    for pair in pairs:
        if len(pair) != 2:
            raise DomainError(f"each {item} must hold two entries, got {pair}")
    return pairs


def _poly_value(terms, q: Fraction) -> Fraction:
    """The sum of c * q^k over the (k, c) terms, with a single Fraction built."""
    top = max((k for k, _ in terms), default=0)
    num, den = q.numerator, q.denominator
    return Fraction(sum(c * num**k * den ** (top - k) for k, c in terms), den**top)


class QPolynomial:
    """Sparse polynomial in the formal variable q over the rationals.

    coeffs maps exponent to a nonzero exact coefficient: an int, or a
    Fraction when the value is not an integer.  The empty map is the zero
    polynomial.  Instances are treated as immutable values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        clean: dict[int, Rational] = {}
        for exp, val in (coeffs or {}).items():
            exp = _integer(exp, "exponent")
            if exp < 0:
                raise DomainError(f"negative exponent {exp} not supported")
            val = _exact(Fraction(val))
            if val:
                clean[exp] = val
        self.coeffs = clean

    @classmethod
    def _trusted(cls, coeffs: dict[int, Rational]) -> QPolynomial:
        """The polynomial of coeffs, which must be as __init__ leaves them."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls()

    @classmethod
    def one(cls) -> QPolynomial:
        return cls({0: 1})

    @classmethod
    def constant(cls, value: Rational) -> QPolynomial:
        return cls({0: value})

    @classmethod
    def q_power(cls, exp: int, coeff: Rational = 1) -> QPolynomial:
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Rational:
        return self.coeffs.get(0, 0)

    def max_exponent(self) -> int:
        """Largest exponent with a nonzero coefficient, -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def __add__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        merged = dict(self.coeffs)
        for exp, val in other.coeffs.items():
            val = _exact(merged.pop(exp, 0) + val)
            if val:
                merged[exp] = val
        return QPolynomial._trusted(merged)

    def __neg__(self) -> QPolynomial:
        return QPolynomial._trusted({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> QPolynomial:
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(other)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out: dict[int, Rational] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                v = _exact(out.pop(e1 + e2, 0) + v1 * v2)
                if v:
                    out[e1 + e2] = v
        return QPolynomial._trusted(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"QPolynomial({self.pretty()!r})"

    def evaluate(self, q0: Rational) -> Fraction:
        """Exact value at a rational point."""
        return _poly_value(self.coeffs.items(), Fraction(q0))

    def to_json(self) -> list[dict]:
        return [
            {"exp": e, "num": self.coeffs[e].numerator, "den": self.coeffs[e].denominator}
            for e in sorted(self.coeffs)
        ]

    @classmethod
    def from_json(cls, records) -> QPolynomial:
        coeffs = {}
        for r in records:
            if not r["den"]:
                raise DomainError(f"coefficient denominator must be nonzero, got {r!r}")
            coeffs[r["exp"]] = Fraction(r["num"], r["den"])
        return cls(coeffs)

    def pretty(self) -> str:
        return "".join(_pretty_sum(_monomial_str(e, self.coeffs[e]) for e in sorted(self.coeffs)))


def _monomial_str(exp: int, coeff: Rational) -> str:
    if exp == 0:
        return str(coeff)
    var = "q" if exp == 1 else f"q^{exp}"
    if coeff == 1:
        return var
    if coeff == -1:
        return "-" + var
    return f"{coeff} {var}"


@dataclass(frozen=True, slots=True)
class CovarianceMonomial:
    """Product of covariance factors, each an unordered pair of variable indices.

    Factors are stored as (min, max) and the multiset is kept sorted, so the
    stored form is canonical; covariances are symmetric, which is what makes
    the unordered storage sound.  It validates the factors of a term key.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        norm = []
        for factor in _pairs(self.factors, "covariance factors", "covariance factor"):
            i, j = (_integer(x, "covariance index") for x in factor)
            if i == j:
                raise DomainError(f"covariance factor needs two distinct indices, got ({i},{j})")
            norm.append((min(i, j), max(i, j)))
        object.__setattr__(self, "factors", tuple(sorted(norm)))

    @classmethod
    def identity(cls) -> CovarianceMonomial:
        return cls(())

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True, slots=True)
class VariableWord:
    """Ordered product of indexed variables, plain ("normal") or Wick-tagged.

    The empty word is the identity operator and is always stored with the
    normal tag, so scalar terms have a single canonical key.  It validates
    the word and kind of a term key.
    """

    indices: tuple[int, ...] = ()
    kind: str = NORMAL

    def __post_init__(self):
        indices = _sequence(self.indices, "variable indices")
        indices = tuple(_integer(i, "variable index") for i in indices)
        object.__setattr__(self, "indices", indices)
        if self.kind not in (NORMAL, WICK):
            raise DomainError(f"word kind must be {NORMAL!r} or {WICK!r}, got {self.kind!r}")
        if len(set(indices)) != len(indices):
            raise DomainError(f"variable indices must be distinct, got {indices}")
        if not indices:
            object.__setattr__(self, "kind", NORMAL)

    def __len__(self) -> int:
        return len(self.indices)


def _term_key(factors, indices, kind: str) -> tuple:
    """The canonical (factors, indices, kind) key of a term, validated
    through CovarianceMonomial and VariableWord."""
    factors = CovarianceMonomial(factors).factors
    word = VariableWord(indices, kind)
    return factors, word.indices, word.kind


class Expansion:
    """Canonical finite sum of (q-polynomial) * (covariance monomial) * (word).

    terms maps (factors, indices, kind) keys to QPolynomials with no zero
    entries: factors are sorted (i, j) pairs with i < j, indices are
    distinct, and kind is normal when the word is empty.  The constructor
    sums keys that are equal once canonical, so equality of expansions is
    equality of the maps.  An expansion whose words are all empty
    represents a scalar.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, QPolynomial] | None = None):
        clean: dict = {}
        for key, poly in (terms or {}).items():
            if not isinstance(poly, QPolynomial):
                poly = QPolynomial.constant(poly)
            accumulate_term(clean, _term_key(*key), poly)
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: dict) -> Expansion:
        """The expansion of terms, which must be as __init__ leaves them."""
        e = object.__new__(cls)
        e.terms = terms
        return e

    @classmethod
    def zero(cls) -> Expansion:
        return cls()

    @classmethod
    def scalar(cls, value: Rational) -> Expansion:
        return cls({((), (), NORMAL): value})

    @classmethod
    def identity(cls) -> Expansion:
        return cls.scalar(1)

    @classmethod
    def single(
        cls, cov: CovarianceMonomial, word: VariableWord, poly: QPolynomial
    ) -> Expansion:
        return cls({(cov.factors, word.indices, word.kind): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not any(indices for _, indices, _ in self.terms)

    def sorted_terms(self) -> list[tuple[tuple, QPolynomial]]:
        """The terms ordered by factors, then kind, then word."""
        return sorted(self.terms.items(), key=lambda item: (item[0][0], item[0][2], item[0][1]))

    def max_exponent(self) -> int:
        return max((p.max_exponent() for p in self.terms.values()), default=-1)

    def __add__(self, other: Expansion) -> Expansion:
        if not isinstance(other, Expansion):
            return NotImplemented
        merged = dict(self.terms)
        for key, poly in other.terms.items():
            accumulate_term(merged, key, poly)
        return Expansion._trusted(merged)

    def __sub__(self, other: Expansion) -> Expansion:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, factor) -> Expansion:
        """Multiply every coefficient by a q-polynomial or rational factor."""
        if not isinstance(factor, QPolynomial):
            factor = QPolynomial.constant(factor)
        # a product of nonzero polynomials is nonzero
        terms = self.terms.items() if factor.coeffs else ()
        return Expansion._trusted({key: poly * factor for key, poly in terms})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"Expansion({self.pretty()!r})"

    def to_json(self) -> list[dict]:
        return [
            {
                "cov": [list(f) for f in factors],
                "word": list(indices),
                "kind": kind,
                "poly": poly.to_json(),
            }
            for (factors, indices, kind), poly in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, records) -> Expansion:
        terms: dict = {}
        for r in records:
            key = _term_key(tuple((f[0], f[1]) for f in r["cov"]), tuple(r["word"]), r["kind"])
            accumulate_term(terms, key, QPolynomial.from_json(r["poly"]))
        return cls._trusted(terms)

    def pretty(self) -> str:
        pieces = (
            _term_pretty(poly.pretty(), len(poly.coeffs) == 1, *key)
            for key, poly in self.sorted_terms()
        )
        return "".join(_pretty_sum(pieces))


def _term_pretty(coeff: str, monomial: bool, factors, indices, kind: str) -> str:
    """One term of a pretty sum: the coefficient's pretty text (a single
    monomial when monomial is set), then the covariance factors and the word."""
    parts = [f"c({i},{j})" for i, j in factors]
    if indices:
        body = " ".join([f"x{h}" for h in indices])
        parts.append(f":{body}:" if kind == WICK else body)
    if not parts:
        return coeff
    body = " ".join(parts)
    if not monomial:
        return f"({coeff}) {body}"
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    return f"{coeff} {body}"


def _pretty_sum(pieces):
    """Yield the pretty text of a sum of _term_pretty pieces, one piece at a
    time: a leading minus sign becomes the operator, and no piece gives 0."""
    pieces = iter(pieces)
    first = next(pieces, None)
    if first is None:
        yield "0"
        return
    yield first
    for piece in pieces:
        yield " - " + piece[1:].lstrip() if piece.startswith("-") else " + " + piece


def accumulate_term(acc: dict, key: tuple, poly: QPolynomial):
    """Add poly onto acc[key] while building an expansion; a zero sum
    deletes the entry, so acc stays clean."""
    if key in acc:
        poly = acc.pop(key) + poly
    if poly.coeffs:
        acc[key] = poly


def specialize_free(e: Expansion) -> Expansion:
    """Keep only each coefficient's constant part (the convention that a
    positive power of q vanishes while q^0 stays 1), dropping empty terms."""
    return Expansion._trusted(
        {key: QPolynomial._trusted({0: p.coeffs[0]}) for key, p in e.terms.items() if 0 in p.coeffs}
    )
