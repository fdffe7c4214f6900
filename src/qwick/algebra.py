"""Exact arithmetic for q-polynomials and canonical symbolic expansions.

Coefficients are fractions.Fraction throughout; no floating point enters
any computation in this module.  An expansion is the canonical form used
everywhere downstream: a finite map from (covariance monomial, variable
word) to a q-polynomial, with zero values never stored, so two expansions
are equal exactly when their maps are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .diagrams import FeynmanDiagram
from .errors import DomainError

NORMAL = "normal"
WICK = "wick"

Rational = Union[int, Fraction]


class QPolynomial:
    """Sparse polynomial in the formal variable q over the rationals.

    coeffs maps exponent to a nonzero Fraction; the empty map is the zero
    polynomial.  Instances are treated as immutable values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for exp, val in coeffs.items():
                exp = int(exp)
                if exp < 0:
                    raise DomainError(f"negative exponent {exp} not supported")
                val = Fraction(val)
                if val:
                    clean[exp] = val
        self.coeffs = clean

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls()

    @classmethod
    def one(cls) -> QPolynomial:
        return cls({0: 1})

    @classmethod
    def constant(cls, value: Rational) -> QPolynomial:
        return cls({0: Fraction(value)})

    @classmethod
    def q_power(cls, exp: int, coeff: Rational = 1) -> QPolynomial:
        return cls({exp: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    def max_exponent(self) -> int:
        """Largest exponent with a nonzero coefficient, -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def __add__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        merged = dict(self.coeffs)
        for exp, val in other.coeffs.items():
            merged[exp] = merged.get(exp, Fraction(0)) + val
        return QPolynomial(merged)

    def __neg__(self) -> QPolynomial:
        return QPolynomial({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> QPolynomial:
        if isinstance(other, QPolynomial):
            out: dict[int, Fraction] = {}
            for e1, v1 in self.coeffs.items():
                for e2, v2 in other.coeffs.items():
                    e = e1 + e2
                    out[e] = out.get(e, Fraction(0)) + v1 * v2
            return QPolynomial(out)
        if isinstance(other, (int, Fraction)):
            return QPolynomial({e: v * other for e, v in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"QPolynomial({self.pretty()!r})"

    def evaluate(self, q0: Rational) -> Fraction:
        """Exact value at a rational point, by Horner over descending exponents."""
        q0 = Fraction(q0)
        exps = sorted(self.coeffs, reverse=True)
        acc = Fraction(0)
        for idx, e in enumerate(exps):
            acc += self.coeffs[e]
            nxt = exps[idx + 1] if idx + 1 < len(exps) else 0
            acc *= q0 ** (e - nxt)
        return acc

    def to_json(self) -> list[dict]:
        return [
            {"exp": e, "num": self.coeffs[e].numerator, "den": self.coeffs[e].denominator}
            for e in sorted(self.coeffs)
        ]

    @classmethod
    def from_json(cls, records) -> QPolynomial:
        return cls({r["exp"]: Fraction(r["num"], r["den"]) for r in records})

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for exp in sorted(self.coeffs):
            term = _monomial_str(exp, self.coeffs[exp])
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
        return " ".join(parts)


def _monomial_str(exp: int, coeff: Fraction) -> str:
    if exp == 0:
        return str(coeff)
    var = "q" if exp == 1 else f"q^{exp}"
    if coeff == 1:
        return var
    if coeff == -1:
        return "-" + var
    return f"{coeff} {var}"


def qpoly_eval(poly: QPolynomial, q0: Rational) -> Fraction:
    """Function form of QPolynomial.evaluate."""
    return poly.evaluate(q0)


@dataclass(frozen=True)
class CovarianceMonomial:
    """Product of covariance factors, each an unordered pair of variable indices.

    Factors are stored as (min, max) and the multiset is kept sorted, so the
    stored form is canonical; covariances are symmetric, which is what makes
    the unordered storage sound.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        norm = []
        for factor in self.factors:
            i, j = (int(x) for x in factor)
            if i == j:
                raise DomainError(f"covariance factor needs two distinct indices, got ({i},{j})")
            norm.append((min(i, j), max(i, j)))
        object.__setattr__(self, "factors", tuple(sorted(norm)))

    @classmethod
    def identity(cls) -> CovarianceMonomial:
        return cls(())

    def __mul__(self, other: CovarianceMonomial) -> CovarianceMonomial:
        return CovarianceMonomial(self.factors + other.factors)

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class VariableWord:
    """Ordered product of indexed variables, plain ("normal") or Wick-tagged.

    The empty word is the identity operator and is always stored with the
    normal tag, so scalar terms have a single canonical key.
    """

    indices: tuple[int, ...] = ()
    kind: str = NORMAL

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        if self.kind not in (NORMAL, WICK):
            raise DomainError(f"word kind must be {NORMAL!r} or {WICK!r}, got {self.kind!r}")
        if len(set(indices)) != len(indices):
            raise DomainError(f"variable indices must be distinct, got {indices}")
        if not indices:
            object.__setattr__(self, "kind", NORMAL)

    def __len__(self) -> int:
        return len(self.indices)


IDENTITY_WORD = VariableWord((), NORMAL)

TermKey = tuple[CovarianceMonomial, VariableWord]


class Expansion:
    """Canonical finite sum of (q-polynomial) * (covariance monomial) * (word).

    terms maps (CovarianceMonomial, VariableWord) to QPolynomial with no
    zero entries, so equality of expansions is equality of the maps.  An
    expansion whose words are all empty represents a scalar.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, QPolynomial] | None = None):
        clean: dict[TermKey, QPolynomial] = {}
        if terms:
            for key, poly in terms.items():
                if not isinstance(poly, QPolynomial):
                    poly = QPolynomial.constant(poly)
                if poly.is_zero():
                    continue
                cov, word = key
                clean[(cov, word)] = poly
        self.terms = clean

    @classmethod
    def zero(cls) -> Expansion:
        return cls()

    @classmethod
    def scalar(cls, value: Rational) -> Expansion:
        return cls({(CovarianceMonomial.identity(), IDENTITY_WORD): QPolynomial.constant(value)})

    @classmethod
    def identity(cls) -> Expansion:
        return cls.scalar(1)

    @classmethod
    def single(
        cls, cov: CovarianceMonomial, word: VariableWord, poly: QPolynomial
    ) -> Expansion:
        return cls({(cov, word): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(not word.indices for _, word in self.terms)

    def sorted_terms(self) -> list[tuple[TermKey, QPolynomial]]:
        return sorted(self.terms.items(), key=_term_key)

    def max_exponent(self) -> int:
        return max((p.max_exponent() for p in self.terms.values()), default=-1)

    def wick_words(self) -> tuple[VariableWord, ...]:
        """Distinct Wick-tagged words occurring in the expansion, sorted."""
        words = {word for _, word in self.terms if word.kind == WICK}
        return tuple(sorted(words, key=lambda w: w.indices))

    def __add__(self, other: Expansion) -> Expansion:
        if not isinstance(other, Expansion):
            return NotImplemented
        merged = dict(self.terms)
        for key, poly in other.terms.items():
            cur = merged.get(key)
            merged[key] = poly if cur is None else cur + poly
        return Expansion(merged)

    def __sub__(self, other: Expansion) -> Expansion:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, factor) -> Expansion:
        """Multiply every coefficient by a q-polynomial or rational factor."""
        if not isinstance(factor, QPolynomial):
            factor = QPolynomial.constant(factor)
        return Expansion({key: poly * factor for key, poly in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"Expansion({self.pretty()!r})"

    def to_json(self) -> list[dict]:
        return [
            {
                "cov": [list(f) for f in cov.factors],
                "word": list(word.indices),
                "kind": word.kind,
                "poly": poly.to_json(),
            }
            for (cov, word), poly in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, records) -> Expansion:
        terms: dict[TermKey, QPolynomial] = {}
        for r in records:
            key = (
                CovarianceMonomial(tuple((f[0], f[1]) for f in r["cov"])),
                VariableWord(tuple(r["word"]), r["kind"]),
            )
            accumulate_term(terms, key[0], key[1], QPolynomial.from_json(r["poly"]))
        return cls(terms)

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for (cov, word), poly in self.sorted_terms():
            factors = [f"c({i},{j})" for i, j in cov.factors]
            if word.indices:
                body = " ".join(f"x{h}" for h in word.indices)
                factors.append(f":{body}:" if word.kind == WICK else body)
            rendered.append(_term_str(poly, factors))
        out = rendered[0]
        for piece in rendered[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:].lstrip()
            else:
                out += " + " + piece
        return out


def _term_str(poly: QPolynomial, factors: list[str]) -> str:
    body = " ".join(factors)
    coeff = poly.pretty()
    if not factors:
        return coeff
    if len(poly.coeffs) > 1:
        return f"({coeff}) {body}"
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    return f"{coeff} {body}"


def _term_key(item):
    (cov, word), _ = item
    return (cov.factors, word.kind, word.indices)


def accumulate_term(
    acc: dict[TermKey, QPolynomial],
    cov: CovarianceMonomial,
    word: VariableWord,
    poly: QPolynomial,
) -> None:
    """Add poly onto acc[(cov, word)] while building an expansion."""
    key = (cov, word)
    cur = acc.get(key)
    acc[key] = poly if cur is None else cur + poly


def expansion_combine(a: Expansion, b: Expansion, scalar: QPolynomial) -> Expansion:
    """a + scalar * b, merged canonically; words are never reordered."""
    return a + b.scaled(scalar)


def diagram_term(
    diagram: FeynmanDiagram, kind: str = NORMAL, labels=None
) -> TermKey:
    """The term a diagram contributes: one covariance factor per pair and the
    increasing word of its singletons, with coefficient 1 left to the caller.

    labels, when given, must be strictly increasing and maps position p to
    labels[p - 1]; it transfers a diagram on 1..n onto other variable indices.
    """
    if labels is None:
        factors = diagram.pairs
        word = diagram.singletons
    else:
        factors = tuple((labels[i - 1], labels[j - 1]) for i, j in diagram.pairs)
        word = tuple(labels[h - 1] for h in diagram.singletons)
    return CovarianceMonomial(factors), VariableWord(word, kind)


def _canonical_term(factors, indices, kind: str) -> TermKey:
    """diagram_term's key built from parts that are canonical already:
    factors sorted (i, j) with i < j, indices distinct.  Skips validation
    and re-sorting; the walker's output meets these conditions by
    construction, and so does any strictly increasing relabelling of it."""
    cov = object.__new__(CovarianceMonomial)
    cov.__dict__["factors"] = factors
    word = object.__new__(VariableWord)
    word.__dict__.update(indices=indices, kind=kind if indices else NORMAL)
    return cov, word


def substitute_wick(e: Expansion, rule: Mapping[VariableWord, Expansion]) -> Expansion:
    """Replace every Wick-tagged word through the rule map.

    Rule outputs must contain only normal-kind words; q-polynomials multiply
    and covariance monomials merge as multisets.  A Wick word without a rule
    raises KeyError naming the word.
    """
    out: dict[TermKey, QPolynomial] = {}
    for (cov, word), poly in e.terms.items():
        if word.kind != WICK:
            accumulate_term(out, cov, word, poly)
            continue
        if word not in rule:
            raise KeyError(f"no substitution rule for wick word {word.indices}")
        for (rcov, rword), rpoly in rule[word].terms.items():
            if rword.kind != NORMAL:
                raise DomainError("substitution rules must expand into normal words")
            accumulate_term(out, cov * rcov, rword, poly * rpoly)
    return Expansion(out)


def specialize_free(e: Expansion) -> Expansion:
    """Keep only each coefficient's constant part (the convention that a
    positive power of q vanishes while q^0 stays 1), dropping empty terms."""
    out: dict[TermKey, QPolynomial] = {}
    for key, poly in e.terms.items():
        c = poly.constant_term()
        if c:
            out[key] = QPolynomial.constant(c)
    return Expansion(out)
