"""Cross-checks between the symbolic expansions and the operator oracle.

Each checker returns a list of VerifyReport records, one per instance, in a
deterministic order.  A failing report always carries a complete
reproduction witness: the instance data, the sampled vectors and q, and
both computed values.  The check ids here are the ones the command line
accepts.  Every row of wick.IDENTITIES has an oracle suite, built by
_check_row from the row alone: its left words on the vacuum against its
diagram sum, on sizes, block lists or Catalan sign patterns as the row
takes, each case carrying the degree guard of _bounded, at a given q too.
Each row that is neither complete nor blocked also has a peel suite, built
by _peel_row: its diagram sum and its left word, each rewritten into plain
products by wick.normal_form, must agree.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple

from .algebra import WICK, Expansion, VariableWord, specialize_free
from .diagrams import catalan_sequences, ensure_within_cap
from .errors import DomainError
from .fock import (
    FockParams,
    FockVector,
    Graded,
    OneParticleVector,
    ensure_gram_shape,
    graded_apply,
    graded_expansion,
    gram_check,
    wick_operator_form,
)
from .wick import IDENTITIES, expand, normal_form

Q_GRID = (Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2))
GRAM_Q_GRID = (
    Fraction(-3, 4),
    Fraction(-1, 3),
    Fraction(0),
    Fraction(1, 3),
    Fraction(3, 4),
)
DEFAULT_BLOCKS = ((1, 1), (2, 1), (2, 2), (2, 3), (1, 2, 2), (2, 2, 2))
FREE_BLOCKS = ((2, 1), (2, 2), (1, 2, 2), (2, 2, 2))
SAMPLES = 5


@dataclass(frozen=True)
class VerifyReport:
    check: str
    instance: dict
    status: str
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
        }


@dataclass
class VerifyConfig:
    """The options of one suite run: the given ones over the defaults of the
    suite's CHECKS entry.  None leaves the choice to the suite: the q grid
    (q), its block structures (blocks), a cutoff of degree + 1 (level), the
    enumeration cap (cap), and for gram, dims 1 and 2 (dim).  An option the
    suite does not read stays None."""

    n: int | None = None
    blocks: tuple[int, ...] | None = None
    q: Fraction | None = None
    dim: int | None = None
    level: int | None = None
    seed: int | None = None
    cap: int | None = None

    def q_values(self, default=Q_GRID) -> tuple[Fraction, ...]:
        return (self.q,) if self.q is not None else default

    def cutoff(self, degree: int) -> int:
        """The given level (0 too, which FockParams rejects), else degree + 1."""
        return self.level if self.level is not None else degree + 1


def sample_assignments(nvars: int, dim: int, seed: int) -> list[dict[int, OneParticleVector]]:
    """SAMPLES deterministic batches of integer-coordinate vectors in [-3, 3].
    Each coordinate is random.Random(seed).randint(-3, 3), draw for draw:
    three random bits, drawn again while they read 7, less 3."""
    bits = random.Random(seed).getrandbits
    coords = []
    while len(coords) < SAMPLES * nvars * dim:
        r = bits(3)
        if r != 7:
            coords.append(r - 3)
    draws, width = iter(coords), max(dim, 0)  # a dim below 1 gives empty vectors, as range does
    return [
        {
            idx: OneParticleVector(tuple(itertools.islice(draws, width)))
            for idx in range(1, nvars + 1)
        }
        for _ in range(SAMPLES)
    ]


def _vec_json(assignment: Mapping[int, OneParticleVector]) -> dict:
    return {str(i): [str(c) for c in v.coords] for i, v in sorted(assignment.items())}


def _report(check, instance, ok, **witness) -> VerifyReport:
    """A passing report, or a failing one carrying the witness entries, with
    rationals, Fock vectors and expansions rendered for JSON."""
    if ok:
        return VerifyReport(check, instance, "pass")
    for key, value in witness.items():
        if isinstance(value, Fraction):
            witness[key] = str(value)
        elif isinstance(value, (FockVector, Expansion)):
            witness[key] = value.to_json()
    return VerifyReport(check, instance, "fail", witness)


def _sizes(n: int, step: int = 1) -> range:
    """The instance sizes step, 2 * step, ... up to n; none is a usage error,
    so a mistyped bound cannot read as a pass."""
    sizes = range(step, n + 1, step)
    if not sizes:
        raise DomainError(f"n = {n} gives no instances; it must be at least {step}")
    return sizes


def _capped(sizes, cap: int | None):
    """Check every instance size against the enumeration cap, in run order,
    before any instance is computed: a run past the cap fails at once, with
    the message its first oversized instance gives."""
    for size in sizes:
        ensure_within_cap(size, cap)
    return sizes


class _Case(NamedTuple):
    """One instance of a sampled suite.  oracle and formula map (assignment,
    params, qs) to the compared values as Graded; ok(lhs, rhs) is the pass
    condition, on the values at one q or on the whole Graded sides, where it
    certifies every q at once.  extra holds witness entries shown after rhs."""

    head: dict
    nvars: int
    oracle: Callable
    formula: Callable
    ok: Callable = operator.eq
    extra: tuple = ()


def _sampled(check: str, cfg: VerifyConfig, cases: Iterable[_Case]) -> list[VerifyReport]:
    """Compare each case's oracle and formula on SAMPLES vector assignments,
    computed once per sample with q kept formal: one report per q of the
    grid, q-major.  A sample whose sides pass as q-polynomials passes at
    every q; only the others are evaluated at each q, for their witness."""
    reports = []
    qs = cfg.q_values()
    for case in cases:
        assignments = sample_assignments(case.nvars, cfg.dim, cfg.seed)
        params = FockParams(cfg.dim, cfg.cutoff(case.nvars), qs[0])
        values = [(case.oracle(a, params, qs), case.formula(a, params, qs)) for a in assignments]
        decided = [case.ok(lhs, rhs) for lhs, rhs in values]
        for q0, q_text in zip(qs, map(str, qs)):
            for s_idx, (assignment, (lhs, rhs)) in enumerate(zip(assignments, values)):
                instance = {**case.head, "q": q_text, "sample": s_idx}
                if decided[s_idx]:
                    reports.append(VerifyReport(check, instance, "pass"))
                    continue
                lhs, rhs = lhs.at(q0), rhs.at(q0)
                witness = dict(lhs=lhs, rhs=rhs, **dict(case.extra), vectors=_vec_json(assignment))
                reports.append(_report(check, instance, case.ok(lhs, rhs), **witness))
    return reports


def _bounded(head, nvars, oracle, expansion, ok=operator.eq) -> _Case:
    # sampled agreement certifies the polynomial identity only together with
    # a degree bound on the q-exponents
    bound_ok = expansion.max_exponent() < nvars * nvars
    return _Case(
        head,
        nvars,
        oracle,
        partial(graded_expansion, expansion),
        lambda lhs, rhs: bound_ok and ok(lhs, rhs),
        (("degree_bound_ok", bound_ok),),
    )


def _tensor(n: int, assignment, params, qs) -> Graded:
    """f_1 (x) ... (x) f_n for the vectors of variables 1..n, at every q."""
    entries = {((), 0): 1}
    for f in (assignment[i] for i in range(1, n + 1)):
        entries = {
            (word + (letter,), 0): coord * val
            for (word, _), val in entries.items()
            for letter, coord in enumerate(f.coords, start=1)
            if coord
        }
    return Graded(entries)


def check_wick_vector(cfg: VerifyConfig) -> list[VerifyReport]:
    """id wick-vector: the operator form of a Wick product must send the
    vacuum to the plain elementary tensor of its vectors."""
    sizes = _sizes(cfg.n)
    for n in sizes:  # past WICK_FORM_CAP fails here; the forms are cached for reuse
        wick_operator_form(n)
    wick = {n: (VariableWord(range(1, n + 1), WICK),) for n in sizes}  # the Wick product of 1..n
    cases = (_Case({"n": n}, n, partial(graded_apply, wick[n]), partial(_tensor, n)) for n in sizes)
    return _sampled("wick-vector", cfg, cases)


def _instances(on: str, cfg: VerifyConfig, blocks=DEFAULT_BLOCKS) -> list[tuple]:
    """(head, argument, ground size) of each instance of a row taking on:
    sizes 1..n, the given blocks or else the block list blocks, or the
    Catalan patterns of each even length up to n.  Every size is checked
    against the cap, in run order, before the first instance is built."""
    if on == "blocks":
        block_list = (cfg.blocks,) if cfg.blocks else blocks
        _capped(map(sum, block_list), cfg.cap)
        return [({"blocks": list(arg)}, arg, sum(arg)) for arg in block_list]
    if on == "size":
        return [({"n": n}, n, n) for n in _capped(_sizes(cfg.n), cfg.cap)]
    return [
        ({"eps": list(eps)}, eps, length)
        for length in _capped(_sizes(cfg.n, step=2), cfg.cap)
        for eps in catalan_sequences(length, cap=cfg.cap)
    ]


def _check_row(check_id: str, name: str, cfg: VerifyConfig) -> list[VerifyReport]:
    """ids t2.1, c2.2, t3.3, t3.4, wick-to-normal and normal-to-wick: the
    left words of the named identity row applied to the vacuum against the
    row's diagram sum, on the instances of _instances for the row's
    argument kind.  A complete row is scalar, so only the vacuum coefficient
    is compared, and on an odd ground size it must be exactly zero."""
    row = IDENTITIES[name]

    def case(head: dict, arg, size: int) -> _Case:
        oracle = partial(graded_apply, row.left_words(arg), scalar=row.complete)
        # an odd complete row must vanish, not just equal the formula
        ok = (lambda lhs, rhs: lhs == rhs and not lhs) if row.complete and size % 2 else operator.eq
        return _bounded(head, size, oracle, expand(name, arg, cap=cfg.cap), ok)

    return _sampled(check_id, cfg, itertools.starmap(case, _instances(row.on, cfg)))


def _peel_row(check_id: str, name: str, cfg: VerifyConfig) -> list[VerifyReport]:
    """ids roundtrip and wick2-vs-recursion: the named identity row's diagram
    sum (lhs) and its left word (rhs), each rewritten into plain products by
    the peeling recursion, must be the same canonical expansion, on sizes
    1..n.  The row must be neither complete nor blocked, so that its left
    side is one word."""
    row = IDENTITIES[name]
    reports = []
    for n in _capped(_sizes(cfg.n), cfg.cap):
        lhs = normal_form(expand(name, n, cap=cfg.cap), cap=cfg.cap)
        (word,) = row.left_words(n)
        rhs = normal_form(Expansion({((), word.indices, word.kind): 1}), cap=cfg.cap)
        reports.append(_report(check_id, {"n": n}, lhs == rhs, lhs=lhs, rhs=rhs))
    return reports


def check_free(cfg: VerifyConfig) -> list[VerifyReport]:
    """id free: each class-filtered q=0 formula must equal the constant part
    of its general counterpart, for every row of the identity table: on the
    sizes, then the block lists, then the sign patterns (none for n = 1)."""
    cases = {"size": _instances("size", cfg), "blocks": _instances("blocks", cfg, FREE_BLOCKS)}
    cases["pattern"] = _instances("pattern", cfg) if cfg.n > 1 else []
    reports = []
    for on, instances in cases.items():
        targets = [name for name, row in IDENTITIES.items() if row.on == on]
        for (head, arg, _), target in itertools.product(instances, targets):
            filtered = expand(target, arg, free=True, cap=cfg.cap)
            general = specialize_free(expand(target, arg, cap=cfg.cap))
            instance = {"target": target, **head}
            reports.append(
                _report("free", instance, filtered == general, lhs=filtered, rhs=general)
            )
    return reports


def check_gram(cfg: VerifyConfig) -> list[VerifyReport]:
    """id gram: exact positive-definiteness of the inner-product Gram matrices.
    Every shape is checked before the first is built, in run order."""
    dims = (cfg.dim,) if cfg.dim is not None else (1, 2)
    runs = itertools.product(cfg.q_values(GRAM_Q_GRID), dims, _sizes(cfg.n))
    shapes = [(degree, FockParams(dim, max(degree, 1), q0)) for q0, dim, degree in runs]
    for degree, params in shapes:
        ensure_gram_shape(degree, params)
    reports = []
    for degree, params in shapes:
        ok = gram_check(degree, params)
        instance = {"dim": params.dim, "degree": degree, "q": str(params.q)}
        reports.append(_report("gram", instance, ok, positive_definite=ok))
    return reports


# Each suite with the options it reads and their defaults; run_check rejects
# any other option that is given.
_SAMPLED = {"q": None, "dim": 2, "level": None, "seed": 0}
_ON_SIZES = {"n": 8, **_SAMPLED, "cap": None}
_ON_BLOCKS = {"blocks": None, **_SAMPLED, "cap": None}
CHECKS = {
    "t2.1": (partial(_check_row, "t2.1", "operator-moment"), _ON_SIZES),
    "c2.2": (partial(_check_row, "c2.2", "moment"), _ON_SIZES),
    "wick-to-normal": (partial(_check_row, "wick-to-normal", "wick-to-normal"), _ON_SIZES),
    "normal-to-wick": (partial(_check_row, "normal-to-wick", "normal-to-wick"), _ON_SIZES),
    "wick-vector": (check_wick_vector, {"n": 6, **_SAMPLED}),
    "t3.3": (partial(_check_row, "t3.3", "product-expectation"), _ON_BLOCKS),
    "t3.4": (partial(_check_row, "t3.4", "product-expansion"), _ON_BLOCKS),
    "roundtrip": (partial(_peel_row, "roundtrip", "normal-to-wick"), {"n": 6, "cap": None}),
    "wick2-vs-recursion": (
        partial(_peel_row, "wick2-vs-recursion", "wick-to-normal"),
        {"n": 7, "cap": None},
    ),
    "free": (check_free, {"n": 6, "blocks": None, "cap": None}),
    "gram": (check_gram, {"n": 3, "q": None, "dim": None}),
}


def _option(value, what: str, convert=operator.index, kind: str = "an integer"):
    if not isinstance(value, bool):  # it would run as 0 or 1
        try:
            return convert(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise DomainError(f"{what} must be {kind}, got {value!r}")


def run_check(check_id: str, **options) -> list[VerifyReport]:
    """Run one named check suite and return its reports in emission order.

    options are VerifyConfig fields, and None counts as not given.  One the
    suite does not read, which would change nothing, is a DomainError, and
    so is a bool or a value of the wrong type, such as a size that is not an
    integer, a q that is not a rational number or blocks that are no sequence.
    """
    if check_id not in CHECKS:
        raise DomainError(
            f"unknown check {check_id!r}; expected one of {', '.join(sorted(CHECKS))}"
        )
    suite, defaults = CHECKS[check_id]
    given = {key: value for key, value in options.items() if value is not None}
    for key in given:
        if key not in defaults:
            raise DomainError(f"check {check_id} does not read --{key}")
    for key in ("n", "dim", "level", "seed", "cap"):
        if key in given:
            given[key] = _option(given[key], key)
    if "q" in given:
        given["q"] = _option(given["q"], "q", Fraction, "a rational number")
    if "blocks" in given:
        blocks = _option(given["blocks"], "blocks", tuple, "a sequence of block sizes")
        given["blocks"] = tuple(_option(b, "block size") for b in blocks)
        if not given["blocks"]:
            raise DomainError("blocks = () gives no instances; it must hold at least one block")
    return suite(VerifyConfig(**{**defaults, **given}))
