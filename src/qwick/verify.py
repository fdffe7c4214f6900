"""Cross-checks between the symbolic expansions and the operator oracle.

Each checker returns a list of VerifyReport records, one per instance, in a
deterministic order.  A failing report always carries a complete
reproduction witness: the instance data, the sampled vectors and q, and
both computed values.  The check ids here are the ones the command line
accepts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    NORMAL,
    CovarianceMonomial,
    Expansion,
    QPolynomial,
    VariableWord,
    specialize_free,
    substitute_wick,
)
from .diagrams import catalan_sequences
from .errors import DomainError
from .fock import (
    FockParams,
    FockVector,
    OneParticleVector,
    apply_wick_product,
    evaluate_expansion,
    gram_check,
    vacuum_expectation,
)
from .wick import (
    IDENTITIES,
    OperatorWord,
    expand,
    m_epsilon_expansion,
    moment_expansion,
    normal_to_wick,
    wick_recursive,
    wick_substitution_rules,
    wick_to_normal,
)

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
DEFAULT_SAMPLES = 5


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
    """Knobs shared by all checkers; None means the check's own default."""

    n: int | None = None
    blocks: tuple[int, ...] | None = None
    q: Fraction | None = None
    dim: int | None = None
    level: int | None = None
    seed: int = 0
    samples: int = DEFAULT_SAMPLES
    cap: int | None = None

    def q_values(self, default=Q_GRID) -> tuple[Fraction, ...]:
        return (Fraction(self.q),) if self.q is not None else default

    def cutoff(self, degree: int) -> int:
        """The given level (0 too, which FockParams rejects), else degree + 1."""
        return self.level if self.level is not None else degree + 1


def sample_assignments(
    nvars: int, dim: int, seed: int, samples: int
) -> list[dict[int, OneParticleVector]]:
    """Deterministic batches of integer-coordinate vectors in [-3, 3]."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        out.append(
            {
                idx: OneParticleVector(
                    tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
                )
                for idx in range(1, nvars + 1)
            }
        )
    return out


def _vec_json(assignment: Mapping[int, OneParticleVector]) -> dict:
    return {str(i): [str(c) for c in v.coords] for i, v in sorted(assignment.items())}


def _report(check, instance, ok, witness=None) -> VerifyReport:
    return VerifyReport(check, instance, "pass" if ok else "fail", None if ok else witness)


def _pass_fail(check, instance, lhs, rhs, extra=None) -> VerifyReport:
    ok = lhs == rhs
    witness = None
    if not ok:
        witness = {"lhs": _render(lhs), "rhs": _render(rhs)}
        if extra:
            witness.update(extra)
    return VerifyReport(check, instance, "pass" if ok else "fail", witness)


def _render(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, FockVector):
        return value.to_json()
    if isinstance(value, Expansion):
        return value.to_json()
    return repr(value)


def check_sign_moments(cfg: VerifyConfig) -> list[VerifyReport]:
    """id t2.1: oracle expectation of signed operator words against the
    compatible-diagram sum, over every Catalan pattern up to the size bound."""
    max_len = cfg.n if cfg.n is not None else 8
    dim = cfg.dim if cfg.dim is not None else 3
    reports = []
    for length in range(2, max_len + 1, 2):
        assignments = sample_assignments(length, dim, cfg.seed, cfg.samples)
        for eps in catalan_sequences(length, cap=cfg.cap):
            expansion = m_epsilon_expansion(eps, cap=cfg.cap)
            # sampled agreement certifies the polynomial identity only
            # together with a degree bound on the q-exponents
            bound_ok = expansion.max_exponent() < length * length
            word = OperatorWord(
                tuple((e, k) for k, e in enumerate(eps.entries, start=1))
            )
            for q0 in cfg.q_values():
                params = FockParams(dim, cfg.cutoff(length), q0)
                for s_idx, assignment in enumerate(assignments):
                    instance = {
                        "eps": list(eps.entries),
                        "q": str(q0),
                        "sample": s_idx,
                    }
                    lhs = vacuum_expectation(word, assignment, params)
                    rhs = evaluate_expansion(expansion, assignment, params)
                    ok = bound_ok and lhs == rhs
                    reports.append(
                        _report(
                            "t2.1",
                            instance,
                            ok,
                            {
                                "lhs": str(lhs),
                                "rhs": str(rhs),
                                "degree_bound_ok": bound_ok,
                                "vectors": _vec_json(assignment),
                            },
                        )
                    )
    return reports


def _expanded_field_expectation(n, assignment, params) -> Fraction:
    # oracle side of the moment: expand every field factor into its creation
    # and annihilation parts and sum the 2^n signed operator words
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=n):
        word = OperatorWord(tuple((s, k) for k, s in enumerate(signs, start=1)))
        total += vacuum_expectation(word, assignment, params)
    return total


def check_moments(cfg: VerifyConfig) -> list[VerifyReport]:
    """id c2.2: oracle moments of field products against the complete-diagram
    sum; odd orders must give exactly zero."""
    max_n = cfg.n if cfg.n is not None else 8
    dim = cfg.dim if cfg.dim is not None else 3
    reports = []
    for n in range(1, max_n + 1):
        expansion = moment_expansion(n, cap=cfg.cap)
        bound_ok = expansion.max_exponent() < n * n
        assignments = sample_assignments(n, dim, cfg.seed, cfg.samples)
        for q0 in cfg.q_values():
            params = FockParams(dim, cfg.cutoff(n), q0)
            for s_idx, assignment in enumerate(assignments):
                instance = {"n": n, "q": str(q0), "sample": s_idx}
                lhs = _expanded_field_expectation(n, assignment, params)
                rhs = evaluate_expansion(expansion, assignment, params)
                ok = bound_ok and lhs == rhs and (n % 2 == 0 or lhs == 0)
                reports.append(
                    _report(
                        "c2.2",
                        instance,
                        ok,
                        {
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                            "degree_bound_ok": bound_ok,
                            "vectors": _vec_json(assignment),
                        },
                    )
                )
    return reports


def check_recursion_agreement(cfg: VerifyConfig) -> list[VerifyReport]:
    """id wick2-vs-recursion: the diagram formula and the peeling recursion
    must produce identical canonical expansions."""
    max_n = cfg.n if cfg.n is not None else 7
    reports = []
    for n in range(1, max_n + 1):
        reports.append(
            _pass_fail(
                "wick2-vs-recursion",
                {"n": n},
                wick_to_normal(n, cap=cfg.cap),
                wick_recursive(n, cap=cfg.cap),
            )
        )
    return reports


def _elementary_tensor(vectors: Sequence[OneParticleVector]) -> FockVector:
    entries: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for f in vectors:
        new: dict[tuple[int, ...], Fraction] = {}
        for word, val in entries.items():
            for letter, coord in enumerate(f.coords, start=1):
                if coord:
                    key = word + (letter,)
                    new[key] = new.get(key, Fraction(0)) + coord * val
        entries = new
    return FockVector(entries)


def check_wick_vector(cfg: VerifyConfig) -> list[VerifyReport]:
    """id wick-vector: the operator form of a Wick product must send the
    vacuum to the plain elementary tensor of its vectors."""
    max_n = cfg.n if cfg.n is not None else 6
    dim = cfg.dim if cfg.dim is not None else 3
    reports = []
    for n in range(1, max_n + 1):
        assignments = sample_assignments(n, dim, cfg.seed, cfg.samples)
        for q0 in cfg.q_values():
            params = FockParams(dim, cfg.cutoff(n), q0)
            for s_idx, assignment in enumerate(assignments):
                instance = {"n": n, "q": str(q0), "sample": s_idx}
                lhs = apply_wick_product(
                    tuple(range(1, n + 1)), assignment, FockVector.vacuum(), params
                )
                rhs = _elementary_tensor([assignment[i] for i in range(1, n + 1)])
                reports.append(
                    _pass_fail(
                        "wick-vector",
                        instance,
                        lhs,
                        rhs,
                        {"vectors": _vec_json(assignment)},
                    )
                )
    return reports


def _block_positions(blocks: Sequence[int]) -> list[tuple[int, ...]]:
    out = []
    start = 1
    for width in blocks:
        out.append(tuple(range(start, start + width)))
        start += width
    return out


def _wick_product_vector(blocks, assignment, params) -> FockVector:
    """(product of per-block Wick products) applied to the vacuum, rightmost
    block first."""
    vec = FockVector.vacuum()
    for positions in reversed(_block_positions(blocks)):
        vec = apply_wick_product(positions, assignment, vec, params)
    return vec


def check_product_expectation(cfg: VerifyConfig) -> list[VerifyReport]:
    """id t3.3: the expectation of a product of Wick products against the
    non-linking complete diagram sum."""
    return _check_blocks(cfg, "t3.3", "product-expectation")


def check_product_expansion(cfg: VerifyConfig) -> list[VerifyReport]:
    """id t3.4: both sides of the product identity applied to the vacuum."""
    return _check_blocks(cfg, "t3.4", "product-expansion")


def _check_blocks(cfg: VerifyConfig, check_id: str, name: str) -> list[VerifyReport]:
    # a complete-diagram row is scalar: compare the vacuum coefficient only
    expectation = IDENTITIES[name].complete
    block_list = (cfg.blocks,) if cfg.blocks else DEFAULT_BLOCKS
    dim = cfg.dim if cfg.dim is not None else 3
    reports = []
    for blocks in block_list:
        total = sum(blocks)
        symbolic = expand(name, blocks, cap=cfg.cap)
        assignments = sample_assignments(total, dim, cfg.seed, cfg.samples)
        for q0 in cfg.q_values():
            params = FockParams(dim, cfg.cutoff(total), q0)
            for s_idx, assignment in enumerate(assignments):
                instance = {"blocks": list(blocks), "q": str(q0), "sample": s_idx}
                vec = _wick_product_vector(blocks, assignment, params)
                lhs = vec.coefficient(()) if expectation else vec
                rhs = evaluate_expansion(symbolic, assignment, params)
                reports.append(
                    _pass_fail(
                        check_id, instance, lhs, rhs, {"vectors": _vec_json(assignment)}
                    )
                )
    return reports


def check_roundtrip(cfg: VerifyConfig) -> list[VerifyReport]:
    """id roundtrip: rewriting each Wick term of the product-to-Wick expansion
    back into plain products must collapse to the single bare word."""
    max_n = cfg.n if cfg.n is not None else 6
    reports = []
    for n in range(1, max_n + 1):
        wick_form = normal_to_wick(n, cap=cfg.cap)
        rules = wick_substitution_rules(wick_form, cap=cfg.cap)
        result = substitute_wick(wick_form, rules)
        expected = Expansion.single(
            CovarianceMonomial.identity(),
            VariableWord(tuple(range(1, n + 1)), NORMAL),
            QPolynomial.one(),
        )
        reports.append(_pass_fail("roundtrip", {"n": n}, result, expected))
    return reports


def check_free(cfg: VerifyConfig) -> list[VerifyReport]:
    """id free: each class-filtered q=0 formula must equal the constant part
    of its general counterpart, for every row of the identity table."""
    max_n = cfg.n if cfg.n is not None else 6
    block_list = (cfg.blocks,) if cfg.blocks else FREE_BLOCKS
    cases = [(False, {"n": n}, n) for n in range(1, max_n + 1)]
    cases += [(True, {"blocks": list(blocks)}, blocks) for blocks in block_list]
    reports = []
    for blocked, instance, arg in cases:
        for target, row in IDENTITIES.items():
            if row.blocks != blocked:
                continue
            filtered = expand(target, arg, free=True, cap=cfg.cap)
            general = expand(target, arg, cap=cfg.cap)
            reports.append(
                _pass_fail(
                    "free", {"target": target, **instance}, filtered, specialize_free(general)
                )
            )
    return reports


def check_gram(cfg: VerifyConfig) -> list[VerifyReport]:
    """id gram: exact positive-definiteness of the inner-product Gram matrices."""
    dims = (cfg.dim,) if cfg.dim is not None else (1, 2)
    max_degree = cfg.n if cfg.n is not None else 3
    reports = []
    for q0 in cfg.q_values(GRAM_Q_GRID):
        for dim in dims:
            for degree in range(1, max_degree + 1):
                params = FockParams(dim, max(degree, 1), q0)
                ok = gram_check(degree, params)
                reports.append(
                    _report(
                        "gram",
                        {"dim": dim, "degree": degree, "q": str(q0)},
                        ok,
                        {"positive_definite": ok},
                    )
                )
    return reports


CHECKS = {
    "t2.1": check_sign_moments,
    "c2.2": check_moments,
    "wick2-vs-recursion": check_recursion_agreement,
    "wick-vector": check_wick_vector,
    "t3.3": check_product_expectation,
    "t3.4": check_product_expansion,
    "roundtrip": check_roundtrip,
    "free": check_free,
    "gram": check_gram,
}


def run_check(
    check_id: str,
    *,
    n: int | None = None,
    blocks: Sequence[int] | None = None,
    q: Fraction | None = None,
    dim: int | None = None,
    level: int | None = None,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    cap: int | None = None,
) -> list[VerifyReport]:
    """Run one named check suite and return its reports in emission order."""
    if check_id not in CHECKS:
        raise DomainError(
            f"unknown check {check_id!r}; expected one of {', '.join(sorted(CHECKS))}"
        )
    cfg = VerifyConfig(
        n=n,
        blocks=tuple(blocks) if blocks else None,
        q=q,
        dim=dim,
        level=level,
        seed=seed,
        samples=samples,
        cap=cap,
    )
    return CHECKS[check_id](cfg)
