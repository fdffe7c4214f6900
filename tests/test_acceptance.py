"""Acceptance suite: one test per criterion, all exact (tolerance zero).

Run with -s to see the PASS/FAIL line each criterion prints.
"""

from fractions import Fraction
from math import comb

from qwick import (
    FeynmanDiagram,
    FockParams,
    GroundSet,
    OneParticleVector,
    QPolynomial,
    enumerate_complete,
    evaluate_expansion,
    expand,
)
from qwick.algebra import NORMAL, Expansion
from qwick.verify import run_check
from reference import classify, crossing_stats


def report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {tag} failed: {detail}"


def suite_ok(check_id, **kwargs):
    reports = run_check(check_id, **kwargs)
    failures = [r for r in reports if not r.passed]
    detail = f"{len(reports)} instances"
    if failures:
        detail += f", first failure {failures[0].instance}: {failures[0].witness}"
    return not failures, detail


def test_criterion_01_crossing_statistics_ground_truth():
    diagram = FeynmanDiagram(GroundSet(10), ((1, 3), (2, 6), (4, 9), (8, 10)))
    stats = crossing_stats(diagram)
    ok = stats.c == 3 and [p.left_crossings for p in stats.per_pair] == [0, 1, 1, 1]
    report("1 crossing ground truth", ok, f"c={stats.c}")


def test_criterion_02_sign_pattern_moments_match_oracle():
    ok, detail = suite_ok("t2.1", n=8, dim=3)
    report("2 signed-word moments", ok, detail)


def test_criterion_03_moments_match_oracle():
    ok, detail = suite_ok("c2.2", n=8, dim=3)
    # spot value: all variables equal and unit norm makes the fourth moment 2 + q
    e1 = OneParticleVector((1, 0, 0))
    assign = {i: e1 for i in range(1, 5)}
    for q0 in (Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2)):
        params = FockParams(3, 4, q0)
        ok = ok and evaluate_expansion(expand("moment", 4), assign, params) == 2 + q0
    report("3 q-moment formula", ok, detail)


def test_criterion_04_explicit_formula_equals_recursion():
    ok, detail = suite_ok("wick2-vs-recursion", n=7)
    report("4 formula vs recursion", ok, detail)


def test_criterion_05_wick_operator_form_builds_elementary_tensors():
    ok, detail = suite_ok("wick-vector", n=6, dim=3)
    report("5 wick vector identity", ok, detail)


def test_criterion_06_products_of_wick_products():
    blocks_list = ((1, 1), (2, 1), (2, 2), (2, 3), (1, 2, 2), (2, 2, 2))
    ok_all = True
    details = []
    for blocks in blocks_list:
        for check in ("t3.3", "t3.4"):
            ok, detail = suite_ok(check, blocks=blocks, dim=3)
            ok_all = ok_all and ok
            if not ok:
                details.append(f"{check} {blocks}: {detail}")
    report("6 product identities", ok_all, "; ".join(details) or "all block structures")


def test_criterion_07_round_trip_recovers_the_bare_word():
    ok, detail = suite_ok("roundtrip", n=6)
    report("7 round trip", ok, detail)


def test_criterion_08_free_case():
    ok, detail = suite_ok("free", n=6)
    expected = Expansion(
        {
            ((), (1, 2, 3), NORMAL): QPolynomial.one(),
            (((1, 2),), (3,), NORMAL): QPolynomial.constant(-1),
            (((2, 3),), (1,), NORMAL): QPolynomial.constant(-1),
        }
    )
    display = expand("wick-to-normal", 3, free=True)
    ok = ok and display == expected
    ok = ok and display.pretty() == "x1 x2 x3 - c(1,2) x3 - c(2,3) x1"
    report("8 free case", ok, detail)


def test_criterion_09_counting_suite():
    def double_factorial_odd(n):
        out = 1
        for k in range(1, 2 * n, 2):
            out *= k
        return out

    def catalan_number(n):
        return comb(2 * n, n) // (n + 1)

    ok = True
    for n, want_all, want_nc in ((2, 3, 2), (3, 15, 5), (4, 105, 14)):
        diagrams = list(enumerate_complete(GroundSet(2 * n)))
        ok = ok and len(diagrams) == want_all == double_factorial_odd(n)
        noncrossing = sum(1 for d in diagrams if classify(d).noncrossing)
        ok = ok and noncrossing == want_nc == catalan_number(n)
        poly = QPolynomial.zero()
        for d in diagrams:
            poly = poly + QPolynomial.q_power(crossing_stats(d).c)
        ok = ok and poly.evaluate(1) == want_all and poly.evaluate(0) == want_nc
    report("9 counting suite", ok)


def test_criterion_10_gram_positivity():
    ok, detail = suite_ok("gram", n=3)
    report("10 gram positivity", ok, detail)
