"""Command-line surface: output shapes, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwick import (
    IDENTITIES,
    DomainError,
    GroundSet,
    SizeLimitError,
    cli,
    diagrams,
    enumerate_diagrams,
    enumerate_nonlinking,
    expand,
    fock,
    verify,
)
from qwick.algebra import NORMAL, CovarianceMonomial, Expansion, QPolynomial, VariableWord
from qwick.errors import QwickError
from qwick.fock import FockParams, Graded
from qwick.verify import VerifyReport
from reference import crossing_stats, row_args


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDiagramsCommand:
    def test_summary_for_four_points(self, capsys):
        code, out = run_cli(capsys, "diagrams", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["total"] == 10
        assert payload["summary"]["complete"] == 3
        assert payload["summary"]["complete_noncrossing"] == 2
        assert payload["complete_crossing_polynomial"]["pretty"] == "2 + q"

    def test_summary_for_two_points(self, capsys):
        code, out = run_cli(capsys, "diagrams", "--n", "2")
        assert code == 0
        assert json.loads(out)["summary"]["total"] == 2

    def test_empty_ground(self, capsys):
        code, out = run_cli(capsys, "diagrams", "--n", "0")
        assert code == 0
        assert json.loads(out)["summary"]["total"] == 1

    def test_blocks_listing_filters_internal_pairs(self, capsys):
        code, out = run_cli(capsys, "diagrams", "--blocks", "2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["blocks"] == [2, 2]
        for record in payload["diagrams"]:
            for i, j in record["pairs"]:
                assert (i <= 2) != (j <= 2)

    def test_missing_size_is_a_usage_error(self, capsys):
        code, _ = run_cli(capsys, "diagrams")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "diagrams", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("pairs,singletons,c,d,tc,g,a")
        assert len(lines) == 3


class TestExpansionCommands:
    def test_wick_to_normal_two_variables(self, capsys):
        code, out = run_cli(capsys, "wick", "to-normal", "--n", "2")
        assert code == 0
        terms = json.loads(out)["terms"]
        assert terms == [
            {"cov": [], "word": [1, 2], "kind": "normal", "poly": [{"exp": 0, "num": 1, "den": 1}]},
            {"cov": [[1, 2]], "word": [], "kind": "normal", "poly": [{"exp": 0, "num": -1, "den": 1}]},
        ]

    def test_wick_to_normal_single_variable(self, capsys):
        code, out = run_cli(capsys, "wick", "to-normal", "--n", "1")
        assert code == 0
        terms = json.loads(out)["terms"]
        assert terms == [
            {"cov": [], "word": [1], "kind": "normal", "poly": [{"exp": 0, "num": 1, "den": 1}]}
        ]

    def test_wick_to_wick_two_variables(self, capsys):
        code, out = run_cli(capsys, "wick", "to-wick", "--n", "2", "--format", "pretty")
        assert code == 0
        assert out.strip() == ":x1 x2: + c(1,2)"

    def test_free_wick_product_of_three(self, capsys):
        code, out = run_cli(
            capsys, "wick", "to-normal", "--n", "3", "--free", "--format", "pretty"
        )
        assert code == 0
        assert out.strip() == "x1 x2 x3 - c(1,2) x3 - c(2,3) x1"

    def test_moments_free_flag(self, capsys):
        code, out = run_cli(capsys, "moments", "--n", "4", "--free", "--format", "pretty")
        assert code == 0
        assert out.strip() == "c(1,2) c(3,4) + c(1,4) c(2,3)"

    def test_product_reports_both_labelings(self, capsys):
        code, out = run_cli(capsys, "product", "--blocks", "2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["labels"] == [[1, 1], [1, 2], [2, 1]]
        assert len(payload["terms"]) == 3

    def test_product_expectation_flag(self, capsys):
        code, out = run_cli(
            capsys, "product", "--blocks", "2,2", "--expectation", "--format", "pretty"
        )
        assert code == 0
        assert out.strip() == "q c(1,3) c(2,4) + c(1,4) c(2,3)"

    def test_output_is_byte_stable(self, capsys):
        _, first = run_cli(capsys, "moments", "--n", "6")
        _, second = run_cli(capsys, "moments", "--n", "6")
        assert first == second

    def test_cap_flag(self, capsys):
        code, _ = run_cli(capsys, "moments", "--n", "6", "--cap", "4")
        assert code == 2

    def test_csv_terms(self, capsys):
        code, out = run_cli(capsys, "wick", "to-normal", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cov,word,kind,poly"
        assert lines[1] == ",1 2,normal,1"
        assert lines[2] == "1-2,,normal,-1"


SMALL_SAMPLED_RUNS = [
    ("t2.1", {"n": 4}),
    ("c2.2", {"n": 3}),
    ("c2.2", {"n": 4, "dim": 1}),
    ("wick-vector", {"n": 3}),
    ("t3.3", {"blocks": (1, 2)}),
    ("t3.4", {"blocks": (2, 1)}),
    ("t3.4", {"blocks": (1, 1), "dim": 3}),
]
SAMPLED_SUITES = ("t2.1", "c2.2", "wick-vector", "t3.3", "t3.4")


def reference_sampled(check, cfg, cases):
    """The sampled runner with every sample evaluated at every grid q, as
    it ran before the suites decided on whole q-polynomials."""
    reports = []
    qs = cfg.q_values()
    for case in cases:
        assignments = verify.sample_assignments(case.nvars, cfg.dim, cfg.seed)
        params = FockParams(cfg.dim, cfg.cutoff(case.nvars), qs[0])
        values = [(case.oracle(a, params, qs), case.formula(a, params, qs)) for a in assignments]
        for q0 in qs:
            for s_idx, (assignment, (lhs, rhs)) in enumerate(zip(assignments, values)):
                lhs, rhs = lhs.at(q0), rhs.at(q0)
                reports.append(
                    verify._report(
                        check,
                        {**case.head, "q": str(q0), "sample": s_idx},
                        case.ok(lhs, rhs),
                        lhs=lhs,
                        rhs=rhs,
                        **dict(case.extra),
                        vectors=verify._vec_json(assignment),
                    )
                )
    return reports


def off_by(graded):
    """graded with q^2 - q/2 added to its vacuum entry."""
    entries = dict(graded.entries)
    for key, c in ((((), 2), 1), (((), 1), Fraction(-1, 2))):
        entries[key] = entries.get(key, 0) + c
    return Graded({key: c for key, c in entries.items() if c}, graded.scalar)


def sampled_outcome(check, options):
    try:
        return [r.to_json() for r in verify.run_check(check, **options)]
    except QwickError as exc:
        return type(exc).__name__, str(exc)


class TestVerifyCommand:
    def test_moment_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "c2.2", "--n", "6", "--q", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert all(r["status"] == "pass" for r in payload["reports"])

    def test_blocks_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "t3.4", "--blocks", "2,2")
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_gram_rejects_q_outside_interval(self, capsys):
        code, _ = run_cli(capsys, "verify", "gram", "--q", "5/4")
        assert code == 2

    def test_level_zero_is_rejected(self, capsys):
        code = cli.main(["verify", "c2.2", "--n", "3", "--level", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: tensor degree cutoff must be >= 1, got 0"]

    def test_oversized_gram_matrix_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qwick", "verify", "gram", "--dim", "3", "--n", "8"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_unknown_check_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_bad_rational_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "gram", "--q", "pi"])
        assert exc.value.code == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        fake = [VerifyReport("gram", {"dim": 1}, "fail", {"positive_definite": False})]
        monkeypatch.setattr(cli, "run_check", lambda *a, **k: fake)
        code, out = run_cli(capsys, "verify", "gram")
        assert code == 1
        assert json.loads(out)["failures"] == 1

    def test_an_internal_fault_is_not_a_usage_error(self, monkeypatch):
        # only a QwickError is blamed on the input; no command line raises a
        # KeyError, so one is a fault and keeps its traceback
        def fault(*args, **kwargs):
            raise KeyError("no vector assigned to variable 7")

        monkeypatch.setattr(cli, "run_check", fault)
        with pytest.raises(KeyError, match="variable 7"):
            cli.main(["verify", "gram"])

    def test_pretty_format_lists_instances(self, capsys):
        code, out = run_cli(
            capsys, "verify", "roundtrip", "--n", "3", "--format", "pretty"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS roundtrip")
        assert lines[-1] == "3/3 instances passed"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("verify c2.2 --n 0", "n = 0 gives no instances; it must be at least 1"),
            ("verify gram --n 0", "n = 0 gives no instances; it must be at least 1"),
            ("verify t2.1 --n 1", "n = 1 gives no instances; it must be at least 2"),
            ("verify free --n -3", "n = -3 gives no instances; it must be at least 1"),
            ("verify gram --level 0", "check gram does not read --level"),
            ("verify free --blocks 2,2 --level 0", "check free does not read --level"),
            ("verify c2.2 --blocks 2,2", "check c2.2 does not read --blocks"),
            ("verify roundtrip --dim 3", "check roundtrip does not read --dim"),
            ("verify wick-vector --cap 5", "check wick-vector does not read --cap"),
            ("diagrams --n 5 --blocks 2,2", "diagrams takes --n or --blocks, not both"),
        ],
    )
    def test_empty_range_or_unread_flag_is_a_usage_error(self, capsys, argv, message):
        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    # each suite checks its instance sizes against the cap before it builds
    # the formula of the first one; the in-cap run of the same suite shows
    # that the patched builders are the ones it calls
    @pytest.mark.parametrize(
        "argv, in_cap, builders, message",
        [
            (
                "verify c2.2 --n 9 --cap 8",
                "verify c2.2 --n 2",
                ("expand",),
                "ground size 9 exceeds enumeration cap 8",
            ),
            (
                "verify wick2-vs-recursion --n 11 --cap 10",
                "verify wick2-vs-recursion --n 2",
                ("expand", "normal_form"),
                "ground size 11 exceeds enumeration cap 10",
            ),
            (
                "verify roundtrip --n 11 --cap 10",
                "verify roundtrip --n 2",
                ("expand", "normal_form"),
                "ground size 11 exceeds enumeration cap 10",
            ),
            (
                "verify free --n 3 --blocks 4,4 --cap 6",
                "verify free --n 1 --blocks 1,1",
                ("expand",),
                "ground size 8 exceeds enumeration cap 6",
            ),
        ],
    )
    def test_oversized_run_fails_before_its_first_instance(
        self, capsys, monkeypatch, argv, in_cap, builders, message
    ):
        calls = []
        for name in builders:
            original = getattr(verify, name)
            monkeypatch.setattr(
                verify,
                name,
                lambda *a, _f=original, _name=name, **k: calls.append(_name) or _f(*a, **k),
            )
        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert calls == []
        assert code == 2
        assert captured.err.splitlines() == [f"error: {message}"]
        assert cli.main(in_cap.split()) == 0
        assert set(calls) == set(builders)

    def test_oversized_gram_run_builds_no_matrix(self, monkeypatch):
        calls = []
        original = fock._gram
        monkeypatch.setattr(fock, "_gram", lambda *a: calls.append(a) or original(*a))
        with pytest.raises(SizeLimitError) as exc:
            verify.run_check("gram", n=7, dim=2)
        assert calls == []
        assert str(exc.value) == "2^7 basis words exceed the Gram matrix cap 100"

    def test_enumeration_cap_does_not_bound_the_oracle(self, capsys, monkeypatch):
        # a default cap of 3 stops every diagram sum on 4 positions, not the oracle
        monkeypatch.setattr(diagrams, "DEFAULT_CAP", 3)
        assert run_cli(capsys, "moments", "--n", "4")[0] == 2
        code, out = run_cli(capsys, "verify", "wick-vector", "--n", "4")
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_support_cap_stops_a_long_oracle_run(self):
        # uncapped, this run's vectors reach 2,015,451 entries and take ~26 s
        proc = subprocess.run(
            [sys.executable, "-m", "qwick", "verify", "c2.2", "--n", "5", "--dim", "20"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # the cap is checked after each entry's fan-out, so the step stops
        # one entry past it
        assert proc.stderr.splitlines() == [
            "error: 100001 vector entries exceed the support cap 100000"
        ]

    def test_support_cap_stops_one_wide_step_early(self):
        # one creation step of this run fans each entry out 300 ways; checked
        # only once the step was done, it ran for minutes
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qwick", "verify", "c2.2", "--n", "4", "--dim", "300"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: 100016 vector entries exceed the support cap 100000"
        ]

    def test_wick_form_past_its_cap_fails_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qwick", "verify", "wick-vector", "--n", "13"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: 13 variables exceed the Wick operator form cap 12"
        ]

    @pytest.mark.parametrize("check", ["free", "t3.3", "t3.4"])
    def test_empty_block_list_is_a_domain_error(self, check):
        # not the suite's default block list
        with pytest.raises(DomainError) as exc:
            verify.run_check(check, blocks=())
        assert str(exc.value) == "blocks = () gives no instances; it must hold at least one block"

    @pytest.mark.parametrize(
        "check, options, message",
        [
            ("t3.3", {"blocks": (2, "a")}, "block size must be an integer, got 'a'"),
            ("c2.2", {"n": 2.5}, "n must be an integer, got 2.5"),
            ("c2.2", {"n": "3"}, "n must be an integer, got '3'"),
            ("c2.2", {"n": True}, "n must be an integer, got True"),
            ("c2.2", {"n": 2, "seed": "x"}, "seed must be an integer, got 'x'"),
            ("c2.2", {"n": 2, "cap": 2.5}, "cap must be an integer, got 2.5"),
        ],
    )
    def test_a_non_integer_size_is_a_domain_error(self, check, options, message):
        # the command line's argument types never pass these
        with pytest.raises(DomainError) as exc:
            verify.run_check(check, **options)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "check, options, message",
        [
            ("c2.2", {"n": 2, "q": "x"}, "q must be a rational number, got 'x'"),
            ("gram", {"n": 1, "q": "x"}, "q must be a rational number, got 'x'"),
            ("c2.2", {"n": 2, "q": True}, "q must be a rational number, got True"),
            ("t3.3", {"blocks": 3}, "blocks must be a sequence of block sizes, got 3"),
        ],
    )
    def test_a_malformed_q_or_blocks_is_a_domain_error(self, check, options, message):
        # the command line's _rational and _block_list types never pass these
        with pytest.raises(DomainError) as exc:
            verify.run_check(check, **options)
        assert str(exc.value) == message

    def test_each_suite_reads_its_flags(self):
        assert {check: set(defaults) for check, (_, defaults) in verify.CHECKS.items()} == READS

    # Both sides shifted by the same constant still agree, but a row of
    # complete diagrams on an odd ground size must give exactly zero; a row
    # with singletons is not bound by that.
    @pytest.mark.parametrize(
        "check, options, failing",
        [
            ("c2.2", {"n": 2}, [{"n": 1}]),
            ("t3.3", {"blocks": (2, 1)}, [{"blocks": [2, 1]}]),
            ("t3.3", {"blocks": (1, 1)}, []),
            ("wick-to-normal", {"n": 2}, []),
        ],
    )
    def test_an_odd_complete_row_must_vanish(self, monkeypatch, check, options, failing):
        def shifted(g):
            entries = dict(g.entries)
            entries[(), 0] = entries.get(((), 0), 0) + 1
            return Graded({key: c for key, c in entries.items() if c}, g.scalar)

        one = Expansion({((), (), NORMAL): 1})
        apply, build = verify.graded_apply, verify.expand
        monkeypatch.setattr(verify, "graded_apply", lambda *a, **k: shifted(apply(*a, **k)))
        monkeypatch.setattr(verify, "expand", lambda *a, **k: build(*a, **k) + one)
        reports = verify.run_check(check, **options)
        for r in reports:
            head = {key: v for key, v in r.instance.items() if key not in ("q", "sample")}
            assert r.passed == (head not in failing)

    # A formula side with a wrong term added must fail with exactly the
    # witness these suites reported before they shared one runner, plus
    # degree_bound_ok for the block rows, which carry the degree guard too.
    # The q^5 - q^4/2 term vanishes at q = 1/2, so only the degree bound fails.
    @pytest.mark.parametrize(
        "target, extra, argv, witness",
        [
            (
                "expand",
                {0: 1},
                "verify c2.2 --n 2 --q 1/2",
                {"lhs": "0", "rhs": "1", "degree_bound_ok": True, "vectors": {"1": ["3", "0"]}},
            ),
            (
                "expand",
                {5: 1, 4: Fraction(-1, 2)},
                "verify c2.2 --n 2 --q 1/2",
                {"lhs": "0", "rhs": "0", "degree_bound_ok": False, "vectors": {"1": ["3", "0"]}},
            ),
            (
                "expand",
                {0: 1},
                "verify t3.4 --blocks 1,1 --q 1/3",
                {
                    "lhs": [{"word": [], "num": 9, "den": 1}, {"word": [1, 1], "num": 9, "den": 1}],
                    "rhs": [{"word": [], "num": 10, "den": 1}, {"word": [1, 1], "num": 9, "den": 1}],
                    "degree_bound_ok": True,
                    "vectors": {"1": ["3", "0"], "2": ["3", "0"]},
                },
            ),
        ],
    )
    def test_failure_witness_is_pinned(
        self, capsys, monkeypatch, target, extra, argv, witness
    ):
        wrong = Expansion.single(
            CovarianceMonomial.identity(), VariableWord((), NORMAL), QPolynomial(extra)
        )
        formula = getattr(verify, target)
        monkeypatch.setattr(verify, target, lambda *a, **k: formula(*a, **k) + wrong)
        code, out = run_cli(capsys, *argv.split())
        reports = json.loads(out)["reports"]
        assert code == 1
        assert all(r["status"] == "fail" for r in reports)
        assert list(reports[0]["witness"]) == list(witness)
        assert reports[0]["witness"] == witness

    # A formula side off by q^2 - q/2, which is 0 at q = 0 and 1/2 but not
    # at q = +-1/3: one sample passes at some grid points and fails at
    # others, so it must take the per-q path.  The sha256 values were
    # recorded before the sampled suites decided on whole q-polynomials,
    # except t3.4's json one, recorded again once block rows carried the
    # degree guard and their witnesses its degree_bound_ok entry.
    @pytest.mark.parametrize(
        "target, argv, fmt, sha",
        [
            (
                "expand",
                "verify c2.2 --n 2",
                "json",
                "8ac6a9e14189d93f6e19df587396ff81dd8ce2d723556a3a1fda785838ff2789",
            ),
            (
                "expand",
                "verify c2.2 --n 2",
                "csv",
                "f8703d1d33e82527978247722cac2f43378517144ce33beec072b7f930adbe1c",
            ),
            (
                "expand",
                "verify t3.4 --blocks 1,1",
                "json",
                "d3775e9c9a85013d1f95c2b4f64c1d3ceb0231fc22c020778b3f1db164556331",
            ),
            (
                "expand",
                "verify t3.4 --blocks 1,1",
                "csv",
                "1086569fcc98a400dbe16095bc29081ed5ccfcada5ec9fe7ebecfc408e4ed0d0",
            ),
        ],
    )
    def test_mixed_verdict_is_pinned(self, capsys, monkeypatch, target, argv, fmt, sha):
        wrong = Expansion.single(
            CovarianceMonomial.identity(),
            VariableWord((), NORMAL),
            QPolynomial({2: 1, 1: Fraction(-1, 2)}),
        )
        formula = getattr(verify, target)
        monkeypatch.setattr(verify, target, lambda *a, **k: formula(*a, **k) + wrong)
        code, out = run_cli(capsys, *argv.split(), "--format", fmt)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == sha
        if fmt == "json":
            verdicts = {}
            for r in json.loads(out)["reports"]:
                instance = dict(r["instance"])
                q = instance.pop("q")
                verdicts.setdefault(json.dumps(instance), {})[q] = r["status"]
            assert {"pass", "fail"} in [set(v.values()) for v in verdicts.values()]
            assert all(v["1/3"] == v["-1/3"] == "fail" for v in verdicts.values())

    # A wrong n = 4 moment term whose coefficient q(3q-1)(3q+1)(2q-1)
    # vanishes at every point of Q_GRID.  The default run still takes one
    # verdict per grid q, so it misses the term; a run at q = 1/4 catches
    # it.  The strict xfail turns into a failure once the default verdict
    # compares whole polynomials.
    @pytest.mark.parametrize(
        "q",
        [
            pytest.param(
                None,
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError, reason="verdicts are taken per grid q"
                ),
            ),
            Fraction(1, 4),
        ],
    )
    def test_a_term_vanishing_on_the_grid_fails(self, monkeypatch, q):
        wrong = Expansion.single(
            CovarianceMonomial(((1, 2), (3, 4))),
            VariableWord((), NORMAL),
            QPolynomial({4: 18, 3: -9, 2: -2, 1: 1}),
        )
        formula = verify.expand

        def expand(name, n, **kwargs):
            return formula(name, n, **kwargs) + (wrong if n == 4 else Expansion.zero())

        monkeypatch.setattr(verify, "expand", expand)
        reports = verify.run_check("c2.2", n=4, q=q)
        assert any(not r.passed for r in reports)

    # A wrong scalar term q^5 - q^4/2 vanishes at q = 1/2, so a run there
    # sees equal values on every row.  Only the degree guard, which every
    # oracle row suite carries, block rows included, can tell: no true term
    # of these sizes reaches q^4.
    @pytest.mark.parametrize(
        "check, options",
        [
            ("c2.2", {"n": 2}),
            ("wick-to-normal", {"n": 2}),
            ("normal-to-wick", {"n": 2}),
            ("t3.3", {"blocks": (1, 1)}),
            ("t3.4", {"blocks": (1, 1)}),
        ],
    )
    def test_a_term_vanishing_at_the_given_q_fails_every_row_suite(
        self, monkeypatch, check, options
    ):
        wrong = Expansion.single(
            CovarianceMonomial.identity(),
            VariableWord((), NORMAL),
            QPolynomial({5: 1, 4: Fraction(-1, 2)}),
        )
        formula = verify.expand
        monkeypatch.setattr(verify, "expand", lambda *a, **k: formula(*a, **k) + wrong)
        reports = verify.run_check(check, q=Fraction(1, 2), **options)
        assert reports and not any(r.passed for r in reports)
        assert all(r.witness["degree_bound_ok"] is False for r in reports)

    # Whole-expansion witnesses: the failing side's terms reach the output
    # through Expansion.to_json, so these pin how int and Fraction
    # coefficients render after a merge, a new term and a cancelled term.
    # The sha256 values were recorded before the expansion core kept
    # integer coefficients as ints; those of wick2-vs-recursion, whose
    # corrupted side was the peel until both sides went through it, were
    # recorded again with the diagram side corrupted instead.
    @pytest.mark.parametrize(
        "check, word, coeffs, first, sha",
        [
            (
                "roundtrip",
                (),
                {0: 3, 2: Fraction(-1, 2)},
                [
                    {"cov": [], "word": [], "kind": "normal", "poly": [
                        {"exp": 0, "num": 3, "den": 1}, {"exp": 2, "num": -1, "den": 2}]},
                    {"cov": [], "word": [1], "kind": "normal", "poly": [
                        {"exp": 0, "num": 1, "den": 1}]},
                ],
                "d600ae1246d65c0c3aa560e1ca8ee0d8bf466c3e4a52feb865d178cdd1af7b75",
            ),
            (
                "roundtrip",
                (1,),
                {0: -2, 1: 5},
                [{"cov": [], "word": [1], "kind": "normal", "poly": [
                    {"exp": 0, "num": -1, "den": 1}, {"exp": 1, "num": 5, "den": 1}]}],
                "3f2e5b18ff00e9364dbd036584641e44748e99eb0cd21f4eb0897049e558a651",
            ),
            (
                "roundtrip",
                (1,),
                {0: -1},
                [],
                "25afc120b109b40cef376f2c74af1e69cf1f83f56d06b9f1333bde086293ef4e",
            ),
            (
                "wick2-vs-recursion",
                (),
                {0: 3, 2: Fraction(-1, 2)},
                [
                    {"cov": [], "word": [], "kind": "normal", "poly": [
                        {"exp": 0, "num": 3, "den": 1}, {"exp": 2, "num": -1, "den": 2}]},
                    {"cov": [], "word": [1], "kind": "normal", "poly": [
                        {"exp": 0, "num": 1, "den": 1}]},
                ],
                "dcbbfecf87689bc783e67f6975c23675093a471889bf246f3f821df546f452dc",
            ),
            (
                "wick2-vs-recursion",
                (1,),
                {0: -2, 1: 5},
                [{"cov": [], "word": [1], "kind": "normal", "poly": [
                    {"exp": 0, "num": -1, "den": 1}, {"exp": 1, "num": 5, "den": 1}]}],
                "39076927d5a3f75a84f4ac6165f1026c7971574886d71d6a0a43c009f3058bbe",
            ),
            (
                "wick2-vs-recursion",
                (1,),
                {0: -1},
                [],
                "55c7652d4bb55c04dae92f4e1c1de035cb36c118c4a18d1b3ceb5967e2b97c78",
            ),
        ],
    )
    def test_expansion_witness_is_pinned(
        self, capsys, monkeypatch, check, word, coeffs, first, sha
    ):
        wrong = Expansion.single(
            CovarianceMonomial.identity(), VariableWord(word, NORMAL), QPolynomial(coeffs)
        )
        formula = verify.expand
        monkeypatch.setattr(verify, "expand", lambda *a, **k: formula(*a, **k) + wrong)
        code, out = run_cli(capsys, "verify", check, "--n", "4")
        reports = json.loads(out)["reports"]
        assert code == 1
        assert all(r["status"] == "fail" for r in reports)
        assert reports[0]["witness"]["lhs"] == first
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("q", [None, Fraction(1, 3)])
    @pytest.mark.parametrize("level", [None, 2, 3])
    @pytest.mark.parametrize("off", [False, True])
    @pytest.mark.parametrize("check, options", SMALL_SAMPLED_RUNS)
    def test_runner_matches_the_grid_reference(
        self, monkeypatch, check, options, seed, q, level, off
    ):
        # off adds q^2 - q/2 to the vacuum entry of every formula side, so
        # the per-q fallback is compared too
        if off:
            for name in ("graded_expansion", "_tensor"):
                formula = getattr(verify, name)
                monkeypatch.setattr(verify, name, lambda *a, _f=formula: off_by(_f(*a)))
        opts = dict(options, seed=seed, q=q, level=level)
        got = sampled_outcome(check, opts)
        monkeypatch.setattr(verify, "_sampled", reference_sampled)
        assert got == sampled_outcome(check, opts)

    @pytest.mark.parametrize("check", list(SAMPLED_SUITES))
    def test_passing_samples_are_never_evaluated_per_q(self, monkeypatch, check):
        def refuse(self, q):
            raise AssertionError("a passing sample was evaluated at a grid q")

        monkeypatch.setattr(Graded, "at", refuse)
        reports = verify.run_check(check)
        assert reports and all(r.passed for r in reports)

    def test_verify_deterministic_given_seed(self, capsys):
        _, first = run_cli(capsys, "verify", "t2.1", "--n", "4", "--seed", "7")
        _, second = run_cli(capsys, "verify", "t2.1", "--n", "4", "--seed", "7")
        assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qwick", "moments", "--n", "2", "--format", "pretty"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "c(1,2)"


# usage errors, help, and flags followed by the same command without them
SHARED_PARSER_ARGVS = (
    ("verify", "bogus"),
    ("verify", "gram", "--q", "pi"),
    ("--help",),
    ("wick", "to-normal", "--n", "3", "--free"),
    ("wick", "to-normal", "--n", "3"),
    ("verify", "c2.2", "--n", "3", "--q=1/3"),
    ("verify", "c2.2", "--n", "3"),
    ("product", "--blocks", "2,2", "--expectation"),
    ("product", "--blocks", "2,2"),
)


def test_calls_in_one_process_match_fresh_interpreters(capsys, monkeypatch):
    """Every main call parses against the one parser built at import, so no
    flag, default or error may carry over into the next call."""
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at this width
    for argv in SHARED_PARSER_ARGVS:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "qwick", *argv], capture_output=True, text=True
        )
        assert (got.out, got.err, code) == (fresh.stdout, fresh.stderr, fresh.returncode), argv


def test_main_does_not_build_a_parser(capsys, monkeypatch):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    assert cli.main(["moments", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2


# sha256 of stdout, recorded before the incremental diagram walker and the
# hand-written JSON emitter replaced crossing_stats and json.dumps on these
# paths, (the verify entries) before the sampled verify suites shared one
# runner, and (the edge cases at the end: an empty term list, the empty word,
# one-term sums, a diagram with no pairs) before the expansions and listings
# were streamed from the walker; every byte must stay the same.
GOLDEN_STDOUT = {
    "diagrams --n 6 --format json": "75b410ea3f739ad464a762863774636ed76275944a5f405ca8faaaa76d5a3422",
    "diagrams --n 6 --format csv": "eccea1ec4b4291633b7e70a755c19b5dd2ffb35eaabea394fd3d03aa69809cf8",
    "diagrams --n 6 --format pretty": "723ecc7a2199c757750f1d2d65f799c922737cd5f8ec8b904907802582a87fa4",
    "diagrams --n 7 --format json": "94f5989e5e35975968b775b8d8f6dd14d604d3a4be6cfb31df9360f1382cb72d",
    "diagrams --n 7 --format csv": "3edcb1ca1df05a8531a74350d31a25ce63d505503e9f858a0d633981041e253f",
    "diagrams --n 7 --format pretty": "d9d461733156af8a589fc1c45bb61bb1897dda10ac8bde73fcb2667bc31b1a21",
    "diagrams --blocks 2,2,1 --format json": "8109915fe3b8c0ad75403485eb9c6262205549fd6461b530eacd66482a753ad8",
    "diagrams --blocks 2,2,1 --format csv": "00be6862da00ebe9ccc3c79d08a7ec05e221a4e44372394c0f8e09b79326a8a0",
    "diagrams --blocks 2,2,1 --format pretty": "d9736ff135252c245d377785ff1b0c5d88824f67fbd19ae367ef79f530fcaed2",
    "moments --n 6 --format json": "2ac015134ce57d5cc34dc2c07315a6be79c9d80aed1f3c9230eb3579ba0d3ca8",
    "moments --n 6 --format csv": "756a6ba309efa61c213f950423acb7c39f70ac98f2ced8448a750ed4ba29be2c",
    "moments --n 6 --format pretty": "5f927565631b3d47dfd6b53cdc0cc4bb7a2dfbab26ff832e3166454c43963f81",
    "moments --n 8 --format json": "c724f732c373d2c8bfd2bdaf2cc23082fe2cebb45ab9f5a9749fe25f7386ad67",
    "moments --n 8 --format csv": "8a9d08d46a1d7740980bee2e0b648aa3451914aa146933df7b20bfddc8282472",
    "moments --n 8 --format pretty": "79e720b8e9eb9339f4e195b568e7030c174fea0977c6f79603cc900a9dd1420a",
    "moments --n 6 --free --format json": "d18f18a93fcd6564b4eb167adbbe35772d528077874d2bdbb89999b5ff194c39",
    "moments --n 6 --free --format csv": "b6178c96f40eff9d9282b1c7ca0d1c18c144f02cd6a4da1a6d2056b33b4844e6",
    "moments --n 6 --free --format pretty": "b7a39a41320232b7f761d1cf0174bc730d30dfb706b8ae2c3b24a0bc67a4f60d",
    "moments --n 8 --free --format json": "880c34183016ad89ac22df7b6cdd1ee21dc531e2e144e20e34f3199ce1c5358c",
    "moments --n 8 --free --format csv": "73fc481fab50d56dbc74303ee8e644839f50112127499fe22a7422300e7f5556",
    "moments --n 8 --free --format pretty": "db44a32fd5a1cb93632dbfbc54290c299c27513a020b43d8f31b56ffb5171bc0",
    "wick to-normal --n 6 --format json": "ded889f9c5407548037811737e4693f8edc43d74797fe8bc2aa0402085f3b55c",
    "wick to-normal --n 6 --format csv": "8a0385738eef76346d6585b4e7ddcaf8d835891080db0a03eb980c1d0f564037",
    "wick to-normal --n 6 --format pretty": "34a3347c3950b2754943d846d5c5d8a58e6a99550e3d4b1afa1e3e902fc9680c",
    "wick to-normal --n 6 --free --format json": "59f32cf31296b2e17387d14da358e24ecfedbc3c6a6d8857d95b723bd1d9096e",
    "wick to-normal --n 6 --free --format csv": "f2ab51258cc80ca00fe1e02a3d1677001f6aae1975202172f4fe25d7506832a3",
    "wick to-normal --n 6 --free --format pretty": "d81d21a655f9b90e27a4819df5a8b914bfa8359829890ab743dcbeea8a49a448",
    "wick to-wick --n 6 --format json": "14e2b010c004559dbda5f1b091729a320d331910d4a8d0fc1e78ea6280d5f811",
    "wick to-wick --n 6 --format csv": "1e58720479ab33518f76b81033b8b093c895a5ea4391e7d63adb97b2f71f5fb7",
    "wick to-wick --n 6 --format pretty": "91cca34f4519c755f665d5e521c462e1dfd0c344f58523db7b51f7262da2d91a",
    "wick to-wick --n 6 --free --format json": "c54b2b04ca2308661c246f950d6b6acdd0bd9dee2b57a5a42a005c90b333e36a",
    "wick to-wick --n 6 --free --format csv": "612d704ceef4595a26892205809d2a855c8b0597e482b4ccbaf231af12e711db",
    "wick to-wick --n 6 --free --format pretty": "116cd055218ed9af321d9b1dc7f4fb2470ddc5aaf929ced1d00880ee1098f17c",
    "product --blocks 2,2,1 --format json": "ba14a870d8bd87699b281ca483ddb25047a66102d9bafa72da790d3fd0c7ec4b",
    "product --blocks 2,2,1 --format csv": "9a40c7af3bc9b6116e4057df93c391f3f82a39e220c1df4f4f243c23a07bc3f6",
    "product --blocks 2,2,1 --format pretty": "aa1da386470af5461423ae07862204cbe2e4ce292730a2ed7cc52591ebc82ea8",
    "product --blocks 2,2,1 --expectation --format json": "3151ee9194325769eab51c559e2af3c435e710716884b3d41fa53e588814ebd4",
    "product --blocks 2,2,1 --expectation --format csv": "1e680bd62666601a0aee97137c145b44028de7838c7b56173c197dff558b9580",
    "product --blocks 2,2,1 --expectation --format pretty": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "product --blocks 2,2,1 --free --format json": "15692dbcfb856427b5f45a76b0a846a49d735e153b3a94ac5df48286ad5e8c17",
    "product --blocks 2,2,1 --free --format csv": "da9a23f35d47410f5c39425efee33492107c1ffd23d3b8116139e810abb012f9",
    "product --blocks 2,2,1 --free --format pretty": "16f2e50a4d552ccb62cdd9e2e1d948660077f65b5e24b301a481860af8f3fd06",
    "product --blocks 2,2,1 --expectation --free --format json": "9079876f83e960c7f7667ca3673347ee03dd20e681045458a2bd5eb2ff32ce65",
    "product --blocks 2,2,1 --expectation --free --format csv": "1e680bd62666601a0aee97137c145b44028de7838c7b56173c197dff558b9580",
    "product --blocks 2,2,1 --expectation --free --format pretty": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "verify t2.1 --n 6": "2ea982cd3e43fad6fc455a5367ae9790573c94231bb3060b1293faf87acb7773",
    "verify c2.2 --n 5": "0caa61ff3b97e68dad8b138c3a0962256e7a22eb66a9acd4e831951f073e07e4",
    "verify c2.2 --n 4 --q 1/2 --format csv": "88a5862e50af3ea55f0aa023f72e477cf4dc3eb65504004d20c0d059ac35e4be",
    "verify wick-vector --n 4 --format pretty": "40adc91c468fd391148509eb52b71ce308b675372545f21f37e3599b1a0d832e",
    "verify t3.3 --blocks 2,1,2": "9e1994331a177b91963e18403529aef42dbee5b666bc318cde35b1ba13643000",
    "verify t3.4 --blocks 1,2,2": "f3b41f8862c86111fcbc87051107ce93b2893a1131adf6b3fe61a4530c06aef5",
    "verify roundtrip --n 5": "d4797e759762418e56715094fc8a31ec644db91c8d68707bd925ac2c2dfd10ed",
    "verify wick2-vs-recursion --n 6": "dfcc7357f050bd10f90dbced62dea7a3f97675f6bedf7d1ccb32f70ee9552cb6",
    # the operator-moment row's records follow the size and block records
    "verify free --n 5": "f98a11b1705993c0078d6d3a50046ebb5e7688936f8ba5e67a94131dcb780a8f",
    "verify gram --n 3 --dim 2": "23599311f6286be85511f27b5a07909d0bcf8e22adc699dedc2d7d2cc4d1e959",
    "verify gram --n 6 --dim 2": "da9aa2be457fb8fbf7021e6b1204cb4e6e1b44c2bbf5634a5a47a910aaad82b7",
    "verify gram --n 4 --dim 3": "61555179a14e92a952badbdae0e338d54e632b93bc5de2d13bcc4b6ad006bf32",
    "verify gram --n 1 --dim 100": "7120e7fd81cb1fdd549c5bbd23baade361531e082568d37110640c74e839ed81",
    "verify gram --n 8 --dim 1": "ba4f1853e55d7efaa94f45925d1da4632f50c9dfc730940a5cf3b71e37bd9708",
    "moments --n 7 --format json": "35af5129553a0e3d202b47ffade61135b60c23a161e45fc2e5c0ddf6c1a988c0",
    "moments --n 7 --format csv": "1e680bd62666601a0aee97137c145b44028de7838c7b56173c197dff558b9580",
    "moments --n 7 --format pretty": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "wick to-normal --n 0 --format json": "fa3457cbd99d2bdaecb147a1dd52bce632fd27a5c48f9eaae845bd4e4dddcc69",
    "wick to-normal --n 0 --format csv": "ade0a80cd0bb5185d70dbbb9fef66c9a98bb5760448f5a972dbd6e7bdf0b13c1",
    "wick to-normal --n 0 --format pretty": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "wick to-wick --n 1 --format json": "2d295bd4359b339505daf38b28769553f1f22c8af057a5987567e79f16541c00",
    "wick to-wick --n 1 --format csv": "1ecce22fa45e34f4f51dcff57de3cbace45c31b5f2c3349514840ad7bf6e5492",
    "wick to-wick --n 1 --format pretty": "0bf759095be4e93c6babbcdb1d265805ffed839aaff06515d6235ab51cde4fb3",
    "product --blocks 3 --format json": "0cc0f3f072c3cff173653678a9e1748a147a14ee22fd78c1701976e41d9475ce",
    "product --blocks 3 --format csv": "199182d7b48138693bd2f1ddd69900cb938a439c112da0f97d112a53c17a658b",
    "product --blocks 3 --format pretty": "bdbcb6f04fa24a30fd212124c876a09e5aad0ed8cee57b27b5444fa11f8bfaf9",
    "diagrams --n 0 --format json": "de0c96063f181ae81d74b4c7856076c5be512139ffc5d50e87ca251e194b0c4e",
    "diagrams --n 1 --format json": "5c36d34202cafa49975d3f482dadecdb83c8446a60b47c77d817171c01bbb90f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_is_byte_identical(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


# Each identity row through its command, against the same expansion built by
# wick.expand and rendered by Expansion.to_json, Expansion.pretty and
# csv.DictWriter.
ROW_COMMANDS = {
    "moment": "moments",
    "wick-to-normal": "wick to-normal",
    "normal-to-wick": "wick to-wick",
    "product-expectation": "product --expectation",
    "product-expansion": "product",
}
STREAM_BLOCKS = ((2, 3, 2), (4, 4), (1, 2, 2, 1))


def test_only_the_operator_moment_row_has_no_command():
    assert set(ROW_COMMANDS) < set(IDENTITIES)
    assert set(IDENTITIES) - set(ROW_COMMANDS) == {"operator-moment"}


def row_meta(name, arg, free):
    if IDENTITIES[name].on == "blocks":
        return {
            "blocks": list(arg),
            "expectation": name == "product-expectation",
            "free": free,
            "labels": [[b, k] for b, width in enumerate(arg, 1) for k in range(1, width + 1)],
        }
    if name == "moment":
        return {"n": arg, "free": free}
    return {"direction": ROW_COMMANDS[name].split()[1], "n": arg, "free": free}


def reference_stdout(expansion, meta, fmt):
    if fmt == "json":
        return json.dumps({**meta, "terms": expansion.to_json()}, indent=2) + "\n"
    if fmt == "pretty":
        return expansion.pretty() + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=("cov", "word", "kind", "poly"), lineterminator="\n")
    writer.writeheader()
    for (factors, indices, kind), poly in expansion.sorted_terms():
        writer.writerow(
            {
                "cov": ";".join(f"{i}-{j}" for i, j in factors),
                "word": " ".join(str(h) for h in indices),
                "kind": kind,
                "poly": poly.pretty(),
            }
        )
    return buf.getvalue()


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize(
    "name, arg",
    [(name, arg) for name in ROW_COMMANDS for arg in row_args(name, range(9), STREAM_BLOCKS)],
)
def test_expansion_commands_match_the_reference_rendering(capsys, name, arg, free, fmt):
    blocked = IDENTITIES[name].on == "blocks"
    size = ["--blocks", ",".join(map(str, arg))] if blocked else ["--n", str(arg)]
    argv = ROW_COMMANDS[name].split() + size + (["--free"] if free else []) + ["--format", fmt]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == reference_stdout(expand(name, arg, free), row_meta(name, arg, free), fmt)


@pytest.mark.parametrize(
    "argv, ground",
    [(f"--n {n}", GroundSet(n)) for n in range(8)]
    + [(f"--blocks {','.join(map(str, b))}", GroundSet(sum(b), b)) for b in STREAM_BLOCKS],
)
def test_diagram_listing_matches_crossing_stats(capsys, argv, ground):
    records = []
    complete = Counter()
    for diagram in enumerate_nonlinking(ground) if ground.blocks else enumerate_diagrams(ground):
        stats = crossing_stats(diagram)
        if diagram.is_complete:
            complete[stats.c] += 1
        records.append(
            {
                "pairs": [list(p) for p in diagram.pairs],
                "singletons": list(diagram.singletons),
                "c": stats.c,
                "d": stats.d,
                "tc": stats.tc,
                "g": stats.g,
                "a": stats.a,
                "noncrossing": stats.c == 0,
                "strongly_noncrossing": stats.tc == 0,
                "gap_free": stats.g == 0,
            }
        )
    summary = {
        "total": len(records),
        "complete": sum(complete.values()),
        "complete_noncrossing": complete[0],
        **{
            flag: sum(r[flag] for r in records)
            for flag in ("noncrossing", "strongly_noncrossing", "gap_free")
        },
    }
    poly = QPolynomial(complete)
    expected = {
        "size": ground.size,
        "blocks": list(ground.blocks) if ground.blocks else None,
        "summary": summary,
        "complete_crossing_polynomial": {"coeffs": poly.to_json(), "pretty": poly.pretty()},
        "diagrams": records,
    }
    code, out = run_cli(capsys, "diagrams", *argv.split())
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


def test_closed_pipe_is_one_error_line():
    # several MB of output, far past the pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "qwick", "wick", "to-normal", "--n", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(64)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
    assert err.splitlines() == ["error: stdout was closed before the output was complete"]


# The child's own peak resident set size in kB.  Its ru_maxrss would not do:
# on Linux a child spawned from this process starts out with this process's
# peak, which under pytest is larger than the bound.  VmHWM is the peak of
# the child's own address space.
PEAK_RSS_CHILD = """
import re, sys
from qwick.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_streamed_output_does_not_grow_memory():
    # about 12 MB of JSON; building it whole peaked above 130 MB
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "wick", "to-normal", "--n", "11"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    peak = int(proc.stderr) * 1024
    assert peak < 48 * 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_roundtrip_holds_one_word_image_at_a_time():
    # holding the rewrite of all 1,024 Wick words of expand("normal-to-wick", 11) at
    # once, 269,039 terms, peaked at 168 MB
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "verify", "roundtrip", "--n", "11"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    peak = int(proc.stderr) * 1024
    assert peak < 110 * 2**20


# Every sampled suite at a cutoff below degree + 1, on the q grid and at
# q = 0 alone.  Exit codes and stderr were recorded before the oracle kept q
# formal: the runs listed here exit 0, with or without --q 0, and every other
# run exits 2 because some creation meets a word at the cutoff.
N_SIZES = ("--n 2", "--n 3", "--n 4")
BLOCK_SIZES = tuple(f"--blocks {b}" for b in ("1,1", "2,1", "1,2", "2,2", "1,2,1", "3,1", "1,3"))
LEVEL_RUNS = [
    f"verify {check} {size} --level {level}"
    for check, sizes in (
        ("c2.2", N_SIZES),
        ("t2.1", N_SIZES),
        ("wick-vector", N_SIZES),
        ("t3.3", BLOCK_SIZES),
        ("t3.4", BLOCK_SIZES),
    )
    for size in sizes
    for level in (1, 2, 3)
]
PASSING_LEVEL_RUNS = {
    "verify c2.2 --n 2 --level 2",
    "verify c2.2 --n 2 --level 3",
    "verify c2.2 --n 3 --level 3",
    "verify t2.1 --n 2 --level 1",
    "verify t2.1 --n 2 --level 2",
    "verify t2.1 --n 2 --level 3",
    "verify t2.1 --n 3 --level 1",
    "verify t2.1 --n 3 --level 2",
    "verify t2.1 --n 3 --level 3",
    "verify t2.1 --n 4 --level 2",
    "verify t2.1 --n 4 --level 3",
    "verify wick-vector --n 2 --level 2",
    "verify wick-vector --n 2 --level 3",
    "verify wick-vector --n 3 --level 3",
    "verify t3.3 --blocks 1,1 --level 2",
    "verify t3.3 --blocks 1,1 --level 3",
    "verify t3.3 --blocks 2,1 --level 3",
    "verify t3.3 --blocks 1,2 --level 3",
    "verify t3.4 --blocks 1,1 --level 2",
    "verify t3.4 --blocks 1,1 --level 3",
    "verify t3.4 --blocks 2,1 --level 3",
    "verify t3.4 --blocks 1,2 --level 3",
}


@pytest.mark.parametrize("q_flag", ["", " --q 0"])
@pytest.mark.parametrize("command", LEVEL_RUNS)
def test_truncated_runs_are_pinned(capsys, command, q_flag):
    code = cli.main((command + q_flag).split())
    captured = capsys.readouterr()
    if command in PASSING_LEVEL_RUNS:
        assert (code, captured.err) == (0, "")
    else:
        level = command.rsplit(" ", 1)[1]
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: creation on a degree-{level} word exceeds the cutoff {level}"
        ]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


class TestJsonEmitter:
    @given(json_values)
    def test_matches_indented_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_empty_containers_and_escapes(self):
        value = {"": [], "k\u00e9y": {}, "nested": [[], {}, ["\u2603", "\n\"", ()]]}
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, {1: 2}, [set()], b"x"])
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


json_objects = st.dictionaries(st.text(), json_values, max_size=4)
verify_reports = st.builds(
    VerifyReport,
    check=st.text(),
    instance=json_objects,
    status=st.sampled_from(["pass", "fail"]) | st.text(),
    witness=st.none() | json_objects,
)


@example([])
@given(st.lists(verify_reports, max_size=5))
def test_streamed_verify_json_is_json_dumps(reports):
    """verify --format json writes each report as it comes, byte for byte
    as json.dumps of the whole document, and exits 1 exactly on a failure."""
    failures = sum(1 for r in reports if r.status != "pass")
    expected = json.dumps(
        {"check": "gram", "reports": [r.to_json() for r in reports], "failures": failures},
        indent=2,
    )
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "run_check", lambda *a, **k: reports)
        code = cli.main(["verify", "gram"])
    assert out.getvalue() == expected + "\n"
    assert code == (1 if failures else 0)


SAMPLED_FLAGS = {"q", "dim", "level", "seed"}
READS = {
    "t2.1": {"n", "cap"} | SAMPLED_FLAGS,
    "c2.2": {"n", "cap"} | SAMPLED_FLAGS,
    "wick-to-normal": {"n", "cap"} | SAMPLED_FLAGS,
    "normal-to-wick": {"n", "cap"} | SAMPLED_FLAGS,
    "wick-vector": {"n"} | SAMPLED_FLAGS,
    "t3.3": {"blocks", "cap"} | SAMPLED_FLAGS,
    "t3.4": {"blocks", "cap"} | SAMPLED_FLAGS,
    "roundtrip": {"n", "cap"},
    "wick2-vs-recursion": {"n", "cap"},
    "free": {"n", "blocks", "cap"},
    "gram": {"n", "q", "dim"},
}
FLAG_VALUES = {
    "n": st.integers(-1, 3).map(str),
    "blocks": st.lists(st.integers(1, 2), min_size=1, max_size=3)
    .filter(lambda b: sum(b) <= 4)
    .map(lambda b: ",".join(map(str, b))),
    "q": st.sampled_from(["0", "1/3", "1/2", "1", "5/4", "-1/3", "-1", "-3/2"]),
    "dim": st.integers(-1, 2).map(str),
    "level": st.integers(-1, 4).map(str),
    "seed": st.integers(-2, 3).map(str),
    "cap": st.integers(-1, 12).map(str),
}


@st.composite
def verify_argvs(draw):
    check = draw(st.sampled_from(sorted(READS)))
    # the default --n and --blocks take seconds, so a suite that reads one
    # always gets a tiny value; every other flag, read or not, may appear
    given = {flag for flag in ("n", "blocks") if flag in READS[check]}
    given |= draw(st.sets(st.sampled_from(sorted(FLAG_VALUES))))
    argv = ["verify", check]
    for flag in sorted(given):
        value = draw(FLAG_VALUES[flag])
        # argparse takes "--q -1/3" for a missing value; "--q=-1/3" parses
        argv += [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]
    return argv, given - READS[check]


# a generous per-example budget on a 2-vCPU host: a flag combination that
# passes validation but runs for long fails instead of hanging the suite
@settings(max_examples=150, deadline=5000)
@given(verify_argvs())
def test_verify_argv_fuzz(case):
    argv, unread = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    if unread:
        assert code == 2


# the other commands: sizes past 6 only where the cap rejects them
SIZES = st.sampled_from([*range(-2, 7), 13]).map(str)
BLOCK_TEXTS = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=3)
    .filter(lambda b: sum(b) <= 6)
    .map(lambda b: ",".join(map(str, b))),
    # zero, negative, malformed and oversized entries
    st.sampled_from(["0", "2,0", "-1,2", "2,,2", "a,b", "", "2.5", "5,5,5", "13"]),
)
COMMAND_FLAGS = {
    ("diagrams",): ("n", "blocks"),
    ("moments",): ("n", "free"),
    ("wick", "to-normal"): ("n", "free"),
    ("wick", "to-wick"): ("n", "free"),
    ("product",): ("blocks", "free", "expectation"),
}


@st.composite
def command_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = list(command)
    given = draw(st.sets(st.sampled_from(COMMAND_FLAGS[command])))
    for flag in sorted(given):
        if flag in ("free", "expectation"):
            argv.append(f"--{flag}")
        else:
            value = draw(SIZES if flag == "n" else BLOCK_TEXTS)
            argv += [f"--{flag}={value}"]
    cap = draw(st.sampled_from([None, "-1", "0", "3", "12"]))
    if cap is not None:
        argv += ["--cap", cap]
    argv += ["--format", draw(st.sampled_from(cli.FORMATS))]
    return argv, {"n", "blocks"} <= given


@settings(max_examples=200, deadline=5000)
@given(command_argvs())
def test_command_argv_fuzz(case):
    argv, size_and_blocks = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    if code == 2:
        # every error is found before the first byte of output
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
    if size_and_blocks:
        assert code == 2


class TestCapEnvironment:
    """Only --cap overrides the enumeration cap: a QWICK_CAP in the
    environment, well-formed or not, changes no output."""

    @pytest.mark.parametrize("raw", ["3", "abc", "-2"])
    def test_cap_environment_variable_is_not_read(self, capsys, monkeypatch, raw):
        monkeypatch.delenv("QWICK_CAP", raising=False)
        assert cli.main(["moments", "--n", "4"]) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("QWICK_CAP", raw)
        assert cli.main(["moments", "--n", "4"]) == 0
        assert capsys.readouterr() == unset

    def test_negative_cap_flag_is_a_usage_error(self, capsys):
        code = cli.main(["moments", "--n", "4", "--cap", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: cap must be a nonnegative integer, got -1"]

    def test_module_entry_does_not_read_the_cap_environment_variable(self):
        unset = {k: v for k, v in os.environ.items() if k != "QWICK_CAP"}
        runs = [
            subprocess.run(
                [sys.executable, "-m", "qwick", "moments", "--n", "4"],
                capture_output=True,
                text=True,
                env=env,
            )
            for env in (unset, dict(unset, QWICK_CAP="abc"))
        ]
        assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, ""), (0, "")]
        assert runs[1].stdout == runs[0].stdout != ""
