"""Command-line surface: output shapes, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwick import cli
from qwick.verify import VerifyReport


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

    def test_pretty_format_lists_instances(self, capsys):
        code, out = run_cli(
            capsys, "verify", "roundtrip", "--n", "3", "--format", "pretty"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS roundtrip")
        assert lines[-1] == "3/3 instances passed"

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


# sha256 of stdout, recorded before the incremental diagram walker and the
# hand-written JSON emitter replaced crossing_stats and json.dumps on these
# paths; every byte must stay the same.
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
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_is_byte_identical(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


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


class TestCapEnvironment:
    @pytest.mark.parametrize("raw", ["abc", "-2"])
    def test_bad_cap_is_a_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("QWICK_CAP", raw)
        code = cli.main(["moments", "--n", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: QWICK_CAP")
        assert len(err.splitlines()) == 1

    def test_bad_cap_prints_no_traceback(self):
        env = dict(os.environ, QWICK_CAP="abc")
        proc = subprocess.run(
            [sys.executable, "-m", "qwick", "moments", "--n", "4"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: QWICK_CAP must be a nonnegative integer, got 'abc'"
        ]
