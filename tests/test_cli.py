import hashlib
import json
import re
import time

import pytest

from stirling2adic import cli
from stirling2adic.base2 import nu2_int
from stirling2adic.cli import main, parse_int_list, parse_pairs
from stirling2adic.engine import stirling_explicit_mod2
from stirling2adic.errors import DomainError
from stirling2adic.verify import SweepConfig, cross_validate, run_sweep, sweep_targets

# SHA-256 of `check-identities --format json` at its defaults
CHECK_IDENTITIES_JSON_SHA256 = "89b88ad9d612f92787ab20165ef72e33b6af40193c3817c5d78b40ef5e425cdb"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_int_list(self):
        assert parse_int_list("2..5") == [2, 3, 4, 5]
        assert parse_int_list("1,3,7") == [1, 3, 7]
        assert parse_int_list("1..3,9") == [1, 2, 3, 9]

    def test_int_list_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_int_list("5..2")
        with pytest.raises(ValueError):
            parse_int_list("x")

    def test_pairs(self):
        assert parse_pairs("2:1,3:1") == [(2, 1), (3, 1)]


class TestVal:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "val", "16", "5")
        assert code == 0
        assert "nu2(S(16,5)) = 1" in out
        assert "Equality(1) [Lem-Lengyel-Eq]" in out
        assert "confirmed" in out
        assert "precision:" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "val", "16", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["observed"] == {"kind": "finite", "value": 1}
        sources = {p["source"]: p for p in obj["predictions"]}
        assert sources["Lem-Lengyel-Eq"]["verdict"] == "confirmed"
        assert obj["policy"]["max_bits"] == 4096

    def test_domain_error_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "val", "5", "9")
        assert code == 64
        assert "error" in err


class TestPredict:
    def test_diagonal_example(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "12", "10")
        assert code == 0
        assert "Equality(0) [Thm-DiagonalEquality]" in out
        assert "c=3" in out and "n=2" in out and "a=2" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "12", "11", "--format", "json")
        obj = json.loads(out)
        kinds = {p["source"]: p["kind"] for p in obj["predictions"]}
        assert kinds["Thm-LowerBound"] == "lower-bound"


class TestDiff:
    def test_confirmed(self, capsys):
        code, out, _ = run_cli(capsys, "diff", "2", "1", "4", "5")
        assert code == 0
        assert "nu2(S(32,5) - S(16,5)) = 3" in out
        assert "Equality(3)" in out and "confirmed" in out

    def test_violation_exit_code(self, capsys):
        # a known counterexample cell: observed 2, claimed 3
        code, out, _ = run_cli(capsys, "diff", "2", "1", "2", "4")
        assert code == 2
        assert "violated" in out

    def test_conjectural_deviation_exit_code(self, capsys):
        # small-argument failure of the conjectured Mersenne value
        code, out, _ = run_cli(capsys, "diff", "2", "1", "2", "3")
        assert code == 3
        assert "conjecture-deviation" in out

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "diff", "2", "1", "-1", "5")
        assert code == 64
        assert out == "" and "error" in err

    def test_pass_above_64_bits_is_answered_at_once(self, capsys):
        # the first rung, prediction + 32 bits, is past 64 bits: the pass of 3 * 2**33 rows jumps
        # in Python integers, with bands built for the pass alone, so a wider pass above 64 bits
        # earlier in the process does not shorten its jumps
        cross_validate(200, 100, (200,))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "diff", "3", "1", "33", "5")
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert out.startswith("nu2(S(25769803776,5) - S(8589934592,5)) = 33\n")
        residues = [stirling_explicit_mod2(n, 5, 64).value for n in (3 << 33, 1 << 33)]
        assert nu2_int((residues[0] - residues[1]) % 2**64) == 33

    @pytest.mark.parametrize(
        "argv", [("diff", "3", "1", "33", "1000"), ("val", "1000000000000", "1000")], ids=["diff", "val"]
    )
    def test_long_wide_pass_is_refused_at_once(self, capsys, argv):
        # rows 1,001 wide jump by at most 32 steps: each pass would take over 10**13 lane-steps
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (70, "")
        assert "resource cap" in err

    def test_pass_of_64_bits_is_not_capped(self, capsys):
        # right after a wide row pass: the thm-diagonal sweep leaves the uint32 lane's bands
        # cached at width 3,585, and the 6-wide row of 3 * 2**32 steps still jumps far
        run_sweep(SweepConfig("thm-diagonal"))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "diff", "3", "1", "32", "5")
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert out.startswith("nu2(S(12884901888,5) - S(4294967296,5)) = 32\n")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "diff", "3", "1", "5", "7", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["prediction"]["kind"] == "conjectural-equality"
        assert obj["prediction"]["value"] == 7
        assert obj["observed"]["value"] == 7
        assert obj["prediction"]["verdict"] == "conjecture-observed"


class TestSweep:
    def test_text_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "lengyel-eq", "--range", "n=1..3", "--range", "c=1,3"
        )
        assert code == 0
        assert "28 cells" in out
        assert "confirmed: 28" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "thm-diagonal",
            "--range",
            "n=2..3",
            "--range",
            "c=1",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,c,a,k,N,")
        assert len(lines) == 1 + 4 + 8

    def test_violations_exit_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "thm-difference", "--range", "n=2..2", "--pairs", "2:1"
        )
        assert code == 2
        assert "violated" in out

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "bogus")
        assert code == 64

    @pytest.mark.parametrize("target", sweep_targets())
    def test_negative_range_is_usage_error(self, capsys, target):
        key = "conv_n" if target == "identities" else "n"
        code, out, err = run_cli(capsys, "sweep", target, "--range", f"{key}=-1..2")
        assert code == 64
        assert out == ""
        assert "error:" in err

    def test_cell_cap_is_resource_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "lengyel-eq", "--range", "n=60", "--cell-cap", "1000"
        )
        assert code == 70
        assert out == ""
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # the convolution identity needs m >= 1: m = 0 is refused, not reported violated
            ("identities", "--range", "conv_m=0..1", "--range", "conv_n=0..1"),
            ("lengyel-eq", "--cell-cap", "-1"),
        ],
    )
    def test_bad_grid_or_cap_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 64
        assert out == ""
        assert "error:" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "count-J",
            "--range",
            "n=0..2",
            "--format",
            "json",
            "--out",
            str(path),
        )
        assert code == 0
        assert out == ""
        obj = json.loads(path.read_text())
        assert obj["summary"]["cells"] == 1 + 3 + 7

    def test_workers_flag(self, capsys):
        # sweeps run in one process; the flag that sized the pool is gone
        code, out, err = run_cli(
            capsys, "sweep", "lengyel-eq", "--range", "n=1..2", "--workers", "2"
        )
        assert code == 64
        assert out == ""
        assert "unrecognized arguments: --workers 2" in err


class TestScanConjecture:
    def test_default_precision_is_wider_than_other_commands(self, capsys):
        code, out, _ = run_cli(capsys, "scan-conjecture", "--n", "2..3", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["policy"] == {"initial_bits": 48, "max_bits": 8192}
        _, out, _ = run_cli(capsys, "sweep", "count-J", "--range", "n=1", "--format", "json")
        assert json.loads(out)["config"]["policy"] == {"initial_bits": 48, "max_bits": 4096}

    def test_precision_max_below_the_first_rung_lowers_it(self, capsys):
        code, out, _ = run_cli(capsys, "scan-conjecture", "--n", "2..3", "--precision-max", "40")
        assert code == 0
        assert "precision: initial=40 max=40 bits" in out

    def test_all_observed(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan-conjecture", "--n", "2..4", "--pairs", "2:1,3:1"
        )
        assert code == 0
        assert "conjecture-observed: 12" in out

    def test_deviation_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan-conjecture", "--n", "2..2", "--pairs", "33:1"
        )
        assert code == 3
        assert "conjecture-deviation" in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "1..3", "'n' needs values >= 2"),
            ("--m", "1..2", "'m' needs values >= 2"),
            ("--pairs", "2:1,1:2", "a > b >= 1"),
        ],
        ids=["n", "m", "pairs"],
    )
    def test_bad_input_is_usage_error(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "scan-conjecture", flag, value)
        assert code == 64
        assert out == ""
        assert message in err


class TestOtherCommands:
    def test_check_identities(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-identities",
            "--max-conv",
            "4",
            "--max-sym",
            "2",
            "--junod-max",
            "3",
            "--junod-p3-max",
            "2",
        )
        assert code == 0
        assert out.count("sweep") == 3

    def test_check_identities_json_bytes(self, capsys):
        # the default suites' JSON list, pinned like tests/test_golden.py
        code, out, _ = run_cli(capsys, "check-identities", "--format", "json")
        assert code == 0
        assert [r["target"] for r in json.loads(out)] == ["identities", "junod", "junod"]
        assert hashlib.sha256(out.encode()).hexdigest() == CHECK_IDENTITIES_JSON_SHA256

    def test_bell(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "4", "--mod-bits", "8")
        assert code == 0
        assert "[0, 1, 7, 6, 1]" in out

    def test_bell_json(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "5", "--format", "json")
        obj = json.loads(out)
        assert obj["coefficients"] == [0, 1, 15, 25, 10, 1]

    def test_cross_validate(self, capsys):
        code, out, _ = run_cli(
            capsys, "cross-validate", "--n-max", "25", "--k-max", "8", "--bits", "8,32"
        )
        assert code == 0
        assert "confirmed: 52" in out

    @pytest.mark.parametrize(
        "n_max, k_max, bits, code",
        [
            ("2001", "64", "8", 70),  # past the exact engine's cap
            ("2000", "1023", "8", 70),  # past the explicit rows' cap
            ("400", "64", "8,0", 64),
            ("400", "64", "-3", 64),
        ],
    )
    def test_cross_validate_refuses_before_any_work(self, capsys, n_max, k_max, bits, code):
        start = time.perf_counter()
        args = ("cross-validate", "--n-max", n_max, "--k-max", k_max, "--bits", bits)
        assert run_cli(capsys, *args)[:2] == (code, "")
        assert time.perf_counter() - start < 0.1

    def test_j_set(self, capsys):
        code, out, _ = run_cli(capsys, "j-set", "2", "3", "--enumerate")
        assert code == 0
        assert "count_J(2,3) = 3" in out
        assert "[1, 2, 3]" in out

    def test_j_set_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "j-set", "2", "8")
        assert code == 64


class TestUsage:
    def test_missing_args(self, capsys):
        assert run_cli(capsys, "val", "16")[0] == 64

    def test_workers_below_one(self, capsys):
        code, out, err = run_cli(capsys, "cross-validate", "--n-max", "5", "--workers", "0")
        assert code == 64
        assert out == ""
        assert "workers" in err

    def test_workers_flag_is_refused(self, capsys):
        # everything runs in one process; the flag is gone
        for command in (
            ["sweep", "count-J", "--range", "n=1"],
            ["scan-conjecture", "--n", "2"],
            ["check-identities", "--max-conv", "1", "--max-sym", "0", "--junod-max", "1"],
            ["cross-validate", "--n-max", "5"],
        ):
            code, out, err = run_cli(capsys, *command, "--workers", "2")
            assert code == 64, command
            assert out == ""
            assert "unrecognized arguments: --workers 2" in err

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "nope")[0] == 64

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 64

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; a sequence of calls on it
        # prints what the same calls print on fresh parsers
        calls = [
            ["sweep", "lengyel-eq", "--range", "n=1..2", "--format", "csv"],
            ["sweep", "lengyel-eq", "--format", "csv"],
            ["scan-conjecture", "--n", "2..3", "--precision-max", "40"],
            ["val", "16", "5"],
            ["val", "16"],
            ["--version"],
        ]

        def outcome(argv):
            code, out, err = run_cli(capsys, *argv)
            return code, out, re.sub(r"\d+\.\d+s", "<t>s", err)

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        cli._build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 64, 0]
        assert "initial=40 max=40" in shared[2][1]
        assert "initial=33 max=4096" in shared[3][1]

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert "stirling2adic" in out
