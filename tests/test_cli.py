"""CLI contract tests: payloads, determinism, exit codes, argument parsing."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secmin import arith, bands, cli
from secmin.errors import VerificationError

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
HUGE = str(10**400)  # 401 digits, past the largest float; written HUGE in argument lists


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def parse_kv(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split())


def assert_failed(captured, json_flag, command, error_type="ParameterError"):
    """stdout of a command that failed: status=fail, or under --json one object naming the stderr error."""
    if not json_flag:
        assert captured.out == "status=fail\n"
        return
    message = captured.err.removeprefix("error=").removesuffix("\n")
    assert captured.out.count("\n") == 1 and json.loads(captured.out) == {
        "command": command, "status": "fail", "error": {"type": error_type, "message": message}}


class TestBandsCommands:
    def test_single(self, capsys):
        code, out = run(capsys, "bands", "single", "--n", "10")
        lines = out.splitlines()
        assert code == 0
        assert parse_kv(lines[0]) == {"n": "10", "band": "1", "gap": "1", "witness": "9"}
        assert lines[1] == "status=pass"
        assert list(parse_kv(lines[2])) == ["elapsed_ms", "import_ms"]

    def test_single_prime_power(self, capsys):
        code, out = run(capsys, "bands", "single", "--n", "8")
        assert code == 0
        assert parse_kv(out.splitlines()[0])["band"] == "0"

    def test_single_large_row_builds_no_sieve(self, capsys, monkeypatch):
        def forbidden(limit):
            raise AssertionError(f"bands single sieved a table to {limit}")

        monkeypatch.setattr(arith, "build_sieve", forbidden)
        code, out = run(capsys, "bands", "single", "--n", "1000000000")
        assert code == 0
        assert out.splitlines()[:2] == ["n=1000000000 band=63 gap=63 witness=999999937", "status=pass"]

    @pytest.mark.parametrize("argv", [["--n", "1"], []])
    def test_single_without_a_row_exits_2(self, capsys, argv):
        code, out = run(capsys, "bands", "single", *argv)
        assert code == 2 and out == "status=fail\n"

    def test_verify(self, capsys):
        code, out = run(capsys, "bands", "verify", "--max", "200")
        assert code == 0
        record = parse_kv(out.splitlines()[0])
        assert record["checked"] == "199"

    def test_asymptotic_default_exponents(self, capsys):
        code, out = run(capsys, "bands", "asymptotic", "--max", "500")
        lines = out.splitlines()
        assert code == 0
        assert parse_kv(lines[0])["exponent"] == "0.535"
        assert parse_kv(lines[1])["exponent"] == repr(23 / 18)
        assert lines[2] == "status=report"

    def test_asymptotic_matches_suite_reference_format(self, capsys):
        # the reference log is CLI output, and the suite regenerates it with its own formatter
        from secmin import suite

        code, out = run(capsys, "bands", "asymptotic", "--max", "100000")
        assert code == 0
        assert out.splitlines()[:-2] == suite.asymptotic_lines(10**5, arith.build_sieve(10**5))

    def test_verify_beyond_the_table_cap_exits_2_at_once(self, capsys):
        # refused before any table is allocated, naming the cap and the flag
        t0 = time.perf_counter()
        code = cli.main(["bands", "verify", "--max", "10000000000"])
        captured = capsys.readouterr()
        assert code == 2 and time.perf_counter() - t0 < 1.0
        assert captured.out == "status=fail\n"
        assert captured.err == (f"error=a sieve table to 10000000000 needs 10000000001 bytes, "
                                f"above the {arith.TABLE_CAP}-byte cap; lower --max\n")

    def test_asymptotic_streams_without_a_full_table(self, capsys, monkeypatch):
        # bands asymptotic sieves in segments: no build_sieve, no table past sqrt(max)
        from secmin import suite

        want = suite.asymptotic_lines(2 * 10**6, arith.build_sieve(2 * 10**6))
        prime_table = arith.prime_table

        def small_only(limit):
            if limit > 2000:
                raise AssertionError(f"bands asymptotic sieved a table to {limit}")
            return prime_table(limit)

        monkeypatch.setattr(arith, "build_sieve", None)
        monkeypatch.setattr(arith, "_table", bytearray())
        monkeypatch.setattr(arith, "prime_table", small_only)
        code, out = run(capsys, "bands", "asymptotic", "--max", str(2 * 10**6))
        assert code == 0 and out.splitlines()[:-2] == want

    @pytest.mark.parametrize(
        "hi, exponent", [("1000", "-200"), ("100000", "80"), ("1000", "inf"), ("1000", "nan")]
    )
    def test_asymptotic_exponent_outside_float_range_exits_2(self, capsys, hi, exponent):
        code = cli.main(["bands", "asymptotic", "--max", hi, "--exponent", exponent])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "status=fail\n"
        assert captured.err.startswith("error=exponent ") and exponent in captured.err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "hi, exponent", [("1000", "-102"), ("100000", "-61"), ("2048", "-92.85"), ("1048576", "-51.07")]
    )
    def test_asymptotic_ratio_overflow_exits_2(self, capsys, json_flag, hi, exponent):
        # the exponents pass the n**exponent range check, but ratio would be inf;
        # at 2048 and 2^20 max_ratio is inf as well before the last block
        code = cli.main([*json_flag, "bands", "asymptotic", "--max", hi, "--exponent", exponent])
        captured = capsys.readouterr()
        assert code == 2
        assert_failed(captured, json_flag, "bands")
        assert captured.err.startswith(f"error=exponent {float(exponent)!r} ")


class TestSecantCommand:
    def test_both_modes_agree(self, capsys):
        code, out = run(capsys, "secant", "--g", "1", "--m", "5", "--d", "2")
        record = parse_kv(out.splitlines()[0])
        assert code == 0
        assert record["closed"] == "5" and record["oracle"] == "5" and record["agree"] == "true"

    def test_closed_only(self, capsys):
        code, out = run(capsys, "secant", "--g", "0", "--m", "5", "--d", "1", "--mode", "closed")
        assert code == 0
        assert parse_kv(out.splitlines()[0])["closed"] == "3"

    def test_precondition_violation_exits_2(self, capsys):
        code, _ = run(capsys, "secant", "--g", "2", "--m", "4", "--d", "3")
        assert code == 2


class TestBoundsCommand:
    def test_constant_over_rationals(self, capsys):
        code, out = run(capsys, "bounds", "constant", "--N", "1", "--field", "Q")
        record = parse_kv(out.splitlines()[0])
        assert code == 0
        assert math.isclose(float(record["value"]), math.log(2), rel_tol=1e-12)

    def test_height(self, capsys):
        code, out = run(
            capsys, "bounds", "height", "--g", "2", "--m", "2",
            "--L2", "1.0", "--Lw", "0.5", "--w2", "0.25",
        )
        record = parse_kv(out.splitlines()[0])
        expected = 2 * 1.0 / 4 - 0.5 / 2 + 2 * 0.25 / 16
        assert code == 0 and math.isclose(float(record["value"]), expected, rel_tol=1e-12)

    def test_omega_lambda_matches_library(self, capsys):
        from secmin.bounds import RATIONAL_FIELD, omega_lambda_floor

        code, out = run(
            capsys, "bounds", "omega-lambda", "--g", "3", "--n", "2", "--k", "1", "--w2", "1.5",
        )
        record = parse_kv(out.splitlines()[0])
        assert code == 0
        assert float(record["value"]) == omega_lambda_floor(3, 2, 1, 1.5, RATIONAL_FIELD)

    def test_top_reports_index(self, capsys):
        code, out = run(
            capsys, "bounds", "top", "--g", "2", "--m", "11", "--L2", "4.0",
        )
        record = parse_kv(out.splitlines()[0])
        assert code == 0 and record["kind"] == "top-odd" and record["index"] == "8"

    def test_explicit_field(self, capsys):
        code, out = run(
            capsys, "bounds", "constant", "--N", "1",
            "--degK", "2", "--r1", "0", "--r2", "1", "--log-disc", str(math.log(3)),
        )
        record = parse_kv(out.splitlines()[0])
        expected = 2 * math.log(2) + math.log(3) - math.log(math.pi**2 / 2)
        assert code == 0 and math.isclose(float(record["value"]), expected, rel_tol=1e-12)

    def test_incomplete_field_exits_2(self, capsys):
        code, _ = run(capsys, "bounds", "constant", "--N", "1", "--degK", "2")
        assert code == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "field, given",
        [("--degK 2 --r1 0 --r2 1 --log-disc 1.0", "--degK --r1 --r2 --log-disc"), ("--r2 1", "--r2")],
        ids=["all", "one"],
    )
    def test_field_q_excludes_explicit_field_flags(self, capsys, json_flag, field, given):
        code = cli.main([*json_flag, "bounds", "constant", "--N", "1", "--field", "Q", *field.split()])
        captured = capsys.readouterr()
        assert code == 2
        assert_failed(captured, json_flag, "bounds")
        assert captured.err == f"error=--field Q excludes {given}\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            "lambda --g 2 --m 12 --k 3 --L2={}",
            "height --g 2 --m 12 --L2={}",
            "top --g 2 --m 9 --L2 7.0 --Lw={}",
            "mu --g 2 --m 12 --k 3 --L2 7.0 --w2={}",
            "lambda --g 2 --m 12 --k 3 --L2 7.0 --e-val={}",
            "omega-lambda --g 3 --n 2 --k 1 --w2={}",
            "constant --N 1 --degK 2 --r1 0 --r2 1 --log-disc={}",
        ],
        ids=["lambda-L2", "height-L2", "top-Lw", "mu-w2", "lambda-e-val", "omega-lambda-w2", "constant-log-disc"],
    )
    def test_non_finite_input_exits_2(self, capsys, json_flag, value, argv):
        code = cli.main([*json_flag, "bounds", *argv.format(value).split()])
        assert code == 2
        assert_failed(capsys.readouterr(), json_flag, "bounds")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_overflowing_value_exits_2(self, capsys, json_flag):
        code = cli.main([*json_flag, "bounds", "height", "--g", "2", "--m", "12", "--L2", "1e308", "--w2", "1e308"])
        captured = capsys.readouterr()
        assert code == 2
        assert_failed(captured, json_flag, "bounds")
        assert captured.err.startswith("error=bound height evaluates to inf")

    def test_missing_flags_exit_2(self, capsys):
        code, _ = run(capsys, "bounds", "lambda", "--m", "12", "--k", "3")
        assert code == 2
        code, _ = run(capsys, "bands", "single")
        assert code == 2


    @pytest.mark.parametrize(
        "argv, unread",
        [
            ("height --g 2 --m 2 --L2 1.0 --e-val 0.3 --k 5 --N 3", "--N --k --e-val"),
            ("constant --N 1 --Lw 0.0", "--Lw"),
            ("constant --N 1 --w2 1.5 --rank-shift --g 2", "--g --w2"),
            ("omega-mu --g 3 --n 2 --k 1 --m 4 --L2 1.0", "--m --L2"),
            ("lambda --g 2 --m 12 --k 3 --L2 7.0 --n 2", "--n"),
        ],
    )
    def test_unread_flags_exit_2(self, capsys, argv, unread):
        code = cli.main(["bounds", *argv.split()])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "status=fail\n"
        assert captured.err == f"error=bounds {argv.split()[0]} does not read {unread}\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            # missing and unread flags
            ("lambda --m 12 --k 3", "bounds lambda needs --g --L2"),
            ("omega-mu --g 3 --n 2", "bounds omega-mu needs --k"),
            ("constant", "bounds constant needs --N"),
            ("top --g 2 --L2 4.0", "bounds top needs --m"),
            ("mu --g 2 --m 12 --k 3 --L2 7.0 --rank-shift", "bounds mu does not read --rank-shift"),
            ("omega-lambda --g 3 --n 2 --k 1 --Lw 1.0 --m 8", "bounds omega-lambda does not read --m --Lw"),
            ("constant --g 2", "bounds constant does not read --g"),
            # the field
            ("height --g 2 --m 2 --L2 1.0 --field Q --log-disc 1.0", "--field Q excludes --log-disc"),
            ("height --g 2 --m 2 --L2 1.0 --degK 2 --r1 2", "specify --field Q or all of --degK --r1 --r2 --log-disc"),
            ("constant --N 1 --degK 2 --r1 1 --r2 1 --log-disc 1.0", "signature mismatch: r1 + 2*r2 = 3 but degree = 2"),
            # indices out of range
            ("top --g 2 --m 3 --L2 1.0", "index m-g-1 or m-g must be >= 1, got 0"),
            ("lambda --g 2 --m 12 --k 1 --L2 7.0", "k must exceed 1, got 1"),
            ("mu --g 2 --m 10 --k 5 --L2 6.0", "need m > 2k, got m=10, k=5"),
            ("omega-lambda --g 3 --n 2 --k 4 --w2 1.0", "need 1 <= k < (g-1)n, got k=4, (g-1)n=4"),
            ("omega-mu --g 2 --n 1 --k 1 --w2 1.0", "need 1 <= k < (g-1)n, got k=1, (g-1)n=1"),
            ("constant --N -1", "N must be >= 0, got -1"),
            # genus, fiber degree and power
            ("height --g 1 --m 4 --L2 1.0", "genus must be >= 2, got 1"),
            ("height --g 2 --m 0 --L2 1.0", "fiber degree must be >= 1, got 0"),
            ("omega-lambda --g 1 --n 2 --k 1 --w2 1.0", "genus must be >= 2, got 1"),
            ("omega-mu --g 1 --n 2 --k 1 --w2 1.0", "genus must be >= 2, got 1"),
            ("omega-lambda --g 3 --n 0 --k 1 --w2 1.0", "power must be >= 1, got 0"),
            ("omega-lambda --g 3 --n 2 --k 9 --w2 -1.0", "omega2 must be >= 0, got -1.0"),
            # non-finite intersection numbers and e_val
            ("lambda --g 2 --m 12 --k 3 --L2 nan",
             "intersection numbers must be finite, got l2=nan, l_omega=0.0, omega2=0.0"),
            ("top --g 2 --m 9 --L2 7.0 --w2=-inf",
             "intersection numbers must be finite, got l2=7.0, l_omega=0.0, omega2=-inf"),
            ("omega-mu --g 3 --n 2 --k 1 --w2 nan",
             "intersection numbers must be finite, got l2=nan, l_omega=nan, omega2=nan"),
            ("omega-lambda --g 3 --n 2 --k 1 --w2 inf",
             "intersection numbers must be finite, got l2=inf, l_omega=inf, omega2=inf"),
            # a finite omega2 whose n^2 * omega2 overflows
            ("omega-lambda --g 3 --n 2 --k 1 --w2 1e308", "intersection numbers must be finite, but l2 = n^2 * w2 overflows at n=2, w2=1e+308"),
            ("omega-mu --g 3 --n 2 --k 1 --w2 1e308", "intersection numbers must be finite, but l2 = n^2 * w2 overflows at n=2, w2=1e+308"),
            ("lambda --g 2 --m 12 --k 3 --L2 7.0 --e-val nan", "e_val must be finite, got nan"),
            ("mu --g 2 --m 12 --k 3 --L2 7.0 --e-val=-inf", "e_val must be finite, got -inf"),
            # an integer no float can hold, which the formulas would multiply by a float
            ("constant --N HUGE", "N is larger than the largest float"),
            ("height --g 2 --m HUGE --L2 1.0", "m is larger than the largest float"),
            ("lambda --g HUGE --m 12 --k 3 --L2 7.0", "g is larger than the largest float"),
            ("mu --g 2 --m HUGE --k 3 --L2 7.0", "m is larger than the largest float"),
            ("top --g 2 --m HUGE1 --L2 7.0", "m is larger than the largest float"),
            ("omega-lambda --g 3 --n HUGE --k 1 --w2 1.0", "n is larger than the largest float"),
            ("omega-mu --g HUGE --n 2 --k 1 --w2 1.0", "g is larger than the largest float"),
            ("constant --N 1 --degK HUGE --r1 HUGE --r2 0 --log-disc 1.0", "degK is larger than the largest float"),
        ],
    )
    def test_bad_arguments_name_their_error(self, capsys, argv, error):
        code = cli.main(["bounds", *argv.replace("HUGE", HUGE).split()])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "status=fail\n", f"error={error}\n")

    @pytest.mark.parametrize(
        "argv, kind",
        [
            # floats hold each input, but not m^2 e_val, (2(g-1)n)^2 or lgamma(N/2 + 1)
            ("lambda --g 2 --m 10^155 --k 3 --L2 7.0", "lambda"),
            ("mu --g 2 --m 10^154 --k 3 --L2 7.0", "mu"),
            ("omega-lambda --g 10^154 --n 2 --k 1 --w2 1.0", "omega-lambda"),
            ("omega-mu --g 10^154 --n 2 --k 1 --w2 1.0", "omega-mu"),
            ("constant --N 10^307", "constant"),
        ],
    )
    def test_overflowing_formula_names_its_kind(self, capsys, argv, kind):
        args = [str(10 ** int(a[3:])) if a.startswith("10^") else a for a in argv.split()]
        code = cli.main(["bounds", *args])
        captured = capsys.readouterr()
        error = f"error=bound {kind} overflows a float on these inputs\n"
        assert (code, captured.out, captured.err) == (2, "status=fail\n", error)

    def test_lw_and_w2_default_to_zero(self, capsys):
        _, implicit = run(capsys, "bounds", "top", "--g", "2", "--m", "9", "--L2", "7.0")
        _, explicit = run(capsys, "bounds", "top", "--g", "2", "--m", "9", "--L2", "7.0", "--Lw", "0.0", "--w2", "0.0")
        assert implicit.splitlines()[:2] == explicit.splitlines()[:2]
        assert "Lw=0.0" in implicit and "w2=0.0" in implicit


class TestLatticeCommand:
    def test_minima(self, capsys):
        code, out = run(capsys, "lattice", "minima", "--gram", str(DATA / "identity2.gram"))
        record = parse_kv(out.splitlines()[0])
        assert code == 0 and record["sq_minima"] == "1,1"

    def test_dual(self, capsys):
        code, out = run(capsys, "lattice", "dual", "--gram", str(DATA / "hexagonal.gram"))
        lines = out.splitlines()
        assert code == 0
        assert parse_kv(lines[0])["entries"] == "2/3,-1/3"
        assert parse_kv(lines[1])["entries"] == "-1/3,2/3"

    def test_heights(self, capsys):
        code, out = run(capsys, "lattice", "heights", "--gram", str(DATA / "hexagonal.gram"))
        lines = out.splitlines()
        assert code == 0
        assert parse_kv(lines[0])["covol2"] == "2/1"
        assert parse_kv(lines[1])["covol2"] == "3/1"

    def test_transference(self, capsys):
        code, out = run(capsys, "lattice", "transference", "--gram", str(DATA / "hexagonal.gram"))
        lines = out.splitlines()
        assert code == 0
        row1 = parse_kv(lines[0])
        assert row1["ok"] == "true"
        assert math.isclose(float(row1["lower"]), 0.5 * math.log(2 / 3), rel_tol=1e-9)

    def test_avoid(self, capsys):
        code, out = run(
            capsys, "lattice", "avoid",
            "--gram", str(DATA / "identity2.gram"), "--form", str(DATA / "product_form.txt"),
        )
        record = parse_kv(out.splitlines()[0])
        assert code == 0 and record["grid"] == "1,1" and record["within"] == "true"

    def test_avoid_requires_form(self, capsys):
        code, _ = run(capsys, "lattice", "avoid", "--gram", str(DATA / "identity2.gram"))
        assert code == 2

    def test_heights_above_max_rank_exits_2(self, capsys, tmp_path):
        # every lattice action shares one cap, MAX_RANK = 6: rank 5 has heights, rank 7 exits 2
        for n in (5, 7):
            (tmp_path / f"identity{n}.gram").write_text(
                f"{n}\n" + "".join(" ".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n))
            )
        code, out = run(capsys, "lattice", "heights", "--gram", str(tmp_path / "identity5.gram"))
        assert code == 0 and [parse_kv(ln)["covol2"] for ln in out.splitlines()[:5]] == ["1/1"] * 5
        code = cli.main(["lattice", "heights", "--gram", str(tmp_path / "identity7.gram")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "status=fail\n"
        assert captured.err == "error=rank must be in [1, 6], got 7\n"

    @pytest.mark.parametrize("name", ["missing", "directory", "not-utf8"])
    def test_missing_file_exits_2(self, capsys, tmp_path, name):
        # an absent path, a directory and a file that is not UTF-8 are input errors, not falsified checks
        (tmp_path / "directory").mkdir()
        (tmp_path / "not-utf8").write_bytes(b"2\n\xff\xfe 0\n0 1\n")
        code = cli.main(["lattice", "minima", "--gram", str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "status=fail\n" and captured.err.startswith("error=")


class TestContract:
    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bands", "nonsense"])
        assert exc.value.code == 2

    def test_verification_failure_exits_1(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise VerificationError("forced failure")

        monkeypatch.setattr(bands, "verify_band_gap_identity", boom)
        code, _ = run(capsys, "bands", "verify", "--max", "100")
        assert code == 1

    def test_verification_failure_under_json_names_its_type(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise VerificationError("forced failure")

        monkeypatch.setattr(bands, "verify_band_gap_identity", boom)
        code = cli.main(["--json", "bands", "verify", "--max", "100"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "error=forced failure\n"
        assert_failed(captured, ["--json"], "bands", "VerificationError")

    @pytest.mark.parametrize("name, error_type", [("missing", "FileNotFoundError"), ("directory", "IsADirectoryError")])
    def test_file_error_under_json_names_its_type(self, capsys, tmp_path, name, error_type):
        (tmp_path / "directory").mkdir()
        code = cli.main(["--json", "lattice", "minima", "--gram", str(tmp_path / name)])
        assert code == 2
        assert_failed(capsys.readouterr(), ["--json"], "lattice", error_type)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("argv, flag", [("minima --gram=", "--gram"), ("avoid --gram HEX --form=", "--form"),
                                            ("avoid --gram= --form FORM", "--gram")])
    def test_empty_file_flag_exits_2(self, capsys, json_flag, argv, flag):
        # Path("") is the current directory; an empty value names its flag instead of reading "."
        argv = argv.replace("HEX", str(DATA / "hexagonal.gram")).replace("FORM", str(DATA / "product_form.txt"))
        code = cli.main([*json_flag, "lattice", *argv.split()])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, f"error={flag} needs a file name\n")
        assert_failed(captured, json_flag, "lattice")

    def test_payload_is_byte_stable(self, capsys):
        outs = []
        for _ in range(2):
            _, out = run(capsys, "lattice", "transference", "--gram", str(DATA / "hexagonal.gram"))
            stable = [ln for ln in out.splitlines() if not ln.startswith("elapsed_ms=")]
            outs.append(stable)
        assert outs[0] == outs[1]

    def test_json_output(self, capsys):
        code, out = run(capsys, "--json", "secant", "--g", "1", "--m", "5", "--d", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["command"] == "secant" and payload["status"] == "pass"
        assert payload["records"][0]["closed"] == 5

    def test_verify_all_quick(self, capsys):
        code, out = run(capsys, "verify-all", "--quick")
        lines = out.splitlines()
        assert code == 0
        checks = [ln for ln in lines if ln.startswith("check=")]
        assert len(checks) == 11
        assert all(" status=pass " in ln for ln in checks)

    @pytest.mark.parametrize("argv", [["verify-all", "--quick"], ["secant", "--g", "1", "--m", "5", "--d", "2"]])
    def test_json_timing_has_the_elapsed_line_keys(self, capsys, argv):
        # the last key of a --json object holds the fields of the text elapsed line, in its order
        _, out = run(capsys, *argv)
        text_keys = list(parse_kv(out.splitlines()[-1]))
        _, out = run(capsys, "--json", *argv)
        payload = json.loads(out)
        assert list(payload) == ["command", "status", "records", "timing"]
        assert list(payload["timing"]) == text_keys
        assert all(type(v) is int and v >= 0 for v in payload["timing"].values())

    def test_verify_all_timing_fields(self, capsys):
        _, out = run(capsys, "verify-all", "--quick")
        lines = out.splitlines()
        names = [ln.split()[0].removeprefix("check=") for ln in lines if ln.startswith("check=")]
        timing = {k: int(v) for k, v in parse_kv(lines[-1]).items()}
        assert list(timing) == ["elapsed_ms", "import_ms"] + [f"{name}_ms" for name in names]
        assert all(v >= 0 for v in timing.values())
        assert sum(timing.values()) - timing["elapsed_ms"] <= timing["elapsed_ms"]


@pytest.mark.parametrize(
    "argv, error",
    [
        ("bands single --n 5 --max 9", "bands single does not read --max"),
        ("bands single --n 5 --exponent 1.5 --max 9", "bands single does not read --max --exponent"),
        ("bands verify --n 5", "bands verify does not read --n"),
        ("bands verify --max 100 --exponent 1.0", "bands verify does not read --exponent"),
        ("bands asymptotic --max 1000 --n 5", "bands asymptotic does not read --n"),
        ("bands single", "bands single needs --n"),
        ("lattice minima --gram HEX --form FORM", "lattice minima does not read --form"),
        ("lattice dual --gram HEX --form FORM", "lattice dual does not read --form"),
        ("lattice heights --gram HEX --form FORM", "lattice heights does not read --form"),
        ("lattice transference --gram HEX --form FORM", "lattice transference does not read --form"),
        ("lattice avoid --gram HEX", "lattice avoid needs --form"),
    ],
)
def test_bands_and_lattice_name_unread_and_missing_flags(capsys, argv, error):
    argv = argv.replace("HEX", str(DATA / "hexagonal.gram")).replace("FORM", str(DATA / "product_form.txt"))
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "status=fail\n", f"error={error}\n")


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser that cli.COMMANDS replaced, kept as the parsing oracle."""
    parser = argparse.ArgumentParser(prog="secmin")
    parser.add_argument("--json", action="store_true", help="emit a single JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band function, prime-power gap, growth reports")
    p.add_argument("mode", choices=["single", "verify", "asymptotic"])
    p.add_argument("--n", type=int, help="row for mode single")
    p.add_argument("--max", type=int, help="range bound for verify/asymptotic")
    p.add_argument("--exponent", type=float, action="append", help="scaling exponent (repeatable)")
    p.set_defaults(fn=cli.cmd_bands, modules=("arith", "bands"))

    p = sub.add_parser("secant", help="secant-variety degree, closed form and series oracle")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=["closed", "oracle", "both"], default="both")
    p.set_defaults(fn=cli.cmd_secant, modules=("secant",))

    p = sub.add_parser("bounds", help="explicit bound evaluators")
    p.add_argument("which", choices=["constant", "height", "lambda", "mu", "top", "omega-lambda", "omega-mu"])
    p.add_argument("--N", type=int, help="dimension parameter for the transference constant")
    p.add_argument("--rank-shift", action="store_true", default=None, dest="rank_shift")
    p.add_argument("--g", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, help="power of the dualizing sheaf")
    p.add_argument("--L2", type=float)
    p.add_argument("--Lw", type=float, help="default 0.0")
    p.add_argument("--w2", type=float, help="default 0.0")
    p.add_argument("--e-val", type=float, default=None, dest="e_val")
    p.add_argument("--field", choices=["Q"], help="the rationals, the default; excludes the four flags below")
    p.add_argument("--degK", type=int, help="field degree over the rationals")
    p.add_argument("--r1", type=int, help="number of real places")
    p.add_argument("--r2", type=int, help="number of complex places")
    p.add_argument("--log-disc", type=float, help="log |discriminant|")
    p.set_defaults(fn=cli.cmd_bounds, modules=("bounds",))

    p = sub.add_parser("lattice", help="Gram-lattice computations")
    p.add_argument("action", choices=["minima", "dual", "heights", "transference", "avoid"])
    p.add_argument("--gram", required=True, help="Gram matrix file")
    p.add_argument("--form", help="form file for action avoid")
    p.set_defaults(fn=cli.cmd_lattice, modules=("lattice",))

    p = sub.add_parser("verify-all", help="run the pinned verification suite")
    p.add_argument("--quick", action="store_true", help="reduced desk-scale ranges")
    p.set_defaults(fn=cli.cmd_verify_all, modules=("suite",))

    return parser


ORACLE = argparse_oracle()


def parsed(parse, argv) -> tuple:
    """("ok", the namespace less fn and modules) or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    # repr, so that nan compares equal to nan
    return "ok", repr(sorted((k, v) for k, v in vars(ns).items() if k not in ("fn", "modules")))


def assert_usage_error(result) -> None:
    kind, code, out, err = result
    assert (kind, code, out) == ("exit", 2, "")
    assert err.startswith("secmin: error: ") and err.count("\n") == 1 and err.endswith("\n")


SPEC = {command: entry[3] for command, entry in cli.COMMANDS.items()}
FLAGS = sorted({name for spec in SPEC.values() for name in spec if name[0] == "-"})
# values that no flag converts, that argparse reads as flags, or that it reads as values
JUNK = ["nan", "inf", "-inf", "-1e5", "1e5", "-5", "-1.0", "-.5", "-5.", "1_000", " 7", "0x10", "", "-", "--",
        "x", "-x", "--x", "a b", "-a b", "Q", "single", "both", "x=y"]


def value_for(kind, noisy=True) -> st.SearchStrategy:
    if isinstance(kind, tuple):
        typed = st.sampled_from(kind)
    elif kind is int:
        typed = st.integers(-10**6, 10**6).map(str)
    elif kind in (float, list):
        typed = st.floats().map(repr)  # nan, inf, -inf, negative and exponent forms among them
    else:
        typed = st.sampled_from(["g.gram", "-", "a b", "-a b"])
    return st.one_of(typed, st.sampled_from(JUNK)) if noisy else typed


@st.composite
def argvs(draw) -> list[str]:
    """An argv list: a command, its flags in both forms, its positional and --json before it.

    A noisy list may also hold junk values and tokens, flags of other commands, a
    flag without its value, no positional or two, --json after the command, and
    a token left out.
    """
    noisy = draw(st.booleans())
    command = draw(st.sampled_from([*SPEC, "nonsense", None] if noisy else list(SPEC)))
    spec = SPEC.get(command, {})
    own = [name for name in spec if name[0] == "-"]
    groups = [[name, draw(value_for(spec[name][0], noisy))] for name in own if spec[name][2]]
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from(own or FLAGS) | st.sampled_from(FLAGS) if noisy else st.sampled_from(own))
        kind = spec.get(name, (str,))[0]
        value = draw(value_for(kind, noisy))
        if kind is bool and not noisy:
            groups.append([name])
        else:
            groups.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]] + [[name]] * noisy)))
    choices = next((s[0] for n, s in spec.items() if n[0] != "-"), ())
    for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2])) if noisy else len(choices) > 0):
        pool = st.sampled_from(choices) if choices else st.nothing()
        groups.append([draw(pool | st.sampled_from(JUNK) if noisy else pool)])
    groups = draw(st.permutations(groups))
    argv = draw(st.sampled_from([[], ["--json"], ["--json", "--json"]])) + ([command] if command else [])
    argv += [token for group in groups for token in group]
    if noisy:
        argv += draw(st.sampled_from([[], ["--json"], ["junk"]]))
        if argv and draw(st.booleans()):  # a missing token
            del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def dropped_form(argv) -> bool:
    """argv holds "--" or, after its command, a flag abbreviated to a unique prefix."""
    command = next((t for t in argv if t != "--json"), None)
    names = [n for n in SPEC.get(command, {}) if n[0] == "-"] + ["--help"]
    after = argv[argv.index(command) + 1:] if command in SPEC else []
    return "--" in argv or any(
        t.startswith("--") and " " not in t and (name := t.split("=", 1)[0]) not in names
        and any(n.startswith(name) for n in names)
        for t in after
    )


class TestParsing:
    @settings(max_examples=400, deadline=None)
    @given(argvs())
    @example(["--json", "bands", "single", "--n", "5"])
    @example(["bands", "single", "--n", "5", "--json"])  # --json only before the command
    @example(["bounds", "top", "--g", "2", "--m", "9", "--L2", "7.0", "--w2", "-inf"])
    @example(["bounds", "top", "--g", "2", "--m", "9", "--L2", "7.0", "--w2=-inf"])
    @example(["bands", "asymptotic", "--exponent", "-.5", "--exponent", "-1", "--exponent=-1e5"])
    @example(["bands", "asymptotic", "--exponent", "-1e5"])
    @example(["verify-all", "--quick=1"])
    @example(["bounds", "constant", "--N", "1", "--rank-shift=x"])
    @example(["bounds", "--N", "1", "--rank-shift", "constant", "--N", "2"])  # positional anywhere, last value wins
    @example(["bands", "single", "verify", "--n", "5"])  # exactly one positional
    @example(["lattice", "--gram=", "minima"])
    @example(["secant", "--g", "1", "--m", "5"])
    def test_parses_as_argparse_did(self, argv):
        new = parsed(cli.parse_args, argv)
        if new[0] == "exit":
            assert_usage_error(new)
        if dropped_form(argv):
            assert new[0] == "exit"
            return
        old = parsed(ORACLE.parse_args, argv)
        assert new[0] == old[0]
        assert new[1] == old[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bands", "verify", "--ma", "9"],
            ["bands", "verify", "--ma=9"],
            ["--js", "bands", "verify"],
            ["lattice", "minima", "--g", "x"],
            ["verify-all", "--q"],
            ["bounds", "constant", "--N", "1", "--rank"],
        ],
    )
    def test_abbreviated_flags_exit_2(self, argv):
        # argparse took a unique prefix for the full spelling; only full spellings are read now
        assert parsed(ORACLE.parse_args, argv)[0] == "ok"
        new = parsed(cli.parse_args, argv)
        assert_usage_error(new)
        assert new[3].startswith("secmin: error: unrecognized arguments: --")

    @pytest.mark.parametrize("argv", [["bands", "--n", "5", "--", "single"], ["lattice", "--gram", "g", "--", "minima"]])
    def test_double_dash_separator_exits_2(self, argv):
        # argparse read the tokens after "--" as positionals
        assert parsed(ORACLE.parse_args, argv)[0] == "ok"
        assert_usage_error(parsed(cli.parse_args, argv))

    @pytest.mark.parametrize("argv", [[], ["--json"], ["bands", "single", "--n"], ["bounds"], ["verify-all", "x"]])
    def test_usage_error_prints_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert re.fullmatch(r"secmin: error: [^\n]+\n", captured.err)

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["--json", "-h"], *([command, "-h"] for command in SPEC), ["bands", "single", "--help"]]
    )
    def test_help_names_every_argument_and_choice(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        words = set(re.split(r"[\s{},:]+", captured.out))
        # the top-level help shows what comes before the command, and every command
        shown = [SPEC[argv[0]]] if argv[0] in SPEC else [cli.TOP, *SPEC.values()]
        names = {name for spec in shown for name in spec}
        choices = {c for spec in shown for kind, *_ in spec.values() if isinstance(kind, tuple) for c in kind}
        assert names | choices | ({argv[0]} & set(SPEC)) <= words


@pytest.mark.parametrize("module", ["secmin", "secmin.cli"])
class TestModuleEntryPoints:
    """`python -m` runs the same command line as the installed script."""

    def run_module(self, module, *argv) -> subprocess.CompletedProcess:
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120
        )

    def test_bands_single(self, module):
        proc = self.run_module(module, "bands", "single", "--n", "10")
        assert proc.returncode == 0
        assert parse_kv(proc.stdout.splitlines()[0])["band"] == "1"

    def test_missing_gram_exits_2(self, module):
        proc = self.run_module(module, "lattice", "minima", "--gram", str(DATA / "missing.gram"))
        assert proc.returncode == 2
        assert proc.stdout.splitlines() == ["status=fail"]


def test_import_leaves_json_unloaded():
    # only --json output imports json; -S keeps site hooks from loading it first
    probe = "import sys, secmin.cli; print('json' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


ARITH, BANDS, BOUNDS, LATTICE, SECANT = (f"secmin.{m}" for m in ("arith", "bands", "bounds", "lattice", "secant"))
RECORDS = "secmin.records"  # the result-record base, loaded with the first computation module
FRACTIONS = {"fractions", "decimal"}  # fractions imports decimal
# each loads only where a command needs it; argparse, gettext and locale load nowhere, -h included
WATCHED = {"fractions", "decimal", "typing", "random", "struct", "dataclasses", "inspect", "json",
           "argparse", "gettext", "locale"}
HEXAGONAL = str(DATA / "hexagonal.gram")


@pytest.mark.parametrize(
    "argv, loads",
    [
        pytest.param([], set(), id="import"),
        pytest.param(["-h"], set(), id="help"),
        pytest.param(["lattice", "-h"], set(), id="lattice-help"),
        pytest.param(["bands", "single", "--n", "1000000"], {ARITH, BANDS, RECORDS}, id="bands-single"),
        pytest.param(["secant", "--g", "1", "--m", "5", "--d", "2"], {ARITH, SECANT, RECORDS}, id="secant"),
        pytest.param(["bounds", "lambda", "--g", "2", "--m", "12", "--k", "3", "--L2", "7.0"],
                     {ARITH, SECANT, BOUNDS, RECORDS}, id="bounds-lambda"),
        pytest.param(["lattice", "minima", "--gram", HEXAGONAL], {LATTICE, RECORDS}, id="lattice-minima"),
        pytest.param(["lattice", "avoid", "--gram", HEXAGONAL, "--form", str(DATA / "product_form.txt")],
                     {LATTICE, RECORDS}, id="lattice-avoid"),
        pytest.param(["lattice", "dual", "--gram", HEXAGONAL], {LATTICE, RECORDS} | FRACTIONS, id="lattice-dual"),
        # the transference check reads the integer core of the heights, not their Fractions
        pytest.param(["lattice", "transference", "--gram", HEXAGONAL],
                     {ARITH, SECANT, BOUNDS, LATTICE, RECORDS}, id="lattice-transference"),
        pytest.param(["verify-all", "--quick"],
                     {ARITH, BANDS, SECANT, BOUNDS, LATTICE, RECORDS, "secmin.suite", "random", "struct"},
                     id="verify-all-quick"),
        # an error prints status=fail without json, and its object with it
        pytest.param(["lattice", "minima", "--gram="], {LATTICE, RECORDS}, id="lattice-error"),
        pytest.param(["--json", "lattice", "minima", "--gram="], {LATTICE, RECORDS, "json"}, id="lattice-error-json"),
    ],
)
def test_cli_loads_only_the_command_modules(argv, loads):
    # -S keeps site hooks from loading any of the watched modules first; only
    # --json output imports json.  -h exits through SystemExit after its help.
    probe = (
        "import sys\n"
        "from secmin import cli\n"
        "if sys.argv[1:]:\n"
        "    try:\n"
        "        cli.main(sys.argv[1:])\n"
        "    except SystemExit:\n"
        "        pass\n"
        f"watched = {sorted(WATCHED)!r}\n"
        "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'secmin' or m in watched)))\n"
        "print(len(sys.modules['secmin.arith']._table) if 'secmin.arith' in sys.modules else 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, loaded, table = proc.stdout.splitlines()
    assert set(loaded.split(",")) == {"secmin", "secmin.cli", "secmin.errors"} | loads
    # bands single reads primality near 10^6 without sieving the shared table that far
    assert int(table) < 10**6
