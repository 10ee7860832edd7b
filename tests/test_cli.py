"""Command dispatch, output formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from danisurf import cli
from danisurf.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK, run
from danisurf.diffmaps import MAX_CAP
from danisurf.parsing import MAX_DEPTH, MAX_DIGITS, MAX_EXPONENT, MAX_PAIRS, MAX_TERMS

import dispatch_parity

SURFACE = "f=x; phi=z^2"
CANONICAL_D = "x -> 0; y -> 2*z; z -> x"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestBasicCommands:
    def test_nf(self, capsys):
        code, out, _ = _run(capsys, "nf", "--surface", SURFACE, "--expr", "x^2*y")
        assert code == EXIT_OK and out == "x*z^2"

    def test_eq_true_false(self, capsys):
        code, out, _ = _run(capsys, "eq", "--surface", SURFACE,
                            "--left", "x*y", "--right", "z^2")
        assert code == EXIT_OK and out == "true"
        code, out, _ = _run(capsys, "eq", "--surface", SURFACE,
                            "--left", "x", "--right", "y")
        assert code == EXIT_CHECK_FAILED and out == "false"

    def test_dwf(self, capsys):
        code, out, _ = _run(capsys, "dwf", "--surface", SURFACE,
                            "--derivation", CANONICAL_D)
        assert code == EXIT_OK and out == "true"
        code, out, _ = _run(capsys, "dwf", "--surface", SURFACE,
                            "--derivation", "x -> 0; y -> 1; z -> 1")
        assert code == EXIT_CHECK_FAILED and out == "false"

    def test_mwf(self, capsys):
        code, out, _ = _run(capsys, "mwf", "--surface", SURFACE,
                            "--map", "x -> y; y -> x; z -> z")
        assert code == EXIT_OK and out == "true"
        code, out, _ = _run(capsys, "mwf", "--surface", SURFACE,
                            "--map", "x -> y; y -> y; z -> z")
        assert code == EXIT_CHECK_FAILED and out == "false"

    def test_apply_derivation(self, capsys):
        code, out, _ = _run(capsys, "apply", "--surface", SURFACE,
                            "--derivation", CANONICAL_D, "--expr", "y*z")
        assert code == EXIT_OK and out == "3*z^2"

    def test_apply_map(self, capsys):
        code, out, _ = _run(capsys, "apply", "--surface", SURFACE,
                            "--map", "x -> x; y -> y + 2*z + x; z -> z + x",
                            "--expr", "z")
        assert code == EXIT_OK and out == "x + z"

    def test_commute_failure_with_witness(self, capsys):
        code, out, _ = _run(capsys, "commute", "--surface", SURFACE,
                            "--map", "x -> y; y -> x; z -> z",
                            "--derivation", CANONICAL_D)
        assert code == EXIT_CHECK_FAILED
        assert out.startswith("false") and "witness x" in out

    def test_commute_success(self, capsys):
        code, out, _ = _run(capsys, "commute", "--surface", SURFACE,
                            "--map", "x -> x; y -> y + 2*z + x; z -> z + x",
                            "--derivation", CANONICAL_D)
        assert code == EXIT_OK and out == "true"

    def test_triangular_shorthand(self, capsys):
        code, out, _ = _run(capsys, "commute", "--surface", SURFACE,
                            "--h", "x^2 - 1", "--derivation", CANONICAL_D)
        assert code == EXIT_OK and out == "true"
        code, _, err = _run(capsys, "commute", "--surface", SURFACE,
                            "--h", "1", "--map", "x -> x; y -> y; z -> z",
                            "--derivation", CANONICAL_D)
        assert code == EXIT_ERROR and "not both" in err

    def test_lnd(self, capsys):
        code, out, _ = _run(capsys, "lnd", "--surface", SURFACE,
                            "--derivation", CANONICAL_D)
        assert code == EXIT_OK and "locally nilpotent" in out
        code, out, _ = _run(capsys, "lnd", "--surface", "free: X,Y",
                            "--derivation", "X -> X; Y -> 0", "--cap", "8")
        assert code == EXIT_CHECK_FAILED and "exceeded cap" in out

    @pytest.mark.parametrize("command", ["lnd", "exp"])
    def test_cap_bound(self, capsys, command):
        argv = (command, "--surface", "free: X,Y", "--derivation", "X -> X; Y -> Y")
        code, _, err = _run(capsys, *argv, "--cap", str(MAX_CAP + 1))
        assert code == EXIT_ERROR and err == f"error: cap above MAX_CAP = {MAX_CAP}"
        code, out, _ = _run(capsys, *argv, "--cap", str(MAX_CAP))
        assert code == EXIT_CHECK_FAILED and f"{MAX_CAP}" in out

    def test_exp_with_scale(self, capsys):
        code, out, _ = _run(capsys, "exp", "--surface", SURFACE,
                            "--derivation", CANONICAL_D, "--scale", "x")
        assert code == EXIT_OK
        assert out == "M: x -> x; y -> x^3 + 2*x*z + y; z -> x^2 + z"

    def test_exp_non_nilpotent(self, capsys):
        code, out, _ = _run(capsys, "exp", "--surface", "free: X,Y",
                            "--derivation", "X -> X; Y -> 0", "--cap", "6")
        assert code == EXIT_CHECK_FAILED and "error" in out

    def test_exp_past_the_cap_is_inconclusive(self, capsys):
        """D(Y) = X^40 dies at D^41, past the default cap 32 of a free ring: no verdict."""
        argv = ("exp", "--surface", "free: X,Y", "--derivation", "X -> 1; Y -> X^40")
        code, out, _ = _run(capsys, *argv)
        assert code == EXIT_CHECK_FAILED
        assert out == "error: inconclusive: D^k(Y) is nonzero for every k <= 32"
        code, out, _ = _run(capsys, *argv, "--format", "json")
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out) == {"error": "inconclusive: D^k(Y) is nonzero for every k <= 32"}

    def test_bound(self, capsys):
        code, out, _ = _run(capsys, "bound", "--g", "x+1", "--n", "2")
        assert code == EXIT_OK and out == "1"
        code, out, _ = _run(capsys, "bound", "--g", "1", "--n", "2")
        assert out == "2"

    def test_classify(self, capsys):
        code, out, _ = _run(capsys, "classify", "--phi", "z^8 + z^2",
                            "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["periodic"] == {"i": 2, "m": 6, "phi0": "z + 1"}
        assert payload["power"] is None


class TestSuiteCommands:
    def test_verify_xn_example(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "xn", "--n", "2",
                            "--phi", "z^3", "--g", "1")
        assert code == EXIT_OK and out.endswith("PASS")

    def test_verify_wrong_class(self, capsys):
        code, _, err = _run(capsys, "verify", "--suite", "xy", "--n", "2",
                            "--phi", "z^3", "--g", "1")
        assert code == EXIT_ERROR and "class" in err

    def test_verify_json_schema(self, capsys):
        code, out, _ = _run(capsys, "verify", "--n", "2", "--phi", "z^3",
                            "--g", "1", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert list(payload) == ["suite", "surface", "g", "checks", "pass"]
        assert payload["pass"] is True

    def test_verify_explicit_f(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "fx",
                            "--f", "x^3 + 1", "--phi", "z^2", "--g", "x")
        assert code == EXIT_OK and out.endswith("PASS")

    def test_plane_example(self, capsys):
        code, out, _ = _run(capsys, "plane-example", "--s", "3", "--p", "1",
                            "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        members = [c for c in payload["checks"]
                   if c["family"] == "dilation" and c["expected"]]
        assert len(members) == 2

    def test_hdeg_bound(self, capsys):
        """--h cannot give a degree above MAX_EXPONENT, so neither can --hdeg."""
        argv = ("verify", "--suite", "xy", "--f", "x", "--phi", "z^8+1")
        code, _, err = _run(capsys, *argv, "--hdeg", str(MAX_EXPONENT + 1))
        assert code == EXIT_ERROR and err == f"error: --hdeg above MAX_EXPONENT = {MAX_EXPONENT}"
        code, out, _ = _run(capsys, *argv, "--hdeg", "6")
        assert code == EXIT_OK and out.endswith("PASS")

    def test_hdeg_floor(self, capsys):
        """--hdeg -1 would sample no h at all, so a PASS would check nothing."""
        argv = ("verify", "--suite", "xy", "--f", "x", "--phi", "z^8+1")
        code, out, err = _run(capsys, *argv, "--hdeg", "-1")
        assert code == EXIT_ERROR and not out and err == "error: --hdeg below 0"
        code, out, _ = _run(capsys, *argv, "--hdeg", "0")
        assert code == EXIT_OK and out.endswith("PASS")

    def test_s_bound(self, capsys):
        """Y^65 typed in a derivation is refused by the parser, so is plane-example's --s 65."""
        code, out, err = _run(capsys, "plane-example", "--s", str(MAX_EXPONENT + 1), "--p", "1")
        assert code == EXIT_ERROR and not out and err == f"error: --s above MAX_EXPONENT = {MAX_EXPONENT}"
        code, out, _ = _run(capsys, "plane-example", "--s", str(MAX_EXPONENT), "--p", "1")
        assert code == EXIT_OK and out.endswith("PASS")

    @pytest.mark.parametrize("argv", [
        ["nf", "--n", str(MAX_EXPONENT + 1), "--phi", "z^2", "--expr", "x*y"],
        ["nf", "--n", "0", "--phi", "z^2", "--expr", "x*y"],
        ["verify", "--n", "5000", "--phi", "z^2+1", "--hdeg", "1"]])
    def test_n_bound(self, capsys, argv):
        """--n is bounded as --f's degree is: x^65 is refused by the parser."""
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_ERROR and not out and err == f"error: --n outside 1..MAX_EXPONENT = {MAX_EXPONENT}"
        code, out, _ = _run(capsys, "nf", "--n", str(MAX_EXPONENT), "--phi", "z^2", "--expr", "x*y")
        assert code == EXIT_OK and out == "x*y"

    def test_seed_determinism(self, capsys):
        args = ("verify", "--n", "2", "--phi", "z^2", "--g", "x+1",
                "--seed", "11", "--format", "json")
        _, first, _ = _run(capsys, *args)
        _, second, _ = _run(capsys, *args)
        assert first == second


class TestErrorsAndFiles:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = _run(capsys, "nf", "--surface", SURFACE, "--expr", "w + 1")
        assert code == EXIT_ERROR and "unknown variable" in err

    def test_missing_surface(self, capsys):
        code, _, err = _run(capsys, "nf", "--expr", "x")
        assert code == EXIT_ERROR and "surface" in err

    def test_at_file_argument(self, capsys, tmp_path):
        spec = tmp_path / "surface.txt"
        spec.write_text("f=x; phi=z^2\n", encoding="utf-8")
        code, out, _ = _run(capsys, "nf", "--surface", f"@{spec}", "--expr", "x*y")
        assert code == EXIT_OK and out == "z^2"

    def test_at_file_missing(self, capsys):
        code, _, err = _run(capsys, "nf", "--surface", "@/no/such/file",
                            "--expr", "x")
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("argv,option", [
        (["nf", "--surface", SURFACE, "--expr", "x^2*y"], "--expr"),
        (["apply", "--surface", SURFACE, "--derivation", CANONICAL_D, "--expr", "y*z"], "--expr"),
        (["eq", "--surface", SURFACE, "--left", "x*y", "--right", "z^2"], "--left"),
        (["eq", "--surface", SURFACE, "--left", "x*y", "--right", "z^2"], "--right"),
        (["exp", "--surface", SURFACE, "--derivation", CANONICAL_D, "--scale", "x"], "--scale"),
        (["commute", "--surface", SURFACE, "--h", "x^2 - 1", "--derivation", CANONICAL_D], "--h"),
        (["bound", "--g", "x^2+1", "--n", "2"], "--g"),
        (["classify", "--phi", "z^8 + z^2"], "--phi"),
        (["verify", "--suite", "xy", "--f", "x", "--phi", "z^2+1", "--g", "x", "--hdeg", "1"], "--f"),
        (["verify", "--suite", "xy", "--f", "x", "--phi", "z^2+1", "--g", "x", "--hdeg", "1"], "--phi"),
        (["verify", "--suite", "xy", "--f", "x", "--phi", "z^2+1", "--g", "x", "--hdeg", "1"], "--g"),
        (["plane-example", "--s", "3", "--p", "2"], "--p")],
        ids=["nf-expr", "apply-expr", "eq-left", "eq-right", "exp-scale", "commute-h", "bound-g",
             "classify-phi", "verify-f", "verify-phi", "verify-g", "plane-example-p"])
    def test_every_string_option_takes_at_file(self, capsys, tmp_path, argv, option):
        at = argv.index(option) + 1
        value = tmp_path / "value.txt"
        value.write_text(f" {argv[at]}\n", encoding="utf-8")
        inline = _run(capsys, *argv)
        from_file = _run(capsys, *argv[:at], f"@{value}", *argv[at + 1:])
        assert from_file[:2] == inline[:2] and inline[0] == EXIT_OK and inline[1]

    def test_ignored_option_file_is_read(self, capsys):
        """--surface wins over --phi, yet every @file is read before anything is built."""
        code, out, err = _run(capsys, "nf", "--surface", SURFACE, "--phi", "@/no/such/file", "--expr", "x*y")
        assert code == EXIT_ERROR and not out and "/no/such/file" in err

    def test_missing_file_reported_before_earlier_parse_error(self, capsys):
        code, out, err = _run(capsys, "nf", "--surface", "f=x; phi=z^2 +", "--expr", "@/no/such/file")
        assert code == EXIT_ERROR and not out and "/no/such/file" in err

    def test_at_file_bound(self, capsys, tmp_path):
        """An @file holds at most MAX_FILE characters, counted before the surrounding blanks are stripped."""
        value = tmp_path / "expr.txt"
        value.write_text("x*y" + " " * (cli.MAX_FILE - 2), encoding="utf-8")
        code, out, err = _run(capsys, "nf", "--surface", SURFACE, "--expr", f"@{value}")
        assert code == EXIT_ERROR and not out
        assert err == f"error: @file longer than MAX_FILE = {cli.MAX_FILE} characters"
        value.write_text("x*y" + " " * (cli.MAX_FILE - 3), encoding="utf-8")
        assert _run(capsys, "nf", "--surface", SURFACE, "--expr", f"@{value}") == (EXIT_OK, "z^2", "")

    def test_cross_surface_rejected_early(self, capsys):
        # free-surface generators in a relation derivation table
        code, _, err = _run(capsys, "lnd", "--surface", SURFACE,
                            "--derivation", "X -> 0; Y -> 1")
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("expr", ["zeta(100003)", "zeta(997)*zeta(991)",
                                      "(zeta(7)*X + zeta(11)*Y + zeta(13))^3"])
    def test_conductor_above_bound_rejected(self, capsys, expr):
        start = time.perf_counter()
        code, _, err = _run(capsys, "nf", "--surface", "free: X,Y", "--expr", expr)
        assert code == EXIT_ERROR and "MAX_CONDUCTOR" in err
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("expr,position", [
        ("(x+y+z)^100000", 8), ("2^100000000", 2), ("zeta(4)^-65", 9),
        (f"x^{MAX_EXPONENT + 1}", 2), ("(x^2 + y)^33", 10), (f"x^40*y^{MAX_EXPONENT - 39}", 4)])
    def test_exponent_above_bound_rejected(self, capsys, expr, position):
        start = time.perf_counter()
        code, out, err = _run(capsys, "nf", "--surface", SURFACE, "--expr", expr)
        assert code == EXIT_ERROR and not out
        assert "MAX_EXPONENT" in err and f"(at position {position})" in err
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("argv,position", [
        (["nf", "--surface", SURFACE, "--expr", "0^-1"], 1), (["nf", "--surface", SURFACE, "--expr", "(1-1)^-2"], 5),
        (["nf", "--surface", SURFACE, "--expr", "x*0^-1"], 3), (["plane-example", "--s", "3", "--p", "0^-1"], 1)])
    def test_zero_to_a_negative_power_rejected(self, capsys, argv, position):
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_ERROR and not out
        assert "zero to a negative power" in err and f"(at position {position})" in err

    @pytest.mark.parametrize("argv,position", [
        (["nf", "--surface", SURFACE, "--expr", "(" * 3000 + "x" + ")" * 3000], MAX_DEPTH),
        (["apply", "--surface", SURFACE, "--map", "x -> " + "(" * 300 + "x" + ")" * 300 + "; y -> y; z -> z",
          "--expr", "x"], 5 + MAX_DEPTH)], ids=["nf expression", "apply map image"])
    def test_nesting_above_bound_rejected(self, capsys, argv, position):
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_ERROR and not out
        assert "MAX_DEPTH" in err and f"(at position {position})" in err

    def test_expansion_above_max_terms_rejected(self, capsys):
        code, out, err = _run(capsys, "nf", "--surface", "free: A,B,C,D,E", "--expr", "(A+B+C+D+E+1)^64")
        assert code == EXIT_ERROR and not out
        assert f"MAX_TERMS = {MAX_TERMS}" in err and "(at position 13)" in err

    def test_product_above_max_pairs_rejected(self, capsys):
        start = time.perf_counter()
        code, out, err = _run(capsys, "nf", "--surface", "free: x,y,z", "--expr", "(x+y+z+1)^32*(x+y+z+1)^32")
        assert code == EXIT_ERROR and not out
        assert f"MAX_PAIRS = {MAX_PAIRS}" in err and "(at position 12)" in err
        assert time.perf_counter() - start < 2

    def test_exponent_at_bound_accepted(self, capsys):
        code, out, _ = _run(capsys, "nf", "--surface", SURFACE,
                            "--expr", f"x^{MAX_EXPONENT - 1}*y")
        assert code == EXIT_OK and out == f"x^{MAX_EXPONENT - 2}*z^2"

    # longer than Python's 4300-digit limit on int(str), which must not be reached
    @pytest.mark.parametrize("expr,position", [
        ("x^" + "9" * 5000, 2), ("9" * 5000, 0), ("1/" + "7" * 5000 + " + x", 2),
        ("zeta(" + "1" * 5000 + ")", 5), ("x + " + "0" * (MAX_DIGITS + 1), 4)])
    def test_long_integer_literal_rejected(self, capsys, expr, position):
        code, out, err = _run(capsys, "nf", "--surface", SURFACE, "--expr", expr)
        assert code == EXIT_ERROR and not out
        assert "MAX_DIGITS" in err and f"(at position {position})" in err

    def test_integer_literal_at_bound_accepted(self, capsys):
        code, out, _ = _run(capsys, "nf", "--surface", SURFACE, "--expr", "9" * MAX_DIGITS)
        assert code == EXIT_OK and out == "9" * MAX_DIGITS


    # (2^64)^64 = 2^4096 has 1234 digits; Python's 4300-digit limit on str(int) is never reached
    @pytest.mark.parametrize("expr,position", [
        ("((2^64)^64)^64", 7), ("(10^37)^27*10", 10), ("((1/10)^37)^28", 11),
        ("9" * MAX_DIGITS + "*x*10", MAX_DIGITS + 2), ("(zeta(7) + 10^50)^21", 17)],
        ids=["power", "product", "denominator", "polynomial", "cyclotomic"])
    def test_long_coefficient_rejected(self, capsys, expr, position):
        start = time.perf_counter()
        code, out, err = _run(capsys, "nf", "--surface", SURFACE, "--expr", expr)
        assert code == EXIT_ERROR and not out
        assert "MAX_DIGITS" in err and f"(at position {position})" in err
        assert time.perf_counter() - start < 1

    # a polynomial's coefficients share one field Q(zeta_N), N <= MAX_CONDUCTOR, as a scalar's
    # coordinates do: 997 * 991 and 7 * 11 * 13 = 1001 are above the bound, though 7 * 11 and 7 * 13 are not
    @pytest.mark.parametrize("surface,expr", [
        ("free: X,Y", "zeta(997)*X + zeta(991)*Y"),
        ("free: X,Y", "(zeta(7)*X + zeta(11)*Y + zeta(13))^2 - (zeta(7)*X + zeta(11)*Y)^2 - zeta(13)^2"),
        (SURFACE, "zeta(7)*x*y + zeta(11)*z + zeta(13)")])
    def test_coefficients_without_one_conductor_rejected(self, capsys, surface, expr):
        code, out, err = _run(capsys, "nf", "--surface", surface, "--expr", expr)
        assert code == EXIT_ERROR and not out and "exceeds MAX_CONDUCTOR = 1000" in err

    # on a relation surface every element's coefficients share one field with the relation's,
    # whether or not the element needs a rewrite: zeta(997)*z and zeta(997)*x are normal forms
    @pytest.mark.parametrize("argv", [
        ["nf", "--surface", "f=x^2+x; phi=z^2+zeta(991)", "--expr", "zeta(997)*z"],
        ["nf", "--surface", "f=x^2+x; phi=z^2+zeta(991)", "--expr", "zeta(997)*x^2*y"],
        ["apply", "--surface", "f=x; phi=z^2+zeta(991)", "--derivation", CANONICAL_D, "--expr", "zeta(997)*z"]],
        ids=["normal-form", "rewrite", "apply"])
    def test_coefficients_outside_the_surface_field_rejected(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_ERROR and not out and "conductor 988027 exceeds MAX_CONDUCTOR = 1000" in err

    # T(y) of the first triangular map forms phi'(z)*h, whose operands need Q(zeta_1001), while T(z) lies
    # over Q(zeta_91); the second keeps every operand within Q(zeta_77) or Q(zeta_91), though the
    # conductors of its h, f and phi have lcm 1001
    @pytest.mark.parametrize("surface,derivation,h,expected", [
        ("f=zeta(11)*x; phi=zeta(11)*zeta(7)*z^2 + zeta(11)", "x -> 0; y -> 2*zeta(11)*zeta(7)*z; z -> zeta(11)*x",
         "zeta(11)^-1*zeta(13)*x", None),
        ("f=zeta(11)*x; phi=zeta(11)*z^2 + zeta(11)*zeta(13)", "x -> 0; y -> 2*zeta(11)*z; z -> zeta(11)*x",
         "zeta(11)^-1*zeta(7)*x", "true")], ids=["T(y)-above-the-bound", "lcm-above-the-bound"])
    def test_triangular_image_conductor_bound(self, capsys, surface, derivation, h, expected):
        code, out, err = _run(capsys, "commute", "--surface", surface, "--derivation", derivation, "--h", h)
        if expected is None:
            assert code == EXIT_ERROR and not out and "conductor 1001 exceeds MAX_CONDUCTOR = 1000" in err
        else:
            assert code == EXIT_OK and out == expected

    # the checks substitute into the monic relation x*y - z^2 - zeta(13), at conductor 13, not into the
    # relation, at 143 for the unit zeta(11): with images over Q(zeta_91) that lcm would be 1001
    @pytest.mark.parametrize("command,expected", [("dwf", "true"),
                                                  ("lnd", "x: 1; y: 3; z: 2 (cap 6) -> locally nilpotent")])
    def test_derivation_checked_in_the_monic_field(self, capsys, command, expected):
        code, out, err = _run(capsys, command, "--surface", "f=zeta(11)*x; phi=zeta(11)*z^2 + zeta(11)*zeta(13)",
                              "--derivation", "x -> 0; y -> 2*zeta(7)*zeta(13)*z; z -> zeta(7)*zeta(13)*x")
        assert (code, out, err) == (EXIT_OK, expected, "")

    def test_long_coefficient_without_one_conductor_rejected(self, capsys):
        """The parenthesised sum meets the conductor bound before the product meets the digit bound."""
        expr = f"(zeta(997)*X + zeta(991)*Y)*{10 ** (MAX_DIGITS - 1)}*10"
        code, out, err = _run(capsys, "nf", "--surface", "free: X,Y", "--expr", expr)
        assert code == EXIT_ERROR and not out
        assert "conductor 988027 exceeds MAX_CONDUCTOR" in err and "MAX_DIGITS" not in err

    def test_coefficient_bounded_at_its_own_conductor(self, capsys):
        """A*(2*zeta(7)^5 + zeta(7)^6) has coordinates of size A at conductor 7 but 2*A at 21."""
        expr = f"{6 * 10 ** (MAX_DIGITS - 1)}*(2*zeta(7)^5 + zeta(7)^6)*x + zeta(3)*y"
        code, out, _ = _run(capsys, "nf", "--surface", SURFACE, "--expr", f"({expr})*1")
        assert code == EXIT_OK and out == _run(capsys, "nf", "--surface", SURFACE, "--expr", expr)[1]

    @pytest.mark.parametrize("expr,expected", [
        ("(10^37)^27", "1" + "0" * (MAX_DIGITS - 1)), ("((1/10)^37)^27", "1/1" + "0" * (MAX_DIGITS - 1)),
        ("9" * MAX_DIGITS + "*x*1", "9" * MAX_DIGITS + "*x"),
        (f"(1/{10 ** 400}*x + 1/{3 ** 838}*y + 1/{7 ** 473}*z)*1",
         f"1/{10 ** 400}*x + 1/{3 ** 838}*y + 1/{7 ** 473}*z")],
        ids=["power", "denominator", "product", "common-denominator"])
    def test_coefficient_at_bound_accepted(self, capsys, expr, expected):
        code, out, _ = _run(capsys, "nf", "--surface", SURFACE, "--expr", expr)
        assert code == EXIT_OK and out == expected


class TestParserReuse:
    SEQUENCE = [
        ["nf", "--surface", SURFACE],  # --expr missing: argparse rejects it
        ["nf", "--surface", SURFACE, "--expr", "x^2*y"],
        ["eq", "--surface", SURFACE, "--left", "x", "--right", "y", "--format", "json"],
        ["bound", "--g", "x+1", "--n", "2"],
        ["nf", "--expr", "x"],
        ["plane-example", "--s", "3", "--p", "1", "--seed", "5", "--format", "json"],
    ]

    @staticmethod
    def _outcome(capsys, argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_matches_fresh_parsers(self, capsys):
        """The top-level parser is never built, each subcommand's parser once, and reuse changes nothing."""
        fresh = []
        for argv in self.SEQUENCE:
            cli._subparser.cache_clear()
            fresh.append(self._outcome(capsys, argv))
        cli._parser.cache_clear()
        cli._subparser.cache_clear()
        reused = [self._outcome(capsys, argv) for argv in self.SEQUENCE]
        assert cli._parser.cache_info().misses == 0
        assert cli._subparser.cache_info().misses == len({argv[0] for argv in self.SEQUENCE}) == 4
        assert reused == fresh
        code, out, err = reused[0]
        assert code == EXIT_ERROR and not out and err.startswith("usage: danisurf nf")

    def test_one_valid_call_constructs_one_parser(self):
        """A fresh interpreter's one valid call builds only its subcommand's ArgumentParser."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = ("import argparse, sys; sys.path.insert(0, sys.argv[1]); built = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "def counted(self, *args, **kwargs):\n"
                 "    built.append(kwargs.get('prog')); init(self, *args, **kwargs)\n"
                 "argparse.ArgumentParser.__init__ = counted\n"
                 "from danisurf import cli\n"
                 "code = cli.run(['verify', '--suite', 'xy', '--f', 'x', '--phi', 'z^2', '--hdeg', '1'])\n"
                 "print(code, built, file=sys.stderr)")
        done = subprocess.run([sys.executable, "-E", "-s", "-c", probe, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr.strip() == "0 ['danisurf verify']"


ILL_MAP = "x -> y; y -> y; z -> z"
ILL_D = "x -> 0; y -> 1; z -> 1"
SHEAR = "x -> x; y -> y + 2*z + x; z -> z + x"


class TestDirectDispatch:
    """run() hands the arguments after a subcommand's name to that subcommand's parser; the exit code,
    stdout and stderr are those of the top-level parser for every kind of argv (``dispatch_parity``)."""

    @pytest.mark.parametrize("argv", dispatch_parity.argvs())
    def test_matches_the_top_level_parser(self, argv):
        direct, top_level, top_level_parses = dispatch_parity.outcomes(argv)
        assert top_level_parses == 1  # the second run really parsed with build_arg_parser's tree
        assert direct == top_level

    def test_extras_get_the_top_level_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["nf", "--surface", SURFACE, "--expr", "x", "--bogus"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_ERROR and err.startswith("usage: danisurf [-h]")
        assert err.endswith("danisurf: error: unrecognized arguments: --bogus\n")


class TestDispatchTable:
    """Exit code and stdout of cases where two options meet or a table is ill-defined."""

    CASES = [
        # both tables given: apply uses the derivation
        (["apply", "--surface", SURFACE, "--derivation", CANONICAL_D, "--map", SHEAR,
          "--expr", "y*z"], EXIT_OK, "3*z^2"),
        # an ill-defined map is an input error on commute, a verdict on mwf
        (["commute", "--surface", SURFACE, "--map", ILL_MAP, "--derivation", CANONICAL_D],
         EXIT_ERROR, ""),
        (["mwf", "--surface", SURFACE, "--map", ILL_MAP], EXIT_CHECK_FAILED, "false"),
        (["mwf", "--surface", SURFACE, "--map", ILL_MAP, "--format", "json"],
         EXIT_CHECK_FAILED, '{"well_defined": false}'),
        # an ill-defined derivation is an input error on lnd, a verdict on dwf
        (["lnd", "--surface", SURFACE, "--derivation", ILL_D], EXIT_ERROR, ""),
        (["dwf", "--surface", SURFACE, "--derivation", ILL_D], EXIT_CHECK_FAILED, "false"),
        (["dwf", "--surface", SURFACE, "--derivation", CANONICAL_D, "--format", "json"],
         EXIT_OK, '{"well_defined": true}'),
        # --surface wins over --phi with --n or --f
        (["nf", "--surface", SURFACE, "--n", "2", "--phi", "z^3", "--expr", "x*y"],
         EXIT_OK, "z^2"),
        (["nf", "--surface", SURFACE, "--f", "x^2", "--phi", "z^3", "--expr", "x*y"],
         EXIT_OK, "z^2"),
        # tables read from files
        (["dwf", "--surface", SURFACE, "--derivation", "@{d_file}"], EXIT_OK, "true"),
        (["mwf", "--surface", SURFACE, "--map", "@{m_file}"], EXIT_OK, "true"),
        # verify needs a surface, with or without --suite
        (["verify", "--g", "1"], EXIT_ERROR, ""),
        (["verify", "--suite", "xy", "--g", "1"], EXIT_ERROR, ""),
        (["verify", "--phi", "z^3"], EXIT_ERROR, ""),
        # the commands without a surface keep --format
        (["bound", "--g", "x^2+1", "--n", "2", "--format", "json"], EXIT_OK, '{"bound": 2}'),
        (["classify", "--phi", "(z-1)^2", "--format", "json"], EXIT_OK,
         '{"degree": 2, "power": {"c": "1", "a": "1"}, '
         '"periodic": {"i": 0, "m": 1, "phi0": "z^2 - 2*z + 1"}}'),
        (["classify", "--phi", "z^3"], EXIT_OK,
         "degree: 3\npower form: c = 1, a = 0\nperiodic form: i = 3, m = 0, phi0 = 1"),
    ]

    @pytest.mark.parametrize("argv,code,out", CASES)
    def test_case(self, capsys, tmp_path, argv, code, out):
        d_file, m_file = tmp_path / "d.txt", tmp_path / "m.txt"
        d_file.write_text(CANONICAL_D + "\n", encoding="utf-8")
        m_file.write_text("M: x -> y; y -> x; z -> z\n", encoding="utf-8")
        argv = [a.format(d_file=d_file, m_file=m_file) for a in argv]
        got_code, got_out, err = _run(capsys, *argv)
        assert (got_code, got_out) == (code, out)
        assert bool(err) == (code == EXIT_ERROR)


class TestSessionCache:
    """run() builds each distinct surface and --derivation/--map table once per process."""

    SEQUENCE = [
        ["nf", "--surface", SURFACE, "--expr", "x^2*y"],
        ["apply", "--surface", SURFACE, "--derivation", CANONICAL_D, "--expr", "y*z"],
        ["commute", "--surface", SURFACE, "--map", SHEAR, "--derivation", CANONICAL_D],
        ["lnd", "--surface", SURFACE, "--derivation", ILL_D],
        ["exp", "--surface", SURFACE, "--derivation", CANONICAL_D, "--scale", "x", "--format", "json"],
        ["commute", "--surface", SURFACE, "--map", ILL_MAP, "--derivation", CANONICAL_D],
        ["apply", "--surface", "f=x^2; phi=z^2+1", "--map", "x -> x; y -> y; z -> -z", "--expr", "z*y"],
        ["apply", "--surface", SURFACE, "--map", "x -> x; y -> y; z -> -z", "--expr", "z*y"],  # same text
        ["nf", "--surface", "f=x; phi=z^2 +", "--expr", "x"],
        ["lnd", "--n", "1", "--phi", "z^2", "--derivation", CANONICAL_D],
        ["apply", "--surface", "free: X,Y", "--derivation", "X -> Y; Y -> 0", "--expr", "X^2"],
        ["eq", "--surface", SURFACE, "--left", "x*y", "--right", "z^2"],
        ["apply", "--surface", SURFACE, "--map", SHEAR, "--expr", "y"],
        ["lnd", "--surface", SURFACE, "--derivation", CANONICAL_D, "--format", "json"],
    ]

    @pytest.fixture(autouse=True)
    def _cold(self):
        cli._surface.cache_clear()
        cli._table.cache_clear()

    def test_warm_run_matches_cold_runs(self, capsys):
        cold = []
        for argv in self.SEQUENCE:
            cli._surface.cache_clear()
            cli._table.cache_clear()
            cold.append(TestParserReuse._outcome(capsys, argv))
        cli._surface.cache_clear()
        cli._table.cache_clear()
        warm = [TestParserReuse._outcome(capsys, argv) for argv in self.SEQUENCE]
        assert warm == cold
        assert [code for code, _, _ in warm].count(EXIT_ERROR) == 3
        # (hits, misses, maxsize, currsize): 3 surfaces parse and 1 fails, 5 tables are proved
        # and 2 fail; every other lookup is a hit, the table on the equal --n/--phi surface too
        assert cli._surface.cache_info()[:4] == (9, 4, 64, 3)
        assert cli._table.cache_info()[:4] == (6, 7, 64, 5)

    @pytest.mark.parametrize("argv, cache", [
        (["lnd", "--surface", SURFACE, "--derivation", ILL_D], "_table"),
        (["nf", "--surface", "f=x; phi=z^2 +", "--expr", "x"], "_surface"),
    ], ids=["ill-defined-derivation", "surface-parse-error"])
    def test_bad_input_fails_every_time_and_is_not_kept(self, capsys, argv, cache):
        first = TestParserReuse._outcome(capsys, argv)
        size = getattr(cli, cache).cache_info().currsize
        assert TestParserReuse._outcome(capsys, argv) == first
        assert first[0] == EXIT_ERROR and first[2].startswith("error: ")
        assert getattr(cli, cache).cache_info().currsize == size

    def test_changed_surface_file_gives_new_answer(self, capsys, tmp_path):
        spec = tmp_path / "surface.txt"
        spec.write_text("f=x; phi=z^2\n", encoding="utf-8")
        assert _run(capsys, "nf", "--surface", f"@{spec}", "--expr", "x*y") == (EXIT_OK, "z^2", "")
        spec.write_text("f=x; phi=z^3 + 1\n", encoding="utf-8")
        assert _run(capsys, "nf", "--surface", f"@{spec}", "--expr", "x*y") == (EXIT_OK, "z^3 + 1", "")

    def test_surface_cache_is_bounded(self, capsys):
        for k in range(1, 66):
            assert _run(capsys, "nf", "--surface", f"f=x; phi=z^2 + {k}", "--expr", "x*y")[1] == f"z^2 + {k}"
        assert cli._surface.cache_info().currsize == 64


class TestModuleEntryPoint:
    """``python -m danisurf.cli`` in a fresh interpreter: exit codes reach the shell via main()."""

    @pytest.mark.parametrize("argv, code, out", [
        (["eq", "--surface", SURFACE, "--left", "x*y", "--right", "z^2"], EXIT_OK, "true"),
        (["eq", "--surface", SURFACE, "--left", "x", "--right", "y"], EXIT_CHECK_FAILED, "false"),
        (["nf", "--surface", "f=x; phi=z^2 +", "--expr", "x"], EXIT_ERROR, ""),
        # a free surface has no generator families, and deep nesting is bounded: input errors, not tracebacks
        (["commute", "--surface", "free: X,Y", "--h", "1/2", "--derivation", "X -> 1; Y -> 0"], EXIT_ERROR, ""),
        (["nf", "--surface", SURFACE, "--expr", "(" * 3000 + "x" + ")" * 3000], EXIT_ERROR, ""),
    ])
    def test_exit_codes(self, argv, code, out):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "danisurf.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        assert done.stdout.strip() == out
        assert done.stderr.startswith("error: ") == (code == EXIT_ERROR)

    def test_output_does_not_depend_on_which_names_took_slots_first(self):
        """Each variable name takes the next free key slot on its first use, so a fresh interpreter
        that registers other names first keys the same monomials differently; its output must match
        byte for byte."""
        src = Path(__file__).resolve().parent.parent / "src"
        commands = [
            ["nf", "--surface", "f=2*x^2+1; phi=z^3+z", "--expr", "(x*y+z-1)^6"],
            ["plane-example", "--s", "7", "--p", "zeta(7)"],
            ["verify", "--suite", "xn", "--n", "2", "--phi", "z^3+z+1", "--g", "x", "--hdeg", "2"],
            ["apply", "--surface", "free: X,Y,t,a", "--derivation", "X -> Y; Y -> t; t -> a; a -> 0",
             "--expr", "(X + a*t)^3*Y"],
        ]
        probe = ("import json, sys; sys.path.insert(0, sys.argv[1])\n"
                 "from danisurf.multipoly import _SHIFT, MultiPoly\n"
                 "for name in json.loads(sys.argv[2]): MultiPoly.variable(name)\n"
                 "print(sorted(_SHIFT, key=_SHIFT.get)[3:], file=sys.stderr)\n"
                 "from danisurf import cli\n"
                 "for argv in json.loads(sys.argv[3]): print('exit', cli.run(argv))")
        outs = []
        for first in ([], ["zz", "lam", "a", "Y", "X", "u", "t"]):
            done = subprocess.run([sys.executable, "-E", "-s", "-c", probe, str(src), json.dumps(first),
                                   json.dumps(commands)], capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stderr.decode().strip() == str(first)  # registered first, in this order
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert outs[0].count(b"exit 0") == len(commands)

    def test_import_loads_no_dataclasses_or_inspect(self):
        """Every CLI call pays for the import; the records are NamedTuples, so it skips both."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
                 "import danisurf.cli\n"
                 "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))")
        done = subprocess.run([sys.executable, "-E", "-s", "-c", probe, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""
