import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from padicqm import (
    Amplitude,
    DomainError,
    InputError,
    OscillatorBoundaryData,
    OutputLimitError,
    Place,
    gauss_full,
    k_oscillator_td_real,
    quad_char_integral_ball,
    stabilization_threshold,
    valuation,
)
from padicqm import cli, gauss
from padicqm.cli import main

import argv_corpus
import kernel_oracle
from closed_forms import k_constant_field, k_desitter, k_free


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_free_particle_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["kernel", "--system", "free", "--place", "3", "--T", "1",
             "--q0", "0", "--q1", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["modulus_sq"] == "1"
        assert row["phase"] == "0"
        assert abs(row["re"] - 1.0) < 1e-12

    def test_const_field_at_zero_equals_free(self, capsys):
        code, out_const, _ = run_cli(
            capsys,
            ["kernel", "--system", "const-field", "--a", "0", "--place", "inf",
             "--T", "1,2", "--q0", "0", "--q1", "1"],
        )
        assert code == 0
        code, out_free, _ = run_cli(
            capsys,
            ["kernel", "--system", "free", "--place", "inf",
             "--T", "1,2", "--q0", "0", "--q1", "1"],
        )
        assert code == 0
        rows_c = json.loads(out_const)["rows"]
        rows_f = json.loads(out_free)["rows"]
        for rc, rf in zip(rows_c, rows_f):
            assert rc["modulus_sq"] == rf["modulus_sq"]
            assert rc["phase"] == rf["phase"]

    def test_malformed_rational_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--system", "free", "--place", "3", "--T", "1/0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["3.0", "x", "real", "oo"])
    def test_place_that_is_not_a_place_exits_2(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--system", "free", "--place", text])
        assert exc.value.code == 2
        assert f"bad place {text!r}: not a place: {text!r}" in capsys.readouterr().err

    def test_degenerate_interval_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["kernel", "--system", "free", "--place", "3", "--T", "0"],
        )
        assert code == 2
        assert "error" in err

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["kernel", "--system", "desitter", "--lam", "1", "--place", "3,5",
             "--T", "1", "--q0", "0", "--q1", "1", "--format", "csv"],
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("place,system,")
        for column in ("modulus_sq", "phase", "re", "im"):
            assert column in header
        assert len(out.splitlines()) == 3

    def test_oscillator_padic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["kernel", "--system", "osc", "--place", "3",
             "--x0", "1", "--x1", "2", "--gamma0", "0", "--gamma1", "3",
             "--dgamma0", "1", "--dgamma1", "1", "--s0", "1", "--s1", "1",
             "--ds0", "0", "--ds1", "0", "--precision", "20"],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["sqrt_branch"] == "canonical"
        assert row["modulus_sq"] == "3"

    def test_oscillator_real_is_float_only(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["kernel", "--system", "osc", "--place", "inf",
             "--x0", "1/2", "--x1", "1/3", "--gamma0", "1/10", "--gamma1", "7/10",
             "--dgamma0", "2", "--dgamma1", "2", "--s0", "1", "--s1", "2",
             "--ds0", "1/5", "--ds1", "1/7"],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["modulus_sq"] == ""
        assert isinstance(row["re"], float)

    def test_oscillator_missing_params(self, capsys):
        code, _, err = run_cli(
            capsys, ["kernel", "--system", "osc", "--place", "3", "--x0", "1"]
        )
        assert code == 2
        assert err == ("error: oscillator system needs --x0 --x1 --gamma0 --gamma1 --dgamma0"
                       " --dgamma1 --s0 --s1 --ds0 --ds1\n")

    OSC_DATA = ["--x0", "1", "--x1", "2", "--gamma0", "0", "--gamma1", "105", "--dgamma0", "1",
                "--dgamma1", "1", "--s0", "1", "--s1", "1", "--ds0", "0", "--ds1", "0"]

    @pytest.mark.parametrize("route", ["table", "argparse"])
    @pytest.mark.parametrize("options, unread", [
        (["free", "--x0", "1", "--precision", "5", "--lam", "7"], "--x0, --precision, --lam"),
        (["free", "--a", "0"], "--a"),
        (["const-field", "--a=1", "--lam", "0", "--lam", "1"], "--lam"),
        # before any work: T = 0 alone would exit 2 on a degenerate interval
        (["desitter", "--lam=1", "--a", "1", "--T=0", "--precision", "20"], "--a, --precision"),
        (["osc", *OSC_DATA, "--T", "1", "--q0=0", "--q1", "1"], "--T, --q0, --q1"),
    ], ids=["free", "free-a", "const-field", "desitter", "osc"])
    def test_an_option_the_system_does_not_read_exits_2(self, capsys, options, unread, route):
        # a misplaced coefficient or a mistyped system would answer another question
        argv = ["kernel", "--place", "3", "--system", *options]
        if route == "argparse":
            argv.append("--form=json")  # an abbreviation, which only argparse reads
        assert (cli._parse_plain(argv) is None) == (route == "argparse")
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: --system {options[0]} does not read {unread}\n"

    def test_an_abbreviated_option_is_named_in_full(self, capsys):
        code, _, err = run_cli(capsys, ["kernel", "--system", "osc", "--place", "3",
                                        *self.OSC_DATA, "--l=1"])
        assert (code, err) == (2, "error: --system osc does not read --lam\n")
        code, _, err = run_cli(capsys, ["kernel", "--system", "free", "--place", "3",
                                        "--la", "-7", "--prec=20"])
        assert (code, err) == (2, "error: --system free does not read --lam, --precision\n")

    @pytest.mark.parametrize("place", ["inf", "3"])
    def test_oscillator_vanishing_dgamma_exits_2(self, capsys, place):
        # the mixed partial vanishes: a degenerate form at every place, never a value
        code, out, err = run_cli(
            capsys,
            ["kernel", "--system", "osc", "--place", place,
             "--x0", "1", "--x1", "2", "--gamma0", "0", "--gamma1", "3/10",
             "--dgamma0", "0", "--dgamma1", "1", "--s0", "1", "--s1", "1",
             "--ds0", "0", "--ds1", "0"],
        )
        assert (code, out) == (2, "")
        assert "mixed partial" in err

    @pytest.mark.parametrize("flags", [
        ["--gamma1", "1e400"],
        ["--dgamma0", "1e400"],
        ["--x0", "1e200"],
        # |K| ~ 1.09e-200 is a normal float, but dgamma1*dgamma0 = 1e-800 reads as 0.0
        ["--dgamma0", "1e-400", "--dgamma1", "1e-400", "--gamma1", "1"],
        # delta != 0 reads as 0.0, whose sine vanishes
        ["--gamma1", "1e-400"],
        # every rational is in range, but root / sin(delta) = 1e450 is not
        ["--gamma1", "1e-300", "--dgamma0", "1e150", "--dgamma1", "1e150"],
        ["--gamma1", "1e-300", "--dgamma0", "1e150", "--dgamma1", "1e150", "--x0", "0",
         "--x1", "0"],
    ], ids=lambda flags: " ".join(flags))
    def test_real_oscillator_outside_the_float_range_exits_2(self, capsys, flags):
        argv = ["kernel", "--system", "osc", "--place", "inf", "--x0", "1", "--x1", "2",
                "--gamma0", "0", "--gamma1", "105", "--dgamma0", "1", "--dgamma1", "1",
                "--s0", "1", "--s1", "1", "--ds0", "0", "--ds1", "0", *flags]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "float range" in err
        # the same data raise DomainError in the library, not a float error
        values = dict(zip(argv[5::2], argv[6::2]))  # a later flag wins, as in argparse
        data = OscillatorBoundaryData(**{k[2:]: F(v) for k, v in values.items()})
        with pytest.raises(DomainError):
            k_oscillator_td_real(data)

    @pytest.mark.parametrize("flags", [
        ["--ds0", str(2**61)],
        ["--ds0", str(2**81)],
        # the rational chi part is the integer 5 * 10^399, out of float range
        ["--s0", "1e-400", "--ds0", "1"],
    ], ids=lambda flags: " ".join(flags))
    def test_real_oscillator_ignores_an_integer_rational_part(self, capsys, flags):
        # chi has period 1: a rational chi part (1/2) ds0 x0^2 / s0 that is an
        # integer leaves the row as it is at ds0 = 0
        argv = ["kernel", "--system", "osc", "--place", "inf", "--x0", "1", "--x1", "2",
                "--gamma0", "0", "--gamma1", "7/10", "--dgamma0", "1", "--dgamma1", "1",
                "--s0", "1", "--s1", "1", "--ds0", "0", "--ds1", "0"]
        code, want, _ = run_cli(capsys, argv)
        assert run_cli(capsys, argv + flags) == (code, want, "") and code == 0

    @pytest.mark.parametrize("precision, code", [(10_000, 0), (10_001, 3)])
    def test_oscillator_precision_limit(self, capsys, monkeypatch, precision, code):
        # the limit is checked before any series runs: the kernel is stubbed
        calls = []

        def stub_kernel(place, data, P):
            calls.append(P)
            return Amplitude.one()

        monkeypatch.setattr(cli, "k_oscillator_td", stub_kernel)
        got, _, err = run_cli(
            capsys,
            ["kernel", "--system", "osc", "--place", "3",
             "--x0", "1", "--x1", "2", "--gamma0", "0", "--gamma1", "3",
             "--dgamma0", "1", "--dgamma1", "1", "--s0", "1", "--s1", "1",
             "--ds0", "0", "--ds1", "0", "--precision", str(precision)],
        )
        assert got == code
        if code == 3:
            assert calls == [] and err.startswith("resource limit")
        else:
            assert calls == [precision]

    OSC_105 = ["kernel", "--system", "osc", "--place", "3,5,7", *OSC_DATA]

    def test_oscillator_below_the_least_precision_names_it(self, capsys):
        code, out, err = run_cli(capsys, self.OSC_105 + ["--precision", "1"])
        assert (code, out) == (2, "")
        assert err == "error: precision 1 does not pin the oscillator kernel at p = 3: it needs 2\n"

    def test_oscillator_rows_are_the_same_from_the_least_precision_on(self, capsys):
        # --precision is the most digits the kernel may use: from P* = 2 on
        # every precision up to the cap writes the same rows
        outputs = {run_cli(capsys, self.OSC_105 + ["--precision", str(P)])
                   for P in (2, 20, 1000, 10_000)}
        assert len(outputs) == 1 and next(iter(outputs))[0] == 0


def _random_grid(rng, system, fmt):
    """A kernel command line over a seed-drawn grid at inf, 2, 3, 5, 7."""
    def rational():
        unit = F(rng.randint(1, 24) * rng.choice((-1, 1)), rng.randint(1, 24))
        return unit * F(rng.choice((2, 3, 5, 7))) ** rng.randint(-3, 3)

    def axis(n):
        return ",".join(str(rational()) for _ in range(n))

    argv = ["kernel", "--system", system, "--place", "inf,2,3,5,7",
            f"--T={axis(2)}", f"--q0={axis(3)}", f"--q1={axis(3)}", "--format", fmt]
    field = cli.KERNEL_FORMS[system][0]
    return argv + [f"--{field}={rational()}"] if field else argv


#: system -> hand-written kernel of (place, coefficient, T, q0, q1)
CLOSED_FORMS = {
    "free": lambda place, coeff, T, q0, q1: k_free(place, T, q0, q1),
    "const-field": k_constant_field,
    "desitter": k_desitter,
}


def _writable(n):
    try:
        str(n)
    except ValueError:
        return False
    return True


def _largest_writable_power(p):
    """The largest k for which str(p**k) stays within the int-to-string limit."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter writes integers of any length")
    k = int(limit / math.log10(p))
    while not _writable(p**k):
        k -= 1
    while _writable(p ** (k + 1)):
        k += 1
    return k


class TestKernelGrid:
    """The block writer against the per-row oracle, byte for byte."""

    def assert_as_oracle(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        try:
            want = kernel_oracle.output(argv)
        except OutputLimitError:
            assert (code, out) == (3, "") and err.startswith("resource limit: ")
            return None
        assert (code, out) == (0, want)
        return out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("system", sorted(CLOSED_FORMS))
    def test_random_grids(self, capsys, system, fmt):
        rng = random.Random(f"kernel-grid:{system}:{fmt}")
        for _ in range(4):
            assert self.assert_as_oracle(capsys, _random_grid(rng, system, fmt)) is not None

    @pytest.mark.parametrize("system", sorted(CLOSED_FORMS))
    def test_values_match_closed_forms(self, capsys, system):
        argv = _random_grid(random.Random(f"closed:{system}"), system, "json")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        field = cli.KERNEL_FORMS[system][0]
        coeff = F(argv[-1].split("=")[1]) if field else F(0)
        rows = json.loads(out)["rows"]
        assert len(rows) == 5 * 2 * 3 * 3
        for row in rows:
            want = CLOSED_FORMS[system](Place.parse(row["place"]), coeff, F(row["T"]),
                                        F(row["q0"]), F(row["q1"]))
            assert (row["modulus_sq"], row["phase"]) == (str(want.modulus_sq),
                                                         str(want.phase.value))
            re, im = want.render()
            assert (row["re"], row["im"]) == (re, im)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_power_modulus_and_null_rendering(self, capsys, fmt):
        # at p = 2 the de Sitter kernel's |.|^2 is |1/(4T)|_2 = 2^(k+2), one
        # power of 2 past what str() can write when T = 2^k is the largest
        # writable power; its root 2^((k+2)/2) is beyond the float range
        k = _largest_writable_power(2)
        assert not _writable(2 ** (k + 2))
        argv = ["kernel", "--system", "desitter", "--lam=1/3", "--place", "2,3",
                f"--T={2**k}", "--q0=0", f"--q1=0,{2 ** ((k + 5) // 2)}", "--format", fmt]
        out = self.assert_as_oracle(capsys, argv)
        if fmt == "json":
            rows = json.loads(out)["rows"]
            assert [row["modulus_sq"] for row in rows] == [f"2^{k + 2}"] * 2 + ["1"] * 2
            assert [row["re"] is None for row in rows] == [True, True, False, False]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_null_rendering(self, capsys, fmt):
        # |.|^2 = 3^1300 at 3 and 3^-1300 at inf: r is beyond the float range
        argv = ["kernel", "--system", "free", "--place", "inf,3,5", f"--T={3**1300}",
                "--q0=0,1/2", "--q1=1", "--format", fmt]
        out = self.assert_as_oracle(capsys, argv)
        if fmt == "json":
            rows = json.loads(out)["rows"]
            assert [row["re"] is None for row in rows] == [True, True, True, True, False, False]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("grid", [["--q0="], ["--q1="], ["--T=1,2", "--q0=", "--q1="]])
    def test_empty_grid(self, capsys, fmt, grid):
        argv = ["kernel", "--system", "const-field", "--a=1/2", "--place", "inf,3", *grid,
                "--format", fmt]
        out = self.assert_as_oracle(capsys, argv)
        if fmt == "json":
            assert json.loads(out)["rows"] == []
        else:
            assert out == ",".join(cli.CSV_COLUMNS) + "\r\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zero_T_without_places_exits_2(self, capsys, fmt):
        # each T's form is built once, before the places: T = 0 is refused
        # whether or not a place is given
        code, out, err = run_cli(capsys, ["kernel", "--system", "free", "--place", ",",
                                          "--T=0", "--format", fmt])
        assert (code, out, err) == (2, "", "error: zero time interval\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_phase_repeated_across_blocks(self, capsys, fmt):
        # phase 0 in both (3, T) blocks, under squared moduli 1 and 9: a row
        # tail kept for a phase must not outlive its block
        argv = ["kernel", "--system", "free", "--place", "3", "--T=1,9", "--q0=0", "--q1=0",
                "--format", fmt]
        out = self.assert_as_oracle(capsys, argv)
        rows = (json.loads(out)["rows"] if fmt == "json"
                else list(csv.DictReader(io.StringIO(out))))
        assert [(row["modulus_sq"], row["phase"]) for row in rows] == [("1", "0"), ("9", "0")]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_phase_too_long_exits_3(self, capsys, fmt):
        if not sys.get_int_max_str_digits():
            pytest.skip("this interpreter writes integers of any length")
        # the phase denominator has about three times the digits of T
        argv = ["kernel", "--system", "desitter", "--lam", "1", "--place", "3,inf",
                f"--T=1/{7**1800}", "--q0", "1", "--q1", "1", "--format", fmt]
        assert self.assert_as_oracle(capsys, argv) is None


class TestGaussCommand:
    def test_real_fresnel_row(self, capsys):
        code, out, _ = run_cli(capsys, ["gauss", "--place", "inf", "--a", "1"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["modulus_sq"] == "1/2"
        assert row["phase"] == "7/8"

    def test_degenerate_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["gauss", "--place", "3", "--a", "0"])
        assert code == 2

    def test_modulus_beyond_float_range(self, capsys):
        # |.|^2 = 3^800 overflows a float; its square root 3^400 does not
        a = 3**800
        want = gauss_full(Place.prime(3), a, 0)
        code, out, _ = run_cli(capsys, ["gauss", "--place", "3", "--a", str(a)])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert (row["modulus_sq"], row["phase"]) == (str(want.modulus_sq), str(want.phase))
        assert math.isclose(math.hypot(row["re"], row["im"]), 3.0**400, rel_tol=1e-12)

    def test_rendering_beyond_float_range_is_null(self, capsys):
        # the modulus 3^700 itself exceeds the float range
        a = 3**1400
        want = gauss_full(Place.prime(3), a, 0)
        code, out, _ = run_cli(capsys, ["gauss", "--place", "3", "--a", str(a)])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert (row["modulus_sq"], row["phase"]) == (str(want.modulus_sq), str(want.phase))
        assert row["re"] is None and row["im"] is None
        code, out, _ = run_cli(
            capsys, ["gauss", "--place", "3", "--a", str(a), "--format", "csv"]
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["modulus_sq"] == str(want.modulus_sq)
        assert row["re"] == "" and row["im"] == ""

    def test_csv_carries_b(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["gauss", "--place", "5", "--a", "2", "--b", "3/7", "--format", "csv"],
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["a"], row["b"]) == ("2", "3/7")

    def test_undecided_primality_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gauss", "--place", "3317044064679887385961981", "--a", "1"])
        assert exc.value.code == 2


class TestBallIntegralCommand:
    def test_examples(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "1", "--N", "0"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["modulus_sq"] == "1"

        code, out, _ = run_cli(
            capsys,
            ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "1/9", "--N", "0"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["modulus_sq"] == "0"

    def test_stabilized_matches_gauss(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ball-integral", "--p", "3", "--alpha", "1", "--beta", "0", "--N", "2"],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        code, out, _ = run_cli(capsys, ["gauss", "--place", "3", "--a", "1"])
        full = json.loads(out)["rows"][0]
        assert (row["modulus_sq"], row["phase"]) == (full["modulus_sq"], full["phase"])

    def test_exact_value_beyond_the_coset_cap(self, capsys):
        # the closed form enumerates no coset: 7^20 cosets would exceed the
        # Haar oracle's cap, the exact value is immediate
        code, out, _ = run_cli(
            capsys, ["ball-integral", "--p", "7", "--alpha", "1", "--beta", "0", "--N", "10"]
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        want = quad_char_integral_ball(7, 1, 0, 10)
        assert (row["modulus_sq"], row["phase"]) == (str(want.modulus_sq), str(want.phase.value))
        assert (row["modulus_sq"], row["phase"]) == ("1", "0")

    def test_output_independent_of_coset_cap(self, capsys, monkeypatch):
        # 3^10 cosets at the minimal constant resolution; the cap is the Haar oracle's only
        argv = ["ball-integral", "--p", "3", "--alpha", "1/81", "--beta", "0", "--N", "3"]
        want = run_cli(capsys, argv)
        assert want[0] == 0
        for cap in (1, 10, 10**30):
            monkeypatch.setattr(gauss, "COSET_CAP", cap)
            assert run_cli(capsys, argv) == want

    @pytest.mark.parametrize("N, code", [(10_000, 0), (-10_000, 0), (10_001, 3), (-10_001, 3)])
    def test_radius_limit(self, capsys, monkeypatch, N, code):
        # the limit is checked before any work; within it the integral runs
        calls = []

        def spy(*args):
            calls.append(args)
            return quad_char_integral_ball(*args)

        monkeypatch.setattr(cli, "quad_char_integral_ball", spy)
        got, out, err = run_cli(
            capsys,
            ["ball-integral", "--p", "3", "--alpha", "1", "--beta", "1", f"--N={N}"],
        )
        assert got == code
        if code == 3:
            assert calls == [] and out == "" and err.startswith("resource limit")
        else:
            assert calls == [(3, F(1), F(1), N)]
            assert json.loads(out)["rows"][0]["N"] == N


    def test_large_norm_written_as_power(self, capsys):
        # 3^-20000 has 9,543 digits, beyond str() of an int
        code, out, _ = run_cli(
            capsys, ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", "--N=-10000"]
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["modulus_sq"] == "3^-20000"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_power_form_edges(self, capsys, sign):
        # the value at alpha = beta = 0 is 3^(2N): the largest |N| whose
        # power str() can write keeps the fraction, the next one is 3^k
        def writable(k):
            try:
                str(3**k)
            except ValueError:
                return False
            return True

        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter writes integers of any length")
        n = int(limit / (2 * math.log10(3))) - 3
        assert writable(2 * n)
        while writable(2 * n + 2):
            n += 1
        for N, want in ((n, str(F(3) ** (2 * sign * n))),
                        (n + 1, f"3^{2 * sign * (n + 1)}")):
            code, out, _ = run_cli(
                capsys,
                ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", f"--N={sign * N}"],
            )
            assert code == 0
            assert json.loads(out)["rows"][0]["modulus_sq"] == want

    def test_modulus_below_float_range_renders_from_logarithms(self, capsys):
        # |.|^2 = 3^-800 underflows a float; its square root 3^-400 does not
        code, out, _ = run_cli(
            capsys, ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", "--N=-400"]
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["modulus_sq"] == str(F(3) ** -800)
        assert math.isclose(math.hypot(row["re"], row["im"]), 3.0**-400, rel_tol=1e-12)

    def test_modulus_below_float_range_is_null(self, capsys):
        # the modulus 3^-1000 itself is below the float range
        for fmt, null in (("json", None), ("csv", "")):
            code, out, _ = run_cli(
                capsys,
                ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", "--N=-1000",
                 "--format", fmt],
            )
            assert code == 0
            if fmt == "json":
                row = json.loads(out)["rows"][0]
            else:
                row = next(csv.DictReader(io.StringIO(out)))
            assert row["modulus_sq"] == str(F(3) ** -2000)
            assert row["re"] == row["im"] == null


class TestOutputLimit:
    @pytest.mark.parametrize("argv", [
        # the phase denominator has about three times the digits of T
        ["kernel", "--system", "desitter", "--lam", "1", "--place", "inf",
         f"--T=1/{7**1800}", "--q0", "1", "--q1", "1"],
        # a short input whose exact value is too long to write back
        ["kernel", "--system", "free", "--place", "3", "--q1=1e5000"],
        ["gauss", "--place", "3", "--a=1e5000"],
    ])
    def test_field_beyond_int_string_limit_exits_3(self, capsys, argv):
        if not sys.get_int_max_str_digits():
            pytest.skip("this interpreter writes integers of any length")
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_RESOURCE == 3
        assert out == ""
        assert err.startswith("resource limit: ")

    def test_real_modulus_too_long_to_write_exits_3(self, capsys):
        # a = 5 * 10^(limit - 1) is writable, but the real-place modulus
        # 1/(2a) = 10^-limit is not, and no place p writes it as p^k
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter writes integers of any length")
        code, out, err = run_cli(capsys, ["gauss", "--place", "inf", "--a=5" + "0" * (limit - 1)])
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: an exact field is too long to write: "
                              f"Exceeds the limit ({limit} digits) for integer string conversion")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, work", [
        # at alpha = 10^-1000000 the Gauss sum modulus would be 5^1000000
        (["ball-integral", "--p", "5", "--alpha=1e-1000000", "--beta", "0", "--N", "0"],
         "quad_char_integral_ball"),
        (["ball-integral", "--p", "5", "--alpha", "1", "--beta=1e-1000000", "--N", "0"],
         "quad_char_integral_ball"),
        (["gauss", "--place", "5", "--a=1e-1000000"], "gauss_full"),
        (["kernel", "--system", "free", "--place", "5", "--T=1e-1000000"], "SymbolicKernel"),
        (["kernel", "--system", "osc", "--place", "5", "--x0=1e-1000000", "--x1", "1",
          "--gamma0", "0", "--gamma1", "5", "--dgamma0", "1", "--dgamma1", "1",
          "--s0", "1", "--s1", "1", "--ds0", "0", "--ds1", "0", "--precision", "20"],
         "k_oscillator_td"),
    ])
    def test_input_too_long_to_write_exits_3_before_any_work(self, capsys, monkeypatch,
                                                              argv, work):
        if not sys.get_int_max_str_digits():
            pytest.skip("this interpreter writes integers of any length")
        calls = []

        def spy(*args):
            calls.append(work)

        spy.from_form = spy
        monkeypatch.setattr(cli, work, spy)
        code, out, err = run_cli(capsys, argv)
        assert (code, out, calls) == (3, "", [])
        assert err.startswith("resource limit: ")

    def test_ball_phase_too_long_exits_3_before_any_work(self, capsys, monkeypatch):
        # a 25-digit prime: with beta = 1/p^175 (4,292 digits)
        # the phase denominator is a multiple of p^350, and N = 10000 is past
        # the stabilization threshold 175; with beta = 1 the phase is 0
        if not sys.get_int_max_str_digits():
            pytest.skip("this interpreter writes integers of any length")
        p = 3317044064679887385961813
        calls = []

        def spy(*args):
            calls.append(args)
            return quad_char_integral_ball(*args)

        monkeypatch.setattr(cli, "quad_char_integral_ball", spy)
        argv = ["ball-integral", "--p", str(p), "--alpha", "1", f"--beta=1/{p**175}",
                "--N", "10000"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, calls) == (3, "", [])
        assert err.startswith(f"resource limit: the phase denominator is a multiple of {p}^350")
        code, out, _ = run_cli(capsys, [*argv[:5], "--beta", "1", "--N", "10000"])
        row = json.loads(out)["rows"][0]
        assert (code, row["modulus_sq"], row["phase"]) == (0, "1", "0")
        assert calls == [(p, F(1), F(1), 10_000)]

    def test_ball_phase_with_lambda_factor_exits_3_before_any_work(self, capsys, monkeypatch):
        # alpha = 11 has odd valuation and 11 = 3 mod 4, so lambda_11(alpha) is
        # +-i: with beta = 1/11^2064 the phase denominator is 4 * 11^4129, 4,301
        # digits, while 11^4129 alone has 4,300
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        calls = []
        monkeypatch.setattr(cli, "quad_char_integral_ball", lambda *args: calls.append(args))
        argv = ["ball-integral", "--p", "11", "--alpha", "11", f"--beta=1/{11**2064}",
                "--N", "10000"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, calls) == (3, "", [])
        assert err.startswith("resource limit: the phase denominator is a multiple of 11^4129")

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_ball_phase_bound_fires_only_on_phases_too_long(self, monkeypatch, p):
        # around v(beta) = -limit/(2 log10 p): from N = the stabilization
        # threshold on, the bound fires exactly when the exact phase
        # denominator has more digits than the limit, lambda's factor of
        # 2 or 4 included; below the threshold it never fires
        limits = range(640, 661)
        centre = math.ceil(650 / (2 * math.log10(p)))
        # alpha = p and 2p have odd valuation, where lambda_p(alpha) has
        # denominator 4 at p = 3 mod 4, and 2 at p = 5 for the non-residue 2
        alphas = (F(3), F(2), F(6)) if p == 2 else (F(2), F(p), F(2 * p))
        fired = decided_by_lambda = 0
        for alpha in alphas:
            for k in range(centre - 6, centre + 7):
                beta = F(1, p**k)
                n0 = stabilization_threshold(p, alpha, beta)
                for N in (n0 - 1, n0, n0 + 2):
                    d = quad_char_integral_ball(p, alpha, beta, N).phase.value.denominator
                    for limit in limits:
                        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
                        try:
                            cli._check_ball_phase(p, alpha, beta, N)
                        except OutputLimitError:
                            fired += 1
                            assert N >= n0 and d >= 10**limit
                        else:
                            assert N < n0 or d < 10**limit
                            continue
                        e = valuation(4 * alpha, p) - 2 * valuation(beta, p)
                        decided_by_lambda += p**e < 10**limit
        assert fired >= 2
        if p != 2:
            assert decided_by_lambda >= 1


OSC_ARGS = ["--x0", "1/2", "--x1", "1/3", "--gamma0", "0", "--gamma1", "105",
            "--dgamma0", "1", "--dgamma1", "1", "--s0", "1", "--s1", "2",
            "--ds0", "1/5", "--ds1", "1/7"]


class TestJsonWriter:
    """The row writer against the per-row oracle's ``json.dumps`` and ``csv.writer``."""

    @pytest.mark.parametrize("argv", [
        ["kernel", "--system", "free", "--place", "inf,2,3,5,7",
         "--T=1,-3/4,1/9", "--q0=-3/2,0,5/7", "--q1=1,2/9,-1/4"],
        ["kernel", "--system", "const-field", "--a=-2/3", "--place", "inf,2,3,5,7",
         "--T=2,5/2", "--q0=0,1/3", "--q1=-1,7"],
        ["kernel", "--system", "desitter", "--lam=3/5", "--place", "inf,2,3,5,7",
         "--T=1,-1/5", "--q0=1/2", "--q1=0,-9/4"],
        ["kernel", "--system", "osc", "--place", "inf,3,5,7", *OSC_ARGS],
        ["gauss", "--place", "5", "--a=-3/4", "--b=5/7"],
        ["gauss", "--place", "3", f"--a={3**1400}"],
        ["ball-integral", "--p", "3", "--alpha", "1/9", "--beta", "2", "--N=1"],
        ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", "--N=-10000"],
        ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", "--N=-1000"],
        ["kernel", "--system", "free", "--place", "inf", "--q0="],
    ], ids=["free", "const-field", "desitter", "osc", "gauss", "gauss-null",
            "ball", "ball-power", "ball-null", "empty-grid"])
    def test_bytes_equal_json_dumps(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == json.dumps(kernel_oracle.payload(argv), indent=2, default=str) + "\n"

    @pytest.mark.parametrize("argv", [
        ["kernel", "--system", "osc", "--place", "inf,3,5,7", *OSC_ARGS, "--format", "csv"],
        ["kernel", "--system", "osc", "--place=", *OSC_ARGS, "--format", "csv"],
        ["kernel", "--system", "osc", "--place=", *OSC_ARGS],
    ], ids=["osc-csv", "osc-empty-csv", "osc-empty"])
    def test_oscillator_bytes_equal_oracle(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and out == kernel_oracle.output(argv)

    @pytest.mark.parametrize("argv", [
        ["gauss", "--place", "5", "--a=-3/4", "--b=5/7"],
        ["gauss", "--place", "inf", "--a", "1"],
        ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", "--N=-10000"],
        ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0", "--N=-1000"],
        ["kernel", "--system", "osc", "--place", "inf", *OSC_ARGS],
    ], ids=["gauss", "gauss-inf", "ball-power", "ball-null", "osc-real"])
    def test_csv_bytes_equal_oracle(self, capsys, argv):
        argv = [*argv, "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and out == kernel_oracle.output(argv)

    def test_row_types_covered(self):
        ball = kernel_oracle.payload(["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0",
                                      "--N=-1000"])
        osc = kernel_oracle.payload(["kernel", "--system", "osc", "--place", "inf,3", *OSC_ARGS])
        empty = kernel_oracle.payload(["kernel", "--system", "free", "--place", "inf", "--q0="])
        assert osc["rows"][0]["modulus_sq"] == "" and isinstance(osc["rows"][0]["re"], float)
        assert ball["rows"][0]["N"] == -1000 and ball["rows"][0]["re"] is None
        assert empty["rows"] == []


class TestRepeatedMain:
    def test_in_process_calls_match_fresh_processes(self, capsys):
        argvs = [
            ["kernel", "--system", "const-field", "--a=1/2", "--place", "inf,3",
             "--T=1,2", "--q0=0,1/3", "--q1=1", "--format", "csv"],
            ["gauss", "--place", "7", "--a=5", "--b=1/7"],
            ["kernel", "--system", "desitter", "--lam=2", "--place", "2,5", "--q1=1,3/4"],
            ["ball-integral", "--p", "2", "--alpha", "1/4", "--beta", "1", "--N=2"],
        ]
        src = str(Path(cli.__file__).resolve().parent.parent)
        fresh = [
            subprocess.run([sys.executable, "-m", "padicqm.cli", *argv], capture_output=True,
                           check=True, env=dict(os.environ, PYTHONPATH=src)).stdout.decode()
            for argv in argvs
        ]
        for _ in range(2):
            for argv, want in zip(argvs, fresh):
                code, out, _ = run_cli(capsys, argv)
                assert (code, out) == (0, want)


class TestClosedStdout:
    def test_closed_pipe_exits_quietly(self):
        # the read end is closed before the interpreter has started, so the
        # first write of the command meets a closed pipe
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "padicqm.cli", "kernel", "--system", "free",
             "--place", "inf,2", "--T=1,2", "--q0=1", "--q1=1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""


class TestVerifyCommand:
    def test_lambda_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--check", "lambda", "--trials", "50", "--seed", "7"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["failures"] == []

    def test_composition_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--check", "composition", "--trials", "2", "--seed", "1",
             "--place", "3,inf"],
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_gauss_with_place_restriction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--check", "gauss", "--trials", "4", "--seed", "2",
             "--place", "3"],
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_determinism(self, capsys):
        argv = ["verify", "--check", "semigroup", "--trials", "5", "--seed", "9"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_place_filter_leaving_no_place_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--check", "gauss", "--place", "inf"]
        )
        assert code == 2
        assert out == ""
        assert "place" in err

    def test_zero_trials_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--check", "lambda", "--trials", "0"]
        )
        assert code == 2
        assert out == ""
        assert "trials" in err

    @pytest.mark.parametrize("trials, code", [(100_000, 0), (100_001, 3)])
    def test_trials_limit(self, capsys, monkeypatch, trials, code):
        # the limit is checked before any work: the check is stubbed
        calls = []

        def stub_check(seed=0, trials=None, **kwargs):
            calls.append(trials)
            return []

        monkeypatch.setitem(cli.CHECKS, "lambda", stub_check)
        got, out, err = run_cli(
            capsys, ["verify", "--check", "lambda", "--trials", str(trials)]
        )
        assert got == code
        if code == 3:
            assert calls == [] and out == "" and err.startswith("resource limit")
        else:
            assert calls == [trials]

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "bogus"])
        assert exc.value.code == 2

    def test_failures_reported_with_witness_and_exit_1(self, capsys, monkeypatch):
        import padicqm.cli as cli_mod

        def failing_check(seed=0, **kwargs):
            return [{"check": "stub", "witness": "3/4"}]

        monkeypatch.setitem(cli_mod.CHECKS, "lambda", failing_check)
        code, out, _ = run_cli(capsys, ["verify", "--check", "lambda", "--seed", "1"])
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert payload["failures"][0]["witness"] == "3/4"


class TestInternalError:
    # a library error is typed where it is raised: a bare ValueError or
    # ZeroDivisionError reaching main is a bug, not a usage error
    @pytest.mark.parametrize("error", [RuntimeError, ValueError, ZeroDivisionError])
    def test_unexpected_exception_exits_4_without_traceback(self, capsys, monkeypatch, error):
        def broken_command(args):
            raise error("stub failure")

        monkeypatch.setattr(cli, "_cmd_gauss", broken_command)
        code, out, err = run_cli(capsys, ["gauss", "--place", "3", "--a", "1"])
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == f"internal error: {error.__name__}: stub failure\n"

    def test_input_error_exits_2(self, capsys, monkeypatch):
        def rejecting_command(args):
            raise InputError("stub input")

        monkeypatch.setattr(cli, "_cmd_gauss", rejecting_command)
        code, out, err = run_cli(capsys, ["gauss", "--place", "3", "--a", "1"])
        assert (code, out, err) == (cli.EXIT_USAGE, "", "error: stub input\n")


class TestFuzz:
    def test_seeded_argvs_exit_0_to_3_with_a_typed_message(self, capsys):
        # 300 argvs over every command, edge values included, in well under a second
        rng = random.Random(1)
        codes = set()
        for _ in range(300):
            argv = argv_corpus.random_argv(rng)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            codes.add(code)
            assert code in (0, 2, 3), (argv, err)
            if err.startswith("usage: "):
                assert code == 2, argv
            else:
                assert err == "" or (err.startswith(("error: ", "resource limit: "))
                                     and err.count("\n") == 1), (argv, err)
        assert {0, 2} <= codes
