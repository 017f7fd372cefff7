"""The CLI's table parse against argparse, both read from one grammar table.

``cli._parse_plain`` reads a well-formed argv straight from ``cli.COMMANDS``,
the table that ``build_parser()`` hands to argparse, and leaves every other
argv to argparse.  For each argv here it must give either nothing or
argparse's namespace, and nothing wherever argparse exits.
"""

import contextlib
import io
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from padicqm import cli

import argv_corpus
import golden_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

PARSER = cli.build_parser()


def argparse_vars(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace, None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def plain_vars(argv: list[str]) -> dict | None:
    args = cli._parse_plain(list(argv))
    return None if args is None else vars(args)


def check(argv: list[str]) -> bool:
    """Assert the two routes agree on argv; whether the table path took it."""
    got, want = plain_vars(argv), argparse_vars(argv)
    assert got is None or got == want, argv
    return got is not None


def perfbench_argvs() -> list[list[str]]:
    """A round of each CLI workload of perfbench, at two seeds."""
    out = []
    for seed in (1, 2):
        out += [req.argv for req in workloads.KernelGrid(seed).next_round()]
        out += [req.argv for req in workloads.Oscillator(seed).next_round()]
        path = workloads.PathIntegral(seed)
        out += [path.argv(s) for s in path.next_round()]
    return out


def test_golden_argvs():
    argvs = golden_corpus.argvs()
    taken = [argv for argv in argvs if check(argv)]
    # the README's --s1 -2 and every error and help argv go to argparse
    assert len(taken) >= len(argvs) // 2
    for argv in golden_corpus._parse_edges():
        if "--prec" in argv or "--sys" in argv or "--" in argv or "-h" in argv:
            assert plain_vars(argv) is None, argv


def test_seeded_argvs():
    rng = random.Random(33)
    argvs = [argv_corpus.random_argv(rng) for _ in range(2000)]
    assert sum(map(check, argvs)) >= 1500


def test_perfbench_argvs_take_the_table():
    for argv in perfbench_argvs():
        assert check(argv), argv


def test_routes_where_argparse_exits():
    for argv in (["verify", "--check", "nope"], ["gauss", "--place", "3", "--a", "1",
                                                  "--format", "xml"],
                 ["kernel", "--place", "3"], ["gauss", "--place", "4", "--a", "1"],
                 ["ball-integral", "--p", "3", "--alpha", "1", "--beta", "0", "--N", "x"],
                 [], ["nope"], ["kernel", "--system"]):
        assert argparse_vars(argv) is None and plain_vars(argv) is None, argv


def test_defaults_and_last_value():
    argv = ["kernel", "--system", "free", "--place", "3", "--T", "1", "--T=2/3"]
    got = plain_vars(argv)
    assert got == argparse_vars(argv)
    assert got["T"] == [Fraction(2, 3)] and got["format"] == "json" and got["precision"] == 20


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["gauss", "--place", "3", "--a", "1"]
    monkeypatch.setattr(sys, "argv", ["padicqm", *argv])
    assert cli.main(None) == 0
    out = capsys.readouterr().out
    assert cli.main(argv) == 0 and capsys.readouterr().out == out


OPTIONS = ["--system", "--place", "--T", "--q0", "--a", "--lam", "--x0", "--s1", "--precision",
           "--format", "--check", "--seed", "--trials", "--p", "--alpha", "--beta", "--N",
           "--b", "--prec", "--sys", "--foo", "-h", "--help", "--"]
VALUES = ["free", "osc", "const-field", "3", "inf,3", "1", "-2", "-7/3", "", "1/2", "xml",
          "csv", "json", "nope", "gauss", "lambda", "4", "1e400", "x"]
#: each subcommand's required options, with values argparse accepts
REQUIRED = {
    "kernel": [["--system", "free"], ["--place", "3"]],
    "gauss": [["--place", "3"], ["--a", "1"]],
    "ball-integral": [["--p", "3"], ["--alpha", "1"], ["--beta", "0"], ["--N", "2"]],
    "verify": [["--check", "gauss"]],
}
#: a run of tokens: an option and its value, as two tokens or one, or a lone token
PIECES = st.one_of(
    st.lists(st.sampled_from(OPTIONS), min_size=1, max_size=1),
    st.lists(st.sampled_from(VALUES), min_size=1, max_size=1),
    st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)).map(list),
    st.builds("{}={}".format, st.sampled_from(OPTIONS), st.sampled_from(VALUES)).map(
        lambda token: [token]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_token_soup(data):
    """Required options, each now and then left out, and pieces, in any order."""
    command = data.draw(st.sampled_from([*REQUIRED, "nope", "-h"]))
    pieces = [piece for piece in REQUIRED.get(command, []) if data.draw(st.integers(0, 9))]
    pieces = data.draw(st.permutations(pieces + data.draw(st.lists(PIECES, max_size=6))))
    check([command, *itertools.chain.from_iterable(pieces)])


def test_separate_dash_values_go_to_argparse():
    argv = ["gauss", "--place", "3", "--a", "1", "--b", "-1"]
    assert argparse_vars(argv) is not None and plain_vars(argv) is None
    assert plain_vars(argv[:-2] + ["--b=-1"]) == argparse_vars(argv)


def test_one_table_drives_both_parsers(monkeypatch):
    """A toy grammar in COMMANDS: build_parser and _parse_plain read it at call time."""
    monkeypatch.setattr(cli, "COMMANDS", {
        "a": ("toy a", {"--k": dict(type=Fraction, default=Fraction(1, 2)),
                        "--n": dict(type=int, required=True, choices=[1, 2])}),
        "b": ("toy b", {"--s": dict()}),
    })
    parser = cli.build_parser()
    assert "toy a" in parser.format_help()
    for argv in (["a", "--n", "1"], ["a", "--n=2", "--k=3/4", "--n", "1"], ["b"], ["b", "--s=x"]):
        assert vars(cli._parse_plain(argv)) == vars(parser.parse_args(argv)), argv
    assert vars(cli._parse_plain(["a", "--n=2", "--k=3/4"])) == {
        "command": "a", "k": Fraction(3, 4), "n": 2}
    for argv in (["a"], ["a", "--n", "3"], ["a", "--n", "1", "--s", "x"],
                 ["kernel", "--system", "free", "--place", "3"]):
        assert cli._parse_plain(argv) is None, argv
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_plain_argvs_never_build_the_parser(monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    for argv in (["kernel", "--system", "free", "--place", "inf,3", "--T=1/2"],
                 ["kernel", "--system", "osc", "--place", "3", "--x0", "1", "--x1", "2",
                  "--gamma0", "0", "--gamma1", "105", "--dgamma0", "1", "--dgamma1", "1",
                  "--s0", "1", "--s1", "1", "--ds0", "0", "--ds1", "0"],
                 ["gauss", "--place", "5", "--a=-3/4"],
                 ["ball-integral", "--p", "3", "--alpha", "1", "--beta", "0", "--N", "2"],
                 ["verify", "--check", "gauss", "--trials", "1", "--place", "3"]):
        assert cli.main(argv) == 0 and calls == [], argv
    # a separate negative value is argparse's: the fallback builds the parser once
    assert cli.main(["gauss", "--place", "5", "--a", "1", "--b", "-1"]) == 0 and calls == [1]
