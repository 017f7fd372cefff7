"""The CLI's table parse against argparse, the one definition of the grammar.

``cli._parse_plain`` reads a well-formed argv from the store actions of
``build_parser()`` and leaves every other argv to argparse.  For each argv
here it must give either nothing or argparse's namespace, and nothing
wherever argparse exits.
"""

import argparse
import contextlib
import io
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

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


def test_grammar_is_read_from_build_parser(monkeypatch):
    """A string default converts through its type; a subcommand with a flag goes to argparse."""
    def grammar():
        parser = argparse.ArgumentParser(prog="padicqm")
        sub = parser.add_subparsers(dest="command", required=True)
        sub.add_parser("a").add_argument("--k", type=Fraction, default="1/2")
        sub.add_parser("b").add_argument("--flag", action="store_true")
        return parser

    monkeypatch.setattr(cli, "build_parser", grammar)
    cli._parser.cache_clear()
    cli._options.cache_clear()
    try:
        assert vars(cli._parse_plain(["a"])) == vars(grammar().parse_args(["a"]))
        assert vars(cli._parse_plain(["a"])) == {"command": "a", "k": Fraction(1, 2)}
        assert cli._parse_plain(["b"]) is None
    finally:
        cli._parser.cache_clear()
        cli._options.cache_clear()
