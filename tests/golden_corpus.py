"""The golden CLI corpus: argvs whose output a fixed seed pins, byte for byte.

``tests/golden_cli.json`` holds, for each argv of :func:`argvs`, the
SHA-256 of its stdout and of its stderr and its exit code, and
``tests/test_golden_cli.py`` runs every argv in process through
``cli.main`` and compares.  The float fields ``re`` and ``im`` come from
libm, whose last digit may differ between platforms, so the stdout hash
is taken with each of them masked and the floats are checked on their
own, within the README's relative 1e-12: against the exact
``modulus_sq`` and ``phase`` of their row, or, in a row with no exact
field (the real-place oscillator's), against the floats the file keeps.

The corpus: the five ``verify`` checks at seeds 0-2; every CLI command
of ``.github/workflows/tests.yml`` and of the README's command-line
block; kernel grids of the four systems at inf, 2, 3, 5 and 7, in JSON
and CSV; argvs on the edges of parsing, which pin what argparse accepts
and the bytes of its help and usage errors; and 120 seeded argvs of
``argv_corpus``.  Rewrite the file
after an intended change of output, and name each argv it reports::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import unittest.mock
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import argv_corpus  # noqa: E402
from padicqm.cli import main  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_cli.json")
#: relative bound on a rendered float, the README's
RENDER_TOLERANCE = 1e-12
#: a JSON float field; null is left as it is
JSON_FLOAT = re.compile(r'("re"|"im"): (?!null)[^,\n]+')

#: the grid of the JSON and CSV round trips of tests.yml
GRID = ["--place", "inf,2,3,5,7", "--T=1,-3/4,1/9", "--q0=-3/2,0,5/7,9", "--q1=1,2/9,-1/4,3"]
SYSTEMS = (["free"], ["const-field", "--a=-7/3"], ["desitter", "--lam=3/5"])


def _osc(place: str, gamma1: str, dgamma: str = "1", ds0: str = "0") -> list[str]:
    """An oscillator kernel argv at x0 = 1, x1 = 2, gamma0 = 0, s0 = s1 = 1 and ds1 = 0."""
    return ["kernel", "--system", "osc", "--place", place, "--x0", "1", "--x1", "2",
            "--gamma0", "0", "--gamma1", gamma1, "--dgamma0", dgamma, "--dgamma1", dgamma,
            "--s0", "1", "--s1", "1", "--ds0", ds0, "--ds1", "0"]


def _workflow() -> list[list[str]]:
    """The CLI commands of tests.yml, their shell substitutions made in Python."""
    big = 3317044064679887385961813
    out = [["verify", "--check", "gauss", "--seed", "0"],
           ["verify", "--check", "gauss", "--place", "13", "--seed", "0"]]
    out += [["verify", "--check", "gauss", "--place", "2,3,5,7,11,13,17,19,23,29,31",
             "--seed", str(s)] for s in range(3)]
    out += [["verify", "--check", c, "--seed", "0", "--trials", "2"]
            for c in ("lambda", "composition", "semigroup", "overlap", "gauss")]
    for c in ("composition", "semigroup"):
        out += [["verify", "--check", c, "--seed", "0"],
                ["verify", "--check", c, "--place", "11,13,17,19,23", "--seed", "0"]]
    out += [
        ["ball-integral", "--p", "7", "--alpha", "1", "--beta", "0", "--N", "10"],
        _osc("inf", "1e400"),
        _osc("inf", "7/10"),
        _osc("inf", "7/10", ds0="2417851639229258349412352"),
        ["ball-integral", "--p", "4", "--alpha", "1", "--beta", "0", "--N", "1"],
        ["kernel", "--system", "free", "--place", "3.0"],
        ["kernel", "--system", "free", "--place", "3", "--x0", "1", "--precision", "5",
         "--lam", "7"],
        *(_osc(place, gamma1) + ["--precision", precision]
          for place, gamma1 in (("3,5,7", "105"), ("2,3,5,7,11,13", "60060"))
          for precision in ("20", "10000")),
        _osc("3,5,7", "105") + ["--precision", "10001"],
        _osc("3", "3", dgamma="3") + ["--precision", "20"],
        ["ball-integral", "--p", str(big), "--alpha", "1", f"--beta=1/{big**175}",
         "--N", "10000"],
        ["ball-integral", "--p", str(big), "--alpha", "1", "--beta", "1", "--N", "10000"],
        ["ball-integral", "--p", "11", "--alpha", "11", f"--beta=1/{11**2064}", "--N", "10000"],
        ["ball-integral", "--p", "2", "--alpha", "1", f"--beta=1/{2**7142}", "--N", "10000"],
        ["ball-integral", "--p", "2", "--alpha", "1", f"--beta=1/{2**7141}", "--N", "10000"],
        ["kernel", "--system", "free", "--place", "inf,2", "--T=1,2,3,4,5,6,7,8", "--q0=1",
         "--q1=" + ",".join(map(str, range(1, 401)))],
    ]
    # the gauss and ball-integral rows of the JSON and CSV round trips
    out += [argv + fmt
            for fmt in ([], ["--format", "csv"])
            for argv in (["gauss", "--place", "5", "--a=-3/4", "--b=5/7"],
                         ["gauss", "--place", "inf", "--a", "1"],
                         ["ball-integral", "--p", "3", "--alpha", "1/9", "--beta", "2", "--N=1"],
                         ["ball-integral", "--p", "3", "--alpha", "0", "--beta", "0",
                          "--N=-1000"])]
    return out


def _readme() -> list[list[str]]:
    """The commands of the README's command-line block."""
    return [
        ["kernel", "--system", "free", "--place", "3", "--T", "1", "--q0", "0", "--q1", "1"],
        ["kernel", "--system", "const-field", "--a", "2", "--place", "inf,2,3", "--T", "1,2",
         "--q0", "0", "--q1", "1", "--format", "csv"],
        ["kernel", "--system", "desitter", "--lam", "1/2", "--place", "5", "--T", "1", "--q0",
         "0", "--q1", "1"],
        ["kernel", "--system", "osc", "--place", "3", "--x0", "1", "--x1", "2", "--gamma0", "0",
         "--gamma1", "3", "--dgamma0", "1", "--dgamma1", "1", "--s0", "2", "--s1", "-2",
         "--ds0", "1/2", "--ds1", "1/4", "--precision", "20"],
        ["gauss", "--place", "inf", "--a", "1", "--b", "0"],
        ["ball-integral", "--p", "3", "--alpha", "1", "--beta", "0", "--N", "2"],
        ["verify", "--check", "lambda", "--trials", "1000", "--seed", "7"],
        ["verify", "--check", "composition", "--trials", "50"],
        ["verify", "--check", "gauss", "--place", "3"],
    ]


def _grids() -> list[list[str]]:
    """Kernel grids of the four systems at inf, 2, 3, 5 and 7, in JSON and CSV."""
    return [argv + ["--format", fmt]
            for argv in (*(["kernel", "--system", *system, *GRID] for system in SYSTEMS),
                         _osc("inf,2,3,5,7", "60060"))
            for fmt in ("json", "csv")]


def _parse_edges() -> list[list[str]]:
    """Argvs on the edges of parsing: abbreviations, repeats, signs, ``--``, errors, help."""
    gauss = ["gauss", "--place", "3", "--a", "1"]
    return [
        _osc("3", "105") + ["--prec", "20"],
        ["kernel", "--sys", "free", "--place", "3"],
        ["kernel", "--system", "free", "--place", "3", "--T", "1", "--T=2", "--place", "5"],
        ["kernel", "--system", "const-field", "--place", "3", "--a", "-2"],
        _osc("3", "105")[:-6] + ["--s1", "-2", "--ds0", "0", "--ds1", "0"],
        ["kernel", "--system", "const-field", "--place", "3", "--a", "-7/3"],
        ["kernel", "--system", "free", "--place", "3", "--T="],
        ["kernel", "--system", "free", "--place", "3", "--", "--T", "1"],
        ["kernel", "--system", "free", "--place", "3", "--"],
        gauss + ["--foo=1"],
        gauss + ["--format", "xml"],
        ["kernel", "--place", "3"],
        ["kernel", "-h"],
        ["verify", "--check", "nope"],
    ]


def argvs() -> list[list[str]]:
    """The corpus, each argv once, in the order above."""
    out = [["verify", "--check", c, "--seed", str(s)]
           for s in range(3) for c in ("lambda", "composition", "semigroup", "overlap", "gauss")]
    out += _workflow() + _readme() + _grids() + _parse_edges()
    rng = random.Random(17)
    out += [argv_corpus.random_argv(rng) for _ in range(120)]
    seen = set()
    return [argv for argv in out if not (tuple(argv) in seen or seen.add(tuple(argv)))]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``padicqm`` call.

    argparse wraps help and usage text at the terminal's width, which it
    reads from ``COLUMNS`` first; the file records them at 80 columns.
    """
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          unittest.mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _mask_csv(line: str) -> str:
    """A CSV row with its last two cells, re and im, masked where they are not empty."""
    if not line:
        return line
    head, *floats = line.rsplit(",", 2)
    return ",".join([head, *("?" if x else "" for x in floats)])


def _rows(text: str) -> tuple[str, list[dict]]:
    """stdout with its float fields masked, and the rows that have a float."""
    if text.startswith("{"):
        rows = json.loads(text).get("rows", [])
        masked = JSON_FLOAT.sub(r"\1: ?", text)
    elif text.startswith("place,"):
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        lines = text.split("\r\n")
        masked = "\r\n".join(lines[:1] + [_mask_csv(line) for line in lines[1:]])
    else:
        return text, []
    return masked, [row for row in rows if row.get("re") not in (None, "")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str]) -> tuple[dict, list[dict]]:
    """The file's entry for one argv, and the rows of its stdout that have a float.

    The entry holds the hashes, the exit code, and the floats of the rows
    with no exact field.
    """
    code, out, err = run(argv)
    masked, rows = _rows(out)
    entry = {"argv": argv, "exit": code, "stdout": _sha(masked), "stderr": _sha(err)}
    loose = [[float(row["re"]), float(row["im"])] for row in rows if not row["modulus_sq"]]
    if loose:
        entry["floats"] = loose
    return entry, rows


def _exact_render(modulus_sq: str, phase: str) -> tuple[float, float, float]:
    """(r, re, im) of an exact row; ``p^k`` is a power, and r comes from logarithms."""
    base, _, k = modulus_sq.partition("^")
    ms = Fraction(base) ** int(k or 1)
    r = math.exp((math.log(ms.numerator) - math.log(ms.denominator)) / 2) if ms else 0.0
    theta = 2 * math.pi * float(Fraction(phase))
    return r, r * math.cos(theta), r * math.sin(theta)


def float_problems(entry: dict, rows: list[dict]) -> list[str]:
    """Each rendered float off by more than the bound from its reference."""
    loose = iter(entry.get("floats", []))
    problems = []
    for row in rows:
        got = float(row["re"]), float(row["im"])
        if row["modulus_sq"]:
            r, *want = _exact_render(row["modulus_sq"], row["phase"])
        else:
            want = next(loose, (math.nan, math.nan))
            r = math.hypot(*want)
        if not all(abs(g - w) <= RENDER_TOLERANCE * r for g, w in zip(got, want)):
            problems.append(f"{row}: ({got[0]!r}, {got[1]!r}) against {tuple(want)}")
    return problems


def rewrite() -> list[list[str]]:
    """Write the file from the program as it is; return the argvs whose entry changed."""
    old = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())} if GOLDEN.exists() else {}
    entries = [record(argv)[0] for argv in argvs()]
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    return [e["argv"] for e in entries if old.get(tuple(e["argv"])) != e]


if __name__ == "__main__":
    changed = rewrite()
    for argv in changed:
        print(" ".join(argv)[:200])
    print(f"{len(changed)} argvs changed", file=sys.stderr)
