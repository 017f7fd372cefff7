"""Command-line front end: kernels, Gauss integrals, verification suites.

A handler returns 0 or 1 and raises any other failure; :func:`main` alone
maps the type it raised to the exit code (argparse exits 2 on a usage error):

    exit  raised                                  stderr
    0, 1  nothing: success, verification failed  nothing
    2     any PadicqmError but OutputLimitError   ``error: <message>``
    3     OutputLimitError, any resource limit    ``resource limit: <message>``
    4     anything else: a bug, such as a         ``internal error: <type>: <message>``
          ValueError other than an InputError
    141   BrokenPipeError: stdout closed          nothing

Output is JSON (default) or CSV; every row carries the exact
fractions next to their float rendering, and a fixed seed reproduces
byte-identical output.  Every row of ``kernel``, ``gauss`` and
``ball-integral`` is written by one flat writer, text shared by many rows
encoded once, and :func:`_write` puts the rows under their header.

:data:`COMMANDS` is the one definition of the grammar: :func:`build_parser`
hands it to argparse, and an argv of plain ``--opt=value`` and ``--opt value``
tokens is read from it directly, without building the parser; argparse
parses every other argv, so it alone writes help and usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .characters import Amplitude
from .dynamics import action_form_constant_field
from .errors import OutputLimitError, PadicqmError
from .gauss import gauss_full, quad_char_integral_ball, stabilization_threshold
from .places import Place, valuation
from .propagators import (
    OscillatorBoundaryData,
    SymbolicKernel,
    desitter_action_form,
    k_oscillator_td,
    k_oscillator_td_real,
)
from .verify import CHECKS

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
#: 128 + SIGPIPE, the status of a process that a closed pipe stops
EXIT_BROKEN_PIPE = 141

#: largest oscillator --precision, the most digits the kernel may use.  The
#: kernel runs at min(--precision, P*), P* = oscillator_precision(data, p), so
#: the CLI cost no longer grows with the requested precision; the cap bounds
#: the work where P* itself is deep (data of large p-adic size), as the series
#: at P sums K ~ P terms modulo p^(P+S), about quadratic in P
MAX_PRECISION = 10_000
#: largest ball-integral |--N|; the Gauss sum modulus p^L grows with it
MAX_BALL_RADIUS = 10_000
#: largest verify --trials
MAX_TRIALS = 100_000

#: kernel system -> (row field of its coefficient, action form of (coefficient, T));
#: the free particle is the constant field at a = 0
KERNEL_FORMS = {
    "free": (None, action_form_constant_field),
    "const-field": ("a", action_form_constant_field),
    "desitter": ("lam", desitter_action_form),
}
#: kernel system -> the options it reads; an argv that gives it any other exits 2
_GRID_OPTIONS = frozenset({"--system", "--place", "--format", "--T", "--q0", "--q1"})
KERNEL_OPTIONS = {
    **{system: _GRID_OPTIONS.union([f"--{field}"] if field else [])
       for system, (field, _) in KERNEL_FORMS.items()},
    "osc": frozenset({"--system", "--place", "--format", "--precision",
                      *(f"--{f.name}" for f in dataclasses.fields(OscillatorBoundaryData))}),
}

CSV_COLUMNS = ["place", "system", "a", "b", "lam", "T", "q0", "q1", "alpha", "beta", "N",
               "modulus_sq", "phase", "re", "im"]
#: a row's CSV cells before its amplitude; a kernel grid splits them into the
#: (place, T) block's, to T, and the grid point's, from q0
_HEAD_COLUMNS = CSV_COLUMNS[:CSV_COLUMNS.index("modulus_sq")]
_BLOCK_COLUMNS = CSV_COLUMNS[:CSV_COLUMNS.index("q0")]
_POINT_COLUMNS = _HEAD_COLUMNS[len(_BLOCK_COLUMNS):]


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from exc


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part.strip()]


def _place(text: str) -> Place:
    try:
        return Place.parse(text)
    except PadicqmError as exc:
        raise argparse.ArgumentTypeError(f"bad place {text!r}: {exc}") from exc


def _place_list(text: str) -> list[Place]:
    return [_place(part) for part in text.split(",") if part.strip()]


def _text(x) -> str:
    """str(x) of an exact field; OutputLimitError when str() of an int in it fails."""
    try:
        return str(x)
    except ValueError as exc:
        raise OutputLimitError(f"an exact field is too long to write: {exc}") from exc


def _modulus_text(ms: Fraction, p: int | None) -> str:
    """str(ms), or ``p^k`` when ms = p^k has more digits than str() of an int allows."""
    try:
        return str(ms)
    except ValueError:
        if p is not None:
            k = valuation(ms, p)
            if Fraction(p) ** k == ms:
                return f"{p}^{k}"
        return _text(ms)


def _fields(fields: dict, columns: list[str], fmt: str) -> str:
    """A run of row fields in output form; every run starts with a separator.

    JSON writes the fields in their order, ``,\\n      "key": "value"`` each,
    an int (ball-integral's N) as a number; CSV writes one cell for each of
    ``columns``, consecutive in CSV_COLUMNS, empty where ``fields`` lacks it.
    """
    if fmt == "json":
        enc = encode_basestring_ascii
        return "".join([f",\n      {enc(k)}: {v if type(v) is int else enc(v)}"
                        for k, v in fields.items()])
    buf = io.StringIO()
    csv.writer(buf).writerow([fields.get(col, "") for col in columns])
    return "," + buf.getvalue()[:-2]


#: a row's fixed text around its fields in each format: (opening,
#: before_modulus, before_phase, before_re, before_im, closing, missing),
#: missing the text of a float that ``Amplitude.render`` cannot give; the
#: exact texts, of digits, "/", "-" and "^", need no escape in either format
ROW_TEXT = {
    "json": ("\n    {", ',\n      "modulus_sq": "', '",\n      "phase": "', '",\n      "re": ',
             ',\n      "im": ', "\n    }", "null"),
    "csv": ("", ",", ",", ",", ",", "\r\n", ""),
}


def _block(start: str, pairs: list[str], amp: Amplitude, p: int | None, phases,
           fmt: str) -> list[str]:
    """Rows ``opening + start + pair + tail`` under one amplitude, a phase (n, d) a pair.

    The modulus text and its float root r are written once; a row adds
    its phase n/d and re, im = r cos, r sin of 2 pi n/d:
    ``float(Fraction(n, d))`` is n/d, so they are bit for bit the values
    of ``Amplitude.render``.  A row's tail, its modulus, phase and float
    fields, depends on the phase only, so each distinct phase is rendered
    once: at p many rows of a kernel block repeat one, as chi_p(-S) is 1
    wherever S is a p-adic integer.
    """
    opening, before_modulus, before_phase, before_re, before_im, closing, missing = ROW_TEXT[fmt]
    start = opening + start
    modulus = f"{before_modulus}{_modulus_text(amp.modulus_sq, p)}{before_phase}"
    try:
        r = amp.float_modulus()
    except OverflowError:
        r = None
    tau, cos, sin = 2 * math.pi, math.cos, math.sin
    # phase (n, d) -> the row's tail
    tails = {}
    rows = []
    try:
        for pair, nd in zip(pairs, phases):
            tail = tails.get(nd)
            if tail is None:
                n, d = nd
                if r is None:
                    floats = f"{before_re}{missing}{before_im}{missing}{closing}"
                else:
                    theta = tau * (n / d)
                    floats = (f"{before_re}{r * cos(theta)!r}"
                              f"{before_im}{r * sin(theta)!r}{closing}")
                phase = f"{n}/{d}" if d != 1 else str(n)
                tail = tails[nd] = f"{modulus}{phase}{floats}"
            rows.append(f"{start}{pair}{tail}")
    except ValueError as exc:
        raise OutputLimitError(f"an exact field is too long to write: {exc}") from exc
    return rows


def _row(head: dict, amp: Amplitude, p: int | None, fmt: str) -> list[str]:
    """The one row of an amplitude, ``head`` its fields before the amplitude's."""
    value = amp.phase.value
    start = _fields(head, _HEAD_COLUMNS, fmt)[1:]
    return _block(start, [""], amp, p, [(value.numerator, value.denominator)], fmt)


def _write(header: dict, rows: list[str], fmt: str) -> None:
    """The rows under their header: CSV, or the JSON the standard encoder writes at indent 2."""
    if fmt == "csv":
        sys.stdout.write(",".join(CSV_COLUMNS) + "\r\n" + "".join(rows))
        return
    enc = encode_basestring_ascii
    head = "".join([f"  {enc(k)}: {enc(v)},\n" for k, v in header.items()])
    body = f'[{",".join(rows)}\n  ]' if rows else "[]"
    sys.stdout.write(f'{{\n{head}  "rows": {body}\n}}\n')


def _cmd_gauss(args) -> int:
    head = {"place": str(args.place), "system": "gauss", "a": _text(args.a), "b": _text(args.b)}
    amp = gauss_full(args.place, args.a, args.b)
    _write({"command": "gauss"}, _row(head, amp, args.place.p, args.format), args.format)
    return EXIT_OK


def _check_ball_phase(p: int, alpha: Fraction, beta: Fraction, N: int) -> None:
    """OutputLimitError where the ball integral's phase is too long to write.

    From N = ``stabilization_threshold`` on, the integral is the full one,
    whose phase n/d ``gauss_full`` gives.  n < d, so the phase is too long
    to write exactly when d >= 10^limit; the message names p^v_p(d).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not (limit and alpha) or N < stabilization_threshold(p, alpha, beta):
        return
    d = gauss_full(Place.prime(p), alpha, beta).phase.value.denominator
    if d >= 10**limit:
        raise OutputLimitError(f"the phase denominator is a multiple of {p}^{valuation(d, p)},"
                               f" more than {limit} digits")


def _cmd_ball_integral(args) -> int:
    if abs(args.N) > MAX_BALL_RADIUS:
        raise OutputLimitError(f"--N {args.N} exceeds {MAX_BALL_RADIUS} in absolute value")
    # the echoed inputs are written first: a rational too long to write
    # exits 3 here, and a writable alpha, beta keeps the Gauss sum modulus
    # p^L within p^(2N) times their denominators
    head = {
        "place": str(args.p),
        "system": "ball-integral",
        "alpha": _text(args.alpha),
        "beta": _text(args.beta),
        "N": args.N,
    }
    _check_ball_phase(args.p, args.alpha, args.beta, args.N)
    amp = quad_char_integral_ball(args.p, args.alpha, args.beta, args.N)
    _write({"command": "ball-integral"}, _row(head, amp, args.p, args.format), args.format)
    return EXIT_OK


def _kernel_rows(args) -> list[str]:
    """The kernel grid's row texts, one (place, T) block at a time.

    Work that many rows share is done once: each T's action form a request,
    shared by every place; the q0, q1 and coefficient fields a request; the
    place, system and T fields a block, whose rows :func:`_block` writes
    under the block's prefactor from the phases of
    :meth:`SymbolicKernel.phase_grid`.  The coefficient field goes with
    the block's fields in CSV, where its column comes before T's, and with
    the grid point's in JSON, after q1.
    """
    fmt = args.format
    field, make_form = KERNEL_FORMS[args.system]
    coeff = Fraction(0) if field is None else getattr(args, field)
    coeff_field = {} if field is None else {field: _text(coeff)}
    to_block, to_point = (coeff_field, {}) if fmt == "csv" else ({}, coeff_field)
    q0s = [_text(q0) for q0 in args.q0]
    q1s = [_text(q1) for q1 in args.q1]
    # the form depends on T only: a zero T exits 2 even where no place is given
    Ts = [(_text(T), make_form(coeff, T)) for T in args.T]
    pairs = [_fields({"q0": q0, "q1": q1, **to_point}, _POINT_COLUMNS, fmt)
             for q0 in q0s for q1 in q1s]
    rows = []
    for place in args.place:
        for T_text, form in Ts:
            kernel = SymbolicKernel.from_form(place, form)
            if not pairs:
                continue
            start = _fields({"place": str(place), "system": args.system, "T": T_text,
                             **to_block}, _BLOCK_COLUMNS, fmt)[1:]
            # phases first: the except of _block sees only the digit limit of str()
            phases = kernel.phase_grid(args.q0, args.q1)
            rows += _block(start, pairs, kernel.prefactor, place.p, phases, fmt)
    return rows


def _oscillator_rows(args) -> list[str]:
    """The oscillator's row texts, one a place, in the kernel grid's row form.

    JSON keeps ``sqrt_branch`` after ``system``, which has no CSV column.
    The real place has no exact field: it writes ``modulus_sq`` and
    ``phase`` empty, and the floats of ``k_oscillator_td_real``, finite
    wherever it returns.
    """
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(OscillatorBoundaryData)}
    if None in values.values():
        raise PadicqmError("oscillator system needs " + " ".join(f"--{name}" for name in values))
    if args.precision > MAX_PRECISION:
        raise OutputLimitError(f"--precision {args.precision} exceeds {MAX_PRECISION}")
    # as for echoed inputs, a rational too long to write exits 3 before any work
    for value in values.values():
        _text(value)
    data = OscillatorBoundaryData(**values)
    fmt = args.format
    opening, before_modulus, before_phase, before_re, before_im, closing, _ = ROW_TEXT[fmt]
    rows = []
    for place in args.place:
        head = {"place": str(place), "system": "osc", "sqrt_branch": "canonical"}
        if not place.is_real:
            rows += _row(head, k_oscillator_td(place, data, args.precision), place.p, fmt)
            continue
        z = k_oscillator_td_real(data)
        start = _fields(head, _HEAD_COLUMNS, fmt)[1:]
        rows.append(f"{opening}{start}{before_modulus}{before_phase}{before_re}{z.real!r}"
                    f"{before_im}{z.imag!r}{closing}")
    return rows


def _check_kernel_options(system: str, argv: list[str]) -> None:
    """PadicqmError naming each option of a parsed kernel argv that ``system`` does not read.

    Tokens are read as argparse reads them: ``--opt`` or ``--opt=value``, opt abbreviated or not.
    """
    options, reads, unread = COMMANDS["kernel"][1], KERNEL_OPTIONS[system], []
    for token in argv[1:]:
        opt = token.partition("=")[0]
        if opt not in reads and opt.startswith("--") and opt != "--":
            opt = min((s for s in options if s.startswith(opt)), key=len, default="")
            if opt and opt not in reads and opt not in unread:
                unread.append(opt)
    if unread:
        raise PadicqmError(f"--system {system} does not read {', '.join(unread)}")


def _cmd_kernel(args) -> int:
    rows = _oscillator_rows(args) if args.system == "osc" else _kernel_rows(args)
    _write({"command": "kernel", "system": args.system}, rows, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials is not None and args.trials > MAX_TRIALS:
        raise OutputLimitError(f"--trials {args.trials} exceeds {MAX_TRIALS}")
    # each check rejects a run that would check nothing, before any work
    given = {"trials": args.trials, "places": args.place}
    failures = CHECKS[args.check](
        seed=args.seed, **{name: value for name, value in given.items() if value is not None}
    )
    report = {
        "command": "verify",
        "check": args.check,
        "seed": args.seed,
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }
    sys.stdout.write(json.dumps(report, indent=2, default=str) + "\n")
    return EXIT_OK if not failures else EXIT_VERIFY_FAIL


#: the grammar, in the order --help lists it: subcommand -> (its help, option
#: -> the keywords argparse's add_argument takes); each option --name stores
#: one value under name, read by :func:`build_parser` and :func:`_parse_plain`
COMMANDS = {
    "kernel": ("evaluate a propagator on a parameter grid", {
        "--system": dict(required=True, choices=list(KERNEL_OPTIONS)),
        "--place": dict(type=_place_list, required=True,
                        help="comma-separated places: inf or primes"),
        "--T": dict(type=_rational_list, default=[Fraction(1)]),
        "--q0": dict(type=_rational_list, default=[Fraction(0)]),
        "--q1": dict(type=_rational_list, default=[Fraction(0)]),
        "--a": dict(type=_rational, default=Fraction(0),
                    help="constant acceleration (const-field)"),
        "--lam": dict(type=_rational, default=Fraction(0),
                      help="cosmological constant (desitter)"),
        **{f"--{field.name}": dict(type=_rational, help="oscillator boundary value")
           for field in dataclasses.fields(OscillatorBoundaryData)},
        "--precision": dict(type=int, default=20,
                            help="most p-adic digits the oscillator kernel may use"),
        "--format": dict(choices=["json", "csv"], default="json"),
    }),
    "gauss": ("full-line Gauss integral", {
        "--place": dict(type=_place, required=True),
        "--a": dict(type=_rational, required=True),
        "--b": dict(type=_rational, default=Fraction(0)),
        "--format": dict(choices=["json", "csv"], default="json"),
    }),
    "ball-integral": ("character integral over a p-adic ball", {
        "--p": dict(type=int, required=True),
        "--alpha": dict(type=_rational, required=True),
        "--beta": dict(type=_rational, required=True),
        "--N": dict(type=int, required=True),
        "--format": dict(choices=["json", "csv"], default="json"),
    }),
    "verify": ("run a seeded exact-identity suite", {
        "--check": dict(required=True, choices=sorted(CHECKS)),
        "--seed": dict(type=int, default=0),
        "--trials": dict(type=int),
        "--place": dict(type=_place_list, help="restrict to these places"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicqm",
        description="Exact propagators and Gauss integrals over the real "
        "and p-adic completions of the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for opt, keywords in options.items():
            command.add_argument(opt, **keywords)
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """argparse's namespace for a plain argv, None for any other.

    Plain: a subcommand of :data:`COMMANDS`, then only ``--opt=value`` and
    ``--opt value`` tokens, opt an exact option of it and a separate value
    not starting with ``-``, where each value converts through the option's
    type into its choices and every required option is given.  As in
    argparse, the last value of an option wins.  argparse parses the rest:
    help, abbreviations, ``--``, values such as ``-2``, and every usage error.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = command[1]
    given = {}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            opt, eq, value = token.partition("=")
            keywords = options.get(opt)
            if not eq:
                value = next(tokens, "-")
            if keywords is None or not eq and value[:1] == "-":
                return None
            convert, choices = keywords.get("type"), keywords.get("choices")
            value = convert(value) if convert else value
            if choices is not None and value not in choices:
                return None
            given[opt] = value
        for opt, keywords in options.items():
            if opt not in given:
                if keywords.get("required"):
                    return None
                given[opt] = keywords.get("default")
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(command=argv[0], **{opt[2:]: value for opt, value in given.items()})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    # the handler of subcommand "x-y" is _cmd_x_y, looked up at call time
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        if args.command == "kernel":
            _check_kernel_options(args.system, argv)
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and point stdout at
        # os.devnull so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OutputLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PadicqmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # exit 1 stays reserved for verification failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
