"""CLI rows one by one: the oracle of the row writer of ``padicqm kernel``,
``gauss`` and ``ball-integral``.

The CLI evaluates a kernel grid one (place, T) block at a time, through
``SymbolicKernel.phase_grid``, and writes each row, of every command,
from text it assembles itself.  This route builds every row on its own
instead: a grid's amplitude from the ``Fraction`` phase prefactor +
chi_v(-S(q1, q0)), an oscillator's from ``k_oscillator_td`` and
``k_oscillator_td_real``, a Gauss or ball integral's from ``gauss_full``
or ``quad_char_integral_ball``, its fields from ``Amplitude.render``, one
dict a row, and the document from ``json.dumps`` or ``csv.writer``.
"""

import csv
import dataclasses
import io
import json
from fractions import Fraction

from padicqm import (
    Amplitude,
    OscillatorBoundaryData,
    OutputLimitError,
    SymbolicKernel,
    chi,
    gauss_full,
    k_oscillator_td,
    k_oscillator_td_real,
    quad_char_integral_ball,
    valuation,
)
from padicqm.cli import CSV_COLUMNS, KERNEL_FORMS, build_parser


def amplitude(kernel: SymbolicKernel, q0: Fraction, q1: Fraction) -> Amplitude:
    """The kernel at (q0, q1): prefactor times chi_v(-S(q1, q0)), in Fractions."""
    phase = kernel.prefactor.phase + chi(kernel.place, -kernel.form.evaluate(q1, q0))
    return Amplitude(kernel.prefactor.modulus_sq, phase)


def text(x) -> str:
    try:
        return str(x)
    except ValueError as exc:
        raise OutputLimitError(str(exc)) from exc


def modulus_text(ms: Fraction, p: int | None) -> str:
    """str(ms), or ``p^k`` when ms = p^k is too long for str()."""
    try:
        return str(ms)
    except ValueError:
        if p is not None and Fraction(p) ** valuation(ms, p) == ms:
            return f"{p}^{valuation(ms, p)}"
        raise OutputLimitError("modulus too long to write") from None


def amp_fields(amp: Amplitude, p: int | None) -> dict:
    try:
        re, im = amp.render()
    except OverflowError:
        re = im = None
    return {
        "modulus_sq": modulus_text(amp.modulus_sq, p),
        "phase": text(amp.phase.value),
        "re": re,
        "im": im,
    }


def kernel_rows(argv: list[str]) -> tuple[dict, list[dict], str]:
    """(header, rows, format) of a ``kernel`` command line, one row at a time.

    Raises ``OutputLimitError`` where the CLI exits 3.
    """
    args = build_parser().parse_args(argv)
    field, make_form = KERNEL_FORMS[args.system]
    coeff = Fraction(0) if field is None else getattr(args, field)
    params = {} if field is None else {field: text(coeff)}
    q0s = [(q0, text(q0)) for q0 in args.q0]
    q1s = [(q1, text(q1)) for q1 in args.q1]
    Ts = [(T, text(T)) for T in args.T]
    rows = []
    for place in args.place:
        for T, T_text in Ts:
            kernel = SymbolicKernel.from_form(place, make_form(coeff, T))
            for q0, q0_text in q0s:
                for q1, q1_text in q1s:
                    row = {"place": str(place), "system": args.system, "T": T_text,
                           "q0": q0_text, "q1": q1_text, **params}
                    row.update(amp_fields(amplitude(kernel, q0, q1), place.p))
                    rows.append(row)
    return {"command": "kernel", "system": args.system}, rows, args.format


def oscillator_rows(argv: list[str]) -> tuple[dict, list[dict], str]:
    """(header, rows, format) of a ``kernel --system osc`` command line, one row a place."""
    args = build_parser().parse_args(argv)
    data = OscillatorBoundaryData(**{f.name: getattr(args, f.name)
                                     for f in dataclasses.fields(OscillatorBoundaryData)})
    rows = []
    for place in args.place:
        row = {"place": str(place), "system": "osc", "sqrt_branch": "canonical"}
        if place.is_real:
            value = k_oscillator_td_real(data)
            row.update({"modulus_sq": "", "phase": "", "re": value.real, "im": value.imag})
        else:
            row.update(amp_fields(k_oscillator_td(place, data, args.precision), place.p))
        rows.append(row)
    return {"command": "kernel", "system": "osc"}, rows, args.format


def integral_rows(argv: list[str]) -> tuple[dict, list[dict], str]:
    """(header, rows, format) of a ``gauss`` or ``ball-integral`` command line: its one row."""
    args = build_parser().parse_args(argv)
    if args.command == "gauss":
        row = {"place": str(args.place), "system": "gauss", "a": text(args.a), "b": text(args.b)}
        amp, p = gauss_full(args.place, args.a, args.b), args.place.p
    else:
        row = {"place": str(args.p), "system": "ball-integral", "alpha": text(args.alpha),
               "beta": text(args.beta), "N": args.N}
        amp, p = quad_char_integral_ball(args.p, args.alpha, args.beta, args.N), args.p
    row.update(amp_fields(amp, p))
    return {"command": args.command}, [row], args.format


def rows_of(argv: list[str]) -> tuple[dict, list[dict], str]:
    """(header, rows, format) of a ``kernel``, ``gauss`` or ``ball-integral`` command line."""
    args = build_parser().parse_args(argv)
    if args.command != "kernel":
        return integral_rows(argv)
    return (oscillator_rows if args.system == "osc" else kernel_rows)(argv)


def payload(argv: list[str]) -> dict:
    """The document of the command line, as the dict ``json.dumps`` writes."""
    header, rows, _ = rows_of(argv)
    return {**header, "rows": rows}


def output(argv: list[str]) -> str:
    """The bytes the CLI writes for a ``kernel``, ``gauss`` or ``ball-integral`` command line."""
    header, rows, fmt = rows_of(argv)
    if fmt == "json":
        return json.dumps({**header, "rows": rows}, indent=2, default=str) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows([[row.get(col, "") for col in CSV_COLUMNS] for row in rows])
    return buf.getvalue()
