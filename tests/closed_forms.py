"""Hand-written closed-form kernels: the independent route of criteria 6 and 8.

The library evaluates every kernel through one symbolic expression of
its action form (``SymbolicKernel.from_form``).  These formulas write
each kernel out by hand instead, with its own prefactor, so the tests
can compare the two routes exactly.
"""

from fractions import Fraction

from padicqm import (
    Amplitude,
    DegenerateIntervalError,
    PadicTruncation,
    Phase,
    Place,
    PrecisionError,
    chi,
    lambda_v,
    norm,
)
from padicqm.propagators import oscillator_chi_rational_part

import series_oracle
from truncation_oracle import add, chi_of_truncation, scale


def k_constant_field(
    place: Place,
    a: Fraction | int,
    T: Fraction | int,
    q0: Fraction | int,
    q1: Fraction | int,
) -> Amplitude:
    """Propagator of a particle in a constant field over time T.

    Modulus squared 1/|T|_v; phase lambda_v(2T) plus the character of
    minus the classical action.
    """
    a, T, q0, q1 = Fraction(a), Fraction(T), Fraction(q0), Fraction(q1)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    s_cl = (q1 - q0) ** 2 / (2 * T) + a * (q1 + q0) * T / 2 - a * a * T**3 / 24
    return Amplitude(1 / norm(T, place), lambda_v(place, 2 * T) + chi(place, -s_cl))


def k_free(
    place: Place, T: Fraction | int, q0: Fraction | int, q1: Fraction | int
) -> Amplitude:
    """Free-particle propagator: the constant-field kernel at a = 0."""
    T, q0, q1 = Fraction(T), Fraction(q0), Fraction(q1)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    return Amplitude(
        1 / norm(T, place),
        lambda_v(place, 2 * T) + chi(place, -((q1 - q0) ** 2) / (2 * T)),
    )


def k_desitter(
    place: Place,
    lam: Fraction | int,
    T: Fraction | int,
    q0: Fraction | int,
    q1: Fraction | int,
) -> Amplitude:
    """Minisuperspace cosmological propagator with cosmological constant lam."""
    lam, T, q0, q1 = Fraction(lam), Fraction(T), Fraction(q0), Fraction(q1)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    arg = (
        (q1 - q0) ** 2 / (8 * T)
        + (lam * (q1 + q0) - 2) * T / 4
        - lam * lam * T**3 / 24
    )
    return Amplitude(1 / norm(4 * T, place), lambda_v(place, -2 * T) + chi(place, arg))


def _pinned_lambda(place: Place, t: PadicTruncation) -> Phase:
    """lambda_p of t's representative; PrecisionError unless t pins the
    digits lambda_p reads: one above the valuation, three at p = 2."""
    if t.is_zero_mod or t.precision - t.valuation < (3 if place.p == 2 else 1):
        raise PrecisionError("lambda digits of the truncation are not pinned")
    return lambda_v(place, t.representative())


def k_oscillator(place: Place, data, P: int) -> Amplitude:
    """Time-dependent oscillator propagator at a p-adic place, modulo p^P.

    Modulus squared |r|_p with r = sqrt(dgamma1*dgamma0)/sin delta,
    delta = gamma1 - gamma0; phase lambda_p(2r), plus chi_p of the
    rational part, plus chi_p of the truncated term
    -(dgamma1 x1^2 + dgamma0 x0^2)/(2 tan delta) + r x1 x0 taken as one
    value.  The truncations come from the exact Fraction sums of
    ``series_oracle``, and their arithmetic is ``truncation_oracle``'s.
    """
    inv_tan, root_over_sin = series_oracle.oscillator_truncations(data, place.p, P)
    quad_coeff = -(data.dgamma1 * data.x1**2 + data.dgamma0 * data.x0**2) / 2
    trig = add(scale(inv_tan, quad_coeff), scale(root_over_sin, data.x1 * data.x0))
    return Amplitude(
        root_over_sin.norm(),
        _pinned_lambda(place, scale(root_over_sin, 2))
        + chi(place, oscillator_chi_rational_part(data))
        + chi_of_truncation(trig),
    )
