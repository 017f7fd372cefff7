"""Sine and cosine partial sums in Fraction arithmetic: the oracle of ``_sin_cos_sums``.

The library sums each parity of the series by Horner in Z/p^M and
returns residues modulo p^P (``analytic._sin_cos_sums``).  This route
adds the terms x^k/k! one at a time as exact fractions and stops at the
first k >= 1 past which, by Legendre's bound on v_p(n!), every term has
valuation at least P.  It checks the domain and counts the terms itself,
so the library's residues must be those of these sums modulo p^P.

``oscillator_truncations`` rebuilds the oscillator's two truncations
from these sums with ``from_rational`` and ``truncation_oracle.divide``,
the route the library took before it summed modulo p^M, with the square
root of ``root_oracle``, and
``oscillator_form`` builds the form from them behind the guard that
once decided when the form pins its kernel: the oracle of
``oscillator_precision``.
"""

from fractions import Fraction

from padicqm import (
    DegenerateIntervalError, DomainError, PadicTruncation, PrecisionError,
    QuadraticActionForm, oscillator_precision, valuation,
)

import root_oracle
from truncation_oracle import divide


def sin_cos_sums(x: Fraction, p: int, P: int) -> tuple[Fraction, Fraction]:
    """Exact partial sums of sin and cos whose tails have norm <= p^-P."""
    d = valuation(x, p)  # +inf at x = 0
    minimum = 2 if p == 2 else 1
    if d < minimum:
        raise DomainError(f"|x|_{p} must be <= {p}^-{minimum} for trigonometric series")
    sin_total, cos_total = Fraction(0), Fraction(0)
    term, k = Fraction(1), 0  # term = x^k / k!
    while True:
        if k % 2 == 0:
            cos_total += -term if k % 4 else term
        else:
            sin_total += -term if (k - 1) % 4 else term
        # v_p(n!) <= (n - 1)/(p - 1), so each term past k has valuation at
        # least (k + 1) d - k/(p - 1), which grows with k since d > 1/(p - 1);
        # k >= 1 keeps x, the sine's leading term, even where sin x is O(p^P)
        if k and (k + 1) * d * (p - 1) - k >= P * (p - 1):
            return sin_total, cos_total
        k += 1
        term = term * x / k


def oscillator_truncations(data, p: int, P: int):
    """1/tan delta and sqrt(dgamma1*dgamma0)/sin delta from the exact sums."""
    delta = data.gamma1 - data.gamma0
    if delta == 0:
        raise DegenerateIntervalError("coincident auxiliary phases")
    s, c = sin_cos_sums(delta, p, P)
    sin_t = PadicTruncation.from_rational(s, p, P)
    tan_t = PadicTruncation.from_rational(s / c, p, P)
    root_t = root_oracle.sqrt(data.dgamma1 * data.dgamma0, p, P)
    inv_tan = divide(PadicTruncation.from_rational(1, p, P), tan_t)
    return inv_tan, divide(root_t, sin_t)


def oscillator_form(data, p: int, P: int) -> QuadraticActionForm:
    """The oscillator's form at precision P from the truncations above.

    A PrecisionError is raised unless the truncations pin the digits of
    gamma = -sqrt/sin that lambda reads (one above the valuation, three
    at p = 2) and the fractional part of each chi term alpha x1^2,
    beta x0^2 and gamma x1 x0.  Its message names ``oscillator_precision``
    as the library's does; whether it is raised is this guard's alone.
    """
    try:
        inv_tan, root_over_sin = oscillator_truncations(data, p, P)
        need = 3 if p == 2 else 1
        if root_over_sin.is_zero_mod or root_over_sin.precision - root_over_sin.valuation < need:
            raise PrecisionError("lambda digits not pinned")
        # t * c is pinned above p^0, where its fractional part lives
        for t, c in ((inv_tan, data.dgamma1 * data.x1**2 / 2),
                     (inv_tan, data.dgamma0 * data.x0**2 / 2),
                     (root_over_sin, data.x1 * data.x0)):
            if c != 0 and t.precision + valuation(c, p) < 0:
                raise PrecisionError("precision below p^0: fractional part not pinned")
    except PrecisionError:
        raise PrecisionError(
            f"precision {P} does not pin the oscillator kernel at p = {p}:"
            f" it needs {oscillator_precision(data, p)}"
        ) from None
    cot = inv_tan.representative()
    return QuadraticActionForm(
        alpha=cot * data.dgamma1 / 2 + data.ds1 / (2 * data.s1),
        beta=cot * data.dgamma0 / 2 - data.ds0 / (2 * data.s0),
        gamma=-root_over_sin.representative(),
    )
