"""Classical actions over Q of quadratic Lagrangians, as forms in the endpoints.

A form holds exact rational coefficients; the same form serves the real
and every p-adic completion, since only norms and characters are
place-dependent.  The model system is a particle with constant
acceleration a, Lagrangian qdot^2/2 + a q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateIntervalError, InputError
from .places import _unchecked, rational


@dataclass(frozen=True, init=False)
class QuadraticActionForm:
    """Classical action as a quadratic form in the endpoints.

    S(x1, x0) = alpha x1^2 + beta x0^2 + gamma x1 x0 + delta x1
                + epsilon x0 + zeta,
    with x1 the later endpoint.  The mixed partial d^2 S/dx1 dx0 is
    gamma; consumers that divide by it require gamma != 0.

    The form is held as six integer numerators ``nums`` (alpha..zeta)
    over one denominator ``den`` > 0 with gcd(den, *nums) = 1, so equal
    forms have equal fields, coefficient by coefficient.
    """

    den: int
    nums: tuple[int, int, int, int, int, int]

    def __init__(
        self, alpha: Fraction | int, beta: Fraction | int, gamma: Fraction | int,
        delta: Fraction | int = 0, epsilon: Fraction | int = 0, zeta: Fraction | int = 0,
    ):
        coeffs = [rational(c) for c in (alpha, beta, gamma, delta, epsilon, zeta)]
        # the lcm of reduced denominators leaves no factor common to all
        den = math.lcm(*(c.denominator for c in coeffs))
        object.__setattr__(self, "den", den)
        object.__setattr__(
            self, "nums", tuple(c.numerator * (den // c.denominator) for c in coeffs)
        )

    @classmethod
    def from_integers(cls, den: int, nums: tuple[int, ...]) -> QuadraticActionForm:
        """The form with coefficients nums[i] / den: six integers over a nonzero integer.

        Any other den or nums raises InputError; the types are left to
        ``math.gcd``, whose TypeError on a non-integer becomes one.
        """
        try:
            n0, n1, n2, n3, n4, n5 = nums
            g = math.gcd(den, n0, n1, n2, n3, n4, n5)
        except (TypeError, ValueError):
            raise InputError(f"not six integers over an integer: {nums!r} over {den!r}") from None
        if not den:
            raise InputError(f"zero denominator: {nums!r} over 0")
        if den < 0:
            g = -g
        return _unchecked(cls, den=den // g,
                          nums=(n0 // g, n1 // g, n2 // g, n3 // g, n4 // g, n5 // g))

    alpha = property(lambda self: Fraction(self.nums[0], self.den))
    beta = property(lambda self: Fraction(self.nums[1], self.den))
    gamma = property(lambda self: Fraction(self.nums[2], self.den))
    delta = property(lambda self: Fraction(self.nums[3], self.den))
    epsilon = property(lambda self: Fraction(self.nums[4], self.den))
    zeta = property(lambda self: Fraction(self.nums[5], self.den))
    mixed_partial = gamma

    def evaluate(self, x1: Fraction | int, x0: Fraction | int) -> Fraction:
        """S(x1, x0), the polynomial above, in Fractions."""
        x1, x0 = rational(x1), rational(x0)
        return (self.alpha * x1 * x1 + self.beta * x0 * x0 + self.gamma * x1 * x0
                + self.delta * x1 + self.epsilon * x0 + self.zeta)


def action_form_constant_field(a: Fraction | int, T: Fraction | int) -> QuadraticActionForm:
    """The constant-field action as a quadratic form in the endpoints."""
    # a Fraction takes no call
    a = a if type(a) is Fraction else rational(a)
    T = T if type(T) is Fraction else rational(T)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    return _constant_field_form(a.numerator, a.denominator, T.numerator, T.denominator)


def _constant_field_form(an: int, ad: int, tn: int, td: int) -> QuadraticActionForm:
    """The constant-field form at a = an/ad and T = tn/td, for ad, td > 0 and tn != 0.

    Neither quotient need be reduced: the integers below are homogeneous
    in (an, ad), of degree 2, and in (tn, td), of degree 4, so the gcd of
    ``from_integers`` takes every representative to the same form.
    """
    # coefficients over 24 ad^2 td^3 tn: 1/(2T), 1/(2T), -1/T, aT/2, aT/2, -a^2 T^3/24
    half = 12 * ad * ad * td**4
    lin = 12 * an * ad * td * td * tn * tn
    return QuadraticActionForm.from_integers(
        24 * ad * ad * td**3 * tn,
        (half, half, -2 * half, lin, lin, -an * an * tn**4),
    )
