"""Classical mechanics over Q for quadratic Lagrangians.

Everything here is exact symbolic algebra on polynomials with rational
coefficients; the same formulas serve the real and every p-adic
completion, since only norms and characters are place-dependent.
The model system is a particle with constant acceleration a, Lagrangian
qdot^2/2 + a q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateIntervalError, InputError
from .places import rational

Poly = tuple[Fraction, ...]


def _trim(coeffs) -> Poly:
    out = [rational(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out) if out else (Fraction(0),)


def poly_eval(poly: Poly, t: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(poly):
        total = total * t + c
    return total


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_scale(a: Poly, c: Fraction) -> Poly:
    return _trim(c * x for x in a)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_derivative(a: Poly) -> Poly:
    if len(a) == 1:
        return (Fraction(0),)
    return _trim(i * c for i, c in enumerate(a) if i > 0)


def poly_antiderivative(a: Poly) -> Poly:
    return _trim([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)])


def is_zero_poly(a: Poly) -> bool:
    return all(c == 0 for c in a)


@dataclass(frozen=True)
class PolynomialPath:
    """A polynomial trajectory q(t) with exactly matching endpoints."""

    coefficients: Poly
    t_start: Fraction
    t_end: Fraction
    q_start: Fraction
    q_end: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _trim(self.coefficients))
        for name in ("t_start", "t_end", "q_start", "q_end"):
            object.__setattr__(self, name, rational(getattr(self, name)))
        if poly_eval(self.coefficients, self.t_start) != self.q_start:
            raise InputError("path does not hit its start point")
        if poly_eval(self.coefficients, self.t_end) != self.q_end:
            raise InputError("path does not hit its end point")

    def velocity(self) -> Poly:
        return poly_derivative(self.coefficients)


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
        """The form with coefficients nums[i] / den, for any nonzero den."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        form = object.__new__(cls)
        object.__setattr__(form, "den", den // g)
        object.__setattr__(form, "nums", tuple(n // g for n in nums))
        return form

    alpha = property(lambda self: Fraction(self.nums[0], self.den))
    beta = property(lambda self: Fraction(self.nums[1], self.den))
    gamma = property(lambda self: Fraction(self.nums[2], self.den))
    delta = property(lambda self: Fraction(self.nums[3], self.den))
    epsilon = property(lambda self: Fraction(self.nums[4], self.den))
    zeta = property(lambda self: Fraction(self.nums[5], self.den))
    mixed_partial = gamma

    def evaluate(self, x1: Fraction | int, x0: Fraction | int) -> Fraction:
        """S(x1, x0) as a reduced Fraction, summed in integers over den d1^2 d0^2."""
        x1, x0 = rational(x1), rational(x0)
        n1, d1 = x1.numerator, x1.denominator
        n0, d0 = x0.numerator, x0.denominator
        a, b, g, dl, e, z = self.nums
        num = (
            (a * n1 * n1 + dl * n1 * d1 + z * d1 * d1) * d0 * d0
            + (b * n0 * n0 + e * n0 * d0) * d1 * d1
            + g * n1 * n0 * d1 * d0
        )
        return Fraction(num, self.den * d1 * d1 * d0 * d0)


def classical_path_constant_field(
    a: Fraction | int, T: Fraction | int, q0: Fraction | int, q1: Fraction | int
) -> PolynomialPath:
    """Solution of qddot = a from (0, q0) to (T, q1)."""
    a, T, q0, q1 = rational(a), rational(T), rational(q0), rational(q1)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    lin = (q1 - q0 - a * T * T / 2) / T
    return PolynomialPath(
        coefficients=(q0, lin, a / 2),
        t_start=Fraction(0),
        t_end=T,
        q_start=q0,
        q_end=q1,
    )


def euler_lagrange_residual(path: PolynomialPath, a: Fraction | int) -> Poly:
    """qddot - a as a polynomial; identically zero iff the path is classical."""
    accel = poly_derivative(poly_derivative(path.coefficients))
    return poly_add(accel, (-rational(a),))


def action_integral(path: PolynomialPath, a: Fraction | int) -> Fraction:
    """Exact action of the path: integral of qdot^2/2 + a q dt.

    Integration is by polynomial antiderivative evaluated at the
    endpoints, the only integral available for Q_p -> Q_p maps.
    """
    a = rational(a)
    v = path.velocity()
    integrand = poly_add(poly_scale(poly_mul(v, v), Fraction(1, 2)),
                         poly_scale(path.coefficients, a))
    anti = poly_antiderivative(integrand)
    return poly_eval(anti, path.t_end) - poly_eval(anti, path.t_start)


def action_constant_field(
    a: Fraction | int, T: Fraction | int, q0: Fraction | int, q1: Fraction | int
) -> Fraction:
    """Classical action of the constant-field system in closed form."""
    a, T, q0, q1 = rational(a), rational(T), rational(q0), rational(q1)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    return (q1 - q0) ** 2 / (2 * T) + a * (q1 + q0) * T / 2 - a * a * T**3 / 24


def action_form_constant_field(a: Fraction | int, T: Fraction | int) -> QuadraticActionForm:
    """The constant-field action as a quadratic form in the endpoints."""
    # the fold's step lengths are Fractions: they take no call
    a = a if type(a) is Fraction else rational(a)
    T = T if type(T) is Fraction else rational(T)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    an, ad, tn, td = a.numerator, a.denominator, T.numerator, T.denominator
    # coefficients over 24 ad^2 td^3 tn: 1/(2T), 1/(2T), -1/T, aT/2, aT/2, -a^2 T^3/24
    half = 12 * ad * ad * td**4
    lin = 12 * an * ad * td * td * tn * tn
    return QuadraticActionForm.from_integers(
        24 * ad * ad * td**3 * tn,
        (half, half, -2 * half, lin, lin, -an * an * tn**4),
    )
