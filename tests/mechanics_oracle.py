"""Classical mechanics over Q by polynomial algebra: the oracle of the action forms.

The library builds each kernel from the classical action taken as a
quadratic form in the endpoints (``padicqm.dynamics``).  This route
reaches the same values from the Lagrangian itself: the classical path of
the constant-field system qdot^2/2 + a q as a polynomial, its
Euler-Lagrange residual, and the action as the exact integral of that
polynomial.  Everything is exact algebra on polynomials with rational
coefficients, the same at every place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from padicqm import DegenerateIntervalError, InputError
from padicqm.places import rational

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
