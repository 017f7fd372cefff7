"""The real-place Gauss integral by two routes that never read lambda_infinity.

At the real place the Gauss integral is the Fresnel integral

    G(a, b) = integral over R of exp(-2 pi i (a x^2 + b x)) dx,   a != 0,

which the library writes as lambda_inf(a) |2a|^(-1/2) chi_inf(-b^2/4a),
with the eighth root lambda_inf(a) read from a table on the sign of a.
Neither route here reads that table:

- :func:`quadrature` integrates the oscillating integrand itself;
- :func:`principal_root` is the Gaussian formula continued to the
  imaginary axis, which takes its eighth root from the principal
  square root.

Both use mpmath, a test extra; the package itself needs neither.
"""

from fractions import Fraction

import mpmath


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def quadrature(a: Fraction | int, b: Fraction | int = 0) -> complex:
    """G(a, b) by ``mpmath.quadosc`` at 15 digits; about 0.3 s a point.

    The integrand exp(-2 pi i (a x^2 + b x)) is integrated as it is, from
    the stationary point x0 = -b/2a out to +inf and, reflected, out to
    -inf.  Its phase is a (x - x0)^2 plus a constant, so it turns by half
    a cycle between consecutive hinted zeros x0 +- sqrt(n/2|a|), and
    quadosc sums those pieces with series extrapolation.
    """
    a, b = Fraction(a), Fraction(b)
    with mpmath.workdps(15):
        A, B = _mpf(a), _mpf(b)
        x0 = -B / (2 * A)
        step = 1 / (2 * abs(A))

        def f(x):
            return mpmath.expjpi(-2 * (A * x * x + B * x))

        right = mpmath.quadosc(
            f, [x0, mpmath.inf], zeros=lambda n: x0 + mpmath.sqrt(n * step)
        )
        left = mpmath.quadosc(
            lambda t: f(-t), [-x0, mpmath.inf], zeros=lambda n: -x0 + mpmath.sqrt(n * step)
        )
        return complex(left + right)


def principal_root(a: Fraction | int, b: Fraction | int = 0) -> complex:
    """G(a, b) by a formula, not a quadrature: sqrt(pi/z) exp(-pi^2 b^2/z), z = 2 pi i a.

    For Re z > 0, integral of exp(-z x^2 - 2 pi i b x) dx is
    sqrt(pi/z) exp(-pi^2 b^2/z) with the principal square root, and G is
    its limit as Re z -> 0.  On the imaginary axis, arg z = +-pi/2, the
    principal root is continuous (its cut is the negative real axis), so
    the limit is the formula itself at z = 2 pi i a: no damping and no
    extrapolation.  Evaluated at 50 digits; the eighth root
    exp(-i pi/4 sign a) comes from ``mpmath.sqrt``.
    """
    a, b = Fraction(a), Fraction(b)
    with mpmath.workdps(50):
        z = 2j * mpmath.pi * _mpf(a)
        return complex(mpmath.sqrt(mpmath.pi / z) * mpmath.exp(-mpmath.pi**2 * _mpf(b) ** 2 / z))
