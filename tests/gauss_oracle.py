"""Gauss integrals in Fraction arithmetic: the oracle of ``gauss_full`` and
``quad_char_integral_ball``.

The library reads each coefficient through one integer split of its
numerator and denominator, forms the closed form and the ball prelude in
integers, and reads the ball's zero cases from the valuations.  This
route keeps the ``Fraction`` formulas the library used before: 1/|2a|,
lambda_v(a) plus chi_v(-b^2/4a) as ``Phase`` values, the ball residues
of alpha p^(L-2N) and beta p^(L-N) through ``Fraction(p)**k``, the zero
cases of the complete Gauss sum, and its p^(2j) strip and the
p^(2(N-L)) scale as ``Amplitude`` products.
"""

from fractions import Fraction

from padicqm import Amplitude, DegenerateQuadraticError, Phase, chi, lambda_v, norm, valuation
from padicqm.gauss import _complete_gauss_sum
from padicqm.places import p_split


def gauss_full(place, a, b=0) -> Amplitude:
    """lambda_v(a) |2a|_v^{-1/2} chi_v(-b^2/4a) as Fractions and Phases."""
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise DegenerateQuadraticError("quadratic coefficient is zero")
    return Amplitude(1 / norm(2 * a, place), lambda_v(place, a) + chi(place, -b * b / (4 * a)))


def _residue(q: Fraction, modulus: int) -> int:
    """Representative of a p-integral rational q modulo p**k (modulus = p**k)."""
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def complete_gauss_sum(a: int, b: int, p: int, L: int) -> Amplitude:
    """The complete Gauss sum mod p^L of any integers a and b.

    A zero a leaves a linear sum, p^L or 0; a = p^j a' with a' a unit
    leaves p^j times the sum of a' mod p^(L-j), or 0 unless p^j divides b.
    The unit case is the library's ``_complete_gauss_sum``.
    """
    if L == 0:
        return Amplitude.one()
    mod = p**L
    a %= mod
    b %= mod
    if a == 0:
        return Amplitude(Fraction(mod) ** 2, Phase()) if b == 0 else Amplitude.zero()
    j, aj = p_split(a, p)
    if b % p**j != 0:
        return Amplitude.zero()
    inner = _complete_gauss_sum(aj, b // p**j, p, L - j)
    return Amplitude(Fraction(p) ** (2 * j), Phase()) * inner


def quad_char_integral_ball(p: int, alpha, beta, N: int) -> Amplitude:
    """p^(2(N-L)) times the complete Gauss sum mod p^L of the ball's residues."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    s1 = max(0, 2 * N - valuation(alpha, p)) if alpha else 0
    s2 = max(0, N - valuation(beta, p)) if beta else 0
    L = max(s1, s2)
    if L == 0:
        return Amplitude(Fraction(p) ** (2 * N), Phase())
    mod = p**L
    a_int = _residue(alpha * Fraction(p) ** (L - 2 * N), mod) if alpha else 0
    b_int = _residue(beta * Fraction(p) ** (L - N), mod) if beta else 0
    g = complete_gauss_sum(a_int, b_int, p, L)
    return Amplitude(Fraction(p) ** (2 * (N - L)), Phase()) * g
