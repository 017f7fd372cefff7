"""Gauss integrals over Q_v and their independent numerical oracle.

The closed form of the quadratic character integral over a completion,

    integral of chi_v(a x^2 + b x) dx  =  lambda_v(a) |2a|_v^{-1/2} chi_v(-b^2/4a),

is evaluated exactly.  Its ball-restricted p-adic version reduces to
complete quadratic Gauss sums modulo p^L, also evaluated exactly.  A
numerical oracle checks both over p-adic balls: a Haar-measure coset
enumeration.  At the real place the tests check the closed form against
a quadrature and against the principal-root formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat

from .characters import Amplitude, Phase, chi, lambda_v, legendre
from .errors import DegenerateQuadraticError, InputError, OracleCapError
from .places import (
    Place, fractional_part, integer, norm, p_split, rational, require_place, require_prime,
    valuation,
)

#: most cosets the Haar oracle enumerates; above it raises OracleCapError
COSET_CAP = 10**6


@dataclass(frozen=True)
class BallSpec:
    """A p-adic ball |x|_p <= p^N partitioned into cosets of p^M Z_p.

    The partition has p^(N+M) cosets, each of Haar measure p^(-M).
    """

    prime: int
    radius_exponent: int
    resolution_exponent: int

    def __post_init__(self):
        require_prime(self.prime)
        if integer(self.resolution_exponent) < -integer(self.radius_exponent):
            raise InputError("resolution must be at least as fine as the ball")

    @property
    def n_cosets(self) -> int:
        return self.prime ** (self.radius_exponent + self.resolution_exponent)


def gauss_full(place: Place, a: Fraction | int, b: Fraction | int = 0) -> Amplitude:
    """Closed form of the full-line Gauss integral over Q_v.

    Requires a != 0; the degenerate linear case belongs to the ball
    integrals below.
    """
    require_place(place)
    a, b = rational(a), rational(b)
    if a == 0:
        raise DegenerateQuadraticError(
            "quadratic coefficient is zero; use quad_char_integral_ball"
        )
    modulus_sq = 1 / norm(2 * a, place)
    phase = lambda_v(place, a) + chi(place, -b * b / (4 * a))
    return Amplitude(modulus_sq, phase)


def _residue(q: Fraction, modulus: int) -> int:
    """Representative of a p-integral rational q modulo p**k (modulus = p**k)."""
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def _square_shift(u: int, h: int, p: int, L: int) -> Phase:
    """The phase c/p^L with c = -h^2/u mod p^L, for a p-adic unit u.

    With h = p^j h', c = p^(2j) c' for c' = -h'^2/u mod p^(L - 2j), so the
    phase is c'/p^(L - 2j), and 0 once 2j >= L, that is once p^ceil(L/2)
    divides h: no product wider than p^(L - 2j) is reduced.
    """
    if h % p ** ((L + 1) // 2) == 0:
        return Phase()
    j, h = p_split(h, p)
    mod = p ** (L - 2 * j)
    h %= mod
    return Phase(Fraction(-h * h * pow(u, -1, mod) % mod, mod))


def _complete_gauss_sum(a: int, b: int, p: int, L: int) -> Amplitude:
    """Exact value of sum over x mod p^L of exp(2 pi i (a x^2 + b x)/p^L).

    Classical case analysis: strip common p powers, then complete the
    square; the unit-coefficient pure sums are p^{L/2} (even L) and
    Legendre-twisted quadratic Gauss sums (odd L); p = 2 contributes
    eighth roots of unity.  Evaluated without the lambda machinery so it
    serves as an independent route to the same values.
    """
    if L == 0:
        return Amplitude.one()
    mod = p**L
    a %= mod
    b %= mod
    if a == 0:
        if b == 0:
            return Amplitude(Fraction(mod) ** 2, Phase())
        return Amplitude.zero()
    j, aj = p_split(a, p)
    if j > 0:
        if b % p**j != 0:
            return Amplitude.zero()
        inner = _complete_gauss_sum(aj, b // p**j, p, L - j)
        return Amplitude(Fraction(p) ** (2 * j), Phase()) * inner
    # now p does not divide a
    if p != 2:
        shift = _square_shift(4 * a, b, p, L)
        if L % 2 == 0:
            return Amplitude(Fraction(mod), shift)
        eps = legendre(a, p)
        if p % 4 == 1:
            quarter = Fraction(0) if eps == 1 else Fraction(1, 2)
        else:
            quarter = Fraction(1, 4) if eps == 1 else Fraction(3, 4)
        return Amplitude(Fraction(mod), shift + Phase(quarter))
    # p = 2, a odd
    if L == 1:
        return Amplitude(Fraction(4), Phase()) if b % 2 == 1 else Amplitude.zero()
    if b % 2 == 1:
        return Amplitude.zero()
    shift = _square_shift(a, b // 2, p, L)
    if L % 2 == 0:
        eighth = Fraction(1, 8) if a % 4 == 1 else Fraction(7, 8)
    else:
        eighth = Fraction(a % 8, 8)
    return Amplitude(Fraction(2 * mod), shift + Phase(eighth))


def minimal_resolution(p: int, alpha: Fraction, beta: Fraction, N: int) -> int:
    """Smallest M making chi_p(alpha x^2 + beta x) constant on cosets.

    Constancy on x + p^M Z_p for every |x|_p <= p^N requires
    |2 alpha x + beta|_p <= p^M over the ball and |alpha|_p <= p^{2M}.
    """
    require_prime(p)
    alpha, beta, N = rational(alpha), rational(beta), integer(N)
    v2 = 1 if p == 2 else 0
    bounds = [-N]
    if alpha != 0:
        va = valuation(alpha, p)
        bounds.append(math.ceil(-va / 2))
        bounds.append(N - v2 - va)
    if beta != 0:
        bounds.append(-valuation(beta, p))
    return max(bounds)


def quad_char_integral_ball(
    p: int, alpha: Fraction | int, beta: Fraction | int, N: int
) -> Amplitude:
    """Exact integral of chi_p(alpha x^2 + beta x) over the ball |x|_p <= p^N.

    At resolution M the integrand is constant on each coset, so the
    integral is the measure-weighted coset sum; substituting x = r/p^N
    turns that sum into a complete quadratic Gauss sum mod p^L, where
    p^L is the common denominator of the coset phases.  The value is
    then p^{N-L} times the complete sum -- exact for every input.
    """
    require_prime(p)
    alpha, beta, N = rational(alpha), rational(beta), integer(N)
    s1 = 0
    if alpha != 0:
        s1 = max(0, 2 * N - valuation(alpha, p))
    s2 = 0
    if beta != 0:
        s2 = max(0, N - valuation(beta, p))
    L = max(s1, s2)
    if L == 0:
        # integrand is identically 1 on the ball; value = measure = p^N
        return Amplitude(Fraction(p) ** (2 * N), Phase())
    mod = p**L
    # L >= 2N - v(alpha) and L >= N - v(beta): both arguments are p-integral
    a_int = _residue(alpha * Fraction(p) ** (L - 2 * N), mod) if alpha else 0
    b_int = _residue(beta * Fraction(p) ** (L - N), mod) if beta else 0
    g = _complete_gauss_sum(a_int, b_int, p, L)
    scale = Amplitude(Fraction(p) ** (2 * (N - L)), Phase())
    return scale * g


def stabilization_threshold(p: int, alpha: Fraction, beta: Fraction) -> int:
    """Ball radius exponent beyond which the ball integral equals the full one.

    Sufficient bound: the ball must contain the critical point -beta/2alpha
    and the concentration scale |2 alpha|^{-1/2}.
    """
    alpha, beta = rational(alpha), rational(beta)
    if alpha == 0:
        raise DegenerateQuadraticError("threshold defined for quadratic phases only")
    v2 = 1 if p == 2 else 0
    va = valuation(alpha, p)
    candidates = [math.ceil((v2 + va + 1) / 2)]
    if beta != 0:
        candidates.append(v2 + va - valuation(beta, p))
    return max(candidates)


@dataclass(frozen=True)
class QuadraticCharacter:
    """The integrand chi_p(alpha x^2 + beta x), enumerated over a ball's cosets.

    ``coset_angles`` works on integer coset indices, which is all the Haar
    oracle reads.
    """

    p: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha))
        object.__setattr__(self, "beta", rational(self.beta))

    def coset_angles(self, ball: BallSpec) -> list[float]:
        """Angles 2 pi {x}_p at the representatives r p^(-N), r = 0 .. n_cosets - 1.

        For integer r, {r^2 A + r B}_p = r^2 {A}_p + r {B}_p mod 1, with
        A = alpha p^(-2N) and B = beta p^(-N).  Two ``fractional_part``
        calls give {A}_p = c2/m and {B}_p = c1/m over one denominator
        m = p^L, and each coset's phase is k_r/m, k_r = c2 r^2 + c1 r: two
        running sums, as the second difference of k_r is the constant 2 c2.
        (k_r mod m)/m and ``float(Fraction(k_r, m))`` are the same correctly
        rounded float, and ``cmath.exp`` of i theta is (cos theta, sin theta),
        so cos and sin of each angle are bit for bit the character's value
        at each representative.
        """
        if ball.prime != self.p:
            raise InputError(
                f"ball prime {ball.prime} disagrees with the character's prime {self.p}"
            )
        scale = Fraction(self.p) ** ball.radius_exponent
        quad = fractional_part(self.alpha / (scale * scale), self.p)
        lin = fractional_part(self.beta / scale, self.p)
        m = max(quad.denominator, lin.denominator)
        c2 = quad.numerator * (m // quad.denominator)
        c1 = lin.numerator * (m // lin.denominator)
        n = ball.n_cosets
        steps = accumulate(repeat(2 * c2, n - 2), initial=c2 + c1)
        tau = 2 * math.pi
        return [tau * (k % m / m) for k in islice(accumulate(steps, initial=0), n)]


def quadratic_char_fn(p: int, alpha: Fraction, beta: Fraction) -> QuadraticCharacter:
    """chi_p(alpha x^2 + beta x), for feeding the Haar oracle.

    On a ball the oracle enumerates it over integer coset residues from
    two ``fractional_part`` calls (``QuadraticCharacter.coset_angles``).
    """
    return QuadraticCharacter(p, alpha, beta)


def haar_oracle(p: int, f: QuadraticCharacter, ball: BallSpec) -> complex:
    """Numerical Haar integral of the character f over the ball by coset enumeration.

    Takes the angle of each coset from integer residues (``coset_angles``)
    and weights by the coset measure p^{-M}.  Deterministic: the cosines
    and the sines are each summed by ``math.fsum``, correctly rounded and
    so independent of the enumeration order.
    """
    if ball.prime != p:
        raise InputError("ball prime disagrees with p")
    if ball.n_cosets > COSET_CAP:
        raise OracleCapError(f"{ball.n_cosets} cosets exceed the cap of {COSET_CAP}")
    angles = f.coset_angles(ball)
    re, im = map(math.cos, angles), map(math.sin, angles)
    return complex(math.fsum(re), math.fsum(im)) * float(p) ** (-ball.resolution_exponent)

