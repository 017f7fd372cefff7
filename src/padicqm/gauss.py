"""Gauss integrals over Q_v and their independent numerical oracle.

The closed form of the quadratic character integral over a completion,

    integral of chi_v(a x^2 + b x) dx  =  lambda_v(a) |2a|_v^{-1/2} chi_v(-b^2/4a),

is evaluated exactly.  Its ball-restricted p-adic version reduces to
complete quadratic Gauss sums modulo p^L, also evaluated exactly.  A
numerical oracle checks both over p-adic balls: a Haar-measure coset
sum, formed exactly in Z[zeta_m], m = p^L, from the residue classes of
cosets that do not cancel there, and rounded only at the end, without
completing the square.  At the real place the tests check the closed
form against a quadrature and against the principal-root formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from operator import mul, sub

from .characters import EIGHTH_PHASES, ZERO_PHASE, Amplitude, Phase, gauss_factor, legendre
from .errors import DegenerateQuadraticError, InputError, OracleCapError
from .places import (
    Place, _unchecked, fractional_residue, integer, p_split, rational, require_instance,
    require_place, require_prime, unit_split,
)

#: most cosets the Haar oracle sums; above it raises OracleCapError.  It
#: bounds the count list of the single-residue classes (m <= max(p, 2 n)
#: entries) and, at m = p, the one pass over B = n classes
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
    integrals below.  |2a|^{-1} and lambda_v(a) come from
    :func:`~padicqm.characters.gauss_factor` on a's numerator and
    denominator, chi_v(-b^2/4a) from the integers -bn^2 ad / (4 an bd^2),
    unreduced.
    """
    require_place(place)
    a, b = rational(a), rational(b)
    if a == 0:
        raise DegenerateQuadraticError(
            "quadratic coefficient is zero; use quad_char_integral_ball"
        )
    an, ad = a.numerator, a.denominator
    (mn, md), phase = gauss_factor(place, an, ad)
    if b:
        bn, bd = b.numerator, b.denominator
        # -b^2/4a over a positive denominator: the sign of an goes on the numerator
        num = -bn * bn * ad if an > 0 else bn * bn * ad
        den = 4 * abs(an) * bd * bd
        # the real character exp(-2 pi i x) has phase -x, the p-adic one {x}_p
        if place.p is None:
            k, m = -num, den
        else:
            k, m = fractional_residue(num, den, place.p)
        if k:
            q = phase.value
            d = q.denominator * m
            phase = _unchecked(Phase, value=Fraction((q.numerator * m + k * q.denominator) % d, d))
    # the fields are checked values: a reduced phase in [0, 1) and a positive modulus
    return _unchecked(Amplitude, modulus_sq=Fraction(mn, md), phase=phase)


def _scaled(m: int, p: int, e: int) -> Fraction:
    """m * p**e for integers m and e, e of either sign."""
    return Fraction(m * p**e) if e >= 0 else Fraction(m, p**-e)


def _square_shift(u: int, h: int, p: int, L: int, eighths: int) -> Phase:
    """The phase c/p^L + eighths/8 with c = -h^2/u mod p^L, for a p-adic unit u.

    With h = p^j h', c = p^(2j) c' for c' = -h'^2/u mod p^(L - 2j), so the
    phase is c'/p^(L - 2j), and 0 once 2j >= L, that is once p^ceil(L/2)
    divides h: no product wider than p^(L - 2j) is reduced.  The eighths
    are the Gauss sum's root of unity, added over the same integers.
    """
    if h % p ** ((L + 1) // 2) == 0:
        return EIGHTH_PHASES[eighths % 8]
    j, h = p_split(h, p)
    mod = p ** (L - 2 * j)
    h %= mod
    c = -h * h * pow(u, -1, mod) % mod
    return _unchecked(Phase, value=Fraction((8 * c + eighths * mod) % (8 * mod), 8 * mod))


def _complete_gauss_sum(a: int, b: int, p: int, L: int) -> Amplitude:
    """Exact value of sum over x mod p^L of exp(2 pi i (a x^2 + b x)/p^L).

    For a p-adic unit a and residues a, b mod p^L, L >= 1.  Complete the
    square: the pure sums are p^{L/2} (even L) and Legendre-twisted
    quadratic Gauss sums (odd L); p = 2 contributes eighth roots of unity.
    Evaluated without the lambda machinery so it serves as an independent
    route to the same values.
    """
    mod = p**L
    if p != 2:
        eighths = 0
        if L % 2:
            # at odd L the sum of a unit a is sqrt(p^L) times (a/p), times i at p = 3 mod 4
            eighths = (0 if p % 4 == 1 else 2) + (0 if legendre(a, p) == 1 else 4)
        return _unchecked(Amplitude, modulus_sq=Fraction(mod),
                          phase=_square_shift(4 * a, b, p, L, eighths))
    # p = 2, a odd
    if L == 1:
        if b % 2 == 1:
            return _unchecked(Amplitude, modulus_sq=Fraction(4), phase=ZERO_PHASE)
        return Amplitude.zero()
    if b % 2 == 1:
        return Amplitude.zero()
    if L % 2 == 0:
        eighths = 1 if a % 4 == 1 else 7
    else:
        eighths = a % 8
    return _unchecked(Amplitude, modulus_sq=Fraction(2 * mod),
                      phase=_square_shift(a, b // 2, p, L, eighths))


def minimal_resolution(p: int, alpha: Fraction, beta: Fraction, N: int) -> int:
    """A resolution M at which chi_p(alpha x^2 + beta x) is constant on cosets.

    Sufficient: chi_p is constant on x + p^M Z_p for every |x|_p <= p^N
    once |2 alpha x + beta|_p <= p^M over the ball and |alpha|_p <= p^{2M}.
    At odd p it is also the least such M >= -N.  At p = 2 it can be one
    more than needed, as y^2 = y mod 2 lets the halves of the two terms
    cancel: chi_2(x^2/2 + x/14) is 1 on all of Z_2, yet M = 1 at N = 0.
    """
    require_prime(p)
    alpha, beta, N = rational(alpha), rational(beta), integer(N)
    v2 = 1 if p == 2 else 0
    bounds = [-N]
    if alpha != 0:
        va = unit_split(alpha, p)[0]
        bounds.append(math.ceil(-va / 2))
        bounds.append(N - v2 - va)
    if beta != 0:
        bounds.append(-unit_split(beta, p)[0])
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
    L and the residues of alpha p^(L-2N) and beta p^(L-N) mod p^L come
    from one split of each coefficient.  The sum vanishes unless the
    first residue is a unit, that is unless L = 2N - v(alpha).
    """
    require_prime(p)
    alpha, beta, N = rational(alpha), rational(beta), integer(N)
    L = 0
    if alpha:
        va, an, ad = unit_split(alpha, p)
        L = max(L, 2 * N - va)
    if beta:
        vb, bn, bd = unit_split(beta, p)
        L = max(L, N - vb)
    if L == 0:
        # integrand is identically 1 on the ball; value = measure = p^N
        return _unchecked(Amplitude, modulus_sq=_scaled(1, p, 2 * N), phase=ZERO_PHASE)
    if not alpha or va > 2 * N - L:
        # then L = N - v(beta) > 2N - v(alpha): b_int is a unit and p divides
        # a_int, so the p terms over each x mod p^(L-1) cancel
        return Amplitude.zero()
    mod = p**L
    # L = 2N - v(alpha) makes a_int a unit; L >= N - v(beta) keeps b_int integral
    a_int = an * pow(ad, -1, mod) % mod
    b_int = bn * pow(bd, -1, mod) * pow(p, vb + L - N, mod) % mod if beta else 0
    g = _complete_gauss_sum(a_int, b_int, p, L)
    # the complete sum's squared modulus is an integer; a zero sum keeps its zero phase
    return _unchecked(Amplitude, modulus_sq=_scaled(g.modulus_sq.numerator, p, 2 * (N - L)),
                      phase=g.phase)


def stabilization_threshold(p: int, alpha: Fraction, beta: Fraction) -> int:
    """Ball radius exponent beyond which the ball integral equals the full one.

    Sufficient bound: the ball must contain the critical point -beta/2alpha
    and the concentration scale |2 alpha|^{-1/2}.
    """
    require_prime(p)
    alpha, beta = rational(alpha), rational(beta)
    if alpha == 0:
        raise DegenerateQuadraticError("threshold defined for quadratic phases only")
    v2 = 1 if p == 2 else 0
    va = unit_split(alpha, p)[0]
    candidates = [math.ceil((v2 + va + 1) / 2)]
    if beta != 0:
        candidates.append(v2 + va - unit_split(beta, p)[0])
    return max(candidates)


@dataclass(frozen=True)
class QuadraticCharacter:
    """The integrand chi_p(alpha x^2 + beta x), summed over a ball's cosets.

    ``power_coordinates`` reads m = p^L and the integer residues of the
    coset phases off one ``unit_split`` of alpha and one of beta, and
    returns the exact coset sum in Z[zeta_m], which is all the Haar
    oracle reads.
    """

    p: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        require_prime(self.p)
        object.__setattr__(self, "alpha", rational(self.alpha))
        object.__setattr__(self, "beta", rational(self.beta))

    def power_coordinates(self, ball: BallSpec) -> tuple[dict[int, int], int]:
        """The coset sum over the ball in the power basis of Z[zeta_m]: {j: c_j} and m.

        For integer r, {r^2 A + r B}_p = r^2 {A}_p + r {B}_p mod 1, with
        A = alpha p^(-2N) and B = beta p^(-N).  One ``unit_split`` of each
        coefficient, alpha = p^va an/ad, gives {A}_p = (an/ad mod p^L2)/p^L2
        at L2 = 2N - va > 0, and {A}_p = 0 at L2 <= 0 or alpha = 0; beta
        gives {B}_p the same way at L1 = N - v(beta).  Over m = p^L,
        L = max(1, L2, L1), they are c2/m and c1/m with
        c2 = an ad^-1 p^(L - L2) mod m and c1 the same from beta, and the
        coset of representative r p^(-N), r = 0 .. n_cosets - 1, has phase
        k_r/m, k_r = c2 r^2 + c1 r.  Returns the nonzero coordinates c_j of
        sum_r zeta_m^(k_r) on the basis zeta_m^j, j < m - m/p, in
        ascending j, and m.

        Above ``COSET_CAP`` cosets ``OracleCapError`` is raised, decided
        from e = N + M alone once that reaches the cap's bit length, so no
        larger power is formed.  With n = n_cosets = p^e,
        k_(r+nt) - k_r = (2 c2 r n + c1 n) t + c2 n^2 t^2, so chi is
        constant on every coset exactly when 2 c2 n = 0 and
        (c1 + c2 n) n = 0 mod m.  Otherwise the coset sum is not the Haar
        integral, and ``InputError`` is raised.  At L > 1 one of c2 and c1
        is a unit, so constancy needs m | 2 n, or m | n: m <= max(p, 2 n),
        that is L <= max(1, e + [p = 2]).  A larger L is refused from the
        valuations alone, before p^L or a residue is formed.

        The k_r are taken a residue class at a time.  As p^(L - L2) is
        the power of p in c2, B = min(n, p^ceil(L2/2)), or 1 at L2 <= 0,
        is the least power of p with c2 B^2 = 0 mod m, or n if that is
        less.  For r = s + B t, s < B, k_r = k_s + t B u_s mod m
        with u_s = 2 c2 s + c1, and n u_s = 0 mod m, so the T = n/B terms
        of each s hit every residue = k_s mod G_s = gcd(B u_s, m) equally
        often.  As sum_t zeta_m^(j + t m/p) = 0, a class with G_s < m,
        which divides m/p, sums to 0: only the classes of one residue,
        u_s = 0 mod m/B, add T zeta_m^(k_s).  When every class is one
        residue (T = 1, or B g0 = m for g0 = gcd(2 c2, c1, m/B)), the
        k_s, about as many as m, come from two running sums, as their
        second difference is the constant 2 c2, and are counted into a
        list of m; at m = p this is one pass over B = n.  Otherwise
        u_s = g0 (a2 s + c1/g0) with a2 = 2 c2/g0, and the classes of one
        residue are the s = s0 mod R, R = m/(B g0), when p does not
        divide a2, and none when it does: no list of m is made.

        The coordinate j of sum_j c_j zeta_m^j is the integer
        c_j - c_((p-1) m/p + j mod m/p), as
        zeta_m^((p-1) m/p + i) = -sum_(t < p-1) zeta_m^(i + t m/p).
        """
        require_instance(ball, BallSpec)
        if ball.prime != self.p:
            raise InputError(
                f"ball prime {ball.prime} disagrees with the character's prime {self.p}"
            )
        p, N = self.p, ball.radius_exponent
        # p^e >= 2^e > COSET_CAP once e reaches its bit length: no power is formed there
        e = N + ball.resolution_exponent
        if e >= COSET_CAP.bit_length() or ball.n_cosets > COSET_CAP:
            raise OracleCapError(f"{p}^{e} cosets exceed the cap of {COSET_CAP}")
        # {A}_p is (an/ad mod p^L2)/p^L2 where L2 > 0, and 0 otherwise; {B}_p likewise
        L2 = L1 = 0
        if self.alpha:
            va, an, ad = unit_split(self.alpha, p)
            L2 = 2 * N - va
        if self.beta:
            vb, bn, bd = unit_split(self.beta, p)
            L1 = N - vb
        L = max(1, L2, L1)
        n = ball.n_cosets
        # constancy on the cosets bounds m = p^L by max(p, 2 n): no larger power is formed
        varies = L > max(1, e + (p == 2))
        if not varies:
            m = p**L
            c2 = an * pow(ad, -1, m) * p ** (L - L2) % m if L2 > 0 else 0
            c1 = bn * pow(bd, -1, m) * p ** (L - L1) % m if L1 > 0 else 0
            varies = 2 * c2 * n % m or (c1 + c2 * n) * n % m
        if varies:
            raise InputError(
                f"chi_{p}({self.alpha} x^2 + {self.beta} x) varies on the cosets of "
                f"{p}^{ball.resolution_exponent} Z_{p}: its coset sum is no Haar integral"
            )
        B = min(n, p ** max(0, (L2 + 1) // 2))
        T = n // B
        g0 = math.gcd(2 * c2, c1, m // B)
        q = m // p
        w = m - q
        if T == 1 or B * g0 == m:
            counts = [0] * m
            steps = accumulate(repeat(2 * c2, B - 2), initial=c2 + c1)
            for k in islice(accumulate(steps, initial=0), B):
                counts[k % m] += T
            coords = list(map(sub, counts, counts[w:] * (p - 1)))
            return dict(compress(enumerate(coords), coords)), m
        coords = {}
        a2 = 2 * c2 // g0
        if a2 % p:
            R = m // (B * g0)
            for s in range(-(c1 // g0) * pow(a2, -1, R) % R, B, R):
                k = (c2 * s + c1) * s % m
                if k < w:
                    coords[k] = coords.get(k, 0) + T
                else:
                    for j in range(k - w, w, q):
                        coords[j] = coords.get(j, 0) - T
        return {j: coords[j] for j in sorted(coords) if coords[j]}, m


def quadratic_char_fn(p: int, alpha: Fraction, beta: Fraction) -> QuadraticCharacter:
    """chi_p(alpha x^2 + beta x), for feeding the Haar oracle.

    On a ball the oracle sums it over integer coset residues read off one
    split of each coefficient (``QuadraticCharacter.power_coordinates``).
    """
    return QuadraticCharacter(p, alpha, beta)


def haar_oracle(p: int, f: QuadraticCharacter, ball: BallSpec) -> complex:
    """Numerical Haar integral of the character f over the ball by coset counting.

    ``power_coordinates`` gives the coset sum exactly, as the nonzero
    coordinates c_j of an element of Z[zeta_m], m = p^L, on the power
    basis zeta_m^j.  Each is rounded: c_j times the cosine and the sine
    of 2 pi j/m, in ascending j, summed by ``math.fsum`` and weighted by
    the coset measure p^{-M}.  Raises ``OracleCapError`` above
    ``COSET_CAP`` cosets and ``InputError`` unless f is constant on the
    cosets.
    """
    require_prime(p)
    require_instance(f, QuadraticCharacter)
    require_instance(ball, BallSpec)
    if ball.prime != p:
        raise InputError("ball prime disagrees with p")
    coords, m = f.power_coordinates(ball)
    tau = 2 * math.pi
    angles = [tau * (j / m) for j in coords]
    re = math.fsum(map(mul, coords.values(), map(math.cos, angles)))
    im = math.fsum(map(mul, coords.values(), map(math.sin, angles)))
    return complex(re, im) * float(p) ** (-ball.resolution_exponent)
