"""The Haar integral by evaluating the character at each coset representative: the oracle of ``haar_oracle``.

The library sums the cosets a residue class at a time into the exact
power-basis coordinates of their sum in Z[zeta_m]
(``QuadraticCharacter.power_coordinates``) and rounds only those.  This
route evaluates the exact phase of chi_p(alpha x^2 + beta x) at every
representative r p^(-N) through ``fractional_part``, takes each value
by ``cmath.exp``, and sums the values by ``math.fsum`` times the coset
measure p^(-M).

``running_sum_counts`` counts the cosets at each phase, one residue per
coset from two running sums.  ``power_coordinates`` reduces any such
counts to the power basis over the whole list: the integer reference of
the library's coordinates.  ``power_basis_sum`` rounds them, which
``haar_oracle`` must match bit for bit.
"""

import cmath
import math
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from operator import sub

from padicqm import BallSpec, QuadraticCharacter
from padicqm.places import fractional_part


def representatives(ball: BallSpec):
    """Coset representatives sum(x_i p^i, -N <= i < M), ascending."""
    scale = Fraction(ball.prime) ** (-ball.radius_exponent)
    for r in range(ball.n_cosets):
        yield r * scale


def phase(f: QuadraticCharacter, x: Fraction) -> Fraction:
    """The exact phase {alpha x^2 + beta x}_p of the character at x."""
    return fractional_part(f.alpha * x * x + f.beta * x, f.p)


def phases(f: QuadraticCharacter, ball: BallSpec) -> list[Fraction]:
    """The phase at every representative of the ball, in order."""
    return [phase(f, x) for x in representatives(ball)]


def haar_sum(qs: list[Fraction], ball: BallSpec) -> complex:
    """The measure-weighted sum of exp(2 pi i q) over the phases, real and imaginary parts by ``fsum``."""
    vals = [cmath.exp(2j * math.pi * float(q)) for q in qs]
    total = complex(math.fsum(z.real for z in vals), math.fsum(z.imag for z in vals))
    return total * float(ball.prime) ** (-ball.resolution_exponent)


def haar_integral(f: QuadraticCharacter, ball: BallSpec) -> complex:
    """The Haar integral of f over the ball from the phase at every representative."""
    return haar_sum(phases(f, ball), ball)


def varies_on_a_coset(f: QuadraticCharacter, ball: BallSpec) -> bool:
    """Whether chi differs at x and x + t p^M for some representative x and t in {1, 2}.

    Each pair lies in one coset of p^M Z_p, so True shows that the
    character is not constant on the ball's cosets.
    """
    step = Fraction(f.p) ** ball.resolution_exponent
    return any(phase(f, x) != phase(f, x + t * step)
               for x in representatives(ball) for t in (1, 2))


def running_sum_counts(f: QuadraticCharacter, ball: BallSpec) -> tuple[list[int], int]:
    """How many cosets of an accepted ball have phase j/m, per j, one coset at a time.

    {A}_p = c2/m and {B}_p = c1/m for A = alpha p^(-2N), B = beta p^(-N)
    over the larger of their denominators m (p if both are 0), and the
    phase of coset r is k_r/m, k_r = c2 r^2 + c1 r: two running sums, as
    the second difference of k_r is the constant 2 c2.
    """
    p, N = f.p, ball.radius_exponent
    qa = fractional_part(f.alpha * Fraction(p) ** (-2 * N), p)
    qb = fractional_part(f.beta * Fraction(p) ** -N, p)
    m = max(qa.denominator, qb.denominator, p if qa == qb == 0 else 1)
    c2, c1 = int(qa * m), int(qb * m)
    n = ball.n_cosets
    counts = [0] * m
    steps = accumulate(repeat(2 * c2, n - 2), initial=c2 + c1)
    for k in islice(accumulate(steps, initial=0), n):
        counts[k % m] += 1
    return counts, m


def power_coordinates(counts: list[int], m: int, p: int) -> dict[int, int]:
    """The nonzero power-basis coordinates of sum_j counts[j] zeta_m^j, m = p^L, in ascending j.

    Coordinate j < m - m/p is counts[j] - counts[(p-1) m/p + j mod m/p],
    as sum_t zeta_m^(j + t m/p) = 0.
    """
    w = m - m // p
    coords = list(map(sub, counts, counts[w:] * (p - 1)))
    return {j: coords[j] for j in compress(range(w), coords)}


def power_basis_sum(counts: list[int], m: int, ball: BallSpec) -> complex:
    """The measure-weighted sum of counts[j] zeta_m^j from its power-basis coordinates.

    Each nonzero coordinate times the cosine and the sine of 2 pi j/m, in
    ascending j, summed by ``math.fsum``.
    """
    tau = 2 * math.pi
    re, im = [], []
    for j, c in power_coordinates(counts, m, ball.prime).items():
        angle = tau * (j / m)
        re.append(c * math.cos(angle))
        im.append(c * math.sin(angle))
    return complex(math.fsum(re), math.fsum(im)) * float(ball.prime) ** (-ball.resolution_exponent)
