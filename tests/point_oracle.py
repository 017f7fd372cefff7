"""The Haar integral by evaluating the character at each coset representative: the oracle of ``haar_oracle``.

The library counts the cosets at each phase from integer residues
(``QuadraticCharacter.coset_counts``) and rounds only the power-basis
coordinates of their sum.  This route evaluates the exact phase of
chi_p(alpha x^2 + beta x) at every representative r p^(-N) through
``fractional_part``, takes each value by ``cmath.exp``, and sums the
values by ``math.fsum`` times the coset measure p^(-M).
"""

import cmath
import math
from fractions import Fraction

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
