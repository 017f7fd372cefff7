"""The Haar integral by evaluating the character at each coset representative: the oracle of ``haar_oracle``.

The library reads the angle of each coset from integer residues
(``QuadraticCharacter.coset_angles``).  This route evaluates
chi_p(alpha x^2 + beta x) at every representative r p^(-N) through
``fractional_part`` and ``cmath.exp``, and sums the values by
``math.fsum`` times the coset measure p^(-M), as the library did before.
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


def values(f: QuadraticCharacter, ball: BallSpec) -> list[complex]:
    """The character at every representative of the ball, in order."""
    out = []
    for x in representatives(ball):
        q = fractional_part(f.alpha * x * x + f.beta * x, f.p)
        out.append(cmath.exp(2j * math.pi * float(q)))
    return out


def haar_integral(f: QuadraticCharacter, ball: BallSpec) -> complex:
    """The measure-weighted sum of :func:`values`, real and imaginary parts by ``fsum``."""
    vals = values(f, ball)
    total = complex(math.fsum(z.real for z in vals), math.fsum(z.imag for z in vals))
    return total * float(ball.prime) ** (-ball.resolution_exponent)
