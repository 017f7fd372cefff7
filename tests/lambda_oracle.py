"""The lambda factor through a unit residue: the oracle of ``lambda_v``.

The library reads lambda_v(a) off one integer split of a's numerator and
denominator, whose unit u = un * ud is not reduced to a residue
(``characters.lambda_of_split`` in ``characters.gauss_factor``).  This route
works on the rational instead: a = p**v * u with the unit u reduced mod p
(odd p) or mod 8 (p = 2) by ``digit_oracle.unit_residue``, which takes a
modular inverse of the unit's denominator.
"""

from fractions import Fraction

from padicqm import Phase, Place, legendre

import digit_oracle


def lambda_v(place: Place, a: Fraction | int) -> Phase:
    """lambda_v(a) for nonzero a, dispatched on v and the residue of the unit."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("lambda factor undefined at zero")
    if place.is_real:
        return Phase(Fraction(7 if a > 0 else 1, 8))
    p = place.p
    v, u = digit_oracle.unit_residue(a, p, 3 if p == 2 else 1)
    if p != 2:
        if v % 2 == 0:
            eighths = 0
        elif p % 4 == 1:
            eighths = 0 if legendre(u, p) == 1 else 4
        else:
            # p = 3 mod 4: value i*(u/p)
            eighths = 2 if legendre(u, p) == 1 else 6
        return Phase(Fraction(eighths, 8))
    a1, a2 = (u >> 1) & 1, (u >> 2) & 1
    # (1 + (-1)**a1 * i)/sqrt(2) is the eighth root of unity +-1/8.
    base = 1 if a1 == 0 else 7
    flip = 4 if v % 2 == 1 and (a1 + a2) % 2 == 1 else 0
    return Phase(Fraction(base + flip, 8))
