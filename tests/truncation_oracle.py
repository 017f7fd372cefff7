"""Ring arithmetic of p-adic truncations: the tests' own route.

The library keeps :class:`PadicTruncation` as a value and computes on
integer residues.  These functions add, multiply and divide such values
through their exact representatives and ``from_rational``, which inverts
a unit by ``pow``, with pessimistic precision: a result's stated
precision is never better than what the operands justify.  The exact
zero, O(p^inf), is carried through every operation that keeps it exact.
The oscillator's hand formula ``closed_forms.k_oscillator`` does all of
its truncation arithmetic here.
"""

import math
from fractions import Fraction

from padicqm import PadicTruncation, Phase, PrecisionError, valuation
from padicqm.analytic import _sin_cos_sums


def _reduce(p: int, x: Fraction, P: int | float) -> PadicTruncation:
    """x modulo p^P; at P = inf, where x is 0, the exact zero."""
    return PadicTruncation.exact_zero(p) if P == math.inf else PadicTruncation.from_rational(x, p, P)


def _low(t: PadicTruncation) -> int | float:
    """The valuation, or the precision P of a value O(p^P)."""
    return t.precision if t.is_zero_mod else t.valuation


def neg(a: PadicTruncation) -> PadicTruncation:
    return _reduce(a.prime, -a.representative(), a.precision)


def add(a: PadicTruncation, b: PadicTruncation) -> PadicTruncation:
    return _reduce(a.prime, a.representative() + b.representative(),
                   min(a.precision, b.precision))


def sub(a: PadicTruncation, b: PadicTruncation) -> PadicTruncation:
    return add(a, neg(b))


def mul(a: PadicTruncation, b: PadicTruncation) -> PadicTruncation:
    # (p^va u + O(p^Pa))(p^vb w + O(p^Pb)) is pinned below p^min(va + Pb, vb + Pa);
    # O(p^P) counts as valuation P: O * unit = O(p^(Pa + vb)), O * O = O(p^(Pa + Pb))
    return _reduce(a.prime, a.representative() * b.representative(),
                   min(_low(a) + b.precision, _low(b) + a.precision))


def divide(a: PadicTruncation, b: PadicTruncation) -> PadicTruncation:
    """a / b, pinned below p^min(Pa - vb, Pb + va - 2 vb); O(p^Pa) / b = O(p^(Pa - vb))."""
    if b.is_zero_mod:
        raise PrecisionError("division by a value not pinned away from zero")
    vb = b.valuation
    return _reduce(a.prime, a.representative() / b.representative(),
                   min(a.precision - vb, b.precision + _low(a) - 2 * vb))


def scale(a: PadicTruncation, c: Fraction | int) -> PadicTruncation:
    """a times an exact rational: no precision lost beyond the shift by v_p(c)."""
    if c == 0:
        return PadicTruncation.exact_zero(a.prime)
    return _reduce(a.prime, a.representative() * c, a.precision + valuation(c, a.prime))


def agrees_with(a: PadicTruncation, b: PadicTruncation, modulo: int) -> bool:
    """True when both values coincide modulo p^modulo."""
    diff = sub(a, b)
    return diff.is_zero_mod or diff.valuation >= modulo


def chi_of_truncation(t: PadicTruncation) -> Phase:
    """Additive-character phase of a truncated value.

    The fractional part depends only on digits below p^0, so it is
    pinned exactly once the precision reaches 0.
    """
    if t.precision < 0:
        raise PrecisionError("precision below p^0: fractional part not pinned")
    if t.is_zero_mod or t.valuation >= 0:
        return Phase()
    p_pow = t.prime ** (-t.valuation)
    return Phase(Fraction(t.mantissa % p_pow, p_pow))


def tan_p(x: Fraction | int, p: int, P: int) -> PadicTruncation:
    """p-Adic tangent from the library's residues: sin/cos, cos a unit throughout the domain."""
    d, s, c = _sin_cos_sums(Fraction(x), p, P)
    if not s:  # a sine of O(p^P) is its own quotient; at P < 1 the cosine is O(p^P) too
        return PadicTruncation.zero_mod(p, P)
    return PadicTruncation.from_rational(Fraction(p) ** d * s * pow(c, -1, p ** (P - d)), p, P)
