"""Sine and cosine partial sums in Fraction arithmetic: the oracle of ``_sin_cos_sums``.

The library sums each parity of the series by Horner over unreduced
integer pairs (``analytic._sin_cos_sums``).  This route adds the terms
x^k/k! one at a time as exact fractions, k = 0..K+1, with the same term
count K and the same domain check, so the two must agree exactly.
"""

from fractions import Fraction

from padicqm.analytic import _trig_domain_valuation, _trig_term_count


def sin_cos_sums(x: Fraction, p: int, P: int) -> tuple[Fraction, Fraction]:
    """Exact partial sums of sin and cos whose tails have norm <= p^-P."""
    d = _trig_domain_valuation(x, p)
    K = _trig_term_count(d, p, P)
    sin_total, cos_total = Fraction(0), Fraction(0)
    term = Fraction(1)  # x^k / k!
    for k in range(K + 2):
        if k:
            term = term * x / k
        if k % 2 == 0:
            cos_total += -term if k % 4 else term
        else:
            sin_total += -term if (k - 1) % 4 else term
    return sin_total, cos_total
