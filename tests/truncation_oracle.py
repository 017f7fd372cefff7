"""Power series and agreement of p-adic truncations: test-only helpers.

``series_eval`` sums a power series term by term in exact fractions,
with no knowledge of the Horner sums modulo p^M of
``analytic._sin_cos_sums``; ``agrees_with`` compares two truncations
modulo a power of p through truncation subtraction.
"""

from fractions import Fraction
from typing import Iterable

from padicqm.analytic import PadicTruncation
from padicqm.errors import DomainError
from padicqm.places import is_prime, valuation


def agrees_with(a: PadicTruncation, b: PadicTruncation, modulo: int) -> bool:
    """True when both values coincide modulo p^modulo."""
    diff = a - b
    return diff.is_zero_mod or diff.valuation >= modulo


def series_eval(
    coefficients: Iterable[Fraction],
    x: Fraction | int,
    p: int,
    target_precision: int,
    terms: int | None = None,
) -> PadicTruncation:
    """Evaluate sum of c_k x^k as a truncation correct modulo p^P.

    When ``terms`` is given the caller guarantees the discarded tail has
    norm <= p^(-P) and exactly that many terms are summed.  Otherwise
    summation stops after four consecutive terms of norm <= p^(-P-2);
    eight consecutive nonzero terms without valuation growth raise a
    divergence error.
    """
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    x = Fraction(x)
    P = target_precision
    total = Fraction(0)
    if x == 0:
        for c in coefficients:
            total = Fraction(c)
            break
        return PadicTruncation.from_rational(total, p, P)

    small_run = 0
    window: list[int | float] = []
    xk = Fraction(1)
    for k, c in enumerate(coefficients):
        if terms is not None and k >= terms:
            break
        term = Fraction(c) * xk
        xk *= x
        total += term
        if term == 0:
            continue
        v = valuation(term, p)
        if terms is None:
            window.append(v)
            if len(window) > 8:
                window.pop(0)
                if window[-1] <= window[0]:
                    raise DomainError("term norms are not decreasing: series diverges")
            small_run = small_run + 1 if v >= P + 2 else 0
            if small_run >= 4:
                break
        if terms is None and k > 10_000:
            raise DomainError("series failed to converge within 10000 terms")
    return PadicTruncation.from_rational(total, p, P)
