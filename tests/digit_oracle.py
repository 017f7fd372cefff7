"""Canonical expansions in Fraction arithmetic: the oracle of ``unit_residue``.

The library splits a rational x = p**v * u with integer operations on
its numerator and denominator (``places.unit_residue``).  This route
works on the rational itself instead: the unit part x * p**-v, its
residue through a modular inverse of the denominator, and the digits one
at a time as d = u mod p, u <- (u - d)/p.  Valuations divide by p one
step at a time, where ``places.p_split`` divides by p^(2^i).
"""

from fractions import Fraction

from padicqm import PadicTruncation


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n, one division by p at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def partial_sum(e: PadicTruncation) -> Fraction:
    """Rational value of the stored digits: p**v * sum d_i p**i."""
    total = sum(d * e.prime**i for i, d in enumerate(e.digits))
    return Fraction(total) * Fraction(e.prime) ** e.valuation


def unit_part(x: Fraction | int, p: int) -> tuple[int, Fraction]:
    """Split nonzero x as p**v * u with u a p-adic unit; returns (v, u)."""
    x = Fraction(x)
    v = int_valuation(x.numerator, p) - int_valuation(x.denominator, p)
    return v, x * Fraction(p) ** (-v)


def residue(q: Fraction, modulus: int, p: int) -> int:
    """Representative of a p-integral rational q modulo p**k (modulus = p**k)."""
    if modulus == 1:
        return 0
    if q.denominator % p == 0:
        raise ValueError("rational is not p-integral")
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def unit_residue(x: Fraction | int, p: int, k: int) -> tuple[int, int]:
    v, u = unit_part(x, p)
    return v, residue(u, p**k, p)


def digit_stream(u: Fraction, p: int):
    """Canonical digits of a p-adic unit u, lowest first, without end."""
    while True:
        d = residue(u, p, p)
        yield d
        u = (u - d) / p


def digits(x: Fraction | int, p: int, count: int) -> tuple[int, tuple[int, ...]]:
    """(valuation, first ``count`` digits) of nonzero x."""
    v, u = unit_part(x, p)
    stream = digit_stream(u, p)
    return v, tuple(next(stream) for _ in range(count))

