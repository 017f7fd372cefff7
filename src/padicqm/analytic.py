"""p-Adic values correct modulo p^P: canonical digits, sine, cosine and square root.

Values are :class:`PadicTruncation` objects: an element of Q_p known
modulo p^P.  :func:`digits` gives the leading canonical digits of a
nonzero rational as one.  The oscillator's kernel reads the sine and
cosine as integer residues (``_sin_cos_sums``) and its square root
through :func:`sqrt_p`, whose Newton lift of an inverse square root
takes no modular inverse per step, in one loop for every p.
Trigonometric series converge for |x|_p <= 1/p (odd p) and <= 1/4
(p = 2); they are summed modulo p^(P+S), S guard digits for the powers
of p in the factorials, and the exact Fraction loop of the tests'
``series_oracle`` is their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import legendre
from .errors import DomainError, InputError, NonSquareError, PrecisionError
from .places import integer, p_split, rational, require_prime, unit_residue, unit_split, valuation


@dataclass(frozen=True)
class PadicTruncation:
    """A p-adic number known modulo p^precision.

    Nonzero values are stored as p^valuation * mantissa with the mantissa
    a unit modulo p^(precision - valuation).  A value indistinguishable
    from zero at this precision has mantissa 0 and valuation None; the
    exact zero (:meth:`exact_zero`) is O(p^inf), precision ``math.inf``.
    A value has no arithmetic.  The constructor checks nothing, which
    keeps ``_make`` cheap; :meth:`zero_mod`, :meth:`exact_zero`,
    :meth:`from_rational` and :func:`digits` check p.
    """

    prime: int
    valuation: int | None
    mantissa: int
    precision: int | float

    @classmethod
    def _make(cls, p: int, v: int, m: int, P: int) -> PadicTruncation:
        """p^v * m modulo p^P, for a unit m or m = 0."""
        if v >= P or not m:
            return cls(p, None, 0, P)
        return cls(p, v, m % p ** (P - v), P)

    @classmethod
    def zero_mod(cls, p: int, P: int) -> PadicTruncation:
        """O(p^P), a value known to be zero modulo p^P."""
        require_prime(p)
        return cls(p, None, 0, integer(P))

    @classmethod
    def exact_zero(cls, p: int) -> PadicTruncation:
        """The exact zero, O(p^inf)."""
        require_prime(p)
        return cls(p, None, 0, math.inf)

    @classmethod
    def from_rational(cls, x: Fraction | int, p: int, P: int) -> PadicTruncation:
        P, v = integer(P), valuation(x, p)  # v = +inf at x = 0
        if v >= P:
            return cls.zero_mod(p, P)
        return cls(p, v, unit_residue(x, p, P - v)[1], P)

    @property
    def is_zero_mod(self) -> bool:
        return self.valuation is None

    @property
    def digits(self) -> tuple[int, ...]:
        """Known canonical digits, from index valuation upward."""
        if self.is_zero_mod:
            return ()
        out, r, p = [], self.mantissa, self.prime
        for _ in range(self.precision - self.valuation):
            r, d = divmod(r, p)
            out.append(d)
        return tuple(out)

    def representative(self) -> Fraction:
        """A rational congruent to the value modulo p^precision."""
        if self.is_zero_mod:
            return Fraction(0)
        m, p, v = self.mantissa, self.prime, self.valuation
        return Fraction(m * p**v) if v >= 0 else Fraction(m, p**-v)

    def norm(self) -> Fraction:
        if self.is_zero_mod:
            raise PrecisionError(
                f"norm not pinned: value is O({self.prime}^{self.precision})"
            )
        return Fraction(1, self.prime) ** self.valuation

    def __str__(self) -> str:
        if self.is_zero_mod:
            return "0" if self.precision == math.inf else f"O({self.prime}^{self.precision})"
        terms = " + ".join(
            f"{d}*{self.prime}^{i}" if i else str(d)
            for i, d in enumerate(self.digits)
            if d
        )
        return (
            f"{self.prime}^{self.valuation}*({terms or '0'})"
            f" + O({self.prime}^{self.precision})"
        )


def digits(x: Fraction | int, p: int, count: int) -> PadicTruncation:
    """First ``count`` canonical digits of x: p^v * (u mod p^count) + O(p^(v+count)).

    u is the unit residue of :func:`places.unit_residue`, and ``.digits``
    gives its base-p digits.  Raises :class:`ZeroExpansionError` at x = 0:
    the zero element has no canonical expansion.
    """
    if integer(count) < 1:
        raise InputError("count must be positive")
    v, u = unit_residue(x, p, count)
    return PadicTruncation(p, v, u, v + count)


def _trig_domain_valuation(x: Fraction, p: int) -> int:
    d = valuation(x, p)
    minimum = 2 if p == 2 else 1
    if d is math.inf or d >= minimum:
        return minimum if d is math.inf else d
    raise DomainError(
        f"|x|_{p} must be <= {p}^-{minimum} for trigonometric series"
    )


def _trig_term_count(d: int, p: int, P: int) -> int:
    # v(x^k / k!) >= k*d - (k-1)/(p-1) >= P once k passes this bound.
    num = P * (p - 1) - 1
    den = d * (p - 1) - 1
    return max(1, math.ceil(num / den) + 1)


def _sin_cos_sums(x: Fraction, p: int, P: int, d: int | None = None) -> tuple[int, int, int]:
    """(d, s, c) with sin x = p^d s and cos x = c modulo p^P, for P >= 1.

    d = v_p(x) is the valuation of sin x (the domain's edge at x = 0), s
    the unit sin x / p^d modulo p^(P - d), or 0 where sin x is O(p^P),
    and c the unit cos x modulo p^P.  Both are partial sums over the
    terms x^k/k!, k = 0..K+1, whose tails have norm <= p^-P.  With
    x = n/m and y = -x^2, each parity is a Horner sum from the innermost
    term out, h <- 1 + y*h/((2j+r-1)(2j+r)) (r = 1 for sin, 0 for cos),
    carried as an integer pair h = a/b and reduced modulo p^M whenever a
    outgrows it; reduction commutes with the integer recurrence, so a
    and b stay the residues of the exact pair.  The steps multiply to a
    divisor of (K+1)!, so b is p^s times a unit with s <= S =
    v_p((K+1)!), and h is p-integral in the domain, so p^s divides a:
    with M = P + S the quotient pins each sum modulo p^P.  A caller that
    has d from ``_trig_domain_valuation(x, p)`` passes it.
    """
    P = integer(P)
    if d is None:
        d = _trig_domain_valuation(x, p)
    K = _trig_term_count(d, p, P)
    n, m = x.numerator, x.denominator
    if n == 0 or P < 1:
        return d, 0, 1
    S, q = 0, p
    while q <= K + 1:
        S += (K + 1) // q
        q *= p
    mod = p ** (P + S)
    # a quarter past p^M: faster than a half or double at P = 1000
    limit = mod.bit_length() * 5 // 4
    neg_n2, m2 = -n * n, m * m

    def horner(top: int, r: int) -> tuple[int, int]:
        a = b = 1
        for j in range(top, 0, -1):
            b *= m2 * (2 * j + r - 1) * (2 * j + r)
            a = b + neg_n2 * a
            if a.bit_length() > limit:  # |a| ~ max(|b|, |n^2 a|)
                a, b = a % mod, b % mod
        s, unit = p_split(b % mod, p)
        return a % mod // p**s, unit

    sin_a, sin_b = horner(K // 2, 1)  # odd k = 2j + 1 <= K + 1
    cos_a, cos_b = horner((K + 1) // 2, 0)  # even k = 2j <= K + 1
    inv = pow(m * sin_b * cos_b, -1, p**P)
    # sin x = x h_sin with h_sin a unit, and p^d divides n exactly
    s = n // p**d * sin_a * cos_b * inv % p ** (P - d) if P > d else 0
    return d, s, m * cos_a * sin_b * inv % p**P


def sin_p(x: Fraction | int, p: int, P: int) -> PadicTruncation:
    """p-Adic sine by its Taylor series, correct modulo p^P."""
    d, s, _ = _sin_cos_sums(rational(x), p, P)
    return PadicTruncation._make(p, d, s, P)


def cos_p(x: Fraction | int, p: int, P: int) -> PadicTruncation:
    """p-Adic cosine by its Taylor series, correct modulo p^P."""
    return PadicTruncation._make(p, 0, _sin_cos_sums(rational(x), p, P)[2], P)


def _sqrt_unit_odd(u0: int, p: int) -> int:
    """Square root mod an odd prime by Tonelli-Shanks."""
    if p % 4 == 3:
        return pow(u0, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(u0, q, p), pow(u0, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def sqrt_p(x: Fraction | int, p: int, P: int) -> PadicTruncation:
    """Canonical square root in Q_p, correct modulo p^P.

    Exists when the valuation is even and the unit part is a square:
    a quadratic-residue leading digit for odd p, or a unit = 1 mod 8
    for p = 2.  Of the two roots the canonical one comes first in the
    digit order (smaller leading digit for odd p; second digit 0 for
    p = 2, where both roots lead with 1).

    With x = p^v un/ud the root is p^(v/2) un z, z = (un ud)^(-1/2),
    lifted from its canonical seed modulo p (modulo 8 at p = 2) by
    z <- z (1 - e/2), e = un ud z^2 - 1: no modular inverse per step,
    one inverse of the Tonelli-Shanks seed at odd p and none at p = 2.
    """
    P = integer(P)
    require_prime(p)
    x = rational(x)
    if not x:
        raise InputError("square root of zero is trivial; argument must be nonzero")
    # one split gives both the valuation and the unit residue
    v, un, ud = unit_split(x, p)
    if v % 2 != 0:
        raise NonSquareError(f"odd valuation {v}: no square root in Q_{p}")
    half_v = v // 2
    k = max(1, P - half_v)
    t = un * ud  # reduced modulo p^j in the lift, after the existence tests
    if p != 2:
        if legendre(t % p, p) != 1:
            u0 = un * pow(ud, -1, p) % p
            raise NonSquareError(f"leading digit {u0} is not a residue mod {p}")
        z, j, loss = pow(_sqrt_unit_odd(t % p, p), -1, p), 1, 0
        if 2 * (un * z % p) > p:  # canonical: the smaller leading digit
            z = -z
    else:
        if t % 8 != 1:
            raise NonSquareError("unit part is not 1 mod 8: no square root in Q_2")
        # z = un mod 4 throughout, so un z = 1 mod 4: the canonical branch
        z, j, loss = un % 4, 3, 2
    # Newton on z = t^(-1/2), no division: once t z^2 = 1 + e with e = 0
    # mod p^j, z (1 - e/2) is right mod p^(2j), or 2^(2j - 2) at p = 2,
    # where t z^2 = 1 mod 2^j pins z only mod 2^(j - 1): so the lift runs
    # to p^k, or 2^(k + 2)
    while j < k + loss:
        j = min(2 * j - loss, k + loss)
        q = p**j
        e = (t % q * z * z - 1) % q
        z = z * (1 - ((e + (e & 1) * q) >> 1)) % q  # e/2 mod q; e is even at p = 2
    # _make reduces un z modulo p^k
    return PadicTruncation._make(p, half_v, un * z, half_v + k)
