"""Exact unit-complex arithmetic: additive characters and lambda factors.

A :class:`Phase` is a rational q modulo 1 standing for exp(2*pi*i*q);
an :class:`Amplitude` is an exact squared modulus paired with a phase.
Every lambda value is an eighth root of unity, so the whole character
layer stays inside exact rational arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .places import (
    Place, fractional_part, integer, is_prime, p_split, rational, require_instance,
    require_place,
)


@dataclass(frozen=True)
class Phase:
    """A rational modulo 1, denoting the unit complex number exp(2*pi*i*q)."""

    value: Fraction = Fraction(0)

    def __post_init__(self):
        q = self.value
        if type(q) is not Fraction:
            q = rational(q)
        n, d = q.numerator, q.denominator
        if n < 0 or n >= d:
            q = Fraction(n % d, d)
        object.__setattr__(self, "value", q)

    # an operand of another type is an InputError; the checks are called only on a mismatch
    def __add__(self, other: Phase) -> Phase:
        if type(other) is not Phase:
            require_instance(other, Phase)
        return Phase(self.value + other.value)

    def __sub__(self, other: Phase) -> Phase:
        if type(other) is not Phase:
            require_instance(other, Phase)
        return Phase(self.value - other.value)

    def __neg__(self) -> Phase:
        return Phase(-self.value)

    def __mul__(self, k: int) -> Phase:
        if type(k) is not int:
            integer(k)
        return Phase(self.value * k)

    __rmul__ = __mul__

    def to_complex(self) -> complex:
        theta = 2 * math.pi * float(self.value)
        return complex(math.cos(theta), math.sin(theta))

    def __str__(self) -> str:
        return str(self.value)


ZERO_PHASE = Phase(Fraction(0))
#: the eight possible values of lambda_v, indexed by eighths of a turn
EIGHTH_PHASES = (ZERO_PHASE, *(Phase(Fraction(k, 8)) for k in range(1, 8)))


def phase_sum(*phases: Phase) -> Phase:
    """The sum of the phases; eighths of a turn, such as every lambda, are added as integers."""
    k = 0
    for ph in phases:
        q = ph.value
        d = q.denominator
        if 8 % d:
            return Phase(sum(ph.value for ph in phases))
        k += q.numerator * (8 // d)
    return EIGHTH_PHASES[k % 8]


@dataclass(frozen=True)
class Amplitude:
    """Exact polar complex value: squared modulus and phase.

    The zero amplitude is canonical: modulus_sq = 0 forces phase 0.
    """

    modulus_sq: Fraction = Fraction(1)
    phase: Phase = field(default_factory=Phase)

    def __post_init__(self):
        if type(self.phase) is not Phase:
            require_instance(self.phase, Phase)
        ms = self.modulus_sq
        if type(ms) is not Fraction:
            ms = rational(ms)
            object.__setattr__(self, "modulus_sq", ms)
        if ms.numerator < 0:
            raise InputError("modulus_sq must be nonnegative")
        if not ms.numerator:
            object.__setattr__(self, "phase", ZERO_PHASE)

    @classmethod
    def zero(cls) -> Amplitude:
        return cls(Fraction(0))

    @classmethod
    def one(cls) -> Amplitude:
        return cls(Fraction(1))

    @property
    def is_zero(self) -> bool:
        return self.modulus_sq == 0

    def __mul__(self, other: Amplitude) -> Amplitude:
        if type(other) is not Amplitude:
            require_instance(other, Amplitude)
        return Amplitude(self.modulus_sq * other.modulus_sq, self.phase + other.phase)

    def conjugate(self) -> Amplitude:
        return Amplitude(self.modulus_sq, -self.phase)

    def float_modulus(self) -> float:
        """The modulus r = sqrt(modulus_sq) as a float.

        A squared modulus beyond the float range at either end takes r
        from logarithms.  Raises OverflowError when a nonzero r is itself
        not a normal float.
        """
        ms = self.modulus_sq
        try:
            f = float(ms)
        except OverflowError:
            f = math.inf
        if sys.float_info.min <= f < math.inf:
            return math.sqrt(f)
        if not ms:
            return 0.0
        # math.exp raises OverflowError itself when r is too large
        r = math.exp((math.log(ms.numerator) - math.log(ms.denominator)) / 2)
        if r < sys.float_info.min:
            raise OverflowError("modulus below the normal float range")
        return r

    def render(self) -> tuple[float, float]:
        """Float (re, im) = r (cos, sin) of the phase; relative error <= 1e-12.

        Raises OverflowError where :meth:`float_modulus` does.
        """
        r = self.float_modulus()
        z = self.phase.to_complex()
        return r * z.real, r * z.imag

    def __str__(self) -> str:
        return f"|.|^2={self.modulus_sq}, phase={self.phase}"


def chi(place: Place, x: Fraction | int) -> Phase:
    """Additive character of the place, as an exact phase.

    Real place: exp(-2*pi*i*x), i.e. phase -x mod 1.  p-Adic place:
    exp(2*pi*i*{x}_p) with {x}_p the p-adic fractional part.
    """
    require_place(place)
    x = rational(x)
    if place.is_real:
        return Phase(-x)
    return Phase(fractional_part(x, place.p))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1}, by Euler's criterion."""
    if p == 2 or type(p) is not int or not is_prime(p):
        raise InputError("p must be an odd prime")
    if type(a) is not int:
        integer(a)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def lambda_of_split(place: Place, v: int, u: int) -> Phase:
    """lambda_v(a) from the split (v, u) of a nonzero a by :func:`gauss_factor`.

    Real place: (1 - i*sign a)/sqrt(2), i.e. phase 7/8 for a > 0 and 1/8
    for a < 0.  Odd p: dispatch on the parity of v and p mod 4 via the
    Legendre symbol of the p-unit u, read by Euler's criterion on the
    place's checked prime, not through :func:`legendre`.  p = 2: dispatch
    on the parity of v via bits 1 and 2 of u mod 8 (the digits a_1, a_2).
    """
    p = place.p
    if p is None:
        k = 7 if u > 0 else 1
    elif p != 2:
        # 1 for even v, else (u/p) for p = 1 (mod 4) and i*(u/p) for p = 3 (mod 4),
        # with (u/p) = u^((p - 1)/2) mod p
        k = 0 if v % 2 == 0 else ((0 if p % 4 == 1 else 2)
                                  + (0 if pow(u, (p - 1) // 2, p) == 1 else 4))
    else:
        a1, a2 = (u >> 1) & 1, (u >> 2) & 1
        # (1 + (-1)**a1 * i)/sqrt(2) is the eighth root of unity +-1/8.
        k = 7 if a1 else 1
        if v % 2 and a1 != a2:
            k = (k + 4) % 8
    return EIGHTH_PHASES[k]


def gauss_factor(place: Place, n: int, d: int) -> tuple[tuple[int, int], Phase]:
    """The Gauss integral's factor at a = n/d: |2a|_v^-1 as an integer pair, and lambda_v(a).

    For nonzero integers n and d, n/d unreduced: one :func:`p_split` of each
    at p, the sign of n/d at infinity.  The pair (x, y) has x/y = |2a|_v^-1,
    unreduced at infinity.  At p, n/d = p**v * un/ud, and lambda reads
    u = un * ud: not the unit un/ud, but with its Legendre symbol at odd p
    and its residue mod 8 at p = 2, as (ud/p)**2 = 1 and ud**2 = 1 (mod 8).
    """
    p = place.p
    if p is None:
        return (abs(d), 2 * abs(n)), lambda_of_split(place, 0, 1 if (n > 0) == (d > 0) else -1)
    (vn, un), (vd, ud) = p_split(n, p), p_split(d, p)
    v = vn - vd
    # |2a|^-1 = p**v(2a), and v(2a) = v + 1 at p = 2
    w = v + (p == 2)
    inverse_norm = (p**w, 1) if w >= 0 else (1, p**-w)
    return inverse_norm, lambda_of_split(place, v, un * ud)


def lambda_v(place: Place, a: Fraction | int) -> Phase:
    """The arithmetic eighth-root-of-unity factor of the Gauss integral.

    The phase of :func:`gauss_factor` at a's numerator and denominator.
    Rejects a = 0, as the factor is defined only for nonzero arguments:
    InputError.
    """
    require_place(place)
    a = rational(a)
    if not a:
        raise InputError("lambda factor undefined at zero")
    return gauss_factor(place, a.numerator, a.denominator)[1]
