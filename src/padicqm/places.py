"""Exact rational scalars over every completion of Q.

A *place* selects a completion of the rationals: the real absolute value
or the p-adic norm for a prime p.  All quantities here are exact
``fractions.Fraction`` values; norms are returned as exact rationals
(p raised to an integer power), never as floats.  The canonical digits
of a rational, :func:`analytic.digits`, are a ``PadicTruncation`` of
``analytic``, built from :func:`unit_residue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, PadicqmError, ZeroExpansionError

#: Sentinel returned by :func:`valuation` at zero.
INFINITE_VALUATION = math.inf

# Deterministic Miller-Rabin witness set: the 13 primes up to 41 admit
# no strong pseudoprime below psi_13 = 3_317_044_064_679_887_385_961_981
# (Sorenson & Webster 2017), which is itself one.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality check (Miller-Rabin, fixed witnesses).

    Raises :class:`PadicqmError` for an n that trial division by the
    witnesses does not settle and that lies at or above the bound where
    the witness set is proven complete.
    """
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    if n >= _MR_BOUND:
        raise PadicqmError(f"primality of {n} is not decided at or above {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise InputError unless p is an int and prime; 3.0 == 3 would hit is_prime's cache."""
    if type(p) is not int or not is_prime(p):
        raise InputError(f"not a prime: {p}")


def rational(x: Fraction | int) -> Fraction:
    """The one input check for rationals: a Fraction as it is, an int converted.

    Anything else, a bool, a float or a str among them, raises InputError.
    Hot paths test ``type(x) is Fraction`` inline and call this only otherwise.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise InputError(f"not a rational: {x!r}")


def integer(n: int) -> int:
    """The one input check for integer sizes (radii, precisions, digit counts).

    An int passes as it is; a bool, a float, a str or anything else raises
    InputError.
    """
    if isinstance(n, int) and not isinstance(n, bool):
        return n
    raise InputError(f"not an integer: {n!r}")


@dataclass(frozen=True, order=False)
class Place:
    """A completion of Q: the real place or a p-adic place.

    ``p`` is ``None`` for the real place and a verified prime otherwise.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            require_prime(self.p)

    @classmethod
    def real(cls) -> Place:
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> Place:
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> Place:
        """Parse ``"inf"`` or a prime integer string."""
        require_instance(text, str)
        text = text.strip()
        if text == "inf":
            return cls.real()
        try:
            p = int(text)
        except ValueError:
            raise InputError(f"not a place: {text!r}") from None
        return cls.prime(p)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)


def require_place(place: Place) -> None:
    """The one input check for places: raise InputError unless place is a Place.

    A prime or a text is not a place: ``Place.prime`` and ``Place.parse``
    make one.
    """
    if not isinstance(place, Place):
        raise InputError(f"not a place: {place!r}")


def require_instance(obj: object, cls: type) -> None:
    """The one input check for the library's objects: raise InputError unless obj is a cls.

    Places have their own check, :func:`require_place`.  Hot paths test
    ``type(obj) is cls`` inline and call this only otherwise.
    """
    if not isinstance(obj, cls):
        raise InputError(f"not of type {cls.__name__}: {obj!r}")


def _unchecked(cls: type, **fields) -> object:
    """An instance of the frozen dataclass cls with these fields, past its checks.

    Only for fields that are already checked values of the right types; the
    public constructors keep every check.
    """
    obj = object.__new__(cls)
    # the keyword dict becomes the instance dict: nothing is copied
    object.__setattr__(obj, "__dict__", fields)
    return obj


def p_split(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p**v * m and p not dividing m, for a nonzero integer n.

    A p-unit returns on its first division.  At p = 2, v is the index of
    n's lowest set bit.  At odd p, :func:`_split_by_squares` takes
    O(log v) divisions, by p, p^2, p^4, ...; dividing by p once per unit
    of v would take time quadratic in v.
    """
    if n % p:
        return 0, n
    if not n:
        raise InputError("zero has infinite valuation")
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v, n >> v
    return _split_by_squares(n, p)


def _split_by_squares(n: int, p: int) -> tuple[int, int]:
    """:func:`p_split` by recursion: v is 1 + 2w or 2 + 2w, with w the
    exponent of p^2 in n/p."""
    if n % p:
        return 0, n
    w, m = _split_by_squares(n // p, p * p)
    if m % p:
        return 2 * w + 1, m
    return 2 * w + 2, m // p


def valuation(x: Fraction | int, p: int) -> int | float:
    """Exponent of p in x; +inf for x = 0.

    x = p**v * (a/b) with p dividing neither a nor b.
    """
    require_prime(p)
    x = rational(x)
    if not x:
        return INFINITE_VALUATION
    return p_split(x.numerator, p)[0] - p_split(x.denominator, p)[0]


def norm(x: Fraction | int, place: Place) -> Fraction:
    """Exact norm of x at the given place: |x| or p**(-v_p(x)); 0 at x = 0."""
    require_place(place)
    x = rational(x)
    if x == 0:
        return Fraction(0)
    p = place.p
    if p is None:
        return abs(x)
    v = unit_split(x, p)[0]
    return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)


def unit_split(x: Fraction, p: int) -> tuple[int, int, int]:
    """Nonzero x = p**v * un/ud as (v, un, ud), p dividing neither un nor ud.

    One :func:`p_split` of the numerator and one of the denominator, with no
    input check: callers check p and x first.
    """
    (vn, un), (vd, ud) = p_split(x.numerator, p), p_split(x.denominator, p)
    return vn - vd, un, ud


def unit_residue(x: Fraction | int, p: int, k: int) -> tuple[int, int]:
    """Split nonzero x as p**v * u with u a p-adic unit; returns (v, u mod p**k).

    Raises InputError for a non-prime p, and :class:`ZeroExpansionError`
    at x = 0.
    """
    require_prime(p)
    x = rational(x)
    if not x:
        raise ZeroExpansionError("zero has no canonical expansion")
    v, un, ud = unit_split(x, p)
    m = p**k
    return v, un * pow(ud, -1, m) % m


def fractional_residue(n: int, d: int, p: int) -> tuple[int, int]:
    """p-Adic fractional part of n/d, for integers n and d > 0, as (r, p**k).

    With d = p**k * e and p not dividing e, r = n * e^{-1} mod p**k, so
    0 <= r < p**k and n/d - r/p**k = (n - r e)/d has no p in its reduced
    denominator.  n/d need not be reduced, nor need r/p**k.  p must be prime.
    """
    k, e = p_split(d, p)
    if not k:
        return 0, 1
    m = p**k
    return n * pow(e, -1, m) % m, m


def fractional_part(x: Fraction | int, p: int) -> Fraction:
    """p-Adic fractional part: the negative-power tail of the expansion.

    A rational in [0, 1) with a p-power denominator; x minus the result
    is p-integral.  Zero whenever |x|_p <= 1.  See
    :func:`fractional_residue`.
    """
    require_prime(p)
    x = rational(x)
    return Fraction(*fractional_residue(x.numerator, x.denominator, p))

