"""Square roots in Q_p by Hensel lifts of the root itself: the oracle of ``sqrt_p``.

The library lifts the inverse square root of one integer by a Newton
iteration that divides only by 2, one loop for every p
(``analytic.sqrt_p``).  This route lifts the root as the library did
before, in two loops: at odd p the step y <- y + (t - y^2)/(2y) from a
root modulo p, at p = 2 the step y <- y + ((t - y^2)/2)/y from y = 1
modulo 8, each step with a fresh modular inverse.  The root modulo p
comes from Cipolla's method, whose search over the residues finds a
non-square a^2 - u, not from Tonelli-Shanks; squares are told by
Euler's criterion, not by the library's Legendre symbol, and the
valuation and unit part of x by a division loop, so this route shares
no helper with the library.  Its refusals are the library's, type and
message.
"""

from fractions import Fraction

from padicqm import InputError, NonSquareError, PadicTruncation


def _split(n: int, p: int) -> tuple[int, int]:
    """n = p^v * m with p not dividing m, for n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _root_mod(u: int, p: int) -> int | None:
    """The smaller square root of a unit u modulo an odd prime p, or None."""
    half = (p - 1) // 2
    if pow(u, half, p) != 1:
        return None
    a = next(a for a in range(p) if pow(a * a - u, half, p) == p - 1)
    w = a * a - u
    # (a + sqrt w)^((p + 1)/2) in F_p(sqrt w) = F_(p^2) is a root of u in F_p
    x, y, rx, ry, n = a, 1, 1, 0, half + 1
    while n:
        if n & 1:
            rx, ry = (rx * x + ry * y * w) % p, (rx * y + ry * x) % p
        x, y, n = (x * x + y * y * w) % p, 2 * x * y % p, n >> 1
    return min(rx, p - rx)


def sqrt(x: Fraction | int, p: int, P: int) -> PadicTruncation:
    """The canonical square root of x in Q_p, correct modulo p^P."""
    x = Fraction(x)
    if not x:
        raise InputError("square root of zero is trivial; argument must be nonzero")
    vn, un = _split(x.numerator, p)
    vd, ud = _split(x.denominator, p)
    v = vn - vd
    if v % 2 != 0:
        raise NonSquareError(f"odd valuation {v}: no square root in Q_{p}")
    half_v = v // 2
    k = max(1, P - half_v)
    target = un * pow(ud, -1, p ** (k + 2)) % p ** (k + 2)
    if p != 2:
        u0 = target % p
        y = _root_mod(u0, p)  # the smaller leading digit: the canonical branch
        if y is None:
            raise NonSquareError(f"leading digit {u0} is not a residue mod {p}")
        j = 1
        while j < k:
            j = min(2 * j, k)
            # Newton step: y <- (y + u/y) / 2 modulo the lifted modulus p^j
            y = (y + (target - y * y) * pow(2 * y, -1, p**j)) % p**j
    else:
        if target % 8 != 1:
            raise NonSquareError("unit part is not 1 mod 8: no square root in Q_2")
        # y = 1 mod 4 throughout, the canonical branch: once y^2 = t mod 8,
        # (t - y^2)/2 = 0 mod 4
        y, j = 1, 3
        while j < k + 2:
            # y^2 = t mod 2^j lifts to y + ((t - y^2)/2) / y modulo 2^(2j - 2)
            j = min(2 * j - 2, k + 2)
            y = (y + (target - y * y) // 2 * pow(y, -1, 2**j)) % 2**j
    return PadicTruncation(p, half_v, y % p**k, half_v + k)
