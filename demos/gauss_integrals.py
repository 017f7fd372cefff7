"""Tour of the quadratic Gauss integral over every completion of Q.

The same closed form
    lambda_v(a) |2a|_v^(-1/2) chi_v(-b^2/4a)
evaluates at the real place and at every prime, with all arithmetic
exact.  Ball-restricted p-adic integrals stabilize to it once the ball
swallows the critical point, and an independent numerical oracle (the
Haar coset sum, exact in Z[zeta_m] before it is rounded) confirms the
values.  At the real place the value is the Fresnel integral; for
a = 1, b = 0 it is (1 - i)/2.
"""

from fractions import Fraction as F

from padicqm import (
    BallSpec,
    Place,
    gauss_full,
    haar_oracle,
    minimal_resolution,
    quad_char_integral_ball,
    quadratic_char_fn,
    stabilization_threshold,
)


def main():
    print("=== closed form across places, a = 1, b = 0 ===")
    for place in (Place.real(), Place.prime(2), Place.prime(3), Place.prime(5)):
        amp = gauss_full(place, 1, 0)
        re, im = amp.render()
        print(f"  v = {place}: |.|^2 = {amp.modulus_sq}, phase = {amp.phase}"
              f"  ->  {re:+.6f} {im:+.6f}i")

    print("\n=== ball integrals stabilize, p = 3, a = 1/9, b = 1 ===")
    p, a, b = 3, F(1, 9), F(1)
    full = gauss_full(Place.prime(p), a, b)
    n0 = stabilization_threshold(p, a, b)
    for n in range(n0 - 2, n0 + 3):
        ball = quad_char_integral_ball(p, a, b, n)
        marker = "  <- equals the full integral" if ball == full else ""
        print(f"  |x| <= 3^{n}: |.|^2 = {ball.modulus_sq}, phase = {ball.phase}{marker}")

    print("\n=== Haar-measure oracle agrees (exact coset sum, then a few cosines) ===")
    m = minimal_resolution(p, a, b, n0)
    approx = haar_oracle(p, quadratic_char_fn(p, a, b), BallSpec(p, n0, m))
    exact = complex(*full.render())
    print(f"  counted {p**(n0+m)} cosets: {approx:.12f}")
    print(f"  closed form:                {exact:.12f}")
    print(f"  |difference| = {abs(approx - exact):.2e}")


if __name__ == "__main__":
    main()
