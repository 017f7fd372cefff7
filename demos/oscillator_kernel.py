"""Time-dependent oscillator kernel via p-adic analytic functions.

The kernel reads cot delta from the p-adic sine and cosine of delta, and
a square root.  These are computed modulo a power of p with rigorous
precision tracking, and the character phases -- which depend on finitely
many digits -- come out exact.  The kernel is that of the oscillator's
truncated action form, through the one evaluator every other system uses.
"""

from fractions import Fraction as F

from padicqm import (
    OscillatorBoundaryData,
    Place,
    cos_p,
    k_oscillator_td,
    k_oscillator_td_real,
    oscillator_precision,
    sin_p,
    sqrt_p,
)


def main():
    p = 3
    print(f"=== the analytic ingredients at p = {p}, precision 3^12 ===")
    x = F(p)
    print(f"  sin({x})  = {sin_p(x, p, 12)}")
    print(f"  cos({x})  = {cos_p(x, p, 12)}")
    print(f"  sqrt(7)  = {sqrt_p(7, p, 12)}  (canonical branch)")

    data = OscillatorBoundaryData(
        x0=F(1), x1=F(2),
        gamma0=F(0), gamma1=F(p),
        dgamma0=F(1), dgamma1=F(1),
        s0=F(2), s1=F(-2), ds0=F(1, 2), ds1=F(1, 4),
    )
    print("\n=== oscillator kernel, boundary data with unit dgamma ===")
    amp = k_oscillator_td(Place.prime(p), data, 24)
    print(f"  |.|^2 = {amp.modulus_sq}, phase = {amp.phase}")
    # precision 24 is a ceiling: the kernel is evaluated at the least precision that pins it
    print(f"  evaluated at P* = {oscillator_precision(data, p)} of the 24 digits allowed")
    print(f"  auxiliary-function consistency flag: {data.wronskian_consistent()}")

    print("\n=== the same data at the real place (floats, necessarily) ===")
    real_data = OscillatorBoundaryData(
        x0=F(1, 2), x1=F(1, 3), gamma0=F(1, 10), gamma1=F(7, 10),
        dgamma0=F(2), dgamma1=F(2), s0=F(1), s1=F(2), ds0=F(1, 5), ds1=F(1, 7),
    )
    value = k_oscillator_td_real(real_data)
    print(f"  K = {value:.9f}")


if __name__ == "__main__":
    main()
