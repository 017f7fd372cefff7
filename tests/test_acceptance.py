"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every tolerance is pinned here; the exact checks admit no
tolerance at all.
"""

import math
import random
import time
from fractions import Fraction as F

from padicqm import (
    Amplitude,
    BallSpec,
    OracleCapError,
    OscillatorBoundaryData,
    Phase,
    Place,
    action_form_constant_field,
    cos_p,
    desitter_action_form,
    gauss_full,
    haar_oracle,
    k_general_quadratic,
    k_oscillator_td,
    lambda_v,
    minimal_resolution,
    norm,
    overlap_ball_integral,
    overlap_vanishing_threshold,
    quad_char_integral_ball,
    quadratic_char_fn,
    sin_p,
    sqrt_p,
    stabilization_threshold,
)
from padicqm.analytic import PadicTruncation
from padicqm.verify import (
    check_composition,
    check_lambda,
    check_semigroup,
    random_nonzero_rational,
)

import fresnel_reference
from closed_forms import k_constant_field, k_desitter, k_free, k_oscillator
from truncation_oracle import add, agrees_with, mul

R = Place.real()
PLACES = (R, Place.prime(2), Place.prime(3), Place.prime(5), Place.prime(7))


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_gauss_integral_grid():
    """Ball integrals stabilize exactly; the Haar oracle agrees to 1e-10."""
    start = time.time()
    nonresidue = {2: 3, 3: 2, 5: 2, 7: 3}
    checked = haar_checked = 0
    for p in (2, 3, 5, 7):
        place = Place.prime(p)
        c = nonresidue[p]
        a_grid = [
            sign * u * F(p) ** k
            for k in range(-2, 3)
            for sign, u in ((1, 1), (1, c), (-1, 1))
        ]
        b_grid = [F(0), F(1), F(p) ** -2, F(p) ** 2]
        for a in a_grid:
            for b in b_grid:
                full = gauss_full(place, a, b)
                n0 = stabilization_threshold(p, a, b)
                for n in (n0, n0 + 1):
                    assert quad_char_integral_ball(p, a, b, n) == full, (p, a, b, n)
                checked += 1
                m = minimal_resolution(p, a, b, n0)
                try:
                    approx = haar_oracle(p, quadratic_char_fn(p, a, b), BallSpec(p, n0, m))
                except OracleCapError:
                    continue  # the oracle owns the coset cap
                exact = complex(*full.render())
                assert abs(approx - exact) <= 1e-10, (p, a, b)
                haar_checked += 1
    elapsed = time.time() - start
    assert checked == 240 and haar_checked == 240
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, f"gauss integral, {checked} grid points, {elapsed:.1f}s")


def test_criterion_2_lambda_identities():
    """Both lambda identities hold exactly on 1000 trials per place."""
    places = PLACES + (Place.prime(13),)
    failures = check_lambda(places=places, trials=1000, seed=20240601)
    assert failures == []
    _report(2, "lambda identities, 1000 trials x 6 places, zero failures")


def test_criterion_3_partition_independence():
    """The finite-partition propagator equals the kernel for N up to 16."""
    start = time.time()
    failures = check_composition(places=PLACES, trials=20, seed=20240602)
    elapsed = time.time() - start
    assert failures == []
    assert elapsed < 10, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(3, f"partition independence N=2..16, {elapsed:.1f}s")


def test_criterion_4_semigroup():
    """Composition over an intermediate time is exactly the direct kernel."""
    failures = check_semigroup(places=PLACES, trials=100, seed=20240603)
    assert failures == []
    _report(4, "semigroup property, 100 trials x 5 places, exact")


def test_criterion_5_delta_pairing():
    """Off-diagonal pairings vanish exactly above the analytic threshold."""
    rng = random.Random(20240604)
    for p in (3, 5):
        place = Place.prime(p)
        for _ in range(40):
            t = random_nonzero_rational(rng, place)
            t1 = t + random_nonzero_rational(rng, place)
            if t1 == t:
                continue
            tau = t1 - t
            x0 = random_nonzero_rational(rng, place)
            diff = random_nonzero_rational(rng, place)
            x1 = x0 + diff
            n0 = overlap_vanishing_threshold(p, diff, tau)
            for n in (n0, n0 + 1, n0 + 3):
                assert overlap_ball_integral(p, 0, t, t1, x0, x1, n).is_zero
            assert not overlap_ball_integral(p, 0, t, t1, x0, x1, n0 - 1).is_zero
            for n in (0, 2):
                mass = F(p) ** n / norm(tau, place)
                assert overlap_ball_integral(p, 0, t, t1, x0, x0, n) == Amplitude(
                    mass * mass, Phase(F(0))
                )
    _report(5, "delta pairing over balls at p=3,5, thresholds exact")


def test_criterion_6_general_quadratic_formula():
    """The mixed-partial prefactor formula reproduces all three kernels.

    The right-hand sides are the hand-written closed forms in
    ``tests/closed_forms.py``, independent of the library's evaluator.
    """
    rng = random.Random(20240605)
    for place in PLACES:
        for _ in range(100):
            a = random_nonzero_rational(rng, place)
            lam = random_nonzero_rational(rng, place)
            T = random_nonzero_rational(rng, place)
            q0 = random_nonzero_rational(rng, place)
            q1 = random_nonzero_rational(rng, place)
            assert k_general_quadratic(
                place, action_form_constant_field(a, T), q1, q0
            ) == k_constant_field(place, a, T, q0, q1)
            assert k_general_quadratic(
                place, action_form_constant_field(0, T), q1, q0
            ) == k_free(place, T, q0, q1)
            assert k_general_quadratic(
                place, desitter_action_form(lam, T), q1, q0
            ) == k_desitter(place, lam, T, q0, q1)
    _report(6, "general quadratic formula, 100 trials x 5 places, exact")


def test_criterion_7_real_place_spot_values():
    """Fresnel value, oscillatory quadrature, and the (iT)^(-1/2) prefactor."""
    import cmath

    amp = gauss_full(R, 1, 0)
    re, im = amp.render()
    assert abs(re - 0.5) <= 1e-12 and abs(im - (-0.5)) <= 1e-12
    quadrature = fresnel_reference.quadrature(1, 0)
    assert abs(quadrature - complex(re, im)) <= 1e-10
    for T in (F(1), F(2), F(1, 2), F(5, 3), F(-1), F(-3, 4), F(-7, 2), F(10)):
        pref = Amplitude(1 / norm(T, R), lambda_v(R, 2 * T))
        got = complex(*pref.render())
        want = 1 / cmath.sqrt(1j * float(T))
        assert abs(got - want) <= 1e-12, T
    _report(7, "real-place spot values: Fresnel 1e-12, quadrature 1e-10, prefactor 1e-12")


def test_criterion_8_padic_analytic_layer():
    """Trig identity and sqrt round-trip mod p^20; oscillator cross-check."""
    rng = random.Random(20240606)

    def p_unit(p):
        num = den = p
        while num % p == 0:
            num = rng.randint(1, 60)
        while den % p == 0:
            den = rng.randint(1, 60)
        return F(num * rng.choice((-1, 1)), den)

    for p in (3, 5, 7):
        one = PadicTruncation.from_rational(1, p, 20)
        for _ in range(200):
            x = p_unit(p) * F(p) ** rng.randint(1, 3)  # domain interior
            s, c = sin_p(x, p, 20), cos_p(x, p, 20)
            ident = add(mul(s, s), mul(c, c))
            assert ident.precision >= 20
            assert agrees_with(ident, one, 20)
        for _ in range(200):
            y = p_unit(p)
            k = rng.randint(-2, 2)
            x = y * y * F(p) ** (2 * k)
            # a root of valuation k pins the square modulo p^(20) only if
            # it is itself known modulo p^(20 - k)
            root = sqrt_p(x, p, 20 - min(0, k))
            square = mul(root, root)
            assert square.precision >= 20
            assert agrees_with(square, PadicTruncation.from_rational(x, p, 20), 20)
    # documented oscillator sample against the hand formula; at dgamma = 3,
    # p = 3 and 7, sqrt(9) = 3 is not a square in Q_p, so the kernel's
    # lambda(2 sqrt/sin delta) differs from lambda(2 sin delta) there
    for p, dgamma in ((3, 1), (5, 1), (7, 1), (3, 3), (7, 3)):
        place = Place.prime(p)
        data = OscillatorBoundaryData(
            x0=F(1), x1=F(2), gamma0=F(0), gamma1=F(p),
            dgamma0=F(dgamma), dgamma1=F(dgamma),
            s0=F(2), s1=F(3), ds0=F(1, 2), ds1=F(1, 4),
        )
        amp = k_oscillator_td(place, data, 24)
        assert amp == k_oscillator(place, data, 24)
    _report(8, "p-adic analytic layer mod p^20 and oscillator cross-check")
