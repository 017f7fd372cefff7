import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from padicqm import (
    BallSpec,
    DegenerateQuadraticError,
    InputError,
    OracleCapError,
    Place,
    QuadraticCharacter,
    gauss_full,
    haar_oracle,
    minimal_resolution,
    norm,
    quad_char_integral_ball,
    quadratic_char_fn,
    stabilization_threshold,
)
from padicqm import gauss
from padicqm.characters import Amplitude, Phase
from padicqm.gauss import _complete_gauss_sum
from padicqm.places import valuation
from padicqm.verify import HAAR_TOLERANCE

import fresnel_reference
import gauss_oracle
import point_oracle

R = Place.real()
P3, P5 = Place.prime(3), Place.prime(5)


def small_rationals(p):
    units = st.fractions(min_value=F(-12), max_value=F(12), max_denominator=12)
    return st.builds(lambda u, k: u * F(p) ** k, units, st.integers(-2, 2))


class TestGaussFull:
    def test_padic_examples(self):
        # frozen from the Haar oracle on growing balls (see test below)
        assert gauss_full(P3, 1, 0) == Amplitude(F(1), Phase(F(0)))
        assert gauss_full(P5, F(1, 5), 0) == Amplitude(F(1, 5), Phase(F(0)))

    def test_real_fresnel_value(self):
        amp = gauss_full(R, 1, 0)
        assert amp == Amplitude(F(1, 2), Phase(F(7, 8)))
        re, im = amp.render()
        assert math.isclose(re, 0.5, abs_tol=1e-12)
        assert math.isclose(im, -0.5, abs_tol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateQuadraticError):
            gauss_full(P3, 0, 1)
        with pytest.raises(DegenerateQuadraticError):
            stabilization_threshold(3, 0, 1)


def seeded_rational(rng, p):
    """0 one time in six, else +-n/d * p^k with n, d up to 40 (p may divide them) and |k| <= 3."""
    if rng.randrange(6) == 0:
        return F(0)
    return rng.choice((1, -1)) * F(rng.randint(1, 40), rng.randint(1, 40)) * F(p) ** rng.randint(-3, 3)


class TestIntegerRoutes:
    """The integer routes of gauss against the Fraction formulas of tests/gauss_oracle.py."""

    @pytest.mark.parametrize("place", [R, *(Place.prime(p) for p in (2, 3, 5, 7, 13))], ids=str)
    def test_gauss_full(self, place):
        rng = random.Random(place.p or 0)
        hits = {"a < 0": 0, "b = 0": 0, "a = 0": 0}
        for _ in range(1500):
            a, b = seeded_rational(rng, place.p or 3), seeded_rational(rng, place.p or 3)
            hits["a < 0"] += a < 0
            hits["b = 0"] += b == 0
            if a == 0:
                hits["a = 0"] += 1
                for route in (gauss_full, gauss_oracle.gauss_full):
                    with pytest.raises(DegenerateQuadraticError):
                        route(place, a, b)
                continue
            assert gauss_full(place, a, b) == gauss_oracle.gauss_full(place, a, b), (a, b)
        assert min(hits.values()) >= 100, hits

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_complete_gauss_sum_strip(self, p):
        # the library sums a unit a only, and reads the ball's zero cases from
        # valuations; the oracle's zero cases and p^(2j) strip, against which
        # test_ball_integral checks them, are checked here against the sum itself
        rng = random.Random(p)
        L_max = max(L for L in range(1, 12) if p**L <= 2500)
        hits = {"a = 0 mod p^L": 0, "stripped": 0, "zero value": 0}
        for _ in range(400):
            L = rng.randint(0, L_max)
            j = rng.randint(0, L)
            a = rng.randrange(1, p**L + 1) * p**j
            b = rng.randrange(p**L + 1) * p ** rng.randint(0, L)
            got = gauss_oracle.complete_gauss_sum(a, b, p, L)
            assert abs(complex(*got.render()) - enumerated_sum(a, b, p, L)) < 1e-9 * p**L, (a, b, L)
            hits["a = 0 mod p^L"] += a % p**L == 0
            hits["stripped"] += 0 < j < L and not got.is_zero
            hits["zero value"] += got.is_zero
        assert min(hits.values()) >= 40, hits

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_ball_integral(self, p):
        rng = random.Random(p)
        hits = {"alpha = 0": 0, "beta = 0": 0, "L = 0": 0, "N < 0": 0, "zero value": 0}
        for _ in range(1500):
            alpha, beta, n = seeded_rational(rng, p), seeded_rational(rng, p), rng.randint(-3, 3)
            got = quad_char_integral_ball(p, alpha, beta, n)
            assert got == gauss_oracle.quad_char_integral_ball(p, alpha, beta, n), (alpha, beta, n)
            L = max([0] + [s * n - valuation(c, p) for s, c in ((2, alpha), (1, beta)) if c])
            hits["alpha = 0"] += alpha == 0
            hits["beta = 0"] += beta == 0
            hits["L = 0"] += L == 0
            hits["N < 0"] += n < 0
            hits["zero value"] += got.is_zero
        assert min(hits.values()) >= 100, hits


def brute_complete_sum_mp(a, b, p, L):
    """High-precision complete Gauss sum oracle (50 digits)."""
    mod = p**L
    with mpmath.workdps(50):
        total = mpmath.mpc(0)
        for x in range(mod):
            total += mpmath.expjpi(2 * F((a * x * x + b * x) % mod, mod))
        return total


def enumerated_sum(a, b, p, L):
    """The complete Gauss sum mod p^L term by term, the terms counted by residue."""
    mod = p**L
    counts = Counter((a * x * x + b * x) % mod for x in range(mod))
    angles = [(c, 2 * math.pi * k / mod) for k, c in counts.items()]
    return complex(math.fsum(c * math.cos(t) for c, t in angles),
                   math.fsum(c * math.sin(t) for c, t in angles))


class TestCompleteGaussSum:
    @pytest.mark.parametrize("p,L_max", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_against_high_precision_enumeration(self, p, L_max):
        # the library's sum takes a unit a, which the ball integral guarantees
        for L in range(1, L_max + 1):
            mod = p**L
            for a in (a for a in range(min(mod, 12)) if a % p):
                for b in range(0, min(mod, 12)):
                    got = _complete_gauss_sum(a, b, p, L)
                    want = brute_complete_sum_mp(a, b, p, L)
                    re, im = got.render()
                    assert abs(complex(re, im) - complex(want)) < 1e-9, (p, L, a, b)


class TestSquareShift:
    """The stripped reduction of the completed square against the full one."""

    @pytest.mark.parametrize("p,L_max", [(2, 9), (3, 6), (5, 4), (7, 4)])
    def test_equals_reduction_modulo_p_to_the_L(self, p, L_max):
        for L in range(1, L_max + 1):
            mod = p**L
            units = [u for u in range(1, min(mod, 40)) if u % p]
            for h in [*range(min(mod, 60)), *(p**j * w for j in range(L + 1) for w in (1, 2, 3))]:
                for u in units:
                    # the eighths of the Gauss sum's root of unity vary with u and h
                    e = (u + h) % 8
                    want = Phase(F(-h * h * pow(u, -1, mod) % mod, mod) + F(e, 8))
                    assert gauss._square_shift(u, h, p, L, e) == want, (p, L, u, h)

    def test_large_exponent_with_high_valuation(self):
        # b = p^10000 at L = 20000: the shift vanishes without the 3L-digit reduction
        p = 3317044064679887385961813
        assert quad_char_integral_ball(p, 1, 1, 10000) == Amplitude(F(1), Phase(F(0)))


class TestBallIntegral:
    def test_examples(self):
        assert quad_char_integral_ball(3, 0, F(1, 9), 0).is_zero
        assert quad_char_integral_ball(3, 0, 1, 0) == Amplitude(F(1), Phase(F(0)))
        full = gauss_full(P3, 1, 0)
        for N in (1, 2, 3):
            assert quad_char_integral_ball(3, 1, 0, N) == full

    def test_linear_character_vanishing(self):
        for p in (2, 3, 5):
            for n in (-2, -1, 0, 1, 2):
                for beta in (F(1), F(1, p), F(p), F(3, p * p)):
                    val = quad_char_integral_ball(p, 0, beta, n)
                    if norm(beta, Place.prime(p)) <= F(p) ** (-n):
                        assert val == Amplitude(F(p) ** (2 * n), Phase(F(0)))
                    else:
                        assert val.is_zero

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=small_rationals(3),
        beta=small_rationals(3),
        n=st.integers(-1, 2),
        c=small_rationals(3).filter(lambda v: v != 0),
    )
    def test_scaling_covariance(self, alpha, beta, n, c):
        # substituting x -> cx: integral(alpha, beta, N) =
        #   |c| * integral(alpha c^2, beta c, N - log_p |c|)
        p = 3
        lhs = quad_char_integral_ball(p, alpha, beta, n)
        vc = valuation(c, p)
        rhs = quad_char_integral_ball(p, alpha * c * c, beta * c, n + vc)
        scaled = Amplitude(norm(c, P3) ** 2, Phase(F(0))) * rhs
        assert lhs == scaled

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 19, 23])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stabilization(self, p, data):
        # gauss_full takes its phase from lambda_p, the ball integral from
        # the lambda-free _complete_gauss_sum; p = 11, 19 and 23 reach the
        # p = 3 (mod 4) primes above 7
        alpha = data.draw(small_rationals(p).filter(lambda v: v != 0), label="alpha")
        beta = data.draw(small_rationals(p), label="beta")
        full = gauss_full(Place.prime(p), alpha, beta)
        n0 = stabilization_threshold(p, alpha, beta)
        for n in (n0, n0 + 1, n0 + 2):
            assert quad_char_integral_ball(p, alpha, beta, n) == full

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_literal_enumeration(self, p):
        cases = [
            (F(1), F(0), 0),
            (F(1), F(1), 1),
            (F(1, p), F(0), 0),
            (F(1, p * p), F(1, p), 1),
            (F(p), F(1, p), 1),
            (F(2), F(3, p), 0),
            (F(0), F(1, p * p), 0),
        ]
        for alpha, beta, n in cases:
            m = minimal_resolution(p, alpha, beta, n)
            exact = quad_char_integral_ball(p, alpha, beta, n)
            approx = point_oracle.haar_integral(
                quadratic_char_fn(p, alpha, beta), BallSpec(p, n, m)
            )
            assert abs(complex(*exact.render()) - approx) < 1e-9, (alpha, beta, n)


class TestHaarOracle:
    def test_measure_of_ball(self):
        for p, n, m in [(3, 1, 2), (2, 2, 0), (5, 0, 1)]:
            # the constant character 1
            f, ball = quadratic_char_fn(p, 0, 0), BallSpec(p, n, m)
            val = haar_oracle(p, f, ball)
            assert val == point_oracle.haar_integral(f, ball)
            assert abs(val - p**n) < 1e-12

    def test_quadratic_character_matches_closed_form(self):
        val = haar_oracle(3, quadratic_char_fn(3, F(1), F(0)), BallSpec(3, 1, 2))
        exact = complex(*gauss_full(P3, 1, 0).render())
        assert abs(val - exact) < 1e-12

    def test_linear_character_cancellation(self):
        # chi_2 is trivial on integers, so beta must reach into negative
        # powers for the two cosets {0, 1} to pick up phases 0 and 1/2
        val = haar_oracle(2, quadratic_char_fn(2, F(0), F(1, 2)), BallSpec(2, 0, 1))
        assert abs(val) < 1e-15
        # equivalent view: chi_2(x) itself over the radius-2 ball
        val2 = haar_oracle(2, quadratic_char_fn(2, F(0), F(1)), BallSpec(2, 1, 0))
        assert abs(val2) < 1e-15
        # and on the unit ball chi_2 is identically 1
        val3 = haar_oracle(2, quadratic_char_fn(2, F(0), F(1)), BallSpec(2, 0, 1))
        assert abs(val3 - 1) < 1e-15

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(gauss, "COSET_CAP", 1000)
        with pytest.raises(OracleCapError):
            haar_oracle(3, quadratic_char_fn(3, 0, 0), BallSpec(3, 10, 10))

    def test_cap_forms_no_power_past_its_bit_length(self, monkeypatch):
        # 3^9100 has more than 4,300 digits, beyond str() of an int: the ball
        # is refused from N + M alone, and the message names the power
        monkeypatch.setattr(BallSpec, "n_cosets", property(lambda ball: pytest.fail("p^(N+M)")))
        with pytest.raises(OracleCapError, match=r"^3\^9100 cosets exceed the cap of 1000000$"):
            haar_oracle(3, quadratic_char_fn(3, 1, 0), BallSpec(3, 9100, 0))

    @pytest.mark.parametrize("ball", [BallSpec(3, 20, 21), BallSpec(3, 0, 10**8)])
    def test_the_coordinates_share_the_cap(self, monkeypatch, ball):
        # 3^41 cosets, at minimal_resolution's ball of chi_3(x^2/3), and 3^(10^8):
        # the public method refuses both from N + M, as haar_oracle does, before
        # a count list or p^(N+M) is formed
        f = quadratic_char_fn(3, F(1, 3), 0)
        assert ball.resolution_exponent >= minimal_resolution(3, f.alpha, f.beta, ball.radius_exponent)
        monkeypatch.setattr(BallSpec, "n_cosets", property(lambda ball: pytest.fail("p^(N+M)")))
        for route in (f.power_coordinates, lambda ball: haar_oracle(3, f, ball)):
            with pytest.raises(OracleCapError, match=r"^3\^\d+ cosets exceed the cap of 1000000$"):
                route(ball)

    def test_memory_of_a_large_ball(self):
        # the criterion-1 ball of 7^6 cosets sums its few classes of one
        # residue: no list of its m = 7^7 counts is made
        p, a, b, ball = next(cell for cell in criterion_1_cells() if cell[3].n_cosets == 7**6)
        f = quadratic_char_fn(p, a, b)
        tracemalloc.start()
        try:
            haar_oracle(p, f, ball)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    @pytest.mark.parametrize("p, n, refused", [(2, 3, False), (2, 4, True), (3, 2, True),
                                               (7, 1, False)])
    def test_cap_edges(self, monkeypatch, p, n, refused):
        # the cap 8 has bit length 4: 2^3 and 7 cosets are summed, 2^4 is
        # refused by its exponent and 3^2 by its count
        monkeypatch.setattr(gauss, "COSET_CAP", 8)
        f, ball = quadratic_char_fn(p, 0, 0), BallSpec(p, n, 0)
        if refused:
            with pytest.raises(OracleCapError, match=f"^{p}\\^{n} cosets exceed the cap of 8$"):
                haar_oracle(p, f, ball)
        else:
            assert abs(haar_oracle(p, f, ball) - p**n) < 1e-9

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            BallSpec(3, -2, 1)

    def test_ball_at_another_prime_rejected(self):
        with pytest.raises(InputError, match="^ball prime disagrees with p$"):
            haar_oracle(3, quadratic_char_fn(5, 1, 0), BallSpec(5, 1, 1))


def criterion_1_cells():
    """The (p, a, b) grid of acceptance criterion 1, with its Haar ball."""
    nonresidue = {2: 3, 3: 2, 5: 2, 7: 3}
    for p in (2, 3, 5, 7):
        c = nonresidue[p]
        for k in range(-2, 3):
            for sign, u in ((1, 1), (1, c), (-1, 1)):
                a = sign * u * F(p) ** k
                for b in (F(0), F(1), F(p) ** -2, F(p) ** 2):
                    n0 = stabilization_threshold(p, a, b)
                    yield p, a, b, BallSpec(p, n0, minimal_resolution(p, a, b, n0))


def assert_coordinates(f, ball, counts, m):
    """``power_coordinates`` is the reduction of the counts, item for item in ascending j."""
    coords, mf = f.power_coordinates(ball)
    ref = point_oracle.power_coordinates(counts, m, ball.prime)
    assert mf == m and coords == ref
    assert list(coords) == list(ref)


def histogram(qs, m):
    """How many of the phases qs are j/m, per j < m; each must be one."""
    counts = [0] * m
    for q in qs:
        j = q * m
        assert j.denominator == 1, (q, m)
        counts[j.numerator] += 1
    return counts


def assert_routes_agree(f, ball):
    """Exact coordinates == the reduced running-sum counts == the per-point phases counted, and the Haar sums agree.

    Where ``power_coordinates`` refuses the ball, ``haar_oracle`` must refuse
    it too, and a brute-force check must find a coset on which f varies.
    Returns whether the ball was summed.
    """
    p, N = ball.prime, ball.radius_exponent
    try:
        f.power_coordinates(ball)
    except InputError:
        assert point_oracle.varies_on_a_coset(f, ball)
        with pytest.raises(InputError):
            haar_oracle(p, f, ball)
        return False
    counts, m = point_oracle.running_sum_counts(f, ball)
    assert_coordinates(f, ball, counts, m)
    qs = point_oracle.phases(f, ball)
    assert histogram(qs, m) == counts
    # only a few power-basis coordinates are rounded, against every coset per point
    assert abs(haar_oracle(p, f, ball) - point_oracle.haar_sum(qs, ball)) <= 1e-13 * p**N
    return True


def coefficients(p):
    """0, or rationals whose denominators mix p with other primes."""
    mixed = st.builds(
        lambda n, d, k: F(n, d) * F(p) ** k,
        st.integers(-60, 60).filter(lambda n: n != 0),
        st.integers(1, 36),
        st.integers(-3, 3),
    )
    return st.one_of(st.just(F(0)), mixed)


class TestCosetAngles:
    """The coset residues at small balls and zero coefficients, as phase counts."""

    @pytest.mark.parametrize("p, alpha, beta, ball, phases", [
        # n_cosets = 1, 2, 3; x^2/9 varies on Z_3, so the one coset is not counted
        (3, F(1, 9), F(1, 3), BallSpec(3, 0, 0), [0]),
        (2, F(1, 4), F(1, 2), BallSpec(2, 0, 1), [0, F(3, 4)]),
        (3, F(1, 3), F(1, 3), BallSpec(3, 0, 1), [0, F(2, 3), 0]),
        # c2 = 0, c1 = 0, both zero
        (2, F(0), F(1, 2), BallSpec(2, 0, 1), [0, F(1, 2)]),
        (3, F(1, 3), F(0), BallSpec(3, 0, 1), [0, F(1, 3), F(1, 3)]),
        (5, F(0), F(0), BallSpec(5, 1, 1), [0] * 25),
        # alpha = p^2 is nonzero, but alpha x^2 is p-integral on the unit ball: c2 = 0
        (5, F(25), F(1, 5), BallSpec(5, 0, 1), [F(r, 5) for r in range(5)]),
        # p = 2 with m = 2 n: four cosets, residues mod 8
        (2, F(1, 8), F(0), BallSpec(2, 0, 2), [0, F(1, 8), F(1, 2), F(1, 8)]),
        # x^2/2 + x/4 varies on the cosets of 2 Z_2: not counted
        (2, F(1, 2), F(1, 4), BallSpec(2, 1, 1), [0, F(1, 4), F(3, 4), F(1, 2)]),
    ])
    def test_small_balls(self, p, alpha, beta, ball, phases):
        f = quadratic_char_fn(p, alpha, beta)
        assert point_oracle.phases(f, ball) == phases
        counted = assert_routes_agree(f, ball)
        assert counted != point_oracle.varies_on_a_coset(f, ball)
        if counted:
            m = point_oracle.running_sum_counts(f, ball)[1]
            assert_coordinates(f, ball, histogram(phases, m), m)


class TestQuadraticCharacter:
    def test_criterion_1_cells(self):
        checked = 0
        for p, a, b, ball in criterion_1_cells():
            if ball.n_cosets <= 20_000:
                assert assert_routes_agree(quadratic_char_fn(p, a, b), ball)
                checked += 1
        assert checked == 237

    def test_criterion_1_cells_against_running_sums(self):
        # all 240 balls, the 3 above 20,000 cosets among them: the coordinates
        # are those of the running sums' counts, and the oracle rounds them as
        # the whole-list route does, bit for bit
        for p, a, b, ball in criterion_1_cells():
            f = quadratic_char_fn(p, a, b)
            counts, m = point_oracle.running_sum_counts(f, ball)
            assert_coordinates(f, ball, counts, m)
            assert haar_oracle(p, f, ball) == point_oracle.power_basis_sum(counts, m, ball)

    def test_criterion_1_cells_against_closed_form(self):
        # all 240 balls, up to 117,649 cosets; the largest error measured is 2.7e-16 p^N
        for p, a, b, ball in criterion_1_cells():
            haar = haar_oracle(p, quadratic_char_fn(p, a, b), ball)
            exact = complex(*gauss_full(Place.prime(p), a, b).render())
            assert abs(haar - exact) <= 1e-13 * p**ball.radius_exponent, (p, a, b)

    def test_oracle_sees_the_conjugated_closed_form(self):
        # the cells where conjugation changes the closed form, each told apart
        # from the conjugate by more than the tolerance that verify grants
        seen = 0
        for p, a, b, ball in criterion_1_cells():
            full = gauss_full(Place.prime(p), a, b)
            if full.conjugate() == full:
                continue
            haar = haar_oracle(p, quadratic_char_fn(p, a, b), ball)
            assert abs(haar - complex(*full.conjugate().render())) > HAAR_TOLERANCE, (p, a, b)
            seen += 1
        assert seen > 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), n=st.integers(-3, 3))
    def test_sweep(self, data, p, n):
        alpha = data.draw(coefficients(p), label="alpha")
        beta = data.draw(coefficients(p), label="beta")
        depth = data.draw(st.integers(0, {2: 11, 3: 7, 5: 4, 7: 3}[p]), label="N+M")
        assert_routes_agree(quadratic_char_fn(p, alpha, beta), BallSpec(p, n, depth - n))

    def test_returns_frozen_character(self):
        f = quadratic_char_fn(3, 1, F(1, 3))
        assert f == QuadraticCharacter(3, F(1), F(1, 3))
        assert isinstance(f.alpha, F) and isinstance(f.beta, F)

    @pytest.mark.parametrize("p, q", [(3, 5), (2, 3), (7, 2)])
    def test_character_prime_must_match_ball(self, p, q):
        with pytest.raises(ValueError):
            haar_oracle(p, quadratic_char_fn(q, F(1, q), F(1)), BallSpec(p, 1, 1))


class TestClassCounts:
    """``power_coordinates`` against the running sums on a ball of each branch of the class count.

    With B the least power of p with c2 B^2 = 0 mod m, coset r = s + B t has
    k_r = k_s + t B (2 c2 s + c1) mod m, so each s < B spreads its n/B terms
    evenly over a residue class mod G_s = B gcd(2 c2 s + c1, m/B), which
    sums to 0 in Z[zeta_m] unless G_s = m.
    """

    @pytest.mark.parametrize("p, alpha, beta, ball", [
        # n = 1 at p = 2: B stops at n, below the least power 2 with
        # c2 B^2 = 0 mod m, so the one class is the one coset
        (2, F(1, 2), F(1, 14), BallSpec(2, 0, 0)),
        # m = 7, B = 7, G = m: every class is one residue, 7 terms on each
        (7, F(3, 7), F(1, 7), BallSpec(7, 0, 2)),
        # m = 64, B = 8, G = 8: p divides a2 = 2 c2/g0, so no class is one
        # residue and every coordinate is 0
        (2, F(1, 64), F(1, 64), BallSpec(2, 0, 6)),
        # m = 32, B = 8, G = 16: the s = 0 mod 2 are the classes of one residue
        (2, F(1, 32), F(0), BallSpec(2, 0, 6)),
        # m = 128, B = 16, G = 32: the s = 0 mod 4 are; the finer classes mod 64 cancel
        (2, F(1, 128), F(0), BallSpec(2, 0, 6)),
        # m = 81, B = 9, G = 9: s = 0 alone is; the classes mod 9 and mod 27 cancel
        (3, F(1, 9), F(0), BallSpec(3, 1, 3)),
    ])
    def test_each_branch(self, p, alpha, beta, ball):
        assert assert_routes_agree(quadratic_char_fn(p, alpha, beta), ball)

    @pytest.mark.parametrize("p, ball", [(101, BallSpec(101, 0, 1)), (101, BallSpec(101, 0, 2)),
                                         (999983, BallSpec(999983, 0, 1))])
    def test_modulus_p(self, p, ball):
        # m = p: B = p classes of one residue each, n/p terms on each
        f = quadratic_char_fn(p, F(3, p), F(-5, p))
        counts, m = point_oracle.running_sum_counts(f, ball)
        assert m == p
        assert_coordinates(f, ball, counts, m)
        assert haar_oracle(p, f, ball) == point_oracle.power_basis_sum(counts, m, ball)


class TestMinimalResolution:
    """``minimal_resolution`` against the oracle's exact constancy predicate."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), n=st.integers(-1, 1))
    def test_sufficient_everywhere_and_least_at_odd_p(self, data, p, n):
        alpha = data.draw(small_rationals(p), label="alpha")
        beta = data.draw(small_rationals(p), label="beta")
        m = minimal_resolution(p, alpha, beta, n)
        f = quadratic_char_fn(p, alpha, beta)
        f.power_coordinates(BallSpec(p, n, m))
        if p != 2 and m > -n:
            with pytest.raises(InputError):
                f.power_coordinates(BallSpec(p, n, m - 1))

    def test_one_step_more_than_needed_at_2(self):
        # x(7x + 1) is even on Z_2, so chi_2(x^2/2 + x/14) is 1 on the whole unit ball
        f = quadratic_char_fn(2, F(1, 2), F(1, 14))
        assert minimal_resolution(2, F(1, 2), F(1, 14), 0) == 1
        assert f.power_coordinates(BallSpec(2, 0, 0)) == ({0: 1}, 2)


class TestFresnelOracle:
    """gauss_full at the real place against the references of tests/fresnel_reference.py."""

    def assert_quadrature_agrees(self, a, b):
        exact = complex(*gauss_full(R, a, b).render())
        assert abs(fresnel_reference.quadrature(a, b) - exact) <= 1e-10

    def test_positive_quadratic(self):
        self.assert_quadrature_agrees(1, 0)

    def test_sign_flip_conjugates(self):
        self.assert_quadrature_agrees(-1, 0)

    def test_linear_term(self):
        self.assert_quadrature_agrees(1, 1)

    def test_far_stationary_point(self):
        # the stationary point -b/2a = -21/2 lies far from the origin
        self.assert_quadrature_agrees(F(-1, 6), F(-7, 2))

    def test_principal_root_grid(self):
        # every case is checked; a conjugated lambda_inf would miss every
        # case whose phase is not 0 or 1/2
        rng = random.Random(0)
        changed = 0
        for _ in range(200):
            a = rng.choice((1, -1)) * F(rng.randint(1, 12), rng.randint(1, 6))
            b = F(rng.randint(-12, 12), rng.randint(1, 6))
            amp = gauss_full(R, a, b)
            want = fresnel_reference.principal_root(a, b)
            assert abs(complex(*amp.render()) - want) <= 1e-12, (a, b)
            if amp.phase.value not in (0, F(1, 2)):
                changed += 1
                assert abs(complex(*amp.conjugate().render()) - want) > 1e-6, (a, b)
        assert changed == 190
