import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from padicqm import Amplitude, InputError, Phase, Place, characters, chi, lambda_v, legendre
from padicqm.characters import gauss_factor
from padicqm.places import is_prime

import lambda_oracle


def legendre_bruteforce(a: int, p: int) -> int:
    """O(p) residue-set oracle for the Legendre symbol."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if a % p == 0:
        return 0
    residues = {x * x % p for x in range(1, p)}
    return 1 if a % p in residues else -1

R = Place.real()
P2, P3, P5, P7 = (Place.prime(p) for p in (2, 3, 5, 7))


def nonzero_rationals(p=None):
    units = st.fractions(min_value=F(-30), max_value=F(30), max_denominator=30).filter(
        lambda x: x != 0
    )
    if p is None:
        return units
    return st.builds(lambda u, k: u * F(p) ** k, units, st.integers(-3, 3))


class TestChi:
    def test_examples(self):
        assert chi(P3, F(1, 3)) == Phase(F(1, 3))
        assert chi(P5, F(7)) == Phase(F(0))
        assert chi(P7, F(3, 5)) == Phase(F(0))  # norm <= 1
        assert chi(R, F(1, 4)) == Phase(F(3, 4))

    @settings(max_examples=200)
    @given(x=nonzero_rationals(3), y=nonzero_rationals(3))
    def test_additive(self, x, y):
        for place in (R, P2, P3, P5):
            assert chi(place, x + y) == chi(place, x) + chi(place, y)


class TestLegendre:
    def test_examples(self):
        assert legendre(1, 7) == 1
        assert legendre(4, 7) == 1
        assert legendre(2, 5) == -1  # residues mod 5 are {1, 4}
        assert legendre(10, 5) == 0

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            legendre(3, 2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_euler_criterion_vs_bruteforce(self, p):
        for a in range(-p, 2 * p + 1):
            assert legendre(a, p) == legendre_bruteforce(a, p)

    @settings(max_examples=200)
    @given(a=st.integers(-50, 50), b=st.integers(-50, 50), p=st.sampled_from([3, 5, 7, 13]))
    def test_multiplicative(self, a, b, p):
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


class TestLambda:
    def test_examples(self):
        assert lambda_v(R, 1) == Phase(F(7, 8))
        assert lambda_v(R, -3) == Phase(F(1, 8))
        assert lambda_v(P3, 3) == Phase(F(1, 4))  # value i
        assert lambda_v(P2, 2) == Phase(F(1, 8))  # value (1+i)/sqrt(2)
        assert lambda_v(P5, 5) == Phase(F(0))  # value 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lambda_v(P3, 0)

    @settings(max_examples=300)
    @given(
        a=nonzero_rationals(2),
        b=nonzero_rationals(2),
        pidx=st.sampled_from([None, 2, 3, 5, 7, 13]),
    )
    def test_identities(self, a, b, pidx):
        place = R if pidx is None else Place.prime(pidx)
        la, lb = lambda_v(place, a), lambda_v(place, b)
        assert (la.value * 8).denominator == 1
        # square absorption
        assert lambda_v(place, a * a * b) == lb
        # product rule
        if a + b != 0:
            assert la + lb == lambda_v(place, a + b) + lambda_v(place, 1 / a + 1 / b)

    def test_conjugate_is_inverse(self):
        for place in (R, P2, P3, P5, P7):
            for a in (F(2), F(-3, 4), F(5, 7), F(12)):
                assert lambda_v(place, a) + lambda_v(place, -a) == Phase(F(0))

    # 5 and 13 are 1 (mod 4), 3 and 7 are 3 (mod 4)
    @settings(max_examples=300)
    @given(n=st.integers(-300, 300).filter(bool), d=st.integers(-300, 300).filter(bool),
           c=st.integers(1, 40), j=st.integers(0, 3), pidx=st.sampled_from([None, 2, 3, 5, 7, 13]))
    def test_split_of_unreduced_pairs_matches_oracle(self, n, d, c, j, pidx):
        # n/d times c p^j over itself: a common factor, a common power of p,
        # and a denominator of either sign all leave lambda as it is
        place = R if pidx is None else Place.prime(pidx)
        k = c * (pidx or 1) ** j
        want = lambda_oracle.lambda_v(place, F(n, d))
        assert gauss_factor(place, n * k, d * k)[1] == want
        assert lambda_v(place, F(n, d)) == want

    def test_independent_of_the_public_legendre(self, monkeypatch):
        # lambda reads (u/p) itself, so a wrong characters.legendre cannot move
        # it; the oracle's legendre is padicqm's own binding, not the patched one
        right = characters.legendre
        monkeypatch.setattr(characters, "legendre",
                            lambda a, p: -right(a, p) if p == 13 else right(a, p))
        assert characters.legendre(1, 13) == -1
        P13 = Place.prime(13)
        for u in range(1, 13):
            for v in (-3, -1, 1, 3):
                for a in (F(u) * F(13) ** v, F(u, 2) * F(13) ** v):
                    assert lambda_v(P13, a) == lambda_oracle.lambda_v(P13, a), (u, v, a)

    def test_every_two_adic_residue_matches_oracle(self):
        # each unit residue mod 8 at either valuation parity, over unreduced pairs
        for r in (1, 3, 5, 7):
            for v in range(-3, 4):
                for num, den in ((r, 1), (-r, -1), (r * 9, 9), (r * 3, -3 * 7 * 7)):
                    a = F(num, den) * F(2) ** v
                    want = lambda_oracle.lambda_v(P2, a)
                    n, d = num * 2 ** max(v, 0) * 6, den * 2 ** max(-v, 0) * 6
                    assert gauss_factor(P2, n, d)[1] == want
                    assert lambda_v(P2, a) == want


class TestAmplitude:
    def test_mul_examples(self):
        m = Amplitude(F(2), Phase(F(1, 8)))
        assert Amplitude.one() * m == m
        prod = m * Amplitude(F(2), Phase(F(7, 8)))
        assert prod == Amplitude(F(4), Phase(F(0)))
        assert Amplitude.zero() * m == Amplitude.zero()

    def test_zero_is_canonical(self):
        assert Amplitude(F(0), Phase(F(1, 3))) == Amplitude.zero()

    def test_conjugate(self):
        a = Amplitude(F(3), Phase(F(1, 3)))
        assert a.conjugate().phase == Phase(F(2, 3))
        assert a * a.conjugate() == Amplitude(F(9), Phase(F(0)))

    def test_render_examples(self):
        for amp, expect in [
            (Amplitude(F(1), Phase(F(0))), (1.0, 0.0)),
            (Amplitude(F(1), Phase(F(1, 4))), (0.0, 1.0)),
            (Amplitude(F(1, 2), Phase(F(7, 8))), (0.5, -0.5)),
        ]:
            re, im = amp.render()
            assert math.isclose(re, expect[0], abs_tol=1e-12)
            assert math.isclose(im, expect[1], abs_tol=1e-12)

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError):
            Amplitude(F(-1))

    def test_non_fraction_modulus_coerced(self):
        amp = Amplitude(2, Phase(F(1, 3)))
        assert type(amp.modulus_sq) is F and amp.modulus_sq == 2
        assert Amplitude(0, Phase(F(1, 3))) == Amplitude.zero()
        for bad in (0.25, "3/4"):
            with pytest.raises(InputError, match="not a rational"):
                Amplitude(bad, Phase(F(1, 3)))
        with pytest.raises(ValueError):
            Amplitude(-1)

    @pytest.mark.parametrize("k", [-400, -330, -324, 330, 400])
    def test_render_beyond_float_range_of_the_square(self, k):
        # |.|^2 = 3^(2k) is beyond the normal float range (3^-648 and
        # 3^-660 are subnormal), |.| = 3^k is not
        amp = Amplitude(F(3) ** (2 * k), Phase(F(1, 8)))
        re, im = amp.render()
        assert math.isclose(math.hypot(re, im), 3.0**k, rel_tol=1e-12)
        assert math.isclose(re, im, rel_tol=1e-12)

    @pytest.mark.parametrize("k", [-1000, -700, 700, 1000])
    def test_render_raises_when_the_modulus_is_beyond_float_range(self, k):
        with pytest.raises(OverflowError):
            Amplitude(F(3) ** (2 * k)).render()


class TestPhase:
    def test_group_laws(self):
        a, b = Phase(F(3, 4)), Phase(F(5, 8))
        assert a + b == Phase(F(3, 8))
        assert a + (-a) == Phase(F(0))
        assert -Phase(F(0)) == Phase(F(0))
        assert a - Phase(F(1, 3)) == Phase(F(5, 12))
        assert 3 * a == a * (-5) == Phase(F(1, 4))
        assert a * 0 == Phase(F(0))

    def test_normalization(self):
        assert Phase(F(9, 4)) == Phase(F(1, 4))
        assert Phase(F(-1, 4)) == Phase(F(3, 4))

    @settings(max_examples=200)
    @given(q=st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)))
    def test_value_is_a_fraction_in_the_unit_interval(self, q):
        value = Phase(q).value
        assert type(value) is F and 0 <= value < 1
        assert (value - q).denominator == 1
        assert Phase(-1).value == 0
        for bad in (0.75, "3/4"):
            with pytest.raises(InputError, match="not a rational"):
                Phase(bad)

    def test_to_complex(self):
        z = Phase(F(1, 2)).to_complex()
        assert abs(z - (-1)) < 1e-15
