import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from padicqm import (
    BallSpec,
    InputError,
    PadicTruncation,
    PadicqmError,
    Place,
    ZeroExpansionError,
    digits,
    fractional_part,
    legendre,
    minimal_resolution,
    norm,
    valuation,
)
from padicqm.characters import gauss_factor
from padicqm.cli import _rational
from padicqm.places import (
    is_prime,
    p_split,
    rational,
    require_prime,
    unit_residue,
)

import digit_oracle
import lambda_oracle

PRIMES = [2, 3, 5, 7, 13]


def padic_rationals(p):
    """Nonzero rationals with a spread of p-adic valuations."""
    units = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=50).filter(
        lambda x: x != 0
    )
    return st.builds(lambda u, k: u * F(p) ** k, units, st.integers(-3, 3))


class TestValuation:
    def test_examples(self):
        assert valuation(F(9, 4), 3) == 2
        assert valuation(F(5, 6), 2) == -1
        assert valuation(0, 7) == math.inf

    def test_integer_inputs(self):
        assert valuation(12, 2) == 2
        assert valuation(12, 3) == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            valuation(F(1), 6)


class TestPSplit:
    """Divisions by p^(2^i) against the step loop of ``digit_oracle``."""

    @staticmethod
    def want(n, p):
        v = digit_oracle.int_valuation(n, p)
        return v, n // p**v

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), v=st.integers(0, 5000),
           u=st.integers(-10**6, 10**6).filter(lambda u: u != 0))
    def test_against_step_loop(self, p, v, u):
        assert p_split(p**v * u, p) == self.want(p**v * u, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_valuation_to_300(self, p):
        for v in range(300):
            for u in (1, -1, p - 1, p + 1, 2 * p - 1):
                assert p_split(p**v * u, p) == self.want(p**v * u, p)

    def test_two_against_the_division_loop(self):
        # at p = 2 v is read from the lowest set bit, for either sign of n
        rng = random.Random(2)
        for v in range(201):
            for _ in range(3):
                u = rng.randrange(1, 2**70) | 1
                for n in (u << v, -(u << v)):
                    assert p_split(n, 2) == self.want(n, 2) == (v, n >> v)

    def test_large_valuation(self):
        # one division by p a step took 13 s here
        assert valuation(F(1, 10**100000), 5) == -100000
        assert p_split(3**40000 * 7, 3) == (40000, 7)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            p_split(0, 3)


class TestNorm:
    def test_examples(self):
        assert norm(3, Place.prime(3)) == F(1, 3)
        assert norm(F(1, 12), Place.prime(2)) == 4
        assert norm(F(-5, 2), Place.real()) == F(5, 2)

    def test_zero(self):
        assert norm(0, Place.prime(5)) == 0
        assert norm(0, Place.real()) == 0

    @settings(max_examples=200)
    @given(n=st.integers(-500, 500).filter(bool), d=st.integers(-500, 500).filter(bool),
           c=st.integers(1, 30), j=st.integers(0, 3), p=st.sampled_from([None, 2, 3, 5, 7]))
    def test_gauss_factor_modulus_of_unreduced_integers(self, n, d, c, j, p):
        # |2a|^-1 at a = n/d; a common factor c p^j of n and d and a negative
        # denominator leave it as it is, and at p a common p^3 leaves the pair
        place = Place(p)
        k = c * (p or 1) ** j
        (x, y), _ = gauss_factor(place, n * k, d * k)
        assert x > 0 and y > 0 and F(x, y) == 1 / norm(2 * F(n, d), place)
        if p is not None:
            assert F(x, y) == F(p) ** valuation(2 * F(n, d), p)
            assert gauss_factor(place, n * p**3, d * p**3)[0] == (x, y)

    @settings(max_examples=200)
    @given(n=st.integers(-500, 500).filter(bool), d=st.integers(-500, 500).filter(bool),
           c=st.integers(1, 30), j=st.integers(0, 3), p=st.sampled_from([None, 2, 3, 5, 7]))
    def test_gauss_factor_lambda_of_unreduced_integers(self, n, d, c, j, p):
        # lambda_v(n/d) from the split of the unreduced pair, against the
        # oracle's route through the reduced unit residue
        place = Place(p)
        k = c * (p or 1) ** j
        assert gauss_factor(place, n * k, d * k)[1] == lambda_oracle.lambda_v(place, F(n, d))

    @settings(max_examples=200)
    @given(x=padic_rationals(3), y=padic_rationals(3))
    def test_ultrametric(self, x, y):
        place = Place.prime(3)
        na, nb = norm(x, place), norm(y, place)
        ns = norm(x + y, place)
        assert ns <= max(na, nb)
        if na != nb:
            assert ns == max(na, nb)

    @settings(max_examples=200)
    @given(x=padic_rationals(5), y=padic_rationals(5))
    def test_multiplicative(self, x, y):
        for place in (Place.prime(5), Place.real()):
            assert norm(x * y, place) == norm(x, place) * norm(y, place)

    @settings(max_examples=100)
    @given(
        x=st.fractions(min_value=F(-1000), max_value=F(1000), max_denominator=720).filter(
            lambda v: v != 0
        )
    )
    def test_product_formula(self, x):
        # |x|_inf * prod_p |x|_p = 1 over the finitely many relevant primes
        total = norm(x, Place.real())
        relevant = _prime_factors(abs(x.numerator)) | _prime_factors(x.denominator)
        for p in relevant:
            total *= norm(x, Place.prime(p))
        assert total == 1


class TestDigits:
    def test_examples(self):
        e = digits(5, 3, 3)
        assert e == PadicTruncation(3, 0, 5, 3)
        assert (e.valuation, e.digits) == (0, (2, 1, 0))
        assert str(e) == "3^0*(2 + 1*3^1) + O(3^3)"
        e = digits(-1, 3, 4)
        assert (e.valuation, e.digits) == (0, (2, 2, 2, 2))
        e = digits(F(1, 3), 3, 2)
        assert (e.valuation, e.digits) == (-1, (1, 0))

    def test_zero_rejected(self):
        with pytest.raises(ZeroExpansionError):
            digits(0, 5, 3)

    def test_count_must_be_positive(self):
        with pytest.raises(InputError, match="count must be positive"):
            digits(5, 3, 0)

    @settings(max_examples=150)
    @given(x=padic_rationals(3), count=st.integers(1, 12))
    def test_round_trip(self, x, count):
        e = digits(x, 3, count)
        diff = x - digit_oracle.partial_sum(e)
        if diff != 0:
            assert valuation(diff, 3) >= e.valuation + count


def rational_or_int(p):
    """Nonzero Fraction or int inputs for the integer split at p."""
    ints = st.integers(-(10**6), 10**6).filter(lambda n: n != 0)
    return padic_rationals(p) | ints | ints.map(lambda n: n * p**3)


class TestUnitResidue:
    """The integer split against the Fraction route of ``digit_oracle``."""

    @settings(max_examples=150)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5]), k=st.integers(0, 12))
    def test_matches_fraction_route(self, data, p, k):
        x = data.draw(rational_or_int(p))
        assert unit_residue(x, p, k) == digit_oracle.unit_residue(x, p, k)

    @settings(max_examples=150)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5]), count=st.integers(1, 12))
    def test_digits_match_fraction_route(self, data, p, count):
        x = data.draw(rational_or_int(p))
        e = digits(x, p, count)
        assert (e.valuation, e.digits) == digit_oracle.digits(x, p, count)

    def test_int_and_fraction_agree(self):
        assert unit_residue(-12, 2, 4) == unit_residue(F(-12), 2, 4) == (2, 13)
        assert unit_residue(F(5, 18), 3, 2) == (-2, 5 * pow(2, -1, 9) % 9)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            digits(5, 4, 2)
        with pytest.raises(ValueError):
            unit_residue(F(5, 3), 4, 2)
        with pytest.raises(ValueError):
            unit_residue(8, 4, 2)

    def test_rejects_zero(self):
        for zero in (0, F(0)):
            with pytest.raises(ZeroExpansionError):
                unit_residue(zero, 3, 2)

    @pytest.mark.parametrize("x", [1.5, "3/2"])
    def test_rejects_a_value_that_is_not_rational(self, x):
        with pytest.raises(InputError, match="not a rational"):
            unit_residue(x, 3, 2)


class TestFractionalPart:
    def test_examples(self):
        assert fractional_part(F(7, 5), 3) == 0
        assert fractional_part(F(10, 9), 3) == F(1, 9)
        assert fractional_part(F(-1, 3), 3) == F(2, 3)

    def test_zero(self):
        assert fractional_part(0, 7) == 0

    @settings(max_examples=200)
    @given(x=padic_rationals(3))
    def test_contract(self, x):
        r = fractional_part(x, 3)
        assert 0 <= r < 1
        assert norm(x - r, Place.prime(3)) <= 1
        if r != 0:
            assert set(_prime_factors(r.denominator)) == {3}

    @settings(max_examples=200)
    @given(x=padic_rationals(2), y=padic_rationals(2))
    def test_additive_up_to_integers(self, x, y):
        gap = fractional_part(x + y, 2) - fractional_part(x, 2) - fractional_part(y, 2)
        assert gap.denominator == 1


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class TestRational:
    def test_a_fraction_is_returned_as_it_is(self):
        x = F(3, 4)
        assert rational(x) is x

    def test_an_int_becomes_a_fraction(self):
        for n in (0, -7, 10**30):
            assert type(rational(n)) is F and rational(n) == n

    @pytest.mark.parametrize("x", [0.5, 1.0, "1/2", "3", None, 1 + 0j])
    def test_anything_else_raises(self, x):
        with pytest.raises(InputError, match="^not a rational: "):
            rational(x)


class TestPlace:
    def test_parse_and_format(self):
        assert Place.parse("inf").is_real
        assert Place.parse("7").p == 7
        assert str(Place.prime(3)) == "3"
        assert str(Place.real()) == "inf"

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            Place.prime(9)
        with pytest.raises(ValueError):
            Place.parse("15")

    @pytest.mark.parametrize("text", ["x", "3.0", "", "1/3", "real", "oo"])
    def test_parse_rejects_text_that_is_not_a_place(self, text):
        # the real place has one spelling, "inf", the one that str() writes
        with pytest.raises(InputError, match=f"^not a place: {text!r}$"):
            Place.parse(text)

    def test_rejects_a_prime_that_is_not_an_int(self):
        # 3 first, so that a cache keyed on 3 == 3.0 would answer for 3.0
        require_prime(3)
        calls = [lambda: require_prime(3.0), lambda: Place(3.0), lambda: Place.prime(3.0),
                 lambda: BallSpec(3.0, 1, 1), lambda: valuation(F(9), 3.0),
                 lambda: fractional_part(F(1, 9), 3.0), lambda: unit_residue(F(9), 3.0, 2),
                 lambda: minimal_resolution(3.0, 0, 0, 1), lambda: digits(F(9), 3.0, 2)]
        for call in calls:
            with pytest.raises(InputError, match=r"^not a prime: 3\.0$"):
                call()
        with pytest.raises(InputError, match="^not a prime: 4$"):
            digits(F(9), 4, 2)
        with pytest.raises(InputError, match="odd prime"):
            legendre(1, 3.0)

    def test_primality(self):
        assert is_prime(2) and is_prime(97) and is_prime(7919) and is_prime(41)
        assert not is_prime(1) and not is_prime(561) and not is_prime(7917)

    def test_strong_pseudoprime_to_bases_up_to_37_is_composite(self):
        # psi_12 = 399165290221 * 798330580441 passes every base 2..37
        assert not is_prime(318665857834031151167461)
        with pytest.raises(ValueError):
            Place.prime(318665857834031151167461)

    def test_primality_at_the_proven_bound_raises(self):
        # psi_13, a strong pseudoprime to every base 2..41
        with pytest.raises(PadicqmError):
            is_prime(3317044064679887385961981)

    def test_rational_round_trip(self):
        assert _rational("3/4") == F(3, 4)
        assert _rational(" 5 ") == 5
        assert str(F(-7, 2)) == "-7/2"
