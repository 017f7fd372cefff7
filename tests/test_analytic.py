import builtins
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from padicqm import (
    DomainError,
    NonSquareError,
    PadicTruncation,
    cos_p,
    sin_p,
    sqrt_p,
    valuation,
)
from padicqm import analytic
from padicqm.analytic import _sin_cos_sums
from padicqm.characters import Phase
from padicqm.errors import InputError, PrecisionError
from padicqm.places import unit_residue

import root_oracle
import series_oracle
from truncation_oracle import (
    add, agrees_with, chi_of_truncation, divide, mul, neg, scale, sub, tan_p,
)


def sin_partial_sum(x, terms):
    """Independent oracle: explicit alternating factorial partial sum."""
    acc = F(0)
    for k in range(1, terms, 2):
        acc += (-1) ** ((k - 1) // 2) * F(x) ** k / math.factorial(k)
    return acc


class TestTrig:
    def test_sin_at_zero(self):
        assert sin_p(0, 3, 8).is_zero_mod
        assert agrees_with(cos_p(0, 3, 8), PadicTruncation.from_rational(1, 3, 8), 8)

    def test_sin3_against_partial_sum_oracle(self):
        got = sin_p(3, 3, 6)
        # terms beyond k=11 have valuation >= 6, so 40 is a safe cutoff
        want = PadicTruncation.from_rational(sin_partial_sum(3, 40), 3, 6)
        assert agrees_with(got, want, 6)
        # frozen digit expansion: 3 + 3^2 + 3^3 + 2*3^4 + 2*3^5 mod 3^6
        assert got.valuation == 1
        assert got.digits == (1, 1, 1, 2, 2)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            sin_p(1, 3, 6)
        with pytest.raises(DomainError):
            sin_p(2, 2, 6)
        # |x|_2 <= 1/4 is fine
        sin_p(4, 2, 6)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_pythagorean_identity(self, p):
        for x in (F(p), F(2 * p), F(p * p), F(3 * p, 2)):
            s, c = sin_p(x, p, 20), cos_p(x, p, 20)
            total = add(mul(s, s), mul(c, c))
            assert agrees_with(
                total, PadicTruncation.from_rational(1, p, 20), total.precision
            )
            assert total.precision >= 20

    @pytest.mark.parametrize("p", [3, 5])
    def test_sin_is_odd(self, p):
        for x in (F(p), F(2 * p), F(p, 7)):
            assert agrees_with(sin_p(-x, p, 15), neg(sin_p(x, p, 15)), 15)

    @pytest.mark.parametrize("p", [3, 5])
    def test_double_angle(self, p):
        for x in (F(p), F(3 * p, 4)):
            lhs = sin_p(2 * x, p, 15)
            two = PadicTruncation.from_rational(2, p, 15)
            rhs = mul(mul(two, sin_p(x, p, 15)), cos_p(x, p, 15))
            assert agrees_with(lhs, rhs, min(lhs.precision, rhs.precision))

    def test_tan_is_ratio(self):
        t = tan_p(3, 3, 12)
        ratio = divide(sin_p(3, 3, 14), cos_p(3, 3, 14))
        assert agrees_with(t, ratio, 12)

    def test_precision_soundness(self):
        coarse = sin_p(3, 3, 6)
        fine = sin_p(3, 3, 12)
        assert agrees_with(fine, coarse, 6)


SERIES_PRIMES = [2, 3, 5, 7, 11]
#: primes whose single power p^1 already outgrows a machine word
LARGE_PRIMES = [2**64 + 13, 10**24 + 7]


def domain_edge(p):
    """Smallest valuation inside the series domain: 2 at p = 2, else 1."""
    return 2 if p == 2 else 1


def series_arguments(p, low, high):
    """x = p**v * u, v in low..high, u an int or a Fraction with a p-unit denominator."""
    numerators = st.integers(-(10**4), 10**4).filter(lambda n: n != 0)
    denominators = st.integers(1, 10**4).filter(lambda d: d % p)
    units = numerators | st.builds(F, numerators, denominators)
    return st.builds(lambda v, u: u * F(p) ** v if v < 0 else u * p**v,
                     st.integers(low, high), units)


def oracle_residues(x, p, P):
    """The Fraction loop's sums as (d, s, c): sin x = p^d s and cos x = c modulo p^P,
    s a unit modulo p^(P - d) or 0 where sin x is O(p^P); d is the edge at x = 0."""
    s, c = series_oracle.sin_cos_sums(x, p, P)
    c = unit_residue(c, p, P)[1]  # cos x is a unit
    if not s:
        return domain_edge(p), 0, c
    d = valuation(s, p)
    return d, unit_residue(s, p, P - d)[1] if P > d else 0, c


class TestSeriesAgainstOracle:
    """The Horner sums modulo p^M against the Fraction loop of ``series_oracle``.

    ``_sin_cos_sums`` returns residues, not exact sums: each must be the
    residue modulo p^P of the oracle's exact partial sum.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=st.sampled_from(SERIES_PRIMES), P=st.integers(1, 200))
    def test_sums_match_fraction_loop(self, data, p, P):
        e = domain_edge(p)
        x = data.draw(series_arguments(p, e, e + 3) | st.just(0))
        assert _sin_cos_sums(x, p, P) == oracle_residues(x, p, P)

    @pytest.mark.parametrize("p", SERIES_PRIMES + LARGE_PRIMES)
    def test_domain_edge_matches(self, p):
        e = domain_edge(p)
        for x in (p**e, -(p**e), F(p**e, p + 1), F(-7 * p**e, 2 * p + 1)):
            for P in (1, 2, 57, 200):
                assert _sin_cos_sums(x, p, P) == oracle_residues(x, p, P)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("P", [500, 1000])
    def test_deep_precision_matches(self, p, P):
        # the modulus carries p^S past p^P, S = v_p((K+1)!); at the edge S
        # is largest, above it K is shorter and n^2 brings its own powers of p
        e = domain_edge(p)
        for x in (F(p**e * 5, 7), F(-(p ** (e + 1)) * 11, 13), F(p ** (e + 3) * 31, 4 * p + 1)):
            assert _sin_cos_sums(x, p, P) == oracle_residues(x, p, P), x

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from(SERIES_PRIMES), P=st.integers(1, 200))
    def test_truncations_match_fraction_loop(self, data, p, P):
        e = domain_edge(p)
        x = data.draw(series_arguments(p, e, e + 3))
        s, c = series_oracle.sin_cos_sums(x, p, P)
        assert sin_p(x, p, P) == PadicTruncation.from_rational(s, p, P)
        assert cos_p(x, p, P) == PadicTruncation.from_rational(c, p, P)
        assert tan_p(x, p, P) == PadicTruncation.from_rational(s / c, p, P)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from(SERIES_PRIMES), P=st.integers(1, 200))
    def test_outside_domain_rejected(self, data, p, P):
        e = domain_edge(p)
        x = data.draw(series_arguments(p, -3, e - 1).filter(lambda x: valuation(x, p) < e))
        for f in (_sin_cos_sums, sin_p, cos_p, tan_p):
            with pytest.raises(DomainError):
                f(x, p, P)


class TestSqrt:
    def test_example_mod_9(self):
        r = sqrt_p(7, 3, 2)
        assert r.mantissa == 4 and r.valuation == 0
        assert agrees_with(mul(r, r), PadicTruncation.from_rational(7, 3, 2), 2)

    def test_odd_valuation_rejected(self):
        with pytest.raises(NonSquareError):
            sqrt_p(3, 3, 5)

    def test_zero_rejected(self):
        with pytest.raises(InputError, match="square root of zero"):
            sqrt_p(0, 3, 5)

    @pytest.mark.parametrize("p, lead", [(17, 6), (41, 17)])
    def test_tonelli_shanks_past_z_2(self, p, lead):
        # p = 1 mod 8: 2 is a residue, so the non-residue search passes z = 2
        r = sqrt_p(2, p, 6)
        assert r.valuation == 0 and r.mantissa**2 % p**6 == 2
        assert r.digits[0] == lead  # canonical: the smaller leading digit of r and -r

    def test_nonresidue_rejected(self):
        with pytest.raises(NonSquareError):
            sqrt_p(2, 3, 5)  # (2/3) = -1
        with pytest.raises(NonSquareError):
            sqrt_p(3, 2, 5)  # 3 != 1 mod 8

    def test_rational_square_canonical_branch(self):
        # sqrt(4) in Q_3: candidates 2 = (2,0,...) and -2 = (1,2,2,...);
        # the canonical branch has the smaller leading digit, so -2.
        r = sqrt_p(4, 3, 5)
        assert agrees_with(r, PadicTruncation.from_rational(-2, 3, 5), 5)
        # sqrt(9/4) in Q_7: 3/2 has leading digit 5, -3/2 has 2: pick -3/2
        r = sqrt_p(F(9, 4), 7, 4)
        assert agrees_with(r, PadicTruncation.from_rational(F(-3, 2), 7, 4), 4)

    def test_two_adic_branch(self):
        r = sqrt_p(17, 2, 10)
        assert r.mantissa % 4 == 1  # canonical: second digit zero
        assert agrees_with(mul(r, r), PadicTruncation.from_rational(17, 2, 10), 10)

    def test_two_adic_high_precision(self):
        # 2000 digits: the lift doubles its precision at each step
        r = sqrt_p(F(25, 9), 2, 2000)
        # 5/3 = 3 mod 4, so the canonical root is -5/3
        assert r.precision == 2000
        assert agrees_with(r, PadicTruncation.from_rational(F(-5, 3), 2, 2000), 2000)
        x = F(17 * 4**3, 9)
        r = sqrt_p(x, 2, 2000)
        assert r.mantissa % 4 == 1
        assert agrees_with(mul(r, r), PadicTruncation.from_rational(x, 2, 2000), 2000)

    @settings(max_examples=150, deadline=None)
    @given(
        u=st.integers(1, 400),
        k=st.integers(-2, 2),
        p=st.sampled_from([3, 5, 7]),
        P=st.sampled_from([20, 1000]),
    )
    def test_round_trip(self, u, k, p, P):
        x = F(u) * F(p) ** (2 * k)
        try:
            r = sqrt_p(x, p, P)
        except NonSquareError:
            return
        sq = mul(r, r)
        check_mod = min(P, sq.precision)
        assert agrees_with(sq, PadicTruncation.from_rational(x, p, P), check_mod)

    def test_precision_soundness(self):
        coarse = sqrt_p(7, 3, 4)
        fine = sqrt_p(7, 3, 12)
        assert agrees_with(fine, coarse, 4)

    @pytest.mark.parametrize("x, p", [(2, 7), (2, 17), (17, 2)])
    @pytest.mark.parametrize("P", [40, 4000])
    def test_lift_takes_no_inverse_per_step(self, monkeypatch, x, p, P):
        # the module global shadows the builtin, so every pow of analytic is seen
        exponents = []

        def counting_pow(base, exp, *mod):
            exponents.append(exp)
            return builtins.pow(base, exp, *mod)

        monkeypatch.setattr(analytic, "pow", counting_pow, raising=False)
        r = sqrt_p(x, p, P)
        assert r.mantissa**2 % p**P == x
        assert exponents.count(-1) <= 2


def refusal_or_root(x, p, P, sqrt):
    try:
        return sqrt(x, p, P)
    except (InputError, NonSquareError) as exc:
        return type(exc), str(exc)


class TestSqrtAgainstOracle:
    """``sqrt_p`` against the two Hensel lifts of ``root_oracle``."""

    #: 17, 41 and 97 are 1 mod 8, where Tonelli-Shanks searches past z = 2
    PRIMES = [2, 3, 5, 7, 13, 17, 41, 97]

    @pytest.mark.parametrize("p", PRIMES)
    def test_seeded_grid(self, p):
        rng = random.Random(p)
        roots, precisions = 0, range(-3, 301, 4)
        for P in precisions:
            x = F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
            x *= F(p) ** rng.randint(-6, 6)
            if rng.random() < 0.6:
                x *= x
            got = refusal_or_root(x, p, P, sqrt_p)
            assert got == refusal_or_root(x, p, P, root_oracle.sqrt), (x, P)
            roots += isinstance(got, PadicTruncation)
        assert 0 < roots < len(precisions)  # both roots and refusals are compared
        for x in (0, p, F(1, p)):
            assert refusal_or_root(x, p, 5, sqrt_p) == refusal_or_root(x, p, 5, root_oracle.sqrt)


class TestTruncationArithmetic:
    def test_string_format(self):
        t = PadicTruncation.from_rational(F(10, 9), 3, 3)
        assert str(t) == "3^-2*(1 + 1*3^2) + O(3^3)"

    def test_division_precision(self):
        a = PadicTruncation.from_rational(F(1), 3, 10)
        b = PadicTruncation.from_rational(F(3), 3, 10)
        q = divide(a, b)
        assert q.valuation == -1
        assert agrees_with(q, PadicTruncation.from_rational(F(1, 3), 3, 9), q.precision)

    def test_cancellation_detected(self):
        a = PadicTruncation.from_rational(F(1), 3, 5)
        b = PadicTruncation.from_rational(F(1), 3, 5)
        assert sub(a, b).is_zero_mod

    def test_chi_of_truncation(self):
        t = PadicTruncation.from_rational(F(10, 9), 3, 4)
        assert chi_of_truncation(t) == Phase(F(1, 9))
        deep = PadicTruncation.from_rational(F(5), 3, 4)
        assert chi_of_truncation(deep) == Phase(F(0))

    def test_chi_needs_nonnegative_precision(self):
        t = PadicTruncation.from_rational(F(1, 27), 3, -1)
        with pytest.raises(PrecisionError):
            chi_of_truncation(t)

    def test_norm_requires_pinned_value(self):
        z = PadicTruncation.zero_mod(3, 8)
        with pytest.raises(PrecisionError):
            z.norm()

    def test_exact_zero(self):
        zero = scale(PadicTruncation.from_rational(F(5, 3), 3, 7), 0)
        assert zero == PadicTruncation.exact_zero(3)
        assert zero.precision == math.inf and str(zero) == "0"
        t = PadicTruncation.from_rational(F(10, 9), 3, 4)
        for total in (add(t, zero), add(zero, t), sub(t, zero)):
            assert total == t
        # the exact zero survives every operation that keeps it exact
        for exact in (add(zero, zero), sub(zero, zero), mul(zero, zero), mul(zero, t),
                      mul(t, zero), divide(zero, t), scale(zero, F(1, 9)), neg(zero)):
            assert exact == zero
        assert chi_of_truncation(zero) == Phase()

    def test_zero_mod_takes_an_integer_precision(self):
        assert PadicTruncation.zero_mod(3, 8).precision == 8
        assert PadicTruncation.zero_mod(3, 4).digits == ()
        for bad in (math.inf, 8.0):
            with pytest.raises(InputError, match="^not an integer: "):
                PadicTruncation.zero_mod(3, bad)
