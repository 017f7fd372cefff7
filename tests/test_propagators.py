import cmath
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from padicqm import (
    Amplitude,
    DegenerateFormError,
    DegenerateIntervalError,
    InputError,
    NonSquareError,
    OscillatorBoundaryData,
    PadicTruncation,
    PartitionError,
    PartitionSpec,
    Phase,
    Place,
    QuadraticActionForm,
    SymbolicKernel,
    action_form_constant_field,
    chi,
    compose_kernels,
    desitter_action_form,
    finite_n_propagator,
    k_general_quadratic,
    k_oscillator_td,
    k_oscillator_td_real,
    lambda_v,
    norm,
    oscillator_action_form,
    oscillator_precision,
    overlap_ball_integral,
    overlap_vanishing_threshold,
    sin_p,
    sqrt_p,
)
from padicqm import propagators
from padicqm.errors import PadicqmError, PrecisionError

import lambda_oracle
import series_oracle
from closed_forms import k_constant_field, k_desitter, k_free, k_oscillator
from compose_oracle import (
    action_form_constant_field_fraction,
    compose,
    compose_kernels_fraction,
    desitter_action_form_fraction,
)
from truncation_oracle import divide, scale

R = Place.real()
P2, P3, P5, P7 = (Place.prime(p) for p in (2, 3, 5, 7))
ALL_PLACES = (R, P2, P3, P5, P7)


def rand_rational(rng, place=None, span=2):
    x = F(rng.randint(1, 20) * rng.choice((-1, 1)), rng.randint(1, 20))
    if place is not None and not place.is_real:
        x *= F(place.p) ** rng.randint(-span, span)
    return x


def const_field(place, a, T, q0, q1):
    """The library's constant-field kernel: its action form, evaluated."""
    return k_general_quadratic(place, action_form_constant_field(a, T), q1, q0)


class TestConstantFieldKernel:
    def test_padic_example(self):
        assert const_field(P3, 0, 1, 0, 1) == Amplitude(F(1), Phase(F(0)))

    def test_real_example(self):
        # lambda(2) has phase 7/8 and chi_inf(-1/2) adds 1/2
        assert const_field(R, 0, 1, 0, 1) == Amplitude(F(1), Phase(F(3, 8)))

    def test_free_specialization(self):
        rng = random.Random(11)
        for place in ALL_PLACES:
            for _ in range(10):
                T = rand_rational(rng, place)
                q0, q1 = rand_rational(rng, place), rand_rational(rng, place)
                assert const_field(place, 0, T, q0, q1) == k_free(place, T, q0, q1)

    def test_modulus_is_inverse_norm_of_time(self):
        rng = random.Random(12)
        for place in ALL_PLACES:
            for _ in range(10):
                a = rand_rational(rng, place)
                T = rand_rational(rng, place)
                amp = const_field(place, a, T, 0, 1)
                assert amp.modulus_sq == 1 / norm(T, place)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateIntervalError):
            const_field(P3, 1, 0, 0, 1)

    def test_hermitian_time_reversal(self):
        rng = random.Random(13)
        for place in ALL_PLACES:
            a = rand_rational(rng, place)
            T = rand_rational(rng, place)
            q0, q1 = rand_rational(rng, place), rand_rational(rng, place)
            amp = const_field(place, a, T, q0, q1)
            conj = amp.conjugate()
            expected_phase = -(
                lambda_v(place, 2 * T)
                + chi(
                    place,
                    -(
                        (q1 - q0) ** 2 / (2 * T)
                        + a * (q1 + q0) * T / 2
                        - a * a * T**3 / 24
                    ),
                )
            )
            assert conj.phase == expected_phase
            assert conj.conjugate() == amp


class TestFreeKernel:
    def test_two_adic_value(self):
        assert const_field(P2, 0, 1, 0, 0) == Amplitude(F(1), Phase(F(1, 8)))

    def test_five_adic_value_and_composition_cross_check(self):
        amp = const_field(P5, 0, 5, 0, 1)
        # modulus_sq = 1/|5|_5 = 5; phase = lambda_5(10) + {-1/10}_5
        assert amp.modulus_sq == 5
        assert amp == Amplitude(F(5), lambda_v(P5, 10) + chi(P5, F(-1, 10)))
        # cross-check through an N=2 partition
        part = PartitionSpec(P5, (F(0), F(25), F(5)))
        assert finite_n_propagator(0, part, 0, 1) == amp

    def test_real_prefactor_matches_inverse_sqrt_of_iT(self):
        for T in (F(1), F(2), F(1, 3), F(-1), F(-5, 2), F(7)):
            amp = const_field(R, 0, T, 0, 0)
            got = complex(*amp.render())
            want = 1 / cmath.sqrt(1j * float(T))
            assert abs(got - want) < 1e-12


class TestDeSitterKernel:
    def test_trivial_point(self):
        form = desitter_action_form(0, 1)
        assert k_general_quadratic(P3, form, 0, 0) == Amplitude(F(1), Phase(F(0)))

    def test_consistency_with_general_quadratic(self):
        rng = random.Random(21)
        for place in ALL_PLACES:
            for _ in range(20):
                lam = rand_rational(rng, place)
                T = rand_rational(rng, place)
                q0, q1 = rand_rational(rng, place), rand_rational(rng, place)
                form = desitter_action_form(lam, T)
                assert k_general_quadratic(place, form, q1, q0) == k_desitter(
                    place, lam, T, q0, q1
                )

    def test_form_from_integers(self):
        # the integer route, -1/4 of the constant-field form at a = 2 lam plus
        # T/2 in zeta, field for field against the Fraction coefficients; at
        # T = 1/7^1800 the phase is too long for the command line to write
        rng = random.Random(31)
        cases = [(F(0), F(1)), (F(0), F(-3, 4)), (F(-5, 2), F(-9)), (F(1), F(1, 7**1800))]
        cases += [(rand_rational(rng, place), rand_rational(rng, place))
                  for place in ALL_PLACES for _ in range(20)]
        cases += [(F(0), rand_rational(rng, place)) for place in ALL_PLACES]
        for lam, T in cases:
            got, want = desitter_action_form(lam, T), desitter_action_form_fraction(lam, T)
            assert (got.den, got.nums) == (want.den, want.nums), (lam, T)
        with pytest.raises(DegenerateIntervalError, match="zero time interval"):
            desitter_action_form(1, 0)

    def test_real_float_cross_check(self):
        lam, T, q0, q1 = F(1, 2), F(3), F(1), F(2)
        amp = k_general_quadratic(R, desitter_action_form(lam, T), q1, q0)
        got = complex(*amp.render())
        # float evaluation of the closed form
        lam_f, T_f, q0_f, q1_f = map(float, (lam, T, q0, q1))
        pref = (1 - 1j * math.copysign(1, -2 * T_f)) / math.sqrt(2)
        pref /= math.sqrt(abs(4 * T_f))
        arg = (
            (q1_f - q0_f) ** 2 / (8 * T_f)
            + (lam_f * (q1_f + q0_f) - 2) * T_f / 4
            - lam_f**2 * T_f**3 / 24
        )
        want = pref * cmath.exp(-2j * math.pi * arg)
        assert abs(got - want) < 1e-12


class TestGeneralQuadratic:
    def test_reproduces_constant_field(self):
        rng = random.Random(31)
        for place in ALL_PLACES:
            for _ in range(20):
                a = rand_rational(rng, place)
                T = rand_rational(rng, place)
                q0, q1 = rand_rational(rng, place), rand_rational(rng, place)
                form = action_form_constant_field(a, T)
                assert k_general_quadratic(place, form, q1, q0) == k_constant_field(
                    place, a, T, q0, q1
                )

    def test_zero_mixed_partial_rejected(self):
        form = QuadraticActionForm(alpha=F(1), beta=F(1), gamma=F(0))
        with pytest.raises(DegenerateFormError):
            k_general_quadratic(P3, form, 0, 0)
        with pytest.raises(DegenerateFormError):
            SymbolicKernel.from_form(R, form)


class TestComposition:
    def test_free_halves(self):
        for place in ALL_PLACES:
            assert compose(place, 0, F(1, 2), F(1, 2)) == SymbolicKernel.from_form(
                place, action_form_constant_field(0, 1)
            )

    def test_constant_field_steps(self):
        for place in ALL_PLACES:
            assert compose(place, 1, 1, 2) == SymbolicKernel.from_form(
                place, action_form_constant_field(1, 3)
            )

    def test_lambda_bookkeeping_collapses(self):
        # the product of step prefactors and the Gauss factor must give
        # exactly lambda(2(T1+T2)) |T1+T2|^{-1/2}
        rng = random.Random(41)
        for place in ALL_PLACES:
            for _ in range(20):
                T1 = rand_rational(rng, place)
                T2 = rand_rational(rng, place)
                if T1 + T2 == 0:
                    continue
                sym = compose(place, 0, T1, T2)
                assert sym.prefactor == Amplitude(
                    1 / norm(T1 + T2, place), lambda_v(place, 2 * (T1 + T2))
                )

    def test_degenerate_total(self):
        with pytest.raises(DegenerateIntervalError):
            compose(P3, 0, 1, -1)

    def test_vanishing_quadratic_term_rejected(self):
        # A = -(beta2 + alpha1) = 0: the x-integral has no Gauss closed form
        k2, k1 = (SymbolicKernel.from_form(P3, QuadraticActionForm(1, beta, 1)) for beta in (-1, 1))
        with pytest.raises(DegenerateIntervalError, match="quadratic term vanishes"):
            compose_kernels(k2, k1)


def small_rationals(top=24):
    return st.builds(
        lambda n, d, k: F(n, d) * F(2 * 3 * 5 * 7) ** k,
        st.integers(-top, top).filter(bool), st.integers(1, top), st.integers(-2, 2),
    )


STEP = st.tuples(st.sampled_from(["free", "const-field", "desitter"]),
                 small_rationals(), small_rationals())


def step_form(kind, coeff, T):
    if kind == "desitter":
        return desitter_action_form(coeff, T)
    return action_form_constant_field(0 if kind == "free" else coeff, T)


# a general form with alpha != beta and delta != epsilon: the symmetric step
# forms cannot tell the two endpoints' coefficients apart
ASYMMETRIC = st.builds(
    QuadraticActionForm, small_rationals(), small_rationals(), small_rationals().filter(bool),
    small_rationals(), small_rationals(), small_rationals(),
).filter(lambda form: form.alpha != form.beta and form.delta != form.epsilon)
FORM = STEP.map(lambda step: step_form(*step)) | ASYMMETRIC


class TestComposeAgainstOracle:
    """The integer fold against the Fraction route of ``compose_oracle``."""

    @settings(max_examples=300, deadline=None)
    @given(place=st.sampled_from(ALL_PLACES), forms=st.lists(FORM, min_size=2, max_size=6),
           q0=small_rationals(), q1=small_rationals())
    # at p = 2 the first composition has v_2(2n) - v_2(D1 D2), the valuation
    # of 2A = -2n/(D1 D2), negative (-3), zero and positive (+1)
    @example(place=P2, forms=[step_form("const-field", F(1, 2), F(2)),
                              step_form("desitter", F(3), F(2))], q0=F(1, 3), q1=F(-2))
    @example(place=P2, forms=[step_form("const-field", F(1), F(1, 4)),
                              step_form("desitter", F(7), F(3, 4))], q0=F(1, 3), q1=F(-2))
    @example(place=P2, forms=[step_form("free", F(3), F(1)), step_form("const-field", F(5), F(1)),
                              step_form("desitter", F(1), F(4))], q0=F(5, 2), q1=F(0))
    def test_folds_equal(self, place, forms, q0, q1):
        kernels = [SymbolicKernel.from_form(place, form) for form in forms]
        got = want = kernels[0]
        for step in kernels[1:]:
            try:
                got = compose_kernels(step, got)
            except DegenerateIntervalError:
                with pytest.raises(DegenerateIntervalError):
                    compose_kernels_fraction(step, want)
                return
            want = compose_kernels_fraction(step, want)
            assert got == want
        assert got.evaluate(q0, q1) == want.evaluate(q0, q1)

    @settings(max_examples=200, deadline=None)
    @given(place=st.sampled_from(ALL_PLACES), forms=st.tuples(FORM, FORM),
           moduli=st.tuples(small_rationals(), small_rationals()),
           phases=st.tuples(small_rationals(), small_rationals()))
    # a zero prefactor composes to the zero amplitude, whose phase is 0
    @example(place=P3, forms=(step_form("free", F(1), F(1)), step_form("free", F(1), F(2))),
             moduli=(F(0), F(1)), phases=(F(1, 3), F(1, 8)))
    def test_user_built_prefactors(self, place, forms, moduli, phases):
        # prefactors of from_form are eighths of a turn; a user's kernel may
        # carry any phase and squared modulus, and composes alike
        k2, k1 = (SymbolicKernel(place, Amplitude(abs(m), Phase(ph)), form)
                  for m, ph, form in zip(moduli, phases, forms))
        try:
            got = compose_kernels(k2, k1)
        except DegenerateIntervalError:
            return
        want = compose_kernels_fraction(k2, k1)
        assert got == want and hash(got) == hash(want)
        assert got.prefactor.is_zero == (0 in moduli)

    @pytest.mark.parametrize("place", ALL_PLACES, ids=str)
    def test_library_built_objects_equal_public_ones(self, place):
        # from_integers, from_form and compose_kernels build their forms,
        # prefactors and kernels past the constructors' checks: each equals,
        # and hashes as, the object the public constructors make of its values
        def public(kernel):
            f, pre = kernel.form, kernel.prefactor
            form = QuadraticActionForm(f.alpha, f.beta, f.gamma, f.delta, f.epsilon, f.zeta)
            return SymbolicKernel(place, Amplitude(pre.modulus_sq, Phase(pre.phase.value)), form)

        k1 = SymbolicKernel.from_form(place, action_form_constant_field(F(3, 2), F(5, 7)))
        k2 = SymbolicKernel.from_form(place, desitter_action_form(F(-1, 4), F(9, 2)))
        for kernel in (k1, k2, compose_kernels(k2, k1)):
            twin = public(kernel)
            for got, want in ((kernel, twin), (kernel.prefactor, twin.prefactor),
                              (kernel.form, twin.form)):
                assert got == want and hash(got) == hash(want)

    def test_places_compare_by_value(self):
        # equal places held by distinct objects compose; distinct places raise
        form = action_form_constant_field(1, 2)
        k1, k2 = (SymbolicKernel.from_form(Place.prime(3), form) for _ in range(2))
        assert k1.place is not k2.place
        assert compose_kernels(k2, k1) == compose_kernels_fraction(k2, k1)
        with pytest.raises(InputError, match="different places"):
            compose_kernels(SymbolicKernel.from_form(P5, form), k1)

    @settings(max_examples=300)
    @given(a=small_rationals(), T=small_rationals())
    def test_step_form_from_integers(self, a, T):
        form = action_form_constant_field(a, T)
        assert form == action_form_constant_field_fraction(a, T)
        assert form.den > 0 and math.gcd(form.den, *form.nums) == 1

    def test_keyword_constructor_is_canonical(self):
        form = QuadraticActionForm(alpha=F(2, 4), beta=F(-1, 6), gamma=3)
        assert (form.den, form.nums) == (6, (3, -1, 18, 0, 0, 0))
        assert form == QuadraticActionForm.from_integers(-12, (-6, 2, -36, 0, 0, 0))
        assert (form.alpha, form.beta, form.gamma, form.zeta) == (F(1, 2), F(-1, 6), 3, 0)

    @pytest.mark.parametrize("den, nums", [
        (2, (1, 2)), (2, (1, 2, 3, 4, 5, 6, 7)), (2, 5), (0, (1, 2, 3, 4, 5, 6)), (0, (0,) * 6),
        ("a", (1, 2, 3, 4, 5, 6)), (2.0, (1, 2, 3, 4, 5, 6)), (2, (1, 2, 3, 4, 5, F(1, 2))),
    ], ids=["two numerators", "seven numerators", "an int for nums", "zero den",
            "zero den and numerators", "str den", "float den", "Fraction numerator"])
    def test_from_integers_rejects_other_input(self, den, nums):
        # six integer numerators over a nonzero integer, or an InputError;
        # two numerators once built a form whose kernel raised IndexError
        with pytest.raises(InputError):
            QuadraticActionForm.from_integers(den, nums)


ENDPOINT = st.one_of(st.integers(-60, 60), small_rationals())


class TestEvaluateAgainstChi:
    """The integer row phase of ``SymbolicKernel.evaluate`` against chi of the form."""

    @settings(max_examples=300, deadline=None)
    @given(place=st.sampled_from(ALL_PLACES), steps=st.lists(STEP, min_size=1, max_size=3),
           q0=ENDPOINT, q1=ENDPOINT)
    def test_row_phase_is_prefactor_plus_chi(self, place, steps, q0, q1):
        kernel = SymbolicKernel.from_form(place, step_form(*steps[0]))
        for step in steps[1:]:
            try:
                kernel = compose_kernels(SymbolicKernel.from_form(place, step_form(*step)), kernel)
            except DegenerateIntervalError:
                break
        want = kernel.prefactor.phase + chi(place, -kernel.form.evaluate(q1, q0))
        assert kernel.evaluate(q0, q1) == Amplitude(kernel.prefactor.modulus_sq, want)

    @settings(max_examples=300, deadline=None)
    @given(place=st.sampled_from(ALL_PLACES), step=STEP, phase=small_rationals(),
           q0=ENDPOINT, q1=ENDPOINT)
    def test_any_prefactor_phase(self, place, step, phase, q0, q1):
        # prefactors of from_form are eighths of a turn; any rational phase adds alike
        form = step_form(*step)
        kernel = SymbolicKernel(place, Amplitude(F(4, 9), Phase(phase)), form)
        got = kernel.evaluate(q0, q1)
        assert got.phase == Phase(phase) + chi(place, -form.evaluate(q1, q0))
        assert 0 <= got.phase.value < 1
        assert got == kernel.evaluate(F(q0), F(q1))


class TestFiniteN:
    def test_single_step_is_direct(self):
        part = PartitionSpec(R, (F(0), F(1)))
        assert finite_n_propagator(2, part, 0, 1) == k_constant_field(R, 2, 1, 0, 1)

    def test_equal_halves(self):
        part = PartitionSpec(R, (F(0), F(1, 2), F(1)))
        assert finite_n_propagator(1, part, 0, 1) == k_constant_field(R, 1, 1, 0, 1)

    def test_random_padic_partitions(self):
        # distinct points in shuffled order: the fold needs no order, and
        # at infinity it runs through negative steps
        rng = random.Random(51)
        negative_steps = 0
        for place in ALL_PLACES:
            for n in (2, 4, 8):
                pts = set()
                while len(pts) < n + 1:
                    pts.add(rand_rational(rng, place))
                pts = sorted(pts)
                rng.shuffle(pts)
                part = PartitionSpec(place, tuple(pts))
                negative_steps += place.is_real and sum(b < a for a, b in zip(pts, pts[1:]))
                a = rand_rational(rng, place)
                q0, q1 = rand_rational(rng, place), rand_rational(rng, place)
                want = k_constant_field(place, a, part.points[-1] - part.points[0], q0, q1)
                assert finite_n_propagator(a, part, q0, q1) == want
        assert negative_steps > 0

    @pytest.mark.parametrize("place", [*ALL_PLACES, Place.prime(11)], ids=str)
    def test_against_the_fraction_fold(self, place):
        # steps of shuffled points, negative ones among them, each kernel from
        # its Fraction step length and form with the prefactor
        # lambda(-2 gamma) |gamma|^(1/2) of lambda_oracle, folded by the
        # Fraction route of compose_oracle and evaluated through chi
        rng = random.Random(f"fold {place}")
        for n in (1, 2, 3, 5, 8, 13, 24):
            pts = set()
            while len(pts) < n + 1:
                pts.add(rand_rational(rng, place))
            pts = list(pts)
            rng.shuffle(pts)
            a, q0, q1 = (rand_rational(rng, place) for _ in range(3))
            steps = []
            for t0, t1 in zip(pts, pts[1:]):
                form = action_form_constant_field_fraction(a, t1 - t0)
                prefactor = Amplitude(norm(form.gamma, place),
                                      lambda_oracle.lambda_v(place, -2 * form.gamma))
                steps.append(SymbolicKernel(place, prefactor, form))
            want = steps[0]
            for step in steps[1:]:
                want = compose_kernels_fraction(step, want)
            phase = want.prefactor.phase + chi(place, -want.form.evaluate(q1, q0))
            got = finite_n_propagator(a, PartitionSpec(place, tuple(pts)), q0, q1)
            assert got == Amplitude(want.prefactor.modulus_sq, phase), (n, pts)

    def test_a_fold_of_n_steps_composes_n_minus_1_times(self, monkeypatch):
        # compose_kernels is the fold's only route, entered once a step after
        # the first: the count perfbench's path-integral audit takes
        calls = []
        compose = propagators.compose_kernels

        def counted(k2, k1):
            calls.append(k2.place)
            return compose(k2, k1)

        monkeypatch.setattr(propagators, "compose_kernels", counted)
        rng = random.Random(7)
        for place in ALL_PLACES:
            for n in (1, 2, 7, 16):
                pts = set()
                while len(pts) < n + 1:
                    pts.add(rand_rational(rng, place))
                calls.clear()
                finite_n_propagator(1, PartitionSpec(place, tuple(pts)), 0, 1)
                assert calls == [place] * (n - 1)

    def test_partition_validation(self):
        for points in ((0, 0), (1,), (0, 1, 0), ()):
            for place in (R, P3):
                with pytest.raises(PartitionError):
                    PartitionSpec(place, points)
        # any order of distinct points: 9 before or after 3 at 3, 1 before 0 at infinity
        assert PartitionSpec(P3, (3, 9)).points == (3, 9)
        assert PartitionSpec(P3, (9, 3)).points == (9, 3)
        assert PartitionSpec(R, (1, 0)).points == (1, 0)

    @pytest.mark.parametrize("q0, q1", [(0.5, 1), (0, "1/2")])
    def test_endpoints_are_checked_before_the_fold(self, monkeypatch, q0, q1):
        folds = []
        monkeypatch.setattr(propagators, "compose_kernels", lambda *kernels: folds.append(kernels))
        with pytest.raises(InputError, match="not a rational"):
            finite_n_propagator(1, PartitionSpec(R, (F(0), F(1), F(2))), q0, q1)
        assert folds == []


class TestSemigroup:
    def test_examples(self):
        for place in ALL_PLACES:
            part = PartitionSpec(place, (F(0), F(1), F(2)))
            total = part.points[-1] - part.points[0]
            for a in (0, 2):
                want = k_constant_field(place, a, total, 0, 1)
                assert finite_n_propagator(a, part, 0, 1) == want


class TestOverlap:
    def test_diagonal_mass(self):
        for p in (3, 5):
            for n in (0, 1, 3):
                for tau in (F(1), F(p), F(1, p)):
                    val = overlap_ball_integral(p, 0, 0, tau, F(2), F(2), n)
                    mass = F(p) ** n / norm(tau, Place.prime(p))
                    assert val == Amplitude(mass * mass, Phase(F(0)))

    def test_offdiagonal_vanishing_threshold(self):
        p = 3
        for x_diff in (F(1), F(1, 3), F(9), F(2, 3)):
            for tau in (F(1), F(3)):
                n0 = overlap_vanishing_threshold(p, x_diff, tau)
                x0 = F(1, 2)
                x1 = x0 + x_diff
                for n in (n0, n0 + 1, n0 + 2):
                    assert overlap_ball_integral(p, 0, 0, tau, x0, x1, n).is_zero
                below = overlap_ball_integral(p, 0, 0, tau, x0, x1, n0 - 1)
                assert not below.is_zero

    def test_constant_field_same_thresholds(self):
        p, a = 5, F(2)
        x0, x1, tau = F(0), F(1), F(1, 5)
        n0 = overlap_vanishing_threshold(p, x1 - x0, tau)
        assert overlap_ball_integral(p, a, 0, tau, x0, x1, n0).is_zero
        assert not overlap_ball_integral(p, a, 0, tau, x0, x1, n0 - 1).is_zero

    def test_coincident_times_rejected(self):
        with pytest.raises(DegenerateIntervalError):
            overlap_ball_integral(3, 0, 1, 1, 0, 1, 2)
        for tau in (F(0), 0):
            with pytest.raises(DegenerateIntervalError):
                overlap_vanishing_threshold(3, F(1), tau)

    def test_threshold_takes_int_inputs(self):
        for x_diff, tau in ((1, 1), (9, 3), (2, F(1, 3)), (F(1, 3), 9)):
            assert (overlap_vanishing_threshold(3, x_diff, tau)
                    == overlap_vanishing_threshold(3, F(x_diff), F(tau)))
        assert overlap_vanishing_threshold(3, 1, 1) == 1


OSC_SAMPLE = OscillatorBoundaryData(
    x0=F(1), x1=F(2),
    gamma0=F(0), gamma1=F(3),
    dgamma0=F(1), dgamma1=F(1),
    s0=F(1), s1=F(1), ds0=F(0), ds1=F(0),
)


class TestOscillator:
    def test_endpoint_free_value(self):
        data = OscillatorBoundaryData(
            x0=F(0), x1=F(0), gamma0=F(0), gamma1=F(3),
            dgamma0=F(1), dgamma1=F(1), s0=F(1), s1=F(1),
            ds0=F(1, 2), ds1=F(1, 3),
        )
        amp = k_oscillator_td(P3, data, 20)
        # with x = 0 everything chi-dependent drops; |sin|_3 = |3|_3, and
        # the phase is lambda_3(2 sqrt(1)/sin 3)
        assert amp.modulus_sq == 3
        root_over_sin = scale(divide(PadicTruncation.from_rational(1, 3, 20), sin_p(F(3), 3, 20)), 2)
        # lambda_3 reads one digit above the valuation
        assert root_over_sin.precision - root_over_sin.valuation >= 1
        assert amp.phase == lambda_v(P3, root_over_sin.representative())

    def test_matches_hand_formula(self):
        for p in (3, 5, 7):
            place = Place.prime(p)
            data = OscillatorBoundaryData(
                x0=F(1), x1=F(2), gamma0=F(0), gamma1=F(p),
                dgamma0=F(1), dgamma1=F(1), s0=F(2), s1=F(3),
                ds0=F(1, 5) if p != 5 else F(1, 3), ds1=F(1, 7) if p != 7 else F(1, 3),
            )
            assert k_oscillator_td(place, data, 24) == k_oscillator(place, data, 24)

    def test_two_term_reduction_with_static_s(self):
        # vanishing ds makes the rational chi term drop entirely
        form = oscillator_action_form(OSC_SAMPLE, 3, 20)
        assert form.alpha == form.beta  # unit dgamma, static s
        assert k_oscillator_td(P3, OSC_SAMPLE, 20) == k_oscillator(P3, OSC_SAMPLE, 20)

    def test_real_place_float_route(self):
        data = OscillatorBoundaryData(
            x0=F(1, 2), x1=F(1, 3), gamma0=F(1, 10), gamma1=F(7, 10),
            dgamma0=F(2), dgamma1=F(2), s0=F(1), s1=F(2),
            ds0=F(1, 5), ds1=F(1, 7),
        )
        got = k_oscillator_td_real(data)
        dg = float(data.gamma1 - data.gamma0)
        root = math.sqrt(float(data.dgamma1 * data.dgamma0))
        lam = (1 - 1j * math.copysign(1, 2 * math.sin(dg))) / math.sqrt(2)
        mod = abs(root / math.sin(dg)) ** 0.5
        a1 = 0.5 * (
            float(data.ds0) * float(data.x0) ** 2 / float(data.s0)
            - float(data.ds1) * float(data.x1) ** 2 / float(data.s1)
        )
        a2 = -(
            float(data.dgamma1) * float(data.x1) ** 2
            + float(data.dgamma0) * float(data.x0) ** 2
        ) / (2 * math.tan(dg)) + float(data.x1 * data.x0) * root / math.sin(dg)
        want = lam * mod * cmath.exp(-2j * math.pi * (a1 + a2))
        assert abs(got - want) < 1e-9

    def test_precision_error_when_too_shallow(self):
        with pytest.raises(PrecisionError, match="^precision 1 does not pin the oscillator "
                                                 "kernel at p = 3: it needs 2$"):
            k_oscillator_td(P3, OSC_SAMPLE, 1)

    def test_coincident_phases_rejected_by_both_routes(self):
        data = OscillatorBoundaryData(
            x0=F(1), x1=F(2), gamma0=F(3), gamma1=F(3),
            dgamma0=F(1), dgamma1=F(1), s0=F(1), s1=F(1),
            ds0=F(0), ds1=F(0),
        )
        with pytest.raises(DegenerateIntervalError):
            k_oscillator_td(P3, data, 20)
        with pytest.raises(DegenerateIntervalError):
            oscillator_action_form(data, 3, 20)
        with pytest.raises(DegenerateIntervalError, match="vanishing sine"):
            k_oscillator_td_real(data)

    def test_real_place_has_its_own_route(self):
        with pytest.raises(InputError, match="k_oscillator_td_real"):
            k_oscillator_td(R, OSC_SAMPLE, 20)

    def test_invalid_boundary_data(self):
        with pytest.raises(ValueError):
            OscillatorBoundaryData(
                x0=F(0), x1=F(0), gamma0=F(0), gamma1=F(3),
                dgamma0=F(1), dgamma1=F(1), s0=F(0), s1=F(1),
                ds0=F(0), ds1=F(0),
            )

    @pytest.mark.parametrize("dgamma0, dgamma1", [(0, 1), (1, 0), (0, 0)])
    def test_vanishing_dgamma_product_is_degenerate(self, dgamma0, dgamma1):
        # the mixed partial sqrt(dgamma1*dgamma0)/sin delta vanishes at every place
        with pytest.raises(DegenerateFormError):
            OscillatorBoundaryData(
                x0=F(1), x1=F(2), gamma0=F(0), gamma1=F(3),
                dgamma0=F(dgamma0), dgamma1=F(dgamma1), s0=F(1), s1=F(1),
                ds0=F(0), ds1=F(0),
            )

    def test_negative_dgamma_product_has_no_real_root(self):
        data = OscillatorBoundaryData(
            x0=F(1), x1=F(2), gamma0=F(0), gamma1=F(3, 10),
            dgamma0=F(-1), dgamma1=F(1), s0=F(1), s1=F(1),
            ds0=F(0), ds1=F(0),
        )
        with pytest.raises(NonSquareError):
            k_oscillator_td_real(data)

    def test_wronskian_flag(self):
        assert OSC_SAMPLE.wronskian_consistent()
        skewed = OscillatorBoundaryData(
            x0=F(1), x1=F(2), gamma0=F(0), gamma1=F(3),
            dgamma0=F(1), dgamma1=F(2), s0=F(1), s1=F(1),
            ds0=F(0), ds1=F(0),
        )
        assert not skewed.wronskian_consistent()


def random_oscillator_data(rng, p):
    """Boundary data with v_p(delta) from the series domain's edge at p (2 at
    p = 2, 1 above) to two past it, and a square dgamma product."""

    def rational():
        return F(rng.randint(-30, 30), rng.randint(1, 30)) * F(p) ** rng.randint(-2, 2)

    def nonzero():
        return F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))

    def unit():
        return F(rng.choice([-1, 1]) * rng.choice([n for n in range(1, 30) if n % p]),
                 rng.choice([d for d in range(1, 30) if d % p]))

    edge = 2 if p == 2 else 1
    gamma0 = rational()
    dgamma0 = nonzero()
    return OscillatorBoundaryData(
        x0=rational(), x1=rational(),
        gamma0=gamma0, gamma1=gamma0 + p ** rng.randint(edge, edge + 2) * unit(),
        dgamma0=dgamma0, dgamma1=dgamma0 * nonzero() ** 2,
        s0=nonzero(), s1=nonzero(), ds0=rational(), ds1=rational(),
    )


def outcome(f, *args):
    """The value of f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (PadicqmError, ValueError) as exc:
        return type(exc), str(exc)


class TestOscillatorAgainstExactSums:
    """The integer route against the truncations of the exact Fraction sums.

    ``series_oracle.oscillator_form`` rebuilds 1/tan delta and
    sqrt(dgamma1*dgamma0)/sin delta from the Fraction loop with
    ``from_rational`` and ``pow``-based division, decides with the guard
    on their precisions whether they pin the kernel, and builds the form
    from their representatives.  The library's form and kernel must equal
    that form and its kernel, or raise the same error.
    """

    CASES = 180  # per prime: 1,080 in all

    @staticmethod
    def random_case(rng, p):
        def rational(low, high):
            n = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 4))
            return F(n, rng.randint(1, 10 ** rng.randint(0, 3))) * F(p) ** rng.randint(low, high)

        e = 2 if p == 2 else 1
        gamma0 = rational(-2, 2)
        roll = rng.random()
        delta = F(0) if roll < 0.02 else rational(e - 1, e - 1) if roll < 0.1 else rational(e, e + 3)
        dgamma0 = rational(-2, 2)
        dgamma1 = dgamma0 * rational(-1, 1) ** 2 if rng.random() < 0.75 else rational(-2, 2)
        data = OscillatorBoundaryData(
            x0=rational(-2, 2) if rng.random() < 0.9 else F(0),
            x1=rational(-2, 2) if rng.random() < 0.9 else F(0),
            gamma0=gamma0, gamma1=gamma0 + delta, dgamma0=dgamma0, dgamma1=dgamma1,
            s0=rational(-1, 1), s1=rational(-1, 1), ds0=rational(-1, 1), ds1=rational(-1, 1),
        )
        return data, rng.randint(1, 12) if rng.random() < 0.3 else rng.randint(1, 120)

    def compare_routes(self, p, cases):
        """Run the kernel and its form on ``cases`` seeded draws; count the cases of each kind."""
        rng = random.Random(1000 + p)
        place = Place.prime(p)
        kinds = Counter()
        for _ in range(cases):
            data, P = self.random_case(rng, p)
            got = [outcome(k_oscillator_td, place, data, P),
                   outcome(oscillator_action_form, data, p, P)]
            form = outcome(series_oracle.oscillator_form, data, p, P)
            # every precision from P* on gives the same kernel, so the
            # oracle's kernel at P is the library's at min(P, P*)
            kernel = (form if isinstance(form, tuple)
                      else outcome(k_general_quadratic, place, form, data.x1, data.x0))
            assert got == [kernel, form], (data, P)
            kinds[form[0].__name__ if isinstance(form, tuple) else "value"] += 1
        return kinds

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_kernel_routes_match(self, p):
        kinds = self.compare_routes(p, self.CASES)
        # the draw reaches values and every error the routes raise
        assert kinds["value"] >= self.CASES // 3
        assert {"DomainError", "NonSquareError", "PrecisionError"} <= set(kinds), kinds

    @pytest.mark.parametrize("p", [2**64 + 13, 10**24 + 7])
    def test_kernel_routes_match_above_word_size(self, p):
        # p^1 alone outgrows a machine word, so every modulus and unit inverse is multi-word
        kinds = self.compare_routes(p, 30)
        assert kinds["value"] >= 10, kinds


class TestOscillatorPrecisionSoundness:
    """A result at precision P is exact: P + 60 gives the same amplitude.

    ``k_oscillator_td`` evaluates at min(P, P*), so it is compared with
    the form route and with the hand formula of ``closed_forms``, each at
    P + 60, not with itself.  Below P* it raises a PrecisionError naming P*.
    """

    CASES = 200
    EXTRA = 60

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_result_stable_under_more_precision(self, p):
        rng = random.Random(p)
        place = Place.prime(p)
        checked = raised = 0
        for _ in range(self.CASES):
            data = random_oscillator_data(rng, p)
            # half the cases near the shallowest precision that can succeed
            P = rng.randint(1, 12) if rng.random() < 0.5 else rng.randint(1, 120)
            least = oscillator_precision(data, p)
            if P < least:
                with pytest.raises(PrecisionError, match=f"it needs {least}$"):
                    k_oscillator_td(place, data, P)
                raised += 1
                continue
            amp = k_oscillator_td(place, data, P)
            fine = oscillator_action_form(data, p, P + self.EXTRA)
            assert amp == k_general_quadratic(place, fine, data.x1, data.x0), (data, P)
            assert amp == k_oscillator(place, data, P + self.EXTRA), (data, P)
            checked += 1
        assert checked >= self.CASES // 2 and raised, (checked, raised)


def valuation_grid_data(rng, p):
    """Boundary data with d = v_p(delta) and r = v_p(dgamma1 dgamma0)/2 drawn
    on their own, r from -3 to 6 and d from the domain edge to 3 above it;
    each endpoint is 0 in about one case in seven.  Returns (data, d, r)."""

    def unit():
        return F(rng.choice((-1, 1)) * rng.choice([n for n in range(1, 40) if n % p]),
                 rng.choice([n for n in range(1, 40) if n % p]))

    def endpoint():
        return F(0) if rng.random() < 0.15 else F(p) ** rng.randint(-4, 4) * unit()

    edge = 2 if p == 2 else 1
    d, r, a = rng.randint(edge, edge + 3), rng.randint(-3, 6), rng.randint(-3, 3)
    # dgamma1 dgamma0 = p^(2r) (u w)^2, a square at every p
    u, w = unit(), unit()
    gamma0 = F(rng.randint(-9, 9), rng.randint(1, 9))
    data = OscillatorBoundaryData(
        x0=endpoint(), x1=endpoint(), gamma0=gamma0, gamma1=gamma0 + F(p) ** d * unit(),
        dgamma0=F(p) ** a * u, dgamma1=F(p) ** (2 * r - a) * u * w * w,
        s0=unit(), s1=unit(), ds0=unit(), ds1=unit(),
    )
    return data, d, r


class TestOscillatorPrecision:
    """``oscillator_precision`` is exact: the guard of ``series_oracle.oscillator_form``
    passes at P* and raises at P* - 1, and the library's form at P* is the oracle's."""

    CASES = 200

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_least_precision_is_exact(self, p):
        rng = random.Random(p)
        place = Place.prime(p)
        seen = Counter()
        for _ in range(self.CASES):
            data, d, r = valuation_grid_data(rng, p)
            least = oscillator_precision(data, p)
            form = series_oracle.oscillator_form(data, p, least)
            with pytest.raises(PrecisionError, match=f"it needs {least}$"):
                series_oracle.oscillator_form(data, p, least - 1)
            assert oscillator_action_form(data, p, least) == form, (data, least)
            got = k_general_quadratic(place, form, data.x1, data.x0)
            assert got == k_oscillator(place, data, least + 60), (data, least)
            seen.update({"x0 = 0": data.x0 == 0, "x1 = 0": data.x1 == 0,
                         "r < d": r < d, "r > d": r > d, "P* <= r": least <= r})
        # every branch of the bound is reached; sqrt_p's r + 1 digits exceed
        # P* only at odd p, where lambda needs one digit
        want = {"x0 = 0", "x1 = 0", "r < d", "r > d"} | ({"P* <= r"} if p != 2 else set())
        assert set(+seen) == want, seen

    def test_the_kernel_evaluates_at_the_least_precision(self, monkeypatch):
        data = OscillatorBoundaryData(x0=1, x1=2, gamma0=0, gamma1=105, dgamma0=1,
                                      dgamma1=1, s0=1, s1=1, ds0=0, ds1=0)
        calls = []
        sums = propagators._sin_cos_sums

        def spy(x, p, precision, d=None):
            calls.append((p, precision))
            return sums(x, p, precision, d)

        monkeypatch.setattr(propagators, "_sin_cos_sums", spy)
        for p in (3, 5, 7):
            k_oscillator_td(Place.prime(p), data, 1000)
        assert calls == [(p, oscillator_precision(data, p)) for p in (3, 5, 7)]
        assert all(P < 1000 for _, P in calls)

    def test_requested_precision_1000(self):
        # the perfbench oscillator's deepest rung: the kernel at P* is the
        # kernel of the form at the requested precision
        data = OscillatorBoundaryData(
            x0=F(3, 5), x1=F(-7, 4), gamma0=F(2, 11), gamma1=F(2, 11) - 105,
            dgamma0=1, dgamma1=1, s0=F(5, 8), s1=F(-1, 3), ds0=F(9, 2), ds1=F(4, 7),
        )
        for p in (3, 5, 7):
            place = Place.prime(p)
            form = oscillator_action_form(data, p, 1000)
            assert (k_oscillator_td(place, data, 1000)
                    == k_general_quadratic(place, form, data.x1, data.x0))


class TestOscillatorComposition:
    """Two oscillator steps gamma0 -> gamma_m -> gamma1 compose to the one-shot kernel.

    The kernel's lambda_p(2 sqrt(dgamma1*dgamma0)/sin delta) is what the
    Gauss composition of the two step forms carries; lambda_p(2 sin delta)
    differs from it where the root is not a square in Q_p (here dgamma = 3
    at p = 3 and 7).  The ds/s terms of the steps cancel in the x_m^2
    coefficient, so the midpoint's s_m, ds_m are arbitrary.  Cases whose
    canonical root of dgamma^2 is -dgamma (p = 5, dgamma = 3; p = 13,
    dgamma = 7) are skipped: that branch does not compose.
    """

    P = 80
    DGAMMAS = (1, 2, 3, 5, 6, 7, 10, 12, 15)
    ENDPOINTS = ((F(1), F(2)), (F(1, 2), F(1, 3)), (F(-3), F(5)))

    @staticmethod
    def data(g, x0, x1, gamma0, gamma1, s0, s1, ds0, ds1):
        return OscillatorBoundaryData(
            x0=x0, x1=x1, gamma0=gamma0, gamma1=gamma1, dgamma0=g, dgamma1=g,
            s0=s0, s1=s1, ds0=ds0, ds1=ds1,
        )

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_two_steps_equal_one(self, p):
        place, P, data = Place.prime(p), self.P, self.data
        checked = 0
        for g in self.DGAMMAS:
            if sqrt_p(g * g, p, P) != PadicTruncation.from_rational(g, p, P):
                continue
            for d1, d2 in ((p, p), (2 * p, -p), (p * p, 3 * p)):
                for x0, x1 in self.ENDPOINTS:
                    one = k_oscillator_td(
                        place, data(g, x0, x1, 0, d1 + d2, 2, 3, F(1, 2), F(1, 4)), P)
                    first = oscillator_action_form(
                        data(g, x0, 1, 0, d1, 2, 5, F(1, 2), F(2, 7)), p, P)
                    second = oscillator_action_form(
                        data(g, 1, x1, d1, d1 + d2, 5, 3, F(2, 7), F(1, 4)), p, P)
                    composed = compose_kernels(SymbolicKernel.from_form(place, second),
                                               SymbolicKernel.from_form(place, first))
                    assert composed.evaluate(x0, x1) == one, (g, d1, d2, x0, x1)
                    checked += 1
        assert checked >= 45


class TestOscillatorFormSoundness:
    """Whenever the form route returns at precision P, P + 80 gives the same kernel."""

    CASES = 300
    EXTRA = 80

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_form_route_exact_when_it_returns(self, p):
        rng = random.Random(p)
        place = Place.prime(p)
        returned = 0
        for _ in range(self.CASES):
            data = random_oscillator_data(rng, p)
            P = rng.randint(1, 12)
            try:
                got = k_general_quadratic(place, oscillator_action_form(data, p, P),
                                          data.x1, data.x0)
            except PrecisionError:
                continue
            fine_form = oscillator_action_form(data, p, P + self.EXTRA)
            assert got == k_general_quadratic(place, fine_form, data.x1, data.x0), (data, P)
            returned += 1
        assert returned >= self.CASES // 4

    def test_low_precision_raises(self):
        # at P = 2 the gamma x1 x0 and alpha x1^2 terms are not pinned: the
        # unguarded form gave phase 13/108 where the kernel is 25/108
        data = OscillatorBoundaryData(
            x0=F(1), x1=F(1, 3), gamma0=F(0), gamma1=F(3),
            dgamma0=F(1), dgamma1=F(1), s0=F(1), s1=F(1),
            ds0=F(0), ds1=F(0),
        )
        with pytest.raises(PrecisionError):
            oscillator_action_form(data, 3, 2)
        form = oscillator_action_form(data, 3, 82)
        assert k_general_quadratic(P3, form, data.x1, data.x0).phase.value == F(25, 108)

    def test_unpinned_lambda_digits_raise(self):
        # at p = 2, P = 3 pins one digit of gamma where lambda needs three:
        # the unguarded form gave phase 1/8 where the kernel is 5/8
        data = OscillatorBoundaryData(
            x0=F(0), x1=F(0), gamma0=F(0), gamma1=F(4),
            dgamma0=F(9), dgamma1=F(1), s0=F(1), s1=F(1),
            ds0=F(0), ds1=F(0),
        )
        with pytest.raises(PrecisionError):
            oscillator_action_form(data, 2, 3)
        form = oscillator_action_form(data, 2, 83)
        assert k_general_quadratic(P2, form, data.x1, data.x0).phase.value == F(5, 8)


#: units at 2, 3, 5 and 7: with a sign they meet every unit class mod 8 and
#: both square classes mod 3, 5 and 7
UNITS = st.sampled_from([1, 11, 13, 17, 19, 23])
GAMMA = st.builds(lambda s, u, w, k: F(s * u, w) * F(2 * 3 * 5 * 7) ** k,
                  st.sampled_from([-1, 1]), UNITS, UNITS, st.integers(-3, 3))


class TestFromFormPrefactor:
    """``from_form``'s prefactor against the Fraction route |gamma| lambda(-2 gamma)."""

    @settings(max_examples=300)
    @given(place=st.sampled_from(ALL_PLACES),
           form=st.one_of(
               st.builds(QuadraticActionForm, alpha=small_rationals(), beta=small_rationals(),
                         gamma=GAMMA, delta=small_rationals(), epsilon=small_rationals(),
                         zeta=small_rationals()),
               STEP.map(lambda step: step_form(*step))))
    def test_prefactor_is_norm_and_lambda_of_gamma(self, place, form):
        # GAMMA has v_p(gamma) from -3 to 3 at each of 2, 3, 5 and 7
        want = Amplitude(norm(form.gamma, place), lambda_v(place, -2 * form.gamma))
        assert SymbolicKernel.from_form(place, form).prefactor == want


class TestFormInvarianceAcrossPlaces:
    def test_same_symbolic_form_every_place(self):
        # the symbolic kernel built at each place carries the identical
        # action form; only norm/chi/lambda dispatch on the place, and the
        # prefactor is the constant-field normalization |T|^{-1/2} lambda(2T)
        a, T = F(2, 3), F(5, 4)
        reference = action_form_constant_field(a, T)
        for place in ALL_PLACES:
            kernel = SymbolicKernel.from_form(place, action_form_constant_field(a, T))
            assert kernel.form == reference
            assert kernel.prefactor == Amplitude(1 / norm(T, place), lambda_v(place, 2 * T))

    def test_composition_form_is_place_independent(self):
        a, T1, T2 = F(1, 2), F(2), F(3)
        forms = {place: compose(place, a, T1, T2).form for place in ALL_PLACES}
        reference = action_form_constant_field(a, T1 + T2)
        assert all(form == reference for form in forms.values())
