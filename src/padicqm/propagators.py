"""Closed-form quantum propagators over every completion of Q.

Kernels are exact :class:`Amplitude` values assembled from the norm,
the additive character and the lambda factor of the place; the symbolic
expression is the same for the real and all p-adic places.  Composition
over an intermediate point is performed symbolically (the intermediate
variable appears quadratically, so the Gauss closed form applies),
which makes the finite-partition path integral independent of the
partition -- exactly, coefficient by coefficient.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .analytic import _sin_cos_sums, _trig_domain_valuation, sqrt_p
from .characters import Amplitude, Phase, chi, gauss_factor, lambda_v, phase_sum
from .dynamics import QuadraticActionForm, _constant_field_form, action_form_constant_field
from .errors import (
    DegenerateFormError,
    DegenerateIntervalError,
    DomainError,
    InputError,
    NonSquareError,
    PartitionError,
    PrecisionError,
)
from .gauss import quad_char_integral_ball
from .places import (
    Place, _unchecked, integer, norm, p_split, rational, require_instance, require_place,
    unit_split, valuation,
)


@dataclass(frozen=True)
class PartitionSpec:
    """Time points t_0, t_1, ..., t_N at one place, pairwise distinct.

    The points are taken in the caller's order: Q_p has no order of its
    own, and the fold needs none.  Distinct points make every step
    t_{k+1} - t_k and every partial interval t_k - t_0 nonzero, which is
    all that the exact composition of the step kernels needs.
    """

    place: Place
    points: tuple[Fraction, ...]

    def __post_init__(self):
        require_place(self.place)
        require_instance(self.points, Sequence)
        # a list is built at its length; tuple(generator) resizes a 10-slot tuple
        pts = tuple([rational(t) for t in self.points])
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise PartitionError("a partition needs at least two points")
        if len(set(pts)) < len(pts):
            raise PartitionError(f"partition points repeat: {', '.join(map(str, pts))}")


@dataclass(frozen=True)
class SymbolicKernel:
    """A kernel prefactor * chi_v(-S(x1, x0)) with S an exact quadratic form.

    Supports exact composition over the shared endpoint; two kernels are
    equal exactly when prefactor and form coincide coefficient-wise.
    """

    place: Place
    prefactor: Amplitude
    form: QuadraticActionForm

    def __post_init__(self):
        require_place(self.place)
        require_instance(self.prefactor, Amplitude)
        require_instance(self.form, QuadraticActionForm)

    @classmethod
    def from_form(cls, place: Place, form: QuadraticActionForm) -> SymbolicKernel:
        """The kernel lambda_v(-2 gamma) |gamma|_v^{1/2} chi_v(-S(x1, x0)).

        gamma = g/den is the mixed partial of the form; the expression is
        the same at every place.  The prefactor is the Gauss factor
        lambda_v(a) |2a|_v^{-1/2} of :func:`~padicqm.characters.gauss_factor`
        at a = -1/(2 gamma) = -den/(2g): a = -2 gamma/(2 gamma)^2, so
        lambda_v(a) = lambda_v(-2 gamma) by square absorption, and
        |2a|_v^{-1} = |gamma|_v.
        """
        if type(place) is not Place:
            require_place(place)
        if type(form) is not QuadraticActionForm:
            require_instance(form, QuadraticActionForm)
        g, den = form.nums[2], form.den
        if not g:
            raise DegenerateFormError("mixed partial of the action form vanishes")
        (mn, md), lam = gauss_factor(place, -den, 2 * g)
        # every field is checked: the place and the form above, and the
        # nonzero modulus and eighth phase that gauss_factor gives
        prefactor = _unchecked(Amplitude, modulus_sq=Fraction(mn, md), phase=lam)
        return _unchecked(cls, place=place, prefactor=prefactor, form=form)

    def evaluate(self, q0: Fraction | int, q1: Fraction | int) -> Amplitude:
        """Amplitude for propagation from q0 to q1: the 1 x 1 :meth:`phase_grid`."""
        [(n, d)] = self.phase_grid((q0,), (q1,))
        return Amplitude(self.prefactor.modulus_sq, Phase(Fraction(n, d)))

    def phase_grid(
        self, q0s: Sequence[Fraction | int], q1s: Sequence[Fraction | int]
    ) -> list[tuple[int, int]]:
        """Reduced phases (n, d), 0 <= n < d, at every (q0, q1), q0-major.

        The prefactor phase a/b and chi_v(-S) are added in integers.  With
        q1 = n1/d1 and q0 = n0/d0, S(q1, q0) = num / D for
        num = A1 d0^2 + B0 d1^2 + gamma n1 d1 n0 d0 and D = den d1^2 d0^2,
        where A1 = alpha n1^2 + delta n1 d1 + zeta d1^2 and
        B0 = beta n0^2 + epsilon n0 d0 are formed once a value.  The phase
        is (a D + num b)/(b D) at infinity, and a/b + r/p^k at p, with
        r/p^k the p-adic fractional part of -num/D: the p-parts of den,
        d1^2 and d0^2 are split off once a value, and a row takes one
        modular inverse.  Each phase is reduced by one gcd.  An axis that
        is no sequence raises InputError, checked once a call.
        """
        for qs in (q0s, q1s):
            if type(qs) is not list and type(qs) is not tuple:
                require_instance(qs, Sequence)
        den, (al, be, ga, dl, ep, ze) = self.form.den, self.form.nums
        pre = self.prefactor.phase.value
        a, b = pre.numerator, pre.denominator
        p = self.place.p
        # per value: its parts of S, and d^2 = p^(2v) e^2 with p not dividing
        # e (v = 0 at infinity)
        later = []
        for q1 in q1s:
            q1 = q1 if type(q1) is Fraction else rational(q1)
            n1, d1 = q1.numerator, q1.denominator
            v1, e1 = p_split(d1, p) if p else (0, d1)
            later.append(((al * n1 + dl * d1) * n1 + ze * d1 * d1, ga * n1 * d1,
                          d1 * d1, 2 * v1, e1 * e1))
        earlier = []
        for q0 in q0s:
            q0 = q0 if type(q0) is Fraction else rational(q0)
            n0, d0 = q0.numerator, q0.denominator
            v0, e0 = p_split(d0, p) if p else (0, d0)
            earlier.append(((be * n0 + ep * d0) * n0, n0 * d0, d0 * d0, 2 * v0, e0 * e0))
        gcd = math.gcd
        out = []
        if p is None:
            for B0, x0, s0, _, _ in earlier:
                for A1, g1, s1, _, _ in later:
                    D = den * s1 * s0
                    d = b * D
                    n = (a * D + (A1 * s0 + B0 * s1 + g1 * x0) * b) % d
                    g = gcd(n, d)
                    out.append((n // g, d // g))
            return out
        vden, eden = p_split(den, p)
        for B0, x0, s0, v0, e0 in earlier:
            v0, e0 = v0 + vden, e0 * eden
            for A1, g1, s1, v1, e1 in later:
                if not v1 + v0:
                    out.append((a, b))
                    continue
                k = p ** (v1 + v0)
                r = -(A1 * s0 + B0 * s1 + g1 * x0) * pow(e1 * e0, -1, k) % k
                d = b * k
                n = (a * k + r * b) % d
                g = gcd(n, d)
                out.append((n // g, d // g))
        return out


def compose_kernels(k2: SymbolicKernel, k1: SymbolicKernel) -> SymbolicKernel:
    """Integrate k2(q1, x) * k1(x, q0) over x, exactly.

    The x-dependence of the combined phase is quadratic, so the Gauss
    closed form applies; the result is again a symbolic kernel, with the
    lambda factors collapsing by the lambda product identities.  The
    forms are combined on their integer numerators and reduced once, and
    the Gauss factor lambda_v(A) |2A|_v^{-1/2} at the x^2 coefficient
    A = -n/(D1 D2) is :func:`~padicqm.characters.gauss_factor` at
    (-n, D1 D2).
    """
    if type(k2) is not SymbolicKernel or type(k1) is not SymbolicKernel:
        require_instance(k2, SymbolicKernel)
        require_instance(k1, SymbolicKernel)
    place = k2.place
    # a fold's kernels share one Place object: identity settles it without __eq__
    if place is not k1.place and place != k1.place:
        raise InputError("kernels live at different places")
    D2, (a2, b2, g2, d2, e2, z2) = k2.form.den, k2.form.nums
    D1, (a1, b1, g1, d1, e1, z1) = k1.form.den, k1.form.nums
    # chi argument of the product is -(f2(q1, x) + f1(x, q0)); collected in x
    # it is A x^2 + (u q1 + w q0 + s) x + ..., with A = -n/(D1 D2),
    # u = -g2/D2, w = -g1/D1 and s = -m/(D1 D2).
    n = b2 * D1 + a1 * D2
    if n == 0:
        raise DegenerateIntervalError("degenerate composition: quadratic term vanishes")
    m = e2 * D1 + d1 * D2
    # New form: S'(q1, q0) = B^2/(4A) - C with C the x-free chi part, over 4n D, D = D1 D2.
    n4, D = 4 * n, D1 * D2
    form = QuadraticActionForm.from_integers(
        n4 * D,
        (
            (n4 * a2 - g2 * g2 * D1) * D1,
            (n4 * b1 - g1 * g1 * D2) * D2,
            -2 * g2 * g1 * D,
            2 * (2 * n * d2 - g2 * m) * D1,
            2 * (2 * n * e1 - g1 * m) * D2,
            -m * m + n4 * (z2 * D1 + z1 * D2),
        ),
    )
    # the squared moduli of the steps and |2A|^{-1} multiply into one Fraction
    (mn, md), lam = gauss_factor(place, -n, D)
    p2, p1 = k2.prefactor, k1.prefactor
    m2, m1 = p2.modulus_sq, p1.modulus_sq
    mn, md = mn * m2.numerator * m1.numerator, md * m2.denominator * m1.denominator
    if not mn:  # a zero prefactor: the zero amplitude, whose phase is 0
        return SymbolicKernel(place, Amplitude.zero(), form)
    # every field is a checked value: the kernels', the form's and gauss_factor's
    prefactor = _unchecked(Amplitude, modulus_sq=Fraction(mn, md),
                           phase=phase_sum(p2.phase, p1.phase, lam))
    return _unchecked(SymbolicKernel, place=place, prefactor=prefactor, form=form)


def desitter_action_form(lam: Fraction | int, T: Fraction | int) -> QuadraticActionForm:
    """Action form of the minisuperspace cosmological model with constant lam.

    It is -1/4 times the constant-field form at a = 2 lam, plus T/2 in
    zeta: -(x1 - x0)^2/(8T) - lam T (x1 + x0)/4 + T/2 + lam^2 T^3/24.
    Over 4 den td, with den and nums that form's integers and T = tn/td,
    the numerators are -nums td, and zeta's adds 2 den tn.
    """
    lam, T = rational(lam), rational(T)
    form = action_form_constant_field(2 * lam, T)
    den, nums, tn, td = form.den, form.nums, T.numerator, T.denominator
    return QuadraticActionForm.from_integers(
        4 * den * td, (*(-n * td for n in nums[:5]), 2 * den * tn - nums[5] * td)
    )


def k_general_quadratic(
    place: Place, form: QuadraticActionForm, x1: Fraction | int, x0: Fraction | int
) -> Amplitude:
    """Propagator from a quadratic classical action form, at x1 from x0."""
    return SymbolicKernel.from_form(place, form).evaluate(x0, x1)


def finite_n_propagator(
    a: Fraction | int, partition: PartitionSpec, q0: Fraction | int, q1: Fraction | int
) -> Amplitude:
    """Finite-partition path integral for the constant-field system.

    Folds the exact Gauss composition over the subintervals at the
    partition's place, with prod lambda_v(2 eps_i) |eps_i|^{-1/2} built
    into each step kernel.  The result is independent of the partition
    and equals the one-shot kernel over the total time.
    """
    require_instance(partition, PartitionSpec)
    a, q0, q1 = rational(a), rational(q0), rational(q1)  # before the fold, not after it
    an, ad, place = a.numerator, a.denominator, partition.place
    ends = [(t.numerator, t.denominator) for t in partition.points]
    # each step's form from its length (n1 d0 - n0 d1)/(d0 d1), unreduced
    forms = (_constant_field_form(an, ad, n1 * d0 - n0 * d1, d0 * d1)
             for (n0, d0), (n1, d1) in zip(ends, ends[1:]))
    kernels = (SymbolicKernel.from_form(place, form) for form in forms)
    return reduce(lambda kernel, step: compose_kernels(step, kernel), kernels).evaluate(q0, q1)


def overlap_ball_integral(
    p: int,
    a: Fraction | int,
    t: Fraction | int,
    t1: Fraction | int,
    x0: Fraction | int,
    x1: Fraction | int,
    N: int,
) -> Amplitude:
    """Pairing of two kernels sharing their source point, over a p-adic ball.

    Integrates conj(K(x1, t1; x, t)) * K(x0, t1; x, t) over |x|_p <= p^N.
    The quadratic parts cancel, leaving an exact linear character
    integral: zero for x1 != x0 once the ball is large enough, and the
    diverging mass p^N / |t1 - t|_p on the diagonal -- the ball pairing
    of a delta.
    """
    place = Place.prime(p)
    t, t1, x0, x1, N = rational(t), rational(t1), rational(x0), rational(x1), integer(N)
    # coincident times raise DegenerateIntervalError: the pairing is the delta limit
    form, dx = action_form_constant_field(a, t1 - t), x1 - x0
    # conj(K(x1;x)) K(x0;x): lambda factors cancel, and so do the x^2 terms
    # of S(x1, x) - S(x0, x), leaving gamma (x1 - x0) x plus a constant
    ball = quad_char_integral_ball(p, Fraction(0), form.gamma * dx, N)
    const = form.alpha * (x1 * x1 - x0 * x0) + form.delta * dx
    # |K|^2 is the value |gamma|, so its squared modulus is |gamma|^2
    weight = Amplitude(norm(form.gamma, place) ** 2, chi(place, const))
    return weight * ball


def overlap_vanishing_threshold(p: int, x_diff: Fraction | int, tau: Fraction | int) -> int:
    """Smallest N at which the off-diagonal pairing is exactly zero.

    The pairing vanishes once the linear character is nontrivial on the
    ball: N >= v_p(x_diff / tau) + 1.  Coincident times (tau = 0) raise
    DegenerateIntervalError, as in :func:`overlap_ball_integral`.
    """
    x_diff, tau = rational(x_diff), rational(tau)
    if x_diff == 0:
        raise InputError("threshold defined for distinct endpoints")
    if tau == 0:
        raise DegenerateIntervalError("zero time interval")
    return valuation(x_diff / tau, p) + 1


@dataclass(frozen=True)
class OscillatorBoundaryData:
    """Caller-supplied boundary data for the time-dependent oscillator.

    gamma0/gamma1 and s0/s1 are boundary values of the auxiliary
    functions, dgamma*/ds* their time derivatives; x0/x1 the endpoints.
    The defining equations of the auxiliary functions are outside this
    library's scope -- the values are accepted as given, with an optional
    consistency flag below.
    """

    x0: Fraction
    x1: Fraction
    gamma0: Fraction
    gamma1: Fraction
    dgamma0: Fraction
    dgamma1: Fraction
    s0: Fraction
    s1: Fraction
    ds0: Fraction
    ds1: Fraction

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, rational(getattr(self, name)))
        if self.s0 == 0 or self.s1 == 0:
            raise InputError("s boundary values must be nonzero")
        if self.dgamma0 * self.dgamma1 == 0:
            # the mixed partial of the action is -sqrt(dgamma1*dgamma0)/sin delta
            raise DegenerateFormError("dgamma1*dgamma0 = 0: mixed partial of the action vanishes")

    def wronskian_consistent(self) -> bool:
        """Optional check: dgamma * s^2 equal at both ends."""
        return self.dgamma0 * self.s0**2 == self.dgamma1 * self.s1**2


def oscillator_chi_rational_part(data: OscillatorBoundaryData) -> Fraction:
    """The exact rational chi argument (1/2)(ds0 x0^2/s0 - ds1 x1^2/s1)."""
    return (data.ds0 * data.x0**2 / data.s0 - data.ds1 * data.x1**2 / data.s1) / 2


def k_oscillator_td(
    place: Place, data: OscillatorBoundaryData, precision: int
) -> Amplitude:
    """Time-dependent oscillator propagator at a p-adic place, exactly.

    The kernel of :func:`oscillator_action_form` at the data's endpoints:
    lambda_p(2 sqrt(dgamma1*dgamma0)/sin delta) |sqrt/sin|_p^{1/2} chi_p(-S),
    the expression of every other system.  ``precision`` is the most
    digits the evaluation may use: the form is built at
    min(precision, P*), P* from :func:`oscillator_precision`, as every
    precision from P* on gives the same kernel; P* is read once, and the
    form is the one of :func:`oscillator_action_form`.  Below P* a
    PrecisionError names P*.
    """
    require_place(place)
    if place.is_real:
        raise InputError("use k_oscillator_td_real for the real place")
    p, precision = place.p, integer(precision)
    least, delta, d = _least_precision(data, p)
    form = _oscillator_form(data, p, min(precision, least), least, delta, d)
    return SymbolicKernel.from_form(place, form).evaluate(data.x0, data.x1)


def _normal_float(name: str, x: Fraction) -> float:
    """float(x), or DomainError when x is nonzero and outside the normal float range."""
    if x and not sys.float_info.min <= abs(x) <= sys.float_info.max:
        raise DomainError(f"{name} is outside the normal float range")
    return float(x)


def k_oscillator_td_real(data: OscillatorBoundaryData) -> complex:
    """Float evaluation of the oscillator propagator at the real place.

    Exact amplitudes are impossible here: sines of rational arguments
    are irrational, so the value is delivered as a complex float, or a
    DomainError when a value it reads or forms leaves the float range.
    """
    require_instance(data, OscillatorBoundaryData)
    delta = _normal_float("gamma1 - gamma0", data.gamma1 - data.gamma0)
    s = math.sin(delta)
    if s == 0:
        raise DegenerateIntervalError("vanishing sine of the phase difference")
    g_prod = data.dgamma1 * data.dgamma0
    if g_prod < 0:
        raise NonSquareError("dgamma product negative: no real square root")
    root = math.sqrt(_normal_float("dgamma1*dgamma0", g_prod))
    lam = lambda_v(Place.real(), Fraction(2) if s > 0 else Fraction(-2)).to_complex()
    modulus = abs(root / s) ** 0.5
    # chi has period 1: the rational part is reduced mod 1 exactly, before it meets a float
    rational = oscillator_chi_rational_part(data) % 1
    arg_rational = _normal_float("the rational chi argument", rational)
    arg_trig = (
        -_normal_float("the x^2 sum", data.dgamma1 * data.x1**2 + data.dgamma0 * data.x0**2)
        / (2 * math.tan(delta))
        + _normal_float("x1*x0", data.x1 * data.x0) * root / s
    )
    # chi at the real place is exp(-2 pi i x)
    theta = -2 * math.pi * (arg_rational + arg_trig)
    if not (math.isfinite(modulus) and math.isfinite(theta)):
        raise DomainError("the kernel's modulus or phase is outside the float range")
    return lam * modulus * complex(math.cos(theta), math.sin(theta))


def oscillator_action_form(
    data: OscillatorBoundaryData, p: int, precision: int
) -> QuadraticActionForm:
    """Quadratic action form of the oscillator, to the stated precision.

    cot delta and sqrt(dgamma1*dgamma0)/sin delta enter as rational
    representatives of their residues at ``precision``.  From
    :func:`oscillator_precision` on, those residues pin the digits that
    the kernel at the data's own endpoints x1, x0 reads, so that kernel
    is exact; at other endpoints the form is only as good as those
    digits.  Below P* a PrecisionError names P*.
    """
    precision = integer(precision)
    return _oscillator_form(data, p, precision, *_least_precision(data, p))


def _oscillator_form(
    data: OscillatorBoundaryData, p: int, precision: int, least: int, delta: Fraction, d: int
) -> QuadraticActionForm:
    """The oscillator's form at ``precision``, in integers.

    ``least``, delta = gamma1 - gamma0 and d = v_p(delta) are those of
    :func:`_least_precision`, formed once for both.

    With sin delta = p^d s and cos delta = c from ``_sin_cos_sums`` and
    the root p^r y from ``sqrt_p``, one inverse of the unit s gives both
    cot delta = (c/s mod p^(precision - d)) / p^d and
    root/sin delta = p^(r - d) (y/s mod p^j), j the digits of y, at most
    precision - d: the representatives of the truncated quotients.  Then
    alpha = cot delta dgamma1/2 + ds1/(2 s1),
    beta = cot delta dgamma0/2 - ds0/(2 s0) and gamma = -root/sin delta.
    """
    root = sqrt_p(data.dgamma1 * data.dgamma0, p, precision)
    if precision < least:
        raise PrecisionError(f"precision {precision} does not pin the oscillator kernel"
                             f" at p = {p}: it needs {least}")
    d, s, c = _sin_cos_sums(delta, p, precision, d)
    k = precision - d
    inv = pow(s, -1, p**k)
    cot = c * inv % p**k
    r = root.valuation
    ratio = root.mantissa * inv % p ** min(root.precision - r, k)
    # over 2 p^(d + max(-r, 0)) b1 b0: the form of the docstring, with
    # ds/s = n/m and b the product of the denominators of dgamma and ds/s
    g1, g0 = data.dgamma1, data.dgamma0
    n1, m1 = data.ds1.numerator * data.s1.denominator, data.ds1.denominator * data.s1.numerator
    n0, m0 = data.ds0.numerator * data.s0.denominator, data.ds0.denominator * data.s0.numerator
    lo = p ** max(-r, 0)
    q, b1, b0 = p**d * lo, g1.denominator * m1, g0.denominator * m0
    return QuadraticActionForm.from_integers(2 * q * b1 * b0, (
        (cot * g1.numerator * lo * m1 + n1 * q * g1.denominator) * b0,
        (cot * g0.numerator * lo * m0 - n0 * q * g0.denominator) * b1,
        -2 * ratio * p ** max(r, 0) * b1 * b0,
        0, 0, 0,
    ))


def oscillator_precision(data: OscillatorBoundaryData, p: int) -> int:
    """P*, the least precision at which the oscillator's form pins its kernel.

    Read from valuations alone, one split of each field's numerator and
    denominator.  With d = v_p(delta) and r = v_p(dgamma1 dgamma0)/2, at
    precision P sin delta = p^d s with s known modulo p^(P - d), cos delta
    is a unit, and ``sqrt_p`` pins max(P, r + 1) digits of the root.  So
    cot delta is known modulo p^(P - 2d), and sqrt/sin, of valuation
    r - d, modulo p^Q with Q = min(max(P, r + 1) - d, P + r - 2d).  The
    kernel at the data's endpoints reads
    - the digits of gamma = -sqrt/sin that lambda reads, need of them
      (1, or 3 at p = 2): Q - (r - d) >= need, that is P >= d + need,
      and P >= r + need unless r + 1 already reaches it;
    - the fractional part of each chi term, for each nonzero coefficient
      c: P - 2d + v(c) >= 0 for c = dgamma1 x1^2/2 and dgamma0 x0^2/2,
      the parts of alpha x1^2 and beta x0^2 that cot delta carries, and
      Q + v(c) >= 0 for c = x1 x0, that is P >= 2d - r - v(c), and
      P >= d - v(c) unless r + 1 already reaches it.
    Each condition is monotone in P, so P* is the largest of these
    bounds; at every P >= P* the kernel is the same.  delta = 0 and delta
    outside the series domain raise here, as in the evaluation.  A
    product dgamma1 dgamma0 that is not a square raises NonSquareError in
    the evaluation at every precision; P* is then only a number.
    """
    return _least_precision(data, p)[0]


def _least_precision(data: OscillatorBoundaryData, p: int) -> tuple[int, Fraction, int]:
    """(P*, delta, d): :func:`oscillator_precision` with delta = gamma1 - gamma0 and
    d = v_p(delta), which the evaluation reads too."""
    require_instance(data, OscillatorBoundaryData)
    delta = data.gamma1 - data.gamma0
    if not delta:
        raise DegenerateIntervalError("coincident auxiliary phases")
    d = _trig_domain_valuation(delta, p)

    def v(x: Fraction) -> int:
        return unit_split(x, p)[0]

    v1, v0 = v(data.dgamma1), v(data.dgamma0)
    r, need = (v1 + v0) // 2, 3 if p == 2 else 1
    # a bound k on max(P, r + 1) binds P only when k > r + 1
    bounds = [d + need] + ([r + need] if need > 1 else [])
    # (v(x), v(dgamma)) at each nonzero endpoint; v(dgamma x^2/2) = v(dgamma) + 2 v(x) - v(2)
    ends = [(v(x), vg) for x, vg in ((data.x1, v1), (data.x0, v0)) if x]
    bounds += [2 * d - vg - 2 * w + (p == 2) for w, vg in ends]
    if len(ends) == 2:
        w = ends[0][0] + ends[1][0]
        bounds += [2 * d - r - w] + ([d - w] if d - w > r + 1 else [])
    return max(bounds), delta, d
