"""Kernel composition in Fraction arithmetic: the oracle of ``compose_kernels``.

The library composes two symbolic kernels on the integer numerators of
their action forms over one common denominator
(``propagators.compose_kernels``).  This route collects the coefficients
of the intermediate point as ``Fraction`` values and completes the
square coefficient by coefficient, as the library did before, with the
Gauss factor's lambda from ``lambda_oracle``.  The step forms of the
constant field and of de Sitter, which the library builds in integers,
are written here from their Fraction coefficients.
"""

from fractions import Fraction

from padicqm import (
    Amplitude,
    DegenerateIntervalError,
    QuadraticActionForm,
    SymbolicKernel,
    action_form_constant_field,
    compose_kernels,
    norm,
)
from padicqm.places import Place

import lambda_oracle


def compose_kernels_fraction(k2: SymbolicKernel, k1: SymbolicKernel) -> SymbolicKernel:
    """Integrate k2(q1, x) * k1(x, q0) over x, exactly.

    The x-dependence of the combined phase is quadratic, so the Gauss
    closed form applies; the result is again a symbolic kernel, with the
    lambda factors collapsing by the lambda product identities.
    """
    if k2.place != k1.place:
        raise ValueError("kernels live at different places")
    place = k2.place
    f2, f1 = k2.form, k1.form
    # chi argument of the product is -(f2(q1, x) + f1(x, q0)); collect in x.
    A = -(f2.beta + f1.alpha)
    if A == 0:
        raise DegenerateIntervalError("degenerate composition: quadratic term vanishes")
    # linear coefficient of x: u*q1 + w*q0 + s
    u, w, s = -f2.gamma, -f1.gamma, -(f2.epsilon + f1.delta)
    # Gauss integral over x contributes lambda(A) |2A|^{-1/2} chi(-B^2/4A).
    gauss_pref = Amplitude(1 / norm(2 * A, place), lambda_oracle.lambda_v(place, A))
    # New form: S'(q1, q0) = B^2/(4A) - C with C the x-free chi part,
    # -C = f2-part(q1) + f1-part(q0).
    inv4a = 1 / (4 * A)
    new_form = QuadraticActionForm(
        alpha=u * u * inv4a + f2.alpha,
        beta=w * w * inv4a + f1.beta,
        gamma=2 * u * w * inv4a,
        delta=2 * u * s * inv4a + f2.delta,
        epsilon=2 * w * s * inv4a + f1.epsilon,
        zeta=s * s * inv4a + f2.zeta + f1.zeta,
    )
    return SymbolicKernel(place, k2.prefactor * k1.prefactor * gauss_pref, new_form)


def compose(
    place: Place,
    a: Fraction | int,
    T1: Fraction | int,
    T2: Fraction | int,
) -> SymbolicKernel:
    """Exact two-step composition of constant-field kernels, by the library.

    Returns the symbolic kernel over the total time; by the composition
    law it equals the one-shot kernel with T = T1 + T2 coefficient-wise.
    """
    T1, T2 = Fraction(T1), Fraction(T2)
    if T1 == 0 or T2 == 0 or T1 + T2 == 0:
        raise DegenerateIntervalError("degenerate step or total time")
    return compose_kernels(
        SymbolicKernel.from_form(place, action_form_constant_field(a, T2)),
        SymbolicKernel.from_form(place, action_form_constant_field(a, T1)),
    )


def action_form_constant_field_fraction(a: Fraction | int, T: Fraction | int) -> QuadraticActionForm:
    """The constant-field action form from its Fraction coefficients."""
    a, T = Fraction(a), Fraction(T)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    return QuadraticActionForm(
        alpha=1 / (2 * T),
        beta=1 / (2 * T),
        gamma=-1 / T,
        delta=a * T / 2,
        epsilon=a * T / 2,
        zeta=-a * a * T**3 / 24,
    )


def desitter_action_form_fraction(lam: Fraction | int, T: Fraction | int) -> QuadraticActionForm:
    """The de Sitter action form from its Fraction coefficients."""
    lam, T = Fraction(lam), Fraction(T)
    if T == 0:
        raise DegenerateIntervalError("zero time interval")
    return QuadraticActionForm(
        alpha=-1 / (8 * T),
        beta=-1 / (8 * T),
        gamma=1 / (4 * T),
        delta=-lam * T / 4,
        epsilon=-lam * T / 4,
        zeta=T / 2 + lam * lam * T**3 / 24,
    )
