from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from padicqm import DegenerateIntervalError, action_form_constant_field

from mechanics_oracle import (
    PolynomialPath,
    action_constant_field,
    action_integral,
    classical_path_constant_field,
    euler_lagrange_residual,
    is_zero_poly,
    poly_eval,
)

rationals = st.fractions(min_value=F(-20), max_value=F(20), max_denominator=20)
nonzero = rationals.filter(lambda x: x != 0)


class TestClassicalPath:
    def test_free_straight_line(self):
        path = classical_path_constant_field(0, 1, 0, 1)
        assert path.coefficients == (F(0), F(1))

    def test_accelerated_loop(self):
        path = classical_path_constant_field(2, 1, 0, 0)
        assert path.coefficients == (F(0), F(-1), F(1))  # t^2 - t

    @settings(max_examples=100)
    @given(a=rationals, T=nonzero, q0=rationals, q1=rationals)
    def test_boundary_and_acceleration(self, a, T, q0, q1):
        path = classical_path_constant_field(a, T, q0, q1)
        assert poly_eval(path.coefficients, F(0)) == q0
        assert poly_eval(path.coefficients, T) == q1
        # leading coefficient is a/2, so the second derivative is a
        assert is_zero_poly(euler_lagrange_residual(path, a))

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateIntervalError):
            classical_path_constant_field(1, 0, 0, 1)


class TestEulerLagrange:
    def test_nonclassical_paths(self):
        cubic = PolynomialPath((F(0), F(0), F(0), F(1)), 0, 1, 0, 1)
        assert euler_lagrange_residual(cubic, 0) == (F(0), F(6))
        quadratic = PolynomialPath((F(0), F(0), F(1)), 0, 1, 0, 1)
        assert is_zero_poly(euler_lagrange_residual(quadratic, 2))

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            PolynomialPath((F(0), F(1)), 0, 1, 0, 2)


class TestAction:
    def test_free_case(self):
        assert action_constant_field(0, 2, 1, 5) == F(16, 4)

    def test_example_value(self):
        assert action_constant_field(2, 1, 0, 1) == F(4, 3)

    def test_constant_path(self):
        path = PolynomialPath((F(3),), 0, 2, 3, 3)
        assert action_integral(path, F(5)) == 5 * 3 * 2

    @settings(max_examples=150)
    @given(a=rationals, T=nonzero, q0=rationals, q1=rationals)
    def test_integral_matches_closed_form(self, a, T, q0, q1):
        path = classical_path_constant_field(a, T, q0, q1)
        assert action_integral(path, a) == action_constant_field(a, T, q0, q1)

    @settings(max_examples=150)
    @given(a=rationals, T=nonzero, q0=rationals, q1=rationals)
    def test_time_reversal_symmetry(self, a, T, q0, q1):
        assert action_constant_field(a, T, q0, q1) == action_constant_field(a, T, q1, q0)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateIntervalError):
            action_constant_field(1, 0, 0, 1)


class TestActionForm:
    @settings(max_examples=100)
    @given(a=rationals, T=nonzero, q0=rationals, q1=rationals)
    def test_form_evaluates_to_action(self, a, T, q0, q1):
        form = action_form_constant_field(a, T)
        assert form.evaluate(q1, q0) == action_constant_field(a, T, q0, q1)

    def test_mixed_partial(self):
        assert action_form_constant_field(0, 1).mixed_partial == -1
        assert action_form_constant_field(0, F(1, 3)).mixed_partial == -3

    @settings(max_examples=80)
    @given(a=rationals, T1=nonzero, T2=nonzero, q0=rationals, q1=rationals)
    def test_stationary_composition(self, a, T1, T2, q0, q1):
        # scalar core of the composition law: the stationary intermediate
        # point of S(q1,T2;x) + S(x,T1;q0) recovers the one-shot action
        if T1 + T2 == 0:
            return
        f2 = action_form_constant_field(a, T2)
        f1 = action_form_constant_field(a, T1)
        # d/dx [f2(q1, x) + f1(x, q0)] = 0
        denom = 2 * (f2.beta + f1.alpha)
        x_star = -(f2.gamma * q1 + f2.epsilon + f1.gamma * q0 + f1.delta) / denom
        stationary_value = f2.evaluate(q1, x_star) + f1.evaluate(x_star, q0)
        assert stationary_value == action_constant_field(a, T1 + T2, q0, q1)
        # the stationary point lies on the one-shot classical path
        path = classical_path_constant_field(a, T1 + T2, q0, q1)
        assert poly_eval(path.coefficients, T1) == x_star
