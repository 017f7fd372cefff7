"""The public surface, and the module-level names the benchmark relies on.

``perfbench/`` imports some of these names and traces others by their
``<module>.<function>`` span name; a deletion or rename here would break
the benchmark without failing any other test.
"""

import importlib
import inspect

import pytest

import padicqm

BENCHMARK_NAMES = {
    "padicqm.analytic": ("_sin_cos_sums", "sqrt_p"),
    "padicqm.characters": ("Amplitude", "chi", "lambda_v"),
    "padicqm.cli": ("main",),
    "padicqm.dynamics": ("action_form_constant_field",),
    "padicqm.gauss": (
        "BallSpec",
        "gauss_full",
        "haar_oracle",
        "minimal_resolution",
        "quad_char_integral_ball",
        "quadratic_char_fn",
        "stabilization_threshold",
    ),
    "padicqm.places": ("Place", "fractional_part", "place_less", "valuation"),
    "padicqm.propagators": (
        "OscillatorBoundaryData",
        "compose_kernels",
        "desitter_action_form",
        "k_general_quadratic",
        "oscillator_action_form",
    ),
}


def test_every_public_name_exists():
    assert [name for name in padicqm.__all__ if not hasattr(padicqm, name)] == []


@pytest.mark.parametrize("module", sorted(BENCHMARK_NAMES))
def test_benchmark_names_resolve(module):
    mod = importlib.import_module(module)
    for name in BENCHMARK_NAMES[module]:
        value = getattr(mod, name, None)
        assert value is not None, f"{module}.{name} is gone"
        if inspect.isfunction(value):
            # the tracer names spans after the defining module
            assert value.__module__ == module, f"{module}.{name} moved"
