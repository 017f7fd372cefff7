"""The public surface, and the module-level names the benchmark relies on.

``perfbench/`` imports some of these names and traces others by their
``<module>.<function>`` span name; a deletion or rename here would break
the benchmark without failing any other test.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_numpy_or_scipy():
    # scipy is imported lazily inside fresnel_oracle; at import time either
    # one would dominate the start-up time and memory of every command
    code = (
        "import padicqm, sys; "
        "print(sorted({'numpy', 'scipy'} & {m.split('.')[0] for m in sys.modules}))"
    )
    src = str(Path(padicqm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
