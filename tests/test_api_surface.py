"""The public surface, and the module-level names the benchmark relies on.

``perfbench/`` imports some of these names and traces others by their
``<module>.<function>`` span name; a deletion or rename here would break
the benchmark without failing any other test.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicqm
from padicqm import (
    InputError,
    OscillatorBoundaryData,
    PadicqmError,
    Place,
    fractional_part,
    lambda_v,
    overlap_vanishing_threshold,
    quad_char_integral_ball,
    valuation,
)
from padicqm.places import unit_residue

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
    # either one would dominate the start-up time and memory of every command
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


def test_imports_only_the_standard_library():
    # the package declares no runtime dependency; this holds for imports
    # inside functions too, which an import-time check would not see
    found = []
    for path in sorted(Path(padicqm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "padicqm" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_untyped_raise():
    # every library error is typed where it is raised; the command line
    # reports a bare ValueError or ZeroDivisionError as an internal error
    found = []
    for path in sorted(Path(padicqm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "ZeroDivisionError"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("call", [
    lambda: overlap_vanishing_threshold(3, 0, 1),
    lambda: quad_char_integral_ball(4, 1, 0, 1),
    lambda: OscillatorBoundaryData(x0=1, x1=2, gamma0=0, gamma1=3, dgamma0=1, dgamma1=1,
                                   s0=0, s1=1, ds0=0, ds1=0),
], ids=["threshold at x_diff = 0", "ball integral at p = 4", "oscillator at s0 = 0"])
def test_out_of_domain_inputs_raise_padicqm_error(call):
    with pytest.raises(PadicqmError):
        call()


@pytest.mark.parametrize("call", [
    lambda: lambda_v(Place.prime(3), 1.5),
    lambda: valuation(1.5, 3),
    lambda: unit_residue(1.5, 3, 2),
    lambda: fractional_part(1.5, 3),
], ids=["lambda_v", "valuation", "unit_residue", "fractional_part"])
def test_float_input_raises_input_error(call):
    with pytest.raises(InputError, match="not a rational"):
        call()
