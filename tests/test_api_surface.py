"""The public surface, and the module-level names the benchmark relies on.

``perfbench/`` imports some of these names and traces others by their
``<module>.<function>`` span name; a deletion or rename here would break
the benchmark without failing any other test.
"""

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import padicqm
from padicqm import (
    Amplitude,
    BallSpec,
    InputError,
    OscillatorBoundaryData,
    PadicqmError,
    PadicTruncation,
    PartitionSpec,
    Phase,
    Place,
    QuadraticActionForm,
    SymbolicKernel,
    overlap_vanishing_threshold,
    quad_char_integral_ball,
    quadratic_char_fn,
)

import mechanics_oracle

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
    "padicqm.places": ("Place", "fractional_part", "valuation"),
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
    lambda: PartitionSpec(Place.prime(3), 5),
], ids=["threshold at x_diff = 0", "ball integral at p = 4", "oscillator at s0 = 0",
        "partition points not a sequence"])
def test_out_of_domain_inputs_raise_padicqm_error(call):
    with pytest.raises(PadicqmError):
        call()


P3 = Place.prime(3)
FORM = QuadraticActionForm(-1, -1, 2)
KERNEL = SymbolicKernel.from_form(P3, FORM)
TRUNCATION = PadicTruncation.from_rational(1, 3, 5)
PATH = mechanics_oracle.PolynomialPath((0, 1), 0, 1, 0, 1)
#: instances whose methods the table calls
INSTANCES = {
    "PadicTruncation": TRUNCATION,
    "QuadraticActionForm": FORM,
    "QuadraticCharacter": quadratic_char_fn(3, 1, 0),
    "SymbolicKernel": KERNEL,
}
#: the classical mechanics left the package for the test oracle
#: ``mechanics_oracle``, which keeps the package's rational check: the
#: input tables check its callables too
MECHANICS = ("PolynomialPath", "action_constant_field", "action_integral",
             "classical_path_constant_field", "euler_lagrange_residual")
#: valid arguments of every public callable with a Fraction-annotated parameter;
#: a tuple stands for a sequence of rationals, whose last item is replaced
VALID_ARGUMENTS = {
    "Amplitude": dict(modulus_sq=1),
    "OscillatorBoundaryData": dict(x0=1, x1=2, gamma0=0, gamma1=3, dgamma0=1, dgamma1=1,
                                   s0=1, s1=1, ds0=0, ds1=0),
    "PadicTruncation.from_rational": dict(x=1, p=3, P=5),
    "PartitionSpec": dict(place=P3, points=(0, 1)),
    "Phase": dict(value=1),
    "PolynomialPath": dict(coefficients=(0, 1), t_start=0, t_end=1, q_start=0, q_end=1),
    "QuadraticActionForm": dict(alpha=1, beta=1, gamma=1, delta=0, epsilon=0, zeta=0),
    "QuadraticActionForm.evaluate": dict(x1=1, x0=0),
    "QuadraticCharacter": dict(p=3, alpha=1, beta=0),
    "SymbolicKernel.evaluate": dict(q0=0, q1=1),
    "SymbolicKernel.phase_grid": dict(q0s=(0, 1), q1s=(0, 1)),
    "action_constant_field": dict(a=1, T=1, q0=0, q1=1),
    "action_form_constant_field": dict(a=1, T=1),
    "action_integral": dict(path=PATH, a=0),
    "chi": dict(place=P3, x=1),
    "classical_path_constant_field": dict(a=1, T=1, q0=0, q1=1),
    "cos_p": dict(x=3, p=3, P=5),
    "desitter_action_form": dict(lam=1, T=1),
    "digits": dict(x=1, p=3, count=3),
    "euler_lagrange_residual": dict(path=PATH, a=0),
    "finite_n_propagator": dict(a=1, partition=PartitionSpec(P3, (0, 1, 3)), q0=0, q1=1),
    "fractional_part": dict(x=1, p=3),
    "gauss_full": dict(place=P3, a=1, b=0),
    "k_general_quadratic": dict(place=P3, form=FORM, x1=1, x0=0),
    "lambda_v": dict(place=P3, a=1),
    "minimal_resolution": dict(p=3, alpha=1, beta=0, N=1),
    "norm": dict(x=1, place=P3),
    "overlap_ball_integral": dict(p=3, a=1, t=0, t1=1, x0=0, x1=1, N=1),
    "overlap_vanishing_threshold": dict(p=3, x_diff=1, tau=1),
    "quad_char_integral_ball": dict(p=3, alpha=1, beta=0, N=1),
    "quadratic_char_fn": dict(p=3, alpha=1, beta=0),
    "sin_p": dict(x=3, p=3, P=5),
    "sqrt_p": dict(x=4, p=3, P=5),
    "stabilization_threshold": dict(p=3, alpha=1, beta=0),
    "valuation": dict(x=1, p=3),
}


def _public_callables():
    """(name, callable) for every callable of ``padicqm.__all__`` and its public methods,
    and for the callables of ``MECHANICS``."""
    objects = [(name, getattr(padicqm, name)) for name in padicqm.__all__]
    objects += [(name, getattr(mechanics_oracle, name)) for name in MECHANICS]
    for name, obj in objects:
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        yield name, obj
        if inspect.isclass(obj):
            owner = INSTANCES.get(name, obj)
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(getattr(value, "__func__", value)):
                    yield f"{name}.{attr}", getattr(owner, attr)


def _rational_parameters():
    """(callable, its name, parameter) for every parameter annotated with Fraction."""
    return [(fn, name, param.name)
            for name, fn in _public_callables()
            for param in inspect.signature(fn).parameters.values()
            if "Fraction" in str(param.annotation)]


RATIONAL_PARAMETERS = _rational_parameters()


def test_the_signature_scan_finds_the_rational_parameters():
    assert len(RATIONAL_PARAMETERS) >= 77
    assert {name for _, name, _ in RATIONAL_PARAMETERS} == set(VALID_ARGUMENTS)


@pytest.mark.parametrize("name", sorted(VALID_ARGUMENTS))
def test_valid_arguments_are_accepted(name):
    fn = next(fn for fn, n, _ in RATIONAL_PARAMETERS if n == name)
    fn(**VALID_ARGUMENTS[name])


_PER_CALLABLE = Counter(name for _, name, _ in RATIONAL_PARAMETERS)


@pytest.mark.parametrize(
    "fn, name, param", RATIONAL_PARAMETERS,
    ids=[name if _PER_CALLABLE[name] == 1 else f"{name}-{param}"
         for _, name, param in RATIONAL_PARAMETERS],
)
def test_float_input_raises_input_error(fn, name, param):
    # every Fraction parameter takes an int or a Fraction, and rejects a float,
    # a str, whose text only the command line parses, and a bool, an int only
    # to Python
    kwargs = VALID_ARGUMENTS.get(name)
    assert kwargs is not None and param in kwargs, f"{name}({param}) is missing from the table"
    for bad in (0.5, "1/2", True):
        valid = kwargs[param]
        value = valid[:-1] + (bad,) if isinstance(valid, tuple) else bad
        with pytest.raises(InputError, match="not a rational"):
            fn(**{**kwargs, param: value})


#: the integer sizes of the public surface: ball radii, precisions, digit counts
INTEGER_NAMES = {"N", "P", "precision", "count", "radius_exponent", "resolution_exponent"}
OSC_DATA = OscillatorBoundaryData(x0=1, x1=2, gamma0=0, gamma1=3, dgamma0=1, dgamma1=1,
                                  s0=1, s1=1, ds0=0, ds1=0)
#: valid arguments of the callables with an integer size and no rational parameter
INTEGER_ARGUMENTS = {
    **VALID_ARGUMENTS,
    "BallSpec": dict(prime=3, radius_exponent=0, resolution_exponent=1),
    "PadicTruncation.zero_mod": dict(p=3, P=5),
    "k_oscillator_td": dict(place=P3, data=OSC_DATA, precision=20),
    "oscillator_action_form": dict(data=OSC_DATA, p=3, precision=20),
}
INTEGER_PARAMETERS = [(fn, name, param.name)
                      for name, fn in _public_callables()
                      for param in inspect.signature(fn).parameters.values()
                      if param.annotation == "int" and param.name in INTEGER_NAMES]


def test_the_signature_scan_finds_the_integer_parameters():
    assert sorted(f"{name}-{param}" for _, name, param in INTEGER_PARAMETERS) == [
        "BallSpec-radius_exponent", "BallSpec-resolution_exponent",
        "PadicTruncation.from_rational-P", "PadicTruncation.zero_mod-P", "cos_p-P",
        "digits-count", "k_oscillator_td-precision", "minimal_resolution-N",
        "oscillator_action_form-precision", "overlap_ball_integral-N",
        "quad_char_integral_ball-N", "sin_p-P", "sqrt_p-P",
    ]


@pytest.mark.parametrize(
    "fn, name, param", INTEGER_PARAMETERS,
    ids=[f"{name}-{param}" for _, name, param in INTEGER_PARAMETERS],
)
def test_non_integer_size_raises_input_error(fn, name, param):
    # an integer size takes an int only: a float is no radius, precision or
    # count, and a str is text that only the command line parses
    kwargs = INTEGER_ARGUMENTS[name]
    fn(**kwargs)
    # math.inf among them: the exact zero is PadicTruncation.exact_zero, not zero_mod
    for bad in (1.5, "1", True, math.inf):
        with pytest.raises(InputError, match="^not an integer: "):
            fn(**{**kwargs, param: bad})


#: valid arguments of the callables with a Place parameter
PLACE_ARGUMENTS = {
    **INTEGER_ARGUMENTS,
    "SymbolicKernel": dict(place=P3, prefactor=Amplitude(1), form=FORM),
    "SymbolicKernel.from_form": dict(place=P3, form=FORM),
}
PLACE_PARAMETERS = [(fn, name, param.name)
                    for name, fn in _public_callables()
                    for param in inspect.signature(fn).parameters.values()
                    if param.annotation == "Place"]


def test_the_signature_scan_finds_the_place_parameters():
    assert sorted(f"{name}-{param}" for _, name, param in PLACE_PARAMETERS) == [
        "PartitionSpec-place", "SymbolicKernel-place", "SymbolicKernel.from_form-place",
        "chi-place", "gauss_full-place", "k_general_quadratic-place",
        "k_oscillator_td-place", "lambda_v-place", "norm-place",
    ]


@pytest.mark.parametrize(
    "fn, name, param", PLACE_PARAMETERS,
    ids=[f"{name}-{param}" for _, name, param in PLACE_PARAMETERS],
)
def test_a_place_that_is_not_a_place_raises_input_error(fn, name, param):
    # a prime or its text is not a place: Place.prime and Place.parse make one
    kwargs = PLACE_ARGUMENTS[name]
    fn(**kwargs)
    for bad in (3, "3", None):
        with pytest.raises(InputError, match=f"^not a place: {bad!r}$"):
            fn(**{**kwargs, param: bad})


#: valid arguments of the callables with a prime parameter
PRIME_ARGUMENTS = {
    **PLACE_ARGUMENTS,
    "PadicTruncation.exact_zero": dict(p=3),
    "Place": dict(p=3),
    "Place.prime": dict(p=3),
    "haar_oracle": dict(p=3, f=quadratic_char_fn(3, 1, 0), ball=BallSpec(3, 1, 1)),
    "legendre": dict(a=2, p=3),
    "oscillator_precision": dict(data=OSC_DATA, p=3),
}
#: the raw PadicTruncation constructor checks nothing, so that ``_make``,
#: behind every value of sin_p, cos_p and sqrt_p, stays cheap; its factories check p
PRIME_EXEMPT = {"PadicTruncation"}
PRIME_PARAMETERS = [(fn, name, param.name)
                    for name, fn in _public_callables() if name not in PRIME_EXEMPT
                    for param in inspect.signature(fn).parameters.values()
                    if param.name in ("p", "prime")]


def test_the_signature_scan_finds_the_prime_parameters():
    assert sorted(f"{name}-{param}" for _, name, param in PRIME_PARAMETERS) == [
        "BallSpec-prime", "PadicTruncation.exact_zero-p",
        "PadicTruncation.from_rational-p", "PadicTruncation.zero_mod-p", "Place-p",
        "Place.prime-p", "QuadraticCharacter-p", "cos_p-p", "digits-p",
        "fractional_part-p", "haar_oracle-p", "legendre-p", "minimal_resolution-p",
        "oscillator_action_form-p", "oscillator_precision-p", "overlap_ball_integral-p",
        "overlap_vanishing_threshold-p", "quad_char_integral_ball-p", "quadratic_char_fn-p",
        "sin_p-p", "sqrt_p-p", "stabilization_threshold-p", "valuation-p",
    ]


@pytest.mark.parametrize(
    "fn, name, param", PRIME_PARAMETERS,
    ids=[f"{name}-{param}" for _, name, param in PRIME_PARAMETERS],
)
def test_a_p_that_is_not_a_prime_raises_input_error(fn, name, param):
    # a composite, 1 and a float equal to a prime are no primes; 3.0 == 3
    # would otherwise reach integer arithmetic as a float
    kwargs = PRIME_ARGUMENTS[name]
    fn(**kwargs)
    for bad in (4, 1, 3.0):
        with pytest.raises(InputError, match="prime"):
            fn(**{**kwargs, param: bad})


#: the library's classes, whose instances every public callable checks with
#: ``places.require_instance``; a Place has its own check and table above
LIBRARY_CLASSES = {name for name in padicqm.__all__
                   if inspect.isclass(getattr(padicqm, name))
                   and not issubclass(getattr(padicqm, name), Exception)} - {"Place"}
#: valid arguments of the callables with a parameter of a library class
CLASS_ARGUMENTS = {
    **PRIME_ARGUMENTS,
    "QuadraticCharacter.power_coordinates": dict(ball=BallSpec(3, 1, 1)),
    "compose_kernels": dict(k2=KERNEL, k1=KERNEL),
    "k_oscillator_td_real": dict(data=OSC_DATA),
}
CLASS_PARAMETERS = [(fn, name, param.name)
                    for name, fn in _public_callables()
                    for param in inspect.signature(fn).parameters.values()
                    if param.annotation in LIBRARY_CLASSES]


def test_the_signature_scan_finds_the_class_parameters():
    assert sorted(f"{name}-{param}" for _, name, param in CLASS_PARAMETERS) == [
        "Amplitude-phase", "QuadraticCharacter.power_coordinates-ball", "SymbolicKernel-form",
        "SymbolicKernel-prefactor", "SymbolicKernel.from_form-form", "compose_kernels-k1",
        "compose_kernels-k2", "finite_n_propagator-partition", "haar_oracle-ball",
        "haar_oracle-f", "k_general_quadratic-form", "k_oscillator_td-data",
        "k_oscillator_td_real-data", "oscillator_action_form-data", "oscillator_precision-data",
    ]


@pytest.mark.parametrize(
    "fn, name, param", CLASS_PARAMETERS,
    ids=[f"{name}-{param}" for _, name, param in CLASS_PARAMETERS],
)
def test_an_object_of_the_wrong_class_raises_input_error(fn, name, param):
    # a text, or any object but the annotated class, is no library object
    kwargs = CLASS_ARGUMENTS[name]
    fn(**kwargs)
    cls = getattr(padicqm, inspect.signature(fn).parameters[param].annotation)
    with pytest.raises(InputError, match=f"^not of type {cls.__name__}: 'x'$"):
        fn(**{**kwargs, param: "x"})


#: valid arguments of the callables with a parameter annotated with a builtin
#: type that no table above covers: not a rational, an integer size or a prime
BUILTIN_ARGUMENTS = {
    "Place.parse": dict(text="3"),
    "QuadraticActionForm.from_integers": dict(den=1, nums=(1, 1, 1, 0, 0, 0)),
    "legendre": dict(a=2, p=3),
}
#: the raw PadicTruncation constructor keeps its fields unchecked (see PRIME_EXEMPT)
BUILTIN_PARAMETERS = [(fn, name, param.name)
                      for name, fn in _public_callables() if name not in PRIME_EXEMPT
                      for param in inspect.signature(fn).parameters.values()
                      if param.annotation in ("int", "str", "tuple[int, ...]")
                      and param.name not in INTEGER_NAMES | {"p", "prime"}]


def test_the_signature_scan_finds_the_builtin_parameters():
    assert sorted(f"{name}-{param}" for _, name, param in BUILTIN_PARAMETERS) == [
        "Place.parse-text",
        "QuadraticActionForm.from_integers-den", "QuadraticActionForm.from_integers-nums",
        "legendre-a",
    ]


@pytest.mark.parametrize(
    "fn, name, param", BUILTIN_PARAMETERS,
    ids=[f"{name}-{param}" for _, name, param in BUILTIN_PARAMETERS],
)
def test_a_builtin_parameter_of_another_type_raises_input_error(fn, name, param):
    # an int, a str or a tuple of ints takes no other type: each of these
    # was a bare TypeError or AttributeError
    kwargs = BUILTIN_ARGUMENTS[name]
    fn(**kwargs)
    for bad in ("x", 1.5, None, (1, "x")):
        with pytest.raises(InputError):
            fn(**{**kwargs, param: bad})


#: every operator of Phase and Amplitude with an operand of another type
OPERATIONS = {
    "Phase + int": lambda: Phase() + 1,
    "Phase - int": lambda: Phase() - 1,
    "Phase * str": lambda: Phase() * "2",
    "Phase * float": lambda: Phase() * 0.5,
    "str * Phase": lambda: "2" * Phase(),
    "Phase * Phase": lambda: Phase() * Phase(),
    "Amplitude * int": lambda: Amplitude.one() * 3,
    "Amplitude * Phase": lambda: Amplitude.one() * Phase(),
}


@pytest.mark.parametrize("operation", OPERATIONS.values(), ids=OPERATIONS)
def test_an_operand_of_another_type_raises_input_error(operation):
    with pytest.raises(InputError, match="^not (of type|an integer)"):
        operation()


#: operator symbol -> the name of its dunder, without underscores
BINARY_OPERATORS = {"+": "add", "-": "sub", "*": "mul", "/": "truediv", "//": "floordiv",
                    "%": "mod", "**": "pow", "@": "matmul", "&": "and", "|": "or", "^": "xor",
                    "<<": "lshift", ">>": "rshift"}
#: the binary arithmetic dunders, reflected ones too
BINARY_DUNDERS = {f"__{r}{name}__" for name in BINARY_OPERATORS.values() for r in ("", "r")}


def test_every_binary_operator_has_a_foreign_operand_case():
    # "L op R" calls L.__op__ where L is a library class, else R.__rop__
    classes = {name for name in padicqm.__all__ if inspect.isclass(getattr(padicqm, name))}
    covered = set()
    for case in OPERATIONS:
        left, op, right = case.split()
        name = BINARY_OPERATORS[op]
        covered.add(f"{left}.__{name}__" if left in classes else f"{right}.__r{name}__")
    defined = {f"{name}.{attr}" for name in classes
               for attr in vars(getattr(padicqm, name)) if attr in BINARY_DUNDERS}
    assert sorted(defined - covered) == []


@pytest.mark.parametrize("q0s, q1s", [(1, (0,)), ((0,), 1)], ids=["q0s", "q1s"])
def test_a_phase_grid_axis_that_is_not_a_sequence_raises_input_error(q0s, q1s):
    # the axes are checked once a call, before any row; an int was a bare TypeError
    with pytest.raises(InputError, match="^not of type Sequence: 1$"):
        KERNEL.phase_grid(q0s, q1s)


def test_every_function_in_src_has_a_caller():
    # a function or method of src/padicqm is public (in __all__, or a public
    # method of an exported class), a dunder that Python calls, the console
    # entry cli.main or a _cmd_* handler that cli.main finds through
    # globals(), or called by name elsewhere in src/; anything else is a
    # leftover that no program route reaches
    exported = set(padicqm.__all__)
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(padicqm.__file__).parent.glob("*.py"))}

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    everywhere = Counter(name for tree in trees.values() for name in names(tree))

    def defs(node, owner=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield owner, child
                yield from defs(child)
            elif isinstance(child, ast.ClassDef):
                yield from defs(child, child.name)
            else:
                yield from defs(child, owner)

    orphans = []
    for module, tree in trees.items():
        for owner, node in defs(tree):
            name = node.name
            if (
                (owner is None and name in exported)
                or (owner in exported and not name.startswith("_"))
                or (name.startswith("__") and name.endswith("__"))
                or (module == "cli" and owner is None
                    and (name == "main" or name.startswith("_cmd_")))
            ):
                continue
            # references inside the function itself (recursion) do not count
            if everywhere[name] - Counter(names(node))[name] == 0:
                orphans.append(f"{module}.{f'{owner}.' if owner else ''}{name}")
    assert orphans == []
