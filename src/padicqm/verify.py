"""Seeded randomized verification suites for the exact identities.

Each check returns a list of witness dictionaries; an empty list means
every trial passed.  A check that would run nothing -- fewer than one
trial, or no place it can use -- raises instead, so an empty list always
covers some work.  All randomness is driven by an explicit seed, so a
fixed configuration reproduces bit-identical results.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .characters import assert_eighth_root, lambda_v
from .dynamics import action_form_constant_field
from .errors import PadicqmError, VerificationError
from .gauss import (
    BallSpec,
    gauss_full,
    haar_oracle,
    minimal_resolution,
    quad_char_integral_ball,
    quadratic_char_fn,
    stabilization_threshold,
)
from .places import Place, norm, place_sorted
from .propagators import (
    PartitionSpec,
    finite_n_propagator,
    k_general_quadratic,
    overlap_ball_integral,
    overlap_vanishing_threshold,
    semigroup_residual,
)

DEFAULT_PLACES = (Place.real(), Place.prime(2), Place.prime(3), Place.prime(5), Place.prime(7))
#: p-adic random rationals have norms across p^-SPAN .. p^SPAN
SPAN = 2
#: partition sizes N of the composition check
COMPOSITION_STEPS = range(2, 17)
#: largest Haar-oracle error the gauss check accepts
HAAR_TOLERANCE = 1e-10
#: the gauss check runs the Haar oracle on balls of at most this many cosets
HAAR_POINT_BUDGET = 200_000


def _usable_places(places, trials: int, padic_only: bool = False) -> list[Place]:
    """The places a check runs over; PadicqmError if it would check nothing."""
    if trials < 1:
        raise PadicqmError(f"trials must be at least 1, got {trials}")
    usable = [place for place in places if not (padic_only and place.is_real)]
    if not usable:
        kind = "p-adic place" if padic_only else "place"
        raise PadicqmError(f"no {kind} to check")
    return usable


def random_nonzero_rational(rng: random.Random, place: Place) -> Fraction:
    """A random nonzero rational; p-adic places get norms across p^-SPAN..p^SPAN."""
    num = rng.randint(1, 24) * rng.choice((-1, 1))
    den = rng.randint(1, 24)
    x = Fraction(num, den)
    if not place.is_real:
        x *= Fraction(place.p) ** rng.randint(-SPAN, SPAN)
    return x


def _distinct_points(rng: random.Random, place: Place, count: int) -> list[Fraction]:
    points: set[Fraction] = set()
    while len(points) < count:
        points.add(random_nonzero_rational(rng, place))
    return place_sorted(points, place)


def check_lambda(
    places=DEFAULT_PLACES + (Place.prime(13),), trials: int = 1000, seed: int = 0
) -> list[dict]:
    """Square-absorption and product identities of the lambda factor."""
    failures = []
    for place in _usable_places(places, trials):
        rng = random.Random((seed, str(place)).__repr__())
        for _ in range(trials):
            a = random_nonzero_rational(rng, place)
            b = random_nonzero_rational(rng, place)
            la, lb = lambda_v(place, a), lambda_v(place, b)
            assert_eighth_root(la)
            assert_eighth_root(lb)
            if lambda_v(place, a * a * b) != lb:
                failures.append(
                    {"check": "square-absorption", "place": str(place), "a": str(a), "b": str(b)}
                )
            if a + b != 0 and la + lb != lambda_v(place, a + b) + lambda_v(place, 1 / a + 1 / b):
                failures.append(
                    {"check": "product-rule", "place": str(place), "a": str(a), "b": str(b)}
                )
    return failures


def check_composition(places=DEFAULT_PLACES, trials: int = 20, seed: int = 0) -> list[dict]:
    """Partition independence: the folded path integral equals the kernel."""
    failures = []
    for place in _usable_places(places, trials):
        rng = random.Random((seed, str(place), "composition").__repr__())
        for n in COMPOSITION_STEPS:
            for _ in range(trials):
                pts = _distinct_points(rng, place, n + 1)
                partition = PartitionSpec(place, tuple(pts))
                a = random_nonzero_rational(rng, place)
                q0 = random_nonzero_rational(rng, place)
                q1 = random_nonzero_rational(rng, place)
                got = finite_n_propagator(place, a, partition, q0, q1)
                form = action_form_constant_field(a, pts[-1] - pts[0])
                want = k_general_quadratic(place, form, q1, q0)
                if got != want:
                    failures.append(
                        {
                            "check": "composition",
                            "place": str(place),
                            "N": n,
                            "points": [str(t) for t in pts],
                            "got": str(got),
                            "want": str(want),
                        }
                    )
    return failures


def check_semigroup(places=DEFAULT_PLACES, trials: int = 100, seed: int = 0) -> list[dict]:
    """Kernel composition over an intermediate time is exact."""
    failures = []
    for place in _usable_places(places, trials):
        rng = random.Random((seed, str(place), "semigroup").__repr__())
        for _ in range(trials):
            t0, t_mid, t1 = _distinct_points(rng, place, 3)
            a = random_nonzero_rational(rng, place)
            q0 = random_nonzero_rational(rng, place)
            q1 = random_nonzero_rational(rng, place)
            try:
                # returns the zero amplitude, or raises with the witness
                semigroup_residual(place, a, t0, t_mid, t1, q0, q1)
            except VerificationError as exc:
                failures.append({"check": "semigroup", "witness": exc.witness})
    return failures


def check_overlap(
    places=(Place.prime(3), Place.prime(5)), trials: int = 50, seed: int = 0
) -> list[dict]:
    """Delta pairing over balls: off-diagonal vanishing and diagonal mass."""
    failures = []
    for place in _usable_places(places, trials, padic_only=True):
        p = place.p
        rng = random.Random((seed, p, "overlap").__repr__())
        for _ in range(trials):
            t, t1 = _distinct_points(rng, place, 2)
            x0 = random_nonzero_rational(rng, place)
            x1 = random_nonzero_rational(rng, place)
            a = random_nonzero_rational(rng, place)
            tau = t1 - t
            if x1 != x0:
                n0 = overlap_vanishing_threshold(p, x1 - x0, tau)
                for n in (n0, n0 + 1, n0 + 2):
                    val = overlap_ball_integral(p, a, t, t1, x0, x1, n)
                    if not val.is_zero:
                        failures.append(
                            {"check": "overlap-vanishing", "p": p, "N": n, "value": str(val)}
                        )
                below = overlap_ball_integral(p, a, t, t1, x0, x1, n0 - 1)
                if below.is_zero:
                    failures.append(
                        {"check": "overlap-below-threshold", "p": p, "N": n0 - 1}
                    )
            for n in (0, 1, 2):
                diag = overlap_ball_integral(p, a, t, t1, x0, x0, n)
                want = Fraction(p) ** n / norm(tau, place)
                if diag.modulus_sq != want * want or diag.phase.value != 0:
                    failures.append(
                        {"check": "overlap-diagonal", "p": p, "N": n, "value": str(diag)}
                    )
    return failures


def check_gauss(
    places=(Place.prime(2), Place.prime(3), Place.prime(5), Place.prime(7)),
    trials: int = 12,
    seed: int = 0,
) -> list[dict]:
    """Ball integrals stabilize to the closed form; the Haar oracle agrees."""
    failures = []
    for place in _usable_places(places, trials, padic_only=True):
        p = place.p
        rng = random.Random((seed, p, "gauss").__repr__())
        for _ in range(trials):
            a = random_nonzero_rational(rng, place)
            b = rng.choice((Fraction(0), random_nonzero_rational(rng, place)))
            full = gauss_full(place, a, b)
            n0 = stabilization_threshold(p, a, b)
            for n in (n0, n0 + 1):
                ball_val = quad_char_integral_ball(p, a, b, n)
                if ball_val != full:
                    failures.append(
                        {
                            "check": "gauss-stabilization",
                            "p": p,
                            "a": str(a),
                            "b": str(b),
                            "N": n,
                            "ball": str(ball_val),
                            "full": str(full),
                        }
                    )
            m = minimal_resolution(p, a, b, n0)
            if p ** (n0 + m) <= HAAR_POINT_BUDGET:
                ball = BallSpec(p, n0, m)
                approx = haar_oracle(p, quadratic_char_fn(p, a, b), ball)
                exact = complex(*full.render())
                if abs(approx - exact) > HAAR_TOLERANCE:
                    failures.append(
                        {
                            "check": "gauss-haar",
                            "p": p,
                            "a": str(a),
                            "b": str(b),
                            "error": abs(approx - exact),
                        }
                    )
    return failures


CHECKS = {
    "lambda": check_lambda,
    "composition": check_composition,
    "semigroup": check_semigroup,
    "overlap": check_overlap,
    "gauss": check_gauss,
}
