"""Seeded randomized verification suites for the exact identities.

Each check returns a list of witness dictionaries; an empty list means
every trial passed.  A check that would run nothing -- fewer than one
trial, or no place it can use -- raises instead, so an empty list always
covers some work.  All randomness is driven by an explicit seed, so a
fixed configuration reproduces bit-identical results.

A random rational takes three draws of its place's stream (four at p)
and is built as one Fraction.  Each draw is what ``randrange`` or
``choice`` would draw, made straight from ``getrandbits``: a draw below n
reads n.bit_length() bits and reads again until the value is below n, so
the stream, the values and the generator's state after them are those of
the ``random`` module's own calls.  The time points of a trial are its
first distinct draws, in the order drawn.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .characters import lambda_v
from .dynamics import action_form_constant_field
from .errors import OracleCapError, PadicqmError
from .gauss import (
    BallSpec,
    gauss_full,
    haar_oracle,
    minimal_resolution,
    quad_char_integral_ball,
    quadratic_char_fn,
    stabilization_threshold,
)
from .places import Place, _unchecked, norm
from .propagators import (
    PartitionSpec,
    finite_n_propagator,
    k_general_quadratic,
    overlap_ball_integral,
    overlap_vanishing_threshold,
)

DEFAULT_PLACES = (Place.real(), Place.prime(2), Place.prime(3), Place.prime(5), Place.prime(7))
#: p-adic random rationals have norms across p^-SPAN .. p^SPAN
SPAN = 2
# the draw of randrange(-SPAN, SPAN + 1): _K_BITS bits, kept below _K_WIDTH
_K_WIDTH = 2 * SPAN + 1
_K_BITS = _K_WIDTH.bit_length()
#: partition sizes N of the composition check
COMPOSITION_STEPS = range(2, 17)
#: largest Haar-oracle error the gauss check accepts
HAAR_TOLERANCE = 1e-10


def random_nonzero_rational(rng: random.Random, place: Place) -> Fraction:
    """A random nonzero rational; p-adic places get norms across p^-SPAN..p^SPAN."""
    # randrange(1, 25) * choice((-1, 1)), randrange(1, 25) and, at p,
    # randrange(-SPAN, SPAN + 1), in that order: 5 bits kept below 24, 2 bits
    # kept below 2 (0 is -1), 5 bits kept below 24, 3 bits kept below 5
    bits = rng.getrandbits
    while (num := bits(5)) >= 24:
        pass
    while (sign := bits(2)) >= 2:
        pass
    while (den := bits(5)) >= 24:
        pass
    num = num + 1 if sign else -1 - num
    den += 1
    if place.is_real:
        return Fraction(num, den)
    while (k := bits(_K_BITS)) >= _K_WIDTH:
        pass
    k -= SPAN
    return Fraction(num * place.p**k, den) if k >= 0 else Fraction(num, den * place.p**-k)


def _random_partition(rng: random.Random, place: Place, count: int) -> PartitionSpec:
    """The partition through the first count >= 2 distinct random rationals, in the order drawn.

    The points are distinct Fractions by the dict's keys, so the partition
    is built past PartitionSpec's checks.
    """
    # keyed by the reduced pair of ints, which hashes faster than the Fraction
    points: dict[tuple[int, int], Fraction] = {}
    while len(points) < count:
        t = random_nonzero_rational(rng, place)
        points.setdefault((t.numerator, t.denominator), t)
    return _unchecked(PartitionSpec, place=place, points=tuple(points.values()))


def _run_trials(places, trials: int, key, trial, rounds=(None,), padic_only=False) -> list[dict]:
    """The failure rows of ``trial(rng, place, r)``, run ``trials`` times a round.

    Each usable place draws from one stream, seeded from ``key(place)``;
    the trial body yields a row for each identity that fails.  Fewer than
    one trial, or no usable place, raises PadicqmError before any work.
    """
    if trials < 1:
        raise PadicqmError(f"trials must be at least 1, got {trials}")
    usable = [place for place in places if not (padic_only and place.is_real)]
    if not usable:
        raise PadicqmError(f"no {'p-adic place' if padic_only else 'place'} to check")
    failures = []
    for place in usable:
        rng = random.Random(repr(key(place)))
        for r in rounds:
            for _ in range(trials):
                failures.extend(trial(rng, place, r))
    return failures


def _lambda_trial(rng: random.Random, place: Place, _):
    a = random_nonzero_rational(rng, place)
    b = random_nonzero_rational(rng, place)
    la, lb = lambda_v(place, a), lambda_v(place, b)
    for x, lx in ((a, la), (b, lb)):
        if (lx.value * 8).denominator != 1:
            yield {"check": "eighth-root", "place": str(place), "a": str(x), "phase": str(lx)}
    if lambda_v(place, a * a * b) != lb:
        yield {"check": "square-absorption", "place": str(place), "a": str(a), "b": str(b)}
    if a + b != 0 and la + lb != lambda_v(place, a + b) + lambda_v(place, 1 / a + 1 / b):
        yield {"check": "product-rule", "place": str(place), "a": str(a), "b": str(b)}


def _fold_trial(check: str, rng: random.Random, place: Place, n: int):
    """The constant-field kernel folded over n random steps against the one-shot kernel."""
    partition = _random_partition(rng, place, n + 1)
    pts = partition.points
    a = random_nonzero_rational(rng, place)
    q0 = random_nonzero_rational(rng, place)
    q1 = random_nonzero_rational(rng, place)
    got = finite_n_propagator(a, partition, q0, q1)
    want = k_general_quadratic(place, action_form_constant_field(a, pts[-1] - pts[0]), q1, q0)
    if got != want:
        yield {
            "check": check,
            "place": str(place),
            "N": n,
            "points": [str(t) for t in pts],
            "a": str(a),
            "q0": str(q0),
            "q1": str(q1),
            "got": str(got),
            "want": str(want),
        }


def _overlap_trial(rng: random.Random, place: Place, _):
    p = place.p
    t, t1 = _random_partition(rng, place, 2).points
    x0 = random_nonzero_rational(rng, place)
    x1 = random_nonzero_rational(rng, place)
    a = random_nonzero_rational(rng, place)
    tau = t1 - t
    # a failure row holds the arguments of its overlap_ball_integral call
    drawn = {"a": str(a), "t": str(t), "t1": str(t1), "x0": str(x0), "x1": str(x1)}
    if x1 != x0:
        n0 = overlap_vanishing_threshold(p, x1 - x0, tau)
        for n in (n0, n0 + 1, n0 + 2):
            val = overlap_ball_integral(p, a, t, t1, x0, x1, n)
            if not val.is_zero:
                yield {"check": "overlap-vanishing", "p": p, "N": n, **drawn, "value": str(val)}
        if overlap_ball_integral(p, a, t, t1, x0, x1, n0 - 1).is_zero:
            yield {"check": "overlap-below-threshold", "p": p, "N": n0 - 1, **drawn}
    for n in (0, 1, 2):
        diag = overlap_ball_integral(p, a, t, t1, x0, x0, n)
        want = Fraction(p) ** n / norm(tau, place)
        if diag.modulus_sq != want * want or diag.phase.value != 0:
            yield {"check": "overlap-diagonal", "p": p, "N": n, **drawn, "x1": str(x0),
                   "value": str(diag)}


def _gauss_trial(rng: random.Random, place: Place, _):
    p = place.p
    a = random_nonzero_rational(rng, place)
    b = random_nonzero_rational(rng, place)
    # choice((Fraction(0), b)): 2 bits kept below 2, 0 picks Fraction(0)
    while (pick := rng.getrandbits(2)) >= 2:
        pass
    if not pick:
        b = Fraction(0)
    full = gauss_full(place, a, b)
    n0 = stabilization_threshold(p, a, b)
    for n in (n0, n0 + 1):
        ball_val = quad_char_integral_ball(p, a, b, n)
        if ball_val != full:
            yield {"check": "gauss-stabilization", "p": p, "a": str(a), "b": str(b), "N": n,
                   "ball": str(ball_val), "full": str(full)}
    ball = BallSpec(p, n0, minimal_resolution(p, a, b, n0))
    try:
        approx = haar_oracle(p, quadratic_char_fn(p, a, b), ball)
    except OracleCapError:  # the oracle alone decides which balls it counts
        return
    exact = complex(*full.render())
    if abs(approx - exact) > HAAR_TOLERANCE:
        yield {"check": "gauss-haar", "p": p, "a": str(a), "b": str(b),
               "error": abs(approx - exact)}


def check_lambda(
    places=DEFAULT_PLACES + (Place.prime(13),), trials: int = 1000, seed: int = 0
) -> list[dict]:
    """Square-absorption and product identities of the lambda factor."""
    return _run_trials(places, trials, lambda place: (seed, str(place)), _lambda_trial)


def check_composition(places=DEFAULT_PLACES, trials: int = 20, seed: int = 0) -> list[dict]:
    """Partition independence: the folded path integral equals the kernel."""
    return _run_trials(places, trials, lambda place: (seed, str(place), "composition"),
                       partial(_fold_trial, "composition"), rounds=COMPOSITION_STEPS)


def check_semigroup(places=DEFAULT_PLACES, trials: int = 100, seed: int = 0) -> list[dict]:
    """Kernel composition over an intermediate time is exact: the fold at N = 2."""
    return _run_trials(places, trials, lambda place: (seed, str(place), "semigroup"),
                       partial(_fold_trial, "semigroup"), rounds=(2,))


def check_overlap(
    places=(Place.prime(3), Place.prime(5)), trials: int = 50, seed: int = 0
) -> list[dict]:
    """Delta pairing over balls: off-diagonal vanishing and diagonal mass."""
    return _run_trials(places, trials, lambda place: (seed, place.p, "overlap"),
                       _overlap_trial, padic_only=True)


def check_gauss(
    places=(Place.prime(2), Place.prime(3), Place.prime(5), Place.prime(7)),
    trials: int = 12,
    seed: int = 0,
) -> list[dict]:
    """Ball integrals stabilize to the closed form; the Haar oracle agrees."""
    return _run_trials(places, trials, lambda place: (seed, place.p, "gauss"),
                       _gauss_trial, padic_only=True)


CHECKS = {
    "lambda": check_lambda,
    "composition": check_composition,
    "semigroup": check_semigroup,
    "overlap": check_overlap,
    "gauss": check_gauss,
}
