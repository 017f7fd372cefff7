import ast
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from padicqm import (
    OracleCapError,
    PadicqmError,
    PartitionSpec,
    Phase,
    Place,
    characters,
    finite_n_propagator,
    lambda_v,
    norm,
    overlap_ball_integral,
    propagators,
    valuation,
    verify,
)
from padicqm.characters import gauss_factor
from padicqm.cli import main
from padicqm.verify import CHECKS

import draw_oracle

PADIC_ONLY = ("overlap", "gauss")


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_zero_trials_raise(name):
    with pytest.raises(PadicqmError, match="trials"):
        CHECKS[name](trials=0)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_no_place_raises(name):
    with pytest.raises(PadicqmError, match="place"):
        CHECKS[name](places=())


@pytest.mark.parametrize("name", PADIC_ONLY)
def test_real_place_alone_raises_for_padic_checks(name):
    with pytest.raises(PadicqmError, match="place"):
        CHECKS[name](places=(Place.real(),))


@pytest.mark.parametrize("name", PADIC_ONLY)
def test_padic_checks_skip_the_real_place(name):
    # the real place is dropped, leaving the same run as the p-adic places alone
    p3 = Place.prime(3)
    assert CHECKS[name](places=(Place.real(), p3), trials=2) == CHECKS[name](
        places=(p3,), trials=2
    ) == []


def _compose_with_lambda_of_minus_a():
    """compose_kernels taking lambda_v(-A) for the Gauss factor, not lambda_v(A).

    compose_kernels reads the factor off gauss_factor at A = n/d; -A is -n/d,
    with the same |2A|.
    """
    compose = propagators.compose_kernels

    def mutated(k2, k1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagators, "gauss_factor",
                       lambda place, n, d: gauss_factor(place, -n, d))
            return compose(k2, k1)

    return mutated


@pytest.mark.parametrize("name, count", [("composition", 114), ("semigroup", 9)])
def test_fold_checks_catch_compose_kernels_taking_lambda_of_minus_a(monkeypatch, name, count):
    monkeypatch.setattr(propagators, "compose_kernels", _compose_with_lambda_of_minus_a())
    failures = CHECKS[name](trials=3, seed=1)
    assert len(failures) == count
    # a failure row holds every input the fold drew, so it can be replayed
    row = failures[0]
    assert list(row) == ["check", "place", "N", "points", "a", "q0", "q1", "got", "want"]
    assert row["check"] == name and (name == "composition" or row["N"] == 2)
    place = Place.parse(row["place"])
    points, a, q0, q1 = [F(t) for t in row["points"]], F(row["a"]), F(row["q0"]), F(row["q1"])
    got = finite_n_propagator(a, PartitionSpec(place, tuple(points)), q0, q1)
    assert str(got) == row["got"]


#: the first 20 draws of the composition stream of seed 0 at 3, taken at each place
SEEDED_DRAWS = {
    "inf": ["2", "24/11", "-20/9", "4", "-4/17", "5/2", "10/7", "1/8", "-7/5", "-5/14",
            "12", "1/5", "-1", "3/11", "-4/3", "19/20", "4", "-4/5", "-13/22", "6/7"],
    "2": ["8", "2", "-19/9", "-7/4", "17/22", "3/11", "1/16", "-2", "1/6", "-1/10",
          "-5/46", "11/40", "3/8", "11", "8/13", "-16/23", "3/2", "11/7", "12/5", "56/13"],
    "3": ["18", "9/2", "-19/9", "-7/6", "17/22", "2/11", "1/24", "-4/3", "1/4", "-3/20",
          "-10/207", "11/60", "1/4", "11", "18/13", "-36/23", "1", "11/7", "18/5", "126/13"],
}


@pytest.mark.parametrize("place", ["inf", "2", "3"])
def test_seeded_draw_stream_is_pinned(place):
    # every check and criterion draws its inputs here: a fixed seed must keep
    # giving the same values, from the same calls on the generator
    rng = random.Random(repr((0, "3", "composition")))
    draws = [verify.random_nonzero_rational(rng, Place.parse(place)) for _ in range(20)]
    assert [str(x) for x in draws] == SEEDED_DRAWS[place]
    # and take as many values from the generator: 3 a draw at infinity, 4 at p
    assert rng.getrandbits(32) == (3433140320 if place == "inf" else 1981416324)


def test_draws_are_those_of_randrange_and_choice():
    # the same values, the generator left in the same state after them, and
    # the pinned stream: 300 draws at each seed 0-199 and each place of the oracle
    assert draw_oracle.problems() == []


@pytest.mark.parametrize("place", ["inf", "2", "3", "5", "7", "13"])
def test_random_partition_is_the_checked_one(place):
    place = Place.parse(place)
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for count in range(2, 18):
            got = verify._random_partition(rng, place, count)
            assert got == draw_oracle.random_partition(ref, place, count)
            assert type(got.points) is tuple and all(type(t) is F for t in got.points)
            assert rng.getstate() == ref.getstate()


def test_gauss_draws_b_as_choice_draws_it(monkeypatch):
    # b is 0 or a second rational, picked after that rational is drawn
    drawn = []
    full = verify.gauss_full
    monkeypatch.setattr(verify, "gauss_full",
                        lambda place, a, b: drawn.append((place, a, b)) or full(place, a, b))
    places = tuple(Place.prime(p) for p in (2, 3, 5, 7))
    for seed in range(3):
        assert verify.check_gauss(places=places, trials=12, seed=seed) == []
    want = []
    for seed in range(3):
        for place in places:
            rng = random.Random(repr((seed, place.p, "gauss")))
            want += [(place, *draw_oracle.gauss_pair(rng, place)) for _ in range(12)]
    assert drawn == want
    # and both picks are taken
    assert 0 < sum(b == 0 for _, _, b in drawn) < len(drawn)


def test_verify_draws_only_through_getrandbits():
    # every draw is made straight from getrandbits: the module calls no
    # randrange, randint or choice
    tree = ast.parse(Path(verify.__file__).read_text())
    names = {"randrange", "randint", "choice"}
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]
    assert calls == []


def test_a_composition_request_composes_600_times(monkeypatch, capsys):
    # perfbench's path-integral audit: a request folds N = 2..16 at each of the
    # five default places through compose_kernels, N - 1 calls a fold
    calls = []
    compose = propagators.compose_kernels
    monkeypatch.setattr(propagators, "compose_kernels",
                        lambda k2, k1: calls.append(k2.place) or compose(k2, k1))
    assert main(["verify", "--check", "composition", "--trials", "1", "--seed", "5"]) == 0
    assert '"status": "pass"' in capsys.readouterr().out
    assert len(calls) == 5 * sum(n - 1 for n in verify.COMPOSITION_STEPS) == 600


def test_overlap_catches_a_threshold_one_too_high(monkeypatch):
    threshold = verify.overlap_vanishing_threshold
    monkeypatch.setattr(verify, "overlap_vanishing_threshold",
                        lambda p, x_diff, tau: threshold(p, x_diff, tau) + 1)
    failures = CHECKS["overlap"](trials=5, seed=0)
    assert len(failures) == 9
    # a failure row holds the arguments of its overlap_ball_integral call
    row = failures[0]
    assert list(row) == ["check", "p", "N", "a", "t", "t1", "x0", "x1"]
    assert row["check"] == "overlap-below-threshold"
    args = [F(row[k]) for k in ("a", "t", "t1", "x0", "x1")]
    assert overlap_ball_integral(row["p"], *args, row["N"]).is_zero


def test_overlap_catches_a_threshold_one_too_low(monkeypatch):
    # every trial with x1 != x0 now asks the ball one below the true threshold
    # to vanish, and the ball two below it never does
    threshold = verify.overlap_vanishing_threshold
    monkeypatch.setattr(verify, "overlap_vanishing_threshold",
                        lambda p, x_diff, tau: threshold(p, x_diff, tau) - 1)
    failures = CHECKS["overlap"](trials=5, seed=0)
    assert len(failures) == 9
    for row in failures:
        assert list(row) == ["check", "p", "N", "a", "t", "t1", "x0", "x1", "value"]
        assert row["check"] == "overlap-vanishing"
        a, t, t1, x0, x1 = (F(row[k]) for k in ("a", "t", "t1", "x0", "x1"))
        assert row["N"] == threshold(row["p"], x1 - x0, t1 - t) - 1
        value = overlap_ball_integral(row["p"], a, t, t1, x0, x1, row["N"])
        assert not value.is_zero and str(value) == row["value"]


def test_overlap_catches_a_wrong_norm(monkeypatch):
    # a norm twice too large halves the diagonal mass the check expects
    monkeypatch.setattr(verify, "norm", lambda x, place: 2 * norm(x, place))
    failures = CHECKS["overlap"](trials=5, seed=0)
    assert len(failures) == 2 * 5 * 3
    for row in failures:
        assert row["check"] == "overlap-diagonal" and row["x0"] == row["x1"]
        a, t, t1, x0 = (F(row[k]) for k in ("a", "t", "t1", "x0"))
        diag = overlap_ball_integral(row["p"], a, t, t1, x0, x0, row["N"])
        mass = F(row["p"]) ** row["N"] / norm(t1 - t, Place.prime(row["p"]))
        assert diag.modulus_sq == mass * mass and diag.phase.value == 0


def test_lambda_catches_a_real_lambda_that_reads_the_square_part(monkeypatch):
    # at the real place the square part of x is |x|: a lambda_inf that reads
    # it past 48 breaks square absorption alone, as |a|, |b|, |a + b| and
    # |1/a + 1/b| stay within 48 for the drawn a, b, and only a^2 b goes past
    def mutated(place, a):
        phase = lambda_v(place, a)
        return phase + Phase(F(1, 2)) if place.is_real and abs(a) > 48 else phase

    monkeypatch.setattr(verify, "lambda_v", mutated)
    failures = CHECKS["lambda"](seed=0)
    assert len(failures) == 85
    real = Place.real()
    for row in failures:
        assert list(row) == ["check", "place", "a", "b"]
        assert row["check"] == "square-absorption" and row["place"] == "inf"
        a, b = F(row["a"]), F(row["b"])
        assert mutated(real, a * a * b) != mutated(real, b)
        assert lambda_v(real, a * a * b) == lambda_v(real, b)


def test_gauss_runs_the_haar_oracle_on_every_ball_up_to_the_coset_cap(monkeypatch):
    # at 13, seed 0 draws one ball of 13^5 = 371,293 cosets among its 12 trials
    seen = []
    haar = verify.haar_oracle
    monkeypatch.setattr(verify, "haar_oracle",
                        lambda p, f, ball: seen.append(ball.n_cosets) or haar(p, f, ball))
    assert verify.check_gauss(places=(Place.prime(13),), seed=0) == []
    assert len(seen) == 12 and max(seen) == 13**5


def test_gauss_leaves_the_coset_cap_to_the_haar_oracle(monkeypatch):
    # at 999983, seed 0, 7 of the 12 balls exceed gauss.COSET_CAP: the oracle
    # refuses them, and their trials end the Haar check without a row
    outcomes = []
    haar = verify.haar_oracle

    def spy(p, f, ball):
        try:
            value = haar(p, f, ball)
        except OracleCapError:
            outcomes.append("refused")
            raise
        outcomes.append("summed")
        return value

    monkeypatch.setattr(verify, "haar_oracle", spy)
    assert verify.check_gauss(places=(Place.prime(999983),), seed=0) == []
    assert (outcomes.count("refused"), outcomes.count("summed")) == (7, 5)


def test_gauss_catches_a_conjugated_closed_form(monkeypatch):
    # at the default places, the primes up to 31
    full = verify.gauss_full
    monkeypatch.setattr(verify, "gauss_full", lambda place, a, b: full(place, a, b).conjugate())
    assert len(CHECKS["gauss"](trials=3, seed=0)) == 48


def test_lambda_catches_lambda_3_without_its_legendre_symbol(monkeypatch):
    # at odd valuation lambda_3(a) is +-i by the Legendre symbol of a's unit
    def mutated(place, a):
        if place.p == 3 and valuation(a, 3) % 2:
            return Phase(F(1, 4))
        return lambda_v(place, a)

    monkeypatch.setattr(verify, "lambda_v", mutated)
    assert len(CHECKS["lambda"](trials=50, seed=0)) == 4


def _lambda_of_split_mutant(monkeypatch, mutate):
    """The one lambda implementation, behind gauss_full's Gauss factor, with its phase mutated."""
    lambda_of_split = characters.lambda_of_split
    monkeypatch.setattr(characters, "lambda_of_split",
                        lambda place, v, u: mutate(place, v, lambda_of_split(place, v, u)))


@pytest.mark.parametrize("seed, count", [(0, 6), (1, 3), (2, 12)])
def test_gauss_catches_lambda_13_without_its_legendre_symbol(monkeypatch, seed, count):
    # at odd valuation lambda_13(a) is the Legendre symbol of a's unit; the
    # lambda check's identities cannot see (u/13), the closed form at 13 can
    _lambda_of_split_mutant(monkeypatch,
                            lambda place, v, phase: Phase(0) if place.p == 13 and v % 2 else phase)
    failures = CHECKS["gauss"](seed=seed)
    assert len(failures) == count and {row["p"] for row in failures} == {13}


@pytest.mark.parametrize("seed, count", [(0, 47), (1, 60), (2, 53)])
def test_gauss_catches_lambda_conjugated_at_3_mod_4_above_7(monkeypatch, seed, count):
    # no other check reads lambda at 11, 19, 23 or 31 by default
    _lambda_of_split_mutant(
        monkeypatch, lambda place, v, phase: -phase if place.p > 7 and place.p % 4 == 3 else phase
    )
    failures = CHECKS["gauss"](seed=seed)
    assert len(failures) == count and {row["p"] for row in failures} <= {11, 19, 23, 31}


def test_lambda_reports_a_phase_that_is_not_an_eighth_root(monkeypatch, capsys):
    # a sixteenth of a turn more at 13 keeps both identities, so only the
    # eighth-root rows fail: one for each of the two arguments of a trial
    def mutated(place, a):
        phase = lambda_v(place, a)
        return phase + Phase(F(1, 16)) if place.p == 13 else phase

    monkeypatch.setattr(verify, "lambda_v", mutated)
    failures = CHECKS["lambda"](trials=3, seed=0)
    assert len(failures) == 6
    for row in failures:
        assert list(row) == ["check", "place", "a", "phase"]
        assert row["check"] == "eighth-root" and row["place"] == "13"
        # the row replays: the phase is lambda_13 of the drawn argument
        assert str(mutated(Place.prime(13), F(row["a"]))) == row["phase"]
    assert main(["verify", "--check", "lambda", "--trials", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail" and report["failures"] == failures
