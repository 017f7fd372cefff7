"""The four benchmark workloads: seeded inputs, one request, its check.

Every workload is a closed loop of one client sending one request at a
time.  Requests come in *rounds*: a round covers each cost stratum of
the workload once (systems x formats, Gauss cells, precision rungs) in
a seed-shuffled order, so two seeds see the same mix of work and differ
only in the drawn values.  The seed fixes every input; the library only
ever sees the generated inputs.

``check`` runs outside the timed region and returns a list of problems;
an empty list means the output is correct.  ``digest_bytes`` gives the
exact outputs (inputs, ``modulus_sq``, ``phase``, verify reports) that
the run's SHA-256 digest covers; the digest spans the first round,
which every run makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from padicqm.characters import Amplitude
from padicqm.cli import main as cli_main
from padicqm.dynamics import action_form_constant_field
from padicqm.gauss import (
    BallSpec,
    gauss_full,
    haar_oracle,
    minimal_resolution,
    quad_char_integral_ball,
    quadratic_char_fn,
    stabilization_threshold,
)
from padicqm.places import Place
from padicqm.propagators import (
    OscillatorBoundaryData,
    desitter_action_form,
    k_general_quadratic,
    oscillator_action_form,
)

HAAR_TOLERANCE = 1e-10
RENDER_TOLERANCE = 1e-12


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``padicqm`` invocation: exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _unit(rng: random.Random, p: int | None = None, top: int = 24) -> Fraction:
    """A signed rational num/den with 1 <= num, den <= top, both prime to p."""
    while True:
        num, den = rng.randint(1, top), rng.randint(1, top)
        if p is None or (num % p and den % p):
            return Fraction(num * rng.choice((-1, 1)), den)


def _check_exact_row(row: dict, want: Amplitude, where: str) -> list[str]:
    """Exact fields must match; re/im within 1e-12 relative to the modulus."""
    problems = []
    if row["modulus_sq"] != str(want.modulus_sq):
        problems.append(f"{where}: modulus_sq {row['modulus_sq']} != {want.modulus_sq}")
    if row["phase"] != str(want.phase.value):
        problems.append(f"{where}: phase {row['phase']} != {want.phase.value}")
    re, im = want.render()
    scale = max(1.0, float(want.modulus_sq) ** 0.5)
    if (abs(float(row["re"]) - re) > RENDER_TOLERANCE * scale
            or abs(float(row["im"]) - im) > RENDER_TOLERANCE * scale):
        problems.append(f"{where}: rendering ({row['re']}, {row['im']}) != ({re}, {im})")
    return problems


def _cli_problems(out: tuple[int, str]) -> list[str]:
    code, _ = out
    return [] if code == 0 else [f"exit code {code}"]


class Workload:
    """Shared round bookkeeping; subclasses supply the request type."""

    name = ""
    #: rounds every run makes, whatever --seconds asks for
    min_rounds = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")

    def warmup(self) -> Workload:
        """A workload of the same kind drawing from a separate stream."""
        twin = type(self)(self.seed, self.tiny)
        twin.rng = random.Random(f"perfbench:{self.name}:{self.seed}:warmup")
        return twin

    def next_round(self) -> list:
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> list[str]:
        raise NotImplementedError

    def items(self, req) -> int:
        raise NotImplementedError

    def digest_bytes(self, req, out) -> bytes:
        raise NotImplementedError

    def bytes_out(self, out) -> int:
        """Bytes the CLI wrote to stdout for this request."""
        return len(out[1].encode()) if isinstance(out, tuple) else 0

    def expected_calls(self, req) -> dict[str, int]:
        """Traced calls a correct request must make, by span name."""
        return {}


# ---------------------------------------------------------------- kernel-grid


@dataclass(frozen=True)
class KernelGridRequest:
    system: str
    fmt: str
    coeff: Fraction
    T: tuple[Fraction, ...]
    q0: tuple[Fraction, ...]
    q1: tuple[Fraction, ...]

    @property
    def argv(self) -> list[str]:
        argv = ["kernel", "--system", self.system, "--place", KernelGrid.PLACES]
        for flag, values in (("T", self.T), ("q0", self.q0), ("q1", self.q1)):
            argv.append(f"--{flag}=" + ",".join(map(str, values)))
        if self.system == "const-field":
            argv.append(f"--a={self.coeff}")
        elif self.system == "desitter":
            argv.append(f"--lam={self.coeff}")
        return argv + ["--format", self.fmt]

    def form(self, T: Fraction):
        if self.system == "free":
            return action_form_constant_field(0, T)
        if self.system == "const-field":
            return action_form_constant_field(self.coeff, T)
        return desitter_action_form(self.coeff, T)


class KernelGrid(Workload):
    """CLI kernel grids: 6x6x6 (T, q0, q1) at inf, 2, 3, 5 -- 864 rows."""

    name = "kernel-grid"
    PLACES = "inf,2,3,5"
    SYSTEMS = ("free", "const-field", "desitter")
    FORMATS = ("json", "csv")

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.side = 2 if tiny else 6

    def _rational(self) -> Fraction:
        return _unit(self.rng) * Fraction(self.rng.choice((2, 3, 5))) ** self.rng.randint(-2, 2)

    def _axis(self) -> tuple[Fraction, ...]:
        values: set[Fraction] = set()
        while len(values) < self.side:
            values.add(self._rational())
        return tuple(sorted(values))

    def next_round(self) -> list[KernelGridRequest]:
        # 3 systems x 2 formats: index i takes system i % 3 and format i % 2
        return [
            KernelGridRequest(self.SYSTEMS[i % 3], self.FORMATS[i % 2], self._rational(),
                              self._axis(), self._axis(), self._axis())
            for i in range(6)
        ]

    def run(self, req: KernelGridRequest) -> tuple[int, str]:
        return call_cli(req.argv)

    @staticmethod
    def parse_rows(req: KernelGridRequest, text: str) -> list[dict]:
        if req.fmt == "json":
            return json.loads(text)["rows"]
        return list(csv.DictReader(io.StringIO(text)))

    def check(self, req: KernelGridRequest, out) -> list[str]:
        problems = _cli_problems(out)
        if problems:
            return problems
        rows = self.parse_rows(req, out[1])
        places = [Place.parse(p) for p in self.PLACES.split(",")]
        want_keys = {(str(pl), str(T), str(q0), str(q1))
                     for pl in places for T in req.T for q0 in req.q0 for q1 in req.q1}
        got_keys = {(r["place"], r["T"], r["q0"], r["q1"]) for r in rows}
        if len(rows) != len(want_keys) or got_keys != want_keys:
            return [f"{len(rows)} rows do not cover the {len(want_keys)}-point grid"]
        forms = {T: req.form(T) for T in req.T}
        for row in rows:
            T, q0, q1 = Fraction(row["T"]), Fraction(row["q0"]), Fraction(row["q1"])
            # the criterion-6 route: general quadratic formula of the action form
            want = k_general_quadratic(Place.parse(row["place"]), forms[T], q1, q0)
            problems += _check_exact_row(row, want, f"{req.system} {row['place']} T={T}")
            if len(problems) >= 5:
                break
        return problems

    def items(self, req: KernelGridRequest) -> int:
        return len(self.PLACES.split(",")) * len(req.T) * len(req.q0) * len(req.q1)

    def digest_bytes(self, req: KernelGridRequest, out) -> bytes:
        lines = [" ".join(req.argv)]
        for row in self.parse_rows(req, out[1]):
            lines.append(f"{row['place']} {row['T']} {row['q0']} {row['q1']} "
                         f"{row['modulus_sq']} {row['phase']}")
        return "\n".join(lines).encode() + b"\n"


# --------------------------------------------------------------- gauss-oracle


@dataclass(frozen=True)
class GaussRequest:
    p: int
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class GaussOutput:
    full: Amplitude
    n0: int
    m: int
    balls: tuple[Amplitude, Amplitude]
    haar: complex


class GaussOracle(Workload):
    """Gauss points verified three ways: closed form, ball integral, Haar oracle.

    The cells follow acceptance criterion 1: a = +-u p^k with k in -2..2,
    b in {0, v, v p^-2, v p^2}, for u, v seed-drawn p-units.  The coset
    count of a cell depends only on p, k and the kind of b, so every
    round does the same Haar work (158,913 cosets, balls of 2 to 117,649).
    The three cells k = -2, b = v p^2 at odd p (9 to 49 cosets) are left
    out: with 80 cells the 90th percentile fell on the step between the
    eighth and ninth costliest cells, and the median on the step between
    the 40th and 41st, so both swung with extreme samples; with 77 cells
    each falls inside one cell's samples.
    """

    name = "gauss-oracle"
    PRIMES = (2, 3, 5, 7)
    # a round is about 3.4 s; the medians need several of them
    min_rounds = 6

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        exponents = range(-2, 1) if tiny else range(-2, 3)
        self.cells = [(p, k, kind) for p in self.PRIMES for k in exponents for kind in range(4)
                      if (k, kind) != (-2, 3) or p == 2]

    def next_round(self) -> list[GaussRequest]:
        cells = list(self.cells)
        self.rng.shuffle(cells)
        requests = []
        for p, k, kind in cells:
            a = _unit(self.rng, p) * Fraction(p) ** k
            v = _unit(self.rng, p)
            b = (Fraction(0), v, v * Fraction(p) ** -2, v * Fraction(p) ** 2)[kind]
            requests.append(GaussRequest(p, a, b))
        return requests

    def run(self, req: GaussRequest) -> GaussOutput:
        p, a, b = req.p, req.a, req.b
        full = gauss_full(Place.prime(p), a, b)
        n0 = stabilization_threshold(p, a, b)
        balls = (quad_char_integral_ball(p, a, b, n0), quad_char_integral_ball(p, a, b, n0 + 1))
        m = minimal_resolution(p, a, b, n0)
        haar = haar_oracle(p, quadratic_char_fn(p, a, b), BallSpec(p, n0, m))
        return GaussOutput(full, n0, m, balls, haar)

    def check(self, req: GaussRequest, out: GaussOutput) -> list[str]:
        problems = [f"ball at N={out.n0 + i} is {ball}, closed form {out.full}"
                    for i, ball in enumerate(out.balls) if ball != out.full]
        error = abs(out.haar - complex(*out.full.render()))
        if not error <= HAAR_TOLERANCE:
            problems.append(f"p={req.p} a={req.a} b={req.b}: Haar off by {error:.3g}")
        return problems

    def items(self, req: GaussRequest) -> int:
        return 1

    def digest_bytes(self, req: GaussRequest, out: GaussOutput) -> bytes:
        balls = " ".join(f"{x.modulus_sq} {x.phase}" for x in out.balls)
        return (f"{req.p} {req.a} {req.b} {out.n0} {out.m} "
                f"{out.full.modulus_sq} {out.full.phase} {balls}\n").encode()

    def expected_calls(self, req: GaussRequest) -> dict[str, int]:
        return {"gauss.haar_oracle": 1}


# -------------------------------------------------------------- path-integral


class PathIntegral(Workload):
    """``padicqm verify --check composition --trials 1 --seed s``.

    Over the five default places and N = 2..16 a request folds 75
    partitions with sum(N - 1) = 120 compositions per place, 600 in all.
    """

    name = "path-integral"
    PLACES = 5
    STEPS = range(2, 17)
    ROUND = 4

    def next_round(self) -> list[int]:
        return [self.rng.randrange(2**31) for _ in range(self.ROUND)]

    def argv(self, seed: int) -> list[str]:
        argv = ["verify", "--check", "composition", "--trials", "1", "--seed", str(seed)]
        # the tiny size restricts the suite to one place
        return argv + ["--place", "3"] if self.tiny else argv

    def n_places(self) -> int:
        return 1 if self.tiny else self.PLACES

    def run(self, seed: int) -> tuple[int, str]:
        return call_cli(self.argv(seed))

    def check(self, seed: int, out) -> list[str]:
        code, text = out
        try:
            report = json.loads(text)
        except ValueError:
            return [f"exit code {code}, report is not JSON"]
        problems = [] if code == 0 else [f"exit code {code}"]
        if report.get("status") != "pass" or report.get("failures"):
            problems.append(f"seed {seed}: status {report.get('status')!r}, "
                            f"{len(report.get('failures') or [])} failures")
        if report.get("check") != "composition" or report.get("seed") != seed:
            problems.append(f"seed {seed}: report is for another run")
        return problems

    def items(self, seed: int) -> int:
        return self.n_places() * len(self.STEPS)

    def digest_bytes(self, seed: int, out) -> bytes:
        return f"{' '.join(self.argv(seed))}\n{out[1]}".encode()

    def expected_calls(self, seed: int) -> dict[str, int]:
        folds = sum(n - 1 for n in self.STEPS)
        return {"propagators.compose_kernels": self.n_places() * folds}


# ----------------------------------------------------------------- oscillator


@dataclass(frozen=True)
class OscillatorRequest:
    data: OscillatorBoundaryData
    precision: int

    @property
    def argv(self) -> list[str]:
        argv = ["kernel", "--system", "osc", "--place", Oscillator.PLACES]
        for name in ("x0", "x1", "gamma0", "gamma1", "dgamma0", "dgamma1",
                     "s0", "s1", "ds0", "ds1"):
            argv.append(f"--{name}={getattr(self.data, name)}")
        return argv + ["--precision", str(self.precision)]


class Oscillator(Workload):
    """Time-dependent oscillator kernels at 3, 5, 7 on a precision ladder.

    gamma1 - gamma0 = +-105, so every place lies in the series domain
    with the same series length: a larger multiple would change the term
    count (a factor p) or the digit size of every request, and with it
    the cost mix between seeds.  dgamma0 = dgamma1 = 1 as in acceptance criterion 8,
    where the cross-route check holds branch for branch.
    """

    name = "oscillator"
    PLACES = "3,5,7"
    # odd length: the median falls inside the middle rung, and the deep
    # rung (1/7 of requests) holds the 90th percentile
    LADDER = (20, 40, 70, 120, 200, 400, 1000)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.ladder = (20, 40) if tiny else self.LADDER

    def next_round(self) -> list[OscillatorRequest]:
        ladder = list(self.ladder)
        self.rng.shuffle(ladder)
        rng = self.rng
        unit = lambda: _unit(rng, top=12)  # noqa: E731
        requests = []
        for precision in ladder:
            gamma0 = unit()
            data = OscillatorBoundaryData(
                x0=unit(), x1=unit(), gamma0=gamma0,
                gamma1=gamma0 + rng.choice((-105, 105)),
                dgamma0=Fraction(1), dgamma1=Fraction(1),
                s0=unit(), s1=unit(), ds0=unit(), ds1=unit(),
            )
            requests.append(OscillatorRequest(data, precision))
        return requests

    def run(self, req: OscillatorRequest) -> tuple[int, str]:
        return call_cli(req.argv)

    def check(self, req: OscillatorRequest, out) -> list[str]:
        problems = _cli_problems(out)
        if problems:
            return problems
        rows = json.loads(out[1])["rows"]
        primes = [int(p) for p in self.PLACES.split(",")]
        if [int(r["place"]) for r in rows] != primes:
            return [f"rows for places {[r['place'] for r in rows]}, want {primes}"]
        data = req.data
        for row, p in zip(rows, primes):
            form = oscillator_action_form(data, p, req.precision)
            want = k_general_quadratic(Place.prime(p), form, data.x1, data.x0)
            problems += _check_exact_row(row, want, f"p={p} P={req.precision}")
        return problems

    def items(self, req: OscillatorRequest) -> int:
        return len(self.PLACES.split(","))

    def digest_bytes(self, req: OscillatorRequest, out) -> bytes:
        lines = [" ".join(req.argv)]
        lines += [f"{r['place']} {r['modulus_sq']} {r['phase']}" for r in json.loads(out[1])["rows"]]
        return "\n".join(lines).encode() + b"\n"


WORKLOADS = {cls.name: cls for cls in (KernelGrid, GaussOracle, PathIntegral, Oscillator)}
