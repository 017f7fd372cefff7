"""verify's seeded draws through ``randrange`` and ``choice``: the oracle of its draw rule.

``padicqm.verify`` makes each draw straight from ``getrandbits``, as
``randrange`` and ``choice`` make it: n.bit_length() bits, read again
until the value is below n.  This route makes the ``random`` module's
calls that those draws stand for, as the library did before.  Run as a
script, it checks on the running Python that both routes draw the same
values and leave the generator in the same state, and that the stream
is the one pinned here::

    PYTHONPATH=src:tests python tests/draw_oracle.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction

from padicqm import PartitionSpec, Place, verify

#: the places, seeds and draws a seed of the stream check covers
PLACES = ("inf", "2", "3", "5", "7", "13", "999983")
SEEDS = range(200)
DRAWS = 300
#: SHA-256 of the stream check's draws, one line of values a place and seed
STREAM_SHA256 = "d981cd64211c0d6151886c4bda3e5e7fa9cb4fc2181b0b0f99e6a48bed696704"


def random_nonzero_rational(rng: random.Random, place: Place) -> Fraction:
    """``verify.random_nonzero_rational`` drawn through randrange and choice."""
    num = rng.randrange(1, 25) * rng.choice((-1, 1))
    den = rng.randrange(1, 25)
    if place.is_real:
        return Fraction(num, den)
    k = rng.randrange(-verify.SPAN, verify.SPAN + 1)
    return Fraction(num * place.p**k, den) if k >= 0 else Fraction(num, den * place.p**-k)


def random_partition(rng: random.Random, place: Place, count: int) -> PartitionSpec:
    """The first count distinct draws, through the public constructor."""
    points: list[Fraction] = []
    while len(points) < count:
        t = random_nonzero_rational(rng, place)
        if t not in points:
            points.append(t)
    return PartitionSpec(place, tuple(points))


def gauss_pair(rng: random.Random, place: Place) -> tuple[Fraction, Fraction]:
    """The a and b of a gauss trial: b is 0 or a second draw, chosen after it is drawn."""
    a = random_nonzero_rational(rng, place)
    return a, rng.choice((Fraction(0), random_nonzero_rational(rng, place)))


def problems() -> list[str]:
    """Each place and seed whose draws or end state differ between the routes.

    The draws of ``verify`` are also hashed, and a hash other than
    ``STREAM_SHA256`` is a problem too.
    """
    sha = hashlib.sha256()
    out = []
    for name in PLACES:
        place = Place.parse(name)
        for seed in SEEDS:
            rng, ref = random.Random(seed), random.Random(seed)
            got = [verify.random_nonzero_rational(rng, place) for _ in range(DRAWS)]
            if got != [random_nonzero_rational(ref, place) for _ in range(DRAWS)]:
                out.append(f"{name}, seed {seed}: the draws differ")
            elif rng.getstate() != ref.getstate():
                out.append(f"{name}, seed {seed}: the generator's state differs")
            sha.update((" ".join(map(str, got)) + "\n").encode())
    if sha.hexdigest() != STREAM_SHA256:
        out.append(f"the stream's SHA-256 is {sha.hexdigest()}, not {STREAM_SHA256}")
    return out


if __name__ == "__main__":
    found = problems()
    print("\n".join(found) or f"{len(PLACES) * len(SEEDS)} streams of {DRAWS} draws match")
    sys.exit(1 if found else 0)
