"""Seeded random argvs over every command, for the CLI fuzz test.

Values mix ordinary rationals with ones at the edges: beyond the float
range (1e+-300, 1e-4000), too long to write (1/7^1500, 3^3000), primes
that are not (0, 1, -3, 4, 9), primality undecided at psi_13, oscillator
precisions from -1 and trial counts from 0.
"""

PSI_13 = 3_317_044_064_679_887_385_961_981
SMALL = ["0", "1", "-1", "1/2", "-3/4", "7/9", "2", "3", "9/7", "5/3", "-2/5", "27", "1/49"]
EDGE = ["1e300", "1e-300", "-1e300", "1/" + str(7**1500), str(3**3000), "1e-4000"]
PRIMES = ["0", "1", "-3", "4", "9", "2", "3", "101", str(PSI_13), str(PSI_13 - 168)]
PLACES = ["inf", "2", "3", "5", "7"]
OSCILLATOR = ["x0", "x1", "gamma0", "gamma1", "dgamma0", "dgamma1", "s0", "s1", "ds0", "ds1"]
CHECKS = ["lambda", "composition", "semigroup", "overlap", "gauss"]


def rational(rng) -> str:
    return rng.choice(EDGE if rng.random() < 0.15 else SMALL)


def places(rng, most: int) -> str:
    """One to ``most`` places, now and then with the composite 4 among them."""
    chosen = rng.sample(PLACES, rng.randint(1, most))
    return ",".join(chosen + (["4"] if rng.random() < 0.05 else []))


def random_argv(rng) -> list[str]:
    command = rng.choice(["kernel", "osc", "gauss", "ball-integral", "verify"])
    fmt = ["--format", rng.choice(["json", "csv"])]
    if command == "kernel":
        system = rng.choice(["free", "const-field", "desitter"])
        argv = ["kernel", "--system", system, "--place", places(rng, 3)]
        for flag in ("--T", "--q0", "--q1"):
            argv.append(f"{flag}=" + ",".join(rational(rng) for _ in range(rng.randint(0, 3))))
        coefficient = {"const-field": "--a", "desitter": "--lam"}.get(system)
        if coefficient:
            argv.append(f"{coefficient}={rational(rng)}")
        return argv + fmt
    if command == "osc":
        argv = ["kernel", "--system", "osc", "--place", places(rng, 3)]
        # now and then a boundary value is missing
        argv += [f"--{name}={rational(rng)}" for name in OSCILLATOR if rng.random() < 0.99]
        return argv + ["--precision", str(rng.randint(-1, 60))] + fmt
    if command == "gauss":
        place = rng.choice(PLACES + ["4", str(PSI_13)])
        return ["gauss", "--place", place, f"--a={rational(rng)}", f"--b={rational(rng)}"] + fmt
    if command == "ball-integral":
        return ["ball-integral", "--p", rng.choice(PRIMES), f"--alpha={rational(rng)}",
                f"--beta={rational(rng)}", f"--N={rng.randint(-20, 20)}"] + fmt
    return ["verify", "--check", rng.choice(CHECKS), "--seed", str(rng.randint(0, 5)),
            "--trials", str(rng.randint(0, 2)), "--place", places(rng, 1)]
