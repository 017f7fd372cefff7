"""Path-integral kernels and their exact composition law.

Every kernel is one symbolic expression of its classical action form,
lambda_v(-2 gamma) |gamma|_v^{1/2} chi_v(-S(x1, x0)), at every place.
The finite-partition path integral of the constant-field system is
evaluated by folding exact Gauss compositions over the subintervals.
The result is independent of the partition -- an exact rational
identity, demonstrated here for distinct points in the order drawn --
and the kernels satisfy the semigroup property on the nose.
"""

import random
from fractions import Fraction as F

from padicqm import (
    PartitionSpec,
    Place,
    SymbolicKernel,
    action_form_constant_field,
    finite_n_propagator,
)


def main():
    print("=== free-particle kernel across places, T = 1, 0 -> 1 ===")
    free = action_form_constant_field(0, 1)  # the constant field at a = 0
    for place in (Place.real(), Place.prime(2), Place.prime(3), Place.prime(5)):
        amp = SymbolicKernel.from_form(place, free).evaluate(0, 1)
        print(f"  v = {place}: |.|^2 = {amp.modulus_sq}, phase = {amp.phase}")

    print("\n=== partition independence at p = 3 (a = 2, 0 -> 1) ===")
    place = Place.prime(3)
    rng = random.Random(5)
    points = dict.fromkeys((F(0), F(1)))
    while len(points) < 9:
        points[F(rng.randint(-30, 30), rng.randint(1, 30))] = None
    part = PartitionSpec(place, tuple(points))
    print("  partition, distinct points in the order drawn:")
    print("   ", ", ".join(str(t) for t in part.points))
    total_time = part.points[-1] - part.points[0]
    folded = finite_n_propagator(2, part, 0, 1)
    kernel = SymbolicKernel.from_form(place, action_form_constant_field(2, total_time))
    direct = kernel.evaluate(0, 1)
    print(f"  N = {len(part.points) - 1} fold : |.|^2 = {folded.modulus_sq}, phase = {folded.phase}")
    print(f"  one-shot T = {total_time}: |.|^2 = {direct.modulus_sq}, phase = {direct.phase}")
    print(f"  exactly equal: {folded == direct}")

    print("\n=== semigroup property: K(2; 0) = integral of K(2; 1) K(1; 0) ===")
    for place in (Place.real(), Place.prime(5)):
        composed = finite_n_propagator(F(1, 2), PartitionSpec(place, (F(0), F(1), F(2))), 0, 1)
        one_shot = SymbolicKernel.from_form(place, action_form_constant_field(F(1, 2), 2))
        print(f"  v = {place}: composed equals one-shot: {composed == one_shot.evaluate(0, 1)}")


if __name__ == "__main__":
    main()
