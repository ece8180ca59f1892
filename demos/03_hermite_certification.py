"""Walkthrough: exact rank certification of derivative constraint matrices.

Prescribing f^(l)(x_j) at k distinct nodes for l < n pins down n*k of the
free coefficients of a monic degree-d polynomial: the stacked constraint
matrix has full row rank n*k whenever d >= n*k, and the solution space is
an affine space of dimension d - n*k.  Everything below is Fraction
arithmetic; nothing is estimated.
"""

import random
from fractions import Fraction

from toricstab import (
    GaussianRational,
    HermiteSpec,
    bundle_rank,
    confluent_vandermonde,
    derivative,
    hermite_dimension,
    hermite_solution,
    stacked_system,
    verify_rank_claim,
)
from toricstab.exactla import rank

x = Fraction(3)
print("constraint rows at a single node x = 3:")
for order, degree in ((0, 3), (1, 3), (2, 4)):
    print(f"  order {order}, degree {degree}:", confluent_vandermonde([x], order, degree)[0])

points = [Fraction(1), Fraction(-1, 2), Fraction(5, 3)]
rows = stacked_system(points, 2, 9)
print(f"\n3 nodes, orders 0..1, degree 9: rank {rank(rows)} (expected 6)")
print("claim check:", verify_rank_claim(points, 2, 9).to_dict())

rng = random.Random(0)
targets = tuple(tuple(Fraction(rng.randint(-9, 9)) for _ in points) for _ in range(2))
spec = HermiteSpec(tuple(points), 2, 9, targets)
print("solution space dimension:", hermite_dimension(spec), "(= 9 - 6)")

f = hermite_solution(spec)
print("one exact monic solution, degree", f.degree)
for order in range(2):
    g = derivative(f, order)
    values = [g.evaluate(GaussianRational(p)) for p in points]
    print(f"  f^({order}) at nodes:", [str(v.re) for v in values],
          "targets:", [str(t) for t in targets[order]])

print("\nband rank bookkeeping for degrees (5,7,5,12), k=2, n=2, r=4:",
      bundle_rank((5, 7, 5, 12), 2, 2))
