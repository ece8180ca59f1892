"""Walkthrough: the bounded-multiplicity membership test and the jet map.

A system fails exactly when some primitive collection of polynomials shares
a root of multiplicity >= n.  The verdict is exact in coefficient form
(Gaussian-rational gcds) and in root form (sets of exact roots); the two agree.
"""

from toricstab import (
    GaussianRational,
    PolySystem,
    RationalPoly,
    builtin_fan,
    evaluate_jet,
    in_arrangement,
    is_member,
    jet,
    mult_part,
)

G = GaussianRational
cp1 = builtin_fan("cp(1)")
h1 = builtin_fan("hirzebruch(1)")

# (z^2, z^2): both polynomials vanish doubly at 0, the collection {1, 2} fails
z2 = RationalPoly.from_roots([(G(0), 2)])
bad = PolySystem.coefficient_system([z2, z2])
verdict = is_member(bad, cp1, 2)
print("(z^2, z^2) over cp(1), n=2:", "member" if verdict.member else "rejected")
print("  witness collection:", verdict.witness_collection)
print("  common factor coefficients:", verdict.witness_factor.to_pairs())

# the root form of (z^2, z^2) names the shared double root exactly; it is a
# point of the discriminant, so the jet there lands in the arrangement
alpha = is_member(PolySystem.root_system([[(G(0), 2)], [(G(0), 2)]]), cp1, 2).witness_root
point = evaluate_jet(bad, 2, alpha)
print("  witness root:", alpha.to_pair())
print("  jet at the witness root:", [[v.to_pair() for v in block] for block in point.blocks],
      "-> in arrangement:", in_arrangement(point, cp1))

# separating the double roots repairs membership
good = PolySystem.coefficient_system([z2, RationalPoly([G(1), G(0), G(1)])])
print("(z^2, z^2 + 1):", "member" if is_member(good, cp1, 2).member else "rejected")

# on the ruled surface only the two primitive pairs matter
shared = RationalPoly.from_roots([(G(3), 2)])
plain = RationalPoly.from_roots([(G(1), 1), (G(2), 1)])
print("double root shared on a face pair:",
      is_member(PolySystem.coefficient_system([shared, shared, plain, plain]), h1, 2).member)
print("double root shared on a primitive pair:",
      is_member(PolySystem.coefficient_system([shared, plain, shared, plain]), h1, 2).member)

# the jet tuple detects multiplicity: all entries vanish iff the root is heavy
f = RationalPoly.from_roots([(G(1), 3), (G(-2), 1)])
print()
print("f with a triple root at 1; multiplicity >= 2 part:",
      mult_part(f, 2).to_pairs())
print("jet of f at the triple root:", [e.evaluate(G(1)).to_pair() for e in jet(f, 3)])
print("jet of f at the simple root:", [e.evaluate(G(-2)).to_pair() for e in jet(f, 3)])
