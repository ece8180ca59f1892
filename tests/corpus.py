"""Seeded suites and generators that only the tests run, on toricstab and
the standard library alone, so they run without pytest:

    PYTHONPATH=src:tests python -c "import corpus; print(corpus.run_membership(1).ok)"
"""

import math
import random
from fractions import Fraction

from toricstab import (GaussianRational, PolySystem, RationalPoly, builtin_fan, is_member,
                       primitive_collections, stabilize)
from toricstab.oracles import SuiteResult


def primitive_ray(v):
    """Divide an integer vector by the gcd of its entries, preserving direction."""
    vec = tuple(int(x) for x in v)
    if not any(vec):
        raise ValueError("zero vector has no primitive generator")
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


_MEMBER_FAMILY = ("cp(1)", "cp(2)", "hirzebruch(1)", "hirzebruch(2)")


def root_pool(rng, count, exclude=()):
    """Distinct Gaussian rationals with small height."""
    out = []
    seen = set(exclude)
    while len(out) < count:
        z = GaussianRational(Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4))),
                             Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4))))
        if z not in seen:
            seen.add(z)
            out.append(z)
    return out


def _both_forms(root_lists):
    coeff = PolySystem.coefficient_system([RationalPoly.from_roots(rl) for rl in root_lists])
    return coeff, PolySystem.root_system(root_lists)


def make_planted_system(fan, n, rng):
    """System with a multiplicity-n common root planted on a primitive collection."""
    prims = sorted(primitive_collections(fan), key=sorted)
    sigma = rng.choice(prims)
    r = fan.ray_count
    alpha = root_pool(rng, 1)[0]
    degrees = [n + rng.randint(0, 2) if i in sigma else rng.randint(1, n + 2) for i in range(r)]
    root_lists = []
    for i in range(r):
        if i in sigma:
            extra = root_pool(rng, degrees[i] - n, exclude=(alpha,))
            root_lists.append([(alpha, n)] + [(z, 1) for z in extra])
        else:
            root_lists.append([(z, 1) for z in root_pool(rng, degrees[i], exclude=(alpha,))])
    coeff, root = _both_forms(root_lists)
    return coeff, root, tuple(sorted(sigma))


def make_generic_system(fan, n, rng):
    """System with only simple roots; admissible whenever n >= 2."""
    return _both_forms([[(z, 1) for z in root_pool(rng, rng.randint(1, n + 3))]
                        for _ in range(fan.ray_count)])


def run_membership(seed, planted=200, generic=200):
    """Agreement of the exact-gcd and root-set membership tests.  A planted
    system's other roots are simple, so both must name its collection; a
    generic system is a member, so neither names one."""
    rng = random.Random(seed)
    fans = {name: builtin_fan(name) for name in _MEMBER_FAMILY}
    result = SuiteResult("membership", seed, planted + generic)
    for trial in range(planted + generic):
        name = rng.choice(_MEMBER_FAMILY)
        n = rng.randint(2, 3)
        if trial < planted:
            coeff, root, sigma = make_planted_system(fans[name], n, rng)
        else:
            (coeff, root), sigma = make_generic_system(fans[name], n, rng), None
        found = [is_member(system, fans[name], n).witness_collection for system in (coeff, root)]
        ok = found == [sigma, sigma]
        result.record(trial, ok, None if ok else {
            "fan": name, "n": n, "sigma": sigma, "coefficient": found[0], "root": found[1]})
    return result


def _strip_system(fan, n, rng, planted):
    """Root-form system for stabilization trials.

    Real parts range over [-64, 64] in quarters, so roots fall on both sides
    of the bend at N - 1 of the stabilization map, at every depth, and
    imaginary parts take three values, so a map that merged real parts
    would merge roots.  The roots are distinct, so a root repeats only
    where it was planted.
    """
    r = fan.ray_count
    seen = set()

    def fresh():
        while True:
            z = GaussianRational(Fraction(rng.randint(-256, 256), 4), Fraction(rng.randint(-1, 1), 4))
            if z not in seen:
                seen.add(z)
                return z

    sigma, alpha = (), None
    if planted:
        prims = sorted(primitive_collections(fan), key=sorted)
        sigma = rng.choice(prims)
        alpha = fresh()
    root_lists = []
    for i in range(r):
        if i in sigma:
            d = n + rng.randint(0, 2)
            roots = [(alpha, n)] + [(fresh(), 1) for _ in range(d - n)]
        else:
            roots = [(fresh(), 1) for _ in range(rng.randint(1, n + 2))]
        root_lists.append(roots)
    return PolySystem.root_system(root_lists)


def run_stabilization(seed, trials=100):
    """Degree law, verdict preservation, and composed-shift law for stabilization."""
    rng = random.Random(seed)
    fans = {name: builtin_fan(name) for name in _MEMBER_FAMILY}
    result = SuiteResult("stabilization", seed, trials)
    for trial in range(trials):
        name = rng.choice(_MEMBER_FAMILY)
        fan = fans[name]
        n = rng.randint(2, 3)
        system = _strip_system(fan, n, rng, planted=rng.random() < 0.5)
        r = fan.ray_count
        a = [rng.randint(0, 3) for _ in range(r)]
        i = rng.randrange(r)
        a[i] = max(1, a[i])
        b = [rng.randint(0, 2) for _ in range(r)]
        j = rng.randrange(r)
        b[j] = max(1, b[j])
        before = is_member(system, fan, n).member
        once = stabilize(system, a)
        twice = stabilize(once, b)
        ok = (
            once.degrees == tuple(d + x for d, x in zip(system.degrees, a))
            and twice.degrees == tuple(d + x + y for d, x, y in zip(system.degrees, a, b))
            and is_member(once, fan, n).member == before
            and is_member(twice, fan, n).member == before
        )
        result.record(trial, ok, None if ok else {"fan": name, "n": n, "a": a, "b": b, "before": before})
    return result
