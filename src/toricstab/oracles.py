"""Seeded certification suites: the `toricctl oracle` commands.

Each `run_<suite>` function is the `oracle <suite>` command: it runs
deterministic randomized trials against an exact predicate and reports a
machine-readable summary.  A single 64-bit seed reproduces a run bit for
bit.  The suites that only the tests run live in `tests/corpus.py`.
"""

import random
from fractions import Fraction
from itertools import chain, combinations

from . import CapExceededError, read_int
from .exactla import rank
from .hermite import (HermiteInconsistencyError, HermiteSpec, hermite_dimension, stacked_system,
                      verify_rank_claim)

# complexes, fans, polynomials and stability are imported inside the suites
# that use them, so `toricctl oracle vandermonde` loads none of them


class SuiteResult:
    def __init__(self, suite, seed, trials):
        self.suite = suite
        self.seed = seed
        self.trials = trials
        self.passed = 0
        self.failures = []

    @property
    def vacuous(self):
        """No trial ran, so the run certifies nothing."""
        return self.passed == 0 and not self.failures

    @property
    def ok(self):
        return not self.failures and not self.vacuous

    def record(self, trial, ok, detail=None):
        if ok:
            self.passed += 1
        else:
            self.failures.append({"trial": trial, "detail": detail or "failed"})

    def to_dict(self):
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "failures": self.failures,
            "ok": self.ok,
        }
        if self.vacuous:
            out["vacuous"] = True
        return out


# Distinct fractions p/q with |p| <= 50 and 1 <= q <= 50: the pool that
# run_vandermonde draws its points from.
POINT_POOL = 3095

# Largest stacked matrix a run_vandermonde trial certifies: n*k rows of d
# cells, each entry of about 5.6 d bits.  At the caps a trial takes at most
# about 3 s on a 2-vCPU host (256 points, n = 1, d = 128); uncapped, 360 000
# cells took 61 s a trial, and k = n = 1, d = 8192 took 3.3 s.
VANDERMONDE_CELL_CAP = 1 << 15
VANDERMONDE_DEGREE_CAP = 1 << 10
# Largest total of cells over a run's trials, each unfixed dimension counted
# at its largest draw.  The default run of 500 trials counts at most
# 500 * 5 * 4 * 30 = 300 000 cells and takes about 1 s; without this cap
# 500 trials at the per-trial caps would take about half an hour.
VANDERMONDE_RUN_CELL_CAP = 1 << 19
# Largest trial count of run_band and run_jetsection, and largest sample
# count per fan of run_complement.  At the cap, on a 2-vCPU host, a band run
# took 4.3 s, a jetsection run 8.1 s and a complement run (266 284 trials) 3.9 s.
ORACLE_TRIAL_CAP = 1 << 16


def _distinct_fractions(rng, count):
    out = []
    seen = set()
    while len(out) < count:
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def run_vandermonde(seed, trials=500, k=None, n=None, d=None):
    """Full-row-rank and solution-dimension certification, exact arithmetic.

    A run whose trials could hold more than VANDERMONDE_RUN_CELL_CAP cells
    in all raises CapExceededError before its first trial.  A trial with
    more points than POINT_POOL, more cells than VANDERMONDE_CELL_CAP or a
    degree above VANDERMONDE_DEGREE_CAP raises it before it draws its points.
    Each reported rank is checked against the rank of the full stacked rows.
    """
    trials = read_int(trials, "trials", 0)
    k, n, d = (v if v is None else read_int(v, name) for v, name in ((k, "k"), (n, "n"), (d, "d")))
    k_max = k if k is not None else 5
    n_max = n if n is not None else 4
    d_max = d if d is not None else max(n_max * k_max, 30)
    CapExceededError.check(trials * k_max * n_max * d_max, VANDERMONDE_RUN_CELL_CAP,
                           "a vandermonde run is capped at {cap} cells over its trials")
    rng = random.Random(seed)
    result = SuiteResult("vandermonde", seed, trials)
    for trial in range(trials):
        kk = k if k is not None else rng.randint(1, k_max)
        nn = n if n is not None else rng.randint(1, n_max)
        dd = d if d is not None else rng.randint(nn * kk, max(nn * kk, 30))
        CapExceededError.check(kk, POINT_POOL, "vandermonde points are capped at {cap}")
        CapExceededError.check(dd, VANDERMONDE_DEGREE_CAP,
                               "the vandermonde degree is capped at {cap}")
        CapExceededError.check(nn * kk * dd, VANDERMONDE_CELL_CAP,
                               "the vandermonde matrix is capped at {cap} cells")
        points = _distinct_fractions(rng, kk)
        check = verify_rank_claim(points, nn, dd)
        full_rank = rank(stacked_system(points, nn, dd))
        targets = tuple(
            tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(kk))
            for _ in range(nn)
        )
        try:
            dim = hermite_dimension(HermiteSpec(tuple(points), nn, dd, targets))
        except HermiteInconsistencyError:  # only possible below the regime dd >= nn * kk
            dim = None
        ok = check.rank == full_rank and check.passed and check.in_regime and dim == dd - full_rank
        result.record(trial, ok, detail=None if ok else {
            "k": kk, "n": nn, "d": dd, "rank": check.rank, "full_rank": full_rank, "dim": dim,
            "points": [str(p) for p in points],
        })
    return result


_BAND_FAMILY = ("cp(1)", "cp(2)", "cp(3)", "hirzebruch(1)", "hirzebruch(2)", "hirzebruch(3)")


def _band_minimum(d_prime, t, n, rm):
    """Minimal s - k over band t by brute force, or None if the band is empty.

    Enumerates strictly increasing tuples (l_1 < ... < l_t) of positive
    integers with u = d' + 1 - sum l_j >= 0; such a tuple sits at
    s - k = (2 n r_min - 2) d' - sum (l_j - 1) - u.
    """
    edge = (2 * n * rm - 2) * d_prime
    return min((edge - sum(l - 1 for l in tup) - (d_prime + 1 - sum(tup))
                for tup in combinations(range(1, d_prime + 2), t)
                if sum(tup) <= d_prime + 1), default=None)


def run_band(seed, trials=50):
    """Brute-force band minima against the closed form, across random inputs."""
    from .complexes import r_min
    from .fans import builtin_fan
    from .stability import min_unknown_band, stability_dim

    trials = read_int(trials, "trials", 0)
    CapExceededError.check(trials, ORACLE_TRIAL_CAP, "a band run is capped at {cap} trials")
    rng = random.Random(seed)
    fans = {name: builtin_fan(name) for name in _BAND_FAMILY}
    result = SuiteResult("band", seed, trials)
    for trial in range(trials):
        name = rng.choice(_BAND_FAMILY)
        fan = fans[name]
        n = rng.randint(2, 3)
        d_prime = rng.randint(1, 8)
        d_min = n * d_prime + rng.randint(0, n - 1)
        degrees = [d_min + rng.randint(0, 5) for _ in range(fan.ray_count)]
        degrees[rng.randrange(fan.ray_count)] = d_min
        band = min_unknown_band(degrees, fan, n)
        rm = r_min(fan)
        brute = {t: low for t in range(1, d_prime + 2)
                 if (low := _band_minimum(d_prime, t, n, rm)) is not None}
        expected = stability_dim(degrees, fan, n) + 2
        ok = band.per_t == brute and band.value == min(brute.values()) == expected
        result.record(trial, ok, None if ok else {
            "fan": name, "degrees": degrees, "n": n, "value": band.value,
            "expected": expected, "per_t": band.per_t, "brute": brute,
        })
    return result


_COMPLEMENT_FIXTURES = ("cp(1)", "cp(2)", "hirzebruch(1)", "hirzebruch(2)")


def _powerset(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def run_complement(seed, samples=1000):
    """Exhaustive and sampled checks of the arrangement-complement dichotomy,
    on points with blocks in C^2 (n = 2)."""
    from .complexes import PointInProduct, in_arrangement, in_polyhedral_product, underlying_complex
    from .fans import builtin_fan

    samples = read_int(samples, "samples", 0)
    CapExceededError.check(samples, ORACLE_TRIAL_CAP,
                           "a complement run is capped at {cap} samples per fan")
    rng = random.Random(seed)
    result = SuiteResult("complement", seed, 0)
    trial = 0
    fans = [builtin_fan(name) for name in _COMPLEMENT_FIXTURES]
    fans.append(builtin_fan("cp", 11))  # 12 rays, exercises the exhaustive bound
    for fan in fans:
        k = underlying_complex(fan)
        r = fan.ray_count
        for pattern in _powerset(range(r)):
            support = frozenset(pattern)
            point = PointInProduct(tuple((0.0, 0.0) if i in support else (1.0, 1.0) for i in range(r)))
            inside = in_polyhedral_product(point, k)
            hit = in_arrangement(point, k)
            result.record(trial, inside != hit, {"fan": r, "support": sorted(support)})
            trial += 1
    for fan in fans[:-1]:
        k = underlying_complex(fan)
        r = fan.ray_count
        for _ in range(samples):
            support = frozenset(i for i in range(r) if rng.random() < 0.4)
            point = PointInProduct(tuple(
                (0.0, 0.0) if i in support else tuple(
                    complex(rng.uniform(0.1, 2.0) * (1 if rng.random() < 0.5 else -1),
                            rng.uniform(-2.0, 2.0))
                    for _ in range(2))
                for i in range(r)))
            inside = in_polyhedral_product(point, k)
            hit = in_arrangement(point, k)
            result.record(trial, inside != hit, {"fan": r, "support": sorted(support)})
            trial += 1
    result.trials = trial
    return result


def run_jetsection(seed, trials=100):
    """Exact round trip of the canonical jet section through the jet map,
    for jet orders 1 to 6."""
    from .polynomials import GaussianRational, jet, jet_section

    trials = read_int(trials, "trials", 0)
    CapExceededError.check(trials, ORACLE_TRIAL_CAP, "a jetsection run is capped at {cap} trials")
    rng = random.Random(seed)
    result = SuiteResult("jetsection", seed, trials)
    zero = GaussianRational(0)
    for trial in range(trials):
        n = rng.randint(1, 6)
        b = [
            GaussianRational(
                Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
            )
            for _ in range(n)
        ]
        f = jet_section(b)
        ok = [e.evaluate(zero) for e in jet(f, n)] == b and f.degree <= n - 1
        result.record(trial, ok, None if ok else {"n": n, "b": [v.to_pair() for v in b]})
    return result
