"""Acceptance suite: one test per exit criterion, each printed with its runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and budget is fixed here, not configurable.
"""

import json
import time

from toricstab import (
    builtin_fan,
    bundle_rank,
    complex_power,
    dim_arrangement,
    dim_config,
    fan_power,
    min_unknown_band,
    stability_dim,
    truncation_dim,
    underlying_complex,
)
from toricstab.cli import main
from toricstab.oracles import run_band, run_complement, run_jetsection, run_vandermonde

from corpus import run_membership, run_stabilization

SEED = 20260810


def _report(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_hirzebruch_reproduction(fixtures_dir, capsys):
    start = time.monotonic()
    ok = True
    for k in (1, 2, 3):
        code = main(["fan", "analyze", str(fixtures_dir / f"hirzebruch{k}.json")])
        out, _ = capsys.readouterr()
        doc = json.loads(out)
        ok &= code == 0
        ok &= doc["primitive_collections"] == [[1, 3], [2, 4]]
        ok &= doc["r_min"] == 2
        d = doc["degree_vector"]
        ok &= d is not None and d[2] == d[0] and d[3] == k * d[0] + d[1]
        ok &= all(x >= 1 for x in d)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(1, "Hirzebruch analyze reproduction", ok, elapsed, 1.0)


def test_criterion_2_stability_formula():
    start = time.monotonic()
    h1 = builtin_fan("hirzebruch(1)")
    fixed = stability_dim((5, 7, 5, 12), h1, 2)
    band = min_unknown_band((5, 7, 5, 12), h1, 2)
    ok = fixed == 8 and band.value == 10 == fixed + 2
    suite = run_band(SEED, trials=50)
    ok &= suite.ok
    elapsed = time.monotonic() - start
    _report(2, "stability dimension and band minima", ok, elapsed, 10.0)


def test_criterion_3_vandermonde_certification():
    start = time.monotonic()
    suite = run_vandermonde(SEED, trials=500)
    elapsed = time.monotonic() - start
    _report(3, "confluent Vandermonde rank certification (500 exact)", suite.ok, elapsed, 20.0)


def test_criterion_4_membership_oracle_equivalence():
    start = time.monotonic()
    suite = run_membership(SEED, planted=200, generic=200)
    elapsed = time.monotonic() - start
    _report(4, "gcd and root-set membership agreement (400)", suite.ok, elapsed, 30.0)


def test_criterion_5_power_structure_coherence():
    start = time.monotonic()
    ok = True
    for name in ("cp(1)", "cp(2)", "hirzebruch(1)"):
        fan = builtin_fan(name)
        base = underlying_complex(fan)
        for n in (1, 2, 3):
            lifted = underlying_complex(fan_power(fan, n))
            direct = complex_power(base, n)
            ok &= lifted == direct
            ok &= lifted.all_faces() == direct.all_faces()
    elapsed = time.monotonic() - start
    _report(5, "power fan / power complex coherence", ok, elapsed, 5.0)


def test_criterion_6_complement_identity():
    start = time.monotonic()
    suite = run_complement(SEED, samples=1000)
    elapsed = time.monotonic() - start
    _report(6, "arrangement-complement dichotomy (exhaustive + sampled)", suite.ok, elapsed, 5.0)


def test_criterion_7_jet_section_identity():
    start = time.monotonic()
    suite = run_jetsection(SEED, trials=100)
    elapsed = time.monotonic() - start
    _report(7, "jet section round trip (100 exact)", suite.ok, elapsed, 1.0)


def test_criterion_8_stabilization_laws():
    start = time.monotonic()
    suite = run_stabilization(SEED, trials=100)
    elapsed = time.monotonic() - start
    _report(8, "stabilization degree and verdict laws (100)", suite.ok, elapsed, 5.0)


def test_criterion_9_dimension_bookkeeping():
    start = time.monotonic()
    cases = [
        ("hirzebruch(1)", (5, 7, 5, 12), 2),
        ("hirzebruch(2)", (3, 4, 3, 10), 2),
        ("hirzebruch(3)", (2, 2, 2, 8), 2),
        ("cp(1)", (6, 7), 3),
        ("cp(2)", (4, 4, 4), 2),
        ("cp(3)", (5, 5, 5, 5), 2),
    ]
    ok = True
    for name, degrees, n in cases:
        fan = builtin_fan(name)
        d_prime = min(degrees) // n
        value = truncation_dim(degrees, fan, n)
        ok &= value == bundle_rank(degrees, d_prime, n) + dim_config(fan, n, d_prime) + 1
        for k in range(1, 5):
            ok &= dim_config(fan, n, k) == 2 * k + k * dim_arrangement(fan, n)
    elapsed = time.monotonic() - start
    _report(9, "truncation, bundle and configuration dimensions", ok, elapsed, 1.0)
