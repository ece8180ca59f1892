"""Walkthrough: stability dimensions, the vanishing table, and band minima.

For degrees D on a fan with smallest primitive collection size r_min, maps
between the degree-D space and its stabilizations compare faithfully up to
dimension (2*n*r_min - 3)*floor(d_min/n) - 2.  The first failure band sits
exactly two above it.  The library gives each band's minimum in closed
form; the band oracle suite confirms them by enumerating the bands' tuples.
"""

from toricstab import (
    builtin_fan,
    connectivity_bound,
    e1_support,
    min_unknown_band,
    stability_dim_n1,
    stability_dim_projective,
    stability_report,
    truncation_dim,
)
from toricstab.cli import _render_table
from toricstab.oracles import run_band

h1 = builtin_fan("hirzebruch(1)")
degrees = (5, 7, 5, 12)

report = stability_report(degrees, h1, 2)
print("report for degrees", degrees, "on hirzebruch(1), n = 2:")
for key, value in report.to_dict().items():
    print(f"  {key}: {value}")

band = min_unknown_band(degrees, h1, 2)
print("\nband minima by band index t, (2*n*r_min - 3)*d' + t - 1:")
for t, value in sorted(band.per_t.items()):
    print(f"  t={t}: {value}")
print("overall band minimum:", band.value, "= stability_dim + 2")
suite = run_band(seed=0, trials=50)
print(f"band oracle, seed 0: {suite.passed} of {suite.trials} random inputs match the enumeration")

print("\ntruncation stratum dimension:", truncation_dim(degrees, h1, 2))
print("n=1 comparison range:", stability_dim_n1(degrees, h1))
print("equal-degree projective case d=6, m=2, n=2:", stability_dim_projective(6, 2, 2))
print("connectivity bound:", connectivity_bound(h1, 2))

print("\nfirst-page vanishing table (k columns, s rows):")
print(_render_table(e1_support(degrees, h1, 2, s_max=16)))
