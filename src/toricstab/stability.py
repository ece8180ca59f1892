"""Closed-form stability dimensions and the first-page vanishing table.

All quantities here are exact integer arithmetic in r_min (the smallest
primitive collection), the degree vector, and the multiplicity bound n.
The vanishing table reports "possibly_nonzero" rather than "nonzero": the
underlying groups are out of scope, only the vanishing ranges are certified.
"""

from math import isqrt

from . import CapExceededError, Record, UndefinedValueError, read_int
from .complexes import r_min
from .fans import _degrees, degree_is_null

# Largest (k, s) window e1_support builds: (d' + 2)(s_max + 1) cells, one
# dict entry each.  Uncapped, 800k cells took 8.7 s and 931 MB on a 2-vCPU
# host.
E1_CELL_CAP = 1 << 16

# Largest band count t_max min_unknown_band lists, one dict entry per band;
# t_max is about sqrt(2 d').  Uncapped, d' = 10^13 gave 4.47M bands in
# 0.69 s and 657 MB.
BAND_COUNT_CAP = 1 << 16

ZERO = "zero"
POSSIBLY_NONZERO = "possibly_nonzero"
TAIL_UNKNOWN = "tail_unknown"


def stability_dim(degrees, fan, n):
    """(2 n r_min - 3) * floor(d_min / n) - 2, the stable comparison range for n >= 2."""
    d_min = min(_degrees(degrees, fan))
    return _stability_dim(r_min(fan), d_min, read_int(n, "n"))


def _stability_dim(rm, d_min, n):
    if n < 2:
        raise UndefinedValueError("stability_dim needs n >= 2; use stability_dim_n1 for n = 1")
    return (2 * n * rm - 3) * (d_min // n) - 2


def stability_dim_n1(degrees, fan):
    """The n = 1 stability dimension and the kind of equivalence it certifies.

    Homotopy range (2 r_min - 3) d_min - 2 when r_min >= 3; only a homology
    range d_min - 2 when r_min = 2.
    """
    d_min = min(_degrees(degrees, fan))
    rm = r_min(fan)
    if rm >= 3:
        return (2 * rm - 3) * d_min - 2, "homotopy"
    return d_min - 2, "homology"


def stability_dim_projective(d, m, n):
    """(2mn - 3)(floor(d/n) + 1) - 1 for equal-degree tuples on projective space."""
    d, m, n = read_int(d, "d"), read_int(m, "m"), read_int(n, "n")
    if (m, n) == (1, 1):
        raise UndefinedValueError("the pair (m, n) = (1, 1) is excluded")
    return (2 * m * n - 3) * (d // n + 1) - 1


def connectivity_bound(fan, n):
    """2 n r_min - 5; the space of admissible systems is this connected for n >= 2."""
    return _connectivity(r_min(fan), read_int(n, "n"))


def _connectivity(rm, n):
    if n < 2:
        raise UndefinedValueError("connectivity bound requires n >= 2")
    return 2 * n * rm - 5


class StabilityReport(Record):
    __slots__ = ("r_min", "d_min", "d_prime", "stability_dim", "connectivity", "degree_null", "n",
                 "degrees")


def stability_report(degrees, fan, n):
    degrees = _degrees(degrees, fan)
    n = read_int(n, "n")
    rm = r_min(fan)
    d_min = min(degrees)
    return StabilityReport(
        r_min=rm,
        d_min=d_min,
        d_prime=d_min // n,
        stability_dim=_stability_dim(rm, d_min, n),
        connectivity=_connectivity(rm, n),
        degree_null=degree_is_null(fan, degrees),
        n=n,
        degrees=degrees,
    )


class E1Support(Record):
    """Vanishing statuses of the truncated first page on a (k, s) window.

    The cells dict materializes the window; status() answers for any cell.
    """

    __slots__ = ("cells", "k_max", "s_min", "s_max", "d_prime", "r_min", "n", "ray_count")

    def status(self, k, s):
        return _cell_status(k, s, self.d_prime, self.r_min, self.n, self.ray_count)

    def to_dict(self):
        return {
            "k_max": self.k_max,
            "s_min": self.s_min,
            "s_max": self.s_max,
            "d_prime": self.d_prime,
            "r_min": self.r_min,
            "n": self.n,
            "cells": [
                {"k": k, "s": s, "status": v} for (k, s), v in sorted(self.cells.items())
            ],
        }


def e1_support(degrees, fan, n, s_max=None):
    """Label every window cell zero / possibly_nonzero / tail_unknown.

    In the band 1 <= k <= d' a cell vanishes exactly when the dual degree
    2nrk - s falls outside [0, dim of the k-point configuration stratum];
    the truncation column k = d' + 1 vanishes up to the known edge and is
    unknown above it.  A window of more than E1_CELL_CAP cells, counted
    before any is built, raises CapExceededError; n < 2, UndefinedValueError.
    """
    d_min = min(_degrees(degrees, fan))
    n = read_int(n, "n")
    if n < 2:
        raise UndefinedValueError("the vanishing table requires n >= 2")
    rm = r_min(fan)
    r = fan.ray_count
    d_prime = d_min // n
    if s_max is None:
        s_max = _stability_dim(rm, d_min, n) + 2 * n * rm + 4
    else:
        s_max = read_int(s_max, "s_max", 0)
    s_min = 0
    count = (d_prime + 2) * (s_max - s_min + 1)
    CapExceededError.check(count, E1_CELL_CAP, "the e1 window is capped at {cap} cells")
    cells = {}
    for k in range(0, d_prime + 2):
        for s in range(s_min, s_max + 1):
            cells[(k, s)] = _cell_status(k, s, d_prime, rm, n, r)
    return E1Support(
        cells=cells,
        k_max=d_prime + 1,
        s_min=s_min,
        s_max=s_max,
        d_prime=d_prime,
        r_min=rm,
        n=n,
        ray_count=r,
    )


def _cell_status(k, s, d_prime, rm, n, r):
    if k < 0 or k >= d_prime + 2:
        return ZERO
    if k == 0:
        return POSSIBLY_NONZERO if s == 0 else ZERO
    if k <= d_prime:
        dual = 2 * n * r * k - s
        config_dim = 2 * k * (1 + n * r - n * rm)
        if dual < 0 or dual > config_dim:
            return ZERO
        if s <= (2 * n * rm - 2) * k - 1:
            return ZERO
        return POSSIBLY_NONZERO
    # truncation column k = d_prime + 1
    if s <= (2 * n * rm - 2) * d_prime - 1:
        return ZERO
    return TAIL_UNKNOWN


class BandResult(Record):
    """Minimal s - k over each comparison-failure band t, and over all of them."""

    __slots__ = ("value", "per_t", "empty")

    def to_dict(self):
        return {
            "value": self.value,
            "empty": self.empty,
            "per_t": {str(t): v for t, v in sorted(self.per_t.items())},
        }


def min_unknown_band(degrees, fan, n):
    """min over the comparison-failure bands of s - k, in closed form.

    Band t holds the cells of strictly increasing tuples (l_1 < ... < l_t)
    of positive integers with sum l_j <= d' + 1, so it is non-empty exactly
    when t(t + 1)/2 <= d' + 1.  Its minimum is (2 n r_min - 3) d' + t - 1,
    and the overall minimum, at t = 1, is stability_dim + 2.
    oracles.run_band checks both against an enumeration of the tuples.
    More than BAND_COUNT_CAP bands, counted before any is listed, raises
    CapExceededError.
    """
    d_min = min(_degrees(degrees, fan))
    n = read_int(n, "n")
    if n < 2:
        raise UndefinedValueError("the band minima require n >= 2")
    rm = r_min(fan)
    d_prime = d_min // n
    if d_prime == 0:
        return BandResult(None, {}, True)
    value = _stability_dim(rm, d_min, n) + 2
    t_max = (isqrt(8 * d_prime + 9) - 1) // 2  # the largest t with t(t + 1)/2 <= d' + 1
    CapExceededError.check(t_max, BAND_COUNT_CAP, "the band minima are capped at {cap} bands")
    per_t = {t: value + t - 1 for t in range(1, t_max + 1)}
    return BandResult(value, per_t, False)


def truncation_dim(degrees, fan, n):
    """Dimension 2 N(D) + 3d' - 2 n r_min d' of the top truncation stratum.

    It equals the bundle rank plus the configuration dimension plus 1 at
    k = d' (hermite.bundle_rank, complexes.dim_config); the tests check
    that identity.
    """
    degrees = _degrees(degrees, fan)
    n = read_int(n, "n")
    if n < 2:
        raise UndefinedValueError("truncation dimension needs n >= 2")
    rm = r_min(fan)
    d_prime = min(degrees) // n
    if d_prime < 1:
        raise UndefinedValueError("truncation dimension needs floor(d_min / n) >= 1")
    return 2 * sum(degrees) + 3 * d_prime - 2 * n * rm * d_prime
