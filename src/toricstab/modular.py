"""Polynomial arithmetic over F_P[i] and Z[i] for the membership certificate.

P = 2^61 - 1 is the prime of `exactla.rank`.  It is 3 mod 4, so -1 is not a
square mod P and F_P[i] is the field F_(P^2).  Polynomials are ascending
lists of (re, im) int pairs, the last entry nonzero: residues in [0, P) over
F_P[i], unbounded ints over the Gaussian integers.  `polynomials.is_member`
passes its monic `RationalPoly`s in, whose `pairs` over `den` are read as
they are: their residues need one inverse of `den` modulo P, and the
Gaussian-integer `pairs` are their multiple by `den`.  It gets the exact
monic gcd back as a `RationalPoly`, or None where only Euclid over Q(i) can
decide.  Euclid modulo P divides through one inverse of each divisor's lead
and makes only a gcd it reconstructs monic.
"""

import math
from fractions import Fraction

from .exactla import P
from .polynomials import GaussianRational, RationalPoly

# Wang's bound: a residue has at most one preimage a/b with |a|, |b| <= it
RECONSTRUCTION_BOUND = math.isqrt(P // 2)


def _derivative(f):
    """Formal derivative of a pair list, exact on ints (entries are not reduced)."""
    return [(k * a, k * b) for k, (a, b) in enumerate(f)][1:]


def _monic(f):
    """f divided by its leading coefficient modulo P, inverted through its norm a^2 + b^2."""
    a, b = f[-1]
    s = pow(a * a + b * b, -1, P)
    ia, ib = a * s % P, -b * s % P
    return [((x * ia - y * ib) % P, (x * ib + y * ia) % P) for x, y in f]


def _rem(f, g):
    """Remainder modulo P of f by any g, through one inverse of g's lead."""
    a, b = g[-1]
    inverse = pow(a * a + b * b, -1, P)
    ia, ib = a * inverse % P, -b * inverse % P
    r = list(f)
    dg = len(g) - 1
    for k in range(len(r) - 1, dg - 1, -1):
        cr, ci = r[k]
        if cr or ci:
            cr, ci = (cr * ia - ci * ib) % P, (cr * ib + ci * ia) % P
            s = k - dg
            for j in range(dg):
                gr, gi = g[j]
                xr, xi = r[s + j]
                r[s + j] = ((xr - cr * gr + ci * gi) % P, (xi - cr * gi - ci * gr) % P)
    del r[dg:]
    while r and r[-1] == (0, 0):
        r.pop()
    return r


def _gcd_mod_p(f, g):
    """A gcd modulo P of f and g, up to a unit (1 when it is constant), by
    Euclid on the remainders as they come, none of them made monic."""
    while g:
        if len(g) == 1:
            return [(1, 0)]
        f, g = g, _rem(f, g)
    return f


def mult_part_mod_p(poly, n):
    """gcd(f, f', ..., f^(n-1)) modulo P of a monic poly, up to a unit, or
    None when P divides a denominator; `polynomials.mult_part` over F_P[i]."""
    try:
        inverse = pow(poly.den, -1, P)
    except ValueError:
        return None
    g = deriv = [(x * inverse % P, y * inverse % P) for x, y in poly.pairs]
    for _ in range(1, n):
        if len(g) == 1:
            break
        deriv = _derivative(deriv)
        g = _gcd_mod_p(g, deriv)
    return g


def _reconstruct(residue):
    """The Fraction a/b = residue mod P with |a|, b <= RECONSTRUCTION_BOUND, or None.

    Wang's half-extended Euclid on (P, residue) (Wang 1981; von zur Gathen
    and Gerhard, *Modern Computer Algebra*, ch. 5): each remainder r_k keeps
    r_k = t_k * residue mod P, and the first r_k within the bound is a.
    """
    r0, r1, t0, t1 = P, residue, 0, 1
    while r1 > RECONSTRUCTION_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > RECONSTRUCTION_BOUND:
        return None
    return Fraction(r1, t1)


def _divides(g, f):
    """Whether g divides f over Q(i), for Gaussian-integer pair lists g and f
    where g's leading coefficient is a positive integer L.

    Pseudo-division: while deg f >= deg g, f <- L f - lc(f) z^s g, or
    f <- f - (lc(f) / L) z^s g when L divides lc(f), and after each scaled
    step f loses its content, the gcd of all its integers.  Scaling by
    nonzero rationals keeps the remainder zero exactly when g divides f.
    """
    lead = g[-1][0]
    dg = len(g) - 1
    r = list(f)
    for k in range(len(r) - 1, dg - 1, -1):
        cr, ci = r[k]
        if not (cr or ci):
            continue
        s = k - dg
        scaled = cr % lead or ci % lead
        if scaled:
            r = [(lead * x, lead * y) for x, y in r[:k]]
        else:
            cr, ci = cr // lead, ci // lead
            del r[k:]
        for j in range(dg):
            gr, gi = g[j]
            xr, xi = r[s + j]
            r[s + j] = (xr - cr * gr + ci * gi, xi - cr * gi - ci * gr)
        if scaled:
            content = math.gcd(*[x for pair in r for x in pair])
            if content > 1:
                r = [(x // content, y // content) for x, y in r]
    return not any(x or y for x, y in r[:dg])


def certified_gcd(polys, parts, n):
    """The monic gcd over Q(i) of every f^(k), f in polys and k < n, as a
    `RationalPoly`, or None when the certificate cannot decide.

    parts holds each f's `mult_part_mod_p`.  A constant gcd modulo P proves
    the gcd over Q(i) constant.  Otherwise the gcd modulo P is reconstructed
    coefficient by coefficient and returned only if it divides every f^(k)
    exactly: a common divisor of at least the exact gcd's degree is that gcd.
    """
    if any(h is None for h in parts):
        return None
    g = parts[0]
    for h in parts[1:]:
        if len(g) == 1:
            break
        g = _gcd_mod_p(g, h)
    if len(g) == 1:
        return RationalPoly([1])
    values = [(_reconstruct(a), _reconstruct(b)) for a, b in _monic(g)]
    if any(q is None for pair in values for q in pair):
        return None
    # monic, so its pairs lead with the positive int den
    candidate = RationalPoly([GaussianRational(re, im) for re, im in values])
    for poly in polys:
        f = poly.pairs
        for _ in range(n):
            if not _divides(candidate.pairs, f):
                return None
            f = _derivative(f)
    return candidate
