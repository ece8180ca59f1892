"""Exact univariate polynomial systems and the bounded-multiplicity membership test.

Coefficient-form polynomials are `RationalPoly`s over Q(i): ascending
(re, im) Gaussian-integer pairs over one positive denominator, in lowest
terms, so products, division, derivatives and gcds all run on ints.
`GaussianRational` is the value at the boundary: JSON pairs, roots and
evaluation points.  Root-form polynomials are `RootPoly`s, multisets of
exact Gaussian-rational roots; they are an input representation, never
computed from coefficients, and equal roots merge by exact equality.
`stabilize` moves roots by the rational homeomorphism `phi_map`, so a root
form stays exact at every stabilization depth.

Membership in coefficient form is certified modulo P = 2^61 - 1, the prime
`exactla.rank` uses.  P is 3 mod 4, so F_P[i] is the field F_(P^2), and the
gcd of f_i, f_i', ..., f_i^(n-1) over a primitive collection is taken there
by the pair-list arithmetic of `modular`.  The bound is one-sided: when P
divides no denominator of the f_i, the monic gcd over Q(i), a monic factor
of monic f_i, has none either, and it reduces to a divisor of the gcd
modulo P.  A constant gcd modulo P therefore proves the collection
harmless, and for a single f_i it proves that f_i has no root of
multiplicity >= n.  A non-constant one is rationally reconstructed (Wang 1981; von
zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 5-6) and verified on
Gaussian integers: scaled by its denominators, it must leave a zero
pseudo-remainder on every f_i^(k).  A divisor of the exact gcd of at least
its degree is the exact gcd.  Where the certificate cannot decide (a
denominator divisible by P, a failed reconstruction or division) that
collection falls back to `mult_part` and `gcd_monic`, Euclid over Q(i).
"""

import json
import math
from fractions import Fraction
from itertools import zip_longest

from . import CapExceededError, JsonPointerError, Record, UndefinedValueError, read_int
from .complexes import PointInProduct, collections_inside, underlying_complex

# Python's default limit on the digits of an int converted from or to str
MAX_COEFFICIENT_DIGITS = 4300

# Largest coefficient count n (deg + 1) jet builds for one polynomial;
# toricctl prints two degree-2 jets at the cap in 0.8 s, 96 MB.
JET_COEFFICIENT_CAP = 1 << 16
_ZERO = Fraction(0)


def _rational(value):
    """Fraction of an int, a float or a decimal, fraction or exponent string.

    Exponent notation is read before Fraction sees it: when the mantissa's
    digits plus the exponent's magnitude exceed MAX_COEFFICIENT_DIGITS it
    raises ValueError, so no huge power of ten is built and every value
    read can be printed back.
    """
    text = str(value)
    if "e" in text or "E" in text:
        mantissa, _, exponent = text.lower().rpartition("e")
        if sum(c.isdigit() for c in mantissa) + abs(int(exponent)) > MAX_COEFFICIENT_DIGITS:
            raise ValueError(f"exponent notation beyond {MAX_COEFFICIENT_DIGITS} digits")
    return Fraction(text)


class GaussianRational(Record):
    """a + b*i with exact rational a, b: the value type of JSON pairs, roots
    and evaluation points.  Arithmetic on Q(i) happens in `RationalPoly`."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("Gaussian rational parts must be ints or Fractions")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _of(cls, re, im):
        """re + im*i for two Fractions, which are kept as they are."""
        out = cls.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def to_pair(self):
        try:
            return [str(self.re), str(self.im)]
        except ValueError:  # an int beyond the digits Python prints
            raise CapExceededError(
                f"a value has more than {MAX_COEFFICIENT_DIGITS} digits to print") from None

    def to_complex(self):
        return complex(self.re, self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # the int parts of the lowest-terms Fractions hash faster than Fraction does
        re, im = self.re, self.im
        return hash((re.numerator, re.denominator, im.numerator, im.denominator))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


def _exact(value):
    """The GaussianRational of a GaussianRational, or of an int, float, Fraction
    or complex read part by part; a float is the dyadic rational it stores."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, complex):
        return GaussianRational._of(_fraction(value.real), _fraction(value.imag))
    return GaussianRational._of(_fraction(value), _ZERO)


def _fraction(x):
    """Fraction(x); a float goes through its integer ratio, which is faster."""
    return Fraction(*x.as_integer_ratio()) if isinstance(x, float) else Fraction(x)


def _integer_pairs(values):
    """(pairs, den): GaussianRationals as (re, im) int pairs over the lcm of
    their denominators."""
    den = math.lcm(*[q.denominator for c in values for q in (c.re, c.im)])
    return [(c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
            for c in values], den


def _product(a, b):
    """The product of two non-empty Gaussian-integer pair lists."""
    re, im = [0] * (len(a) + len(b) - 1), [0] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            re[i + j] += ar * br - ai * bi
            im[i + j] += ar * bi + ai * br
    return list(zip(re, im))


def _times_conjugate(pairs, lead):
    """The Gaussian-integer pairs times the conjugate of lead."""
    lr, li = lead
    return [(x * lr + y * li, y * lr - x * li) for x, y in pairs]


class RationalPoly(Record):
    """Univariate polynomial over Q(i): ascending coefficients pairs[k] / den.

    `pairs` holds (re, im) int pairs, the last one nonzero; `den` is
    positive and shares no factor with all of them, so equal polynomials
    have equal data.  Every operation runs on these ints; `coeffs` builds
    GaussianRationals for printing.
    """

    __slots__ = ("pairs", "den")

    def __init__(self, coeffs):
        """From ascending ints, Fractions or GaussianRationals; a float raises TypeError."""
        self._store(*_integer_pairs(
            [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs]))

    @classmethod
    def _from_pairs(cls, pairs, den=1):
        """The polynomial with coefficients pairs[k] / den, for (re, im) int
        pairs and a positive int den."""
        out = cls.__new__(cls)
        out._store(list(pairs), den)
        return out

    def _store(self, pairs, den):
        """Keep the list pairs over den in lowest terms, without trailing zeros."""
        while pairs and pairs[-1] == (0, 0):
            pairs.pop()
        g = math.gcd(den, *[x for pair in pairs for x in pair])
        if g != 1:
            pairs = [(x // g, y // g) for x, y in pairs]
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def from_roots(cls, root_mults):
        """Exact expansion of prod (z - alpha)^mult; result is monic.

        alpha = a / d with a Gaussian integer a, and each factor is d z - a over d.
        """
        pairs, den = [(1, 0)], 1
        for alpha, mult in root_mults:
            [(ar, ai)], d = _integer_pairs(
                [alpha if isinstance(alpha, GaussianRational) else GaussianRational(alpha)])
            for _ in range(read_int(mult, "multiplicities")):
                pairs, den = _product(pairs, [(-ar, -ai), (d, 0)]), den * d
        return cls._from_pairs(pairs, den)

    @property
    def coeffs(self):
        """The ascending coefficients as GaussianRationals."""
        den = self.den
        return tuple([GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in self.pairs])

    @property
    def degree(self):
        return len(self.pairs) - 1

    @property
    def is_zero(self):
        return not self.pairs

    @property
    def is_monic(self):
        return bool(self.pairs) and self.pairs[-1] == (self.den, 0)

    def __hash__(self):
        return hash((self.pairs, self.den))

    def __add__(self, other):
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        pairs = zip_longest(self.pairs, other.pairs, fillvalue=(0, 0))
        return RationalPoly._from_pairs([(sa * x + sb * u, sa * y + sb * v) for (x, y), (u, v) in pairs], den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalPoly._from_pairs([(-x, -y) for x, y in self.pairs], self.den)

    def __mul__(self, other):
        """Product with a polynomial, or with an int, Fraction or GaussianRational."""
        if not isinstance(other, RationalPoly):
            other = RationalPoly((other,))
        if self.is_zero or other.is_zero:
            return RationalPoly(())
        return RationalPoly._from_pairs(_product(self.pairs, other.pairs), self.den * other.den)

    __rmul__ = __mul__

    def divmod(self, other):
        """Exact division with remainder over Q(i).

        Pseudo-division on Gaussian integers by other's pairs times the
        conjugate of their lead, whose lead is then the integer norm N.  A
        step whose leading pair N does not divide first scales the remainder
        and the quotient so far by N.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(self.pairs) - len(other.pairs)
        if dq < 0:
            return RationalPoly(()), self
        lead = other.pairs[-1]
        b = _times_conjugate(other.pairs, lead)
        norm, db = b[-1][0], len(b) - 1
        rem, quo, scale = list(self.pairs), [(0, 0)] * (dq + 1), 1
        for k in range(dq, -1, -1):
            cr, ci = rem.pop()
            if not (cr or ci):
                continue
            if cr % norm or ci % norm:
                rem = [(norm * x, norm * y) for x, y in rem]
                quo = [(norm * x, norm * y) for x, y in quo]
                scale *= norm
            else:
                cr, ci = cr // norm, ci // norm
            quo[k] = (cr, ci)
            for j in range(db):
                br, bi = b[j]
                xr, xi = rem[k + j]
                rem[k + j] = (xr - cr * br + ci * bi, xi - cr * bi - ci * br)
        # scale * self.den * self = quo * b + rem, and b = other.den * conj(lead) * other
        quo = [(other.den * x, other.den * y) for x, y in _times_conjugate(quo, lead)]
        den = scale * self.den
        return RationalPoly._from_pairs(quo, den), RationalPoly._from_pairs(rem, den)

    def monic(self):
        """The pairs times the conjugate of the lead, over the lead's norm."""
        if self.is_zero:
            return self
        lr, li = lead = self.pairs[-1]
        return RationalPoly._from_pairs(_times_conjugate(self.pairs, lead), lr * lr + li * li)

    def evaluate(self, x):
        """Exact Horner evaluation at anything `_exact` reads, so a float x is
        the dyadic rational it stores."""
        if self.is_zero:
            return GaussianRational()
        # x = (xr + xi i) / d: the sum of c_k (xr + xi i)^k d^(deg - k) on ints
        [(xr, xi)], d = _integer_pairs([_exact(x)])
        re = im = 0
        for k, (cr, ci) in enumerate(reversed(self.pairs)):
            re, im = re * xr - im * xi + cr * d ** k, re * xi + im * xr + ci * d ** k
        den = self.den * d ** self.degree
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def __repr__(self):
        return f"RationalPoly({[repr(c) for c in self.coeffs]})"


def derivative(poly, order=1):
    """Formal derivative of the given order, exactly: c_i z^i becomes
    c_i i! / (i - order)! z^(i - order)."""
    order = read_int(order, "derivative order", 0)
    out = []
    for i, (x, y) in enumerate(poly.pairs[order:], order):
        f = math.perm(i, order)
        out.append((x * f, y * f))
    return RationalPoly._from_pairs(out, poly.den)


def jet(poly, n):
    """The tuple (f, f + f', f + f'', ...) truncated at order n."""
    n = read_int(n, "n")
    CapExceededError.check(n * (poly.degree + 1), JET_COEFFICIENT_CAP,
                           "jet capped at {cap} coefficients per polynomial")
    entries = [poly]
    for j in range(1, n):
        entries.append(poly + derivative(poly, j))
    return tuple(entries)


def gcd_monic(f, g):
    """Monic gcd by the Euclidean algorithm over the coefficient field."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
        b = b.monic() if not b.is_zero else b
    if a.is_zero:
        return a
    return a.monic()


def mult_part(f, n):
    """Monic gcd(f, f', ..., f^(n-1)).

    Its roots are exactly the roots of f of multiplicity >= n, each with
    multiplicity lowered by n - 1.
    """
    if f.is_zero:
        raise ValueError("mult_part of the zero polynomial")
    n = read_int(n, "n")
    g = f.monic()
    for order in range(1, n):
        if g.degree == 0:
            break
        g = gcd_monic(g, derivative(f, order))
    return g


def jet_section(values):
    """The canonical polynomial with prescribed jet at the origin.

    For b = (b_0, ..., b_{n-1}) returns b_0 + sum (b_k - b_0) z^k / k!,
    of degree at most n - 1 and in general not monic.
    """
    b = [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values]
    if not b:
        raise ValueError("jet values must be non-empty")
    pairs, den = _integer_pairs(b)
    # over den * (n-1)!: b_0 (n-1)!, then (b_k - b_0) (n-1)! / k!
    (r0, i0), top = pairs[0], math.factorial(len(pairs) - 1)
    diffs = [(r0, i0)] + [(x - r0, y - i0) for x, y in pairs[1:]]
    scales = [top // math.factorial(k) for k in range(len(diffs))]
    return RationalPoly._from_pairs([(s * x, s * y) for s, (x, y) in zip(scales, diffs)], den * top)


def n_of(degrees):
    return sum(read_int(d, "all degrees") for d in degrees)


def phi_map(degrees, w):
    """Homeomorphism of C onto the half plane Re < N, N = sum(degrees), exact on Q(i).

    The real part goes through h(x) = x for x <= N - 1 and N - 1/(x - N + 2)
    above: continuous, increasing and onto (-inf, N), rational, so it never
    overflows.  The imaginary part is kept.
    """
    total = n_of(degrees)
    z = _exact(w)
    if z.re <= total - 1:
        return z
    return GaussianRational._of(total - 1 / (z.re - total + 2), z.im)


class RootPoly(Record):
    """Monic polynomial given by its root multiset: (GaussianRational, int
    multiplicity) pairs, equal roots merged in order of first appearance.

    Roots may be given as anything `_exact` reads, so complex floats count
    as the dyadic rationals they store.
    """

    __slots__ = ("roots",)

    def __init__(self, roots):
        merged = {}
        for a, m in roots:
            m = read_int(m, "multiplicities")
            a = _exact(a)
            merged[a] = merged.get(a, 0) + m
        super().__init__(tuple(merged.items()))

    @property
    def degree(self):
        return sum(m for _, m in self.roots)


class PolySystem(Record):
    """Tuple of monic polynomials, all in coefficient form or all in root form."""

    __slots__ = ("form", "polys", "degrees")

    def __init__(self, form, polys, degrees):
        if form not in ("coefficient", "root"):
            raise ValueError(f"unknown system form {form!r}")
        polys, degrees = tuple(polys), tuple(degrees)
        if len(polys) != len(degrees):
            raise UndefinedValueError("degree vector length must match polynomial count")
        degrees = tuple([read_int(d, "all degrees") for d in degrees])
        super().__init__(form, polys, degrees)

    @classmethod
    def coefficient_system(cls, polys):
        ps = tuple(polys)
        for i, p in enumerate(ps):
            if not p.is_monic:
                raise ValueError(f"polynomial {i} is not monic")
        return cls("coefficient", ps, tuple(p.degree for p in ps))

    @classmethod
    def root_system(cls, root_lists):
        ps = tuple(RootPoly(tuple(rl)) if not isinstance(rl, RootPoly) else rl for rl in root_lists)
        return cls("root", ps, tuple(p.degree for p in ps))

    @property
    def r(self):
        return len(self.polys)


class MembershipResult(Record):
    __slots__ = ("member", "representation", "witness_collection", "witness_factor", "witness_root")

    def __init__(self, member, representation, witness_collection=None, witness_factor=None,
                 witness_root=None):
        super().__init__(member, representation, witness_collection, witness_factor, witness_root)

    def __bool__(self):
        return self.member


def is_member(system, fan, n):
    """Whether no primitive collection shares a root of multiplicity >= n.

    A system is a member exactly when the polynomials with a root of
    multiplicity >= n index a face of K_Sigma, so a face test decides most
    systems and only the primitive collections inside that set can fail.
    Root form reads the set off its exact roots.  Coefficient form starts
    from all rays and, while they index no face, drops f_0, f_1, ... as long
    as the multiplicity part modulo P = 2^61 - 1 is constant, which proves no
    heavy root; it stops at the first polynomial not so proven.  Both forms
    then try the collections inside what is left in the order of all
    collections: by size, then by sorted indices.  Root form intersects the
    sets of roots of multiplicity >= n.  Coefficient form skips a collection
    with a constant part modulo P and takes the gcd of f_i, f_i', ...,
    f_i^(n-1) over the others: by the certificate described above, and where
    it cannot decide by `mult_part` and `gcd_monic`, so the verdict, the
    collection and the factor are those of Euclid over Q(i).  On failure the
    result carries the offending collection and the common factor, or the
    first common root in the order of the collection's first polynomial.
    """
    n = read_int(n, "n")
    complex_ = underlying_complex(fan)
    if system.r != fan.ray_count:
        raise UndefinedValueError(f"system has {system.r} polynomials, fan has {fan.ray_count} rays")

    if system.form == "root":
        heavy = [frozenset(a for a, m in p.roots if m >= n) for p in system.polys]
        rest = {i for i, h in enumerate(heavy) if h}
    else:
        # imported here, not at module level: modular imports polynomials
        from .modular import certified_gcd, mult_part_mod_p

        parts, mod_parts = {}, {}

        def part(i):
            if i not in parts:
                parts[i] = mult_part(system.polys[i], n)
            return parts[i]

        def light(i):
            if i not in mod_parts:
                mod_parts[i] = mult_part_mod_p(system.polys[i], n)
            return mod_parts[i] is not None and len(mod_parts[i]) == 1

        # singletons are faces, so the walk stops before it runs out of rays
        rest, i = set(range(system.r)), 0
        while not complex_.is_face(rest) and light(i):
            rest.discard(i)
            i += 1
    if complex_.is_face(rest):
        return MembershipResult(True, system.form)

    for idx in sorted(map(sorted, collections_inside(complex_, rest)), key=lambda s: (len(s), s)):
        if system.form == "root":
            common = heavy[idx[0]].intersection(*[heavy[i] for i in idx[1:]])
            if common:
                return MembershipResult(
                    member=False,
                    representation="root",
                    witness_collection=tuple(idx),
                    witness_root=next(a for a, _ in system.polys[idx[0]].roots if a in common),
                )
        elif not any(light(i) for i in idx):
            g = certified_gcd([system.polys[i] for i in idx], [mod_parts[i] for i in idx], n)
            if g is None:
                g = part(idx[0])
                for i in idx[1:]:
                    if g.degree == 0:
                        break
                    g = gcd_monic(g, part(i))
            if g.degree >= 1:
                return MembershipResult(
                    member=False,
                    representation="coefficient",
                    witness_collection=tuple(idx),
                    witness_factor=g,
                )
    return MembershipResult(True, system.form)


def stabilize(system, shifts):
    """Degree-raising stabilization of a root-form system.

    Every root is pushed into the half plane Re < N(D) through phi_map and
    shifts[i] copies of the anchor N(D) + (i + 1) are appended to the i-th
    polynomial, raising the degrees by the shift vector.
    """
    if system.form != "root":
        raise UndefinedValueError("stabilize needs a root-form system")
    a = list(shifts)
    if len(a) != system.r:
        raise UndefinedValueError(f"shift vector must have length {system.r}")
    a = [read_int(x, "shift entries", 0) for x in a]
    if not any(a):
        raise UndefinedValueError("shift vector must be nonzero")
    degrees = system.degrees
    total = n_of(degrees)
    new_polys = []
    for i, poly in enumerate(system.polys):
        moved = [(phi_map(degrees, alpha), m) for alpha, m in poly.roots]
        if a[i]:
            moved.append((GaussianRational(total + i + 1), a[i]))
        new_polys.append(RootPoly(tuple(moved)))
    return PolySystem("root", tuple(new_polys), tuple(d + x for d, x in zip(degrees, a)))


def evaluate_jet(system, n, alpha):
    """The point of (C^n)^r with blocks given by the order-n jets at alpha."""
    n = read_int(n, "n")
    polys = system.polys
    if system.form == "root":
        polys = [RationalPoly.from_roots(p.roots) for p in polys]
    return PointInProduct([[e.evaluate(alpha) for e in jet(poly, n)] for poly in polys])


# -- JSON --------------------------------------------------------------------

class SystemJsonError(JsonPointerError):
    """A defect in a polynomial system document."""


def _is_count(value):
    """Whether a JSON value is an integer >= 1 (JSON true and false are not)."""
    return type(value) is int and value >= 1


def system_to_json(system):
    if system.form == "coefficient":
        return {
            "degrees": list(system.degrees),
            "polys": [[c.to_pair() for c in p.coeffs] for p in system.polys],
        }
    return {
        "roots": [[[*a.to_pair(), m] for a, m in p.roots] for p in system.polys],
    }


def _json_rational(value):
    """(numerator, positive denominator) equal to _rational(value).

    JSON ints and "p" or "p/q" strings of ASCII digits are read directly;
    any other value, or one that could fail there (too many digits, a zero
    denominator), goes through _rational and raises its error.
    """
    if type(value) is int and value.bit_length() <= 3 * MAX_COEFFICIENT_DIGITS:
        return value, 1
    if type(value) is str and len(value) <= MAX_COEFFICIENT_DIGITS and value.isascii():
        num, slash, den = value.partition("/")
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            den = int(den or 1)
            if den:
                return int(num), den
    q = _rational(value)
    return q.numerator, q.denominator


def _poly_from_json(coeffs):
    """The RationalPoly of JSON [re, im] pairs, each part read by
    _json_rational, as int pairs over the lcm of their denominators.  An
    item that is not a list or tuple of two raises ValueError."""
    parts = []
    for pair in coeffs:
        if type(pair) not in (list, tuple) or len(pair) != 2:
            raise ValueError("coefficient must be a [re, im] pair")
        parts.append(_json_rational(pair[0]) + _json_rational(pair[1]))
    den = math.lcm(*[d for part in parts for d in part[1::2]])
    return RationalPoly._from_pairs(
        [(x * (den // dx), y * (den // dy)) for x, dx, y, dy in parts], den)


def system_from_json(obj):
    if not isinstance(obj, dict):
        raise SystemJsonError("system document must be an object")
    if "polys" in obj:
        degrees = obj.get("degrees")
        if not isinstance(degrees, list) or not degrees:
            raise SystemJsonError("degrees must be a non-empty array", "/degrees")
        for i, d in enumerate(degrees):
            if not _is_count(d):
                raise SystemJsonError(
                    f"degree must be an integer >= 1, got {json.dumps(d)}", f"/degrees/{i}"
                )
        polys = obj["polys"]
        if not isinstance(polys, list) or len(polys) != len(degrees):
            raise SystemJsonError("polys must match degrees in length", "/polys")
        parsed = []
        for i, coeffs in enumerate(polys):
            if not isinstance(coeffs, list) or len(coeffs) != degrees[i] + 1:
                raise SystemJsonError(
                    f"polynomial {i} must list degree+1 = {degrees[i] + 1} coefficients",
                    f"/polys/{i}",
                )
            try:
                poly = _poly_from_json(coeffs)
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise SystemJsonError(f"bad coefficient: {exc}", f"/polys/{i}") from exc
            if poly.degree != degrees[i] or not poly.is_monic:
                raise SystemJsonError(
                    f"polynomial {i} must be monic of degree {degrees[i]}", f"/polys/{i}"
                )
            parsed.append(poly)
        return PolySystem.coefficient_system(parsed)
    if "roots" in obj:
        roots = obj["roots"]
        if not isinstance(roots, list) or not roots:
            raise SystemJsonError("roots must be a non-empty array", "/roots")
        lists = []
        for i, rl in enumerate(roots):
            if not isinstance(rl, list) or not rl:
                raise SystemJsonError("each polynomial needs at least one root", f"/roots/{i}")
            triples = []
            for j, triple in enumerate(rl):
                if type(triple) is not list or len(triple) != 3:
                    raise SystemJsonError("bad root triple: a root is [re, im, multiplicity]",
                                          f"/roots/{i}")
                a, b, m = triple
                if type(a) not in (int, float, str) or type(b) not in (int, float, str):
                    raise SystemJsonError("root coordinates must be numbers or rational strings",
                                          f"/roots/{i}/{j}")
                if not _is_count(m):
                    raise SystemJsonError(
                        f"root multiplicity must be an integer >= 1, got {json.dumps(m)}",
                        f"/roots/{i}/{j}",
                    )
                try:
                    re_part, im_part = Fraction(*_json_rational(a)), Fraction(*_json_rational(b))
                except (ValueError, ZeroDivisionError) as exc:
                    raise SystemJsonError(f"bad root coordinate: {exc}", f"/roots/{i}/{j}") from exc
                triples.append((GaussianRational._of(re_part, im_part), m))
            lists.append(tuple(triples))
        return PolySystem.root_system(lists)
    raise SystemJsonError("system document needs either 'polys' or 'roots'")
