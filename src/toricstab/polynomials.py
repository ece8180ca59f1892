"""Exact univariate polynomial systems and the bounded-multiplicity membership test.

Coefficient-form polynomials live over the Gaussian rationals, the largest
exactly representable subfield the gcd and jet computations need.  Root-form
polynomials are float multisets and are an input representation, never
computed from coefficients.

Membership in coefficient form is certified modulo P = 2^61 - 1, the prime
`exactla.rank` uses.  P is 3 mod 4, so F_P[i] is the field F_(P^2), and the
gcd of f_i, f_i', ..., f_i^(n-1) over a primitive collection is taken there
by the pair-list arithmetic of `modular`.  The bound is one-sided: when P
divides no denominator of the f_i, the monic gcd over Q(i), a monic factor
of monic f_i, has none either, and it reduces to a divisor of the gcd
modulo P.  A constant gcd modulo P therefore proves the collection
harmless.  A non-constant one is rationally reconstructed (Wang 1981; von
zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 5-6) and verified on
Gaussian integers: scaled by its denominators, it must leave a zero
pseudo-remainder on every f_i^(k).  A divisor of the exact gcd of at least
its degree is the exact gcd.  Where the certificate cannot decide (a
denominator divisible by P, a failed reconstruction or division) that
collection falls back to `mult_part` and `gcd_monic`, Euclid over Q(i).

Floats are plain Python complex numbers, and no verdict rests on them.  The
float helpers serve the root form and the witnesses: `_expand` multiplies out
a root multiset one factor (z - a) at a time, `_horner` and
`_formal_derivative` evaluate and differentiate ascending coefficient lists,
and `_aberth_roots` finds the roots of a polynomial with simple roots by the
Aberth-Ehrlich iteration (Aberth 1973), started on the circle of Cauchy's
root bound.  `witness_roots` feeds it the exact squarefree part of a witness
factor, so the package needs nothing beyond the standard library.
"""

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import JET_COEFFICIENT_CAP, CapExceededError, PointInProduct, primitive_collections

ROOT_CLUSTER_TOL = 1e-6
ABERTH_TOL = 1e-12
ABERTH_MAX_ITER = 100
ABERTH_START_ANGLE = 0.7
# the unit roundoff 2^-53 times 4: a complex product or sum rounds by at most
# 2 * sqrt(2) times the unit roundoff of each part
ABERTH_ROUNDING = 4 * 2.0 ** -53
# Python's default limit on the digits of an int converted from or to str
MAX_COEFFICIENT_DIGITS = 4300


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


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_pair(cls, pair):
        if len(pair) != 2:
            raise ValueError("coefficient must be a [re, im] pair")
        return cls(_rational(pair[0]), _rational(pair[1]))

    def to_pair(self):
        return [str(self.re), str(self.im)]

    def to_complex(self):
        return complex(self.re, self.im)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            return (GaussianRational(1) / self) ** (-exponent)
        out = GaussianRational(1)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class RationalPoly:
    """Univariate polynomial with GaussianRational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("RationalPoly is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def from_roots(cls, root_mults):
        """Exact expansion of prod (z - alpha)^mult; result is monic."""
        out = cls((_ONE,))
        for alpha, mult in root_mults:
            a = alpha if isinstance(alpha, GaussianRational) else GaussianRational(alpha)
            factor = cls((-a, _ONE))
            for _ in range(int(mult)):
                out = out * factor
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == _ONE

    def __eq__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RationalPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            o = other if isinstance(other, GaussianRational) else GaussianRational(other)
            return RationalPoly([c * o for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return RationalPoly.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        """Exact division with remainder over the coefficient field."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RationalPoly.zero(), self
        quo = [_ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return RationalPoly(quo), RationalPoly(rem)

    def monic(self):
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return RationalPoly([c / lead for c in self.coeffs])

    def evaluate(self, x):
        """Horner evaluation; exact for GaussianRational x, float otherwise."""
        if isinstance(x, GaussianRational):
            acc = _ZERO
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        return _horner(self.to_complex_coeffs(), complex(x))

    def to_complex_coeffs(self):
        return [c.to_complex() for c in self.coeffs]

    def __repr__(self):
        return f"RationalPoly({[repr(c) for c in self.coeffs]})"


def derivative(poly, order=1):
    """Formal derivative of the given order, exactly: c_i z^i becomes
    c_i i! / (i - order)! z^(i - order)."""
    order = int(order)
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    cs = poly.coeffs
    return RationalPoly([cs[i] * math.perm(i, order) for i in range(order, len(cs))])


@dataclass(frozen=True)
class JetTuple:
    """The tuple (f, f + f', f + f'', ...) truncated at order n."""

    entries: tuple

    def evaluate(self, x):
        return tuple(e.evaluate(x) for e in self.entries)


def jet(poly, n):
    if n < 1:
        raise ValueError("jet order must be positive")
    CapExceededError.check(n * (poly.degree + 1), JET_COEFFICIENT_CAP,
                           "jet capped at {cap} coefficients per polynomial")
    entries = [poly]
    for j in range(1, n):
        entries.append(poly + derivative(poly, j))
    return JetTuple(tuple(entries))


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
    if n < 1:
        raise ValueError("n must be positive")
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
    coeffs = [b[0]]
    for k in range(1, len(b)):
        coeffs.append((b[k] - b[0]) * Fraction(1, math.factorial(k)))
    return RationalPoly(coeffs)


def n_of(degrees):
    return sum(int(d) for d in degrees)


def phi_map(degrees, w):
    """Canonical homeomorphism of C onto the half plane Re < sum(degrees)."""
    total = n_of(degrees)
    z = complex(w)
    return complex(total - math.exp(-z.real), z.imag)


@dataclass(frozen=True)
class RootPoly:
    """Monic polynomial given by its root multiset (float roots, int multiplicities)."""

    roots: tuple

    def __post_init__(self):
        rs = tuple((complex(a), int(m)) for a, m in self.roots)
        if any(m < 1 for _, m in rs):
            raise ValueError("multiplicities must be >= 1")
        object.__setattr__(self, "roots", rs)

    @property
    def degree(self):
        return sum(m for _, m in self.roots)

    def expanded_complex_coeffs(self):
        """Ascending complex coefficients of the monic expansion."""
        return _expand(a for a, m in self.roots for _ in range(m))

    def clusters(self, tol=ROOT_CLUSTER_TOL):
        """Root clusters at relative tolerance, as (center, total multiplicity)."""
        items = list(self.roots)
        parent = list(range(len(items)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if _close(items[i][0], items[j][0], tol):
                    parent[find(i)] = find(j)
        groups = {}
        for i, (a, m) in enumerate(items):
            groups.setdefault(find(i), []).append((a, m))
        out = []
        for members in groups.values():
            total = sum(m for _, m in members)
            center = sum(a * m for a, m in members) / total
            out.append((center, total))
        return out


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- float helpers -------------------------------------------------------------

def _expand(roots):
    """Ascending complex coefficients of prod (z - a) over the given roots."""
    coeffs = [1 + 0j]
    for a in roots:
        shifted = [0j] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] -= a * c
        coeffs = shifted
    return coeffs


def _horner(coeffs, z):
    """Value at z of the polynomial with ascending coefficients coeffs."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_with_bound(coeffs, z):
    """(p(z), e): Horner's value with its running error bound (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Alg. 5.1), so that the
    computed value is within e of the exact one.  The bound's unit roundoff
    is scaled by ABERTH_ROUNDING for complex products and sums.
    """
    acc = 0j
    mu = 0.0
    r = abs(z)
    for c in reversed(coeffs):
        acc = acc * z + c
        mu = mu * r + abs(acc)
    return acc, ABERTH_ROUNDING * (2 * mu - abs(acc))


def _formal_derivative(coeffs):
    return [c * k for k, c in enumerate(coeffs)][1:]


def _cauchy_bound(p):
    """Cauchy's root bound of a monic p: the positive root of x^d - sum_{i<d} |p_i| x^i.

    With L = max |p_i|^(1/(d-i)) the bound lies in [L, 2L]; bisection keeps the
    upper end, so every root of p lies in the closed disc of the returned radius.
    """
    mags = [abs(c) for c in p[:-1]]
    degree = len(mags)
    lo = max(m ** (1 / (degree - i)) for i, m in enumerate(mags))
    if not lo:
        return 0.0
    hi = 2 * lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if sum(m * mid ** (i - degree) for i, m in enumerate(mags)) < 1:
            hi = mid
        else:
            lo = mid
    return hi


def _aberth_roots(coeffs):
    """Roots of a polynomial with simple roots by the Aberth-Ehrlich iteration.

    coeffs are ascending complex floats with a nonzero leading coefficient.
    The start is deterministic: the deg(p) points of the circle of the Cauchy
    root bound, turned by a fixed angle off the real axis.  Each sweep moves
    every approximation z_k in place by p / (p' - p * sum_{j != k} 1/(z_k - z_j)).
    The iteration stops after a sweep in which every correction is below
    ABERTH_TOL * max(1, |z_k|) or every |p(z_k)| is within Horner's running
    error bound, so at rounding level where no further sweep can help, or
    after ABERTH_MAX_ITER sweeps.
    """
    lead = coeffs[-1]
    p = [c / lead for c in coeffs]
    degree = len(p) - 1
    if degree < 1:
        return []
    dp = _formal_derivative(p)
    radius = _cauchy_bound(p)
    zs = [cmath.rect(radius, 2 * math.pi * k / degree + ABERTH_START_ANGLE) for k in range(degree)]
    for _ in range(ABERTH_MAX_ITER):
        converged = at_rounding = True
        for k, z in enumerate(zs):
            value, bound = _horner_with_bound(p, z)
            if not value:
                continue
            if abs(value) > bound:
                at_rounding = False
            denom = _horner(dp, z) - value * sum(1 / (z - w) for w in zs if w != z)
            if not denom:
                converged = False
                continue
            step = value / denom
            zs[k] = z - step
            if abs(step) > ABERTH_TOL * max(1.0, abs(z)):
                converged = False
        if converged or at_rounding:
            break
    return zs


class PolySystem:
    """Tuple of monic polynomials, all in coefficient form or all in root form."""

    __slots__ = ("form", "polys", "degrees")

    def __init__(self, form, polys, degrees):
        if form not in ("coefficient", "root"):
            raise ValueError(f"unknown system form {form!r}")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "polys", tuple(polys))
        object.__setattr__(self, "degrees", tuple([int(d) for d in degrees]))
        if len(self.polys) != len(self.degrees):
            raise ValueError("degree vector length must match polynomial count")
        if any(d < 1 for d in self.degrees):
            raise ValueError("all degrees must be >= 1")

    def __setattr__(self, *_):
        raise AttributeError("PolySystem is immutable")

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


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    representation: str
    witness_collection: tuple = None
    witness_factor: RationalPoly = None
    witness_root: complex = None

    def __bool__(self):
        return self.member


def is_member(system, fan, n):
    """Whether no primitive collection shares a root of multiplicity >= n.

    Coefficient form decides exactly through the gcd of f_i, f_i', ...,
    f_i^(n-1) over each primitive collection, certified modulo P = 2^61 - 1
    first.  The f_i are monic, so when P divides none of their denominators
    the monic gcd over Q(i) reduces to a divisor of the gcd modulo P, and a
    constant gcd modulo P proves the collection harmless: the bound is
    one-sided, as `exactla.rank` is.  A non-constant gcd modulo P is
    rationally reconstructed and must divide every f_i^(k), checked by
    pseudo-division on Gaussian integers; a common divisor of at least the
    exact gcd's degree is that gcd.  What the certificate cannot decide (a
    denominator divisible by P, a failed reconstruction or division) falls
    back to `mult_part` and `gcd_monic` on that collection only, so the
    verdict, the collection and the factor are those of Euclid over Q(i).

    Root form clusters the declared roots at relative tolerance
    ROOT_CLUSTER_TOL.  On failure the result carries the offending
    collection and the common factor or root.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    prims = sorted(primitive_collections(fan), key=lambda s: (len(s), sorted(s)))
    if system.r != fan.ray_count:
        raise ValueError(f"system has {system.r} polynomials, fan has {fan.ray_count} rays")

    if system.form == "coefficient":
        # imported on first use: toricctl commands that never test
        # membership then do not load it at start-up
        from .modular import certified_gcd, mult_part_mod_p

        parts, mod_parts = {}, {}

        def part(i):
            if i not in parts:
                parts[i] = mult_part(system.polys[i], n)
            return parts[i]

        def mod_part(i):
            if i not in mod_parts:
                mod_parts[i] = mult_part_mod_p(system.polys[i], n)
            return mod_parts[i]

        for sigma in prims:
            idx = sorted(sigma)
            pairs = certified_gcd([system.polys[i] for i in idx], [mod_part(i) for i in idx], n)
            if pairs is not None:
                g = RationalPoly([GaussianRational(re, im) for re, im in pairs])
            else:
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
        return MembershipResult(member=True, representation="coefficient")

    clusters = [p.clusters() for p in system.polys]
    heavy = [[(c, m) for c, m in cl if m >= n] for cl in clusters]
    for sigma in prims:
        idx = sorted(sigma)
        for alpha, _ in heavy[idx[0]]:
            if all(any(_close(alpha, beta, ROOT_CLUSTER_TOL) for beta, _ in heavy[i])
                   for i in idx[1:]):
                return MembershipResult(
                    member=False,
                    representation="root",
                    witness_collection=tuple(idx),
                    witness_root=alpha,
                )
    return MembershipResult(member=True, representation="root")


def witness_roots(result):
    """Float roots of a failed membership check, each distinct root once.

    A root-form verdict carries its root.  A coefficient-form verdict carries
    an exact common factor g; its squarefree part g / gcd(g, g') over Q(i) has
    the same roots, all simple, and `_aberth_roots` finds them.
    """
    if result.member:
        return []
    if result.witness_root is not None:
        return [result.witness_root]
    g = result.witness_factor
    squarefree = g.divmod(gcd_monic(g, derivative(g)))[0]
    return _aberth_roots(squarefree.to_complex_coeffs())


def stabilize(system, shifts):
    """Degree-raising stabilization of a root-form system.

    Every root is pushed into the half plane Re < N(D) through phi_map and
    shifts[i] copies of the anchor N(D) + (i + 1) are appended to the i-th
    polynomial, raising the degrees by the shift vector.
    """
    if system.form != "root":
        raise ValueError("stabilize needs a root-form system")
    a = [int(x) for x in shifts]
    if len(a) != system.r:
        raise ValueError(f"shift vector must have length {system.r}")
    if any(x < 0 for x in a):
        raise ValueError("shift entries must be >= 0")
    if not any(a):
        raise ValueError("shift vector must be nonzero")
    degrees = system.degrees
    total = n_of(degrees)
    new_polys = []
    for i, poly in enumerate(system.polys):
        moved = []
        for alpha, m in poly.roots:
            try:
                moved.append((phi_map(degrees, alpha), m))
            except OverflowError:
                raise ValueError(
                    f"polynomial {i}: root {alpha} is too far left for phi_map "
                    "(exp(-Re) overflows a float)"
                ) from None
        if a[i]:
            moved.append((complex(total + i + 1), a[i]))
        new_polys.append(RootPoly(tuple(moved)))
    return PolySystem("root", tuple(new_polys), tuple(d + x for d, x in zip(degrees, a)))


def evaluate_jet(system, n, alpha):
    """The point of (C^n)^r with blocks given by the order-n jets at alpha."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    blocks = []
    if system.form == "coefficient":
        for poly in system.polys:
            values = jet(poly, n).evaluate(alpha)
            blocks.append(tuple(
                v.to_complex() if isinstance(v, GaussianRational) else complex(v)
                for v in values
            ))
    else:
        z = complex(alpha)
        for poly in system.polys:
            deriv = poly.expanded_complex_coeffs()
            base = _horner(deriv, z)
            entry = [base]
            for _ in range(1, n):
                deriv = _formal_derivative(deriv)
                entry.append(base + _horner(deriv, z))
            blocks.append(tuple(entry))
    return PointInProduct(tuple(blocks))


# -- JSON --------------------------------------------------------------------

class SystemJsonError(ValueError):
    def __init__(self, message, pointer=""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer
        self.message = message


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
        "roots": [[[a.real, a.imag, m] for a, m in p.roots] for p in system.polys],
    }


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
                poly = RationalPoly([GaussianRational.from_pair(c) for c in coeffs])
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
            try:
                triples = [(complex(a, b), m) for a, b, m in rl]
            except (TypeError, ValueError, OverflowError) as exc:
                raise SystemJsonError(f"bad root triple: {exc}", f"/roots/{i}") from exc
            for j, ((alpha, m), (a, b, _)) in enumerate(zip(triples, rl)):
                if type(a) not in (int, float) or type(b) not in (int, float):
                    raise SystemJsonError("root coordinates must be numbers", f"/roots/{i}/{j}")
                if not cmath.isfinite(alpha):
                    raise SystemJsonError("root coordinates must be finite", f"/roots/{i}/{j}")
                if not _is_count(m):
                    raise SystemJsonError(
                        f"root multiplicity must be an integer >= 1, got {json.dumps(m)}",
                        f"/roots/{i}/{j}",
                    )
            lists.append(tuple(triples))
        return PolySystem.root_system(lists)
    raise SystemJsonError("system document needs either 'polys' or 'roots'")
