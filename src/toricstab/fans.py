"""Lattice fans: construction, validation, and global predicates.

A fan is stored as primitive integer ray vectors plus the cones it is built
from, each cone being the frozenset of indices of the rays spanning it.
Files carry maximal cones; the other faces are implied (the faces of the
stored cones) and never materialized.

A complete simplicial fan, the kind a non-singular complete toric variety
has, is recognized first by a local certificate: every facet lies in
exactly two cones, on opposite sides of it, and one point is covered by
exactly one cone (the pseudomanifold characterisation of triangulations;
De Loera, Rambau, Santos, Triangulations, 2010).  Every other fan goes
through the pairwise checks.  Their geometric decisions (strong
convexity, face recognition, intersection axiom) ask whether one
feasibility LP, the escape LP, is infeasible.  An integer separating
functional built from weighted ray sums answers most of them first; the
exact LP runs only where that certificate fails.
"""

import re
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul

from . import (CapExceededError, JsonPointerError, Record, UndefinedValueError,
               UnsupportedFanError, complexes, read_int)
from .exactla import echelon, extends_to_basis, lp_feasible, nullspace_int

# Largest number of cone pairs validate_fan checks one by one, counted before
# the first; time grows with the count, about 28 us a pair on a 2-vCPU host.
# A planar path fan in a half plane reaches the pairwise check: 362 cones
# (65,341 pairs) validate in 1.8 s there, and 499 cones in 3.6 s.
CONE_PAIR_CAP = 1 << 16


class FanStructureError(JsonPointerError):
    """Structural defect (bad index, malformed shape) detected before axiom
    checks, located by a pointer into the arguments dim, rays and
    generating_cones."""


class FanJsonError(JsonPointerError):
    """A defect in a fan document."""


class Fan(Record):
    """Rays plus the cones the fan is built from (its listed maximal cones or
    the facets of a complex), deduplicated but not reduced.  The fan's faces
    are the faces of these generating cones, the empty cone included.  The
    maximal cones are decided once, in `complex`, which equality, hashing
    and repr ignore; a Fan has a `__dict__`, where `cached_property` stores
    it without assignment.  Building one raises FanStructureError for a
    defect of shape or type, a non-integer ray entry or a ray index out of
    range.
    """

    def __init__(self, dim, rays, generating_cones):
        rays, cones = _check_structure(dim, rays, generating_cones)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "generating_cones", cones)

    def _key(self):
        return self.dim, self.rays, self.generating_cones

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Fan(dim={self.dim!r}, rays={self.rays!r}, generating_cones={self.generating_cones!r})"

    @property
    def ray_count(self):
        return len(self.rays)

    @property
    def cones(self):
        """Every index subset of a generating cone, the empty one included
        (materialized on demand; intended for small fans)."""
        return frozenset(frozenset(s) for c in self.generating_cones | {frozenset()}
                         for k in range(len(c) + 1) for s in combinations(sorted(c), k))

    def ray_matrix(self):
        """m x r matrix whose columns are the rays."""
        return [[ray[j] for ray in self.rays] for j in range(self.dim)]

    def generators(self, cone):
        return [self.rays[k] for k in sorted(cone)]

    @cached_property
    def complex(self):
        """K_Sigma, kept with its minimal non-faces for the fan's lifetime."""
        return complexes.SimplicialComplex(self.ray_count, self.generating_cones)


def _check_structure(dim, rays, generating_cones):
    """The rays as tuples of ints and the nonempty cones as a frozenset of
    frozensets, or FanStructureError for the first defect of shape."""
    if not _is_integer(dim) or dim < 1:
        raise FanStructureError("ambient dimension must be a positive integer", "/dim")
    checked = []
    for i, ray in enumerate(rays):
        try:
            ray = tuple(ray)
        except TypeError:
            raise FanStructureError(f"ray {i} is not a sequence", f"/rays/{i}") from None
        if len(ray) != dim:
            raise FanStructureError(f"ray {i} has length {len(ray)}, expected {dim}", f"/rays/{i}")
        if not all(map(_is_integer, ray)):
            raise FanStructureError(f"ray {i} has a non-integer entry", f"/rays/{i}")
        checked.append(tuple(map(int, ray)))
    r = len(checked)
    cones = set()
    for j, cone in enumerate(generating_cones):
        try:
            cone = frozenset(cone)
        except TypeError:
            raise FanStructureError(f"cone {cone!r} is not a set of ray indices",
                                    f"/generating_cones/{j}") from None
        for k in cone:
            if not (_is_integer(k) and 0 <= k < r):
                raise FanStructureError(f"cone references ray index {k!r} outside 0..{r - 1}",
                                        f"/generating_cones/{j}")
        if cone:
            cones.add(cone)
    return tuple(checked), frozenset(cones)


def _is_integer(x):
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):  # "a", None, nan, inf
        return False


def _cone_rank(fan, cone):
    if not cone:
        return 0
    return len(echelon(fan.generators(cone))[1])


def _escapes(fan, a, b):
    """Escape LP E(a, b): is some point of cone(a) also in cone(b) with a
    representation that puts weight on a ray outside a & b?

    Variables lambda >= 0 on the rays of a and nu >= 0 on those of b with
    sum lambda_k n_k = sum nu_k n_k and total weight 1 on (a - b) + (b - a).
    By Farkas it is infeasible exactly when some u is 0 on a & b, >= 1 on
    a - b and <= -1 on b - a (the separation lemma), so:
    cone(a) is strongly convex iff not E(a, {}); S <= a spans a face of a
    iff not E(a, S); a and b meet in the common face cone(a & b) iff not
    E(a, b).
    """
    a_idx, b_idx = sorted(a), sorted(b)
    rows = [[fan.rays[k][j] for k in a_idx] + [-fan.rays[k][j] for k in b_idx]
            for j in range(fan.dim)]
    rows.append([int(k not in b) for k in a_idx] + [int(k not in a) for k in b_idx])
    return lp_feasible(rows, [0] * fan.dim + [1]) is not None


def _dot(u, v):
    return sum(map(mul, u, v))


def _separator(fan, cones):
    """Predicate certified(a, b) on the given cones and the empty cone: True
    only when E(a, b) is infeasible, shown by an integer u that is 0 on
    a & b, > 0 on a - b and < 0 on b - a.  On integer rays > 0 means >= 1,
    so u is the functional of the separation lemma in `_escapes`.  False
    means only that this candidate failed.

    The candidate comes from D = sum_{a-b} w_k n_k - sum_{b-a} w_k n_k with
    w_k = t^2 // |n_k|_1 for the largest l1 norm t: about inverse to
    |n_k|_1 and at least t, so rounding moves a weight by under 1/t of it.
    Any positive weights are sound; they only steer how often the test
    succeeds.  The shared rays cancel, so D = S_a - S_b for the weighted
    sums S_c of the cones, and D . n_k is read off the dot products of each
    S_c with every ray, taken once.  A disjoint pair takes u = D; otherwise
    u = sum_v (v . D) v over an integer kernel basis of the shared rays.
    """
    rays = fan.rays
    norms = [sum(abs(x) for x in ray) for ray in rays]
    top = max(norms, default=1)
    weights = [top * top // n if n else 1 for n in norms]
    sums = {frozenset(): [0] * fan.dim}
    for cone in cones:
        sums[cone] = [sum(weights[k] * rays[k][j] for k in cone) for j in range(fan.dim)]
    dots = {cone: [_dot(s, ray) for ray in rays] for cone, s in sums.items()}

    def certified(a, b):
        da, db = dots[a], dots[b]
        shared = a & b
        if not shared:
            return all(da[k] > db[k] for k in a) and all(da[k] < db[k] for k in b)
        d = [x - y for x, y in zip(sums[a], sums[b])]
        u = [0] * fan.dim
        for v in nullspace_int([rays[k] for k in sorted(shared)]):
            c = _dot(v, d)
            u = [x + c * y for x, y in zip(u, v)]
        return (all(_dot(u, rays[k]) > 0 for k in a - b)
                and all(_dot(u, rays[k]) < 0 for k in b - a))

    return certified


def _normal(vectors, m):
    """A nonzero integer vector orthogonal to m - 1 vectors of Z^m, or None
    when they are dependent.  For m <= 3 it is the vector of signed maximal
    minors, (-y, x) or the cross product, which is zero exactly then; larger
    m takes the kernel, one-dimensional exactly then."""
    if m == 2:
        (x, y), = vectors
        u = (-y, x)
    elif m == 3:
        (a, b, c), (d, e, f) = vectors
        u = (b * f - c * e, c * d - a * f, a * e - b * d)
    else:
        basis = nullspace_int(vectors)
        return basis[0] if len(basis) == 1 else None
    return u if any(u) else None


def _complete_simplicial(fan):
    """True only when the maximal cones form a complete simplicial fan.

    The certificate (integer only) asks that m >= 2, that every cone have m
    rays, that every facet (m - 1 rays of a cone) lie in exactly two cones
    whose apexes are strictly on opposite sides of it, and that the probe p,
    the sum of one cone's rays, lie strictly outside every other cone: some
    facet of each has p strictly on the far side from its apex.  Sides are
    read against the facet's `_normal`, any nonzero integer vector
    orthogonal to its rays; its sign cancels, since apexes and p face the
    same normal.  Each facet is read once: where p is off it, p is beyond
    exactly one of its two cones, the one whose apex is on the other side.

    Crossing a facet then keeps the number of cones covering a point, so
    that number is constant off the union of the (m - 2)-faces, which does
    not disconnect R^m for m >= 2.  Near p it is 1, so the cones tile R^m
    and meet in common faces (the pseudomanifold characterisation of
    triangulations: De Loera, Rambau, Santos, Triangulations, 2010).  False
    proves nothing: the pairwise checks decide such fans.
    """
    m, rays = fan.dim, fan.rays
    cones = list(fan.complex.max_faces)
    if m < 2 or not cones or any(len(c) != m for c in cones):
        return False
    probe = [sum(column) for column in zip(*(rays[k] for k in cones[0]))]
    apexes = {}  # facet -> its (apex, cone index) pairs
    for i, cone in enumerate(cones):
        for k in cone:
            apexes.setdefault(cone - {k}, []).append((k, i))
    beyond = [False] * len(cones)  # p is strictly beyond some facet of cone i
    for facet, pairs in apexes.items():
        if len(pairs) != 2:
            return False
        u = _normal([rays[k] for k in facet], m)
        if u is None:
            return False
        (k0, i0), (k1, i1) = pairs
        side = _dot(u, rays[k0])
        if side * _dot(u, rays[k1]) >= 0:
            return False
        at = _dot(u, probe)
        if at:
            beyond[i0 if at * side < 0 else i1] = True
    return all(beyond[1:])


class Violation(Record):
    __slots__ = ("kind", "detail")


class ValidationReport:
    def __init__(self):
        self.violations = []

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, detail):
        self.violations.append(Violation(kind, detail))

    def to_dict(self):
        return {"valid": self.ok, "violations": [v.to_dict() for v in self.violations]}


def validate_fan(fan):
    """Check the fan axioms and report every violation found.

    A `Fan` passes its structure check when built, so an empty violation
    list certifies a valid fan.  After the ray checks, a fan whose maximal
    cones `_complete_simplicial` certifies needs no further check: every
    index subset of a simplicial cone spans a face of it, and faces of two
    such cones s, t, which meet in the face on s & t, meet in the face on
    their common indices.  Any other fan has each cone and each pair of
    cones checked, and only that path names cone violations; more than
    CONE_PAIR_CAP pairs raise CapExceededError before the first.
    """
    report = ValidationReport()

    seen = {}
    for i, ray in enumerate(fan.rays):
        if all(x == 0 for x in ray):
            report.add("ray", f"ray {i} is the zero vector")
            continue
        if gcd(*ray) != 1:
            report.add("ray", f"ray {i} = {ray} is not primitive")
        if ray in seen:
            report.add("ray", f"ray {i} duplicates ray {seen[ray]}")
        seen.setdefault(ray, i)

    if not fan.generating_cones:
        report.add("zero-cone", "fan must contain at least one nonzero cone")
    if _complete_simplicial(fan):
        return report

    def order(c):
        return len(c), sorted(c)

    # a simplicial cone is pointed; faces of generating cones meet properly
    # once the generating cones do
    cones = sorted(fan.generating_cones, key=order)
    CapExceededError.check(len(cones) * (len(cones) - 1) // 2, CONE_PAIR_CAP,
                           "the pairwise fan check is capped at {cap} cone pairs")
    certified = _separator(fan, cones)
    for cone in cones:
        if (not certified(cone, frozenset()) and not is_simplicial(fan, [cone])
                and _escapes(fan, cone, frozenset())):
            report.add("strong-convexity", f"cone {sorted(cone)} is not strongly convex")
    for a, b in combinations(cones, 2):
        # for a < b, E(a, b) is feasible exactly when a spans no face of b
        if not certified(a, b) and _escapes(fan, a, b):
            report.add("intersection", (
                f"cone {sorted(a)} is contained in {sorted(b)} but is not a face of it" if a < b
                else f"cones {sorted(a)} and {sorted(b)} do not meet in a common face"))
    return report


def fan_from_max_cones(dim, rays, max_cones):
    """Build a fan from its maximal cones; their faces are implied."""
    return Fan(dim, rays, max_cones)


# -- completeness ------------------------------------------------------------

def is_simplicial(fan, cones=None):
    """Whether the rays of each cone (default: each generating cone, hence
    every cone of the fan) are linearly independent."""
    cones = fan.generating_cones if cones is None else cones
    return all(_cone_rank(fan, cone) == len(cone) for cone in cones)


def is_complete(fan):
    """Whether the cones of a valid fan cover all of R^m.

    m = 1 reads the ray directions.  For m >= 2, True comes from the maximal
    cones' `_complete_simplicial` (facet pairing, one covered point), and None
    ("unknown") when that fails and some maximal cone is not simplicial.
    Otherwise the answer is False, exactly:
    - if every maximal cone has m rays, the certificate decides such fans;
    - else some maximal cone t has fewer than m rays.  Were R^m covered,
      the full-dimensional cones alone would cover it, the others being
      nowhere dense, so a relative-interior point of t would lie in some
      m-cone s.  Validity makes t & s the index set of the face where they
      meet, and t is simplicial, so that face holds the point only if
      t <= s, against the maximality of t.
    """
    maximal = fan.complex.max_faces
    if fan.dim == 1:
        dirs = {fan.rays[k][0] > 0 for k in set().union(*maximal) if fan.rays[k][0]}
        return dirs == {True, False}
    if _complete_simplicial(fan):
        return True
    return False if is_simplicial(fan, maximal) else None


def is_smooth(fan):
    """Every cone's generators extend to a Z-basis of the lattice.

    Faces of a smooth cone are smooth, so the generating cones decide it.
    """
    return all(extends_to_basis(fan.generators(cone)) for cone in fan.generating_cones)


def spans_lattice(fan):
    """Whether the rays span Z^m over Z (simple connectivity of the variety).

    The m x m minors of the ray matrix are those of the rays.
    """
    return extends_to_basis(fan.ray_matrix())


def _degrees(degrees, fan, least=1):
    """The degree vector: one int entry >= least per ray, or UndefinedValueError."""
    degrees = tuple(degrees)
    if len(degrees) != fan.ray_count:
        raise UndefinedValueError(f"expected {fan.ray_count} degrees, got {len(degrees)}")
    return tuple([read_int(d, "all degrees", least) for d in degrees])


def degree_is_null(fan, degrees):
    """Exact test of sum_k d_k * n_k = 0."""
    degrees = _degrees(degrees, fan, None)
    for j in range(fan.dim):
        if sum(d * ray[j] for d, ray in zip(degrees, fan.rays)) != 0:
            return False
    return True


def find_degree_vector(fan):
    """Some strictly positive integer vector in the kernel of the ray matrix.

    One exact LP: x = 1 + y for the phase-one vertex y of
    {y >= 0 : A y = -A 1}, scaled by the lcm of its denominators.  Returns
    None exactly when no strictly positive kernel vector exists (a zero
    kernel included).
    """
    a = fan.ray_matrix()
    y = lp_feasible(a, [-sum(row) for row in a])
    if y is None:
        return None
    x = [1 + v for v in y]
    den = lcm(*(v.denominator for v in x))
    return tuple(int(v * den) for v in x)


def cox_group_rank(fan):
    """Rank r - m of the quotient torus acting in homogeneous coordinates."""
    if not spans_lattice(fan):
        raise UnsupportedFanError("rays do not span the lattice")
    return fan.ray_count - fan.dim


def fan_power(fan, n):
    """Fan on R^(m*n) with block-placed rays and one cone per power-complex facet.

    Ray (i, j) places ray i of the input into slot j; the generating cones are
    the facets of the power complex, so the underlying complex of the result
    is the power complex by construction.
    """
    n = read_int(n, "n")
    m, r = fan.dim, fan.ray_count
    k = complexes.underlying_complex(fan)
    power = complexes.complex_power(k, n)
    rays = []
    for i in range(r):
        for j in range(n):
            vec = [0] * (m * n)
            for t in range(m):
                vec[j * m + t] = fan.rays[i][t]
            rays.append(tuple(vec))
    return Fan(m * n, tuple(rays), power.max_faces)


_BUILTIN_RE = re.compile(r"^\s*(cp|hirzebruch|affine)\s*\(\s*(\d+)\s*\)\s*$")


def builtin_fan(name, param=None):
    """Named standard fans: cp(m), hirzebruch(k), affine(m)."""
    if param is None:
        match = _BUILTIN_RE.match(str(name))
        if not match:
            raise ValueError(f"unknown fan name {name!r}; expected cp(m), hirzebruch(k) or affine(m)")
        name, param = match.group(1), int(match.group(2))
    kind, param = str(name), read_int(param, "fan parameter")
    if kind == "cp":
        m = param
        rays = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
        rays.append(tuple(-1 for _ in range(m)))
        max_cones = list(combinations(range(m + 1), m))
        return fan_from_max_cones(m, rays, max_cones)
    if kind == "hirzebruch":
        k = param
        rays = [(1, 0), (0, 1), (-1, k), (0, -1)]
        max_cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
        return fan_from_max_cones(2, rays, max_cones)
    if kind == "affine":
        m = param
        rays = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
        return fan_from_max_cones(m, rays, [tuple(range(m))])
    raise ValueError(f"unknown fan kind {kind!r}")


# -- JSON --------------------------------------------------------------------

def fan_to_json(fan):
    return {
        "dim": fan.dim,
        "rays": [list(ray) for ray in fan.rays],
        "max_cones": sorted(sorted(c) for c in fan.complex.max_faces),
    }


def fan_from_json(obj):
    """Load a fan from its JSON object, reporting defects with pointer paths."""
    if not isinstance(obj, dict):
        raise FanJsonError("fan document must be an object")
    for key in ("dim", "rays", "max_cones"):
        if key not in obj:
            raise FanJsonError(f"missing required key {key!r}", f"/{key}")
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise FanJsonError("dim must be a positive integer", "/dim")
    rays = obj["rays"]
    if not isinstance(rays, list) or not rays:
        raise FanJsonError("rays must be a non-empty array", "/rays")
    parsed_rays = []
    for i, ray in enumerate(rays):
        if not isinstance(ray, list) or len(ray) != dim:
            raise FanJsonError(f"ray must be an array of {dim} integers", f"/rays/{i}")
        for j, x in enumerate(ray):
            if type(x) is not int:
                raise FanJsonError("ray entries must be integers", f"/rays/{i}/{j}")
        parsed_rays.append(tuple(ray))
    cones = obj["max_cones"]
    if not isinstance(cones, list):
        raise FanJsonError("max_cones must be an array", "/max_cones")
    parsed_cones = []
    for i, cone in enumerate(cones):
        if not isinstance(cone, list):
            raise FanJsonError("cone must be an array of ray indices", f"/max_cones/{i}")
        for j, k in enumerate(cone):
            if type(k) is not int or not (0 <= k < len(parsed_rays)):
                raise FanJsonError(
                    f"ray index must be an integer in 0..{len(parsed_rays) - 1}",
                    f"/max_cones/{i}/{j}",
                )
        parsed_cones.append(frozenset(cone))
    return fan_from_max_cones(dim, parsed_rays, parsed_cones)
