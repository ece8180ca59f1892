import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from toricstab import (
    Fan,
    FanJsonError,
    FanStructureError,
    JsonPointerError,
    SimplicialComplex,
    UnsupportedFanError,
    builtin_fan,
    complex_power,
    cox_group_rank,
    degree_is_null,
    fan_from_json,
    fan_from_max_cones,
    fan_power,
    fan_to_json,
    find_degree_vector,
    is_complete,
    is_simplicial,
    is_smooth,
    spans_lattice,
    underlying_complex,
    validate_fan,
)
from toricstab.exactla import nullspace_int

from corpus import primitive_ray


class TestPrimitiveRay:
    def test_divides_by_gcd(self):
        assert primitive_ray((2, 4)) == (1, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_already_primitive(self, k):
        assert primitive_ray((-1, k)) == (-1, k)

    def test_sign_preserved(self):
        assert primitive_ray((0, -6)) == (0, -1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            primitive_ray((0, 0))


class TestValidateFan:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_is_valid(self, k):
        assert validate_fan(builtin_fan(f"hirzebruch({k})")).ok

    def test_line_cone_breaks_strong_convexity(self):
        fan = fan_from_max_cones(2, [(1, 0), (-1, 0)], [(0, 1)])
        report = validate_fan(fan)
        assert not report.ok
        assert any(v.kind == "strong-convexity" for v in report.violations)

    def test_out_of_range_index_is_structural(self):
        with pytest.raises(FanStructureError):
            validate_fan(Fan(2, ((1, 0),), [frozenset(), frozenset((3,))]))

    def test_non_integer_ray_is_structural(self):
        # int() would truncate (1.5, 0) and (-3/2, -1) to the rays of cp(2)
        with pytest.raises(FanStructureError, match="ray 0 has a non-integer entry"):
            fan_from_max_cones(2, [(1.5, 0), (0, 1), (Fraction(-3, 2), -1)], [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(FanStructureError, match="ray 1 has a non-integer entry"):
            Fan(2, [(1, 0), (0, 0.5)], [(0, 1)])
        # integral values of any type are kept as ints, and a generator of
        # rays is read once
        fan = Fan(2.0, (ray for ray in [(1.0, 0), (Fraction(0), 1)]), [(0, 1)])
        assert fan.rays == ((1, 0), (0, 1)) and all(type(x) is int for ray in fan.rays for x in ray)
        assert type(fan.dim) is int and fan.ray_matrix() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("entry", ["a", float("nan"), float("inf"), None], ids=repr)
    def test_unreadable_ray_entry_is_structural(self, entry):
        # int() raises ValueError, OverflowError or TypeError on these
        with pytest.raises(FanStructureError, match="ray 1 has a non-integer entry"):
            Fan(2, [(1, 0), (entry, 1)], [(0, 1)])

    @pytest.mark.parametrize("args,message,pointer", [
        ((2, [5], []), "ray 0 is not a sequence", "/rays/0"),
        ((2, [(1, 0)], [(0,), (0, "a")]), "cone references ray index 'a' outside 0..0",
         "/generating_cones/1"),
        (("a", [], []), "ambient dimension must be a positive integer", "/dim"),
        ((2, [(1, 0)], [5]), "cone 5 is not a set of ray indices", "/generating_cones/0"),
        ((2, [(1, 0), (0, 1, 2)], []), "ray 1 has length 3, expected 2", "/rays/1"),
    ], ids=["ray not a sequence", "index not an integer", "dim not an integer",
            "cone not a set", "ray of the wrong length"])
    def test_malformed_argument_is_structural(self, args, message, pointer):
        # a pointer into the arguments locates the defect, as a document's does
        with pytest.raises(FanStructureError) as caught:
            Fan(*args)
        assert (caught.value.message, caught.value.pointer) == (message, pointer)
        assert isinstance(caught.value, JsonPointerError)

    def test_overlapping_cones_flagged(self):
        # the two 2-cones overlap in a 2-dimensional region
        fan = fan_from_max_cones(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)])
        report = validate_fan(fan)
        assert any(v.kind == "intersection" for v in report.violations)

    def test_fan_without_rays_or_cones_lacks_a_cone(self):
        report = validate_fan(Fan(2, (), ()))
        assert [v.kind for v in report.violations] == ["zero-cone"]

    def test_nonprimitive_ray_flagged(self):
        fan = fan_from_max_cones(2, [(2, 0), (0, 1)], [(0, 1)])
        report = validate_fan(fan)
        assert any(v.kind == "ray" for v in report.violations)

    def test_ray_inside_another_cone_flagged(self):
        # the third ray runs through the interior of the first quadrant cone
        fan = fan_from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (2,)])
        report = validate_fan(fan)
        assert any(v.kind == "intersection" for v in report.violations)


class TestIsComplete:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch(self, k):
        assert is_complete(builtin_fan(f"hirzebruch({k})")) is True

    def test_proper_subfan_is_not_complete(self):
        rays = [(1, 0), (0, 1), (-1, 1), (0, -1)]
        sub = fan_from_max_cones(2, rays, [(0, 1), (1, 2), (2, 3)])
        assert validate_fan(sub).ok
        assert is_complete(sub) is False

    def test_rays_only_subfan(self):
        rays = [(1, 0), (0, 1), (-1, 1), (0, -1)]
        sub = fan_from_max_cones(2, rays, [(0,), (1,), (2,), (3,)])
        assert is_complete(sub) is False

    def test_line_rays_with_one_half_line_cone(self):
        # both directions are rays, but only the cone [0] is in the fan
        fan = fan_from_max_cones(1, [(1,), (-1,)], [(0,)])
        assert validate_fan(fan).ok
        assert is_complete(fan) is False

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space_fans(self, m):
        assert is_complete(builtin_fan(f"cp({m})")) is True

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_affine_fans(self, m):
        assert is_complete(builtin_fan(f"affine({m})")) is False

    @pytest.mark.parametrize("name,face", [("cp(2)", (0,)), ("cp(3)", (0, 1))])
    def test_listed_faces_leave_a_complete_fan_complete(self, name, face):
        fan = builtin_fan(name)
        listed = fan_from_max_cones(fan.dim, fan.rays, list(fan.generating_cones) + [face])
        assert validate_fan(listed).ok and is_complete(listed) is True

    def test_mixed_dimension_in_three_dims_is_not_complete(self):
        fan = fan_from_max_cones(
            3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2), ]
        )
        # pure and simplicial: a single chart is not complete
        assert is_complete(fan) is False
        # simplicial with a maximal cone of fewer than m rays: never complete
        mixed = fan_from_max_cones(3, [(1, 0, 0), (0, 1, 0), (0, 0, -1)], [(0, 1), (2,)])
        assert validate_fan(mixed).ok and is_complete(mixed) is False

    def test_non_simplicial_cone_is_unknown(self):
        square = fan_from_max_cones(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                                    [(0, 1, 2, 3)])
        assert validate_fan(square).ok and not is_simplicial(square)
        assert is_complete(square) is None


class TestIsSmooth:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch(self, k):
        assert is_smooth(builtin_fan(f"hirzebruch({k})"))

    def test_index_two_cone(self):
        fan = fan_from_max_cones(2, [(1, 0), (1, 2)], [(0, 1)])
        assert not is_smooth(fan)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space(self, m):
        assert is_smooth(builtin_fan(f"cp({m})"))

    def test_one_singular_cone_among_smooth_ones(self):
        # the weighted projective plane P(1, 2, 1): only the cone [0, 2] has index 2
        rays = [(1, 0), (0, 1), (-1, -2)]
        fan = fan_from_max_cones(2, rays, [(0, 1), (1, 2), (0, 2)])
        assert validate_fan(fan).ok and not is_smooth(fan)
        assert is_smooth(fan_from_max_cones(2, rays, [(0, 1), (1, 2)]))


class TestSpansLattice:
    def test_hirzebruch(self, h1):
        assert spans_lattice(h1)

    def test_sublattice_rays(self):
        fan = Fan(2, ((2, 0), (0, 1)), [frozenset(), frozenset((0,)), frozenset((1,))])
        assert not spans_lattice(fan)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space(self, m):
        assert spans_lattice(builtin_fan(f"cp({m})"))


def _sympy_unit_invariant_factors(rows, rank):
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return all(abs(snf[i, i]) == 1 for i in range(rank))


def test_smooth_and_spanning_match_sympy_on_random_planar_fans():
    # cones between angularly consecutive rays less than pi apart; every
    # third fan draws its rays from the index-2 sublattice {x even}
    pool = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1]
    seen = set()
    for seed in range(80):
        rng = random.Random(seed)
        rays = [v for v in pool if seed % 3 or v[0] % 2 == 0]
        rays = sorted(rng.sample(rays, rng.randint(2, 6)), key=lambda v: math.atan2(v[1], v[0]))
        cones = [(i, (i + 1) % len(rays)) for i in range(len(rays))
                 if rays[i][0] * rays[(i + 1) % len(rays)][1]
                 - rays[i][1] * rays[(i + 1) % len(rays)][0] > 0]
        covered = {i for cone in cones for i in cone}
        cones += [(i,) for i in range(len(rays)) if i not in covered]
        fan = fan_from_max_cones(2, rays, cones)
        smooth = all(_sympy_unit_invariant_factors([rays[i] for i in cone], len(cone))
                     for cone in cones)
        spans = _sympy_unit_invariant_factors(rays, 2)
        assert is_smooth(fan) == smooth, seed
        assert spans_lattice(fan) == spans, seed
        seen.add((smooth, spans))
    assert {(True, True), (False, True), (False, False)} <= seen


class TestDegreeNull:
    def test_hirzebruch_null_vector(self, h1):
        assert degree_is_null(h1, (5, 7, 5, 12))

    def test_hirzebruch_non_null(self, h1):
        assert not degree_is_null(h1, (1, 1, 1, 1))

    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_projective_line(self, cp1, d):
        assert degree_is_null(cp1, (d, d))

    def test_length_mismatch(self, h1):
        with pytest.raises(ValueError):
            degree_is_null(h1, (1, 2, 3))

    def test_kernel_closure(self, h1):
        rng = random.Random(4)
        base = find_degree_vector(h1)
        for _ in range(20):
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            d1 = tuple(a * x for x in base)
            d2 = tuple(b * x for x in base)
            assert degree_is_null(h1, d1) and degree_is_null(h1, d2)
            assert degree_is_null(h1, tuple(x + y for x, y in zip(d1, d2)))


class TestFindDegreeVector:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_pattern(self, k):
        fan = builtin_fan(f"hirzebruch({k})")
        d = find_degree_vector(fan)
        assert d is not None and all(x >= 1 for x in d)
        assert d[2] == d[0] and d[3] == k * d[0] + d[1]

    def test_affine_has_none(self):
        assert find_degree_vector(builtin_fan("affine(2)")) is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space_all_ones(self, m):
        fan = builtin_fan(f"cp({m})")
        assert find_degree_vector(fan) == tuple(1 for _ in range(m + 1))

    def test_kernel_vector_off_the_basis_lattice(self):
        # the integer combinations of the kernel basis miss (1, 7, 7, 1)
        rays = [(-3, -1), (-1, -3), (2, 3), (-4, 1)]
        fan = fan_from_max_cones(2, rays, [(0, 3), (3, 2), (2, 1), (1, 0)])
        assert validate_fan(fan).ok and is_complete(fan)
        d = find_degree_vector(fan)
        assert d is not None and all(x >= 1 for x in d) and degree_is_null(fan, d)

    @pytest.mark.parametrize("r", [5, 8, 24])
    def test_complete_fan_is_fast(self, r):
        import time

        rays = _cycle_rays(r)
        fan = fan_from_max_cones(2, rays, [(i, (i + 1) % r) for i in range(r)])
        start = time.perf_counter()
        d = find_degree_vector(fan)
        assert time.perf_counter() - start < 0.05
        assert d is not None and all(x >= 1 for x in d) and degree_is_null(fan, d)

    def test_half_plane_has_none(self):
        rays = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)]
        fan = fan_from_max_cones(2, rays, [(i, i + 1) for i in range(4)])
        assert validate_fan(fan).ok
        assert find_degree_vector(fan) is None


def _cycle_rays(r):
    """r primitive rays in counterclockwise order, consecutive gaps under a half turn."""
    import math

    rays = [primitive_ray((round(50 * math.cos(2 * math.pi * (k + 0.3) / r)),
                           round(50 * math.sin(2 * math.pi * (k + 0.3) / r)))) for k in range(r)]
    assert len(set(rays)) == r
    return rays


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sector(gens):
    """Extreme generator pair (u, v) of a 2-dimensional cone, counterclockwise."""
    for u in gens:
        for v in gens:
            if _cross(u, v) > 0 and all(_cross(u, w) >= 0 and _cross(w, v) >= 0 for w in gens):
                return u, v
    return None


def _sweep_is_complete(fan):
    """Planar reference: every maximal cone is a 2-dimensional sector, no
    two sectors share a clockwise edge, and stepping from each sector's
    clockwise edge to its counterclockwise one closes a single cycle
    through all of them."""
    sectors = {}
    for cone in fan.complex.max_faces:
        pair = _sector(fan.generators(cone))
        if pair is None or pair[0] in sectors:
            return False
        sectors[pair[0]] = pair[1]
    if len(sectors) < 2:
        return False
    start = current = next(iter(sectors))
    for _ in range(len(sectors)):
        current = sectors.get(current)
        if current is None:
            return False
    return current == start


@st.composite
def planar_simplicial_fans(draw):
    """Valid planar fans with simplicial maximal cones: the consecutive
    sectors of an angular ray cycle that span under a half turn, some of
    them dropped, plus some rays listed as cones of their own."""
    points = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=1, max_size=9))
    rays = sorted({primitive_ray(p) for p in points if any(p)},
                  key=lambda v: math.atan2(v[1], v[0]))
    assume(rays)
    r = len(rays)
    sectors = [(i, (i + 1) % r) for i in range(r) if _cross(rays[i], rays[(i + 1) % r]) > 0]
    if draw(st.booleans()):
        sectors = [c for c in sectors if draw(st.sampled_from([True, True, True, False]))]
    singles = [(k,) for k in draw(st.sets(st.integers(0, r - 1), max_size=r))]
    assume(sectors or singles)
    return fan_from_max_cones(2, rays, sectors + singles)


@settings(max_examples=300, deadline=None)
@given(planar_simplicial_fans())
def test_planar_completeness_matches_the_sector_sweep(fan):
    assert validate_fan(fan).ok
    assert is_complete(fan) is _sweep_is_complete(fan)


def _octant_fan():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return fan_from_max_cones(3, rays, [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)])


@st.composite
def three_dim_subfans(draw):
    """(fan, complete): all or some facets of cp(3) or of the octant fan,
    with faces of facets listed as cones of their own."""
    base = draw(st.sampled_from([builtin_fan("cp(3)"), _octant_fan()]))
    facets = sorted(base.generating_cones, key=sorted)
    whole = draw(st.sampled_from([True, False, False]))
    kept = [c for c in facets if whole or draw(st.booleans())]
    dropped = [c for c in facets if c not in kept]
    faces = [frozenset(draw(st.lists(st.sampled_from(sorted(c)), min_size=1, max_size=2,
                                     unique=True)))
             for c in facets if draw(st.booleans())]
    assume(kept or faces)
    return Fan(3, base.rays, kept + faces), not dropped


@settings(max_examples=100, deadline=None)
@given(three_dim_subfans())
def test_three_dim_subfans_are_complete_only_when_whole(case):
    # a subfan of a complete simplicial fan covers R^3 only if it keeps
    # every facet; a kept lower-dimensional face never fills the gap
    fan, complete = case
    assert validate_fan(fan).ok
    assert is_complete(fan) is complete


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=4, max_size=12))
def test_random_complete_plane_fans(points):
    import math

    rays = sorted({primitive_ray(p) for p in points if any(p)},
                  key=lambda v: math.atan2(v[1], v[0]))
    r = len(rays)
    # a sorted ray cycle with every gap under a half turn tiles the plane
    assume(r >= 3 and all(_cross(rays[i], rays[(i + 1) % r]) > 0 for i in range(r)))
    cones = [(i, (i + 1) % r) for i in range(r)]
    fan = fan_from_max_cones(2, rays, cones)
    assert validate_fan(fan).ok
    d = find_degree_vector(fan)
    assert d is not None and all(x >= 1 for x in d) and degree_is_null(fan, d)
    for i in range(r):
        assert validate_fan(fan_from_max_cones(2, rays, cones[:i] + cones[i + 1:])).ok


class TestCoxGroup:
    def test_ranks(self, h1, cp2):
        assert cox_group_rank(h1) == 2
        assert cox_group_rank(cp2) == 1
        assert cox_group_rank(builtin_fan("affine(3)")) == 0

    def test_rank_needs_spanning_rays(self):
        fan = Fan(2, ((2, 0), (0, 1)), [frozenset(), frozenset((0,)), frozenset((1,))])
        with pytest.raises(UnsupportedFanError):
            cox_group_rank(fan)

    @pytest.mark.parametrize("name", ["cp(1)", "cp(2)", "hirzebruch(1)", "hirzebruch(3)"])
    def test_defining_relations(self, name):
        # the torus is cut out by the integer kernel of the ray matrix:
        # cox_group_rank vectors q with sum_k q_k n_k = 0, exactly
        fan = builtin_fan(name)
        basis = nullspace_int(fan.ray_matrix())
        assert len(basis) == cox_group_rank(fan)
        assert all(degree_is_null(fan, q) for q in basis)

    def test_negative_kernel_exponents(self):
        # plane blown up at the origin: kernel vector (1, 1, -1)
        fan = fan_from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (2, 1)])
        assert validate_fan(fan).ok
        assert cox_group_rank(fan) == 1
        assert nullspace_int(fan.ray_matrix()) == [[1, 1, -1]]


class TestFanPower:
    @pytest.mark.parametrize("name", ["cp(1)", "cp(2)", "hirzebruch(1)"])
    def test_power_one_is_identity(self, name):
        fan = builtin_fan(name)
        p = fan_power(fan, 1)
        assert p.rays == fan.rays and p.cones == fan.cones

    def test_projective_line_squared(self, cp1):
        p = fan_power(cp1, 2)
        assert p.dim == 2 and p.ray_count == 4
        assert set(p.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
        # cones realize the boundary of the 3-simplex: all proper subsets
        assert len(p.cones) == 15

    def test_hirzebruch_squared_ray_count(self, h1):
        assert fan_power(h1, 2).ray_count == 8

    def test_block_placement(self, h1):
        p = fan_power(h1, 2)
        # vertex (i, j) -> i*n + j; ray 2 of the input lands in slots 4 and 5
        assert p.rays[4] == (-1, 1, 0, 0)
        assert p.rays[5] == (0, 0, -1, 1)

    def test_projective_line_fourth_power_validates_fast(self, cp1):
        import time

        p = fan_power(cp1, 4)
        start = time.perf_counter()
        report = validate_fan(p)
        assert time.perf_counter() - start < 0.1
        # opposite rays share a generating cone: not strongly convex
        assert not report.ok
        assert any(v.kind == "strong-convexity" for v in report.violations)

    def test_hirzebruch_cube_validates_fast(self, h1):
        import time

        p = fan_power(h1, 3)
        start = time.perf_counter()
        report = validate_fan(p)
        # dimension 6, 12 rays, 36 non-simplicial cones: an escape LP for each
        # cone and pair that no separating functional certifies
        assert time.perf_counter() - start < 0.5
        assert not report.ok


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=8),
       st.integers(1, 3))
def test_power_fan_is_built_from_power_facets(points, n):
    import math

    rays = sorted({primitive_ray(p) for p in points if any(p)},
                  key=lambda v: math.atan2(v[1], v[0]))
    r = len(rays)
    assume(3 <= r <= 6 and all(_cross(rays[i], rays[(i + 1) % r]) > 0 for i in range(r)))
    fan = fan_from_max_cones(2, rays, [(i, (i + 1) % r) for i in range(r)])
    power = complex_power(underlying_complex(fan), n)
    lifted = fan_power(fan, n)
    assert underlying_complex(lifted) == power
    assert fan_to_json(lifted)["max_cones"] == sorted(sorted(f) for f in power.max_faces)


PRIMITIVE_H4 = [(a, b) for a in range(-4, 5) for b in range(-4, 5)
                if (a, b) != (0, 0) and math.gcd(a, b) == 1]


@st.composite
def separation_fans(draw):
    """Fans in dimension 2 or 3: a base (sectors between angularly
    consecutive planar rays, or between every second ray of an odd cycle,
    which wind twice around the origin; or octants of R^3 with one
    optionally starred), all or a random subset of its cones, and
    optionally extra rays (zero, duplicate or not primitive ones included)
    and extra cones on any rays, which overlap, nest or are not
    simplicial."""
    m = draw(st.sampled_from([2, 3]))
    if m == 2:
        rays = sorted(set(draw(st.lists(st.sampled_from(PRIMITIVE_H4), min_size=2, max_size=9))),
                      key=lambda v: math.atan2(v[1], v[0]))
        r = len(rays)
        step = draw(st.sampled_from([1, 2])) if r % 2 and r >= 5 else 1
        cones = [(i, (i + step) % r) for i in range(r) if _cross(rays[i], rays[(i + step) % r]) > 0]
    else:
        rays = [v for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for v in (e, tuple(-x for x in e))]
        cones = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)]
        if draw(st.booleans()):
            star = draw(st.sampled_from(cones))
            weights = draw(st.tuples(*[st.integers(1, 3)] * 3))
            rays.append(primitive_ray([sum(w * rays[k][j] for w, k in zip(weights, star))
                                       for j in range(3)]))
            cones.remove(star)
            cones += [tuple(c) + (len(rays) - 1,) for c in combinations(star, 2)]
    if draw(st.booleans()):
        cones = [c for c in cones if draw(st.booleans())]
    rays += draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), max_size=2))
    index = st.integers(0, len(rays) - 1)
    cones += draw(st.lists(st.lists(index, min_size=1, max_size=4), max_size=3))
    assume(cones)
    return Fan(m, rays, cones)


@settings(max_examples=150, deadline=None)
@given(separation_fans())
def test_separation_certificate_keeps_every_verdict(fan):
    from unittest import mock

    from toricstab import fans

    cones = sorted(fan.generating_cones, key=lambda c: (len(c), sorted(c)))
    certified = fans._separator(fan, cones)
    # a certificate is a proof: each pair it accepts has no escape
    for a in cones:
        assert not (certified(a, frozenset()) and fans._escapes(fan, a, frozenset()))
    for a, b in combinations(cones, 2):
        assert not (certified(a, b) and fans._escapes(fan, a, b))
    with mock.patch.object(fans, "_separator", lambda fan, cones: lambda a, b: False), \
            mock.patch.object(fans, "_complete_simplicial", lambda fan: False):
        all_lp = validate_fan(fan).to_dict()
    assert validate_fan(fan).to_dict() == all_lp
    # a complete simplicial fan has nothing for the pairwise checks to find
    if fans._complete_simplicial(fan):
        assert all(v["kind"] == "ray" for v in all_lp["violations"])


@settings(max_examples=150, deadline=None)
@given(separation_fans())
def test_fan_complex_is_the_complex_of_its_cones(fan):
    fresh = SimplicialComplex(fan.ray_count, fan.generating_cones)
    assert fan.complex == fresh
    if frozenset().union(*fan.generating_cones) == frozenset(range(fan.ray_count)):
        assert underlying_complex(fan) == fresh
    else:
        with pytest.raises(UnsupportedFanError):
            underlying_complex(fan)
    assert is_complete(fan) == is_complete(Fan(fan.dim, fan.rays, fresh.max_faces))


def test_complete_sixteen_gons_need_few_escape_lps():
    from unittest import mock

    from toricstab import fans

    calls = []
    solve = fans.lp_feasible

    def counted(*args):
        calls.append(args)
        return solve(*args)

    for fan in _seeded_sixteen_gons():
        # the pairwise path alone: the separator, then the LP where it misses
        with mock.patch.object(fans, "lp_feasible", counted), \
                mock.patch.object(fans, "_complete_simplicial", lambda fan: False):
            assert validate_fan(fan).ok
    # 120 pairs per 16-gon, one LP each without the separator; single
    # 16-gons range from 3 to 24 LPs with it, about 13 on average
    assert len(calls) <= 10 * 20


def _seeded_sixteen_gons():
    for seed in range(10):
        rng = random.Random(seed)
        while True:
            rays = sorted(rng.sample(PRIMITIVE_H4, 16), key=lambda v: math.atan2(v[1], v[0]))
            if all(_cross(rays[i], rays[(i + 1) % 16]) > 0 for i in range(16)):
                break
        yield fan_from_max_cones(2, rays, [(i, (i + 1) % 16) for i in range(16)])


def _pairwise_report(fan):
    """validate_fan with the complete-fan certificate switched off."""
    from unittest import mock

    from toricstab import fans

    with mock.patch.object(fans, "_complete_simplicial", lambda fan: False):
        return validate_fan(fan).to_dict()


def _odd_cycle(r, step):
    rays = _cycle_rays(r)
    return fan_from_max_cones(2, rays, [(i, (i + step) % r) for i in range(r)])


def _stellar_octahedral(cone_count, seed):
    """A complete simplicial fan in R^3: the octants, each step starring a
    random cone at a positive combination of its rays."""
    rng = random.Random(seed)
    rays = [v for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for v in (e, tuple(-x for x in e))]
    cones = [frozenset((i, j, k)) for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    while len(cones) < cone_count:
        star = rng.choice(cones)
        weights = {k: rng.randint(1, 2) for k in star}
        ray = primitive_ray([sum(w * rays[k][j] for k, w in weights.items()) for j in range(3)])
        if ray in rays:
            continue
        rays.append(ray)
        cones.remove(star)
        cones += [frozenset(f) | {len(rays) - 1} for f in combinations(star, 2)]
    return fan_from_max_cones(3, rays, cones)


_DECLINED = {
    "cp(1)": builtin_fan("cp(1)"),
    "no cones": Fan(2, ((1, 0), (0, 1)), ()),
    "zero ray": fan_from_max_cones(
        2, [(1, 0), (0, 1), (-1, -1), (0, 0)], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "one vector twice": fan_from_max_cones(
        2, [(1, 0), (0, 1), (-1, -1), (1, 0)], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "pentagram": _odd_cycle(5, 2),
    # each cone's ray sum lies on a ray of the other fan, so on a facet of a
    # cone covering it, not strictly outside
    "two complete fans on disjoint rays": fan_from_max_cones(
        2, [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    "boundary facet": fan_from_max_cones(
        2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3)]),
    "r-gon plus an overlapping cone": fan_from_max_cones(
        2, _cycle_rays(7), [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)]),
}


class TestCompleteSimplicialCertificate:
    @pytest.mark.parametrize("name", sorted(_DECLINED))
    def test_declines_and_leaves_the_pairwise_report(self, name):
        from toricstab import fans

        fan = _DECLINED[name]
        assert not fans._complete_simplicial(fan)
        assert validate_fan(fan).to_dict() == _pairwise_report(fan)

    def test_accepts_a_listed_face_of_a_maximal_cone(self):
        # the certificate reads the maximal cones, so the listed ray (0,)
        # needs no pairwise check: it spans a face of the simplicial (0, 1)
        from toricstab import fans

        fan = fan_from_max_cones(
            2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0), (0,)])
        assert fans._complete_simplicial(fan)
        assert validate_fan(fan).to_dict() == _pairwise_report(fan)

    def test_pentagram_wraps_twice(self):
        # every facet lies in two cones on opposite sides, but each point
        # is covered twice, so the pairwise checks find the overlaps
        report = validate_fan(_odd_cycle(5, 2))
        assert {v.kind for v in report.violations} == {"intersection"}

    def test_complete_fans_need_no_escape_lp(self):
        from unittest import mock

        from toricstab import fans

        calls = []
        solve = fans.lp_feasible

        def counted(*args):
            calls.append(args)
            return solve(*args)

        complete = list(_seeded_sixteen_gons()) + [builtin_fan(f"cp({m})") for m in (2, 3, 4)]
        with mock.patch.object(fans, "lp_feasible", counted):
            for fan in complete:
                assert validate_fan(fan).ok and is_complete(fan) is True
        assert calls == []

    def test_planar_and_spatial_certificates_need_no_elimination(self):
        from unittest import mock

        from toricstab import fans

        calls = []
        kernel = fans.nullspace_int

        def counted(vectors):
            calls.append(vectors)
            return kernel(vectors)

        complete = list(_seeded_sixteen_gons()) + [_stellar_octahedral(150, 3)]
        with mock.patch.object(fans, "nullspace_int", counted):
            for fan in complete:
                assert validate_fan(fan).ok and is_complete(fan) is True
        assert calls == []

    @pytest.mark.parametrize("fan,budget", [
        # about 20 ms (60-gon) and 200 ms (150 cones) through the pairwise checks
        (_odd_cycle(60, 1), 0.010),
        (_stellar_octahedral(150, 3), 0.040),
    ], ids=["planar 60-gon", "stellar octahedral 150 cones"])
    def test_complete_fan_validates_fast(self, fan, budget):
        import time

        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert validate_fan(fan).ok
            times.append(time.perf_counter() - start)
        assert min(times) < budget


@st.composite
def complete_simplicial_fans(draw):
    """(fan, built_complete): cp(m) or the orthant fan in m = 2, 3, 4, with
    up to three stellar subdivisions at a face of 2..m rays, then
    optionally one defect (a dropped cone, an extra cone of m rays, or a
    ray moved)."""
    m = draw(st.sampled_from([2, 3, 4]))
    if draw(st.booleans()):
        rays = [tuple(int(i == j) for j in range(m)) for i in range(m)] + [(-1,) * m]
        cones = [frozenset(c) for c in combinations(range(m + 1), m)]
    else:
        rays = [v for i in range(m) for v in (tuple(int(i == j) for j in range(m)),
                                              tuple(-int(i == j) for j in range(m)))]
        cones = [frozenset(2 * i + s for i, s in enumerate(signs))
                 for signs in product((0, 1), repeat=m)]
    for _ in range(draw(st.integers(0, 3))):
        cone = sorted(draw(st.sampled_from(cones)))
        face = draw(st.lists(st.sampled_from(cone), min_size=2, max_size=m, unique=True))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(face), max_size=len(face)))
        ray = primitive_ray([sum(w * rays[k][j] for w, k in zip(weights, face)) for j in range(m)])
        if ray in rays:
            continue
        rays.append(ray)
        new = len(rays) - 1
        starred = [c for c in cones if c >= set(face)]
        cones = [c for c in cones if not c >= set(face)]
        cones += [c - {k} | {new} for c in starred for k in face]
    defect = draw(st.sampled_from([None, None, "drop", "extra", "move"]))
    if defect == "drop":
        cones.remove(draw(st.sampled_from(sorted(cones, key=sorted))))
    elif defect == "extra":
        cones.append(frozenset(draw(st.lists(st.integers(0, len(rays) - 1), min_size=m,
                                             max_size=m, unique=True))))
    elif defect == "move":
        k = draw(st.integers(0, len(rays) - 1))
        ray = tuple(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
        assume(any(ray) and primitive_ray(ray) == ray and ray not in rays)
        rays[k] = ray
    return Fan(m, rays, cones), defect is None


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=m - 1, max_size=m - 1))))
@example((2, [[0, 0]]))
@example((3, [[1, -2, 3], [-2, 4, -6]]))
@example((4, [[1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 2]]))
@example((4, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]))
def test_normal_is_orthogonal_and_none_exactly_on_dependent_vectors(case):
    from toricstab import fans

    m, vectors = case
    u = fans._normal(vectors, m)
    assert (u is None) == (len(nullspace_int(vectors)) != 1)
    if u is not None:
        assert any(u) and all(sum(a * b for a, b in zip(u, v)) == 0 for v in vectors)


@settings(max_examples=300, deadline=None)
@given(complete_simplicial_fans())
def test_certificate_implies_a_valid_complete_fan(case):
    from toricstab import fans

    fan, built_complete = case
    certified = fans._complete_simplicial(fan)
    assert certified or not built_complete
    pairwise = _pairwise_report(fan)
    assert validate_fan(fan).to_dict() == pairwise
    if certified:
        assert pairwise["valid"] and is_complete(fan) is True


class TestGeometricFaces:
    def test_square_cone_faces(self):
        from toricstab.fans import _escapes

        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        cone = frozenset(range(4))
        fan = Fan(3, rays, [cone])
        faces = {frozenset(s) for k in range(5) for s in combinations(range(4), k)
                 if not _escapes(fan, cone, frozenset(s))}
        expected = {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}),
            frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3}),
            frozenset(range(4)),
        }
        # the diagonals {0, 2} and {1, 3} cut through the interior, not faces
        assert faces == expected

    def test_square_cone_fan_validates_after_closure(self):
        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        fan = fan_from_max_cones(3, rays, [(0, 1, 2, 3)])
        assert validate_fan(fan).ok
        assert not is_smooth(fan)

    def test_lp_path_matches_subset_rule_on_simplicial_cones(self):
        from toricstab.fans import _escapes

        rng = random.Random(52)
        for _ in range(10):
            m = rng.randint(2, 3)
            gens = []
            while len(gens) < m:
                v = tuple(rng.randint(-3, 3) for _ in range(m))
                if any(v):
                    cand = gens + [v]
                    from toricstab.exactla import echelon

                    if len(echelon(cand)[1]) == len(cand):
                        gens.append(v)
            if not validate_fan(fan_from_max_cones(m, [primitive_ray(g) for g in gens],
                                                   [tuple(range(m))])).ok:
                continue
            from itertools import combinations as combos

            fan = Fan(m, gens, [frozenset(range(m))])
            for size in range(len(gens) + 1):
                for subset in combos(range(len(gens)), size):
                    assert not _escapes(fan, frozenset(range(m)), frozenset(subset))


class TestCompletenessFuzz:
    def test_consecutive_sector_fans_are_complete(self):
        # any circular sequence of primitive directions with gaps below a
        # half turn tiles the plane with consecutive cones
        import math

        rng = random.Random(53)
        pool = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        extras = [(1, 1), (-1, 1), (-1, -1), (1, -1), (2, 1), (1, 2), (-2, 1),
                  (-1, 2), (1, -2), (2, -1), (-1, -2), (-2, -1), (3, 1), (-3, 2)]
        for _ in range(15):
            rays = list(pool) + rng.sample(extras, rng.randint(0, len(extras)))
            rays = sorted(set(rays), key=lambda v: math.atan2(v[1], v[0]))
            cones = [(i, (i + 1) % len(rays)) for i in range(len(rays))]
            fan = fan_from_max_cones(2, rays, cones)
            assert validate_fan(fan).ok
            assert is_complete(fan) is True
            dropped = fan_from_max_cones(2, rays, cones[1:])
            assert is_complete(dropped) is False


class TestBuiltins:
    def test_hirzebruch_rays(self):
        assert builtin_fan("hirzebruch(1)").rays == ((1, 0), (0, 1), (-1, 1), (0, -1))

    def test_cp2_rays(self, cp2):
        assert cp2.rays == ((1, 0), (0, 1), (-1, -1))

    def test_affine(self):
        fan = builtin_fan("affine(2)")
        assert fan.rays == ((1, 0), (0, 1))
        assert frozenset((0, 1)) in fan.cones

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_fan("weighted(3)")

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            builtin_fan("cp(0)")


class TestReconstruction:
    @pytest.mark.parametrize("name", ["cp(1)", "cp(2)", "cp(3)", "hirzebruch(2)", "affine(2)"])
    def test_fan_rebuilds_from_complex_and_rays(self, name):
        fan = builtin_fan(name)
        rebuilt = Fan(fan.dim, fan.rays, underlying_complex(fan).max_faces)
        assert rebuilt == fan


class TestJson:
    def test_roundtrip(self, h1):
        assert fan_from_json(fan_to_json(h1)) == h1

    def test_load_fixture(self, fixtures_dir, h1):
        assert fan_from_json(json.loads((fixtures_dir / "hirzebruch1.json").read_text())) == h1

    def test_bad_ray_index_pointer(self):
        with pytest.raises(FanJsonError) as err:
            fan_from_json({"dim": 1, "rays": [[1]], "max_cones": [[0, 5]]})
        assert err.value.pointer == "/max_cones/0/1"

    def test_missing_key_pointer(self):
        with pytest.raises(FanJsonError) as err:
            fan_from_json({"dim": 2, "rays": [[1, 0]]})
        assert err.value.pointer == "/max_cones"

    def test_ray_length_pointer(self):
        with pytest.raises(FanJsonError) as err:
            fan_from_json({"dim": 2, "rays": [[1, 0], [1]], "max_cones": [[0]]})
        assert err.value.pointer == "/rays/1"

    @pytest.mark.parametrize("doc, pointer", [
        ({"dim": True, "rays": [[1], [-1]], "max_cones": [[0], [1]]}, "/dim"),
        ({"dim": 1, "rays": [[True], [-1]], "max_cones": [[0], [1]]}, "/rays/0/0"),
        ({"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [True]]}, "/max_cones/1/0"),
    ])
    def test_json_booleans_are_not_integers(self, doc, pointer):
        with pytest.raises(FanJsonError) as err:
            fan_from_json(doc)
        assert err.value.pointer == pointer


def _reference_validate(dim, rays, listed):
    """Brute-force validator: store every geometric face of the listed cones
    (one escape LP per index subset), then check face closure, the stored
    cones nested in maximal ones, and every pair of maximal cones."""
    from toricstab.exactla import echelon
    from toricstab.fans import _escapes

    fan = Fan(dim, rays, listed)

    def simplicial(cone):
        return not cone or len(echelon(fan.generators(cone))[1]) == len(cone)

    def faces(cone):
        subsets = {frozenset(s) for k in range(len(cone) + 1) for s in combinations(sorted(cone), k)}
        if simplicial(cone):
            return subsets
        return {s for s in subsets if not s or s == cone or not _escapes(fan, cone, s)}

    stored = {frozenset()}
    for cone in map(frozenset, listed):
        stored |= faces(cone)
    maximal = [c for c in stored if not any(c < d for d in stored)]
    if any(not any(ray) or primitive_ray(ray) != tuple(ray) for ray in rays):
        return False
    if len(set(map(tuple, rays))) != len(rays) or not any(stored):
        return False
    if any(not simplicial(c) and _escapes(fan, c, frozenset()) for c in maximal):
        return False
    if any(not faces(c) <= stored for c in maximal):
        return False
    if any(s < b and s not in faces(b) for s in stored for b in maximal):
        return False
    return not any(_escapes(fan, a, b) for a, b in combinations(maximal, 2))


def _random_fan(rng):
    """A small 2-D or 3-D fan that often breaks some axiom: non-primitive and
    repeated rays, non-simplicial cones and listed cones nested in others."""
    dim = rng.choice((2, 3))
    r = rng.randint(2, 6)
    rays = []
    while len(rays) < r:
        v = tuple(rng.randint(-1, 1) for _ in range(dim))
        if any(v):
            rays.append(tuple(2 * x for x in v) if rng.random() < 0.05 else v)
    cones = [rng.sample(range(r), rng.randint(1, min(r, dim + 1))) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        big = max(cones, key=len)
        cones.append(rng.sample(big, rng.randint(1, len(big))))
    return dim, rays, cones


def test_validate_matches_face_closure_reference():
    rng = random.Random(2021)
    verdicts = {True: 0, False: 0}
    nonsimplicial = nested = 0
    for _ in range(250):
        dim, rays, cones = _random_fan(rng)
        expected = _reference_validate(dim, rays, cones)
        assert validate_fan(fan_from_max_cones(dim, rays, cones)).ok == expected, (dim, rays, cones)
        verdicts[expected] += 1
        nonsimplicial += any(len(c) > dim for c in cones)
        nested += any(set(a) < set(b) for a, b in combinations(cones, 2))
    assert min(verdicts.values()) >= 50 and nonsimplicial >= 40 and nested >= 40, (verdicts, nonsimplicial, nested)
