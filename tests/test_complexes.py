import random
import time
from itertools import chain, combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricstab import (
    CapExceededError,
    PointInProduct,
    SimplicialComplex,
    UndefinedValueError,
    UnsupportedFanError,
    builtin_fan,
    complex_power,
    dim_arrangement,
    dim_config,
    in_arrangement,
    in_polyhedral_product,
    minimal_non_faces,
    primitive_collections,
    r_min,
    underlying_complex,
)
from toricstab import complexes
from toricstab.complexes import DUALIZATION_CAP, POWER_FACET_CAP, collections_inside
from toricstab.fans import Fan


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


class TestUnderlyingComplex:
    def test_hirzebruch_faces(self, h1):
        k = underlying_complex(h1)
        assert k.max_faces == frozenset(
            {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})}
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space_is_simplex_boundary(self, m):
        k = underlying_complex(builtin_fan(f"cp({m})"))
        assert k.max_faces == frozenset(
            frozenset(c) for c in combinations(range(m + 1), m)
        )

    def test_affine_is_full_simplex(self):
        k = underlying_complex(builtin_fan("affine(3)"))
        assert k.max_faces == {frozenset({0, 1, 2})}

    def test_ray_spanning_no_cone_rejected(self):
        fan = Fan(2, ((1, 0), (0, 1)), [frozenset(), frozenset((0,))])
        with pytest.raises(UnsupportedFanError):
            underlying_complex(fan)

    def test_one_dualization_per_fan(self, monkeypatch):
        from toricstab.stability import e1_support, stability_report

        dualizations = []
        real = complexes.minimal_non_faces

        def counted(complex_):
            if complex_._minimal_cache is None:
                dualizations.append(complex_)
            return real(complex_)

        monkeypatch.setattr(complexes, "minimal_non_faces", counted)
        fan = builtin_fan("hirzebruch(2)")
        prims = primitive_collections(fan)
        assert r_min(fan) == 2 and underlying_complex(fan) is fan.complex
        stability_report((4, 4, 4, 4), fan, 2)
        e1_support((4, 4, 4, 4), fan, 2)
        assert primitive_collections(fan) is prims
        assert dualizations == [fan.complex]


def upward_closure(k):
    """Every vertex set containing a minimal non-face of k."""
    prims = minimal_non_faces(k)
    return {
        s for s in (frozenset(p) for p in powerset(range(k.vertex_count)))
        if any(p <= s for p in prims)
    }


class TestNonFaces:
    def test_segment_boundary(self):
        k = SimplicialComplex(2, [{0}, {1}])
        assert upward_closure(k) == {frozenset({0, 1})}

    def test_hirzebruch_non_faces_are_supersets_of_primitives(self, h1):
        expected = {
            s for s in (frozenset(p) for p in powerset(range(4)))
            if frozenset({0, 2}) <= s or frozenset({1, 3}) <= s
        }
        assert upward_closure(underlying_complex(h1)) == expected

    def test_full_simplex_has_none(self):
        k = SimplicialComplex(3, [{0, 1, 2}])
        assert upward_closure(k) == set()

    def test_characterization_against_max_faces(self):
        # a non-face is exactly a set contained in no maximal face
        rng = random.Random(13)
        for _ in range(20):
            r = rng.randint(2, 6)
            maxima = [frozenset(rng.sample(range(r), rng.randint(1, r))) for _ in range(3)]
            k = SimplicialComplex(r, maxima)
            non_faces = upward_closure(k)
            for s in (frozenset(p) for p in powerset(range(r))):
                expected = not any(s <= f for f in k.max_faces)
                assert (s in non_faces) == expected
                assert k.is_face(s) != expected


class TestPrimitiveCollections:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch(self, k):
        fan = builtin_fan(f"hirzebruch({k})")
        assert primitive_collections(fan) == {frozenset({0, 2}), frozenset({1, 3})}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space(self, m):
        fan = builtin_fan(f"cp({m})")
        assert primitive_collections(fan) == {frozenset(range(m + 1))}

    def test_affine_empty(self):
        assert primitive_collections(builtin_fan("affine(2)")) == frozenset()

    def test_minimality(self, h1):
        k = underlying_complex(h1)
        prims = minimal_non_faces(k)
        for s in (frozenset(p) for p in powerset(range(4))):
            assert k.is_face(s) != any(p <= s for p in prims)
        for p in prims:
            for v in p:
                assert k.is_face(p - {v})


class TestRMin:
    def test_hirzebruch(self, h1):
        assert r_min(h1) == 2

    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 3), (3, 4)])
    def test_projective_space(self, m, expected):
        assert r_min(builtin_fan(f"cp({m})")) == expected

    def test_affine_undefined(self):
        with pytest.raises(UndefinedValueError):
            r_min(builtin_fan("affine(2)"))

    @pytest.mark.parametrize("name", ["cp(1)", "cp(2)", "cp(3)", "hirzebruch(1)", "hirzebruch(3)"])
    def test_at_least_two_on_valid_fans(self, name):
        assert r_min(builtin_fan(name)) >= 2


class TestComplexPower:
    def test_segment_boundary_squares_to_tetrahedron_boundary(self):
        k = SimplicialComplex(2, [{0}, {1}])
        p = complex_power(k, 2)
        assert p.vertex_count == 4
        assert p.max_faces == frozenset(
            frozenset(c) for c in combinations(range(4), 3)
        )

    @pytest.mark.parametrize("name", ["cp(2)", "hirzebruch(1)", "affine(2)"])
    def test_power_one_is_identity(self, name):
        k = underlying_complex(builtin_fan(name))
        assert complex_power(k, 1) == k

    def test_hirzebruch_power_minimal_non_faces(self, h1):
        p = complex_power(underlying_complex(h1), 2)
        assert minimal_non_faces(p) == {
            frozenset({0, 1, 4, 5}),   # {0, 2} x [2] under (i, j) -> 2i + j
            frozenset({2, 3, 6, 7}),   # {1, 3} x [2]
        }

    @pytest.mark.parametrize("name", ["cp(1)", "cp(2)", "hirzebruch(1)"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_diagonal_embedding(self, name, n):
        # sigma is a face exactly when the full block sigma x [n] is one
        fan = builtin_fan(name)
        k = underlying_complex(fan)
        p = complex_power(k, n)
        for s in powerset(range(k.vertex_count)):
            block = frozenset(i * n + j for i in s for j in range(n))
            assert k.is_face(s) == p.is_face(block)


def p1_power_complex(k):
    """Complex of (P^1)^k: one vertex of each pair {2i, 2i + 1} per facet."""
    return SimplicialComplex(
        2 * k, [frozenset(2 * i + c[i] for i in range(k)) for c in product((0, 1), repeat=k)]
    )


class TestPowerCap:
    def test_p1_eighth_power_builds_at_the_cap(self):
        p = complex_power(p1_power_complex(8), 2)
        assert len(p.max_faces) == 2 ** 16 <= POWER_FACET_CAP

    def test_facet_count_above_cap_raises_before_building(self):
        r = POWER_FACET_CAP.bit_length()
        k = SimplicialComplex(r, [])  # 2^r facets at n = 2
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            complex_power(k, 2)
        assert time.perf_counter() - start < 0.1

    def test_p1_sixth_power_is_fast(self):
        start = time.perf_counter()
        p = complex_power(p1_power_complex(6), 2)
        assert time.perf_counter() - start < 0.5
        assert len(p.max_faces) == 2 ** 12


def missing_triples(k):
    """The complex on [3k] whose facets each miss one of k disjoint triples;
    its minimal non-faces are the 3^k sets with one vertex from each triple."""
    everything = frozenset(range(3 * k))
    return SimplicialComplex(3 * k, [everything - {3 * i, 3 * i + 1, 3 * i + 2}
                                     for i in range(k)])


class TestDualizationCap:
    def test_step_above_the_cap_raises_before_growing(self):
        assert 3 ** 10 <= DUALIZATION_CAP < 3 ** 11
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"this one has {3 ** 11}"):
            minimal_non_faces(missing_triples(11))
        assert time.perf_counter() - start < 1.0


# -- brute-force references ----------------------------------------------------

def subsets(items):
    return [frozenset(s) for s in powerset(items)]


def brute_minimal_non_faces(k):
    """Powerset search: non-faces all of whose one-smaller subsets are faces."""
    faces = {s for s in subsets(range(k.vertex_count)) if any(s <= f for f in k.max_faces)}
    return {
        s for s in subsets(range(k.vertex_count))
        if s not in faces and all(s - {v} in faces for v in s)
    }


def bitmask(vertices):
    return sum(1 << x for x in vertices)


def block_masks(prims, n):
    """Each full block sigma x [n] over a primitive sigma, as a bitmask of the grid."""
    return [bitmask(i * n + j for i in sigma for j in range(n)) for sigma in prims]


def block_face(blocks, mask):
    """Block definition: the set of the bitmask holds no full block."""
    return all(block & mask != block for block in blocks)


@st.composite
def random_complexes(draw):
    r = draw(st.integers(0, 9))
    vertex_sets = st.frozensets(st.integers(0, r - 1), max_size=r) if r else st.just(frozenset())
    return SimplicialComplex(r, draw(st.lists(vertex_sets, max_size=6)))


@st.composite
def many_facet_complexes(draw):
    # facets of random sizes on up to 12 vertices: same-size facets are
    # common, so a change of processing order shows in the step counts
    r = draw(st.integers(4, 12))
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(2, 10))
    return SimplicialComplex(r, [rng.sample(range(r), rng.randint(1, r - 1)) for _ in range(count)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_complexes(), many_facet_complexes()))
@example(SimplicialComplex(0, []))
@example(SimplicialComplex(4, []))
@example(SimplicialComplex(5, [{0, 1}, {1, 2}]))
def test_minimal_non_faces_match_powerset_search(k):
    assert minimal_non_faces(k) == brute_minimal_non_faces(k)


@st.composite
def complexes_and_vertex_sets(draw):
    """A complex (random, many-facet, or that of cp(1..3) or hirzebruch(1..2))
    and a vertex set W, all vertices in about one case of four."""
    k = draw(st.one_of(
        random_complexes(), many_facet_complexes(),
        st.sampled_from(["cp(1)", "cp(2)", "cp(3)", "hirzebruch(1)", "hirzebruch(2)"])
        .map(lambda name: underlying_complex(builtin_fan(name)))))
    everything = frozenset(range(k.vertex_count))
    subset = st.frozensets(st.sampled_from(sorted(everything)), max_size=k.vertex_count) \
        if k.vertex_count else st.just(frozenset())
    return k, draw(st.one_of(st.just(everything), subset))


@settings(max_examples=150, deadline=None)
@given(complexes_and_vertex_sets())
def test_collections_inside_are_the_primitive_collections_there(case):
    k, within = case
    expected = sorted(sorted(s) for s in minimal_non_faces(k) if s <= within)
    assert sorted(sorted(s) for s in collections_inside(k, within)) == expected


def frozenset_berge(k):
    """Berge's dualization on frozensets, step for step as minimal_non_faces
    runs it on bitmasks: complements by (size, sorted list), the same grown
    set count checked against complexes.DUALIZATION_CAP at each step."""
    everything = frozenset(range(k.vertex_count))
    complements = sorted((everything - f for f in k.max_faces), key=lambda e: (len(e), sorted(e)))
    transversals = [frozenset()]
    for edge in complements:
        kept, missed, rest = [], [], {}
        for t in transversals:
            hit = t & edge
            if not hit:
                missed.append(t)
                continue
            kept.append(t)
            if len(hit) == 1:
                (v,) = hit
                rest.setdefault(v, []).append(t - hit)
        CapExceededError.check(len(missed) * len(edge), complexes.DUALIZATION_CAP,
                               "dualization capped at {cap} sets per step")
        transversals = kept + [t | {v} for t in missed for v in edge
                               if not any(s <= t for s in rest.get(v, ()))]
    return frozenset(transversals)


def dualization_run(kernel, k, cap):
    """The grown-set count of every step a kernel checks under cap, and its
    result or the message it raised."""
    counts = []
    check = CapExceededError.check.__func__

    def spy(cls, count, cap, limit):
        counts.append(count)
        return check(cls, count, cap, limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "DUALIZATION_CAP", cap)
        mp.setattr(CapExceededError, "check", classmethod(spy))
        try:
            out = kernel(k)
        except CapExceededError as exc:
            out = str(exc)
    return counts, out


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_complexes(), many_facet_complexes()), st.integers(0, 80))
@example(missing_triples(3), 26)
@example(missing_triples(3), 27)
@example(SimplicialComplex(5, [{0, 1}, {1, 2}]), 0)
def test_bitmask_dualization_matches_frozenset_berge(k, cap):
    # the same family, or a raise at the same step with the same count
    fresh = SimplicialComplex._from_facets(k.vertex_count, k.max_faces)
    assert dualization_run(minimal_non_faces, fresh, cap) == dualization_run(frozenset_berge, k, cap)


@settings(max_examples=150, deadline=None)
@given(random_complexes(), st.sampled_from([1, 2, 3]), st.randoms(use_true_random=False))
@example(SimplicialComplex(0, []), 2, random.Random(0))
@example(SimplicialComplex(4, []), 3, random.Random(0))
@example(SimplicialComplex(5, [{0, 1}, {1, 2}]), 2, random.Random(0))
def test_complex_power_matches_block_definition(k, n, rng):
    blocks = block_masks(brute_minimal_non_faces(k), n)
    p = complex_power(k, n)
    grid = range(k.vertex_count * n)
    assert p.vertex_count == len(grid)
    # every facet is a face, and adding any grid vertex to it breaks that
    for f in p.max_faces:
        mask = bitmask(f)
        assert block_face(blocks, mask)
        # f | {x} holds a full block exactly when x is the one vertex of that
        # block outside f
        completing = {block & ~mask for block in blocks}
        assert all(1 << x in completing for x in grid if x not in f)
    # every face lies in a facet: exhaustively on small grids, and through
    # greedy maximal faces along random vertex orders on all grids
    if len(grid) <= 10:
        for s in subsets(grid):
            assert p.is_face(s) == block_face(blocks, bitmask(s))
    for _ in range(5):
        face = frozenset()
        for x in rng.sample(list(grid), len(grid)):
            if block_face(blocks, bitmask(face | {x})):
                face |= {x}
        assert face in p.max_faces


class TestDimensions:
    def test_arrangement_examples(self, h1, cp1, cp2):
        assert dim_arrangement(h1, 2) == 8
        assert dim_arrangement(cp1, 1) == 0
        assert dim_arrangement(cp2, 2) == 0

    def test_config_examples(self, h1):
        assert dim_config(h1, 2, 1) == 10
        assert dim_config(h1, 2, 3) == 30

    @pytest.mark.parametrize("name", ["cp(1)", "cp(2)", "hirzebruch(1)", "hirzebruch(2)"])
    def test_config_identity(self, name):
        rng = random.Random(5)
        fan = builtin_fan(name)
        for _ in range(10):
            n = rng.randint(1, 4)
            k = rng.randint(1, 6)
            assert dim_config(fan, n, k) == 2 * k + k * dim_arrangement(fan, n)


class TestPointMembership:
    def test_all_blocks_nonzero(self, h1):
        k = underlying_complex(h1)
        pt = PointInProduct(tuple((1.0, 1.0) for _ in range(4)))
        assert in_polyhedral_product(pt, k)
        assert not in_arrangement(pt, h1)

    def test_primitive_support_is_excluded(self, h1):
        k = underlying_complex(h1)
        blocks = tuple((0.0, 0.0) if i in (0, 2) else (1.0, 1.0) for i in range(4))
        pt = PointInProduct(blocks)
        assert not in_polyhedral_product(pt, k)
        assert in_arrangement(pt, h1)

    def test_face_support_is_allowed(self, h1):
        k = underlying_complex(h1)
        blocks = tuple((0.0, 0.0) if i in (0, 1) else (1.0, 1.0) for i in range(4))
        pt = PointInProduct(blocks)
        assert in_polyhedral_product(pt, k)
        assert not in_arrangement(pt, h1)

    def test_single_zero_block(self, h1):
        blocks = tuple((0.0, 0.0) if i == 0 else (1.0, 1.0) for i in range(4))
        assert not in_arrangement(PointInProduct(blocks), h1)

    def test_block_count_mismatch(self, h1):
        k = underlying_complex(h1)
        pt = PointInProduct(((1.0,), (1.0,)))
        with pytest.raises(ValueError):
            in_polyhedral_product(pt, k)
        with pytest.raises(ValueError):
            in_arrangement(pt, h1)

    @pytest.mark.parametrize("name", ["cp(1)", "cp(2)", "hirzebruch(1)", "hirzebruch(3)"])
    def test_complement_dichotomy_exhaustive(self, name):
        fan = builtin_fan(name)
        k = underlying_complex(fan)
        r = k.vertex_count
        for pattern in powerset(range(r)):
            sup = frozenset(pattern)
            blocks = tuple(
                (0.0, 0.0) if i in sup else (1.0, 0.5) for i in range(r)
            )
            pt = PointInProduct(blocks)
            assert in_polyhedral_product(pt, k) != in_arrangement(pt, k)
