import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab import complexes, modular, polynomials
from toricstab import (
    CapExceededError,
    GaussianRational,
    MembershipResult,
    PolySystem,
    RationalPoly,
    RootPoly,
    UnsupportedFanError,
    UndefinedValueError,
    builtin_fan,
    derivative,
    evaluate_jet,
    fan_from_max_cones,
    gcd_monic,
    in_arrangement,
    in_polyhedral_product,
    is_member,
    jet,
    jet_section,
    mult_part,
    n_of,
    phi_map,
    primitive_collections,
    stabilize,
    system_from_json,
    system_to_json,
    underlying_complex,
)
from toricstab.exactla import P
from toricstab.polynomials import JET_COEFFICIENT_CAP, SystemJsonError, _json_rational, _rational

from corpus import make_generic_system, make_planted_system, root_pool

ROOT = pathlib.Path(__file__).resolve().parent.parent
G = GaussianRational
ZERO = G(0)


def poly(*ascending):
    return RationalPoly([G(c) for c in ascending])


def _read_root(re, im):
    """The root system_from_json reads from the JSON triple [re, im, 1]."""
    return system_from_json({"roots": [[[re, im, 1]]]}).polys[0].roots[0][0]


class TestGaussianRational:
    def test_pair_roundtrip(self):
        a = _read_root("3/2", "-1/4")
        assert a.to_pair() == ["3/2", "-1/4"]

    def test_pair_decimal_and_exponent_forms(self):
        assert _read_root("0.5", "-1/3") == G(Fraction(1, 2), Fraction(-1, 3))
        assert _read_root("2.5e-3", "1E2") == G(Fraction(1, 400), 100)
        # 4300 digits print back; one more would not
        assert len(_read_root("1e4299", "0").to_pair()[0]) == 4300

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "12e4299", "1e999999999", "1e+" + "9" * 5000])
    def test_pair_beyond_printable_digits_rejected(self, text):
        with pytest.raises(ValueError):
            _read_root(text, "0")

    @pytest.mark.parametrize("value", [G(10 ** 4300), G(0, -10 ** 4300), G(Fraction(1, 10 ** 4300))],
                             ids=["re", "im", "denominator"])
    def test_to_pair_beyond_printable_digits_raises_cap(self, value):
        with pytest.raises(CapExceededError, match="a value has more than 4300 digits to print"):
            value.to_pair()


class TestDerivative:
    def test_first_derivative(self):
        assert derivative(poly(0, 0, 1)) == poly(0, 2)

    def test_order_equal_to_degree(self):
        assert derivative(poly(1, 0, 0, 1), 3) == poly(6)

    def test_order_zero_is_identity(self):
        f = poly(3, 1, 2)
        assert derivative(f, 0) == f

    def test_order_beyond_degree_is_zero(self):
        assert derivative(poly(1, 1), 5).is_zero

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 9))
    def test_order_k_is_k_first_derivatives(self, coeffs, order):
        f = poly(*coeffs)
        iterated = f
        for _ in range(order):
            iterated = derivative(iterated)
        assert derivative(f, order) == iterated

    def test_huge_order_is_immediate(self):
        # closed form c_i * i! / (i - order)!: no work per order
        f = poly(1, 2, 3, 4)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            assert derivative(f, 10**6).is_zero
            best = min(best, time.perf_counter() - start)
        assert best < 0.01, f"{best * 1e3:.1f} ms"


class TestJet:
    def test_quadratic(self):
        f = poly(0, 0, 1)  # z^2
        entries = jet(f, 2)
        assert entries[0] == f
        assert entries[1] == poly(0, 2, 1)  # z^2 + 2z

    def test_single_entry(self):
        f = poly(5, 1)
        assert jet(f, 1) == (f,)

    def test_values_at_zero(self):
        f = poly(1, 1, 1)
        assert [e.evaluate(ZERO) for e in jet(f, 3)] == [G(1), G(2), G(3)]

    def test_monic_entries_for_monic_input(self):
        f = poly(2, -1, 3, 1)
        assert all(e.is_monic and e.degree == 3 for e in jet(f, 3))

    def test_coefficient_count_above_the_cap_raises_before_building(self):
        f = poly(0, 0, 1)  # 3 coefficients per entry
        n = JET_COEFFICIENT_CAP // 3 + 1
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"this one has {3 * n}"):
            jet(f, n)
        assert time.perf_counter() - start < 0.1


class TestMultPart:
    def test_double_root_extracted(self):
        f = RationalPoly.from_roots([(G(1), 2), (G(2), 1)])
        assert mult_part(f, 2) == poly(-1, 1)

    def test_squarefree_gives_one(self):
        f = RationalPoly.from_roots([(G(1), 1), (G(2), 1), (G(0, 1), 1)])
        assert mult_part(f, 2) == poly(1)

    def test_order_one_is_monic_normalization(self):
        f = poly(2, 4)
        assert mult_part(f, 1) == poly(Fraction(1, 2), 1)

    def test_multiplicity_shift(self):
        # root of multiplicity mu appears in the n-part with mu - n + 1
        f = RationalPoly.from_roots([(G(3), 4), (G(-1), 2)])
        part = mult_part(f, 2)
        assert part == RationalPoly.from_roots([(G(3), 3), (G(-1), 1)])

    def test_jet_vanishes_exactly_at_heavy_roots(self):
        # F_n(f)(alpha) = 0 iff alpha has multiplicity >= n, matching mult_part
        rng = random.Random(19)
        for _ in range(15):
            mu = rng.randint(1, 4)
            alpha = G(rng.randint(-5, 5))
            other = G(rng.randint(6, 9))
            f = RationalPoly.from_roots([(alpha, mu), (other, 1)])
            for n in range(1, 5):
                vanishes = all(not e.evaluate(alpha) for e in jet(f, n))
                assert vanishes == (mu >= n)
                part = mult_part(f, n)
                assert (not part.evaluate(alpha)) == (mu >= n)

    def test_matches_sympy_gcd_chain(self):
        rng = random.Random(21)
        z = sympy.symbols("z")
        for _ in range(15):
            mults = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            seen = {}
            for root, m in mults:
                seen[root] = max(seen.get(root, 0), m)
            n = rng.randint(2, 3)
            f = RationalPoly.from_roots([(G(r), m) for r, m in seen.items()])
            expr = sympy.prod([(z - r) ** m for r, m in seen.items()])
            chain = expr
            for order in range(1, n):
                chain = sympy.gcd(chain, sympy.diff(expr, z, order))
            ours = mult_part(f, n)
            theirs = sympy.Poly(chain, z).monic().all_coeffs()[::-1]
            assert [c.re for c in ours.coeffs] == [Fraction(str(c)) for c in theirs]


class TestMembership:
    def test_shared_double_root_rejected(self, cp1):
        z2 = RationalPoly.from_roots([(ZERO, 2)])
        system = PolySystem.coefficient_system([z2, z2])
        verdict = is_member(system, cp1, 2)
        assert not verdict.member
        assert verdict.witness_collection == (0, 1)
        assert verdict.witness_factor == poly(0, 1)

    def test_disjoint_double_roots_accepted(self, cp1):
        z2 = RationalPoly.from_roots([(ZERO, 2)])
        system = PolySystem.coefficient_system([z2, poly(1, 0, 1)])
        assert is_member(system, cp1, 2).member

    def test_low_degree_on_every_collection_accepts(self, cp1):
        # the only primitive collection holds a degree-1 polynomial
        system = PolySystem.coefficient_system([poly(5, 1), RationalPoly.from_roots([(ZERO, 3)])])
        assert is_member(system, cp1, 3).member

    def test_common_simple_roots_allowed(self, h1):
        shared = RationalPoly.from_roots([(G(2), 1), (G(3), 1)])
        system = PolySystem.coefficient_system([shared] * 4)
        assert is_member(system, h1, 2).member

    def test_collection_locality(self, h1):
        # a common double root on a face pair {0, 1} does not violate anything
        z2 = RationalPoly.from_roots([(ZERO, 2)])
        ok = RationalPoly.from_roots([(G(1), 1), (G(2), 1)])
        system = PolySystem.coefficient_system([z2, z2, ok, ok])
        assert is_member(system, h1, 2).member
        # but on the primitive pair {0, 2} it does
        system = PolySystem.coefficient_system([z2, ok, z2, ok])
        verdict = is_member(system, h1, 2)
        assert not verdict.member and verdict.witness_collection == (0, 2)

    def test_root_form_agrees(self, cp1):
        planted = PolySystem.root_system([[(0j, 2)], [(0j, 2)]])
        assert not is_member(planted, cp1, 2).member
        split = PolySystem.root_system([[(0j, 2)], [(1j, 1), (-1j, 1)]])
        assert is_member(split, cp1, 2).member

    def test_root_form_merges_only_equal_roots(self, cp1):
        # 0 and 1e-9 are distinct roots, however close
        near = PolySystem.root_system([[(0j, 1), (1e-9 + 0j, 1)], [(0j, 2), (1 + 0j, 1)]])
        assert near.polys[0].roots == ((ZERO, 1), (G(Fraction(1e-9)), 1))
        assert is_member(near, cp1, 2).member
        # 0, 0.0 and "0/1" are one root, whose multiplicities add up
        spelled = system_from_json({"roots": [[[0, 0, 1], [0.0, "0/1", 1]], [["0/1", 0.0, 2]]]})
        assert spelled.polys[0].roots == ((ZERO, 2),)
        verdict = is_member(spelled, cp1, 2)
        assert not verdict.member and verdict.witness_root == ZERO

    def test_ray_count_mismatch(self, h1):
        system = PolySystem.coefficient_system([poly(0, 1)])
        with pytest.raises(ValueError):
            is_member(system, h1, 2)

    def test_ray_count_mismatch_is_an_undefined_value(self, h1):
        system = PolySystem.coefficient_system([poly(0, 1)])
        with pytest.raises(UndefinedValueError, match="system has 1 polynomials, fan has 4 rays"):
            is_member(system, h1, 2)


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_and_generic_agree(self, seed):
        rng = random.Random(seed)
        for name in ("cp(1)", "hirzebruch(1)"):
            fan = builtin_fan(name)
            for n in (2, 3):
                coeff, root, _ = make_planted_system(fan, n, rng)
                assert not is_member(coeff, fan, n).member
                assert not is_member(root, fan, n).member
                coeff, root = make_generic_system(fan, n, rng)
                assert is_member(coeff, fan, n).member
                assert is_member(root, fan, n).member


class TestDiscriminantLink:
    def test_witness_root_lands_in_arrangement(self, h1):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 3)
            coeff, root, _ = make_planted_system(h1, n, rng)
            verdict = is_member(coeff, h1, n)
            alpha = is_member(root, h1, n).witness_root
            assert not verdict.member
            assert in_arrangement(evaluate_jet(coeff, n, alpha), h1)
            assert verdict.witness_factor.evaluate(alpha) == ZERO

    def test_member_jets_avoid_arrangement_at_all_roots(self, h1):
        rng = random.Random(8)
        k = underlying_complex(h1)
        for _ in range(10):
            n = rng.randint(2, 3)
            coeff, root = make_generic_system(h1, n, rng)
            assert is_member(coeff, h1, n).member
            for f in root.polys:
                for alpha, _ in f.roots:
                    point = evaluate_jet(coeff, n, alpha)
                    assert not in_arrangement(point, k)
                    assert in_polyhedral_product(point, k)


class TestNOf:
    def test_examples(self):
        assert n_of((5, 7, 5, 12)) == 29
        assert n_of((4, 4)) == 8
        assert n_of((1, 1, 1, 5)) == 8


class TestPhiMap:
    def test_at_origin(self):
        # N = 29: the identity up to N - 1 = 28, then N - 1/(x - N + 2)
        assert phi_map((5, 7, 5, 12), 0) == ZERO
        assert phi_map((5, 7, 5, 12), 28) == G(28)
        assert phi_map((5, 7, 5, 12), 29) == G(Fraction(57, 2))

    def test_image_in_half_plane(self):
        rng = random.Random(17)
        for _ in range(50):
            w = complex(rng.uniform(-5, 50), rng.uniform(-5, 5))
            assert phi_map((3, 4), w).re < 7

    def test_increasing_on_the_real_line(self):
        xs = [Fraction(k, 4) for k in range(-40, 400)]
        images = [phi_map((3, 4), x).re for x in xs]
        assert images == sorted(set(images))

    def test_imaginary_part_preserved(self):
        assert phi_map((2, 2), 3j).im == 3
        assert phi_map((2, 2), 100 + 3j).im == 3


class TestStabilize:
    def test_degrees_rise_by_shift(self):
        system = PolySystem.root_system([[(0j, 2)], [(1 + 0j, 3)]])
        assert stabilize(system, (1, 2)).degrees == (3, 5)

    def test_single_unit_shift_appends_one_root(self):
        system = PolySystem.root_system([[(0j, 2)], [(1 + 0j, 2)]])
        out = stabilize(system, (0, 1))
        assert len(out.polys[0].roots) == 1  # moved, nothing appended
        appended = [m for a, m in out.polys[1].roots if a.re > 4]
        assert appended == [1]

    def test_member_verdicts_preserved(self, cp1):
        bad = PolySystem.root_system([[(0.5 + 0j, 2)], [(0.5 + 0j, 2)]])
        good = PolySystem.root_system([[(0.5 + 0j, 2)], [(2 + 0j, 2)]])
        assert not is_member(stabilize(bad, (1, 1)), cp1, 2).member
        assert is_member(stabilize(good, (1, 1)), cp1, 2).member

    def test_zero_shift_rejected(self):
        system = PolySystem.root_system([[(0j, 1)], [(1 + 0j, 1)]])
        with pytest.raises(ValueError):
            stabilize(system, (0, 0))

    def test_coefficient_form_rejected(self, cp1):
        system = PolySystem.coefficient_system([poly(0, 1), poly(1, 1)])
        with pytest.raises(ValueError):
            stabilize(system, (1, 0))

    @pytest.mark.parametrize("form,shifts,message", [
        ("coefficient", (1, 0), "stabilize needs a root-form system"),
        ("root", (1,), "shift vector must have length 2"),
        ("root", (1, -1), "shift entries must be >= 0"),
        ("root", (0, 0), "shift vector must be nonzero"),
        ("root", (-1, 1.5, 0), "shift vector must have length 2"),  # the length is read first
        ("root", (1, 1.5), "shift entries must be an int, got 1.5"),
    ])
    def test_shape_and_form_errors_are_undefined_values(self, form, shifts, message):
        system = (PolySystem.coefficient_system([poly(0, 1), poly(1, 1)]) if form == "coefficient"
                  else PolySystem.root_system([[(0j, 1)], [(1 + 0j, 1)]]))
        with pytest.raises(UndefinedValueError, match=message):
            stabilize(system, shifts)

    def test_far_left_root_stays_exact(self):
        # the map is the identity left of N - 1, so no root is too far left
        system = PolySystem.root_system([[(0j, 1)], [(1 + 0j, 1), (-800 + 1j, 2)]])
        out = stabilize(stabilize(system, (1, 0)), (0, 1))
        assert (G(-800, 1), 2) in out.polys[1].roots


class TestJetSection:
    def test_example(self):
        f = jet_section([G(1), G(2), G(3)])
        assert f == poly(1, 1, 1)

    def test_constant_data(self):
        c = G(Fraction(7, 3))
        assert jet_section([c, c, c, c]) == RationalPoly([c])

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 6)
            b = [
                G(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(n)
            ]
            f = jet_section(b)
            assert f.degree <= n - 1
            assert [e.evaluate(ZERO) for e in jet(f, n)] == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jet_section([])


class TestEvaluateJet:
    def test_planted_system_at_planted_root(self, cp1):
        z2 = RationalPoly.from_roots([(ZERO, 2)])
        system = PolySystem.coefficient_system([z2, z2])
        point = evaluate_jet(system, 2, ZERO)
        assert point.blocks == ((ZERO, ZERO), (ZERO, ZERO))
        assert in_arrangement(point, cp1)

    def test_nonvanishing_alpha(self, cp1):
        z2 = RationalPoly.from_roots([(ZERO, 2)])
        system = PolySystem.coefficient_system([z2, z2])
        point = evaluate_jet(system, 2, G(1))
        assert in_polyhedral_product(point, underlying_complex(cp1))

    def test_root_form_matches_coefficient_form(self, cp1):
        coeff = PolySystem.coefficient_system(
            [RationalPoly.from_roots([(G(1), 1), (G(2), 1)]),
             RationalPoly.from_roots([(G(0, 1), 2)])]
        )
        root = PolySystem.root_system(
            [[(1 + 0j, 1), (2 + 0j, 1)], [(1j, 2)]]
        )
        # the float alpha counts as the dyadic rational it stores, in both forms
        alpha = 0.3 + 0.7j
        assert evaluate_jet(coeff, 3, alpha) == evaluate_jet(root, 3, alpha)


class TestSystemJson:
    def test_coefficient_roundtrip(self):
        system = PolySystem.coefficient_system(
            [poly(Fraction(1, 2), 1), RationalPoly.from_roots([(G(0, 1), 2)])]
        )
        again = system_from_json(system_to_json(system))
        assert again.degrees == system.degrees
        assert all(p == q for p, q in zip(again.polys, system.polys))

    def test_root_roundtrip(self):
        system = PolySystem.root_system([[(1 + 2j, 2)], [(0j, 1), (1j, 3)]])
        again = system_from_json(system_to_json(system))
        assert again.degrees == system.degrees

    def test_non_monic_rejected(self):
        with pytest.raises(SystemJsonError):
            system_from_json({"degrees": [1], "polys": [[["0", "0"], ["2", "0"]]]})

    def test_degree_mismatch_rejected(self):
        with pytest.raises(SystemJsonError) as err:
            system_from_json({"degrees": [2], "polys": [[["0", "0"], ["1", "0"]]]})
        assert err.value.pointer == "/polys/0"

    @pytest.mark.parametrize("m", [0, -1, 1.5, 2.0, True, "2", None])
    def test_multiplicity_must_be_a_positive_integer(self, m):
        with pytest.raises(SystemJsonError) as err:
            system_from_json({"roots": [[[0.0, 0.0, 1]], [[1.0, 0.0, 1], [2.0, 0.0, m]]]})
        assert err.value.pointer == "/roots/1/1"

    @pytest.mark.parametrize("d", [0, -2, 1.0, True, "1", None])
    def test_degrees_must_be_positive_integers(self, d):
        doc = {"degrees": [1, d], "polys": [[["0", "0"], ["1", "0"]], [["0", "0"], ["1", "0"]]]}
        with pytest.raises(SystemJsonError) as err:
            system_from_json(doc)
        assert err.value.pointer == "/degrees/1"

    @pytest.mark.parametrize("coordinate", [math.nan, math.inf, -math.inf])
    def test_root_coordinates_must_be_finite(self, coordinate):
        for triple in ([coordinate, 0.0, 1], [0.0, coordinate, 1]):
            with pytest.raises(SystemJsonError) as err:
                system_from_json({"roots": [[[0.0, 0.0, 1], triple]]})
            assert err.value.pointer == "/roots/0/1"


_DIGITS = st.text("0123456789", min_size=1, max_size=5)
_SIGNS = st.sampled_from(["", "-", "+", "--"])


@st.composite
def _rational_texts(draw):
    """Strings on and near the grammar Fraction reads: whitespace, signs,
    underscores, fractions with zero or signed denominators, decimals and
    exponents."""
    space = st.sampled_from(["", " ", "\t", "\n "])
    number = draw(st.lists(_DIGITS, min_size=1, max_size=3).map(draw(st.sampled_from(["", "_"])).join))
    tail = draw(st.sampled_from(["", "/", ".", "e", ".e"]))
    if tail == "/":
        tail += draw(_SIGNS) + draw(_DIGITS | st.just("0"))
    elif tail:
        tail = tail.replace("e", draw(st.sampled_from(["e", "E"])) + draw(_SIGNS) + draw(_DIGITS))
        tail = tail.replace(".", "." + draw(st.sampled_from(["", "5", "25"])))
    return draw(space) + draw(_SIGNS) + number + tail + draw(space)


_JSON_PARTS = st.one_of(
    _rational_texts(),
    st.text(" +-_/.eE0123456789", max_size=8),
    st.sampled_from(["9" * 4300, "9" * 4301, "-" + "9" * 4300, "1/" + "3" * 4301,
                     "9" * 4302 + "/" + "9" * 4301, "7/" + "0" * 3,
                     "1e4299", "1e4300", "\u0661\u0662", "3/0", "3/-4", "0/5", "-0"]),
    st.integers(),
    st.sampled_from([2 ** 12900, -(2 ** 12901), 10 ** 4299, 10 ** 4300, -(10 ** 4400)]),
    st.booleans(),
    st.floats(),
    st.none(),
)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "pointer", None)


@settings(max_examples=400, deadline=None)
@given(_JSON_PARTS)
def test_json_rational_matches_fraction_reading(value):
    fast, exact = _outcome(_json_rational, value), _outcome(_rational, value)
    if exact[0] == "value":
        num, den = fast[1]
        assert den > 0 and Fraction(num, den) == exact[1]
    else:
        assert fast == exact


@pytest.mark.parametrize("value, expected", [
    ("٣", (3, 1)),  # Arabic-Indic digit three: Fraction reads it
    ("²", (ValueError, "Invalid literal for Fraction: '²'")),  # isdigit, but no digit
    ("３", (3, 1)),  # fullwidth three
    ("+3", (3, 1)),
    (" 3", (3, 1)),
    ("3/", (ValueError, "Invalid literal for Fraction: '3/'")),
    ("/3", (ValueError, "Invalid literal for Fraction: '/3'")),
    ("1/0", (ZeroDivisionError, "Fraction(1, 0)")),
    ("-0/5", (0, 5)),
    ("007/010", (7, 10)),
])
def test_json_rational_edge_strings(value, expected):
    # ASCII digits split on "/" are read directly; everything else keeps
    # Fraction's reading, its value or its exception and message
    outcome = _outcome(_json_rational, value)
    if isinstance(expected[0], int):
        assert outcome == ("value", expected)
    else:
        assert outcome == (*expected, None)


def _from_pair(pair):
    """The value of a JSON [re, im] array read part by part through Fraction:
    the reference that the coefficient reader of system_from_json must match."""
    if type(pair) not in (list, tuple) or len(pair) != 2:
        raise ValueError("coefficient must be a [re, im] pair")
    return G(_rational(pair[0]), _rational(pair[1]))


def _from_pair_system_poly(coeffs):
    """The coefficient branch of system_from_json on the reference reader."""
    try:
        poly = RationalPoly([_from_pair(c) for c in coeffs])
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SystemJsonError(f"bad coefficient: {exc}", "/polys/0") from exc
    if poly.degree != 1 or not poly.is_monic:
        raise SystemJsonError("polynomial 0 must be monic of degree 1", "/polys/0")
    return poly


_JSON_PAIRS = st.one_of(
    st.lists(_JSON_PARTS, min_size=2, max_size=2),
    st.lists(_JSON_PARTS, max_size=3),
    st.sampled_from([5, "12", None, ("1/2", "3")]),
)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAIRS, st.just(["1", "0"]) | _JSON_PAIRS)
def test_coefficient_parser_matches_from_pair(c0, c1):
    parsed = _outcome(lambda: system_from_json({"degrees": [1], "polys": [[c0, c1]]}).polys[0])
    assert parsed == _outcome(_from_pair_system_poly, [c0, c1])


# -- printing: every path prints what str(Fraction) prints --------------------

_PRINTED_INTS = st.integers(-10 ** 30, 10 ** 30) | st.sampled_from([0, 1, -1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PRINTED_INTS, _PRINTED_INTS), min_size=1, max_size=6),
       st.integers(1, 10 ** 12) | st.just(1), st.integers(1, 60))
def test_printed_pairs_match_str_fraction(pairs, den, factor):
    # the factor is shared by every part and the denominator, so printing
    # must reduce each part on its own; zero parts and den 1 are drawn too
    pairs, den = [(x * factor, y * factor) for x, y in pairs], den * factor
    printed = [[str(Fraction(x, den)), str(Fraction(y, den))] for x, y in pairs]
    while printed and printed[-1] == ["0", "0"]:
        printed.pop()
    p = RationalPoly._from_pairs(pairs, den)
    assert p.to_pairs() == [c.to_pair() for c in p.coeffs] == printed
    assert system_to_json(PolySystem("coefficient", [p], [1]))["polys"] == [printed]
    for x, y in pairs:
        re, im = Fraction(x, den), Fraction(y, den)
        value = G(re, im)
        assert value.re is re and value.im is im  # a Fraction is kept, not rebuilt
        assert value.to_pair() == [str(re), str(im)]
        ints = G(x, y)
        assert (type(ints.re), type(ints.im)) == (Fraction, Fraction)
        assert (ints.re, ints.im) == (x, y)
        for parts in ((x / den, im), (re, float(y)), (float(x),)):
            with pytest.raises(TypeError, match="parts must be ints or Fractions"):
                G(*parts)


_PRINT_FROM_PAIRS = {
    "to_pairs": lambda p: p.to_pairs(),
    "system_to_json": lambda p: system_to_json(PolySystem("coefficient", [p], [1]))["polys"][0],
}


@pytest.mark.parametrize("part", ["re", "im", "denominator"])
@pytest.mark.parametrize("printing", sorted(_PRINT_FROM_PAIRS))
def test_int_pairs_beyond_printable_digits_raise_cap(printing, part):
    # the int-pair paths print 4300 digits of a numerator or denominator and
    # refuse 4301 with the message `to_pair` raises on the same value
    def value(big):
        return {"re": G(big, 1), "im": G(1, -big), "denominator": G(Fraction(1, big), 1)}[part]

    at_cap, past_cap = value(10 ** 4300 - 1), value(10 ** 4300)
    print_pairs = _PRINT_FROM_PAIRS[printing]
    assert print_pairs(RationalPoly.from_roots([(at_cap, 1)])) == [
        [f"-{t}" if t[0] != "-" else t[1:] for t in at_cap.to_pair()], ["1", "0"]]
    with pytest.raises(CapExceededError) as by_pair:
        past_cap.to_pair()
    with pytest.raises(CapExceededError) as by_pairs:
        print_pairs(RationalPoly.from_roots([(past_cap, 1)]))
    assert str(by_pairs.value) == str(by_pair.value) == "a value has more than 4300 digits to print"


# -- float helpers against numpy, a test-only oracle ----------------------------

@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


class TestFloatHelpersAgainstNumpy:
    @staticmethod
    def _root_multisets(rng):
        yield ()  # degree 0
        yield ((0.5 - 1.5j, 3),)  # one root of multiplicity 3
        yield ((2 + 0j, 3), (-1j, 1), (0.25 + 0.75j, 2))
        for _ in range(40):
            yield tuple((complex(rng.uniform(-4, 4), rng.uniform(-4, 4)), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 4)))

    def test_expanded_coeffs_match_np_poly(self, np):
        for roots in self._root_multisets(random.Random(47)):
            flat = [a for a, m in roots for _ in range(m)]
            expected = np.atleast_1d(np.poly(flat))[::-1].astype(complex)
            poly = RationalPoly.from_roots(RootPoly(roots).roots)
            found = np.array([c.to_complex() for c in poly.coeffs])
            assert found.shape == expected.shape
            assert np.max(np.abs(found - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_root_form_jets_match_np_polyval(self, np):
        rng = random.Random(53)
        for roots in self._root_multisets(rng):
            if not roots:
                continue  # a system polynomial has degree >= 1
            desc = np.poly([a for a, m in roots for _ in range(m)]).astype(complex)
            alpha = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            n = rng.randint(1, 6)  # n beyond the degree drives derivatives to zero
            (block,) = evaluate_jet(PolySystem.root_system([roots]), n, alpha).blocks
            base = np.polyval(desc, alpha)
            expected = [base] + [base + np.polyval(np.polyder(desc, k), alpha) for k in range(1, n)]
            scale = np.polyval(np.abs(desc), abs(alpha))
            assert len(block) == n
            assert all(abs(x.to_complex() - y) <= 1e-12 * scale for x, y in zip(block, expected))


_small_gaussian = st.builds(
    G,
    st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 4))),
    st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 4))),
)


# a root re/4 + (im/4) i, spelled as a JSON int or float, as a "p/q" string
# over 4, or in lowest terms
_spelled_root = st.tuples(st.integers(-2, 2), st.integers(0, 1), st.integers(1, 3),
                          st.sampled_from(("number", "over 4", "lowest")))


def _spell(quarters, how):
    if how == "number":
        return quarters / 4 if quarters % 4 else quarters // 4
    if how == "over 4":
        return f"{quarters}/4"
    return str(Fraction(quarters, 4))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("cp(1)", "cp(2)", "hirzebruch(1)")), st.integers(2, 3), st.data())
def test_root_form_agrees_with_coefficient_form(name, n, data):
    fan = builtin_fan(name)
    spelled = data.draw(st.lists(st.lists(_spelled_root, min_size=1, max_size=4),
                                 min_size=fan.ray_count, max_size=fan.ray_count))
    root = system_from_json({"roots": [[[_spell(re, how), _spell(im, how), m]
                                        for re, im, m, how in rl] for rl in spelled]})
    coeff = PolySystem.coefficient_system([
        RationalPoly.from_roots([(G(Fraction(re, 4), Fraction(im, 4)), m) for re, im, m, _ in rl])
        for rl in spelled])
    by_root, by_coeff = is_member(root, fan, n), is_member(coeff, fan, n)
    assert by_root.member == by_coeff.member
    assert by_root.witness_collection == by_coeff.witness_collection
    if not by_root.member:
        assert by_coeff.witness_factor.evaluate(by_root.witness_root) == ZERO


# -- the modular membership certificate against the exact Euclid ------------------

def _reference_is_member(system, fan, n):
    """The coefficient-form loop of is_member before its certificate modulo P:
    Euclid over Q(i) through mult_part and gcd_monic on every collection."""
    prims = sorted(primitive_collections(fan), key=lambda s: (len(s), sorted(s)))
    for sigma in prims:
        idx = sorted(sigma)
        g = mult_part(system.polys[idx[0]], n)
        for i in idx[1:]:
            if g.degree == 0:
                break
            g = gcd_monic(g, mult_part(system.polys[i], n))
        if g.degree >= 1:
            return MembershipResult(member=False, representation="coefficient",
                                    witness_collection=tuple(idx), witness_factor=g)
    return MembershipResult(member=True, representation="coefficient")


_CERTIFICATE_FANS = {name: builtin_fan(name)
                     for name in ("cp(1)", "cp(2)", "hirzebruch(1)", "hirzebruch(2)")}

# the 16 primitive directions of height <= 2, in angular order
_RING = sorted(((x, y) for x in range(-2, 3) for y in range(-2, 3) if math.gcd(x, y) == 1),
               key=lambda v: math.atan2(v[1], v[0]))


def _cycle_fan(rays):
    """The planar fan with one cone between each pair of angular neighbours."""
    return fan_from_max_cones(2, rays, [(k, (k + 1) % len(rays)) for k in range(len(rays))])


@st.composite
def _complete_planar_fans(draw):
    """Complete planar fans with 4-8 rays: ring directions whose angular
    neighbours are less than a half turn apart."""
    r = draw(st.integers(4, 8))
    rng = draw(st.randoms(use_true_random=False))
    while True:
        rays = [_RING[k] for k in sorted(rng.sample(range(len(_RING)), r))]
        if all(rays[k][0] * rays[k - 1][1] < rays[k][1] * rays[k - 1][0] for k in range(r)):
            return _cycle_fan(rays)


_MEMBERSHIP_FANS = st.one_of(st.sampled_from([*_CERTIFICATE_FANS.values(), builtin_fan("cp(3)")]),
                             _complete_planar_fans())


@st.composite
def _membership_cases(draw):
    """(root lists, fan, n): a builtin fan, cp(3) or a complete planar fan
    with 4-8 rays, n in 1..3, and one root list per ray.  Roots come from
    one small pool with multiplicities up to n + 1, so that collections
    share roots of every multiplicity; for n >= 2 a random set of the lists
    stays below multiplicity n, so light polynomials come both before and
    after heavy ones.  Optionally one primitive collection gets one or two
    planted roots of multiplicity n or n + 1 on each of its polynomials."""
    fan = draw(_MEMBERSHIP_FANS)
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(_small_gaussian, min_size=2, max_size=7, unique=True))
    light = draw(st.lists(st.booleans(), min_size=fan.ray_count, max_size=fan.ray_count))
    root_lists = [
        draw(st.dictionaries(st.sampled_from(pool), st.integers(1, max(1, n - 1) if is_light else n + 1),
                             min_size=1, max_size=3))
        for is_light in light
    ]
    prims = sorted(sorted(s) for s in primitive_collections(fan))
    planted = draw(st.sampled_from([None] + prims))
    if planted is not None:
        shared = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
        mult = draw(st.sampled_from((n, n + 1)))
        for i in planted:
            for alpha in shared:
                root_lists[i][alpha] = max(root_lists[i].get(alpha, 0), mult)
    return [list(roots.items()) for roots in root_lists], fan, n


@settings(max_examples=200, deadline=None)
@given(_membership_cases())
def test_certificate_matches_exact_euclid(case):
    root_lists, fan, n = case
    system = PolySystem.coefficient_system([RationalPoly.from_roots(rl) for rl in root_lists])
    assert is_member(system, fan, n) == _reference_is_member(system, fan, n)


def _reference_root_member(system, fan, n):
    """The root-form loop of is_member before its face test: the sets of
    roots of multiplicity >= n intersected over every primitive collection."""
    heavy = [frozenset(a for a, m in p.roots if m >= n) for p in system.polys]
    for idx in sorted(map(sorted, primitive_collections(fan)), key=lambda s: (len(s), s)):
        common = frozenset.intersection(*[heavy[i] for i in idx])
        if common:
            return MembershipResult(member=False, representation="root", witness_collection=tuple(idx),
                                    witness_root=next(a for a, _ in system.polys[idx[0]].roots if a in common))
    return MembershipResult(member=True, representation="root")


@settings(max_examples=150, deadline=None)
@given(_membership_cases())
def test_root_form_matches_full_dualization(case):
    root_lists, fan, n = case
    system = PolySystem.root_system(root_lists)
    assert is_member(system, fan, n) == _reference_root_member(system, fan, n)


@pytest.fixture
def exact_calls(monkeypatch):
    """Names of the exact-Euclid functions is_member calls, in call order."""
    calls = []
    for name in ("mult_part", "gcd_monic"):
        real = getattr(polynomials, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(polynomials, name, counted)
    return calls


class TestModularCertificate:
    def test_members_and_planted_systems_skip_the_exact_euclid(self, exact_calls):
        rng = random.Random(61)
        for fan in _CERTIFICATE_FANS.values():
            for n in (2, 3):
                for _ in range(4):
                    generic, _ = make_generic_system(fan, n, rng)
                    assert is_member(generic, fan, n).member
                    planted, _, _ = make_planted_system(fan, n, rng)
                    verdict = is_member(planted, fan, n)
                    assert exact_calls == []
                    # the reference itself runs gcd_monic through the patch
                    assert verdict == _reference_is_member(planted, fan, n)
                    assert not verdict.member
                    exact_calls.clear()

    def test_witness_of_degree_two_is_reconstructed(self, h1, exact_calls):
        # two shared double roots on {0, 2} and a triple root on {1, 3}: n = 2
        a, b = G(Fraction(1, 3), -2), G(Fraction(-5, 4), Fraction(7, 2))
        both = RationalPoly.from_roots([(a, 2), (b, 2), (G(9), 1)])
        triple = RationalPoly.from_roots([(G(0, 1), 3)])
        system = PolySystem.coefficient_system([both, triple, both, triple])
        verdict = is_member(system, h1, 2)
        assert verdict.witness_collection == (0, 2)
        assert verdict.witness_factor == RationalPoly.from_roots([(a, 1), (b, 1)])
        system = PolySystem.coefficient_system([triple, triple, both, triple])
        verdict = is_member(system, h1, 2)
        assert verdict.witness_collection == (1, 3)
        assert verdict.witness_factor == RationalPoly.from_roots([(G(0, 1), 2)])
        assert exact_calls == []

    def test_denominator_divisible_by_p_falls_back(self, cp1, exact_calls):
        # 1/P has no residue modulo P, so only the exact Euclid can decide
        tiny = G(Fraction(1, P), 2)
        heavy = RationalPoly.from_roots([(tiny, 2), (G(1), 1)])
        planted = PolySystem.coefficient_system([heavy, RationalPoly.from_roots([(tiny, 2)])])
        verdict = is_member(planted, cp1, 2)
        assert "mult_part" in exact_calls
        assert verdict == _reference_is_member(planted, cp1, 2)
        assert verdict.witness_factor == RationalPoly.from_roots([(tiny, 1)])
        exact_calls.clear()
        split = PolySystem.coefficient_system([heavy, RationalPoly.from_roots([(tiny, 1), (G(3), 2)])])
        verdict = is_member(split, cp1, 2)
        assert "mult_part" in exact_calls
        assert verdict.member and verdict == _reference_is_member(split, cp1, 2)

    def test_witness_beyond_reconstruction_bound_falls_back(self, cp2, exact_calls):
        # a root of height about 2^40: the witness z - alpha has no
        # reconstruction within 2^30, so the exact Euclid supplies it
        alpha = G((1 << 40) + 3, -((1 << 39) + 7))
        shared = RationalPoly.from_roots([(alpha, 3)])
        system = PolySystem.coefficient_system(
            [shared, RationalPoly.from_roots([(alpha, 3), (G(1), 1)]), shared])
        for n in (1, 2, 3):
            exact_calls.clear()
            verdict = is_member(system, cp2, n)
            assert "mult_part" in exact_calls
            assert verdict == _reference_is_member(system, cp2, n)
            assert verdict.witness_factor == RationalPoly.from_roots([(alpha, 4 - n)])

    def test_residues_that_collide_modulo_p_fall_back(self, cp1, exact_calls):
        # 0 and P are distinct roots with equal residues: the gcd modulo P is z,
        # which does not divide (z - P)^2, and the exact Euclid finds no factor
        system = PolySystem.coefficient_system(
            [RationalPoly.from_roots([(ZERO, 2)]), RationalPoly.from_roots([(G(P), 2)])])
        verdict = is_member(system, cp1, 2)
        assert "gcd_monic" in exact_calls
        assert verdict.member and verdict == _reference_is_member(system, cp1, 2)
        # z (z - P) is z^2 modulo P: z divides both polynomials exactly but
        # not their derivatives, so only the full check rejects it
        exact_calls.clear()
        split = RationalPoly.from_roots([(ZERO, 1), (G(P), 1)])
        system = PolySystem.coefficient_system([split, split])
        verdict = is_member(system, cp1, 2)
        assert "mult_part" in exact_calls
        assert verdict.member and verdict == _reference_is_member(system, cp1, 2)


@pytest.fixture
def work_calls(monkeypatch):
    """Calls is_member makes to mult_part_mod_p and minimal_non_faces."""
    calls = {"mult_part_mod_p": 0, "minimal_non_faces": 0}
    for module, name in ((modular, "mult_part_mod_p"), (complexes, "minimal_non_faces")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _planted_h1(sigma):
    """hirzebruch(1) system with a double root on the polynomials of sigma."""
    alpha = G(Fraction(1, 3), 2)
    return PolySystem.coefficient_system([
        RationalPoly.from_roots([(alpha, 2), (G(i), 1)] if i in sigma else [(G(i), 1), (G(i, -1), 1)])
        for i in range(4)])


class TestFaceTest:
    def test_generic_system_is_decided_by_one_light_polynomial(self, cp2, work_calls):
        # dropping f_0 leaves {1, 2}, a face of cp(2)
        system = PolySystem.coefficient_system(
            [RationalPoly.from_roots([(G(i), 1), (G(i, 1), 1)]) for i in range(3)])
        assert is_member(system, cp2, 2).member
        assert work_calls == {"mult_part_mod_p": 1, "minimal_non_faces": 0}

    @pytest.mark.parametrize("sigma, mod_calls", [((0, 2), 2), ((1, 3), 3)])
    def test_walk_stops_at_the_first_heavy_polynomial(self, h1, work_calls, sigma, mod_calls):
        # the loop over every collection took 2 and 4 multiplicity parts
        verdict = is_member(_planted_h1(sigma), h1, 2)
        assert verdict.witness_collection == sigma
        assert work_calls == {"mult_part_mod_p": mod_calls, "minimal_non_faces": 1}

    def test_generic_system_needs_no_dualization(self, monkeypatch):
        # with every dualization step capped at 0 sets, a generic 10-gon
        # system is still decided, while a planted one raises
        monkeypatch.setattr(complexes, "DUALIZATION_CAP", 0)
        fan = _cycle_fan([_RING[k * 16 // 10] for k in range(10)])
        generic = [RationalPoly.from_roots([(G(i), 1), (G(i, 1), 1)]) for i in range(10)]
        for system in (PolySystem.coefficient_system(generic),
                       PolySystem.root_system([[(G(i), 1)] for i in range(10)])):
            assert is_member(system, fan, 2).member
        planted = list(generic)
        planted[0] = planted[2] = RationalPoly.from_roots([(G(0, 3), 2)])
        for system in (PolySystem.coefficient_system(planted),
                       PolySystem.root_system([[(G(0, 3), 2)]] * 10)):
            with pytest.raises(CapExceededError):
                is_member(system, fan, 2)

    def test_repeated_calls_build_no_complex_for_the_fan(self, monkeypatch):
        fan = builtin_fan("hirzebruch(1)")
        built = []
        real = complexes.SimplicialComplex.__init__

        def counted(self, vertex_count, max_faces):
            max_faces = [frozenset(f) for f in max_faces]
            built.append(frozenset(max_faces))
            real(self, vertex_count, max_faces)

        monkeypatch.setattr(complexes.SimplicialComplex, "__init__", counted)
        generic = PolySystem.coefficient_system(
            [RationalPoly.from_roots([(G(i), 1), (G(i, 1), 1)]) for i in range(4)])
        for _ in range(3):
            for system in (generic, _planted_h1((0, 2)), _planted_h1((1, 3))):
                is_member(system, fan, 2)
        assert built.count(fan.generating_cones) == 1

    def test_stray_ray_is_reported_before_the_polynomial_count(self):
        fan = fan_from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1)])
        system = PolySystem.coefficient_system([RationalPoly.from_roots([(G(1), 1)])])
        with pytest.raises(UnsupportedFanError, match="ray 2 spans no cone of the fan"):
            is_member(system, fan, 2)


def test_generic_degree_24_system_is_certified_fast(h1):
    # the exact Euclid takes about half a second on this system
    rng = random.Random(24)
    polys = [RationalPoly.from_roots([(a, 1) for a in root_pool(rng, 24)])
             for _ in range(h1.ray_count)]
    system = PolySystem.coefficient_system(polys)
    for n in (2, 3):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            verdict = is_member(system, h1, n)
            best = min(best, time.perf_counter() - start)
            assert verdict.member
        assert best < 0.05, f"n = {n}: {best * 1e3:.1f} ms"


def test_coefficient_maps_leave_no_tuples_behind():
    # a tuple built from a generator is sized by guess and resize; freed,
    # it fills the free list of its final length, which that construction
    # never draws from, so 1000 calls would leave about 1000 blocks held.
    # A fresh interpreter makes the free lists, and so the count, repeatable.
    code = """
import tracemalloc
from toricstab.polynomials import PolySystem, RationalPoly, derivative
p = RationalPoly([1, 2, 3, 4])
ops = [lambda: -p, lambda: p * 3, lambda: (p * 3).monic(), lambda: derivative(p),
       lambda: PolySystem("coefficient", [p, p], iter([3, 3]))]
for op in ops:
    tracemalloc.start()
    for _ in range(1000):
        op()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    mine = snap.filter_traces([tracemalloc.Filter(True, "*toricstab/polynomials.py")])
    print(sum(s.count for s in mine.statistics("filename")))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    held = [int(x) for x in proc.stdout.split()]
    assert len(held) == 5 and max(held) < 50, held
