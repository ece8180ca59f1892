import random
from fractions import Fraction
from math import perm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab import (
    GaussianRational,
    HermiteSpec,
    bundle_rank,
    confluent_vandermonde,
    derivative,
    hermite_dimension,
    hermite_solution,
    stacked_system,
    verify_rank_claim,
)
import toricstab as ts
from toricstab import exactla, hermite, oracles
from toricstab.exactla import P, rank
from toricstab.hermite import (
    HermiteInconsistencyError,
    RankCheck,
    _blocks,
    _hermite_matrix_rhs,
    _stacked_blocks,
)


def rand_points(rng, k, height=50):
    out = []
    seen = set()
    while len(out) < k:
        x = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _integer_block(points, order, degree):
    """The per-order row builder that `_blocks` replaces, kept as its reference:
    each call converts and checks the points and computes every power anew."""
    pts = [Fraction(x) for x in points]
    if len(set(pts)) != len(pts):
        raise ValueError("interpolation points must be distinct")
    if order < 0 or degree < 1:
        raise ValueError("need order >= 0 and degree >= 1")
    top = max(degree - 1 - order, 0)
    zeros = [0] * min(order, degree)
    block = []
    for x in pts:
        a, b = x.numerator, x.denominator
        row = zeros + [perm(order + j, order) * a ** j * b ** (top - j) for j in range(degree - order)]
        block.append((row, b ** top))
    return block


class TestRowBuilder:
    # nodes that are 0, negative, integer or not
    NODES = st.one_of(st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(NODES, max_size=5, unique_by=Fraction), st.integers(1, 5), st.integers(1, 12))
    def test_rows_equal_the_per_order_reference(self, points, n, degree):
        # orders up to n + 4 > degree for small degrees: all-zero rows
        expected = [pair for order in range(n) for pair in _integer_block(points, order, degree)]
        assert _stacked_blocks(points, n, degree) == expected
        for order in range(n + 5):
            assert _blocks([Fraction(x) for x in points], range(order, order + 1), degree) == \
                _integer_block(points, order, degree)
            assert confluent_vandermonde(points, order, degree) == [
                [Fraction(v, scale) for v in row] for row, scale in _integer_block(points, order, degree)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(NODES, min_size=1, max_size=4, unique_by=Fraction), st.integers(1, 4),
           st.integers(1, 10), st.data())
    def test_right_side_reads_the_monic_term(self, points, n, degree, data):
        targets = [[data.draw(self.NODES) for _ in points] for _ in range(n)]
        rows, rhs = _hermite_matrix_rhs(HermiteSpec(points, n, degree, targets))
        assert rows == stacked_system(points, n, degree)
        # the order-th derivative of z^d vanishes past order = d
        assert rhs == [targets[order][j] - (perm(degree, order) * Fraction(x) ** (degree - order)
                                            if order <= degree else 0)
                       for order in range(n) for j, x in enumerate(points)]

    def test_one_node_list_per_call(self, monkeypatch):
        calls = []
        nodes = hermite._nodes
        monkeypatch.setattr(hermite, "_nodes", lambda *args: calls.append(args) or nodes(*args))
        points = (Fraction(1, 2), Fraction(-3), 0)
        assert verify_rank_claim(points, 3, 12).passed
        assert len(calls) == 1
        spec = HermiteSpec(points, 2, 7, ((1, 2, 3), (4, 5, 6)))
        below = HermiteSpec((0,), 3, 1, ((2,), (1,), (0,)))  # consistent, d < n*k
        assert len(calls) == 3
        assert hermite_solution(spec).degree == 7
        assert hermite_dimension(below) == 0 and hermite_solution(below).degree == 1
        assert len(calls) == 3  # a HermiteSpec's nodes are not validated again


class TestConfluentVandermonde:
    def test_value_row(self):
        x = Fraction(3)
        assert confluent_vandermonde([x], 0, 3) == [[1, 3, 9]]

    def test_first_derivative_row(self):
        x = Fraction(3)
        assert confluent_vandermonde([x], 1, 3) == [[0, 1, 6]]

    def test_second_derivative_row(self):
        x = Fraction(3)
        assert confluent_vandermonde([x], 2, 4) == [[0, 0, 2, 18]]

    def test_rows_differentiate_the_monomials(self):
        # row entries are d^l/dz^l of z^i at x, for i < d
        rng = random.Random(2)
        z = sympy.symbols("z")
        for _ in range(10):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            order = rng.randint(0, 3)
            d = rng.randint(max(1, order), 8)
            row = confluent_vandermonde([x], order, d)[0]
            for i in range(d):
                expected = sympy.diff(z ** i, z, order).subs(z, sympy.Rational(x))
                assert row[i] == Fraction(str(expected))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            confluent_vandermonde([Fraction(1), Fraction(1)], 0, 3)


class TestStackedSystem:
    def test_minimal_case(self):
        assert stacked_system([Fraction(5)], 1, 2) == [[1, 5]]

    def test_shape(self):
        rows = stacked_system([Fraction(1), Fraction(2)], 2, 4)
        assert len(rows) == 4 and all(len(r) == 4 for r in rows)

    @pytest.mark.parametrize("k,n", [(1, 3), (3, 2), (4, 1)])
    def test_row_count(self, k, n):
        rng = random.Random(k * 10 + n)
        rows = stacked_system(rand_points(rng, k), n, n * k + 2)
        assert len(rows) == n * k


class TestExactRank:
    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_zero(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_two_point_two_order_system(self):
        assert rank(stacked_system([Fraction(1), Fraction(2)], 2, 4)) == 4

    def test_against_sympy(self):
        rng = random.Random(44)
        for _ in range(15):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [
                [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            assert rank(mat) == sympy.Matrix(mat).rank()


class TestVerifyRankClaim:
    def test_randomized_regime(self):
        rng = random.Random(6)
        for _ in range(25):
            k = rng.randint(1, 5)
            n = rng.randint(1, 4)
            d = rng.randint(n * k, 30)
            check = verify_rank_claim(rand_points(rng, k), n, d)
            assert check.passed and check.in_regime

    def test_trivial_case(self):
        check = verify_rank_claim([Fraction(7, 3)], 1, 1)
        assert check.passed and check.rank == 1

    def test_below_regime_reports_column_bound(self):
        rng = random.Random(10)
        points = rand_points(rng, 3)
        check = verify_rank_claim(points, 2, 4)  # d = 4 < nk = 6
        assert not check.in_regime
        assert check.rank == 4
        assert not check.passed

    def test_no_points_is_trivially_full_rank(self):
        assert verify_rank_claim([], 2, 5) == RankCheck(rank=0, expected=0, in_regime=True)

    @pytest.mark.parametrize("points,n,degree,message", [
        ([1, 2], 0, 5, "n must be >= 1"),
        ([1, 2], -1, 5, "n must be >= 1"),
        ([], 0, 5, "n must be >= 1"),
        ([1, 1], 1, 5, "distinct"),  # in the regime
        ([1, 2, 1], 2, 3, "distinct"),  # below it
        ([1], 1, 0, "degree must be >= 1"),
        ([1, 2], 1, -3, "degree must be >= 1"),
        ([], 1, 0, "degree must be >= 1"),
    ])
    def test_invalid_input_raises(self, points, n, degree, message):
        with pytest.raises(ValueError, match=message):
            verify_rank_claim([Fraction(x) for x in points], n, degree)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rank_is_the_full_matrix_rank(self, data):
        k = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(1, 30))  # below the regime d < n*k too
        values = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
        points = data.draw(st.lists(values, min_size=k, max_size=k, unique=True))
        if k > 1 and data.draw(st.booleans()):
            # x and x + P agree modulo P, so the mod-P rank falls short
            points[1] = points[0] + P
        check = verify_rank_claim(points, n, d)
        assert check.rank == rank([row for row, _ in _stacked_blocks(points, n, d)])
        assert check.in_regime == (d >= n * k)
        assert check.passed == check.in_regime

    def test_nodes_equal_modulo_p_are_decided_by_bareiss(self, monkeypatch):
        eliminations = []
        echelon = exactla.echelon
        monkeypatch.setattr(exactla, "echelon", lambda m: eliminations.append(m) or echelon(m))
        points = [Fraction(3, 7), Fraction(3, 7) + P, Fraction(-2)]
        check = verify_rank_claim(points, 2, 9)
        assert check.passed and check.in_regime
        assert [(len(m), len(m[0])) for m in eliminations] == [(6, 6)]


@pytest.mark.parametrize("build,args,name", [
    (verify_rank_claim, ([1, 2], 1.5, 5), "n"), (verify_rank_claim, ([1, 2], 1, 5.0), "degree"),
    (stacked_system, ([1, 2], Fraction(2), 5), "n"), (confluent_vandermonde, ([3], 1.5, 3), "order"),
    (confluent_vandermonde, ([3], 1, 3.5), "degree"), (HermiteSpec, ([1, 2], 1.0, 5, [[0, 0]]), "order"),
    (HermiteSpec, ([1, 2], 2, 5.5, [[0, 0], [0, 0]]), "degree"),
])
def test_counts_that_are_not_ints_raise(build, args, name):
    # int() would truncate them, and n*k would then be counted from the raw value
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        build(*args)


H1 = ts.builtin_fan("hirzebruch(1)")
DEGREES = (5, 7, 5, 12)
ROOTS = ts.PolySystem.root_system([[(0, 1)], [(1, 2)], [(2, 1)], [(3, 1)]])
DOUBLE = ts.RationalPoly.from_roots([(GaussianRational(1), 2)])


def _second(vector, x):
    """The vector with its second entry replaced by x."""
    return (vector[0], x, *vector[2:])


# every integer argument the library reads: (id, call taking the value, the
# name its error gives, least value or None for any int)
COUNT_ARGUMENTS = [
    ("confluent_vandermonde-order", lambda x: confluent_vandermonde([3], x, 3), "order", 0),
    ("confluent_vandermonde-degree", lambda x: confluent_vandermonde([3], 1, x), "degree", 1),
    ("stacked_system-n", lambda x: stacked_system([1, 2], x, 5), "n", 1),
    ("stacked_system-degree", lambda x: stacked_system([1, 2], 1, x), "degree", 1),
    ("verify_rank_claim-n", lambda x: verify_rank_claim([1, 2], x, 5), "n", 1),
    ("verify_rank_claim-degree", lambda x: verify_rank_claim([1, 2], 1, x), "degree", 1),
    ("HermiteSpec-order", lambda x: HermiteSpec([1, 2], x, 5, [[0, 0]]), "order", 1),
    ("HermiteSpec-degree", lambda x: HermiteSpec([1, 2], 1, x, [[0, 0]]), "degree", 1),
    ("bundle_rank-degrees", lambda x: bundle_rank((5, x), 1, 2), "all degrees", 1),
    ("bundle_rank-k", lambda x: bundle_rank((5, 7), x, 2), "k", 0),
    ("bundle_rank-n", lambda x: bundle_rank((5, 7), 1, x), "n", 1),
    ("from_roots-multiplicity",
     lambda x: ts.RationalPoly.from_roots([(GaussianRational(1), 1), (GaussianRational(2), x)]),
     "multiplicities", 1),
    ("RootPoly-multiplicity", lambda x: ts.RootPoly([(1, 1), (2, x)]), "multiplicities", 1),
    ("derivative-order", lambda x: derivative(DOUBLE, x), "derivative order", 0),
    ("jet-n", lambda x: ts.jet(DOUBLE, x), "n", 1),
    ("mult_part-n", lambda x: ts.mult_part(DOUBLE, x), "n", 1),
    ("is_member-n", lambda x: ts.is_member(ROOTS, H1, x), "n", 1),
    ("evaluate_jet-n", lambda x: ts.evaluate_jet(ROOTS, x, 0), "n", 1),
    ("n_of-degrees", lambda x: ts.n_of(_second(DEGREES, x)), "all degrees", 1),
    ("phi_map-degrees", lambda x: ts.phi_map(_second(DEGREES, x), 0), "all degrees", 1),
    ("PolySystem-degrees",
     lambda x: ts.PolySystem("root", ROOTS.polys, _second(ROOTS.degrees, x)), "all degrees", 1),
    ("stabilize-shifts", lambda x: ts.stabilize(ROOTS, (1, x, 0, 0)), "shift entries", 0),
    *[(f"{f.__name__}-degrees", lambda x, f=f: f(_second(DEGREES, x), H1, 2), "all degrees", 1)
      for f in (ts.stability_dim, ts.stability_report, ts.e1_support, ts.min_unknown_band,
                ts.truncation_dim)],
    ("stability_dim_n1-degrees", lambda x: ts.stability_dim_n1(_second(DEGREES, x), H1),
     "all degrees", 1),
    *[(f"{f.__name__}-n", lambda x, f=f: f(DEGREES, H1, x), "n", 1)
      for f in (ts.stability_dim, ts.stability_report, ts.e1_support, ts.min_unknown_band,
                ts.truncation_dim)],
    ("connectivity_bound-n", lambda x: ts.connectivity_bound(H1, x), "n", 1),
    ("stability_dim_projective-d", lambda x: ts.stability_dim_projective(x, 2, 2), "d", 1),
    ("stability_dim_projective-m", lambda x: ts.stability_dim_projective(6, x, 2), "m", 1),
    ("stability_dim_projective-n", lambda x: ts.stability_dim_projective(6, 2, x), "n", 1),
    ("degree_is_null-degrees", lambda x: ts.degree_is_null(H1, _second(DEGREES, x)),
     "all degrees", None),
    ("fan_power-n", lambda x: ts.fan_power(H1, x), "n", 1),
    ("SimplicialComplex-vertex_count", lambda x: ts.SimplicialComplex(x, []), "vertex_count", 0),
    ("complex_power-n", lambda x: ts.complex_power(H1.complex, x), "n", 1),
    ("dim_arrangement-n", lambda x: ts.dim_arrangement(H1, x), "n", 1),
    ("dim_config-n", lambda x: ts.dim_config(H1, x, 1), "n", 1),
    ("dim_config-k", lambda x: ts.dim_config(H1, 2, x), "k", 0),
    *[(f"run_{suite}-trials", lambda x, suite=suite: getattr(oracles, f"run_{suite}")(0, trials=x),
       "trials", 0) for suite in ("vandermonde", "band", "jetsection")],
    ("run_complement-samples", lambda x: oracles.run_complement(0, samples=x), "samples", 0),
]
# the arguments for which None means "not given"
OPTIONAL_COUNT_ARGUMENTS = [
    ("e1_support-s_max", lambda x: ts.e1_support(DEGREES, H1, 2, s_max=x), "s_max", 0),
    ("builtin_fan-param", lambda x: ts.builtin_fan("cp", x), "fan parameter", 1),
    *[(f"run_vandermonde-{name}", lambda x, name=name: oracles.run_vandermonde(0, **{name: x}),
       name, 1) for name in ("k", "n", "d")],
]


# the calls that truncated, crashed or read an empty window before one reader
# decided: read as d = 5, n = 2 and 5 + 7; a TypeError, a ZeroDivisionError,
# an empty window; the vertex count 3 and cp(2); a vacuous band run of -3
# trials and a TypeError
TRUNCATED_OR_CRASHED = [
    ("stability_report-5.5", lambda x: ts.stability_report((x, 7, 5, 12), H1, 2), 5.5,
     "all degrees must be an int, got 5.5"),
    ("is_member-2.5", lambda x: ts.is_member(ROOTS, H1, x), 2.5, "n must be an int, got 2.5"),
    ("bundle_rank-7.9", lambda x: bundle_rank([5, x], 1, 2), 7.9,
     "all degrees must be an int, got 7.9"),
    ("jet-1.5", lambda x: ts.jet(DOUBLE, x), 1.5, "n must be an int, got 1.5"),
    ("stability_dim_projective-0-0-0", lambda x: ts.stability_dim_projective(x, x, x), 0,
     "d must be >= 1"),
    ("e1_support-s_max--5", lambda x: ts.e1_support(DEGREES, H1, 2, s_max=x), -5,
     "s_max must be >= 0"),
    ("SimplicialComplex-3.5", lambda x: ts.SimplicialComplex(x, [[0, 1]]), 3.5,
     "vertex_count must be an int, got 3.5"),
    ("builtin_fan-cp-2.5", lambda x: ts.builtin_fan("cp", x), 2.5,
     "fan parameter must be an int, got 2.5"),
    ("run_band-trials--3", lambda x: oracles.run_band(0, trials=x), -3, "trials must be >= 0"),
    ("run_jetsection-trials-2.0", lambda x: oracles.run_jetsection(0, trials=x), 2.0,
     "trials must be an int, got 2.0"),
]


def _refused_counts():
    """Each argument with a float, a numeric string, None, a bool and the
    int below its least, and the message each must raise."""
    for arguments, values in ((COUNT_ARGUMENTS, (1.5, "2", None, True)),
                              (OPTIONAL_COUNT_ARGUMENTS, (1.5, "2", True))):
        for id_, call, name, least in arguments:
            for value in values:
                yield pytest.param(call, value, f"{name} must be an int, got {value!r}",
                                   id=f"{id_}-{value!r}")
            if least is not None:
                yield pytest.param(call, least - 1, f"{name} must be >= {least}",
                                   id=f"{id_}-{least - 1}")
    for id_, call, value, message in TRUNCATED_OR_CRASHED:
        yield pytest.param(call, value, message, id=id_)


@pytest.mark.parametrize("call,value,message", _refused_counts())
def test_every_count_argument_refuses_what_it_cannot_read(call, value, message):
    # one reader decides for every entry point: none truncates, reads True as 1
    # or lets a count below its least reach the arithmetic
    with pytest.raises(ts.UndefinedValueError) as caught:
        call(value)
    assert str(caught.value) == message


class TestRankShapes:
    """The matrices verify_rank_claim and hermite_dimension hand to rank."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        calls = []

        def recording_rank(rows):
            calls.append((len(rows), len(rows[0])))
            return rank(rows)

        monkeypatch.setattr(hermite, "rank", recording_rank)
        return calls

    POINTS = (Fraction(1, 2), Fraction(-3), Fraction(5, 4))

    @pytest.mark.parametrize("degree", [6, 7, 30])
    def test_in_regime_one_square_block(self, shapes, degree):
        assert verify_rank_claim(self.POINTS, 2, degree).passed
        assert shapes == [(6, 6)]

    @pytest.mark.parametrize("degree", [1, 4, 5])
    def test_below_regime_one_full_matrix(self, shapes, degree):
        assert verify_rank_claim(self.POINTS, 2, degree).rank == degree
        assert shapes == [(6, degree)]

    TARGETS = ((Fraction(1), Fraction(2), Fraction(3)), (Fraction(0), Fraction(-1), Fraction(4)))

    @pytest.mark.parametrize("degree", [6, 11, 30])
    def test_hermite_dimension_in_regime_ranks_nothing(self, shapes, degree):
        assert hermite_dimension(HermiteSpec(self.POINTS, 2, degree, self.TARGETS)) == degree - 6
        assert shapes == []

    @pytest.mark.parametrize("degree", [1, 4, 5])
    def test_hermite_dimension_below_regime_ranks_a_and_a_b(self, shapes, degree):
        # six generic targets leave a degree-d system below six no solution
        with pytest.raises(HermiteInconsistencyError):
            hermite_dimension(HermiteSpec(self.POINTS, 2, degree, self.TARGETS))
        assert shapes == [(6, degree), (6, degree + 1)]


class TestHermiteDimension:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_closed_form_is_degree_minus_the_full_rank(self, data):
        k = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(n * k, 30))
        values = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
        points = data.draw(st.lists(values, min_size=k, max_size=k, unique=True))
        if k > 1 and data.draw(st.booleans()):
            # x and x + P agree modulo P: the block's mod-P rank falls short,
            # and the closed form must not notice
            points[1] = points[0] + P
        targets = tuple(tuple(data.draw(values) for _ in range(k)) for _ in range(n))
        spec = HermiteSpec(tuple(points), n, d, targets)
        assert hermite_dimension(spec) == d - rank(stacked_system(points, n, d))

    def test_example(self):
        spec = HermiteSpec(
            (Fraction(1), Fraction(2)), 2, 5,
            ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(3))),
        )
        assert hermite_dimension(spec) == 1

    def test_unique_linear_interpolant(self):
        spec = HermiteSpec((Fraction(4),), 1, 1, ((Fraction(9),),))
        assert hermite_dimension(spec) == 0

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order):
        # no constraint leaves the monic solution of degree d undetermined
        with pytest.raises(ValueError, match="order must be >= 1"):
            HermiteSpec((Fraction(1), Fraction(2)), order, 3, ())

    def test_solution_satisfies_constraints_exactly(self):
        rng = random.Random(12)
        for _ in range(10):
            k = rng.randint(1, 3)
            n = rng.randint(1, 3)
            d = rng.randint(n * k, n * k + 4)
            points = rand_points(rng, k, height=9)
            targets = tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
                for _ in range(n)
            )
            spec = HermiteSpec(tuple(points), n, d, targets)
            f = hermite_solution(spec)
            assert f.is_monic and f.degree == d
            for order in range(n):
                g = derivative(f, order)
                for j, x in enumerate(points):
                    assert g.evaluate(GaussianRational(x)) == GaussianRational(targets[order][j])

    def test_dimension_equals_degree_minus_rank(self):
        rng = random.Random(3)
        for _ in range(10):
            k = rng.randint(1, 4)
            n = rng.randint(1, 3)
            d = rng.randint(n * k, 20)
            points = rand_points(rng, k)
            targets = tuple(
                tuple(Fraction(rng.randint(-5, 5)) for _ in range(k)) for _ in range(n)
            )
            spec = HermiteSpec(tuple(points), n, d, targets)
            assert hermite_dimension(spec) == d - rank(stacked_system(points, n, d))


    def test_inconsistent_below_regime_raises(self):
        # f = z + a_0 has f' = 1, so f'(0) = 5 cannot hold (d = 1 < nk = 3)
        spec = HermiteSpec((Fraction(0),), 3, 1, ((Fraction(0),), (Fraction(5),), (Fraction(0),)))
        with pytest.raises(HermiteInconsistencyError):
            hermite_dimension(spec)

    def test_consistent_below_regime(self):
        spec = HermiteSpec((Fraction(0),), 3, 1, ((Fraction(2),), (Fraction(1),), (Fraction(0),)))
        assert hermite_dimension(spec) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dimension_and_consistency_match_sympy(self, data):
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(1, n * k + 2))
        values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
        points = data.draw(st.lists(values, min_size=k, max_size=k, unique=True))
        targets = tuple(tuple(data.draw(values) for _ in range(k)) for _ in range(n))
        spec = HermiteSpec(tuple(points), n, d, targets)
        rows, rhs = _hermite_matrix_rhs(spec)
        a = sympy.Matrix(rows)
        consistent = a.rank() == a.row_join(sympy.Matrix(rhs)).rank()
        if consistent:
            assert hermite_dimension(spec) == d - a.rank()
        else:
            with pytest.raises(HermiteInconsistencyError):
                hermite_dimension(spec)


class TestBundleRank:
    def test_fixture_value(self):
        assert bundle_rank((5, 7, 5, 12), 2, 2) == 27

    def test_k_zero(self):
        assert bundle_rank((5, 7, 5, 12), 0, 2) == 2 * 29 - 1

    def test_fiber_decomposition(self):
        # rank = twice the complex fiber dimension plus the open simplex dimension
        rng = random.Random(18)
        for _ in range(20):
            r = rng.randint(1, 5)
            degrees = [rng.randint(1, 12) for _ in range(r)]
            k = rng.randint(0, 4)
            n = rng.randint(1, 4)
            fiber = 2 * sum(d - n * k for d in degrees)
            assert bundle_rank(degrees, k, n) == fiber + (k - 1)
