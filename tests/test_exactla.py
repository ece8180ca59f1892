import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricstab import Fan, builtin_fan, exactla, fan_from_json, fans
from toricstab.exactla import (
    P,
    SimplexError,
    _integer_rows,
    _rank_mod_p,
    echelon,
    extends_to_basis,
    lp_feasible,
    nullspace_int,
    rank,
    solve_affine,
)


def test_rref_identity():
    m, pivots = echelon([[1, 0], [0, 1]], reduced=True)
    assert pivots == [0, 1]
    assert m == [[1, 0], [0, 1]]


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        expected = sympy.Matrix(mat).rank()
        assert rank(mat) == expected
        assert len(echelon(mat)[1]) == expected


def test_bareiss_agrees_with_fraction_elimination():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert len(echelon(mat)[1]) == rank(mat) == sympy.Matrix(mat).rank()


def test_nullspace_int_h1_rays():
    # columns are the rays (1,0),(0,1),(-1,1),(0,-1)
    m = [[1, 0, -1, 0], [0, 1, 1, -1]]
    basis = nullspace_int(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(m[i][j] * v[j] for j in range(4)) == 0 for i in range(2))


FIXTURE_FANS = ("affine2", "bad_line", "cp1", "cp2", "cp3", "hirzebruch1", "hirzebruch2", "hirzebruch3")


def _primitive(v):
    """Integer multiple of a rational vector with content 1 and positive lead."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _reference_nullspace(mat):
    # sympy builds one kernel vector per free column of the rref: 1 at the
    # free column, minus that column at the pivots, the basis nullspace_int builds
    return [_primitive(list(v)) for v in sympy.Matrix(mat).nullspace()]


@pytest.mark.parametrize("name", FIXTURE_FANS)
def test_nullspace_int_basis_on_fixture_rays(fixtures_dir, name):
    mat = fan_from_json(json.loads((fixtures_dir / f"{name}.json").read_text())).ray_matrix()
    assert nullspace_int(mat) == _reference_nullspace(mat)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_nullspace_int_basis_on_projective_spaces(m):
    mat = builtin_fan("cp", m).ray_matrix()
    assert nullspace_int(mat) == _reference_nullspace(mat)


def test_modular_shortfall_falls_back_to_exact_rank():
    mat = [[P, 0], [0, 1]]
    assert _rank_mod_p(mat) == 1
    assert rank(mat) == 2


@pytest.mark.parametrize(
    "mat,expected",
    [
        ([[Fraction(1, P), 0], [0, 1]], 2),
        ([[Fraction(1, P), 1], [1, P]], 1),
        ([[Fraction(1, P)]], 1),
    ],
)
def test_denominator_divisible_by_p(mat, expected):
    assert rank(mat) == expected == sympy.Matrix(mat).rank()
    assert len(echelon(mat)[1]) == expected


@pytest.mark.parametrize("entry", [0.5, "1/2", None])
def test_inexact_entries_are_refused(entry):
    with pytest.raises(TypeError):
        rank([[1, entry], [0, 1]])
    with pytest.raises(TypeError):
        echelon([[entry]])


@pytest.mark.parametrize("call", [
    rank,
    echelon,
    nullspace_int,
    extends_to_basis,
    lambda rows: lp_feasible(rows, [1] * len(rows)),
    lambda rows: solve_affine(rows, [1] * len(rows)),
], ids=["rank", "echelon", "nullspace_int", "extends_to_basis", "lp_feasible", "solve_affine"])
@pytest.mark.parametrize("mat", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 2], [3, 4], [5]]])
def test_ragged_matrices_are_refused(call, mat):
    with pytest.raises(ValueError, match="matrix rows must have equal length"):
        call(mat)


def _reference_rank_mod_p(m):
    """The row-list elimination over Z/P that `_rank_mod_p` packs into ints."""
    m = [[x % P for x in row] for row in m]
    nrows, ncols = len(m), len(m[0])
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        top = m[rk]
        inv = pow(top[col], -1, P)
        for i in range(rk + 1, nrows):
            f = m[i][col] * inv % P
            if f:
                m[i] = [(x - f * y) % P for x, y in zip(m[i], top)]
        rk += 1
        if rk == nrows:
            break
    return rk


# residues at the edges of Z/P, huge entries, and small ones that make
# rank-deficient blocks likely
_MOD_P_ENTRIES = st.one_of(
    st.sampled_from([0, 1, -1, P, -P, 2 * P, -3 * P, P - 1, P + 1, P * P, 10**30, -10**30]),
    st.integers(-2, 2),
    st.integers(-10**30, 10**30),
)


@st.composite
def mod_p_matrices(draw):
    """Tall, wide and square integer matrices up to 40 x 40, some rows the
    sum of earlier ones."""
    nrows, ncols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    mat = []
    for _ in range(nrows):
        summands = draw(st.lists(st.sampled_from(mat), max_size=3)) if mat else []
        if summands:
            mat.append([sum(col) for col in zip(*summands)])
        else:
            mat.append(draw(st.lists(_MOD_P_ENTRIES, min_size=ncols, max_size=ncols)))
    return mat


@settings(max_examples=100, deadline=None)
@given(mod_p_matrices())
def test_rank_mod_p_matches_the_row_list_elimination(mat):
    assert _rank_mod_p(mat) == _reference_rank_mod_p(mat)


def test_rank_mod_p_on_more_than_64_rows():
    # 70 rows need slots of 2 * 61 + 7 + 1 = 130 bits, past 128
    rng = random.Random(30)
    mat = [[rng.randint(-10**30, 10**30) for _ in range(45)] for _ in range(70)]
    assert _rank_mod_p(mat) == _reference_rank_mod_p(mat) == 45
    wide = [list(col) for col in zip(*mat)]
    wide += [[a - b for a, b in zip(wide[0], wide[1])]] * 30
    assert _rank_mod_p(wide) == _reference_rank_mod_p(wide) == 45


@pytest.mark.parametrize("n", [2, 3, 64, 65, 127])
def test_rank_mod_p_slots_hold_the_largest_growth(n):
    # with a_ij = -1 - min(i, j), every pivot is -1 mod P, every other row
    # reads -1 in the pivot column and the pivot row -1 in the rest, so each
    # step adds (P - 1)^2 to every slot: row i ends near i P^2.  The matrix
    # is -(L L^T) for L lower unitriangular, so its determinant is +-1.
    mat = [[-1 - min(i, j) for j in range(n)] for i in range(n)]
    assert _rank_mod_p(mat) == n == _reference_rank_mod_p(mat)
    mat[-1] = [2 * a for a in mat[0]]
    assert _rank_mod_p(mat) == n - 1 == _reference_rank_mod_p(mat)


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def _matrix(rows, cols):
    return st.lists(st.lists(_FRACTIONS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def rational_matrices(draw):
    """Tall, wide and square matrices; half of them a product through a
    narrower inner dimension, hence usually rank-deficient."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return draw(_matrix(rows, cols))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    left = draw(_matrix(rows, inner))
    right = draw(_matrix(inner, cols))
    return [[sum((left[i][t] * right[t][j] for t in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rank_and_pivots_match_sympy(mat):
    ref_rref, ref_pivots = sympy.Matrix(mat).rref()
    assert rank(mat) == len(ref_pivots)
    assert echelon(mat)[1] == list(ref_pivots)
    m, pivots = echelon(mat, reduced=True)
    assert pivots == list(ref_pivots)
    for i, col in enumerate(pivots):
        assert [Fraction(x, m[i][col]) for x in m[i]] == list(ref_rref.row(i))


@settings(max_examples=200, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_affine_matches_sympy(mat, data):
    rows, cols = len(mat), len(mat[0])
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(_FRACTIONS, min_size=cols, max_size=cols))
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in mat]
    else:
        b = data.draw(st.lists(_FRACTIONS, min_size=rows, max_size=rows))
    ref_rref, ref_pivots = sympy.Matrix([row + [c] for row, c in zip(mat, b)]).rref()
    solution = solve_affine(mat, b)
    if cols in ref_pivots:
        assert solution is None
        return
    expected = [Fraction(0)] * cols
    for i, col in enumerate(ref_pivots):
        expected[col] = ref_rref[i, cols]
    assert solution == expected


def test_solve_affine_consistent_and_inconsistent():
    sol = solve_affine([[1, 1], [1, -1]], [Fraction(3), Fraction(1)])
    assert sol == [Fraction(2), Fraction(1)]
    assert solve_affine([[1, 1], [2, 2]], [Fraction(1), Fraction(3)]) is None


def _sympy_extends_to_basis(mat):
    """k <= m and every invariant factor of the k x m matrix is a unit."""
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    k, m = len(mat), len(mat[0])
    if k > m:
        return False
    snf = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
    return all(abs(snf[i, i]) == 1 for i in range(k))


@st.composite
def _basis_candidates(draw):
    """A k x m integer matrix, k <= 5, m <= 6, entries in [-6, 6].

    Half are k rows of a unimodular matrix (the identity under random row
    operations that keep the entries in range), one row optionally scaled,
    so that both verdicts are common.
    """
    k, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)) for _ in range(k)]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(st.integers(-2, 2))
        new = [a + c * b for a, b in zip(u[i], u[j])]
        if i != j and max(map(abs, new)) <= 6:
            u[i] = new
        elif i != j:
            u[i], u[j] = u[j], u[i]
    rows = draw(st.permutations(u))[:k]
    s = draw(st.sampled_from([1, 1, -1, 2, 3, 6]))
    if max(map(abs, rows[0])) * s <= 6:
        rows[0] = [s * x for x in rows[0]]
    return rows


def test_extends_to_basis_matches_sympy():
    verdicts = []

    @settings(max_examples=300, deadline=None)
    @given(_basis_candidates())
    def check(mat):
        got = extends_to_basis(mat)
        assert got == _sympy_extends_to_basis(mat)
        verdicts.append(got)

    check()
    # both verdicts common, so neither branch is tested vacuously
    assert min(verdicts.count(True), verdicts.count(False)) >= len(verdicts) // 5


@pytest.mark.parametrize(
    "mat,expected",
    [
        ([[1, 0], [1, 2]], False),
        ([[2, 0], [0, 1]], False),
        ([[1, 0], [0, 1]], True),
        ([[6]], False),
        ([[2, 3]], True),
        ([[1, 0, 0], [0, 0, 0]], False),
        ([[1, 0], [0, 1], [1, 1]], False),
    ],
)
def test_extends_to_basis_known(mat, expected):
    assert extends_to_basis(mat) is expected


def test_extends_to_basis_large_input_is_fast():
    rng = random.Random(12)
    mat = [[rng.randint(-1000, 1000) for _ in range(40)] for _ in range(12)]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        # True, so the reduction runs to the last row
        assert extends_to_basis(mat)
        best = min(best, time.perf_counter() - start)
    assert best < 0.02


def test_lp_feasible_gordan_cases():
    # 0 = x + y with x, y >= 0, sum = 1: antipodal pair is feasible
    assert lp_feasible([[1, -1], [1, 1]], [0, 1]) == [Fraction(1, 2), Fraction(1, 2)]
    # cone over (1,0),(0,1): only the trivial combination hits zero
    assert lp_feasible([[1, 0], [0, 1], [1, 1]], [0, 0, 1]) is None
    # (1,0)+(-1,1)+(0,-1) = 0: zero is a positive combination
    assert lp_feasible([[1, -1, 0], [0, 1, -1], [1, 1, 1]], [0, 0, 1]) == [Fraction(1, 3)] * 3


def test_lp_feasible_refuses_floats():
    with pytest.raises(TypeError):
        lp_feasible([[1.0, -1]], [0])


def test_lp_feasible_on_constructed_feasible_systems():
    # b = A x0 with x0 >= 0 is feasible by construction
    rng = random.Random(500)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
        x0 = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
        x = lp_feasible(a, b)
        assert x is not None and len(x) == n
        assert all(type(v) is Fraction and v >= 0 for v in x)
        assert [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)] == b


def test_lp_feasible_on_farkas_infeasible_systems():
    # pick y first, keep only columns with y.a_j >= 0, then demand y.b < 0:
    # y certifies infeasibility of A x = b, x >= 0
    rng = random.Random(501)
    built = 0
    while built < 60:
        m = rng.randint(1, 4)
        y = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        if all(v == 0 for v in y):
            continue
        cols = []
        while len(cols) < rng.randint(1, 6):
            c = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
            if sum(yi * ci for yi, ci in zip(y, c)) >= 0:
                cols.append(c)
        b = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
        if sum(yi * bi for yi, bi in zip(y, b)) >= 0:
            continue
        a = [[cols[j][i] for j in range(len(cols))] for i in range(m)]
        assert lp_feasible(a, b) is None
        built += 1


def _fraction_simplex(a_rows, b, max_iter=100_000):
    """Reference for lp_feasible: the same Bland phase-one simplex with
    every tableau entry a Fraction, dividing the pivot row by the pivot."""
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    tableau = []
    for row in _integer_rows([list(a) + [rhs] for a, rhs in zip(a_rows, b)]):
        if row[-1] < 0:
            row = [-x for x in row]
        tableau.append([Fraction(x) for x in row])
    # objective: sum of artificial variables, expressed through the rows
    obj = [Fraction(0)] * (ncols + 1)
    for row in tableau:
        obj = [a + c for a, c in zip(obj, row)]
    basis = [ncols + i for i in range(nrows)]  # artificials carry large indices

    for _ in range(max_iter):
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            if obj[-1] != 0:
                return None
            x = [Fraction(0)] * ncols
            for row, var in zip(tableau, basis):
                if var < ncols:
                    x[var] = row[-1]
            return x
        # Bland ratio test: smallest ratio, ties by smallest basis index
        leave = None
        best = None
        for i in range(nrows):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise SimplexError("phase-one objective unbounded")
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for i in range(nrows):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * p for a, p in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * p for a, p in zip(obj, tableau[leave])]
        basis[leave] = enter
    raise SimplexError("simplex iteration cap exceeded")


_LP_ENTRIES = st.one_of(st.integers(-6, 6), _FRACTIONS)
_LP_WEIGHTS = st.one_of(st.just(0), st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)))


@st.composite
def lp_problems(draw):
    """(A, b, feasible): 1-6 rows and 1-9 columns of ints and Fractions,
    sometimes with a repeated row or a zero column; b is A x0 for some
    x0 >= 0 (feasible by construction), zero, or drawn at random."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 9))
    a = draw(st.lists(st.lists(_LP_ENTRIES, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        a[-1] = list(a[draw(st.integers(0, rows - 2))])
    if draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in a:
            row[zero] = 0
    kind = draw(st.sampled_from(("constructed", "zero", "random")))
    if kind == "constructed":
        x0 = draw(st.lists(_LP_WEIGHTS, min_size=cols, max_size=cols))
        b = [sum((c * x for c, x in zip(row, x0)), Fraction(0)) for row in a]
    elif kind == "zero":
        b = [0] * rows
    else:
        b = draw(st.lists(_LP_ENTRIES, min_size=rows, max_size=rows))
    return a, b, kind != "random"


@settings(max_examples=300, deadline=None)
@given(lp_problems())
@example(([[1, 2, -1], [1, 2, -1], [0, 1, 1]], [3, 3, 1], True))  # repeated row
@example(([[1, -1, 0], [Fraction(1, 2), 3, -2]], [0, 0], True))  # b = 0
@example(([[0, 1, -1], [0, 2, 1]], [1, Fraction(-1, 3)], False))  # zero column
# a tie in the ratio test, which Bland's rule breaks by the smaller basis index
@example(([[1, -1, 1, 1], [-2, -1, 0, 2], [-1, 0, -1, -1]], [-2, -2, -1], True))
def test_lp_feasible_matches_fraction_simplex(problem):
    a, b, feasible = problem
    x = lp_feasible(a, b)
    assert x == _fraction_simplex(a, b)
    if feasible:
        assert x is not None


def _random_rgon_rays(rng, r):
    """r primitive rays of height <= 4 in angular order, each consecutive
    pair strictly convex: the rays of a complete planar fan."""
    pool = [(u, v) for u in range(-4, 5) for v in range(-4, 5) if gcd(u, v) == 1]
    while True:
        rays = sorted(rng.sample(pool, r), key=lambda w: math.atan2(w[1], w[0]))
        pairs = zip(rays, rays[1:] + rays[:1])
        if all(p[0] * q[1] - p[1] * q[0] > 0 for p, q in pairs):
            return rays


def test_escape_verdicts_match_fraction_simplex(monkeypatch):
    # every strong-convexity and pair LP of a validation, on complete planar
    # r-gons and on the same r-gons with an overlapping three-ray cone added
    rng = random.Random(73)
    for _ in range(16):
        r = rng.randint(3, 9)
        rays = _random_rgon_rays(rng, r)
        cones = [frozenset({i, (i + 1) % r}) for i in range(r)]
        k = rng.randrange(r)
        overlap = frozenset({k, (k + 1) % r, (k + 2) % r})
        for listed, valid in ((cones, True), (cones + [overlap], False)):
            fan = Fan(2, rays, listed)
            queries = [(a, frozenset()) for a in listed] + list(combinations(listed, 2))
            verdicts = [fans._escapes(fan, a, b) for a, b in queries]
            with monkeypatch.context() as patch:
                patch.setattr(fans, "lp_feasible", _fraction_simplex)
                assert [fans._escapes(fan, a, b) for a, b in queries] == verdicts
            assert any(verdicts) is not valid


def test_lp_feasible_builds_fractions_only_at_return(monkeypatch):
    # pivoting is integral: a solve builds one Fraction per coordinate of the
    # vertex it returns, and none when it returns None
    built = []

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(exactla, "Fraction", CountedFraction)
    rng = random.Random(502)
    outcomes = set()
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 8)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-5, 5) for _ in range(m)]
        built.clear()
        x = lp_feasible(a, b)
        outcomes.add(x is None)
        assert len(built) == (0 if x is None else n)
    assert outcomes == {True, False}
