"""Exact rank certification for Hermite interpolation constraint matrices.

A monic polynomial f = z^d + sum a_i z^i subject to f^(l)(x_j) = s for
l = 0..n-1 at k distinct nodes gives a stacked linear system in the a_i.
This module builds those matrices over the rationals and certifies their
rank modulo a prime with an exact fraction-free fallback (in the regime
degree >= n*k on the leading square block, nonsingular for distinct
nodes).  In that regime the dimension of the affine constraint space is
degree - n*k in closed form.  No floating point anywhere.
"""

from fractions import Fraction
from math import perm

from . import Record
from .exactla import rank, solve_affine


def _integer_block(points, order, degree):
    """Rows of confluent_vandermonde as (integer row, scale) pairs.

    For x = a/b in lowest terms the row of x, times scale = b^(degree-1-order),
    has the integer entries perm(i, order) * a^j * b^(degree-1-order-j),
    j = i - order (an all-zero row has scale 1).  Row scaling preserves
    rank, so the rank certificate reads these rows directly.
    """
    pts = [Fraction(x) for x in points]
    if len(set(pts)) != len(pts):
        raise ValueError("interpolation points must be distinct")
    order = int(order)
    degree = int(degree)
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


def confluent_vandermonde(points, order, degree):
    """k x d matrix of the coefficients of a_0..a_{d-1} in f^(order)(x_j)."""
    return [[Fraction(v, scale) for v in row]
            for row, scale in _integer_block(points, order, degree)]


def _stacked_blocks(points, n, degree):
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    return [pair for order in range(n) for pair in _integer_block(points, order, degree)]


def stacked_system(points, n, degree):
    """The n*k x d matrix stacking derivative orders 0..n-1."""
    return [[Fraction(v, scale) for v in row] for row, scale in _stacked_blocks(points, n, degree)]


class RankCheck(Record):
    __slots__ = ("rank", "expected", "in_regime")

    @property
    def passed(self):
        return self.rank == self.expected

    def __bool__(self):
        return self.passed

    def to_dict(self):
        return {
            "rank": self.rank,
            "expected": self.expected,
            "passed": self.passed,
            "in_regime": self.in_regime,
        }


def verify_rank_claim(points, n, degree):
    """Certify that the stacked constraint matrix has full row rank n*k.

    With degree >= n*k only the leading n*k x n*k block is ranked: its rows
    are the rows' first n*k columns over b^(degree - n*k), and this square
    confluent Vandermonde matrix is nonsingular for distinct nodes (Ha and
    Gibson, LAA 1980; Kalman, Math. Mag. 1984).  Columns of rank n*k prove
    row rank n*k.  Outside the regime the whole matrix is ranked and the
    result flags the violation (the rank is then capped by degree).
    """
    nk = n * len(points)
    # the rows of stacked_system scaled to integers (same rank), cut to n*k
    # columns in the regime
    r = rank([row for row, _ in _stacked_blocks(points, n, min(degree, nk) if nk else degree)])
    return RankCheck(r, nk, degree >= nk)


class HermiteSpec(Record):
    """Constraint data f^(l)(x_j) = targets[l][j] for a monic polynomial of
    the given degree."""

    __slots__ = ("points", "order", "degree", "targets")

    def __init__(self, points, order, degree, targets):
        pts = tuple(Fraction(x) for x in points)
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if order < 1:
            raise ValueError("order must be >= 1")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        tg = tuple(tuple(Fraction(v) for v in row) for row in targets)
        if len(tg) != order or any(len(row) != len(pts) for row in tg):
            raise ValueError("targets must be an order x k grid")
        super().__init__(pts, order, degree, tg)


class HermiteInconsistencyError(RuntimeError):
    """Signals an impossible constraint system; cannot happen when degree >= n*k."""


def _hermite_matrix_rhs(spec):
    rows = stacked_system(spec.points, spec.order, spec.degree)
    rhs = []
    for order in range(spec.order):
        for j, x in enumerate(spec.points):
            # the order-th derivative of z^degree vanishes past order = degree
            lead = perm(spec.degree, order) * x ** (spec.degree - order) if order <= spec.degree else 0
            rhs.append(spec.targets[order][j] - lead)
    return rows, rhs


def hermite_dimension(spec):
    """Dimension of the affine space of monic solutions.

    With degree >= n*k it is degree - n*k in closed form: HermiteSpec has
    proved the nodes distinct, so the leading n*k x n*k block, a square
    confluent Vandermonde matrix, is nonsingular (Kalman, Math. Mag. 1984;
    Ha and Gibson, LAA 1980), and full row rank makes the system consistent.
    Below the regime the system is inconsistent exactly when rank [A | b] >
    rank A; both ranks are usually certified modulo P, and Bareiss runs
    only when one is not.
    """
    nk = spec.order * len(spec.points)
    if spec.degree >= nk:
        return spec.degree - nk
    rows, rhs = _hermite_matrix_rhs(spec)
    rank_a = rank(rows)
    if rank([row + [c] for row, c in zip(rows, rhs)]) > rank_a:
        raise HermiteInconsistencyError(
            "inconsistent Hermite system; impossible for distinct points with degree >= n*k"
        )
    return spec.degree - rank_a


def hermite_solution(spec):
    """One exact monic solution of the constraint system."""
    from .polynomials import RationalPoly  # the rank certificates never load it

    rows, rhs = _hermite_matrix_rhs(spec)
    solution = solve_affine(rows, rhs)
    if solution is None:
        raise HermiteInconsistencyError("inconsistent Hermite system")
    return RationalPoly(solution + [1])


def bundle_rank(degrees, k, n, r):
    """Rank 2*N(D) - 2nrk + k - 1 of the band of the resolved discriminant
    over the k-point configuration stratum."""
    total = sum(int(d) for d in degrees)
    return 2 * total - 2 * n * r * k + k - 1
