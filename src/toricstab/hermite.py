"""Exact rank certification for Hermite interpolation constraint matrices.

A monic polynomial f = z^d + sum a_i z^i subject to f^(l)(x_j) = s for
l = 0..n-1 at k distinct nodes gives a stacked linear system in the a_i.
This module builds those matrices over the rationals and certifies their
rank modulo a prime with an exact fraction-free fallback (in the regime
degree >= n*k on the leading square block, nonsingular for distinct
nodes).  Each call converts its nodes to Fractions and proves them distinct
once, and builds every derivative order from one table of powers per node.
In that regime the dimension of the affine constraint space is
degree - n*k in closed form.  No floating point anywhere.
"""

from fractions import Fraction
from math import perm

from . import Record, read_int
from .exactla import rank, solve_affine


def _nodes(points):
    """The points as Fractions, each converted once, proved distinct once."""
    pts = [x if type(x) is Fraction else Fraction(x) for x in points]
    # a Fraction is in lowest terms, and an int pair hashes faster than it
    if len({(x.numerator, x.denominator) for x in pts}) != len(pts):
        raise ValueError("interpolation points must be distinct")
    return pts


def _blocks(pts, orders, degree):
    """Rows of confluent_vandermonde, order by order, as (integer row, scale) pairs.

    For x = a/b in lowest terms the row of order l, times scale = b^top with
    top = degree-1-l, has the integer entries perm(l + j, l) * a^j * b^(top-j)
    in columns l + j (an all-zero row, l >= degree, has scale 1).  Every order
    reads one table per node: the running powers a^i and b^i for i < degree.
    Row scaling preserves rank, so the rank certificate reads these rows directly.
    The callers have read the orders (>= 0) and the degree (>= 1).
    """
    tables = []
    for x in pts:
        a, b = x.numerator, x.denominator
        apow, bpow = [1], [1]
        for _ in range(degree - 1):
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * b)
        tables.append((apow, bpow))
    block = []
    for order in orders:
        top = max(degree - 1 - order, 0)
        zeros = [0] * min(order, degree)
        coefs = [perm(order + j, order) for j in range(degree - order)]
        block += [(zeros + [c * p * q for c, p, q in zip(coefs, apow, bpow[top::-1])], bpow[top])
                  for apow, bpow in tables]
    return block


def _fraction_rows(block):
    return [[Fraction(v, scale) for v in row] for row, scale in block]


def confluent_vandermonde(points, order, degree):
    """k x d matrix of the coefficients of a_0..a_{d-1} in f^(order)(x_j)."""
    order, degree = read_int(order, "order", 0), read_int(degree, "degree")
    return _fraction_rows(_blocks(_nodes(points), range(order, order + 1), degree))


def _stacked_blocks(points, n, degree):
    return _blocks(_nodes(points), range(n), degree)


def stacked_system(points, n, degree):
    """The n*k x d matrix stacking derivative orders 0..n-1."""
    n, degree = read_int(n, "n"), read_int(degree, "degree")
    return _fraction_rows(_stacked_blocks(points, n, degree))


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
    n, degree = read_int(n, "n"), read_int(degree, "degree")
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
        pts = tuple(_nodes(points))
        order, degree = read_int(order, "order"), read_int(degree, "degree")
        tg = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in targets)
        if len(tg) != order or any(len(row) != len(pts) for row in tg):
            raise ValueError("targets must be an order x k grid")
        super().__init__(pts, order, degree, tg)


class HermiteInconsistencyError(RuntimeError):
    """Signals an impossible constraint system; cannot happen when degree >= n*k."""


def _hermite_matrix_rhs(spec):
    # Built at degree d + 1 (HermiteSpec proved the nodes distinct), a row ends
    # in the order-th derivative of the monic term z^d, moved to the right side.
    system = _fraction_rows(_blocks(spec.points, range(spec.order), spec.degree + 1))
    targets = [t for row in spec.targets for t in row]
    return [row[:-1] for row in system], [t - row[-1] for t, row in zip(targets, system)]


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


def bundle_rank(degrees, k, n):
    """Rank 2*N(D) - 2nrk + k - 1 of the band of the resolved discriminant
    over the k-point configuration stratum; r is the length of degrees."""
    degrees = [read_int(d, "all degrees") for d in degrees]
    k, n = read_int(k, "k", 0), read_int(n, "n")
    return 2 * sum(degrees) - 2 * n * len(degrees) * k + k - 1
