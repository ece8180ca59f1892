"""Exact linear algebra over the rationals and the integers.

Everything in this module is certified arithmetic: Fractions or
arbitrary-precision integers, never floats.  These kernels back the fan
predicates (basis extension, kernel bases, cone feasibility) and the rank
certification of the Hermite constraint matrices.
"""

from fractions import Fraction
from math import gcd, lcm

from . import CapExceededError


# A Mersenne prime: ranks modulo P certify full rank over Q (one-sided).
P = (1 << 61) - 1
# Pivots before lp_feasible raises CapExceededError; Bland's rule never cycles.
SIMPLEX_MAX_ITER = 100_000


def _integer_rows(rows):
    """Copy of a matrix of ints and Fractions with each row scaled by the lcm
    of its denominators.

    Row scaling preserves rank, pivots, kernel and the reduced echelon form.
    An entry without an exact numerator and denominator (a float, say)
    raises TypeError, and rows of unequal length raise ValueError.
    """
    out = []
    for row in rows:
        row = list(row)
        if out and len(row) != len(out[0]):
            raise ValueError("matrix rows must have equal length")
        if not all(type(x) is int for x in row):
            try:
                den = lcm(*[x.denominator for x in row])
            except AttributeError:
                raise TypeError("matrix entries must be ints or Fractions") from None
            row = [x.numerator * (den // x.denominator) for x in row]
        out.append(row)
    return out


def _augmented(a_rows, b):
    """The rows of [A | b]; a b whose length is not A's row count raises ValueError."""
    if len(b) != len(a_rows):
        raise ValueError("b must have one entry per row of A")
    return [list(row) + [rhs] for row, rhs in zip(a_rows, b)]


def echelon(rows, reduced=False):
    """Fraction-free (Bareiss) elimination of a matrix of ints and Fractions.

    Rows are scaled to integers once; every later step divides exactly, so
    all entries stay integral minors.  Returns (matrix, pivot_columns) with
    the rank equal to the number of pivots; the input is not modified.
    With reduced=True the pivot rows are also cleared above (fraction-free
    Gauss-Jordan): all pivots then equal one integer D and the first rank
    rows are D times the reduced row echelon form over Q.
    """
    m = _integer_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    for col in range(ncols):
        rk = len(pivots)
        for piv in range(rk, nrows):
            if m[piv][col]:
                break
        else:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        top = m[rk]
        p = top[col]
        for i in range(0 if reduced else rk + 1, nrows):
            if i == rk:
                continue
            row = m[i]
            f = row[col]
            # columns left of col are zero below the pivot row, not above it
            for j in range(0 if i < rk else col + 1, ncols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = p
        pivots.append(col)
        if rk + 1 == nrows:
            break
    return m, pivots


def _rank_mod_p(m):
    """Rank of an integer matrix over Z/P, never above its rank over Q.

    Each row is packed into one int: column j is the slot of w bits at bit
    w (ncols - 1 - j), so the column being eliminated is a row's top slot.
    Reduction mod P is delayed (Dumas, Giorgi, Pernet, ACM TOMS 2008;
    Dumas, Fousse, Salvy, J. Symb. Comp. 2011): a pivot step reduces only
    the pivot row's slots, then clears the column from every other row r
    with residue c there by one big-int multiply-add, dropping r's top slot
    and adding (-c / pivot mod P) times the pivot row's other slots.  That
    adds less than P^2 to each slot, at most once per pivot above r, so
    every slot stays below nrows P^2 < 2^(w - 1) with
    w = 2 bitlen(P) + bitlen(nrows) + 1, and no carry crosses into the next.
    A column with no pivot leaves its slots, all 0 mod P, in place; they
    do not change the residue that one shift and one % P read below them.
    """
    nrows = len(m)
    w = 2 * P.bit_length() + nrows.bit_length() + 1
    mask = (1 << w) - 1
    rows = []
    for row in m:
        packed = 0
        for x in row:
            packed = packed << w | x % P
        rows.append(packed)
    rk = 0
    for s in range(w * (len(m[0]) - 1), -1, -w):
        for i, row in enumerate(rows):
            c = (row >> s) % P
            if c:
                break
        else:
            continue
        rk += 1
        if rk == nrows:
            break
        rest = rows.pop(i)
        top = 0
        for shift in range(s - w, -1, -w):
            top = top << w | (rest >> shift & mask) % P
        inv = P - pow(c, -1, P)
        low = (1 << s) - 1
        rows = [(row & low) + f * inv % P * top if (f := (row >> s) % P) else row & low
                for row in rows]
    return rk


def rank(rows):
    """Rank over Q of a matrix of ints and Fractions.

    A rank modulo P equal to min(rows, cols) certifies the rank over Q,
    since rank_P <= rank_Q <= min(rows, cols); any shortfall falls back to
    exact Bareiss elimination.  Rows are scaled to integers first, so no
    denominator can vanish modulo P.
    """
    m = _integer_rows(rows)
    if not m or not m[0]:
        return 0
    r = _rank_mod_p(m)
    if r == min(len(m), len(m[0])):
        return r
    return len(echelon(m)[1])


def solve_affine(a_rows, b):
    """One exact solution of A x = b with free variables set to zero.

    Returns None when the system is inconsistent.  A b without one entry
    per row of A raises ValueError.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    m, pivots = echelon(_augmented(a_rows, b), reduced=True)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        x[col] = Fraction(row[ncols], row[col])
    return x


def nullspace_int(rows):
    """Primitive integer basis of the rational kernel of a matrix.

    One vector per free column f of the reduced echelon form: 1 at f, minus
    column f at the pivots.  Each is scaled to integers with content 1 and
    a positive leading entry.
    """
    m, pivots = echelon(rows, reduced=True)
    ncols = len(m[0]) if m else 0
    scale = m[0][pivots[0]] if pivots else 1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, col in zip(m, pivots):
            v[col] = -row[f]
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append([x // g for x in v])
    return basis


def extends_to_basis(rows):
    """Whether k integer rows of length m extend to a basis of Z^m.

    True exactly when k <= m and the k x k minors have gcd 1: the index in
    Z^k of the lattice L spanned by the columns.  Bareiss elimination finds
    k independent columns or shows there are none, and its last pivot is
    their minor D up to sign, so |D| = 1 answers at once, and so does
    k = m, where D is the only minor.  Otherwise D Z^k lies in L (by the
    adjugate), so every entry may be reduced mod D
    (Domich, Kannan, Trotter 1987; Cohen, Alg. 2.4.8).  Row by row, Euclid
    on column pairs (unimodular column operations) leaves h_ii in column i
    and zeros to its right; the row's diagonal entry in the Hermite form of
    L is gcd(h_ii, D), and the test stops at the first one that is not 1.
    Column i is never read again, so it is not brought to the form.
    """
    k = len(rows)
    if not k:
        return True
    # more rows than columns leave fewer than k pivots
    last, pivots = echelon(rows)
    ncols = len(last[0])
    if len(pivots) < k:
        return False
    d = abs(last[k - 1][pivots[-1]])
    if d == 1 or k == ncols:
        return d == 1
    m = [[x % d for x in row] for row in rows]
    for i, top in enumerate(m):
        for j in range(i + 1, ncols):
            while top[j]:
                q = top[i] // top[j]
                # rows above i are already zero in columns i and j
                for row in m[i:]:
                    row[i], row[j] = row[j], (row[i] - q * row[j]) % d
        if gcd(top[i], d) != 1:
            return False
    return True


class SimplexError(RuntimeError):
    """An unbounded phase-one objective, which cannot happen: a defect."""


def lp_feasible(a_rows, b):
    """A point of {x >= 0 : A x = b} by exact phase-one simplex, or None.

    Integer pivoting (Edmonds; Avis's lrs): each row of [A | b] is scaled
    to integers once and negated where b < 0, and the tableau keeps one
    running denominator d, the last pivot (1 at first).  Every entry is d
    times its Fraction value and d > 0, so signs are true signs.  A pivot p
    maps every other row T_i to (p T_i - T_i[enter] T_leave) // d, exact by
    Sylvester's identity as in `echelon`.  Bland's rule picks the entering
    column and, comparing ratios by cross-multiplication with ties to the
    smaller basis index, the leaving row.  The vertex is returned as
    Fractions over d.  A float entry raises TypeError, and a b without one
    entry per row of A raises ValueError.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    tableau = [[-x for x in row] if row[-1] < 0 else row
               for row in _integer_rows(_augmented(a_rows, b))]
    # objective: sum of artificial variables, expressed through the rows
    obj = [sum(col) for col in zip(*tableau)] if tableau else [0] * (ncols + 1)
    basis = [ncols + i for i in range(nrows)]  # artificials carry large indices
    d = 1

    for _ in range(SIMPLEX_MAX_ITER):
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            if obj[-1] != 0:
                return None
            x = [0] * ncols
            for row, var in zip(tableau, basis):
                if var < ncols:
                    x[var] = row[-1]
            return [Fraction(v, d) for v in x]
        # Bland ratio test: smallest rhs/coef, ties by smallest basis index
        leave = None
        for i, row in enumerate(tableau):
            coef = row[enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                top = tableau[leave]
                lhs, rhs = row[-1] * top[enter], top[-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise SimplexError("phase-one objective unbounded")
        top = tableau[leave]
        p = top[enter]
        for i, row in enumerate(tableau):
            if i != leave:
                tableau[i] = _pivot_row(row, top, p, enter, d)
        obj = _pivot_row(obj, top, p, enter, d)
        d = p
        basis[leave] = enter
    raise CapExceededError(f"the simplex is capped at {SIMPLEX_MAX_ITER} pivots")


def _pivot_row(row, top, p, enter, d):
    """(p row - row[enter] top) // d; a row that is 0 in the pivot column is
    only rescaled by p / d."""
    f = row[enter]
    if f:
        return [(p * x - f * t) // d for x, t in zip(row, top)]
    if p == d:
        return row
    return [p * x // d for x in row]
