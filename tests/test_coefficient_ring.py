"""RationalPoly on Gaussian-integer pairs against Fraction arithmetic.

`_Gauss` and `_Poly` below copy the earlier Fraction-based coefficient ring:
each coefficient a pair of Fractions, and every operation the field
arithmetic of Q(i).  The int-pair ring must give the same coefficients,
read back through `RationalPoly.coeffs`.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab import GaussianRational, RationalPoly, derivative, gcd_monic, jet_section, mult_part


class _Gauss:
    """a + b*i with Fraction a, b and the field operations of Q(i)."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(value):
        if isinstance(value, _Gauss):
            return value
        if isinstance(value, GaussianRational):
            return _Gauss(value.re, value.im)
        return _Gauss(value)

    def __add__(self, other):
        o = _Gauss.of(other)
        return _Gauss(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = _Gauss.of(other)
        return _Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = _Gauss.of(other)
        return _Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, other):
        o = _Gauss.of(other)
        norm = o.re * o.re + o.im * o.im
        return _Gauss((self.re * o.re + self.im * o.im) / norm, (self.im * o.re - self.re * o.im) / norm)

    def __neg__(self):
        return _Gauss(-self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def pair(self):
        return (self.re, self.im)


class _Poly:
    """Ascending _Gauss coefficients, trailing zeros removed."""

    def __init__(self, coeffs):
        cs = [_Gauss.of(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def from_roots(cls, root_mults):
        out = cls([1])
        for alpha, mult in root_mults:
            for _ in range(mult):
                out = out * cls([-_Gauss.of(alpha), 1])
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return _Poly(out)

    def __neg__(self):
        return _Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            return _Poly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return _Poly([])
        out = [_Gauss()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _Poly(out)

    def divmod(self, other):
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return _Poly([]), self
        quo = [_Gauss()] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quo[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
        return _Poly(quo), _Poly(rem)

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return _Poly([c / lead for c in self.coeffs])

    def derivative(self, order):
        return _Poly([c * math.perm(i, order) for i, c in enumerate(self.coeffs)][order:])

    def evaluate(self, x):
        acc = _Gauss()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def gcd_monic(self, other):
        a, b = self, other
        while b.coeffs:
            a, b = b, a.divmod(b)[1].monic()
        return a.monic()

    def mult_part(self, n):
        g = self.monic()
        for order in range(1, n):
            if g.degree == 0:
                break
            g = g.gcd_monic(self.derivative(order))
        return g


def _jet_section_reference(values):
    b = [_Gauss.of(v) for v in values]
    return _Poly([b[0]] + [(b[k] - b[0]) * Fraction(1, math.factorial(k)) for k in range(1, len(b))])


def _same(ours, reference):
    return [c.to_pair() for c in ours.coeffs] == [
        [str(c.re), str(c.im)] for c in reference.coeffs]


_fractions = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9)))
# zero, integers, small and large denominators, and nonzero imaginary parts
_gaussians = st.one_of(
    st.just(GaussianRational()),
    st.builds(GaussianRational, st.integers(-5, 5)),
    st.builds(GaussianRational, _fractions, _fractions),
    st.builds(GaussianRational, st.integers(-2**70, 2**70), st.integers(-2**70, 2**70)),
)
# coefficient lists: empty (zero), constant, trailing zeros and any lead
_coefficient_lists = st.lists(_gaussians, max_size=6)


@st.composite
def _root_pairs(draw):
    """Root lists of f and g drawn from one pool of 1-4 values with
    multiplicities 1-4, so that they share roots of every multiplicity."""
    pool = draw(st.lists(_gaussians, min_size=1, max_size=4, unique=True))
    return [list(draw(st.dictionaries(st.sampled_from(pool), st.integers(1, 4), max_size=3)).items())
            for _ in range(2)]


def _pair(value):
    return (RationalPoly(value), _Poly(value))


@settings(max_examples=200, deadline=None)
@given(_coefficient_lists, _coefficient_lists, _gaussians, st.integers(0, 3), _gaussians)
def test_ring_operations_match_fraction_arithmetic(a, b, scalar, order, point):
    (f, rf), (g, rg) = _pair(a), _pair(b)
    assert _same(f + g, rf + rg)
    assert _same(f - g, rf - rg)
    assert _same(-f, -rf)
    assert _same(f * g, rf * rg)
    assert _same(f * scalar, rf * _Gauss.of(scalar))
    assert _same(f.monic(), rf.monic())
    assert _same(derivative(f, order), rf.derivative(order))
    assert f.evaluate(point).to_pair() == [str(x) for x in rf.evaluate(_Gauss.of(point)).pair()]
    assert _same(gcd_monic(f, g), rf.gcd_monic(rg))
    if not g.is_zero:
        (q, r), (rq, rr) = f.divmod(g), rf.divmod(rg)
        assert _same(q, rq) and _same(r, rr)
        assert _same(mult_part(g, order + 1), rg.mult_part(order + 1))


@settings(max_examples=150, deadline=None)
@given(_root_pairs(), st.integers(1, 4), _coefficient_lists)
def test_root_expansion_and_gcds_match_fraction_arithmetic(roots, n, values):
    (f, rf), (g, rg) = [(RationalPoly.from_roots(r), _Poly.from_roots(r)) for r in roots]
    assert _same(f, rf) and f.is_monic and _same(g, rg)
    assert _same(gcd_monic(f, g), rf.gcd_monic(rg))
    assert _same(mult_part(f, n), rf.mult_part(n))
    assert _same(mult_part(g, n), rg.mult_part(n))
    if values:
        assert _same(jet_section(values), _jet_section_reference(values))


def test_floats_do_not_enter_the_exact_ring():
    with pytest.raises(TypeError):
        GaussianRational(0.1)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)
    with pytest.raises(TypeError):
        RationalPoly([0.5, 1])
    with pytest.raises(TypeError):
        RationalPoly([1, 1]) * 0.5
