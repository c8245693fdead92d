"""Randomized algebraic-law checks on the exact arithmetic layer."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glnlab.errors import NotInvertible
from glnlab.hecke import BIG
from glnlab.rings import FiniteField, HalfPowerLaurent, TruncatedLocalRing
from test_building import iwasawa
from test_hecke import smith_exponents, vp
from test_rings import elements, half_of

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64)


def half(q):
    return st.builds(lambda a, b: half_of(q, a, b), rationals, rationals)


class FractionHalf:
    """Reference a + b*v on a pair of Fractions, with no int normal form;
    the oracle of TestFractionReference."""

    def __init__(self, q, a=0, b=0):
        self.q = q
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def v_power(cls, q, k):
        if k % 2 == 0:
            return cls(q, Fraction(q)**(k // 2), 0)
        return cls(q, 0, Fraction(q)**((k - 1) // 2))

    def __add__(self, other):
        return FractionHalf(self.q, self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionHalf(self.q, self.a * other, self.b * other)
        return FractionHalf(
            self.q,
            self.a * other.a + self.b * other.b * self.q,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self):
        nrm = self.a * self.a - self.b * self.b * self.q
        if nrm == 0:
            raise NotInvertible("not invertible in Q[v]/(v^2 - q)")
        return FractionHalf(self.q, self.a / nrm, -self.b / nrm)

    def __eq__(self, other):
        return (self.q, self.a, self.b) == (other.q, other.a, other.b)


# zeros, negatives and denominators that are not powers of q
scalars = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30),
                    rationals)


def agree(x, ref):
    assert (x.a, x.b) == (ref.a, ref.b)
    assert (str(x.a), str(x.b)) == (str(ref.a), str(ref.b))
    # the normal form: D > 0 and gcd(A, B, D) = 1
    assert x.D > 0 and math.gcd(x.A, x.B, x.D) == 1


class TestFractionReference:
    @given(q=st.sampled_from([2, 3, 4, 5]), xa=scalars, xb=scalars,
           ya=scalars, yb=scalars, k=st.integers(min_value=-30, max_value=30),
           f=rationals, e=st.integers(min_value=-6, max_value=6))
    @settings(max_examples=300)
    def test_agrees(self, q, xa, xb, ya, yb, k, f, e):
        x, y = half_of(q, xa, xb), half_of(q, ya, yb)
        rx, ry = FractionHalf(q, xa, xb), FractionHalf(q, ya, yb)
        agree(x, rx)
        agree(x + y, rx + ry)
        agree(x * y, rx * ry)
        agree(x * k, rx * k)
        agree(x * f, rx * f)
        agree(HalfPowerLaurent.v_power(q, e), FractionHalf.v_power(q, e))
        assert (x == y) == (rx == ry)
        try:
            inv = rx.inverse()
        except NotInvertible:
            with pytest.raises(NotInvertible):
                x.inverse()
        else:
            agree(x.inverse(), inv)
        # equal values built along different paths hash equal
        for z in ((x + y) + y * -1, x * 1, half_of(q, str(xa), str(xb))):
            assert z == x and hash(z) == hash(x)

    @pytest.mark.parametrize("q, a, b", [
        (2, 0, 0), (3, 0, 0), (4, 2, 1), (4, -2, 1), (4, Fraction(1, 3),
                                                      Fraction(1, 6))])
    def test_not_invertible(self, q, a, b):
        # zero, and a^2 = q b^2 when q is a perfect square
        with pytest.raises(NotInvertible):
            FractionHalf(q, a, b).inverse()
        with pytest.raises(NotInvertible):
            half_of(q, a, b).inverse()


class TestHalfPowerLaurent:
    @given(x=half(3), y=half(3), z=half(3))
    def test_ring_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(x=half(2))
    def test_inverse(self, x):
        if x.a * x.a != x.b * x.b * 2:
            assert x * x.inverse() == 1

    @given(k=st.integers(min_value=-8, max_value=8),
           m=st.integers(min_value=-8, max_value=8))
    def test_monomial_exponent_law(self, k, m):
        q = 5
        assert HalfPowerLaurent.v_power(q, k) \
            * HalfPowerLaurent.v_power(q, m) \
            == HalfPowerLaurent.v_power(q, k + m)


class TestValuations:
    @given(x=rationals, y=rationals)
    def test_multiplicative(self, x, y):
        if x != 0 and y != 0:
            assert vp(x * y, 2) == vp(x, 2) + vp(y, 2)

    @given(x=rationals, y=rationals)
    def test_ultrametric(self, x, y):
        if x + y != 0:
            assert vp(x + y, 3) >= min(vp(x, 3), vp(y, 3))


class TestFiniteFieldLaws:
    @given(a=st.integers(min_value=0, max_value=8),
           b=st.integers(min_value=0, max_value=8),
           c=st.integers(min_value=0, max_value=8))
    @settings(max_examples=40)
    def test_f9_laws(self, a, b, c):
        F = FiniteField(3, 2)
        els = elements(F)
        x, y, z = els[a], els[b], els[c]
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert (x + y).sigma() == x.sigma() + y.sigma()
        assert (x * y).sigma() == x.sigma() * y.sigma()


class TestLocalRingLaws:
    @given(a=st.integers(min_value=0, max_value=26),
           b=st.integers(min_value=0, max_value=26))
    @settings(max_examples=40)
    def test_valuation_laws_z27(self, a, b):
        R = TruncatedLocalRing(3, 3, 1)
        x, y = R.element((a,)), R.element((b,))
        p = x * y
        if not (x.is_zero() or y.is_zero() or p.is_zero()):
            assert p.valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_zero():
            assert s.valuation() >= min(x.valuation(), y.valuation())


class TestSmithInvariance:
    @given(c=st.integers(min_value=-3, max_value=3),
           d0=st.integers(min_value=0, max_value=2),
           d1=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40)
    def test_shear_invariant(self, c, d0, d1):
        # integral row shears do not change elementary divisors
        p = 2
        m = [[Fraction(p)**d0, Fraction(0)], [Fraction(0), Fraction(p)**d1]]
        sheared = [m[0], [m[1][0] + c * m[0][0], m[1][1] + c * m[0][1]]]
        assert smith_exponents(m, p) == smith_exponents(sheared, p)


def fr_det(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    acc = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = Fraction(rows[0][j]) * fr_det(minor)
        acc += -term if j % 2 else term
    return acc


def minors_min_valuation(rows, k, p):
    """Minimum valuation over all k x k minors of a rational matrix."""
    best = BIG
    for rr in itertools.combinations(range(len(rows)), k):
        for cc in itertools.combinations(range(len(rows[0])), k):
            sub = [[rows[i][j] for j in cc] for i in rr]
            best = min(best, vp(fr_det(sub), p))
    return best


def minors_smith_exponents(rows, p):
    """Elementary divisor exponents as differences of the gcd valuations
    of the k x k minors: the definition, independent of elimination."""
    mins = [0] + [minors_min_valuation(rows, k, p)
                  for k in range(1, len(rows) + 1)]
    return tuple(mins[k] - mins[k - 1] for k in range(1, len(rows) + 1))


# entries with p-power and other denominators, and p-power factors
# so that valuations beyond 0 and 1 occur
entries = st.one_of(
    st.builds(lambda a, e: a * 2**e * 3**(e // 2),
              st.integers(min_value=-20, max_value=20),
              st.integers(min_value=0, max_value=4)),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                 max_denominator=36))


@st.composite
def square_matrices(draw, elements):
    n = draw(st.integers(min_value=2, max_value=3))
    rows = [[draw(elements) for _ in range(n)] for _ in range(n)]
    assume(fr_det(rows) != 0)
    return rows


class TestSmithOracle:
    @given(rows=square_matrices(st.integers(min_value=-30, max_value=30)),
           p=st.sampled_from([2, 3]))
    @settings(max_examples=150)
    def test_integer_matrices(self, rows, p):
        assert smith_exponents(rows, p) == minors_smith_exponents(rows, p)

    @given(rows=square_matrices(entries), p=st.sampled_from([2, 3]))
    @settings(max_examples=150)
    def test_rational_matrices(self, rows, p):
        assert smith_exponents(rows, p) == minors_smith_exponents(rows, p)


@st.composite
def iwasawa_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    precision = draw(st.integers(min_value=1, max_value=8))
    ring = TruncatedLocalRing(p, precision, 1)
    # entries times p^e so that valuations beyond 0 and 1 occur
    entry = st.builds(lambda a, e: a * p**e % ring.pn,
                      st.integers(min_value=0, max_value=ring.pn - 1),
                      st.integers(min_value=0, max_value=precision))
    codes = tuple(draw(entry) for _ in range(4))
    assume(vp(ring.mat_det(2, codes), p) < precision)
    return ring, codes


class TestIwasawaOracle:
    @given(g=iwasawa_inputs())
    @settings(max_examples=150)
    def test_diagonal_of_b_by_minors(self, g):
        # g = b k with k in GL_n(O): the bottom r rows of g are those of
        # b times k, so by Cauchy-Binet their r x r minors have the least
        # valuation of [0 | lower-right r x r block of b], its determinant
        ring, codes = g
        b, _ = iwasawa(ring, codes)
        n = 2
        rows = [list(codes[i:i + n]) for i in range(0, n * n, n)]
        diag = [vp(b[i * n + i], ring.p) for i in range(n)]
        for r in range(1, n + 1):
            assert sum(diag[n - r:]) \
                == minors_min_valuation(rows[n - r:], r, ring.p), r
