"""Independent oracles for the integer-coded ring core.

Group orders come from the closed formula, products from a schoolbook
multiplication written here, and codes are decoded here from their
definition (base-p^n digits, constant term most significant), so a
change to the encoding or to an arithmetic table cannot go unnoticed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnlab.errors import NotInvertible
from glnlab.lang import gl_elements
from glnlab.rings import (
    FiniteField,
    LocalRingElement,
    Mat,
    TruncatedLocalRing,
)


def gl_order(p, n, d, s):
    """|GL_s(O/p^n)|, O unramified of residue degree d, q = p^d."""
    q = p**d
    out = q ** (s * s * (n - 1))
    for i in range(s):
        out *= q**s - q**i
    return out


# every (p, n, d) that the lang, h1 and dm-check requests of the
# finite-rings benchmark pool build a ring for
POOL_RINGS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1), (7, 1, 1),
              (2, 1, 3), (3, 1, 2), (2, 1, 10), (2, 2, 1), (3, 2, 1),
              (5, 2, 1), (2, 2, 2), (2, 3, 1), (3, 3, 1), (2, 4, 1),
              (2, 5, 1), (3, 4, 2), (2, 4, 3), (2, 14, 1)]

GL2_RINGS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1), (2, 2, 1),
             (2, 3, 1), (3, 2, 1), (2, 2, 2)]


def ring(p, n, d):
    return FiniteField(p, d) if n == 1 else TruncatedLocalRing(p, n, d)


@pytest.mark.parametrize("s, pnd", [(1, r) for r in POOL_RINGS]
                         + [(2, r) for r in GL2_RINGS])
def test_gl_elements_order_and_order_of_enumeration(s, pnd):
    R = ring(*pnd)
    els = gl_elements(R, s)
    assert len(els) == gl_order(*pnd, s)
    assert all(len(m) == s * s for m in els)
    assert all(a < b for a, b in zip(els, els[1:]))
    # code order is the coefficient-tuple order of the entries
    coeffs = [tuple(digits(R, a) for a in m) for m in els]
    assert coeffs == sorted(coeffs)


# (2,3,2), (3,2,2) and (2,1,3) have at most 256 elements and use tables;
# (3,3,2) has 729 and does not; (5,4,1) is a d = 1 ring
LAW_RINGS = {key: ring(*key) for key in
             [(2, 3, 2), (3, 2, 2), (2, 1, 3), (5, 4, 1), (3, 3, 2)]}


def digits(R, code):
    """Coefficients of a code, read off its definition."""
    return [code // R.pn ** (R.d - 1 - i) % R.pn for i in range(R.d)]


def schoolbook(R, a, b):
    """a * b mod (F mod p^n), coefficient lists low degree first."""
    prod = [0] * (2 * R.d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    f = R.modulus_lift
    for k in range(len(prod) - 1, R.d - 1, -1):
        c = prod[k]
        for i in range(R.d + 1):
            prod[k - R.d + i] -= c * f[i]
    return [c % R.pn for c in prod[:R.d]]


codes_of = st.sampled_from(sorted(LAW_RINGS)).flatmap(
    lambda key: st.tuples(
        st.just(LAW_RINGS[key]),
        st.lists(st.integers(0, LAW_RINGS[key].size() - 1),
                 min_size=2, max_size=2)))


class TestRingLaws:
    @given(case=codes_of)
    @settings(max_examples=150)
    def test_mul_is_schoolbook(self, case):
        R, (a, b) = case
        assert digits(R, R.mul(a, b)) == schoolbook(R, digits(R, a),
                                                      digits(R, b))
        assert list(R.element(digits(R, a)).coeffs) == digits(R, a)

    @given(case=codes_of)
    @settings(max_examples=150)
    def test_sigma_is_the_frobenius_lift(self, case):
        R, (a, b) = case
        x, y = R.element(digits(R, a)), R.element(digits(R, b))
        assert (x + y).sigma() == x.sigma() + y.sigma()
        assert (x * y).sigma() == x.sigma() * y.sigma()
        z = x.sigma()
        for _ in range(R.d - 1):
            z = z.sigma()
        assert z == x
        assert [c % R.p for c in x.sigma().coeffs] \
            == [c % R.p for c in (x ** R.p).coeffs]

    @given(case=codes_of)
    @settings(max_examples=150)
    def test_unit_inverse(self, case):
        R, (a, _) = case
        x = R.element(digits(R, a))
        if any(c % R.p for c in digits(R, a)):
            assert x * x.inverse() == R.one()
        else:
            assert not x.is_unit()

    @given(key=st.sampled_from(sorted(LAW_RINGS)), s=st.sampled_from([2, 3]),
           data=st.data())
    @settings(max_examples=60)
    def test_matrix_inverse(self, key, s, data):
        R = LAW_RINGS[key]
        codes = tuple(data.draw(st.lists(st.integers(0, R.size() - 1),
                                         min_size=s * s, max_size=s * s)))
        m = Mat.from_codes(R, s, codes)
        if m.det().is_unit():
            assert m * m.inverse() == Mat.identity(R, s)
            assert m.inverse() * m == Mat.identity(R, s)


def test_units_are_the_complement_of_the_maximal_ideal():
    for R in LAW_RINGS.values():
        units = [LocalRingElement(R, a) for a in range(R.size())
                 if R.is_unit(a)]
        assert len(units) == R.size() - R.size() // R.q
        for x in units:
            assert x * x.inverse() == R.one()


# every tabulated ring (d > 1, at most 256 elements) of POOL_RINGS, plus
# F_27, F_64 and the truncated rings (2, 3, 2) and (3, 2, 2); then a
# d = 1 ring and a schoolbook ring, whose kernels come from their ops
KERNEL_RINGS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3),
                (2, 1, 6), (2, 3, 2), (3, 2, 2), (5, 4, 1), (3, 3, 2)]


def dot_product(R, s, a, b):
    return tuple(R.dot(a[i * s:i * s + s], b[j::s])
                 for i in range(s) for j in range(s))


def dot_det(R, s, a):
    """Laplace expansion along the first row, one dot per level."""
    if s == 1:
        return a[0]
    cof = [dot_det(R, s - 1, tuple(a[r * s + c] for r in range(1, s)
                                   for c in range(s) if c != j))
           for j in range(s)]
    return R.dot(a[:s], [R.neg(c) if j % 2 else c for j, c in enumerate(cof)])


def dot_inverse(R, s, a):
    """The adjugate over the determinant: entry (i, j) is the signed
    minor (j, i)."""
    k = R.inv(dot_det(R, s, a))
    return tuple(R.mul(k, R.neg(m) if (i + j) % 2 else m)
                 for i in range(s) for j in range(s)
                 for m in [dot_det(R, s - 1, tuple(
                     a[r * s + c] for r in range(s) if r != j
                     for c in range(s) if c != i))])


@pytest.mark.parametrize("pnd", KERNEL_RINGS)
@pytest.mark.parametrize("s", [2, 3])
def test_kernels_agree_with_the_dot_path(pnd, s):
    R = TruncatedLocalRing(*pnd)
    mul, det, inv = R.mat_kernels(s)
    rng = random.Random(f"{pnd}{s}")
    draw = lambda: tuple(rng.randrange(R.size()) for _ in range(s * s))
    units = 0
    for _ in range(60):
        a, b, x = draw(), draw(), draw()
        assert mul(a, b) == R.mat_mul(s, a, b) == dot_product(R, s, a, b)
        assert det(a) == R.mat_det(s, a) == dot_det(R, s, a)
        assert R.sandwich(s, a, b)(x) == dot_product(
            R, s, dot_product(R, s, a, x), b)
        assert R.form(b[:s])(a[:s]) == R.dot(a[:s], b[:s])
        if R.is_unit(dot_det(R, s, a)):
            units += 1
            assert inv(a) == R.mat_inv(s, a) == dot_inverse(R, s, a)
        else:
            with pytest.raises(NotInvertible):
                inv(a)
    assert units
    # a repeated row, and a row in the maximal ideal: singular
    a = draw()
    for bad in (a[:s] + a[:s] + a[2 * s:],
                tuple(R.mul(R.encode([R.p]), c) for c in a[:s]) + a[s:]):
        assert not R.is_unit(det(bad))
        with pytest.raises(NotInvertible, match="determinant is not a unit"):
            inv(bad)
