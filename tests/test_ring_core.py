"""Independent oracles for the integer-coded ring core.

Group orders come from the closed formula, products from a schoolbook
multiplication written here, and codes are decoded here from their
definition (base-p^n digits, constant term most significant), so a
change to the encoding or to an arithmetic table cannot go unnoticed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnlab.lang import gl_elements
from glnlab.rings import FiniteField, Mat, TruncatedLocalRing


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
    els = gl_elements(ring(*pnd), s)
    assert len(els) == gl_order(*pnd, s)
    keys = [m.coeff_key() for m in els]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # the key order is the coefficient-tuple order of the entries
    coeffs = [tuple(a.coeffs for row in m.rows for a in row) for m in els]
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
        units = list(R.units())
        assert len(units) == R.size() - R.size() // R.q
        for x in units:
            assert x * x.inverse() == R.one()
