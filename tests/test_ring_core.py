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
    _PACK_TERMS,
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
# finite-rings benchmark pool build a ring for: the first 19, then the
# middle levels of the h1 towers
POOL_RINGS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1), (7, 1, 1),
              (2, 1, 3), (3, 1, 2), (2, 1, 10), (2, 2, 1), (3, 2, 1),
              (5, 2, 1), (2, 2, 2), (2, 3, 1), (3, 3, 1), (2, 4, 1),
              (2, 5, 1), (3, 4, 2), (2, 4, 3), (2, 14, 1)]
POOL_RINGS += [(2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2)] + [
    (2, n, 1) for n in range(6, 14)]

GL2_RINGS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1), (2, 2, 1),
             (2, 3, 1), (3, 2, 1), (2, 2, 2)]


def ring(p, n, d):
    return FiniteField(p, d) if n == 1 else TruncatedLocalRing(p, n, d)


# the tower levels after the GL_2 cases, so that those keep their ids
@pytest.mark.parametrize("s, pnd", [(1, r) for r in POOL_RINGS[:19]]
                         + [(2, r) for r in GL2_RINGS]
                         + [(1, r) for r in POOL_RINGS[19:]])
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


# every tabulated ring (d > 1, at most 256 elements) of POOL_RINGS, the
# tower level (2, 2, 3) last, plus F_27, F_64 and the truncated ring
# (2, 3, 2); a d = 1 ring, whose kernels come from its ops; and three
# packed rings (d > 1, more than 256 elements), whose 2 x 2 product,
# forms and sandwich entries come from their packed mul and dot
KERNEL_RINGS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3),
                (2, 1, 6), (2, 3, 2), (3, 2, 2), (5, 4, 1), (3, 3, 2),
                (2, 4, 3), (2, 1, 10), (2, 2, 3)]


def dot_product(R, s, a, b):
    return tuple(R.dot(a[i * s:i * s + s], b[j::s])
                 for i in range(s) for j in range(s))


def dot_det(R, s, a):
    """Laplace expansion along the first row, one dot per level; the
    empty matrix has determinant 1."""
    if s == 0:
        return R.one_code
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


# s = 1 on every ring of the finite-rings pool too, where mat_inv is inv;
# a case's id is s and the ring's index in DOT_PATH_RINGS
DOT_PATH_RINGS = KERNEL_RINGS + [r for r in POOL_RINGS
                                 if r not in KERNEL_RINGS]
DOT_PATH_CASES = [(s, r) for s in (1, 2, 3) for r in KERNEL_RINGS] + [
    (1, r) for r in DOT_PATH_RINGS[len(KERNEL_RINGS):]]


@pytest.mark.parametrize("s, pnd", DOT_PATH_CASES, ids=[
    f"{s}-pnd{DOT_PATH_RINGS.index(r)}" for s, r in DOT_PATH_CASES])
def test_kernels_agree_with_the_dot_path(pnd, s):
    R = TruncatedLocalRing(*pnd)
    mul = R.mat_product(s)
    rng = random.Random(f"{pnd}{s}")
    draw = lambda: tuple(rng.randrange(R.size()) for _ in range(s * s))
    units = 0
    for _ in range(60):
        a, b, x = draw(), draw(), draw()
        assert mul(a, b) == R.mat_mul(s, a, b) == dot_product(R, s, a, b)
        assert R.mat_det(s, a) == dot_det(R, s, a)
        assert R.sandwich(s, a, b)(x) == dot_product(
            R, s, dot_product(R, s, a, x), b)
        assert R.form(b[:s])(a[:s]) == R.dot(a[:s], b[:s])
        if R.is_unit(dot_det(R, s, a)):
            units += 1
            assert R.mat_inv(s, a) == dot_inverse(R, s, a)
        else:
            with pytest.raises(NotInvertible):
                R.mat_inv(s, a)
    assert units
    # a row in the maximal ideal, and (s >= 2) a repeated row: singular
    a = draw()
    bads = [tuple(R.mul(R.encode([R.p]), c) for c in a[:s]) + a[s:]]
    if s >= 2:
        bads.append(a[:s] + a[:s] + a[2 * s:])
    for bad in bads:
        assert not R.is_unit(R.mat_det(s, bad))
        with pytest.raises(NotInvertible, match="determinant is not a unit"):
            R.mat_inv(s, bad)


# ---------------------------------------------------------------------------
# A reference arithmetic on decoded coefficient lists for the packed rings
# (d > 1, more than 256 elements), which hold a code's coefficients in the
# slots of one int: every term of a product is reduced, the product is
# then divided by F, and an inverse solves a * z = 1 by Gauss-Jordan
# elimination.  It checks the packed arithmetic on the five packed rings
# of the finite-rings pool, on (5, 2, 2), on F_(3^7) (one chunk a code,
# odd p) and on F_(2^16) (two chunks), with sigma^e for every e.

SCHOOLBOOK_RINGS = [(2, 4, 3), (3, 4, 2), (2, 1, 10), (3, 3, 2), (5, 2, 2),
                    (2, 3, 3), (3, 1, 7), (2, 1, 16)]


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mul(a, b, m):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    return _poly_trim(tuple(out))


def _poly_mod(a, f, m):
    """Remainder of a modulo monic f, coefficients in Z/m."""
    a = list(a)
    df = len(f) - 1
    while len(a) > df:
        lead = a[-1] % m
        if lead:
            shift = len(a) - 1 - df
            for i in range(df):
                a[shift + i] = (a[shift + i] - lead * f[i]) % m
        a.pop()
    return _poly_trim(tuple(c % m for c in a))


def _gauss_jordan_inv(a, f, p, pn):
    """z with a z = 1 mod (p^n, F); column j of the system holds the
    coefficients of a x^j."""
    d = len(f) - 1
    cols, col = [], list(a)
    for _ in range(d):
        cols.append(col)
        top = col[-1]  # x * x^(d-1) = x^d - F
        col = [c - top * fc for c, fc in zip([0] + col[:-1], f)]
    rows = [[cols[j][i] for j in range(d)] + [int(i == 0)]
            for i in range(d)]
    for c in range(d):
        piv = next((r for r in range(c, d) if rows[r][c] % p), None)
        if piv is None:
            raise NotInvertible("not a unit")
        rows[c], rows[piv] = rows[piv], rows[c]
        k = pow(rows[c][c], -1, pn)
        rows[c] = [x * k % pn for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                g = rows[r][c]
                rows[r] = [(x - g * y) % pn for x, y in zip(rows[r], rows[c])]
    return [row[d] for row in rows]


class Schoolbook:
    """The reference arithmetic on the codes of R.  sigma sends x to the
    root of F congruent to x^p, found by Newton's method here."""

    def __init__(self, R):
        self.R, self.p, self.pn, self.d = R, R.p, R.pn, R.d
        self.f = R.modulus_lift
        x = R.weights[1]
        y = x
        for _ in range(R.p - 1):
            y = self.mul(y, x)
        fprime = [i * c for i, c in enumerate(self.f)][1:]
        for _ in range(R.n):
            step = self.mul(self.evaluate(self.f, y),
                            self.inv(self.evaluate(fprime, y)))
            y = self.add(y, self.neg(step))
        assert self.evaluate(self.f, y) == 0
        self.y = y

    def encode(self, coeffs):
        return sum(c % self.pn * self.pn ** (self.d - 1 - i)
                   for i, c in enumerate(coeffs))

    def add(self, a, b):
        return self.encode([x + y for x, y in zip(digits(self.R, a),
                                                  digits(self.R, b))])

    def neg(self, a):
        return self.encode([-c for c in digits(self.R, a)])

    def mul(self, a, b):
        return self.encode(_poly_mod(_poly_mul(
            digits(self.R, a), digits(self.R, b), self.pn), self.f, self.pn))

    def dot(self, xs, ys):
        acc = 0
        for a, b in zip(xs, ys):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def inv(self, a):
        return self.encode(_gauss_jordan_inv(digits(self.R, a), self.f,
                                             self.p, self.pn))

    def is_unit(self, a):
        return any(c % self.p for c in digits(self.R, a))

    def evaluate(self, coeffs, y):
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, y), self.encode([c]))
        return acc

    def sigma(self, a):
        return self.evaluate(digits(self.R, a), self.y)


@pytest.mark.parametrize("pnd", SCHOOLBOOK_RINGS)
def test_schoolbook_rings_agree_with_the_reference(pnd):
    R = TruncatedLocalRing(*pnd)
    ref = Schoolbook(R)
    assert R.size() > 256 and R.d > 1
    rng = random.Random(f"schoolbook{pnd}")
    draw = lambda: rng.randrange(R.size())
    # the maximal ideal: every coefficient divisible by p
    nonunit = lambda: R.encode([R.p * rng.randrange(R.pn) for _ in range(R.d)])
    for _ in range(150):
        a, b = draw(), draw()
        assert R.add(a, b) == ref.add(a, b)
        assert R.mul(a, b) == ref.mul(a, b)
        assert R.neg(a) == ref.neg(a)
        xs, ys = ([draw() for _ in range(4)] for _ in range(2))
        for k in range(1, 5):
            assert R.dot(xs[:k], ys[:k]) == ref.dot(xs[:k], ys[:k])
        for c in (a, nonunit()):
            assert R.is_unit(c) == ref.is_unit(c)
            if ref.is_unit(c):
                assert R.inv(c) == ref.inv(c)
            else:
                with pytest.raises(NotInvertible, match="not a unit"):
                    R.inv(c)
        # sigma^e(a) and sigma^e(b) for e = 0 .. d - 1
        orbit = [(a, b)]
        for _ in range(R.d - 1):
            orbit.append(tuple(map(ref.sigma, orbit[-1])))
        for e in range(-1, R.d + 2):
            assert R.sigma(a, e) == orbit[e % R.d][0]
            assert R.mat_sigma((a, b), e) == orbit[e % R.d]
    with pytest.raises(NotInvertible, match="not a unit"):
        R.inv(0)


# three chunks a code: F_(3^15) and (2, 7, 5) (one digit each); one-digit
# chunks past the table cap: (2, 13, 2), whose p^n is 8192
EXTREME_RINGS = SCHOOLBOOK_RINGS + [(3, 1, 15), (2, 7, 5), (2, 13, 2)]


@pytest.mark.parametrize("pnd", EXTREME_RINGS)
def test_packed_slots_hold_the_largest_sums(pnd):
    """Operands whose every coefficient is p^n - 1 fill the slots of a
    packed sum as far as any operands can."""
    R = TruncatedLocalRing(*pnd, cap=10**9)
    ref = Schoolbook(R)
    top = R.encode([R.pn - 1] * R.d)
    assert R.decode(top) == (R.pn - 1,) * R.d
    assert R.mul(top, top) == ref.mul(top, top)
    assert R.add(top, top) == ref.add(top, top)
    assert R.neg(top) == ref.neg(top)
    for k in range(1, 10):
        assert R.dot([top] * k, [top] * k) == ref.dot([top] * k, [top] * k)
    # longer than the most products of one packed sum
    k = 4 * _PACK_TERMS + 3
    assert R.dot([top] * k, [top] * k) == ref.dot([top] * k, [top] * k)
    for s in (1, 2, 3, 5):  # at s = 5 an entry has more terms than that
        a = (top,) * (s * s)
        assert R.sandwich(s, a, a)(a) == dot_product(
            R, s, dot_product(R, s, a, a), a)
