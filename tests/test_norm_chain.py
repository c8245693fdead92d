"""Oracles for the ring's Frobenius norm, its norm-form inverse and the
inverse-free Frobenius lift.

The norm N_m(a) = a sigma^e(a) ... sigma^(e(m-1))(a) is checked against a
left-to-right product written here, and its addition chain against the
words it builds; the inverse by a a^-1 = 1, and over the tables against
a scan of the products; the lift against Newton's method with the
ring's inverse, the way the lift was computed before it needed none.
"""

import random

import pytest

from glnlab import rings
from glnlab.errors import NotInvertible
from glnlab.rings import DEFAULT_GROUP_CAP, TruncatedLocalRing
from test_ring_core import POOL_RINGS


def ring(p, n, d):
    return TruncatedLocalRing(p, n, d, cap=DEFAULT_GROUP_CAP)


def left_to_right_norm(R, s, m, e, a):
    """a sigma^e(a) ... sigma^(e(m-1))(a), one factor at a time."""
    acc = cur = a
    for _ in range(m - 1):
        cur = tuple(R.sigma(c, e) for c in cur)
        acc = R.mat_mul(s, acc, cur)
    return acc


# native (d = 1), tabulated (d > 1, at most 256 elements) and packed
# rings, F_16 among them so that e = 2 and 3 act as sigma^e of dm-check
NORM_RINGS = [(5, 2, 1), (3, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2),
              (2, 1, 4), (2, 1, 10), (3, 3, 2), (2, 4, 3)]


@pytest.mark.parametrize("pnd", NORM_RINGS)
@pytest.mark.parametrize("s", [1, 2, 3])
def test_norm_is_the_left_to_right_product(pnd, s):
    R = ring(*pnd)
    rng = random.Random(f"norm{pnd}{s}")
    for e in sorted({1, 2, R.d - 1} - {0}):
        for m in range(1, 2 * R.d + 1 if R.d > 1 else 5):
            norm = R.norm_map(s, m, e)
            for _ in range(6):
                a = tuple(rng.randrange(R.size()) for _ in range(s * s))
                assert norm(a) == left_to_right_norm(R, s, m, e, a), (m, e)


def test_chain_builds_the_word_of_the_norm():
    # in the free model an element is the word of the sigma-exponents of
    # its factors, the product is concatenation and sigma^k adds k to
    # each letter, so N_m(a) is the word 0 1 .. m - 1 exactly
    calls, maps = [], set()

    def mul(u, v):
        calls.append("mul")
        return u + v

    def sigma(k):
        maps.add(k)

        def f(w):
            calls.append("sigma")
            return tuple(x + k for x in w)
        return f

    for m in range(1, 70):
        calls.clear()
        maps.clear()
        norm = rings._norm_chain(mul, sigma, m)
        assert norm((0,)) == tuple(range(m))
        # one doubling a bit below the top, one more step a set bit
        steps = m.bit_length() - 1 + bin(m).count("1") - 1
        assert calls.count("mul") == calls.count("sigma") == steps
        # sigma^k for the prefixes k of m above its last bit
        assert maps == {m >> i for i in range(1, m.bit_length())}
        if m <= 3:  # the work of the left-to-right product
            assert steps == m - 1 and maps <= {1}


# every unit of three packed rings, and seeded units of five more
EXHAUSTIVE_RINGS = [(2, 3, 3), (3, 3, 2), (2, 1, 10)]
SAMPLED_RINGS = [(2, 1, 16), (3, 1, 12), (2, 1, 19), (2, 4, 3), (3, 4, 2)]


@pytest.mark.parametrize("pnd", EXHAUSTIVE_RINGS + SAMPLED_RINGS)
def test_inverse_times_unit_is_one(pnd):
    R = ring(*pnd)
    assert R.size() > 256 and R.d > 1  # the packed codes' norm form
    if pnd in EXHAUSTIVE_RINGS:
        units = [a for a in range(R.size()) if R.is_unit(a)]
        assert len(units) == R.size() - R.size() // R.q
    else:
        rng = random.Random(f"inverse{pnd}")
        units = []
        while len(units) < 500:
            a = rng.randrange(R.size())
            if R.is_unit(a):
                units.append(a)
    for a in units:
        assert R.mul(a, R.inv(a)) == R.one_code
    # zero, and for n > 1 a nonzero element of the maximal ideal
    bad = [0] + [R.mul(R.encode([R.p]), units[0])] * (R.n > 1)
    for a in bad:
        with pytest.raises(NotInvertible, match="not a unit"):
            R.inv(a)


# every tabulated ring (d > 1, at most 256 elements) of POOL_RINGS
TABLE_RINGS = [(p, n, d) for p, n, d in POOL_RINGS
               if d > 1 and p**(n * d) <= 256]


@pytest.mark.parametrize("pnd", TABLE_RINGS)
def test_table_inverse_on_every_code(pnd):
    # the norm form against a scan of the multiplication: a unit has one
    # inverse, and every non-unit is refused
    R = ring(*pnd)
    assert R.d > 1 and R.size() <= 256
    for a in range(R.size()):
        inverses = [b for b in range(R.size()) if R.mul(a, b) == R.one_code]
        if R.is_unit(a):
            assert inverses == [R.inv(a)], a
        else:
            assert inverses == []
            with pytest.raises(NotInvertible, match="not a unit"):
                R.inv(a)


def newton_lift(R):
    """sigma(x) by Newton's method from x^p, each step with the ring's
    inverse of F'(y)."""
    if R.d == 1:
        return R.one_code
    f = R.modulus_lift
    fprime = tuple(i * c for i, c in enumerate(f))[1:]
    y = R.pow(R.weights[1], R.p)
    for _ in range(R.n):
        fy = R.evaluate(f, y)
        if not fy:
            break
        y = R.add(y, R.neg(R.mul(fy, R.inv(R.evaluate(fprime, y)))))
    assert R.evaluate(f, y) == 0
    return y


# the rings of TestNearCap's finite-ring rows: F_27, F_4, F_(2^16),
# F_(3^12), F_(2^19) and the degree-4 tower over Z/2 to level 4
NEAR_CAP_RINGS = [(3, 1, 3), (2, 1, 2), (2, 1, 16), (3, 1, 12), (2, 1, 19),
                  (2, 2, 4), (2, 3, 4), (2, 4, 4)]


@pytest.mark.parametrize("pnd", POOL_RINGS + NEAR_CAP_RINGS)
def test_lift_is_newtons_and_needs_no_inverse(pnd):
    R = ring(*pnd)
    expected = newton_lift(R)

    def no_inverse(a):
        raise AssertionError("the lift inverted")

    R.inv = no_inverse
    assert R._lift_frobenius() == expected
