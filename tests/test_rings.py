import itertools
import math
import random
from fractions import Fraction

import pytest

from glnlab import rings
from glnlab.errors import CapExceeded, NotInvertible, NotPrime
from glnlab.rings import (
    FiniteField,
    HalfPowerLaurent,
    LocalRingElement,
    Mat,
    TruncatedLocalRing,
    _is_irreducible,
)
from test_lang import poly_mul
from test_ring_core import POOL_RINGS


def half_of(q, a=0, b=0):
    """The HalfPowerLaurent a + b*v for rationals a and b (or their
    strings): the int constructor over a common denominator d, times
    1/d."""
    a, b = Fraction(a), Fraction(b)
    d = math.lcm(a.denominator, b.denominator)
    return HalfPowerLaurent(q, int(a * d), int(b * d)) * Fraction(1, d)


def elements(ring):
    """Every element of ring, in code order."""
    return [LocalRingElement(ring, a) for a in range(ring.size())]


def units(ring):
    """Every unit of ring, in code order."""
    return [a for a in elements(ring) if a.is_unit()]


def gen(ring):
    """The class of x, for d > 1."""
    return ring.element((0, 1))


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        def by_trial_division(m):
            return m >= 2 and all(m % k for k in range(2, int(m**0.5) + 1))

        for m in range(-3, 20000):
            assert rings.is_prime(m) == by_trial_division(m), m

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the prime bases up to 7 and
        # up to 23 (3825123056546413051 = 149491 * 747451 * 34233211)
        assert 3215031751 == 151 * 751 * 28351
        assert not rings.is_prime(3215031751)
        assert not rings.is_prime(3825123056546413051)
        # the least one to every base up to 37 is left to sympy
        assert not rings.is_prime(rings._MILLER_RABIN_BOUND)

    def test_mersenne_primes(self):
        assert rings.is_prime(2**61 - 1)
        assert rings.is_prime(2**89 - 1)
        assert not rings.is_prime(2**67 - 1)


class TestFieldConstruction:
    def test_prime_field_modulus_is_x(self):
        F = FiniteField(2, 1)
        assert F.modulus == (0, 1)

    def test_f4_modulus(self):
        # x^2+x+1 is the unique monic irreducible of degree 2 over F2:
        # the other three monic quadratics all have a root in F2.
        for tail in itertools.product(range(2), repeat=2):
            f = tail + (1,)
            assert _is_irreducible(f, 2) == (f == (1, 1, 1))
        assert FiniteField(2, 2).modulus == (1, 1, 1)

    def test_f9_modulus(self):
        # exhaustive scan: the monic irreducible quadratics over F3 are
        # x^2+1, x^2+x+2, x^2+2x+2, and x^2+1 is least high-degree-first
        irr = [tail + (1,) for tail in itertools.product(range(3), repeat=2)
               if _is_irreducible(tail + (1,), 3)]
        assert (1, 0, 1) in irr and len(irr) == 3
        assert FiniteField(3, 2).modulus == (1, 0, 1)

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            FiniteField(4, 1)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            FiniteField(2, 17)

    def test_every_constructed_modulus_irreducible(self):
        for p, d in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 2), (7, 1)]:
            F = FiniteField(p, d)
            assert _is_irreducible(F.modulus, p)


def mobius(e):
    """The Mobius function, by trial division."""
    sign, k = 1, 2
    while e > 1:
        if e % k == 0:
            e //= k
            if e % k == 0:
                return 0
            sign = -sign
        k += 1
    return sign


class TestPolynomials:
    @pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 4)])
    def test_irreducible_count_is_gauss(self, p, top):
        # the monic irreducibles of degree d over F_p number
        # (1/d) sum over e | d of mu(e) p^(d/e)
        for d in range(1, top + 1):
            found = sum(_is_irreducible(tail + (1,), p)
                        for tail in itertools.product(range(p), repeat=d))
            gauss = sum(mobius(e) * p**(d // e)
                        for e in range(1, d + 1) if d % e == 0)
            assert found * d == gauss

    @pytest.mark.parametrize("pd", [(5, 1), (3, 2), (2, 10)])
    def test_divmod_is_division_with_remainder(self, pd):
        # native, table and coefficient-list fields: f = quot g + rem,
        # deg rem < deg g, both trimmed
        F = FiniteField(*pd)
        rng = random.Random(f"{pd}")
        draw = lambda n: rings._poly_trim(
            [rng.randrange(F.size()) for _ in range(n)])
        for _ in range(200):
            f, g = draw(rng.randrange(9)), draw(rng.randrange(6))
            if not g:
                continue
            quot, rem = rings._poly_divmod(F, f, g)
            assert len(rem) < len(g)
            assert rings._poly_trim(quot) == quot
            assert rings._poly_trim(rem) == rem
            product = rings._poly_trim(list(poly_mul(F, quot, g)))
            assert rings._poly_mul(F, quot, g) == product
            total = itertools.zip_longest(product, rem, fillvalue=0)
            assert rings._poly_trim([F.add(a, b) for a, b in total]) == f


class TestFieldArithmetic:
    def test_f4_multiplicative_order(self):
        F = FiniteField(2, 2)
        x = gen(F)
        assert x**3 == F.one()
        assert x**2 == x + F.one()

    def test_inverse_exhaustive(self):
        for p, d in [(2, 2), (3, 2), (2, 3)]:
            F = FiniteField(p, d)
            for a in units(F):
                assert a * a.inverse() == F.one()

    def test_zero_inverse_raises(self):
        with pytest.raises(NotInvertible):
            FiniteField(2, 2).element(()).inverse()

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (5, 1), (7, 1),
                                     (2, 2), (2, 3), (3, 2), (5, 2)])
    def test_residue_primitive_root_is_least_primitive_element(self, p, d):
        # the first unit, in coefficient order, whose powers reach every
        # unit
        F = FiniteField(p, d)
        old = next(a for a in sorted(units(F), key=lambda e: e.coeffs)
                   if len({a ** k for k in range(1, F.q)}) == F.q - 1)
        assert rings.residue_primitive_root(F) == old.code

    @staticmethod
    def primitive_root_reference(F):
        """The first code, in code order, no power (q - 1)/r of which is
        1, r over the primes dividing q - 1, found by testing every r < q
        and every divisor below r."""
        q, one = F.q, F.one_code
        primes = [r for r in range(2, q) if (q - 1) % r == 0
                  and all(r % k for k in range(2, r))]
        return next(z for z in map(F.encode, itertools.product(
            range(F.p), repeat=F.d)) if F.is_unit(z)
            and all(F.pow(z, (q - 1) // r) != one for r in primes))

    def test_residue_primitive_root_against_a_reference(self):
        # every prime power q <= 1024, and F_(997^2) and F_(2^19) above
        # the 2^16 field cap
        fields = [(p, d, 1 << 16) for p in range(2, 1025) if rings.is_prime(p)
                  for d in range(1, 11) if p**d <= 1024]
        assert len(fields) == 172 + 26  # primes, and higher powers
        for p, d, cap in fields + [(997, 2, 10**6), (2, 19, 1 << 19)]:
            F = FiniteField(p, d, cap)
            assert rings.residue_primitive_root(F) \
                == self.primitive_root_reference(F), (p, d)

    @pytest.mark.parametrize("p, n, d", [r for r in POOL_RINGS if r[1] > 1])
    def test_residue_primitive_root_of_a_truncated_ring(self, p, n, d):
        # the modulus of O/p^n is that of F_q read mod p^n, so the root of
        # the ring has the coefficients of the reference root of F_q,
        # though the powers the ring forms have higher digits
        R, F = TruncatedLocalRing(p, n, d), FiniteField(p, d)
        assert tuple(R.decode(rings.residue_primitive_root(R))) \
            == tuple(F.decode(self.primitive_root_reference(F)))


class TestFrobenius:
    def test_prime_field_fixed(self):
        F = FiniteField(2, 1)
        for a in elements(F):
            assert a.sigma() == a

    def test_f4_generator(self):
        F = FiniteField(2, 2)
        x = gen(F)
        assert x.sigma() == x * x == x + F.one()

    def test_order_d(self):
        for p, d in [(2, 2), (3, 2), (2, 3), (2, 4)]:
            F = FiniteField(p, d)
            for a in elements(F):
                assert a.sigma(d) == a

    def test_ring_homomorphism_full_enumeration(self):
        # q <= 81 cases are checked on every pair
        for p, d in [(2, 2), (3, 2), (2, 3)]:
            F = FiniteField(p, d)
            els = elements(F)
            for a in els:
                for b in els:
                    assert (a + b).sigma() == a.sigma() + b.sigma()
                    assert (a * b).sigma() == a.sigma() * b.sigma()


class TestNorm:
    """The norm of F_{p^d} down to the fixed field of sigma^e, e | d, is
    the twisted norm of GL_1 under sigma^e with d/e factors."""

    @staticmethod
    def norm(a, e=1):
        F = a.ring
        (code,) = F.norm_map(1, F.d // e, e)((a.code,))
        return LocalRingElement(F, code)

    def test_f4_norm_to_f2_is_one_on_units(self):
        for d in (2, 3, 4):
            F = FiniteField(2, d)
            for a in units(F):
                assert self.norm(a) == F.one()

    def test_norm_of_one(self):
        for p, d in [(2, 2), (3, 2), (2, 4)]:
            F = FiniteField(p, d)
            for e in range(1, d + 1):
                if d % e == 0:
                    assert self.norm(F.one(), e) == F.one()

    def test_f9_generator_norm(self):
        F = FiniteField(3, 2)
        x = gen(F)
        nx = self.norm(x)
        # x * x^3 = x^4; lands in F3 and is nonzero
        assert nx == x**4
        assert nx.coeffs[1] == 0 and nx.coeffs[0] != 0

    def test_norm_surjects_with_right_multiplicity(self):
        # each norm value on units is hit (q^d-1)/(q-1) times
        F = FiniteField(3, 2)
        hits = {}
        for a in units(F):
            hits[self.norm(a)] = hits.get(self.norm(a), 0) + 1
        assert all(c == 4 for c in hits.values()) and len(hits) == 2


class TestTruncatedRing:
    def test_level_one_matches_field(self):
        R = TruncatedLocalRing(2, 1, 2)
        F = FiniteField(2, 2)
        x = gen(R)
        assert x.sigma().coeffs == gen(F).sigma().coeffs

    def test_frobenius_lift_2_2_2(self):
        # in (Z/4)[x]/(x^2+x+1), x^2 is already a root: x^4+x^2+1 = 0 mod 4
        R = TruncatedLocalRing(2, 2, 2)
        x = gen(R)
        assert x.sigma() == x * x
        assert (x * x).coeffs == (3, 3)

    def test_d1_sigma_identity(self):
        R = TruncatedLocalRing(3, 2, 1)
        for a in elements(R):
            assert a.sigma() == a

    def test_modulus_root(self):
        for p, n, d in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
            R = TruncatedLocalRing(p, n, d)
            y = gen(R).sigma()
            val = R.decode(R.evaluate(R.modulus_lift, y.code))
            assert not any(val)

    def test_sigma_order_d(self):
        for p, n, d in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
            R = TruncatedLocalRing(p, n, d)
            for a in elements(R)[:50]:
                assert a.sigma(d) == a

    def test_sigma_reduces_to_field_frobenius(self):
        R = TruncatedLocalRing(2, 3, 2)
        F = FiniteField(2, 2)

        def reduce_mod_p(a):
            return F.element(a.coeffs)

        for a in elements(R):
            assert reduce_mod_p(a.sigma()) == reduce_mod_p(a).sigma()

    def test_sigma_is_ring_hom(self):
        R = TruncatedLocalRing(2, 2, 2)
        els = elements(R)
        for a in els:
            for b in els:
                assert (a + b).sigma() == a.sigma() + b.sigma()
                assert (a * b).sigma() == a.sigma() * b.sigma()

    def test_valuation(self):
        R = TruncatedLocalRing(2, 3, 2)
        assert R.element(()).valuation() == 3
        assert R.one().valuation() == 0
        assert R.element((2,)).valuation() == 1
        assert R.element((4,)).valuation() == 2

    def test_valuation_multiplicative_saturating(self):
        R = TruncatedLocalRing(2, 3, 1)
        for a in elements(R):
            for b in elements(R):
                va, vb = a.valuation(), b.valuation()
                assert (a * b).valuation() == min(va + vb, 3)

    def test_unit_inverse(self):
        for p, n, d in [(2, 2, 2), (3, 2, 1), (2, 3, 2)]:
            R = TruncatedLocalRing(p, n, d)
            for a in units(R):
                assert a * a.inverse() == R.one()


class TestLiftedInverse:
    """The unit inverse mod p^n: one pow below 2^30, Newton steps above."""

    @staticmethod
    def precisions(p):
        # 1, the word boundary (the largest e with p^e below 2^30) and its
        # neighbours, and precisions far above it
        e = 1
        while p**(e + 1) < 1 << 30:
            e += 1
        return sorted({1, e - 1, e, e + 1, 64, 161, 1000})

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_pow(self, p):
        rng = random.Random(p)
        for n in self.precisions(p):
            R, pn = TruncatedLocalRing(p, n, 1), p**n
            for a in [1, pn - 1, p + 1, pn - p + 1] + [
                    rng.randrange(pn) for _ in range(50)]:
                if a % p:
                    assert R.inv(a) == pow(a, -1, pn), (p, n, a)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_non_units_raise(self, p):
        rng = random.Random(p)
        for n in self.precisions(p):
            R = TruncatedLocalRing(p, n, 1)
            units = [u for u in (rng.randrange(R.pn) for _ in range(20))
                     if u % p]
            for a in [0] + [p * u % R.pn for u in units]:
                with pytest.raises(NotInvertible):
                    R.inv(a)

    def test_one_pow_per_inverse(self, monkeypatch):
        # below 2^30 the one pow is mod p^n itself; above, it is mod a
        # modulus below 2^30 and Newton steps do the rest
        moduli = []

        def counting_pow(a, e, m):
            moduli.append(m)
            return pow(a, e, m)

        monkeypatch.setattr(rings, "pow", counting_pow, raising=False)
        for p, n in ((2, 29), (3, 18), (2, 30), (5, 64), (2, 1000)):
            R = TruncatedLocalRing(p, n, 1)
            moduli.clear()
            R.inv(R.pn - 1)
            assert len(moduli) == 1, (p, n)
            if R.pn < 1 << 30:
                assert moduli == [R.pn]
            else:
                assert moduli[0] < 1 << 30 and R.pn % moduli[0] == 0

    @pytest.mark.parametrize("p,n", [(2, 100), (3, 64), (5, 40)])
    def test_degree_two_at_large_precision(self, p, n):
        # schoolbook rings: the elimination's pivots use the same inverse
        R = TruncatedLocalRing(p, n, 2)
        rng = random.Random(n)
        done = 0
        while done < 30:
            a = rng.randrange(R.size())
            if not R.is_unit(a):
                with pytest.raises(NotInvertible):
                    R.inv(a)
                continue
            assert R.mul(a, R.inv(a)) == R.one_code
            done += 1
        with pytest.raises(NotInvertible):
            R.inv(R.encode((p, p * 3)))


class TestMatrices:
    def test_identity(self):
        R = TruncatedLocalRing(2, 2, 1)
        m = Mat.identity(R, 2)
        assert m.det() == R.one()
        assert m.inverse() == m

    def test_swap_over_f2(self):
        F = FiniteField(2, 1)
        m = Mat.from_ints(F, [[0, 1], [1, 0]])
        assert m.det() == F.one()
        assert m.inverse() == m

    def test_p_scaled_not_invertible(self):
        R = TruncatedLocalRing(2, 2, 1)
        m = Mat.from_ints(R, [[2, 0], [0, 1]])
        assert m.det().valuation() == 1
        with pytest.raises(NotInvertible):
            m.inverse()

    def test_inverse_involution_exhaustive(self):
        for ring, sz in [(FiniteField(2, 1), 2), (FiniteField(3, 1), 2),
                         (TruncatedLocalRing(2, 2, 1), 2)]:
            import itertools as it
            els = elements(ring)
            count = 0
            for entries in it.product(els, repeat=sz * sz):
                m = Mat(ring, [entries[:sz], entries[sz:]])
                if not m.det().is_unit():
                    continue
                count += 1
                assert m.inverse().inverse() == m
                assert m * m.inverse() == Mat.identity(ring, sz)
            assert count > 0

    def test_sigma_commutes_with_multiplication(self):
        R = TruncatedLocalRing(2, 2, 2)
        a = Mat(R, [[gen(R), R.one()], [R.element(()), gen(R) * gen(R)]])
        b = Mat(R, [[R.one(), gen(R)], [R.one(), R.one()]])
        assert (a * b).sigma() == a.sigma() * b.sigma()

    def test_offset_in_products(self):
        R = TruncatedLocalRing(2, 4, 1)
        a = Mat.from_ints(R, [[1, 0], [0, 2]], offset=-1)  # diag(p^-1, 1)
        b = Mat.from_ints(R, [[2, 0], [0, 1]], offset=0)
        prod = a * b
        assert prod.offset == -1
        assert prod.rows[0][0] == R.element((2,))


class TestHalfPowerLaurent:
    def test_v_squared_is_q(self):
        v = HalfPowerLaurent.v_power(4, 1)
        assert v * v == HalfPowerLaurent(4, 4, 0)
        # q = 4 is a perfect square but v is NOT reduced to 2
        assert v != HalfPowerLaurent(4, 2, 0)

    def test_negative_powers(self):
        q = 3
        vinv = HalfPowerLaurent.v_power(q, -1)
        v = HalfPowerLaurent.v_power(q, 1)
        assert v * vinv == HalfPowerLaurent(q, 1)

    def test_ring_axioms_spot(self):
        q = 2
        xs = [HalfPowerLaurent(q, a, b) for a in (-1, 0, 2) for b in (0, 1, -3)]
        for x in xs:
            for y in xs:
                assert x * y == y * x
                for z in xs:
                    assert (x + y) * z == x * z + y * z
                    assert (x * y) * z == x * (y * z)

    def test_inverse(self):
        x = HalfPowerLaurent(5, 2, 1)
        assert x * x.inverse() == HalfPowerLaurent(5, 1)

    def test_fraction_operands(self):
        # a Fraction operand is the scalar it stands for, on either side
        x, half = HalfPowerLaurent(3, 1, 1), Fraction(1, 2)
        assert x + half == half_of(3, Fraction(3, 2), 1)
        assert half + x == x + half
        assert x * half == half * x == half_of(3, half, half)

    def test_int_operands(self):
        x = HalfPowerLaurent(3, 1, 1)
        assert x + 2 == 2 + x == HalfPowerLaurent(3, 3, 1)
        assert x * 2 == 2 * x == HalfPowerLaurent(3, 2, 2)

    def test_scalar_equality(self):
        # an int and a Fraction compare as the scalars they stand for
        half = Fraction(1, 2)
        for scalar in (2, half, 0, -3):
            x = half_of(3, scalar)
            assert x == scalar and scalar == x
            assert hash(x) == hash(scalar)
            assert half_of(3, scalar, 1) != scalar
        assert half_of(3, half) != 1
        assert HalfPowerLaurent(3, 1) != HalfPowerLaurent(5, 1)
        assert HalfPowerLaurent(3, 1) != "1"

    def test_other_operands_raise(self):
        x = HalfPowerLaurent(3, 1, 1)
        for other in (1.5, "1", None):
            for op in (lambda: x + other, lambda: other + x,
                       lambda: x * other, lambda: other * x):
                with pytest.raises(TypeError):
                    op()
        with pytest.raises(ValueError):
            x + HalfPowerLaurent(5, 1)
        # the constructor takes ints only; half_of builds from rationals
        with pytest.raises(TypeError):
            HalfPowerLaurent(3, Fraction(1, 2))

    def test_immutable(self):
        x = HalfPowerLaurent(3, 1, 1)
        for name in ("q", "A", "B", "D", "a", "b"):
            with pytest.raises(AttributeError):
                setattr(x, name, 2)
        assert x == HalfPowerLaurent(3, 1, 1)
