import functools
import itertools

import pytest

from glnlab.errors import InvalidConfig, NotACocycle
from glnlab.lang import (
    _invariant_factors,
    congruence_kernel_module,
    descend_conjugator,
    dm_bijection_check,
    factor_prime_power,
    gl_elements,
    gl_module,
    h1_cyclic,
    h1_level_tower,
    lang_image,
    lang_map,
    ordinary_classes,
    twisted_classes,
    twisted_norm,
)
from glnlab.rings import FiniteField, TruncatedLocalRing


def gl1_field_module(p, d, sigma_exponent=1):
    return gl_module(FiniteField(p, d), 1, sigma_exponent=sigma_exponent)


def poly_mul(F, f, g):
    """Product of two code-coefficient polynomials, low degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for (i, a), (j, b) in itertools.product(enumerate(f), enumerate(g)):
        out[i + j] = F.add(out[i + j], F.mul(a, b))
    return tuple(out)


def poly_divides(F, g, f):
    """Whether monic g divides f, by long division."""
    f = list(f)
    while len(f) >= len(g):
        c, k = f.pop(), len(f) - len(g) + 1
        for i, b in enumerate(g[:-1]):
            f[k + i] = F.add(f[k + i], F.neg(F.mul(c, b)))
    return not any(f)


def reference_conjugator(module, target, source):
    """Some g in the group with g * source = target * g, by scanning the
    whole group; the reference for the invariant-factor match."""
    ring, s = module.ring, target.size
    mul = ring.mat_mul
    return next((g for g in module.elements
                 if mul(s, g.codes, source.codes)
                 == mul(s, target.codes, g.codes)), None)


class TestFactorPrimePower:
    def test_prime_powers(self):
        for q, pv in ((2, (2, 1)), (9, (3, 2)), (64, (2, 6)), (49, (7, 2)),
                      (3**13, (3, 13)), (2**31 - 1, (2**31 - 1, 1))):
            assert factor_prime_power(q) == pv

    def test_others_are_invalid(self):
        for q in (-3, 0, 1, 6, 12, 45, 2 * (2**31 - 1)):
            with pytest.raises(InvalidConfig):
                factor_prime_power(q)


class TestLangMap:
    def test_identity(self):
        m = gl1_field_module(2, 2)
        ident = m.identity()
        assert lang_map(ident, m) == ident

    def test_gl1_f4_is_identity_map(self):
        # x^-1 * x^2 = x for every x in F4*
        m = gl1_field_module(2, 2)
        for x in m.elements:
            assert lang_map(x, m) == x

    def test_gl1_f9_image_is_squares(self):
        m = gl1_field_module(3, 2)
        img = lang_image(m)
        assert len(img) == 4
        squares = {x * x for x in m.elements}
        assert img == squares

    def test_image_size_law(self):
        # |image| = (q^d - 1)/(q - 1) for GL_1 over F_{q^d} with q-Frobenius
        for p, d in [(2, 2), (3, 2), (2, 3)]:
            m = gl1_field_module(p, d)
            assert len(lang_image(m)) == (p**d - 1) // (p - 1)

    def test_image_times_fixed_is_group(self):
        for p, d in [(2, 2), (3, 2), (2, 3)]:
            m = gl1_field_module(p, d)
            fixed = [x for x in m.elements if m.sigma(x) == x]
            assert len(lang_image(m)) * len(fixed) == len(m.elements)

    def test_trivial_sigma_constant(self):
        m = gl_module(FiniteField(2, 1), 2)
        assert m.d == 1
        assert lang_image(m) == {m.identity()}


class TestTwistedNormAndClasses:
    def test_norm_identity(self):
        m = gl1_field_module(2, 2)
        assert twisted_norm(m.identity(), m, 2) == m.identity()

    def test_gl1_f4_norm_trivial(self):
        m = gl1_field_module(2, 2)
        for a in m.elements:
            assert twisted_norm(a, m, 2) == m.identity()

    def test_gl1_f9_norm_two_values(self):
        m = gl1_field_module(3, 2)
        values = {twisted_norm(a, m, 2) for a in m.elements}
        assert len(values) == 2

    def test_gl1_f9_two_classes(self):
        m = gl1_field_module(3, 2)
        assert len(twisted_classes(m)) == 2

    def test_gl1_f4_one_class(self):
        m = gl1_field_module(2, 2)
        assert len(twisted_classes(m)) == 1

    def test_trivial_sigma_gives_ordinary_classes(self):
        F = FiniteField(2, 1)
        m = gl_module(F, 2)
        tw = twisted_classes(m)
        ordinary = ordinary_classes(gl_elements(F, 2))
        assert {c["representative"] for c in tw} == \
            {c["representative"] for c in ordinary}

    def test_norm_conjugation_identity(self):
        # N(V A sigma(V)^-1) = V N(A) V^-1, exhaustively at GL1/F9
        m = gl1_field_module(3, 2)
        for a in m.elements:
            for v in m.elements:
                lhs = twisted_norm(v * a * m.sigma(v).inverse(), m, 2)
                assert lhs == v * twisted_norm(a, m, 2) * v.inverse()

    def test_norm_charpoly_sigma_fixed(self):
        # the invariant factors of N(A), whose product is its char poly,
        # lie in F_2[X]
        m = gl_module(FiniteField(2, 2), 2)
        F = m.ring
        for a in m.elements[::17]:
            factors = _invariant_factors(F, 2, twisted_norm(a, m, 2).codes)
            assert sum(len(f) - 1 for f in factors) == 2
            for f in factors:
                assert tuple(F.sigma(c) for c in f) == f


class TestInvariantFactors:
    @pytest.mark.parametrize("p,d,s", [(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                       (5, 1, 2), (2, 1, 3)])
    def test_classes_are_invariant_factor_sequences(self, p, d, s):
        # exhaustive over GL_s(F_q): two matrices share invariant factors
        # exactly when they are conjugate
        F = FiniteField(p, d)
        keys = {}
        for cl in ordinary_classes(gl_elements(F, s)):
            found = {_invariant_factors(F, s, g.codes) for g in cl["orbit"]}
            assert len(found) == 1
            key = found.pop()
            assert key not in keys
            keys[key] = cl
            assert sum(len(f) - 1 for f in key) == s
            assert all(len(f) > 1 and f[-1] == F.one_code for f in key)
            assert all(poly_divides(F, f, g) for f, g in zip(key, key[1:]))
            if s == 2:
                a = cl["representative"].codes
                trace, det = F.add(a[0], a[3]), F.mat_det(2, a)
                assert functools.reduce(
                    lambda f, g: poly_mul(F, f, g), key) \
                    == (det, F.neg(trace), F.one_code)

    def test_scalar_and_companion(self):
        F = FiniteField(3, 1)
        # 2 * I: X - 2 twice; a companion matrix: its char poly once
        assert _invariant_factors(F, 2, (2, 0, 0, 2)) == ((1, 1), (1, 1))
        assert _invariant_factors(F, 2, (0, 1, 2, 1)) == ((1, 2, 1),)


class TestDMBijection:
    def test_s1_q2_n2(self):
        rep = dm_bijection_check(1, 2, 2)
        assert rep["plain_class_count"] == rep["twisted_class_count"] == 1
        assert rep["bijective"]

    def test_s1_q3_n2(self):
        rep = dm_bijection_check(1, 3, 2)
        assert rep["plain_class_count"] == rep["twisted_class_count"] == 2
        assert rep["bijective"]

    def test_s2_q2_n2(self):
        rep = dm_bijection_check(2, 2, 2)
        assert rep["plain_class_count"] == rep["twisted_class_count"] == 3
        assert rep["bijective"]

    @pytest.mark.parametrize("s,q,n", [(1, 4, 2), (1, 5, 2), (2, 2, 2),
                                       (2, 2, 3), (2, 3, 2)])
    def test_matches_are_conjugate(self, s, q, n):
        # each match holds up to an explicit conjugator: some g in
        # GL_s(F_{q^n}) has g N(A)^-1 g^-1 = plain_rep
        rep = dm_bijection_check(s, q, n)
        p, v = factor_prime_power(q)
        module = gl_module(FiniteField(p, v * n), s, sigma_exponent=v)
        assert len(rep["matches"]) == rep["plain_class_count"]
        for match in rep["matches"]:
            assert match["plain_rep"].sigma(v) == match["plain_rep"]
            na_inv = twisted_norm(match["twisted_rep"], module, n).inverse()
            assert reference_conjugator(
                module, match["plain_rep"], na_inv) is not None


class TestH1:
    def test_gl1_f4(self):
        m = gl1_field_module(2, 2)
        res = h1_cyclic(m)
        assert res["cocycle_count"] == 3
        assert res["h1_size"] == 1

    def test_gl1_f9(self):
        res = h1_cyclic(gl1_field_module(3, 2))
        assert res["h1_size"] == 1

    def test_gl2_f4(self):
        res = h1_cyclic(gl_module(FiniteField(2, 2), 2))
        assert res["h1_size"] == 1

    def test_level_tower_s1(self):
        rep = h1_level_tower(1, 2, 2, 2)
        assert all(l["h1_size"] == 1 for l in rep["levels"])
        assert all(k["h1_size"] == 1 for k in rep["kernels"])
        assert rep["compatible"]

    def test_congruence_kernel_is_additive_f_q(self):
        m = congruence_kernel_module(2, 2, 1, 2, 1)
        assert len(m.elements) == 4
        assert h1_cyclic(m)["h1_size"] == 1


class TestDescent:
    def test_already_fixed(self):
        m = gl1_field_module(2, 2)
        g = m.identity()
        assert descend_conjugator(g, m) == g

    def test_gl1_descends(self):
        m = gl1_field_module(2, 2)
        for g in m.elements:
            g1 = descend_conjugator(g, m)
            assert m.sigma(g1) == g1

    def test_not_a_cocycle(self):
        # U = the sigma-fixed subgroup only: a non-fixed g has its
        # cocycle outside U
        F = FiniteField(2, 2)
        full = gl_module(F, 1)
        fixed = [x for x in full.elements if full.sigma(x) == x]
        from glnlab.lang import GaloisModule
        u = GaloisModule(fixed, full.sigma, 2, ring=F)
        bad = next(x for x in full.elements if full.sigma(x) != x)
        with pytest.raises(NotACocycle):
            descend_conjugator(bad, u)
