import pytest

from glnlab.errors import InvalidConfig, NotACocycle
from glnlab.lang import (
    char_poly,
    congruence_kernel_module,
    descend_conjugator,
    dm_bijection_check,
    embed_field,
    factor_prime_power,
    gl_elements,
    gl_module,
    h1_cyclic,
    h1_level_tower,
    lang_image,
    lang_map,
    lang_preimage,
    ordinary_classes,
    twisted_classes,
    twisted_norm,
)
from glnlab.rings import FiniteField, Mat, TruncatedLocalRing


def gl1_field_module(p, d, sigma_exponent=1):
    return gl_module(FiniteField(p, d), 1, sigma_exponent=sigma_exponent)


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


class TestLangPreimage:
    def test_identity(self):
        m = gl1_field_module(2, 2)
        x, e, _, _ = lang_preimage(m.identity(), m)
        assert e == 1 and lang_map(x, m) == m.identity()

    def test_gl1_f4_generator_preimage_in_f4(self):
        m = gl1_field_module(2, 2)
        F = m.ring
        y = Mat(F, [[F.gen()]])
        x, e, big, emb = lang_preimage(y, m)
        assert e == 1
        assert x.inverse() * x.sigma(1) == Mat(big, [[emb(F.gen())]])

    def test_round_trip(self):
        m = gl1_field_module(3, 2)
        for x0 in m.elements:
            y = lang_map(x0, m)
            x, e, big, emb = lang_preimage(y, m)
            ybig = Mat(big, [[emb(a) for a in row] for row in y.rows])
            assert x.inverse() * x.sigma(m.sigma_exponent) == ybig

    def test_gl2_f4_preimages_exist(self):
        m = gl_module(FiniteField(2, 2), 2)
        # every group element has a Lang preimage within the degree bound
        for a in m.elements[::37]:
            x, e, big, emb = lang_preimage(a, m)
            abig = Mat(big, [[emb(c) for c in row] for row in a.rows])
            assert x.inverse() * x.sigma(1) == abig


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
        m = gl_module(FiniteField(2, 2), 2)
        for a in m.elements[::17]:
            for c in char_poly(twisted_norm(a, m, 2)):
                assert c.frobenius() == c


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


class TestEmbedding:
    def test_embedding_is_ring_hom(self):
        small, big = FiniteField(2, 2), FiniteField(2, 4)
        emb = embed_field(small, big)
        els = list(small.elements())
        for a in els:
            for b in els:
                assert emb(a * b) == emb(a) * emb(b)
                assert emb(a + b) == emb(a) + emb(b)

    def test_embedding_commutes_with_frobenius(self):
        small, big = FiniteField(3, 2), FiniteField(3, 4)
        emb = embed_field(small, big)
        for a in small.elements():
            assert emb(a.frobenius()) == emb(a).frobenius()
