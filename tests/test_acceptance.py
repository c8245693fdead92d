"""Acceptance gate: ten exact criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each test is a single
criterion with its own runtime budget measured around the computation
(imports and fixtures excluded).
"""

import math
import random
import time
from fractions import Fraction

import sympy


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.3f}s exceeds budget {self.seconds}s")
        return False


def test_criterion_01_rank2_triple_bond_factorization():
    from glnlab.roots import cartan_matrix, ds_decompose
    simple = [(1, -1, 0), (-1, 2, -1)]
    cartan_matrix(simple)  # warm any caches before timing
    with Budget(0.001):
        a = cartan_matrix(simple)
        dec, minors = ds_decompose(simple)
    assert tuple(tuple(r) for r in a.entries) == ((2, -3), (-1, 2))
    assert dec.D == (3, 1)
    assert dec.S == ((Fraction(2, 3), -1), (-1, 2))
    assert list(minors) == [Fraction(2, 3), Fraction(1, 3)]


def test_criterion_02_root_axioms_and_weyl_orders():
    from glnlab.roots import (check_root_system, full_root_set_gl,
                              simple_roots_gl, weyl_group)
    with Budget(1.0):
        for n in range(2, 7):
            checks = check_root_system(full_root_set_gl(n))
            assert checks["reduced"]
            assert checks["reflection_closed"]
            assert checks["crystallographic"]
            assert checks["primed_agree"]
            assert len(weyl_group(simple_roots_gl(n))) == math.factorial(n)


def test_criterion_03_h1_triviality():
    from glnlab.lang import gl_module, h1_cyclic, h1_level_tower
    from glnlab.rings import FiniteField
    with Budget(20.0):
        assert h1_cyclic(gl_module(FiniteField(2, 2), 1))["h1_size"] == 1
        assert h1_cyclic(gl_module(FiniteField(3, 2), 1))["h1_size"] == 1
        assert h1_cyclic(gl_module(FiniteField(2, 2), 2))["h1_size"] == 1
        # levels 1 and 2 of the quadratic unramified tower over Z/4
        for s in (1, 2):
            tower = h1_level_tower(s, 2, 2, 2)
            assert all(l["h1_size"] == 1 for l in tower["levels"])
            assert tower["compatible"]


def test_criterion_04_lang_image_size_law():
    from glnlab.lang import gl_module, lang_image
    from glnlab.rings import FiniteField
    with Budget(1.0):
        for q, d in [(2, 2), (3, 2), (2, 3)]:
            m = gl_module(FiniteField(q, d), 1)
            assert len(lang_image(m)) == (q**d - 1) // (q - 1)


def test_criterion_05_class_count_bijection():
    from glnlab.lang import dm_bijection_check
    with Budget(60.0):
        for s, q, n, expect in [(1, 2, 2, 1), (1, 3, 2, 2), (2, 2, 2, 3)]:
            rep = dm_bijection_check(s, q, n)
            assert rep["plain_class_count"] == expect
            assert rep["twisted_class_count"] == expect
            assert rep["bijective"]


def test_criterion_06_building_counts_and_conjugates():
    from glnlab.building import (conjugate_pattern, fundamental_simplices,
                                 stabilizer_pattern)
    with Budget(1.0):
        assert len(fundamental_simplices(2)) == 3
        assert len(fundamental_simplices(3)) == 7
        assert len(fundamental_simplices(5)) == 31
        base = stabilizer_pattern((0,), 3)
        assert conjugate_pattern(base, (1, 0, 0)).entries == \
            ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
        assert conjugate_pattern(base, (0, 1, 0)).entries == \
            ((0, -1, 0), (1, 0, 1), (0, -1, 0))
        assert conjugate_pattern(base, (0, 0, 1)).entries == \
            ((0, 0, -1), (0, 0, -1), (1, 1, 0))


def test_criterion_07_iwasawa_factorization():
    from glnlab.building import iwasawa_decompose
    from glnlab.lang import gl_elements
    from glnlab.rings import FiniteField, Mat, TruncatedLocalRing
    rng = random.Random(0)
    with Budget(10.0):
        ring = TruncatedLocalRing(2, 6, 1)
        done = 0
        while done < 1000:
            offset = rng.randint(-2, 2)
            g = Mat.from_ints(ring, [[rng.randrange(64) for _ in range(2)]
                                     for _ in range(2)], offset=offset)
            det = g.det()
            if not (det.is_unit() or 0 < det.valuation() < 3):
                continue
            b, k = iwasawa_decompose(g)
            assert b * k == g
            assert b.rows[1][0].is_zero()
            assert k.det().is_unit()
            done += 1
        for p in (2, 3):
            rp = TruncatedLocalRing(p, 1, 1)
            fp = FiniteField(p, 1)
            for gf in gl_elements(fp, 2):
                g = Mat(rp, [[rp.element(c.coeffs) for c in row]
                             for row in gf.rows])
                b, k = iwasawa_decompose(g)
                assert b * k == g and b.rows[1][0].is_zero()


def test_criterion_08_documented_coverage_gap():
    from glnlab.building import audit_ub_factorization
    from glnlab.rings import FiniteField, Mat
    with Budget(1.0):
        rep = audit_ub_factorization(2, 2)
    assert rep["group_order"] == 6
    assert rep["product_set_size"] == 4
    assert not rep["covers"]
    swap = Mat.from_ints(FiniteField(2, 1), [[0, 1], [1, 0]])
    assert swap in rep["counterexamples"]
    # the finding is documented, not a failure: this criterion passes
    # exactly when the gap is reproduced


def test_criterion_09_satake_transform():
    from glnlab.hecke import (HeckeElement, SatakeImage, convolve,
                              satake_by_coset_count, satake_transform)
    from glnlab.rings import HalfPowerLaurent
    with Budget(30.0):
        for p in (2, 3):
            v1 = HalfPowerLaurent.v_power(p, 1)
            t10 = HeckeElement.basis((1, 0), p)
            img = satake_transform(t10)
            assert img == SatakeImage(2, p, {(1, 0): v1, (0, 1): v1})
            assert satake_transform(HeckeElement.basis((1, 1), p)) \
                == SatakeImage(2, p, {(1, 1): 1})
            square = convolve(t10, t10)
            assert square == HeckeElement(2, p, {(2, 0): 1, (1, 1): p + 1})
            assert satake_transform(square, box_bound=2) == img * img
            assert satake_by_coset_count(t10) == img
            doms = [(a, b) for a in range(-2, 3) for b in range(-2, 3)
                    if a >= b]
            for i, lam in enumerate(doms):
                for mu in doms[i:]:
                    f = HeckeElement.basis(lam, p)
                    g = HeckeElement.basis(mu, p)
                    bb = f.bound() + g.bound()
                    lhs = satake_transform(convolve(f, g), box_bound=bb)
                    rhs = satake_transform(f, box_bound=bb) \
                        * satake_transform(g, box_bound=bb)
                    assert lhs == rhs
                    assert lhs.weyl_invariant()


def test_criterion_10_local_factors():
    from glnlab.hecke import HeckeElement, chi_t, satake_transform
    from glnlab.lfactor import (X, DualRep, SatakeParameter,
                                conjugate_orbit_product, l_factor,
                                rankin_selberg)
    al, be, ga, de = sympy.symbols("alpha beta gamma delta")
    with Budget(10.0):
        t3 = SatakeParameter((al, be, ga), 3)
        for rho in [DualRep("standard"), DualRep("dual"), DualRep("sym", 2),
                    DualRep("sym", 3), DualRep("wedge", 2),
                    DualRep("wedge", 3)]:
            fac = l_factor(rho, t3)
            assert fac.degree() == rho.dimension(3)
            assert fac.denominator.subs(X, 0) == 1
        for d in (2, 3):
            assert sympy.simplify(conjugate_orbit_product(al, d)
                                  - (1 - al**d * X**d)) == 0
        rs = rankin_selberg(SatakeParameter((al, be), 2),
                            SatakeParameter((ga, de), 2))
        assert rs.degree() == 4
        for p in (2, 3):
            v = sympy.Symbol("v")
            character = chi_t(
                satake_transform(HeckeElement.basis((1, 0), p)), (al, be))
            den = l_factor(DualRep("standard"),
                           SatakeParameter((al, be), p)).denominator
            coeff_x = sympy.Poly(den, X).coeff_monomial((1,))
            assert sympy.expand(coeff_x + character / v) == 0
