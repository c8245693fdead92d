from fractions import Fraction

import pytest

from glnlab.errors import NonIntegral, NotPositiveDefinite
from glnlab.roots import (
    cartan_matrix,
    check_root_system,
    ds_decompose,
    full_root_set_gl,
    inner,
    is_cartan,
    is_generalized_cartan,
    pairing,
    reflect,
    simple_roots_gl,
    weyl_group,
)

# concrete G2 simple system: short root then long root, standard dot product
G2_SIMPLE = [(1, -1, 0), (-1, 2, -1)]
G2_MATRIX = ((2, -3), (-1, 2))


class TestSimpleRoots:
    def test_gl2(self):
        assert simple_roots_gl(2) == [(1, -1)]

    def test_gl3(self):
        assert simple_roots_gl(3) == [(1, -1, 0), (0, 1, -1)]

    def test_self_pairing(self):
        a = simple_roots_gl(2)[0]
        assert pairing(a, a) == 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            simple_roots_gl(1)


class TestCartanMatrix:
    def test_a1(self):
        assert cartan_matrix([(1, -1)]).entries == ((2,),)

    def test_a2(self):
        assert cartan_matrix(simple_roots_gl(3)).entries == ((2, -1), (-1, 2))

    def test_g2(self):
        assert cartan_matrix(G2_SIMPLE).entries == G2_MATRIX

    def test_gl_n_tridiagonal(self):
        for n in range(2, 9):
            A = cartan_matrix(simple_roots_gl(n)).entries
            for i in range(n - 1):
                for j in range(n - 1):
                    want = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                    assert A[i][j] == want

    def test_non_crystallographic_raises(self):
        with pytest.raises(NonIntegral):
            cartan_matrix([(1, 0), (1, 2)])


class TestDSDecomposition:
    def test_g2_reproduces_display(self):
        cm, minors = ds_decompose(G2_SIMPLE)
        assert cm.D == (Fraction(3), Fraction(1))
        assert cm.S == ((Fraction(2, 3), Fraction(-1)),
                        (Fraction(-1), Fraction(2)))
        assert minors == [Fraction(2, 3), Fraction(1, 3)]

    def test_a1(self):
        cm, _ = ds_decompose([(1, -1)])
        assert cm.D == (Fraction(1),)
        assert cm.S == ((Fraction(2),),)

    def test_a2_is_already_symmetric(self):
        cm, _ = ds_decompose(simple_roots_gl(3))
        assert cm.D == (Fraction(1), Fraction(1))
        assert cm.S == cm.entries

    def test_exact_product(self):
        for simple in [G2_SIMPLE, simple_roots_gl(4), simple_roots_gl(5)]:
            cm, minors = ds_decompose(simple)
            k = len(cm.entries)
            for i in range(k):
                for j in range(k):
                    assert cm.D[i] * cm.S[i][j] == cm.entries[i][j]
                    assert cm.S[i][j] == cm.S[j][i]
            assert all(m > 0 for m in minors)

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            ds_decompose(entries=((2, -2), (-2, 2)))


class TestCartanPredicates:
    def test_g2(self):
        assert is_generalized_cartan(G2_MATRIX)[0]
        assert is_cartan(G2_MATRIX)[0]

    def test_asymmetric_zero(self):
        ok, reason = is_generalized_cartan(((2, 0), (-1, 2)))
        assert not ok and "asymmetry" in reason

    def test_affine_a1_not_cartan(self):
        A = ((2, -2), (-2, 2))
        assert is_generalized_cartan(A)[0]
        ok, reason = is_cartan(A)
        assert not ok and "positive definite" in reason


class TestReflectionAndPairing:
    def test_reflect_self(self):
        a = (1, -1, 0)
        assert reflect(a, a) == (-1, 1, 0)

    def test_gl3_reflect(self):
        assert reflect((1, -1, 0), (0, 1, -1)) == (1, 0, -1)

    def test_pairing_asymmetry_g2(self):
        r1, r2 = G2_SIMPLE
        assert pairing(r2, r1) == -3
        assert pairing(r1, r2) == -1

    def test_gl3_pairing(self):
        assert pairing((0, 1, -1), (1, -1, 0)) == -1

    def test_reflect_involution_preserves_form(self):
        roots = full_root_set_gl(3)
        for a in roots:
            for b in roots:
                assert reflect(a, reflect(a, b)) == tuple(map(Fraction, b))
                for c in roots:
                    assert inner(reflect(a, b), reflect(a, c)) == inner(b, c)


class TestRootSystemChecker:
    def test_full_a2_in_ambient_z3(self):
        report = check_root_system(full_root_set_gl(3))
        assert not report["spans"]
        assert report["span_codimension"] == 1
        assert report["reduced"]
        assert report["reflection_closed"]
        assert report["crystallographic"]
        assert report["primed_agree"]

    def test_a1_in_its_span(self):
        half = Fraction(1, 2)
        for roots in ([(1, 0), (-1, 0)], [(half, half), (-half, -half)]):
            report = check_root_system(roots)
            assert report["spans"] is False \
                and report["span_codimension"] == 1 \
                or report["spans"]  # ambient dim 2, span dim 1
            assert report["reduced"] and report["reflection_closed"]
            assert report["crystallographic"]

    def test_non_reduced(self):
        half = Fraction(1, 2)
        a1_2a1 = [(1, 0), (2, 0), (-1, 0), (-2, 0)]
        for roots, form in ((a1_2a1, None), (a1_2a1, [[1, 0], [0, 1]]),
                            ([(half, 0), (-half, 0), (1, 0), (-1, 0)], None)):
            report = check_root_system(roots, form)
            assert not report["reduced"]

    def test_a2_and_g2_under_their_forms(self):
        # simple-root coordinates, form = Gram matrix of the simple roots
        a2 = [(1, 0), (0, 1), (1, 1)]
        g2 = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
        for pos, form in ((a2, [[2, -1], [-1, 2]]),
                          (g2, [[2, -3], [-3, 6]])):
            roots = pos + [tuple(-c for c in v) for v in pos]
            report = check_root_system(roots, form)
            assert report["spans"]
            assert report["reduced"]
            assert report["reflection_closed"]
            assert report["crystallographic"]
            assert report["primed_agree"]

    def test_failures_under_a_form(self):
        form = [[1, 0], [0, 1]]
        report = check_root_system([(1, 0), (-1, 0), (1, 2), (-1, -2)], form)
        assert report["reduced"]
        assert not report["reflection_closed"]
        assert not report["crystallographic"]
        assert report["primed_agree"]
        # B2 with long roots twice too long: closed, pairings in (1/2)Z
        pos = [(1, 0), (0, 1), (2, 2), (2, -2)]
        report = check_root_system(pos + [(-a, -b) for a, b in pos], form)
        assert report["reflection_closed"]
        assert not report["crystallographic"]
        assert report["primed_agree"]

    def test_gl_n_axioms(self):
        for n in range(2, 7):
            report = check_root_system(full_root_set_gl(n))
            assert report["reduced"]
            assert report["reflection_closed"]
            assert report["crystallographic"]
            assert report["primed_agree"]
            assert report["span_codimension"] == 1


class TestWeylGroup:
    def test_a1(self):
        assert len(weyl_group([(1, -1)])) == 2

    def test_orders_are_factorials(self):
        import math
        for n in range(2, 7):
            W = weyl_group(simple_roots_gl(n))
            assert len(W) == math.factorial(n)

    def test_a2_permutes_coordinates(self):
        W = weyl_group(simple_roots_gl(3))
        for w in W:
            # each matrix is a permutation matrix on Z^3
            for row in w.matrix:
                assert sorted(row) == [0, 0, 1]

    def test_elements_permute_roots(self):
        roots = set(map(lambda v: tuple(map(Fraction, v)), full_root_set_gl(4)))
        for w in weyl_group(simple_roots_gl(4)):
            assert {w.apply(r) for r in roots} == roots
