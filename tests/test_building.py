import functools
import random

import pytest

from glnlab import audit, building
from glnlab.building import (
    ValuationPattern,
    audit_self_normalizing,
    audit_ub_factorization,
    fundamental_simplices,
    iwasawa_sample_failures,
    stabilizer_pattern,
)
from glnlab.errors import CapExceeded, PrecisionExhausted
from glnlab.lang import gl_elements
from glnlab.rings import FiniteField, Mat, TruncatedLocalRing
from test_ring_core import gl_order


def vertex_entries(k, n):
    """Entries of the stabilizer pattern of vertex k, the conjugate
    diag(p 1_k, 1_(n-k)) GL_n(O) (..)^-1: e_i - e_j, e = (1^k, 0^(n-k))."""
    e = [1] * k + [0] * (n - k)
    return tuple(tuple(e[i] - e[j] for j in range(n)) for i in range(n))


def meet(a, b):
    """Entries of the intersection of two patterns: the entrywise max."""
    return tuple(tuple(map(max, r1, r2)) for r1, r2 in zip(a, b))


def membership(g, pattern):
    """What a ValuationPattern means: does g lie in the stabilizer it
    stands for?  The valuation test after removing the central p-power.

    The central exponent is pinned by requiring the centered determinant
    to be a unit; raises PrecisionExhausted when the truncated entries
    cannot decide the test.
    """
    n = g.size
    ring = g.ring
    vdet = g.det().valuation()
    if vdet >= ring.n:
        raise PrecisionExhausted("determinant not visible at this precision")
    vdet += n * g.offset
    if vdet % n:
        return False
    i = -vdet // n
    for r in range(n):
        for c in range(n):
            v = g[r, c].valuation()
            saturated = v >= ring.n
            v += g.offset + i
            need = pattern.entries[r][c]
            if saturated:
                if v < need:
                    raise PrecisionExhausted(
                        "entry is zero at working precision but the pattern "
                        f"needs valuation >= {need}")
                continue
            if v < need:
                return False
    return True


def reference_iwasawa(g):
    """The element-object decomposition: the same column operations on
    rows of ring elements, with valuations and p-power quotients read
    from the coefficients, and k as the matrix inverse of the collected
    operations."""
    n, ring = g.size, g.ring
    p = ring.p

    def valuation(a):
        v = 0
        while v < ring.n and all(c % p**(v + 1) == 0 for c in a.coeffs):
            v += 1
        return v

    def quotient(a, v):
        return ring.element([c // p**v for c in a.coeffs])

    work = [list(row) for row in g.rows]
    emat = [list(row) for row in Mat.identity(ring, n).rows]
    for i in range(n - 1, 0, -1):
        vals = [valuation(work[i][j]) for j in range(i + 1)]
        best = min(vals)
        if best >= ring.n:
            raise PrecisionExhausted("pivot row vanishes at working precision")
        piv = vals.index(best)
        for m in (work, emat):
            for row in m:
                row[piv], row[i] = row[i], row[piv]
        u = quotient(work[i][i], best)
        for j in range(i):
            if work[i][j].is_zero():
                continue
            c = -(quotient(work[i][j], best) * u.inverse())
            for m in (work, emat):
                for row in m:
                    row[j] = row[j] + c * row[i]
            assert work[i][j].is_zero()
    return Mat(ring, work, g.offset), Mat(ring, emat).inverse()


class TestSimplices:
    def test_counts(self):
        assert len(fundamental_simplices(2)) == 3
        assert len(fundamental_simplices(3)) == 7
        assert len(fundamental_simplices(5)) == 31

    def test_counts_general(self):
        for n in range(1, 13):
            assert len(fundamental_simplices(n)) == 2**n - 1

    def test_count_checked_against_cap(self):
        assert len(fundamental_simplices(3, cap=7)) == 7
        with pytest.raises(CapExceeded):
            fundamental_simplices(3, cap=6)
        with pytest.raises(CapExceeded):
            fundamental_simplices(40)
        with pytest.raises(CapExceeded):
            fundamental_simplices(10**9)  # 2^n is neither formed nor printed

    def test_vertices_come_first(self):
        simps = fundamental_simplices(3)
        assert simps[:3] == [(0,), (1,), (2,)]
        assert simps[-1] == (0, 1, 2)


class TestPatterns:
    def test_gl2_standard_vertex(self):
        assert stabilizer_pattern((0,), 2).entries == ((0, 0), (0, 0))

    def test_gl2_other_vertex(self):
        assert stabilizer_pattern((1,), 2).entries == ((0, 1), (-1, 0))

    def test_gl2_edge(self):
        assert stabilizer_pattern((0, 1), 2).entries == ((0, 1), (0, 0))

    def test_edge_is_intersection(self):
        assert meet(vertex_entries(0, 2), vertex_entries(1, 2)) \
            == stabilizer_pattern((0, 1), 2).entries

    def test_gl3_conjugates_match_displays(self):
        base = stabilizer_pattern((0,), 3)
        # diag(p,1,1): off-diagonal row 1 gains p, column 1 gains p^-1
        assert base.conjugate((1, 0, 0)).entries == \
            ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
        # diag(1,p,1)
        assert base.conjugate((0, 1, 0)).entries == \
            ((0, -1, 0), (1, 0, 1), (0, -1, 0))
        # diag(1,1,p)
        assert base.conjugate((0, 0, 1)).entries == \
            ((0, 0, -1), (0, 0, -1), (1, 1, 0))

    def test_zero_conjugation(self):
        pat = stabilizer_pattern((1, 2), 3)
        assert pat.conjugate((0, 0, 0)) == pat

    def test_intersect_laws(self):
        # the pattern of the union of two simplices' vertices is the
        # intersection of their patterns
        def pattern(vertices):
            return stabilizer_pattern(tuple(sorted(vertices)), 3).entries

        simps = fundamental_simplices(3)
        for s1 in simps:
            for s2 in simps:
                assert pattern(set(s1) | set(s2)) \
                    == meet(pattern(s1), pattern(s2))

    def test_simplex_pattern_is_vertex_intersection(self):
        for n in (2, 3, 4):
            for simplex in fundamental_simplices(n):
                assert stabilizer_pattern(simplex, n).entries \
                    == functools.reduce(meet, [vertex_entries(k, n)
                                               for k in simplex])


class TestMembership:
    def setup_method(self):
        self.R = TruncatedLocalRing(2, 6, 1)

    def test_identity_everywhere(self):
        ident = Mat.identity(self.R, 2)
        for simplex in fundamental_simplices(2):
            assert membership(ident, stabilizer_pattern(simplex, 2))

    def test_swap_in_vertex_not_edge(self):
        w = Mat.from_ints(self.R, [[0, 1], [1, 0]])
        assert membership(w, stabilizer_pattern((0,), 2))
        assert not membership(w, stabilizer_pattern((0, 1), 2))

    def test_center_normalization(self):
        two_i = Mat.from_ints(self.R, [[2, 0], [0, 2]])
        assert membership(two_i, stabilizer_pattern((0,), 2))

    def test_odd_determinant_valuation_rejected(self):
        g = Mat.from_ints(self.R, [[2, 0], [0, 1]])
        assert not membership(g, stabilizer_pattern((0,), 2))

    def test_conjugation_consistency(self):
        rng = random.Random(7)
        R = TruncatedLocalRing(3, 5, 1)
        pat = stabilizer_pattern((0, 1), 2)
        d = Mat.from_ints(R, [[3, 0], [0, 1]])
        dinv = Mat.from_ints(R, [[1, 0], [0, 3]], offset=-1)
        for _ in range(60):
            g = Mat.from_ints(R, [[rng.randrange(3**5) for _ in range(2)]
                                  for _ in range(2)])
            if not g.det().is_unit():
                continue
            try:
                lhs = membership(g, pat.conjugate((1, 0)))
                rhs = membership(dinv * g * d, pat)
            except PrecisionExhausted:
                continue
            assert lhs == rhs

    def test_frobenius_fixes_membership(self):
        R = TruncatedLocalRing(2, 4, 2)
        x = R.element((0, 1))
        g = Mat(R, [[x, R.one()], [R.element((0, 2)), R.one() + x]])
        for simplex in fundamental_simplices(2):
            pat = stabilizer_pattern(simplex, 2)
            try:
                assert membership(g, pat) == membership(g.sigma(), pat)
            except PrecisionExhausted:
                pass

    def test_precision_exhausted(self):
        R1 = TruncatedLocalRing(2, 1, 1)
        g = Mat.from_ints(R1, [[0, 1], [1, 0]])  # det = -1 visible, entry 0
        with pytest.raises(PrecisionExhausted):
            # the pattern demands valuation >= 1 on a saturated-zero entry
            # only when the threshold exceeds the precision window
            membership(Mat.from_ints(R1, [[1, 0], [0, 1]]),
                       ValuationPattern([[0, 2], [0, 0]]))


def iwasawa(ring, codes):
    """(b, k) of the int kernel for the flat codes of a 2 x 2 matrix over
    a ring of degree 1: its pivot step, then its shear step with the
    pivot unit inverted alone by ring.inv."""
    pivoted = building._iwasawa_pivot(ring.p, ring.n, *codes)
    unit = pivoted[3] // pivoted[4]
    return building._iwasawa_shear(ring.pn, pivoted, ring.inv(unit))


def factors(ring, g, b, k):
    """Is g = b * k, with b upper triangular and det k a unit?"""
    return (ring.mul2(b, k) == g and b[2] == 0
            and ring.is_unit(ring.mat_det(2, k)))


class TestIwasawa:
    def test_diagonal_offset(self):
        # diag(p^-1, p) = p^-1 diag(1, p^2); b takes the offset whole, so
        # the kernel sees the integral part alone
        R = TruncatedLocalRing(2, 6, 1)
        g = (1, 0, 0, 4)
        b, k = iwasawa(R, g)
        assert k == (1, 0, 0, 1)
        assert factors(R, g, b, k)

    def test_antidiagonal(self):
        # (0 p^-1; 1 0) = p^-1 (0 1; 2 0)
        R = TruncatedLocalRing(2, 6, 1)
        g = (0, 1, 2, 0)
        b, k = iwasawa(R, g)
        assert factors(R, g, b, k)
        assert k == (0, 1, 1, 0)
        assert b == (1, 0, 0, 2)  # b = diag(p^-1, 1) after the offset

    def test_integral_input(self):
        R = TruncatedLocalRing(3, 5, 1)
        g = (2, 1, 1, 1)
        assert factors(R, g, *iwasawa(R, g))

    def test_random_seeded(self):
        rng = random.Random(2024)
        R = TruncatedLocalRing(2, 6, 1)
        done = 0
        while done < 200:
            g = tuple(rng.randrange(64) for _ in range(4))
            if R.valuation(R.mat_det(2, g)) >= 3:
                continue
            assert factors(R, g, *iwasawa(R, g))
            done += 1

    def test_residue_level_coverage(self):
        # every element of GL_2(F_p) decomposes as b*k at level 1
        for p in (2, 3):
            F = FiniteField(p, 1)
            for g in gl_elements(F, 2):
                assert factors(F, g, *iwasawa(F, g))
            assert building.iwasawa_failures(F, gl_elements(F, 2)) == 0

    def test_matches_element_reference(self):
        # the reports pin only failure counts; this pins (b, k) itself
        rng = random.Random(11)
        # the last three are above 2^30, where the unit inverse is lifted
        for p, n in ((2, 6), (3, 5), (2, 160), (3, 100), (5, 64)):
            R = TruncatedLocalRing(p, n, 1)
            # entries times p^e, e <= n, so that ties in valuation, zero
            # entries and vanishing pivot rows all occur
            p_powers = [R.encode((p**e,)) for e in range(n + 1)]
            for _ in range(60):
                g = tuple(R.mul(rng.randrange(R.size()), rng.choice(p_powers))
                          for _ in range(4))
                try:
                    b0, k0 = reference_iwasawa(Mat.from_codes(R, 2, g))
                except PrecisionExhausted:
                    with pytest.raises(PrecisionExhausted):
                        iwasawa(R, g)
                    continue
                assert iwasawa(R, g) == (b0.codes, k0.codes), (p, n, g)

    def test_sample_cap(self):
        # count times ceil(bits / 64)^2, bits = precision * bit length of p
        assert iwasawa_sample_failures(2, 32, 10, random.Random(1),
                                       cap=10) == 0
        assert iwasawa_sample_failures(2, 64, 10, random.Random(1),
                                       cap=40) == 0
        with pytest.raises(CapExceeded):
            iwasawa_sample_failures(2, 64, 10, random.Random(1), cap=39)
        # refused before p^precision is formed and before any draw
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(CapExceeded):
            iwasawa_sample_failures(3, 10**12, 1, rng)
        assert rng.getstate() == state

    # the padic-iwasawa benchmark grid, and precisions 1 and 2, where the
    # rejection bound min(3, precision) is below 3
    @pytest.mark.parametrize("p, precision", [
        (p, n) for p, ns in ((2, (1, 2, 20, 40, 80, 160)),
                             (3, (1, 2, 12, 25, 50, 100)),
                             (5, (1, 2, 8, 16, 32, 64)))
        for n in ns])
    def test_sample_stream(self, p, precision):
        # the sampler draws what this element-level loop draws, and
        # rejects what it rejects, so each seed samples the same matrices
        count, seed = 40, 1000 * p + precision
        rng = random.Random(seed)
        assert iwasawa_sample_failures(p, precision, count, rng) == 0
        ref = random.Random(seed)
        R = TruncatedLocalRing(p, precision, 1)
        done = 0
        while done < count:
            ref.randint(-2, 2)
            g = Mat.from_codes(R, 2, tuple(ref.randrange(p**precision)
                                           for _ in range(4)))
            if g.det().valuation() < min(3, precision):
                done += 1
        assert rng.getstate() == ref.getstate()

    # block boundaries: one sample, a block less one, one block, one
    # more, and two blocks and one
    @pytest.mark.parametrize("count", [1, building._BLOCK - 1,
                                       building._BLOCK, building._BLOCK + 1,
                                       2 * building._BLOCK + 1])
    @pytest.mark.parametrize("p, precision",
                             [(2, 1), (3, 2), (5, 64), (2, 160)])
    def test_sample_stream_at_block_boundaries(self, p, precision, count):
        seed = count * 1000 + p + precision
        rng = random.Random(seed)
        assert iwasawa_sample_failures(p, precision, count, rng) == 0
        ref = random.Random(seed)
        R = TruncatedLocalRing(p, precision, 1)
        done = 0
        while done < count:
            ref.randint(-2, 2)
            g = tuple(ref.randrange(R.pn) for _ in range(4))
            if R.valuation(R.mat_det(2, g)) < min(3, precision):
                done += 1
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("m", [1, 2, 5, 2**31, 2**32, 2**32 + 1,
                                   2**64 + 1, 3**100, 5**64])
    def test_inline_draw_is_randrange(self, m):
        # CPython's randrange(m), and so randint(-2, 2) at m = 5, draws
        # getrandbits(m.bit_length()) until the value is below m; the
        # sampler writes this loop out on getrandbits
        def draw(rng):
            r = rng.getrandbits(m.bit_length())
            while r >= m:
                r = rng.getrandbits(m.bit_length())
            return r

        rng, ref = random.Random(m), random.Random(m)
        assert [draw(rng) for _ in range(200)] \
            == [ref.randrange(m) for _ in range(200)]
        assert rng.getstate() == ref.getstate()
        if m == 5:
            assert [draw(rng) - 2 for _ in range(200)] \
                == [ref.randint(-2, 2) for _ in range(200)]
            assert rng.getstate() == ref.getstate()

    def test_one_unit_inverse_a_block(self, monkeypatch):
        sizes, inverses = [], []
        real = building.iwasawa_failures

        def spy(ring, matrices):
            inv = ring.inv
            ring.inv = lambda u: inverses.append(u) or inv(u)
            sizes.append(len(matrices))
            try:
                return real(ring, matrices)
            finally:
                ring.inv = inv

        monkeypatch.setattr(building, "iwasawa_failures", spy)
        count = 3 * building._BLOCK + 5
        assert iwasawa_sample_failures(3, 40, count, random.Random(3)) == 0
        assert sizes == [building._BLOCK] * 3 + [5]
        assert len(inverses) == 4
        # the exhaustive check of criterion 7 inverts once for the group
        for p in (2, 3):
            F = FiniteField(p, 1)
            inverses.clear()
            assert spy(F, gl_elements(F, 2)) == 0
            assert len(inverses) == 1

    def test_block_matches_single_inverses(self, monkeypatch):
        # the matrices of test_matches_element_reference: ties in
        # valuation, zero entries, repeated pivot units and c = 0
        rng = random.Random(11)
        real = building._iwasawa_shear
        repeats = zeros = vanishes = False
        for p, n in ((2, 6), (3, 5), (2, 160), (3, 100), (5, 64)):
            R = TruncatedLocalRing(p, n, 1)
            p_powers = [R.encode((p**e,)) for e in range(n + 1)]
            block, vanishing = [], []
            for _ in range(60):
                g = tuple(R.mul(rng.randrange(R.size()), rng.choice(p_powers))
                          for _ in range(4))
                try:
                    building._iwasawa_pivot(p, n, *g)
                except PrecisionExhausted:
                    vanishing.append(g)
                    continue
                block.append(g)
            single, found = [iwasawa(R, g) for g in block], []
            monkeypatch.setattr(
                building, "_iwasawa_shear",
                lambda *args: found.append(real(*args)) or found[-1])
            building.iwasawa_failures(R, block)
            monkeypatch.undo()
            assert found == single, (p, n)
            pivoted = [building._iwasawa_pivot(p, n, *g) for g in block]
            units = [h[3] // h[4] for h in pivoted]
            assert building._unit_inverses(R, units) \
                == [R.inv(u) for u in units]
            repeats |= len(set(units)) < len(units)
            zeros |= any(g[2] == 0 for g in block)
            vanishes |= bool(vanishing)
            for g in vanishing:  # a vanishing pivot row still raises
                with pytest.raises(PrecisionExhausted):
                    building.iwasawa_failures(R, block + [g])
        assert repeats and zeros and vanishes

    @pytest.mark.parametrize("mutate", [
        lambda b, k: (b, (k[0], k[1], k[2] + 1, k[3])),  # k_21 + 1
        lambda b, k: ((b[0], b[1], 1, b[3]), k),  # b_21 != 0
    ])
    def test_sample_check_catches_a_wrong_kernel(self, monkeypatch, mutate):
        kernel = building._iwasawa_shear
        monkeypatch.setattr(building, "_iwasawa_shear",
                            lambda *args: mutate(*kernel(*args)))
        assert iwasawa_sample_failures(2, 6, 50, random.Random(5)) == 50
        # the exhaustive check of criterion 7 applies the same test
        F = FiniteField(3, 1)
        assert building.iwasawa_failures(F, gl_elements(F, 2)) == 48
        assert not audit.iwasawa_reconstruction(10**6, 0)[0]


AUDIT_SHAPES = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (2, 7), (4, 2)]


class TestAudits:
    def test_ub_gl2_p2(self):
        rep = audit_ub_factorization(2, 2)
        assert rep["group_order"] == 6
        assert rep["product_set_size"] == 4
        assert not rep["covers"]
        assert (0, 1, 1, 0) in rep["counterexamples"]  # the swap

    def test_ub_gl2_p3(self):
        rep = audit_ub_factorization(2, 3)
        assert not rep["covers"]
        assert rep["counterexamples"]

    def test_self_norm_gl2_p2(self):
        rep = audit_self_normalizing(2, 2)
        assert rep["u_order"] == 2
        assert rep["self_normalizing"]
        assert rep["normalizer_order"] == 2

    def test_self_norm_gl2_p3(self):
        rep = audit_self_normalizing(2, 3)
        assert rep["group_order"] == 48
        assert rep["u_order"] == 6
        # verified exhaustively, whatever the verdict
        assert rep["normalizer_order"] % rep["u_order"] == 0

    def test_self_norm_matches_full_conjugation(self):
        # the generator test against conjugating all of U by every g
        for n, p in ((2, 3), (3, 2)):
            F = FiniteField(p, 1)
            group = [Mat.from_codes(F, n, c) for c in gl_elements(F, n)]
            u_set = {m for m in group
                     if all(m[i, j].is_zero() for i in range(n)
                            for j in range(i + 1, n))
                     and len({m[i, i] for i in range(n)}) == 1}
            expect = sum(1 for g in group
                         if {g * u * g.inverse() for u in u_set} == u_set)
            rep = audit_self_normalizing(n, p)
            assert rep["u_order"] == len(u_set)
            assert rep["normalizer_order"] == expect

    # both audits against their closed forms: U is the scalars times the
    # lower unitriangular group, its normalizer the lower Borel, and U B
    # the LU big cell
    @pytest.mark.parametrize("n, p", AUDIT_SHAPES)
    def test_self_norm_closed_forms(self, n, p):
        rep = audit_self_normalizing(n, p)
        assert rep["group_order"] == gl_order(p, 1, 1, n)
        assert rep["u_order"] == (p - 1) * p**(n * (n - 1) // 2)
        assert rep["normalizer_order"] == (p - 1)**n * p**(n * (n - 1) // 2)

    @pytest.mark.parametrize("n, p", AUDIT_SHAPES)
    def test_ub_closed_forms(self, n, p):
        rep = audit_ub_factorization(n, p)
        assert rep["group_order"] == gl_order(p, 1, 1, n)
        field, half = FiniteField(p, 1), n * (n - 1) // 2
        assert len(building._residue_triangular(field, n, lower=True)) \
            == (p - 1) * p**half
        assert len(building._residue_triangular(field, n, lower=False)) \
            == (p - 1)**n * p**half
        assert rep["product_set_size"] == (p - 1)**n * p**(n * (n - 1))
        assert len(rep["counterexamples"]) \
            == rep["group_order"] - rep["product_set_size"]

    def test_self_norm_is_the_lower_borel(self):
        # U is the scalars times the lower unitriangular group, whose
        # normalizer is the lower Borel: (p-1)^n p^(n(n-1)/2) elements
        for n, p in ((2, 2), (2, 3), (3, 2), (3, 3)):
            rep = audit_self_normalizing(n, p)
            assert rep["normalizer_order"] \
                == (p - 1)**n * p**(n * (n - 1) // 2)
