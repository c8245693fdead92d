import functools
import gc
import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from glnlab import hecke
from glnlab.errors import CapExceeded, UnsupportedRank, ZeroEntry
from glnlab.hecke import (
    BIG,
    HeckeElement,
    SatakeImage,
    _vint,
    convolve,
    coset_decompose,
    modulus_delta_exponent,
    satake_by_coset_count,
    satake_transform,
)
from glnlab.rings import HalfPowerLaurent


def chi_t(image, tvals):
    """Substitute e_lam -> prod t_i^lam_i; returns a sympy expression in
    the entries of t and the formal square root v of q."""
    if any(t == 0 for t in tvals):
        raise ZeroEntry("torus values must be nonzero")
    v = sympy.Symbol("v")
    acc = sympy.Integer(0)
    for lam, c in image.coeffs.items():
        coeff = sympy.Rational(c.a) + sympy.Rational(c.b) * v
        mono = sympy.Integer(1)
        for t, e in zip(tvals, lam):
            mono *= sympy.sympify(t)**e
        acc += coeff * mono
    return sympy.expand(acc)


# every cache of the Hecke layer, taken before any test patches one
HECKE_CACHES = [f for f in vars(hecke).values() if hasattr(f, "cache_clear")]


def clear_hecke_caches():
    """Empty every Hecke cache, so that a patched function is reached
    and no value built under a patch outlives the test."""
    for f in HECKE_CACHES:
        f.cache_clear()


def longest_cached(f):
    """The greatest length of a tuple or list among the keys and values
    the lru_cache f holds, nested ones too, as the collector sees it."""
    def longest(x):
        if isinstance(x, (tuple, list)):
            return max([len(x), *map(longest, x)])
        return 0

    return max(map(longest, gc.get_referents(f)), default=0)


def v_pow(q, k):
    return HalfPowerLaurent.v_power(q, k)


def vp(x, p):
    """p-adic valuation of an int or Fraction; BIG for zero."""
    if x == 0:
        return BIG
    return _vint(x.numerator, p) - _vint(x.denominator, p)


def _smith_int(rows, p):
    """Elementary divisor exponents (ascending) of a nonsingular int
    matrix over Z_(p), by elimination: the reference the coset lists
    and the minor-valuation membership rule are checked against.

    Each step takes a pivot of least valuation (that of the gcd of the
    remaining entries) and clears its column from the other rows,
    scaling each of them only by the pivot's p-adic unit part, so the
    work stays in ints and every operation is invertible over Z_(p).
    The pivot's row and column then drop out.
    """
    rows = [list(r) for r in rows]
    out = []
    while rows:
        g = math.gcd(*itertools.chain.from_iterable(rows))
        if not g:
            raise ValueError("singular matrix")
        v = _vint(g, p)
        out.append(v)
        scale = p**v
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x % (scale * p):
                    break
            else:
                continue
            break
        piv = rows.pop(i)
        unit = piv.pop(j) // scale
        for row in rows:
            c = row.pop(j) // scale
            row[:] = [unit * x - c * y for x, y in zip(row, piv)]
    return tuple(out)


def smith_exponents(rows, p):
    """Elementary divisor exponents (ascending) of a nonsingular matrix
    of ints or Fractions, scaled first by the lcm L of the denominators
    (which shifts every exponent by v(L))."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (den // x.denominator) for x in row]
            for row in rows]
    shift = _vint(den, p)
    return tuple(e - shift for e in _smith_int(ints, p))


def dominant_box(n, b):
    return [lam for lam in itertools.product(range(b, -b - 1, -1), repeat=n)
            if all(lam[i] >= lam[i + 1] for i in range(n - 1))]


def coset_count(lam, q):
    """|K p^lam K / K| = q^<2rho, lam> [n]_t! / prod_k [m_k]_t!, t = 1/q,
    m_k the multiplicities of the entries of lam (Macdonald V.2)."""
    t = Fraction(1, q)

    def qfact(k):
        out = Fraction(1)
        for j in range(1, k + 1):
            out *= (1 - t**j) / (1 - t)
        return out

    n = len(lam)
    count = Fraction(q)**sum(lam[i] - lam[j]
                             for i in range(n) for j in range(i + 1, n))
    count *= qfact(n)
    for m in Counter(lam).values():
        count /= qfact(m)
    assert count.denominator == 1
    return int(count)


def rho_point(image):
    """The image at the rho point: sum_nu c_nu v^(sum_i nu_i (n + 1 - 2i)).
    It is the degree |K p^lam K / K| of the transformed element."""
    n = image.n
    return sum((c * v_pow(image.q, sum(x * (n - 1 - 2 * i)
                                       for i, x in enumerate(nu)))
                for nu, c in image.coeffs.items()), HalfPowerLaurent(image.q))


def volume_exponent_by_count(c, p):
    """vol(p^c O) as q^e with vol(O) = 1, read off a finite cell count.

    Cells of width p^-L tiling the window p^min(c,0) O are tested for
    membership of their base point in p^c O; the count must come out an
    exact power of p.
    """
    L = abs(c) + 1
    m = min(c, 0)
    # cosets of p^L O inside the window p^m O, base points k * p^m
    inside = sum(1 for k in range(p**(L - m))
                 if vp(Fraction(k) * Fraction(p)**m, p) >= c)
    total = p**L  # cosets of p^L O making up O
    e = 0
    num, den = inside, total
    while num > den:
        num, e = num // p, e + 1
    while num < den:
        num, e = num * p, e - 1
    assert num == den, "cell count is not a power of p"
    return e


def modulus_delta_by_count(a, n, q):
    """delta(p^a) from a counting model of the conjugation Jacobian on
    the unipotent coordinates, where x_ij scales by p^(a_i - a_j)."""
    e = sum(volume_exponent_by_count(a[i] - a[j], q)
            for i in range(n) for j in range(i + 1, n))
    assert e == modulus_delta_exponent(a, n), (a, e)
    return v_pow(q, 2 * e)


def matrix(rep, p):
    """The matrix g = p^shift * M of a coset representative (shift, M)."""
    shift, form = rep
    return [[Fraction(p)**shift * x for x in row] for row in form]


def iwasawa_torus_part(rows, p):
    """The lam with g in N(F) p^lam GL_n(O), g nonsingular: the diagonal
    valuations after column reduction to upper-triangular form."""
    n = len(rows)
    work = [list(r) for r in rows]
    for i in range(n - 1, 0, -1):
        # a pivot of least valuation in the row keeps every column
        # operation below integral, i.e. inside GL_n(O)
        piv = min(range(i + 1), key=lambda j: vp(work[i][j], p))
        if piv != i:
            for r in range(n):
                work[r][piv], work[r][i] = work[r][i], work[r][piv]
        for j in range(i):
            if work[i][j] == 0:
                continue
            cfac = -work[i][j] / work[i][i]
            for r in range(n):
                work[r][j] += cfac * work[r][i]
    return tuple(vp(work[i][i], p) for i in range(n))


def hermite_charge(lam, p):
    """The forms coset_decompose charges, by the rank-by-rank formulas:
    Hermite forms at ranks 1 and 2, and p^(2 d0) first rows over each
    rank-2 block of mu_1 - mu_2 at rank 3."""
    m = [c - lam[-1] for c in lam]
    if len(m) < 3:
        return sum(p**d0 for d0 in range(sum(m) + 1))
    return sum(
        p**(2 * (sum(m) - mu1 - mu2))
        * (p**(mu1 - mu2) + p**(mu1 - mu2 - 1) if mu1 > mu2 else 1)
        for mu1 in range(m[1], m[0] + 1) for mu2 in range(m[1] + 1))


def minor_profile(form, p):
    """Per k < n, the least valuation w_S of the k x k minors of form on
    each k-row subset S, by cofactor expansion over every k columns."""
    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1)**j * rows[0][j] * det([r[:j] + r[j + 1:]
                                                for r in rows[1:]])
                   for j in range(len(rows)))

    n = len(form)
    return tuple(
        tuple(min(_vint(det([[form[r][c] for c in cols] for r in rows]), p)
                  for cols in itertools.combinations(range(n), k))
              for rows in itertools.combinations(range(n), k))
        for k in range(1, n))


@functools.lru_cache(maxsize=None)
def hermite_scan_cosets(lam, p):
    """Reference coset list: every upper-triangular Hermite form with
    p-power diagonal p^d, in the order of d and then of the entries
    above the diagonal, kept when its elementary divisors are exactly
    lam - lam[-1]."""
    n = len(lam)
    shift = lam[-1]
    m = tuple(c - shift for c in lam)
    target = tuple(sorted(m))
    starts = [sum(n - 1 - k for k in range(i)) for i in range(n)]
    reps = []
    for diag in itertools.product(range(sum(m) + 1), repeat=n):
        if sum(diag) != sum(m):
            continue
        pows = [p**c for c in diag]
        ranges = [range(pows[i]) for i in range(n) for _ in range(i + 1, n)]
        for fill in itertools.product(*ranges):
            form = tuple((0,) * i + (pows[i],) + fill[s:s + n - 1 - i]
                         for i, s in enumerate(starts))
            if _smith_int(form, p) == target:
                reps.append((shift, form))
    return tuple(reps)


def pair_binning_convolve(f, g):
    """Reference convolution: form every coset product g_i h_j of the
    scanned representatives and bin it at p^nu with nu the shifts plus
    the diagonal exponents, when each row of the (upper-triangular,
    p-power diagonal) product is divisible by its diagonal entry, that
    is, when its row-minimum valuations sum to v(det)."""
    n, p = f.n, f.p
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]

    reps = {lam: [(s, tuple(vp(m[i][i], p) for i in range(n)), m)
                  for s, m in hermite_scan_cosets(lam, p)]
            for lam in set(f.support) | set(g.support)}
    out = {}
    for lam, cf in f.support.items():
        for mu, cg in g.support.items():
            hits = Counter()
            for sf, ef, a in reps[lam]:
                for sg, eg, b in reps[mu]:
                    e = tuple(x + y for x, y in zip(ef, eg))
                    if any(e[i] < e[i + 1] for i in range(n - 1)):
                        continue
                    if all(sum(a[i][k] * b[k][j] for k in range(i, j + 1))
                           % p**e[i] == 0 for i, j in above):
                        hits[tuple(sf + sg + x for x in e)] += 1
            for nu, count in hits.items():
                out[nu] = out.get(nu, HalfPowerLaurent(p)) + cf * cg * count
    return HeckeElement(n, p, out)


class TestCosets:
    def test_gl2_minuscule_p2(self):
        reps = coset_decompose((1, 0), 2, 2)
        mats = {tuple(tuple(int(x) for x in r) for r in matrix(m, 2))
                for m in reps}
        assert mats == {((2, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 0), (0, 2))}

    def test_gl2_minuscule_count(self):
        for p in (2, 3, 5):
            assert len(coset_decompose((1, 0), 2, p)) == p + 1

    def test_gl2_central(self):
        for p in (2, 3):
            reps = coset_decompose((1, 1), 2, p)
            assert len(reps) == 1
            assert matrix(reps[0], p) == [[p, 0], [0, p]]

    def test_gl2_weight_two(self):
        # number of index-p^2 sublattices with divisors (1, p^2)
        for p in (2, 3):
            reps = coset_decompose((2, 0), 2, p)
            assert len(reps) == p * (p + 1)

    def test_negative_entries(self):
        reps = coset_decompose((0, -1), 2, 2)
        assert len(reps) == 3
        for m in reps:
            assert smith_exponents(matrix(m, 2), 2) == (-1, 0)

    def test_gl3_minuscule_count(self):
        for p in (2, 3):
            reps = coset_decompose((1, 0, 0), 3, p)
            assert len(reps) == p * p + p + 1

    def test_gl3_second_minuscule_count(self):
        for p in (2, 3):
            reps = coset_decompose((1, 1, 0), 3, p)
            assert len(reps) == p * p + p + 1

    def test_count_closed_form(self):
        cases = [(lam, p) for p in (2, 3) for n, b in ((2, 2), (3, 1))
                 for lam in dominant_box(n, b)]
        cases += [(lam, 2) for lam in dominant_box(3, 2)]
        for lam, p in cases:
            assert len(coset_decompose(lam, len(lam), p)) \
                == coset_count(lam, p), (p, lam)

    def test_iwasawa_torus_part_is_a_coset_invariant(self):
        # g and g k lie in the same N p^lam K for k in GL_n(Z_p); the
        # triangular representatives show lam on their diagonal
        ks = [((0, 0, 1), (1, 0, 0), (0, 1, 0)),
              ((1, 0, 0), (3, 1, 0), (-2, 5, 1)),
              ((2, 1, 1), (1, 1, 0), (1, 0, 0))]
        for lam, p in (((1, 0, -1), 2), ((2, 1, 0), 3)):
            for rep in coset_decompose(lam, 3, p):
                g = matrix(rep, p)
                diag = tuple(vp(g[i][i], p) for i in range(3))
                for k in ks:
                    gk = [[sum(g[i][m] * k[m][j] for m in range(3))
                           for j in range(3)] for i in range(3)]
                    assert iwasawa_torus_part(gk, p) == diag

    def test_representatives_are_int_forms(self, monkeypatch):
        # the coset layer runs on ints: M upper triangular with p-power
        # diagonal, and no Fraction is built on integral input, in this
        # layer or in the HalfPowerLaurent coefficients of convolve
        def refuse(*args, **kwargs):
            raise AssertionError("Fraction built on integral input")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        for lam, p in (((2, 0, -1), 2), ((1, 1, -1), 3), ((3, -2), 3)):
            n = len(lam)
            for shift, form in coset_decompose(lam, n, p):
                assert shift == lam[-1]
                assert all(type(x) is int for row in form for x in row)
                assert all(form[i][j] == 0 for i in range(n)
                           for j in range(i))
                assert all(p**vp(form[i][i], p) == form[i][i]
                           for i in range(n))
        assert smith_exponents([[4, 2, 1], [0, 2, 3], [0, 0, 1]], 2) \
            == (0, 1, 2)
        f = HeckeElement.basis((1, 0), 2)
        g = HeckeElement.basis((0, -1), 2)
        assert convolve(f, g) == convolve(g, f)

    # the same cosets, each as often: coset_decompose promises no order,
    # since convolve and satake_by_coset_count only count the cosets; one
    # recursion builds every rank, so the three tests below differ only
    # in their cases
    @staticmethod
    def _assert_equals_scan(cases):
        for lam, p in cases:
            assert sorted(coset_decompose(lam, len(lam), p)) \
                == sorted(hermite_scan_cosets(lam, p)), (lam, p)

    def test_rank1_equals_scan(self):
        self._assert_equals_scan(
            [(lam, p) for p in (2, 3, 5) for lam in dominant_box(1, 3)])

    def test_rank2_direct_equals_scan(self):
        self._assert_equals_scan(
            [(lam, p) for p in (2, 3, 5) for spread in range(6)
             for lam in ((spread, 0), (spread - 2, -2), (3, 3 - spread))])

    def test_rank3_interlacing_equals_scan(self):
        # (1, 1, -1) at p = 5 is left out because its scan alone takes
        # about 7 s
        cases = [(lam, p) for p in (2, 3) for lam in dominant_box(3, 1)]
        cases += [((1, 0, -1), 5), ((2, 1, 0), 5)]
        self._assert_equals_scan(cases)

    def test_returned_list_is_fresh(self):
        # changing a returned list must leave the next call as it was
        for lam, p in (((2, 0), 3), ((1, 0, -1), 2), ((2,), 5)):
            reps = coset_decompose(lam, len(lam), p)
            reps.reverse()
            reps.append(reps[0])
            assert sorted(coset_decompose(lam, len(lam), p)) \
                == sorted(hermite_scan_cosets(lam, p)), (lam, p)

    def test_no_cache_keeps_a_member_list(self):
        # (12, 0) at p = 2 has 6 144 members; after its cosets, its
        # transform and its oracle, no cache of the layer holds a tuple
        # that long, while a cache that kept them would be seen
        clear_hecke_caches()
        assert len(coset_decompose((12, 0), 2, 2)) == 6144
        f = HeckeElement.basis((12, 0), 2)
        assert satake_by_coset_count(f) == satake_transform(f)
        assert longest_cached(hecke._diagonals) > 0
        assert max(map(longest_cached, HECKE_CACHES)) < 6144
        kept = functools.lru_cache(maxsize=1)(hecke._members)
        kept((12, 0), 2)
        assert longest_cached(kept) == 6144

    def test_closed_form_count_is_the_oracle(self):
        # the int closed form the cap is charged with, against the
        # Fraction oracle above
        for n, b in ((1, 3), (2, 3), (3, 2)):
            for lam in dominant_box(n, b):
                for p in (2, 3, 5):
                    assert hecke.coset_count(lam, p) \
                        == coset_count(lam, p), (lam, p)

    def test_charge(self):
        # the forms charged, by hermite_charge; a cap one below refuses
        lams = [(0,), (-4,), (0, 0), (1, 0), (3, -2), (0, 0, 0), (1, 0, 0),
                (1, 1, 0), (2, 0, -1), (2, 2, -1), (3, 1, 0)]
        for lam in lams:
            for p in (2, 3):
                c = hermite_charge(lam, p)
                with pytest.raises(CapExceeded, match=f"^{c} Hermite"):
                    coset_decompose(lam, len(lam), p, cap=c - 1)
                assert len(coset_decompose(lam, len(lam), p, cap=c)) \
                    == coset_count(lam, p)

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedRank):
            coset_decompose((1, 0, 0, 0), 4, 2)

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            coset_decompose((0, 1), 2, 2)


# every (lam, p) that TestCosets decomposes
COSET_CASES = sorted(
    {((1, 0), p) for p in (2, 3, 5)}
    | {(lam, p) for p in (2, 3) for lam in ((1, 1), (2, 0), (1, 0, 0),
                                             (1, 1, 0))}
    | {((0, -1), 2), ((1, 0, -1), 2), ((2, 1, 0), 3)}
    | {(lam, p) for p in (2, 3) for n, b in ((2, 2), (3, 1))
       for lam in dominant_box(n, b)}
    | {(lam, 2) for lam in dominant_box(3, 2)})


@pytest.mark.parametrize("lam, p", COSET_CASES)
def test_weights_lie_in_the_entry_box(lam, p):
    # P_lam is m_lam plus terms lower in the dominance order, and the
    # Iwasawa torus part of each coset has its entries between lam_n and
    # lam_1; so neither image needs a box filter
    f, box = HeckeElement.basis(lam, p), range(min(lam), max(lam) + 1)
    for image in (satake_transform(f), satake_by_coset_count(f)):
        assert image.coeffs and all(c in box for nu in image.coeffs
                                    for c in nu), (lam, p)


class TestCachesPerM:
    """What the Hecke layer keeps per (m, p), m = lam - lam_n, read for
    each central shift lam + c, against a fresh computation on lam + c:
    the scanned cosets of lam moved by p^c, minors by cofactors, the
    closed-form charge and a direct Hall-Littlewood expansion."""

    @pytest.mark.parametrize("lam, p", COSET_CASES)
    def test_shifts_read_the_cached_values(self, lam, p):
        n = len(lam)
        scan = hermite_scan_cosets(lam, p)
        # the forms, so their minors and diagonals, are those of lam for
        # every shift
        profile = Counter(minor_profile(form, p) for _, form in scan)
        diagonals = Counter(iwasawa_torus_part(form, p) for _, form in scan)
        fresh = {}
        for c in range(-2, 3):
            lam_c = tuple(x + c for x in lam)
            cosets = sorted((s + c, form) for s, form in scan)
            scale = v_pow(p, -modulus_delta_exponent(lam_c, n))
            counts = Counter(iwasawa_torus_part(matrix(rep, p), p)
                             for rep in cosets)
            fresh[lam_c] = (
                hermite_charge(lam_c, p), cosets,
                {nu: scale * coeff
                 for nu, coeff in hecke._hall_littlewood(lam_c, p)},
                {nu: v_pow(p, modulus_delta_exponent(nu, n)) * k
                 for nu, k in counts.items()})
        clear_hecke_caches()
        for _ in range(2):  # the second pass reads only cached values
            for lam_c, (charge, cosets, image, oracle) in fresh.items():
                m = tuple(x - lam_c[-1] for x in lam_c)
                f = HeckeElement.basis(lam_c, p)
                assert hecke._forms(lam_c, n, p)[2] == charge
                assert sorted(coset_decompose(lam_c, n, p)) == cosets
                assert dict(hecke._profile(m, p)) == profile
                assert dict(hecke._diagonals(m, p)) == diagonals
                assert satake_transform(f).coeffs == image
                assert satake_by_coset_count(f).coeffs == oracle

    def test_callers_cannot_change_a_cached_value(self):
        def frozen(x):
            if isinstance(x, tuple):
                return all(map(frozen, x))
            return isinstance(x, (int, HalfPowerLaurent))

        for lam, p in (((2, 0), 3), ((1, 0, -1), 2)):
            m = tuple(x - lam[-1] for x in lam)
            assert frozen(hecke._profile(m, p))
            assert frozen(hecke._diagonals(m, p))
            assert frozen(hecke._basis_image(m, p))
            # a caller changing a returned element leaves the next as it was
            f = HeckeElement.basis(lam, p)
            square, image = convolve(f, f), satake_transform(f)
            oracle = satake_by_coset_count(f)
            want = (dict(square.support), dict(image.coeffs),
                    dict(oracle.coeffs))
            for d in (square.support, image.coeffs, oracle.coeffs):
                d.clear()
            assert (convolve(f, f).support, satake_transform(f).coeffs,
                    satake_by_coset_count(f).coeffs) == want


class TestConvolution:
    def test_unit(self):
        for p in (2, 3):
            t = HeckeElement.basis((2, 1), p)
            e = HeckeElement.basis((0, 0), p)
            assert convolve(t, e) == t
            assert convolve(e, t) == t

    def test_minuscule_square(self):
        # T_(1,0)^2 = T_(2,0) + (q+1) T_(1,1)
        for p in (2, 3):
            t = HeckeElement.basis((1, 0), p)
            expect = HeckeElement(2, p, {
                (2, 0): 1,
                (1, 1): p + 1,
            })
            assert convolve(t, t) == expect

    def test_central_translation(self):
        for p in (2, 3):
            z = HeckeElement.basis((1, 1), p)
            t = HeckeElement.basis((1, 0), p)
            assert convolve(z, t) == HeckeElement.basis((2, 1), p)

    def test_commutative(self):
        p = 2
        pairs = [((1, 0), (2, 0)), ((1, 0), (2, 1)), ((2, 0), (1, 1))]
        for lam, mu in pairs:
            f = HeckeElement.basis(lam, p)
            g = HeckeElement.basis(mu, p)
            assert convolve(f, g) == convolve(g, f)

    def test_associative(self):
        p = 2
        a = HeckeElement.basis((1, 0), p)
        b = HeckeElement.basis((1, 1), p)
        c = HeckeElement.basis((0, -1), p)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_pairs_checked_against_cap(self):
        # one charge for the pair of factors: the 40 Hermite forms of
        # (2, -1) at p = 3 of each, refused one below their sum before
        # any coset is built
        f = HeckeElement.basis((2, -1), 3)
        with pytest.raises(CapExceeded, match="^80 Hermite forms"):
            convolve(f, f, cap=79)
        assert convolve(f, f, cap=80) == pair_binning_convolve(f, f)

    def test_charged_before_any_coset_is_built(self, monkeypatch):
        # 2^19 - 1 Hermite forms a factor, counted in closed form
        def refuse(m, p):
            raise AssertionError("a coset was built")

        monkeypatch.setattr(hecke, "_members", refuse)
        f = HeckeElement.basis((18, 0), 2)
        with pytest.raises(CapExceeded, match=f"^{2 * (2**19 - 1)} Hermite"):
            convolve(f, f)

    def test_agrees_with_pair_binning(self):
        # every ordered pair: convolve counts the cosets of its left
        # factor, so (lam, mu) and (mu, lam) take different paths to
        # the one product the reference computes
        rank2 = [lam for lam in dominant_box(2, 3)
                 if lam[1] >= -2 and lam[0] - lam[1] <= 4]
        rank3 = dominant_box(3, 1)

        def pairs(lams):
            return [(lam, mu) for i, lam in enumerate(lams)
                    for mu in lams[i:]]

        cases = [(lam, mu, p) for p in (2, 3) for lam, mu in pairs(rank2)]
        cases += [(lam, mu, 2) for lam, mu in pairs(rank3)]
        cases += [(lam, mu, 3) for lam, mu in pairs(rank3)
                  if lam[0] - lam[2] + mu[0] - mu[2] <= 3]
        cases += [((a,), (b,), 5) for a in (-2, 0, 3) for b in (-1, 2)]
        assert len(cases) == 2 * 210 + 55 + 49 + 6
        for lam, mu, p in cases:
            f = HeckeElement.basis(lam, p)
            g = HeckeElement.basis(mu, p)
            expect = pair_binning_convolve(f, g)
            assert convolve(f, g) == expect, (lam, mu, p)
            assert convolve(g, f) == expect, (mu, lam, p)
        f = HeckeElement(2, 2, {(1, 0): 3, (2, -1): v_pow(2, 1)})
        g = HeckeElement(2, 2, {(1, 1): 2, (0, -1): 1})
        assert convolve(f, g) == pair_binning_convolve(f, g)

    def test_large_product_is_fast(self):
        # 972 x 324 coset pairs; a count per coset of the left factor
        # needs no product of them
        f = HeckeElement.basis((6, 0), 3)
        g = HeckeElement.basis((5, 0), 3)
        start = time.monotonic()
        prod = convolve(f, g)
        assert time.monotonic() - start < 0.5
        assert sum(c.a * coset_count(nu, 3)
                   for nu, c in prod.support.items()) == 972 * 324

    def test_gl1(self):
        f = HeckeElement.basis((1,), 3)
        g = HeckeElement.basis((2,), 3)
        assert convolve(f, g) == HeckeElement.basis((3,), 3)

    def test_gl3_central(self):
        z = HeckeElement.basis((1, 1, 1), 2)
        t = HeckeElement.basis((1, 0, 0), 2)
        assert convolve(z, t) == HeckeElement.basis((2, 1, 1), 2)

    def test_degree_law(self):
        # f -> sum_nu f(nu) |K nu K / K| is a ring homomorphism
        p = 2
        doms = dominant_box(2, 2)
        pairs = [(lam, mu) for i, lam in enumerate(doms) for mu in doms[i:]]
        pairs.append(((1, 0, 0), (0, 0, -1)))
        for lam, mu in pairs:
            prod = convolve(HeckeElement.basis(lam, p),
                            HeckeElement.basis(mu, p))
            assert all(c.b == 0 for c in prod.support.values())
            degree = sum(c.a * coset_count(nu, p)
                         for nu, c in prod.support.items())
            assert degree == coset_count(lam, p) * coset_count(mu, p), \
                (lam, mu)


class TestModulus:
    def test_closed_form_exponent(self):
        assert modulus_delta_exponent((1, 0), 2) == -1
        assert modulus_delta_exponent((1, 1), 2) == 0
        assert modulus_delta_exponent((1, 0, 0), 3) == -2
        assert modulus_delta_exponent((2, 1, 0), 3) == -4

    def test_counting_cross_check(self):
        for q in (2, 3):
            assert modulus_delta_by_count((1, 0), 2, q) == v_pow(q, -2)
            assert modulus_delta_by_count((0, 0), 2, q) == v_pow(q, 0)
            assert modulus_delta_by_count((2, -1), 2, q) == v_pow(q, -6)
            assert modulus_delta_by_count((1, 0, -1), 3, q) == v_pow(q, -8)


class TestTransformGl2:
    def test_cached_image_cannot_change(self):
        # the per-(mu, q) basis image is cached: changing one returned
        # image must leave the next transform of the same element as it was
        for lam, p in (((1, 0), 3), ((2, 0, -2), 2)):
            f = HeckeElement.basis(lam, p)
            expected = satake_by_coset_count(f)
            img = satake_transform(f)
            assert img == expected
            nu, c = next(iter(img.coeffs.items()))
            for name in ("A", "B", "D", "q"):
                with pytest.raises(AttributeError):
                    setattr(c, name, 5)
            img.coeffs[nu] = c + 1
            img.coeffs.clear()
            assert satake_transform(f) == expected

    def test_scalar_coefficients(self):
        # an int or a Fraction coefficient is the scalar it stands for
        half = Fraction(1, 2)
        assert SatakeImage(2, 3, {(0, 0): half}).coeffs \
            == {(0, 0): half}
        assert HeckeElement(2, 3, {(0, 0): half, (1, 0): 0}).support \
            == {(0, 0): half}

    def test_unit(self):
        for p in (2, 3):
            img = satake_transform(HeckeElement.basis((0, 0), p))
            assert img == SatakeImage(2, p, {(0, 0): 1})

    def test_minuscule(self):
        for p in (2, 3):
            img = satake_transform(HeckeElement.basis((1, 0), p))
            assert img == SatakeImage(2, p, {
                (1, 0): v_pow(p, 1),
                (0, 1): v_pow(p, 1),
            })

    def test_central(self):
        for p in (2, 3):
            img = satake_transform(HeckeElement.basis((1, 1), p))
            assert img == SatakeImage(2, p, {(1, 1): 1})

    def test_weight_two(self):
        p = 2
        img = satake_transform(HeckeElement.basis((2, 0), p))
        assert img == SatakeImage(2, p, {
            (2, 0): v_pow(p, 2),
            (0, 2): v_pow(p, 2),
            (1, 1): p - 1,
        })

    def test_homomorphism(self):
        for p in (2, 3):
            f = HeckeElement.basis((1, 0), p)
            g = HeckeElement.basis((1, 1), p)
            lhs = satake_transform(convolve(f, f))
            assert lhs == satake_transform(f) * satake_transform(f)
            lhs = satake_transform(convolve(f, g))
            assert lhs == satake_transform(f) * satake_transform(g)
        # (x1 - x2)(x1 + x2): the x1 x2 terms cancel to a zero that only
        # the normaliser drops
        square = (SatakeImage(2, 2, {(1, 0): 1, (0, 1): -1})
                  * SatakeImage(2, 2, {(1, 0): 1, (0, 1): 1}))
        assert square == SatakeImage(2, 2, {(2, 0): 1, (0, 2): -1})
        assert (1, 1) not in square.coeffs

    def test_homomorphism_negative_support(self):
        p = 2
        f = HeckeElement.basis((0, -1), p)
        g = HeckeElement.basis((1, 0), p)
        lhs = satake_transform(convolve(f, g))
        assert lhs == satake_transform(f) * satake_transform(g)

    def test_weyl_invariance(self):
        for lam in [(1, 0), (2, 0), (2, 1), (2, -1)]:
            img = satake_transform(HeckeElement.basis(lam, 3))
            assert img.weyl_invariant()

    def test_triangular_leading_term(self):
        # coefficient at a strictly dominant lam is v^(lam1 - lam2)
        for p in (2, 3):
            for lam in [(1, 0), (2, 0), (2, 1), (1, -1)]:
                img = satake_transform(HeckeElement.basis(lam, p))
                assert img.coeffs[lam] == v_pow(p, lam[0] - lam[1])

    def test_oracle_agreement(self):
        for p in (2, 3):
            for lam in [(1, 0), (1, 1), (2, 0), (2, 1)]:
                f = HeckeElement.basis(lam, p)
                assert satake_transform(f) == satake_by_coset_count(f)

    def test_oracle_agreement_combination(self):
        p = 2
        f = HeckeElement(2, p, {(1, 0): 3, (1, 1): v_pow(p, 1)})
        assert satake_transform(f) == satake_by_coset_count(f)

    def test_gl1_identity_map(self):
        f = HeckeElement(1, 5, {(2,): 7, (-1,): 1})
        img = satake_transform(f)
        assert img.coeffs[(2,)] == 7 and img.coeffs[(-1,)] == 1


class TestTransformGl3:
    def test_minuscule(self):
        for p in (2, 3):
            t = HeckeElement.basis((1, 0, 0), p)
            img = satake_transform(t)
            expect = SatakeImage(3, p, {
                (1, 0, 0): v_pow(p, 2),
                (0, 1, 0): v_pow(p, 2),
                (0, 0, 1): v_pow(p, 2),
            })
            assert img == expect

    def test_central(self):
        t = HeckeElement.basis((1, 1, 1), 2)
        img = satake_transform(t)
        assert img == SatakeImage(3, 2, {(1, 1, 1): 1})

    def test_oracle_agreement(self):
        # the whole box |lam_i| <= 2, but for two lam at p = 3 whose
        # check alone takes about 1 s and 3 s
        slow = {(2, 1, -2), (2, 2, -2)}
        cases = [(lam, 2) for lam in dominant_box(3, 2)]
        cases += [(lam, 3) for lam in dominant_box(3, 2) if lam not in slow]
        for lam, p in cases:
            t = HeckeElement.basis(lam, p)
            assert satake_transform(t) \
                == satake_by_coset_count(t), (lam, p)

    def test_homomorphism_with_central(self):
        z = HeckeElement.basis((1, 1, 1), 2)
        t = HeckeElement.basis((1, 0, 0), 2)
        lhs = satake_transform(convolve(z, t))
        rhs = satake_transform(z) \
            * satake_transform(t)
        assert lhs == rhs

    def test_homomorphism_minuscule_pair(self):
        t = HeckeElement.basis((1, 0, 0), 2)
        u = HeckeElement.basis((0, 0, -1), 2)
        lhs = satake_transform(convolve(t, u))
        rhs = satake_transform(t) \
            * satake_transform(u)
        assert lhs == rhs


class TestRhoPoint:
    def test_degree_is_coset_count(self):
        # needs no enumeration, so it reaches the lam the oracle's cap
        # excludes; it tells t = 1/q from t = q and sees v_lam(t)
        cases = [(lam, p) for p in (2, 3) for lam in dominant_box(1, 3)]
        cases += [(lam, p) for p in (2, 3, 5) for lam in dominant_box(2, 3)]
        cases += [(lam, p) for p in (2, 3) for lam in dominant_box(3, 2)]
        cases += [(lam, 2) for lam in dominant_box(3, 3)]
        assert len(cases) == 252
        for lam, p in cases:
            image = satake_transform(HeckeElement.basis(lam, p))
            assert rho_point(image) == coset_count(lam, p), (lam, p)


class TestChiT:
    def test_minuscule_character(self):
        alpha, beta, v = sympy.symbols("alpha beta v")
        img = satake_transform(HeckeElement.basis((1, 0), 2))
        expr = chi_t(img, (alpha, beta))
        assert sympy.expand(expr - v * (alpha + beta)) == 0

    def test_central_character(self):
        alpha, beta = sympy.symbols("alpha beta")
        img = satake_transform(HeckeElement.basis((1, 1), 2))
        assert sympy.expand(chi_t(img, (alpha, beta)) - alpha * beta) == 0

    def test_multiplicative(self):
        alpha, beta = sympy.symbols("alpha beta")
        f = HeckeElement.basis((1, 0), 3)
        g = HeckeElement.basis((1, 1), 3)
        lhs = chi_t(satake_transform(convolve(f, g)),
                    (alpha, beta))
        rhs = chi_t(satake_transform(f), (alpha, beta)) \
            * chi_t(satake_transform(g), (alpha, beta))
        assert sympy.expand(lhs - rhs) == 0

    def test_zero_entry_rejected(self):
        img = satake_transform(HeckeElement.basis((1, 0), 2))
        with pytest.raises(ZeroEntry):
            chi_t(img, (0, 1))
