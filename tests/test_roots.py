import argparse
import itertools
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from glnlab import cli, roots
from glnlab.errors import CapExceeded, NonIntegral
from glnlab.roots import (
    CartanMatrix,
    _leading_minors,
    _symmetrizer,
    cartan_matrix,
    check_root_system,
    ds_decompose,
    full_root_set_gl,
    inner,
    mahonian,
    pairing,
    reflect,
    check_type_a,
    simple_roots_gl,
    weyl_group,
)

# concrete G2 simple system: short root then long root, standard dot product
G2_SIMPLE = [(1, -1, 0), (-1, 2, -1)]
G2_MATRIX = ((2, -3), (-1, 2))


def det_by_elimination(rows):
    """Determinant by Gaussian elimination with row swaps, over Fraction."""
    rows = [list(map(Fraction, r)) for r in rows]
    k = len(rows)
    det = Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, k):
            f = rows[r][c] / rows[c][c]
            for cc in range(c, k):
                rows[r][cc] -= f * rows[c][cc]
    return det


def minors_by_determinants(S):
    """Each leading principal minor from its own determinant."""
    return [det_by_elimination([row[:m] for row in S[:m]])
            for m in range(1, len(S) + 1)]


def reflection_matrix(alpha, n):
    """Columns are the reflected standard basis vectors."""
    cols = [reflect(alpha, tuple(int(i == j) for i in range(n)))
            for j in range(n)]
    return tuple(tuple(int(cols[j][i]) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                 for row in a)


def weyl_group_by_matrices(simple):
    """Closure of the reflection matrices under right multiplication, by
    BFS: {matrix: reduced word}."""
    n = len(simple[0])
    gens = [reflection_matrix(a, n) for a in simple]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for gi, g in enumerate(gens):
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen[prod] = seen[m] + (gi,)
                    new.append(prod)
        frontier = new
    return seen


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

    @staticmethod
    def ds_verdict(monkeypatch, dec, minors):
        """Does the cartan claim's D*S verdict pass on dec and minors?"""
        monkeypatch.setattr(roots, "ds_decompose",
                            lambda simple: (dec, minors))
        report = cli.cmd_cartan(argparse.Namespace(preset="g2", n=None,
                                                   cap=10**6))
        return report["verdicts"][0]["status"] == "pass"

    def test_singular_rejected(self, monkeypatch):
        # dependent simple roots give the affine A1 matrix, minors 2, 0:
        # ds_decompose reports them, and the verdict refuses them
        dec, minors = ds_decompose([(1, -1), (-1, 1)])
        assert minors == [Fraction(2), Fraction(0)]
        assert not self.ds_verdict(monkeypatch, dec, minors)

    def test_verdict_checks_each_part(self, monkeypatch):
        # D*S = A, S symmetric, and every leading minor positive
        dec, minors = ds_decompose(G2_SIMPLE)
        A = dec.entries
        for wrong in [(CartanMatrix(A, (1, 1), dec.S), minors),
                      (CartanMatrix(A, (1, 1), A), minors),
                      (dec, minors[:1]), (dec, [minors[0], 0])]:
            assert not self.ds_verdict(monkeypatch, *wrong)
        assert self.ds_verdict(monkeypatch, dec, minors)


class TestLeadingMinors:
    def test_type_a_against_determinants(self):
        for n in range(2, 16):
            S = ds_decompose(simple_roots_gl(n))[0].S
            assert _leading_minors(S) == minors_by_determinants(S) \
                == [m + 1 for m in range(1, n)]

    def test_random_symmetric_up_to_first_nonpositive(self):
        rng = random.Random(0)
        stopped = 0
        for _ in range(300):
            k = rng.randint(1, 6)
            S = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    S[i][j] = S[j][i] = Fraction(rng.randint(-4, 6),
                                                 rng.randint(1, 3))
            minors = _leading_minors(S)
            full = minors_by_determinants(S)
            cut = next((m + 1 for m, d in enumerate(full) if d <= 0), k)
            assert minors == full[:cut]
            stopped += cut < k
        assert stopped > 50  # the early stop is exercised

    def test_stops_after_first_nonpositive(self):
        # minors 2, -5, -20: only the first two are reported
        A = ((2, -3, -1), (-3, 2, -1), (-1, -1, 2))
        assert _leading_minors(A) == [2, -5]


class TestCartanPredicates:
    """The two tests behind ds_decompose: a positive symmetrizer D, then
    positive leading minors of S = D^-1 A."""

    def test_g2(self):
        assert _symmetrizer(G2_MATRIX) == (3, 1)
        S = [[Fraction(a, d) for a in row]
             for row, d in zip(G2_MATRIX, (3, 1))]
        assert all(m > 0 for m in _leading_minors(S))

    def test_asymmetric_zero(self):
        # a[0][1] = 0 but a[1][0] != 0: no D makes D^-1 A symmetric
        assert _symmetrizer(((2, 0), (-1, 2))) is None

    def test_affine_a1_not_cartan(self):
        A = ((2, -2), (-2, 2))
        assert _symmetrizer(A) == (1, 1)
        assert _leading_minors(A) == [2, 0]


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

    def test_int_input_gives_no_float(self):
        for u in full_root_set_gl(3) + G2_SIMPLE:
            for v in full_root_set_gl(3) + G2_SIMPLE:
                assert type(inner(u, v)) is int
                assert all(type(c) in (int, Fraction) for c in reflect(u, v))
                try:
                    assert type(pairing(u, v)) is int
                except NonIntegral:
                    pass
        for simple in (G2_SIMPLE, simple_roots_gl(4)):
            cm, minors = ds_decompose(simple)
            values = list(cm.D) + [x for row in cm.S for x in row] + minors
            assert all(type(x) is Fraction for x in values)

    def test_reflect_involution_preserves_form(self):
        roots = full_root_set_gl(3)
        for a in roots:
            for b in roots:
                assert reflect(a, reflect(a, b)) == tuple(map(Fraction, b))
                for c in roots:
                    assert inner(reflect(a, b), reflect(a, c)) == inner(b, c)


def reference_rank(vectors):
    """The rank by Gauss-Jordan elimination over Fraction."""
    rows = [list(map(Fraction, v)) for v in vectors]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                for cc in range(cols):
                    rows[i][cc] -= f * rows[r][cc]
        r += 1
    return r


def reference_check_root_system(roots):
    """The axiom report on the vectors as given: every pairing a Fraction
    in the primed pass, every pair's reflection looked up, and
    reducedness by comparing each pair's coordinates."""
    roots = [tuple(v) for v in roots]
    n = len(roots[0])
    report = {}

    rank = reference_rank(roots)
    report["spans"] = (rank == n)
    report["span_codimension"] = n - rank
    rootset = set(roots)

    reduced = True
    for a in roots:
        k = next(i for i, y in enumerate(a) if y != 0)
        for b in roots:
            if a == b:
                continue
            if all((x == 0) == (y == 0) and x * a[k] == y * b[k]
                   for x, y in zip(b, a)) and b[k] != -a[k]:
                reduced = False
    report["reduced"] = reduced

    closed = crystallographic = True
    for a in roots:
        den = inner(a, a)
        for b in roots:
            num = 2 * inner(a, b)
            c, rest = divmod(num, den)
            if rest:
                crystallographic = False
                c = Fraction(num, den)
            if tuple(y - c * x for x, y in zip(a, b)) not in rootset:
                closed = False
    report["reflection_closed"] = closed
    report["crystallographic"] = crystallographic

    closed_prime = True
    integral_prime = True
    for a in roots:
        norm = inner(a, a)
        for b in roots:
            c = Fraction(2 * inner(a, b), norm)
            if c.denominator != 1:
                integral_prime = False
            else:
                c = int(c)
            if tuple(x - c * y for x, y in zip(b, a)) not in rootset:
                closed_prime = False
    report["reflection_closed_prime"] = closed_prime
    report["crystallographic_prime"] = integral_prime
    report["primed_agree"] = (closed == closed_prime
                              and crystallographic == integral_prime)
    report["all_pass_in_span"] = (reduced and closed and crystallographic)
    return report


def with_negatives(pos):
    return list(pos) + [tuple(-x for x in v) for v in pos]


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
G2_ROOTS = full_root_set_gl(3) + with_negatives(
    [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)])
B2_ROOTS = with_negatives([(1, 0), (0, 1), (1, 1), (1, -1)])
C2_ROOTS = with_negatives([(2, 0), (0, 2), (1, 1), (1, -1)])
# the root sets of the oracle: type A, G2, B2 and C2, non-reduced sets,
# rational vectors, and sets that do not span, are not crystallographic
# or are not closed
ORACLE_SETS = {f"A{n - 1} in Z^{n}": full_root_set_gl(n) for n in range(2, 8)}
ORACLE_SETS.update({
    "G2": G2_ROOTS, "B2": B2_ROOTS, "C2": C2_ROOTS,
    "BC1": with_negatives([(1, 0), (2, 0)]),
    "BC2": B2_ROOTS + with_negatives([(2, 0), (0, 2)]),
    "v, 2v, 3v": with_negatives([(1, -1), (2, -2), (3, -3)]),
    "v, 2v without -v": [(1, 1), (2, 2), (-2, -2)],
    "v and 2v alone": [(1, 0), (2, 0)],
    "repeated roots": B2_ROOTS + B2_ROOTS[:3],
    "G2 over 2": [tuple(HALF * x for x in v) for v in G2_ROOTS],
    "B2 over 3": [tuple(THIRD * x for x in v) for v in B2_ROOTS],
    "A1 at a half": [(HALF, HALF), (-HALF, -HALF)],
    "mixed ints and Fractions": [(1, 0), (-1, 0), (HALF, 0), (-HALF, 0),
                                 (0, Fraction(2, 3)), (0, Fraction(-2, 3))],
    "A1 in Z^3": with_negatives([(1, -1, 0)]),
    "A1 x A1 in Z^4": with_negatives([(1, -1, 0, 0), (0, 0, 1, -1)]),
    "pairing 4/5": with_negatives([(1, 0), (1, 2)]),
    "B2 long roots twice too long": with_negatives(
        [(1, 0), (0, 1), (2, 2), (2, -2)]),
    "not closed": with_negatives([(1, 0), (0, 1), (1, 1)]),
    "A2 missing a root": full_root_set_gl(3)[:-1],
})


def random_sets(count, seed=5):
    """Seeded small sets of small nonzero int vectors, some with their
    negatives and multiples."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        vs = set()
        while len(vs) < rng.randint(1, 6):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                vs.add(v)
        vs = sorted(vs)
        if rng.random() < 0.5:
            vs = with_negatives(vs)
        if rng.random() < 0.3:
            vs.append(tuple(2 * x for x in vs[0]))
        out.append(vs)
    return out


class TestRootSystemOracle:
    """check_root_system (on ints, fraction-free rank) gives the whole
    report of the Fraction reference."""

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_named_sets(self, name):
        vectors = ORACLE_SETS[name]
        assert check_root_system(vectors) \
            == reference_check_root_system(vectors)
        # _rank takes the set scaled to ints, as check_root_system has it
        k = math.lcm(*(x.denominator for v in vectors for x in v))
        assert roots._rank([[int(x * k) for x in v] for v in vectors]) \
            == reference_rank(vectors)

    def test_random_sets(self):
        for vectors in random_sets(300):
            assert check_root_system(vectors) \
                == reference_check_root_system(vectors), vectors

    def test_sets_cover_each_failure(self):
        reports = [reference_check_root_system(r)
                   for r in ORACLE_SETS.values()]
        for key in ("spans", "reduced", "reflection_closed",
                    "crystallographic"):
            assert {rep[key] for rep in reports} == {True, False}, key


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
        for roots in (a1_2a1, [(half, 0), (-half, 0), (1, 0), (-1, 0)]):
            report = check_root_system(roots)
            assert not report["reduced"]

    def test_a2_and_g2_under_their_forms(self):
        # in the sum-zero plane of Z^3, where the dot product is their
        # form: the long roots of G2 (an A2 three times longer) and G2
        long_a2 = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        long_a2 += [tuple(-c for c in v) for v in long_a2]
        for roots in (long_a2, full_root_set_gl(3) + long_a2):
            report = check_root_system(roots)
            assert report["span_codimension"] == 1
            assert report["reduced"]
            assert report["reflection_closed"]
            assert report["crystallographic"]
            assert report["primed_agree"]

    def test_failures_under_a_form(self):
        report = check_root_system([(1, 0), (-1, 0), (1, 2), (-1, -2)])
        assert report["reduced"]
        assert not report["reflection_closed"]
        assert not report["crystallographic"]
        assert report["primed_agree"]
        # B2 with long roots twice too long: closed, pairings in (1/2)Z
        pos = [(1, 0), (0, 1), (2, 2), (2, -2)]
        report = check_root_system(pos + [(-a, -b) for a, b in pos])
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


def inversions(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2))


class TestWeylGroup:
    def test_a1(self):
        assert weyl_group([(1, -1)]) == [1, 1]

    def test_orders_are_factorials(self):
        for n in range(2, 7):
            assert sum(weyl_group(simple_roots_gl(n))) == math.factorial(n)

    def test_matrix_bfs_oracle(self):
        # the layers are the word-length distribution of the closure of
        # the reflection matrices
        for n in range(2, 6):
            simple = simple_roots_gl(n)
            words = weyl_group_by_matrices(simple).values()
            lengths = Counter(map(len, words))
            assert weyl_group(simple) \
                == [lengths[k] for k in range(len(lengths))]

    def test_layers_are_inversion_counts(self):
        for n in range(1, 8):
            counts = Counter(map(inversions, itertools.permutations(range(n))))
            want = [counts[k] for k in range(n * (n - 1) // 2 + 1)]
            assert mahonian(n) == want
            if n >= 2:
                assert weyl_group(simple_roots_gl(n)) == want

    def test_parabolic_subgroup(self):
        # s_0 and s_2 of S_4 commute: lengths 0, 1, 1, 2
        assert weyl_group(simple_roots_gl(4)[::2]) == [1, 2, 1]

    def test_order_checked_before_enumeration(self):
        # check_type_a charges n! once, before any root is built
        start = time.monotonic()
        for n in (10, 12, 1000, 100000):
            with pytest.raises(CapExceeded):
                check_type_a(n)
        with pytest.raises(CapExceeded):
            check_type_a(5, cap=119)
        assert check_type_a(5, cap=120)[1] == 120
        assert time.monotonic() - start < 1.0

    def test_non_permuting_reflection_rejected(self):
        with pytest.raises(ValueError):
            weyl_group(G2_SIMPLE)
        with pytest.raises(ValueError):
            weyl_group([(2, 0)])
        # a transposition of coordinates 0 and 2 is not a simple reflection
        with pytest.raises(ValueError, match="not an adjacent swap"):
            weyl_group([(1, 0, -1)])

    def test_type_a_check(self):
        for n in range(2, 7):
            checks, order, axioms_hold, order_is_factorial = check_type_a(n)
            assert checks == check_root_system(full_root_set_gl(n))
            assert order == math.factorial(n)
            assert axioms_hold and order_is_factorial
        with pytest.raises(CapExceeded):
            check_type_a(10 ** 9)

    def test_type_a_check_reads_the_layers(self, monkeypatch):
        # a closure of order n! with the wrong layers fails the check
        from glnlab import roots
        monkeypatch.setattr(roots, "weyl_group",
                            lambda simple: [1, 3, 1, 1])
        _, order, _, order_is_factorial = check_type_a(3)
        assert order == 6 and not order_is_factorial
