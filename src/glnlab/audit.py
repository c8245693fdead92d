"""The paper audit: one check function per acceptance criterion.

``CRITERIA`` is the ordered table of the ten criteria.  ``glnlab suite
paper-audit`` reports one verdict per row, and ``tests/test_acceptance.py``
runs each row's check under a runtime budget.  A check takes
``(cap, seed)`` and returns ``(ok, detail)``; detail is None except for
the documented finding, whose row passes as ``documented`` exactly when
the finding is reproduced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import building, hecke, lang, lfactor, roots
from .hecke import HeckeElement, SatakeImage
from .lfactor import DualRep, SatakeParameter
from .rings import FiniteField, HalfPowerLaurent

G2_SIMPLE = ((1, -1, 0), (-1, 2, -1))


class Criterion(NamedTuple):
    name: str
    anchor: str
    check: Callable
    documented: bool = False


def ds_factorization_ok(dec, minors):
    """A = D*S with S symmetric and all its leading minors positive."""
    return (tuple(tuple(d * x for x in row) for d, row in zip(dec.D, dec.S))
            == dec.entries and dec.S == tuple(zip(*dec.S))
            and len(minors) == len(dec.S) and all(m > 0 for m in minors))


def g2_factorization_ok(dec, minors):
    """The triple-bond matrix is diag(3, 1) * [[2/3, -1], [-1, 2]]."""
    return (dec.entries == ((2, -3), (-1, 2))
            and dec.D == (3, 1)
            and dec.S == ((Fraction(2, 3), -1), (-1, 2))
            and list(minors) == [Fraction(2, 3), Fraction(1, 3)])


def g2_cartan(cap, seed):
    return g2_factorization_ok(*roots.ds_decompose(G2_SIMPLE)), None


def root_axioms(cap, seed):
    ok = True
    for n in range(2, 7):
        _, _, axioms_hold, order_is_factorial = roots.check_type_a(n, cap)
        ok &= axioms_hold and order_is_factorial
    return ok, None


def h1_triviality(cap, seed):
    ok = True
    # GL_1(F_9); GL_1 and GL_2 at levels 1 and 2 of the quadratic
    # unramified tower over Z/4, with the congruence kernel between them
    for s, p, d, top in [(1, 3, 2, 1), (1, 2, 2, 2), (2, 2, 2, 2)]:
        tower = lang.h1_level_tower(s, p, d, top, cap)
        ok &= all(l["h1_size"] == 1 and l["cocycle_count"]
                  == lang.fixed_index(s, p, d, l["level"])
                  for l in tower["levels"]) and tower["compatible"]
        ok &= all(k["h1_size"] == 1 for k in tower["kernels"])
    return ok, None


def lang_image_size(cap, seed):
    # the fibres of the Lang map are the cosets of GL_s(F_p)
    return all(len(lang.lang_image(FiniteField(p, d, cap), s, cap))
               == lang.fixed_index(s, p, d)
               for p, d, s in [(2, 2, 1), (3, 2, 1), (2, 3, 1),
                               (2, 2, 2)]), None


def class_count_bijection(cap, seed):
    ok = True
    # (2, 4, 1) needs diag(w), w of order 3, among the plain generators
    for s, q, n in [(1, 2, 2), (1, 3, 2), (2, 2, 2), (2, 4, 1)]:
        rep = lang.dm_bijection_check(s, q, n, cap=cap)
        ok &= rep["bijective"] \
            and rep["plain_class_count"] == lang.gl_class_count(s, q)
    return ok, None


def simplex_counts(cap, seed):
    ok = [len(building.fundamental_simplices(n, cap)) for n in (2, 3, 5)] \
        == [3, 7, 31]
    base = building.stabilizer_pattern((0,), 3)
    ok &= base.conjugate((1, 0, 0)).entries \
        == ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
    ok &= base.conjugate((0, 1, 0)).entries \
        == ((0, -1, 0), (1, 0, 1), (0, -1, 0))
    ok &= base.conjugate((0, 0, 1)).entries \
        == ((0, 0, -1), (0, 0, -1), (1, 1, 0))
    return ok, None


def iwasawa_reconstruction(cap, seed):
    ok = building.iwasawa_sample_failures(2, 6, 1000, random.Random(seed),
                                          cap=cap) == 0
    ok &= all(building.iwasawa_failures(f, lang.gl_elements(f, 2, cap)) == 0
              for f in (FiniteField(2, 1, cap), FiniteField(3, 1, cap)))
    return ok, None


def ub_coverage_gap(cap, seed):
    rep = building.audit_ub_factorization(2, 2, cap=cap)
    found = (rep["product_set_size"] == 4 and rep["group_order"] == 6
             and not rep["covers"] and (0, 1, 1, 0) in rep["counterexamples"])
    return found, {"product_set_size": rep["product_set_size"],
                   "group_order": rep["group_order"]}


def satake_identities(cap, seed):
    transform = hecke.satake_transform
    ok = True
    for p in (2, 3):
        v1 = HalfPowerLaurent.v_power(p, 1)
        t10 = HeckeElement.basis((1, 0), p)
        img = transform(t10)
        ok &= img == SatakeImage(2, p, {(1, 0): v1, (0, 1): v1})
        ok &= transform(HeckeElement.basis((1, 1), p)) \
            == SatakeImage(2, p, {(1, 1): 1})
        square = hecke.convolve(t10, t10, cap)
        ok &= square == HeckeElement(2, p, {(2, 0): 1, (1, 1): p + 1})
        ok &= transform(square, box_bound=2) == img * img
        doms = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a >= b]
        for i, lam in enumerate(doms):
            for mu in doms[i:]:
                f = HeckeElement.basis(lam, p)
                g = HeckeElement.basis(mu, p)
                bb = f.bound() + g.bound()
                lhs = transform(hecke.convolve(f, g, cap), box_bound=bb)
                rhs = transform(f, box_bound=bb) * transform(g, box_bound=bb)
                ok &= lhs == rhs and lhs.weyl_invariant()
        ok &= hecke.satake_by_coset_count(t10, cap=cap) == img
    return ok, None


def l_factor_shape(fac, dim):
    """(degree dim, constant term one): the lfactor verdicts, criterion 10."""
    return (fac.degree() == dim,
            fac.coefficient(0) == {(0,) * len(fac.names): 1})


def l_factor_shape_ok(rho, t):
    """Degree dim(rho) and constant term one."""
    return all(l_factor_shape(lfactor.l_factor(rho, t), rho.dimension(t.n)))


def local_factors(cap, seed):
    t3 = SatakeParameter(("alpha", "beta", "gamma"), 3)
    ok = all(l_factor_shape_ok(rho, t3) for rho in [
        DualRep("standard"), DualRep("dual"), DualRep("sym", 2),
        DualRep("wedge", 2), DualRep("wedge", 3)])
    for d in (2, 3):
        # 1 - alpha^d X^d
        ok &= lfactor.conjugate_orbit_product("alpha", d) \
            == {(0, (0,)): 1, (d, (d,)): -1}
    ok &= lfactor.rankin_selberg(
        SatakeParameter(("alpha", "beta"), 2),
        SatakeParameter(("gamma", "delta"), 2)).degree() == 4
    for p in (2, 3):
        # the X coefficient of the standard factor at (alpha, beta) is
        # minus the character of T_(1,0) at that point, over v; the
        # names are sorted, so exponent tuples are the weights lambda
        acc = lfactor.l_factor(
            DualRep("standard"),
            SatakeParameter(("alpha", "beta"), p)).coefficient(1)
        v_inv = HalfPowerLaurent.v_power(p, -1)
        image = hecke.satake_transform(HeckeElement.basis((1, 0), p))
        for lam, c in image.coeffs.items():
            acc[lam] = c * v_inv + acc.get(lam, 0)
        ok &= all(c == 0 for c in acc.values())
    return ok, None


CRITERIA = (
    Criterion("triple-bond Cartan matrix factors with positive leading "
              "minors 2/3 and 1/3", "claim:g2-cartan-factorization",
              g2_cartan),
    Criterion("type-A root sets satisfy the axioms and give factorial Weyl "
              "orders", "claim:root-axioms", root_axioms),
    Criterion("first cohomology is trivial in every finite quotient tested",
              "claim:h1-triviality", h1_triviality),
    Criterion("rank-1 and rank-2 Lang image sizes follow the "
              "quotient-by-fixed-points law", "claim:lang-image-size",
              lang_image_size),
    Criterion("plain and twisted class counts agree with explicit matchings",
              "claim:twisted-conjugacy-bijection", class_count_bijection),
    Criterion("simplex counts are 3, 7, 31 and diagonal conjugation shifts "
              "patterns as displayed", "claim:simplex-count", simplex_counts),
    Criterion("random and exhaustive samples factor exactly as triangular "
              "times integral", "claim:iwasawa-exact-reconstruction",
              iwasawa_reconstruction),
    Criterion("residue-level product set covers 4 of 6 with the coordinate "
              "swap as counterexample", "claim:ub-residue-coverage-gap",
              ub_coverage_gap, documented=True),
    Criterion("transform values, homomorphism property, and the minuscule "
              "convolution identity all hold",
              "claim:satake-oracle-agreement", satake_identities),
    Criterion("degree, base-change, pairing, and character-linkage "
              "identities hold symbolically", "claim:lfactor-degree",
              local_factors),
)


def random_oracle(cap, seed):
    """Seeded random rank-2 basis elements against the coset-count oracle."""
    rng = random.Random(seed)
    ok = True
    for _ in range(5):
        p = rng.choice([2, 3])
        lam = tuple(sorted((rng.randint(-2, 2), rng.randint(-2, 2)),
                           reverse=True))
        f = HeckeElement.basis(lam, p)
        ok &= hecke.satake_transform(f) == hecke.satake_by_coset_count(
            f, cap=cap)
    return ok, None


RANDOM_ORACLE = Criterion(
    "seeded random basis elements agree with the coset-count oracle",
    "claim:satake-oracle-agreement", random_oracle)
