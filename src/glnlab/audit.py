"""The paper audit: one check function per acceptance criterion.

``CRITERIA`` is the ordered table of the ten criteria.  ``glnlab suite
paper-audit`` reports one verdict per row, and ``tests/test_acceptance.py``
runs each row's check under a runtime budget.  A check takes
``(cap, seed)`` and returns ``(ok, detail)``.  It runs the subcommand
claim that issues its anchor (a function of ``glnlab.cli``) on a list of
configurations, plus the identities that no subcommand reports; ok is
that every verdict collected passes or documents its finding and every
identity holds.  detail is None except for the documented finding: its
row reads ``documented`` exactly when the finding is reproduced.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from . import building, cli, hecke, lang, lfactor
from .hecke import HeckeElement, SatakeImage
from .rings import FiniteField, HalfPowerLaurent


class Criterion(NamedTuple):
    name: str
    anchor: str
    check: Callable


def run_claim(claim, argv, cap, seed=0):
    """The report of the subcommand claim ``claim`` (a function of
    ``glnlab.cli``) on the configuration that argv parses to."""
    return claim(cli.parse(
        ["--cap", str(cap), "--seed", str(seed)] + argv.split()))


def g2_cartan(cap, seed):
    return cli.holds(run_claim(cli.cmd_cartan, "cartan --preset g2",
                               cap)), None


def root_axioms(cap, seed):
    return cli.holds(*[run_claim(cli.cmd_roots, f"roots --n {n}", cap)
                       for n in range(2, 7)]), None


def h1_triviality(cap, seed):
    levels, ok = [], True
    # GL_1(F_9); GL_1 and GL_2 at levels 1 and 2 of the quadratic
    # unramified tower over Z/4, with the congruence kernel between them
    for s, p, d, top in [(1, 3, 2, 1), (1, 2, 2, 2), (2, 2, 2, 2)]:
        tower = lang.h1_level_tower(s, p, d, top, cap)
        levels += [cli.h1_level(ring, s, cocycles)
                   for ring, cocycles in tower["levels"]]
        ok &= tower["compatible"] \
            and all(k["h1_size"] == 1 for k in tower["kernels"])
    return cli.holds(*levels) and ok, None


def lang_image_size(cap, seed):
    # the fibres of the Lang map are the cosets of GL_s(F_p)
    return cli.holds(*[
        run_claim(cli.cmd_lang, f"lang --p {p} --d {d} --s {s}", cap)
        for p, d, s in [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 2, 2)]]), None


def class_count_bijection(cap, seed):
    # (2, 4, 1) needs diag(w), w of order 3, among the plain generators;
    # (2, 3, 1) is the one rank-2 row in odd characteristic, where a lost
    # sign in a determinant changes the classes
    return cli.holds(*[
        run_claim(cli.cmd_dm_check, f"dm-check --s {s} --q {q} --n {n}", cap)
        for s, q, n in [(1, 2, 2), (1, 3, 2), (2, 2, 2), (2, 4, 1),
                        (2, 3, 1)]]), None


def simplex_counts(cap, seed):
    ok = cli.holds(*[run_claim(cli.cmd_building,
                               f"building simplices --n {n}", cap)
                     for n in (2, 3, 5)])
    base = building.stabilizer_pattern((0,), 3)
    ok &= base.conjugate((1, 0, 0)).entries \
        == ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
    ok &= base.conjugate((0, 1, 0)).entries \
        == ((0, -1, 0), (1, 0, 1), (0, -1, 0))
    ok &= base.conjugate((0, 0, 1)).entries \
        == ((0, 0, -1), (0, 0, -1), (1, 1, 0))
    return ok, None


def iwasawa_reconstruction(cap, seed):
    ok = cli.holds(run_claim(cli.cmd_building, "building iwasawa --p 2 "
                             "--precision 6 --count 1000", cap, seed))
    ok &= all(building.iwasawa_failures(f, lang.gl_elements(f, 2, cap)) == 0
              for f in (FiniteField(2, 1, cap), FiniteField(3, 1, cap)))
    return ok, None


def ub_coverage_gap(cap, seed):
    rep = run_claim(cli.cmd_building, "building ub-audit --n 2 --p 2", cap)
    # the coordinate swap is not a product u*b
    swap = [["0", "1"], ["1", "0"]] in rep["results"]["counterexamples"]
    return cli.holds(rep) and swap, rep["verdicts"][0].get("detail")


def satake_identities(cap, seed):
    transform = hecke.satake_transform
    ok = True
    for p in (2, 3):
        v1 = HalfPowerLaurent.v_power(p, 1)
        img = SatakeImage(2, p, {(1, 0): v1, (0, 1): v1})
        rep = run_claim(cli.cmd_satake, f"satake --n 2 --p {p} --lam 1,0",
                        cap)
        ok &= cli.holds(rep) and rep["results"]["image"] \
            == cli.ser_by_weight(img.coeffs)
        t10 = HeckeElement.basis((1, 0), p)
        ok &= transform(HeckeElement.basis((1, 1), p)) \
            == SatakeImage(2, p, {(1, 1): 1})
        square = hecke.convolve(t10, t10, cap)
        ok &= square == HeckeElement(2, p, {(2, 0): 1, (1, 1): p + 1})
        ok &= transform(square) == img * img
        # each basis element and its image once; every pair convolved
        basis = [HeckeElement.basis((a, b), p)
                 for a in range(-2, 3) for b in range(-2, 3) if a >= b]
        images = list(map(transform, basis))
        for i, (f, f_hat) in enumerate(zip(basis, images)):
            for g, g_hat in zip(basis[i:], images[i:]):
                lhs = transform(hecke.convolve(f, g, cap))
                ok &= lhs == f_hat * g_hat and lhs.weyl_invariant()
    return ok, None


def local_factors(cap, seed):
    reports = [run_claim(cli.lfactor_claim, f"lfactor --q 3 --params "
                         f"alpha,beta,gamma --rep {rep}", cap)
               for rep in ("standard", "dual", "sym(2)", "wedge(2)",
                           "wedge(3)")]
    reports.append(run_claim(cli.lfactor_claim, "lfactor rankin --q 2 "
                             "--left alpha,beta --right gamma,delta", cap))
    ok = True
    for d in (2, 3):
        # the library's base change of the standard factor at alpha is
        # the product over the d-th roots of unity, 1 - alpha^d X^d
        reports.append(run_claim(cli.lfactor_claim, f"lfactor bc --d {d} "
                                 f"--q 2 --params alpha", cap))
        ok &= reports[-1]["factor"].terms \
            == lfactor.conjugate_orbit_product("alpha", d) \
            == {(0, (0,)): 1, (d, (d,)): -1}
    for p in (2, 3):
        # the X coefficient of the standard factor at (alpha, beta) is
        # minus the character of T_(1,0) at that point, over v; the
        # names are sorted, so exponent tuples are the weights lambda
        reports.append(run_claim(cli.lfactor_claim,
                                 f"lfactor --q {p} --params alpha,beta", cap))
        acc = reports[-1]["factor"].coefficient(1)
        v_inv = HalfPowerLaurent.v_power(p, -1)
        image = hecke.satake_transform(HeckeElement.basis((1, 0), p))
        for lam, c in image.coeffs.items():
            acc[lam] = c * v_inv + acc.get(lam, 0)
        ok &= all(c == 0 for c in acc.values())
    return cli.holds(*reports) and ok, None


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
              ub_coverage_gap),
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
    reports = []
    for _ in range(5):
        p = rng.choice([2, 3])
        a, b = sorted((rng.randint(-2, 2), rng.randint(-2, 2)), reverse=True)
        reports.append(run_claim(cli.cmd_satake,
                                 f"satake --n 2 --p {p} --lam={a},{b}", cap))
    return cli.holds(*reports), None


RANDOM_ORACLE = Criterion(
    "seeded random basis elements agree with the coset-count oracle",
    "claim:satake-oracle-agreement", random_oracle)
