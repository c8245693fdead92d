"""Byte-level regression test of CLI reports against checked-in goldens.

Each golden file is the canonical report of one command with its
``timing_ms`` key removed.  The enumeration order of the ring and matrix
layers shows through representatives and serialized counterexamples, so
a change to element encoding or enumeration order fails here.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from glnlab.cli import canonical_json, run

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "roots_n4": "roots --n 4",
    "cartan_n4": "cartan --n 4",
    "cartan_g2": "cartan --preset g2",
    "lang_p3_d2_s2": "lang --p 3 --d 2 --s 2",
    "h1_p2_d1_s2_level3": "h1 --p 2 --d 1 --s 2 --level 3",
    "h1_p3_d2_s1_level2": "h1 --p 3 --d 2 --s 1 --level 2",
    "dm_check_s2_q2_n2": "dm-check --s 2 --q 2 --n 2",
    "dm_check_s1_q2_n10": "dm-check --s 1 --q 2 --n 10",
    "h1_p2_d3_s1_level4": "h1 --p 2 --d 3 --s 1 --level 4",
    "h1_p3_d2_s1_level4": "h1 --p 3 --d 2 --s 1 --level 4",
    "lang_p2_d10_s1": "lang --p 2 --d 10 --s 1",
    "building_simplices_n3": "building simplices --n 3",
    "building_ub_audit_n2_p3": "building ub-audit --n 2 --p 3",
    "building_self_norm_n2_p3": "building self-norm --n 2 --p 3",
    "building_iwasawa_seed3_p5_prec64": (
        "--seed 3 building iwasawa --p 5 --precision 64 --count 50"),
    "suite_full_seed7": "--seed 7 suite full",
    "suite_paper_audit_seed0": "--seed 0 suite paper-audit",
    "hecke_n2_p3_2m1_2m1": "hecke --n 2 --p 3 --left=2,-1 --right=2,-1",
    "hecke_n2_p2_10_0m1": "hecke --n 2 --p 2 --left=1,0 --right=0,-1",
    "satake_n3_p3_11m1": "satake --n 3 --p 3 --lam=1,1,-1 --enable-gl3",
    "satake_n2_p3_3m1": "satake --n 2 --p 3 --lam=3,-1",
    "satake_n3_p2_20m2": "satake --n 3 --p 2 --lam=2,0,-2",
    "satake_n2_p2_2m2": "satake --n 2 --p 2 --lam=2,-2",
    "satake_n2_p2_2m1": "satake --n 2 --p 2 --lam=2,-1",
    "lfactor_wedge2_abc_q3": "lfactor --rep wedge(2) --params a,b,c --q 3",
    "lfactor_bc_d2_sym2_ab_q2": (
        "lfactor bc --d 2 --rep sym(2) --params a,b --q 2"),
    "lfactor_rankin_ab_c_half_q5": (
        "lfactor rankin --left a,b --right c,1/2 --q 5"),
    "lfactor_dual_a_half_c_q3": "lfactor --rep dual --params a,1/2,c --q 3",
    "lfactor_sym3_rational_q3": (
        "lfactor --rep sym(3) --params 2,1/3,-1 --q 3"),
    "lfactor_bc_d3_wedge2_abc_q2": (
        "lfactor bc --d 3 --rep wedge(2) --params a,b,c --q 2"),
    "lfactor_bc_d4_dual_a_half_c_q3": (
        "lfactor bc --d 4 --rep dual --params a,1/2,c --q 3"),
}


def report_text(argv):
    """Canonical report printed by the CLI, without its timing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(argv.split())
    report = json.loads(out.getvalue())
    report.pop("timing_ms")
    return canonical_json(report)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert report_text(COMMANDS[name]) == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(report_text(argv))
