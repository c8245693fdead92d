import ast
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glnlab
from glnlab import audit, building, cli, hecke, lang, lfactor, rings, roots
from glnlab.cli import (_check_lfactor_cap, canonical_json, lint_report,
                        run, verdict)
from glnlab.errors import CapExceeded, InvalidConfig, NotACocycle, charge
from glnlab.hecke import SatakeImage
from glnlab.lfactor import (DualRep, SatakeParameter, base_change_factor,
                            l_factor)
from glnlab.rings import HalfPowerLaurent
from test_hecke import clear_hecke_caches, coset_count, rho_point
from test_rings import half_of
from test_ring_core import gl_order


def run_json(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    code = run(["--json-out", str(path)] + argv)
    return code, json.loads(path.read_text())


def gl_class_number(s, q):
    """Number of conjugacy classes of GL_s(F_q), s <= 3."""
    return {1: q - 1, 2: q**2 - 1, 3: q**3 - q}[s]


def is_prime_power(q):
    return q >= 2 and sum(q % p == 0 and all(p % k for k in range(2, p))
                          for p in range(2, q + 1)) == 1


# The contract argvs of TestExitCodes, one request each.  The traced
# run of tests/test_reachability.py runs them too, as claims.
PASS_ARGVS = (
    "dm-check --s 1 --q 3 --n 2",
    # 2047 Hermite forms a factor, charged once for the pair
    "hecke --n 2 --p 2 --left=10,0 --right=10,0")

INVALID_CONFIG_ARGVS = (
    "suite nonsense",
    "lfactor --q 3",
    "satake --n 2 --p 2 --lam 0,1",
    "hecke --n 2 --p 2 --left 1,0 --right x",
    "satake --n 2 --p 4 --lam 1,0",
    "satake --n 2 --p 1 --lam 1,0",
    "satake --n 2 --p 0 --lam 1,0",
    "hecke --n 2 --p 6 --left 1,0 --right 1,0",
    "hecke --n 2 --p 1 --left 1,0 --right 1,0",
    "hecke --n 2 --p 0 --left 1,0 --right 1,0",
    "lang --p 4 --d 2",
    "h1 --p 2 --d 0",
    "lang --p 2 --d 0",
    "dm-check --s 1 --q 6 --n 2",
    "building iwasawa --precision 0",
    "lang --p 2 --d 1 --s 0",
    "h1 --p 2 --d 1 --s 0",
    "dm-check --s 0 --q 2 --n 2",
    "lang --p 2 --d 1 --s -1",
    "cartan --n 1",
    "building simplices --n 0",
    "building ub-audit --n 0",
    "lfactor bc --d 0 --q 2 --params a",
    "h1 --p 2 --d 1 --level 0",
    "h1 --p 2 --d 1 --level -1",
    "building iwasawa --count -1",
    "lfactor --q 0 --params a",
    "lfactor --q -3 --params a",
    "lfactor --q 1 --params a,b",
    "lfactor --q 6 --params a",
    "lfactor rankin --q 0 --left a --right b",
    "satake --n 4 --p 2 --lam 1,0,0,0",
    "hecke --n 4 --p 2 --left 1,0,0,0 --right 1,0,0,0",
    "satake --n 2 --p 2 --lam=25,25",
    "satake --n 3 --p 2 --lam=1000,0,-1000",
    "lfactor --q 2 --params 0",
    "lfactor --q 4 --params 1,2 --rep wedge(3)",
    "lfactor --q 2 --params 2/0",
    # past the interpreter's 4300-digit int/str limit
    "lfactor --q 2 --params " + "7" * 5000,
    # X is the variable of the L-factor, not a parameter
    "lfactor --q 2 --params a,X",
    "lfactor rankin --q 2 --left X --right a",
    # p is checked before the samples are charged
    "building iwasawa --p 4 --count 1000000000",
    "building iwasawa --p 1 --count 1000000000 --precision 50",
    # a cap below 1 admits nothing
    "--cap 0 cartan --preset g2",
    "--cap -5 lfactor --q 2 --params a",
    # a report path that cannot be written (ENOTDIR)
    "--json-out /dev/null/r.json roots --n 2")

# 10^18 + 3 is prime, and the primality test runs before any cap; a
# residue-field size q is split into p^v by exact integer roots, not by
# trial division up to sqrt(q): q prime, (10^9 + 7)^2 and the product
# (10^9 + 7)(10^9 + 9), which is no prime power
LARGE_PRIME_ARGVS = (
    ("satake --n 2 --p 1000000000000000003 --lam=1,0", 3),
    ("building iwasawa --p 1000000000000000003 --count 1 --precision 1", 3),
    ("lfactor --q 1000000000000000003 --params a", 0),
    ("lfactor --q 1000000014000000049 --params a", 0),
    ("lfactor --q 1000000016000000063 --params a", 2))

# each exits 3 in under 5 s
CAP_EXCEEDED_ARGVS = (
    "--cap 10 roots --n 5",
    # about 2^25 Hermite forms: refused before the scan, not a hang
    "hecke --n 2 --p 2 --left=24,0 --right=0,0",
    # 2^40 - 1 simplices: refused before any subset is built
    "building simplices --n 40",
    # 8191 simplices fit the cap, their 8191 * 13^2 pattern entries
    # do not: refused before any pattern is built
    "building simplices --n 13",
    # 2^n is not formed, nor printed, for a huge n
    "building simplices --n 1000000000",
    # the coset layer honours --cap, and the oracle refuses its scan
    # before the transform runs
    "--cap 10 satake --n 2 --p 3 --lam=3,-1",
    "--cap 10 hecke --n 2 --p 3 --left=2,-1 --right=2,-1",
    "satake --n 3 --p 2 --lam=6,0,-6",
    # rank 3 is charged its first rows in closed form, before any block
    # is built
    "satake --n 3 --p 2 --lam=24,0,-24",
    "hecke --n 3 --p 2 --left=24,0,-24 --right=0,0,0",
    "satake --n 3 --p 1000003 --lam=1,0,0",
    # rank 2 is charged its Hermite forms, not its cosets
    "satake --n 2 --p 2 --lam=19,0",
    # 735 841 Hermite forms a factor, within the cap alone, not twice
    "hecke --n 3 --p 3 --left=1,1,-3 --right=1,1,-3",
    # 12! Weyl elements and (300 - 1)^2 * 300 pairing terms: refused
    # before anything is built
    "roots --n 12",
    "cartan --n 300",
    # 64^4 candidate matrices over Z/64, though the cocycles are found
    # by lifting from level 1
    "h1 --p 2 --d 1 --s 2 --level 6",
    # the suite honours --cap: criterion 3 charges the 2^16 candidate
    # matrices of GL_2(W_2(F_4))
    "--cap 5000 suite paper-audit",
    # a coefficient of 4400 digits, past the interpreter's int/str limit,
    # is refused before it is printed
    "lfactor --q 2 --rep sym(2) --params " + "7" * 2200)

# each exits 3 in under 1 s
CAP_EXCEEDED_AT_ONCE_ARGVS = (
    # L-factor expansions of 2 * 10^7 or more terms x degree: refused
    # before anything is expanded
    "lfactor --q 2 --params a,b,c,d,e,f --rep wedge(3)",
    "lfactor --q 2 --params a,b,c,d --rep sym(30)",
    # about 10^10 for the norm's 10^5 passes
    "lfactor bc --d 100000 --params a,b --q 2",
    "lfactor rankin --q 2 --left a,b,c,d,e,f,g,h --right i,j,k,l,m,n,o,p",
    # Iwasawa samples times work units a sample: refused before
    # p^precision is formed or a sample is drawn
    "building iwasawa --count 1000000000 --precision 6",
    "building iwasawa --p 2 --count 1 --precision 1000000000",
    "--cap 10 building iwasawa --count 100000",
    # rings of p^d and p^(level d) elements: refused by their exponents
    # before the power is formed
    "lang --p 3 --d 100000000",
    "dm-check --s 1 --q 3 --n 100000000",
    "h1 --p 3 --d 1 --level 1000000",
    "h1 --p 3 --d 1 --level 100000000")

# --enable-gl3 is accepted and changes nothing
RANK3_SATAKE_ARGV = "satake --n 3 --p 2 --lam 1,0,0"


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        for argv in PASS_ARGVS:
            code, rep = run_json(argv.split(), tmp_path)
            assert code == 0
            assert all(v["status"] == "pass" for v in rep["verdicts"])

    def test_invalid_config_is_two(self, capsys):
        for argv in INVALID_CONFIG_ARGVS:
            assert run(argv.split()) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("invalid config: "), (argv, err)
            assert "Traceback" not in err, argv

    def test_large_prime_is_not_a_hang(self):
        for argv, code in LARGE_PRIME_ARGVS:
            start = time.monotonic()
            assert run(argv.split()) == code, argv
            assert time.monotonic() - start < 1.0, argv

    def test_cap_exceeded_is_three(self):
        for argvs, bound in ((CAP_EXCEEDED_ARGVS, 5.0),
                             (CAP_EXCEEDED_AT_ONCE_ARGVS, 1.0)):
            for argv in argvs:
                start = time.monotonic()
                assert run(argv.split()) == 3, argv
                assert time.monotonic() - start < bound, argv

    def test_readme_cap_table(self):
        # the last column of the README's --cap table
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = text.split("| Exits 3 at once |\n")[1].split("\n\n")[0]
        argvs = [row.rsplit("`", 2)[1] for row in table.splitlines()[1:]]
        assert len(argvs) == 13
        for argv in argvs:
            start = time.monotonic()
            assert run(argv.split()) == 3, argv
            assert time.monotonic() - start < 1.0, argv

    def test_ub_audit_charged_before_enumeration(self, monkeypatch):
        # 30^3 * 31^2 products u * b exceed the default cap, though the
        # 31^4 candidates of GL_2(F_31) fit it
        import glnlab.building as building

        def refuse(*args):
            raise AssertionError("GL_n(F_p) was enumerated")

        monkeypatch.setattr(building, "gl_elements", refuse)
        assert run("building ub-audit --n 2 --p 31".split()) == 3

    def test_rank3_satake_needs_no_flag(self, tmp_path):
        argv = RANK3_SATAKE_ARGV.split()
        code, rep = run_json(argv, tmp_path, "a.json")
        flagged_code, flagged = run_json(argv + ["--enable-gl3"], tmp_path,
                                         "b.json")
        assert code == flagged_code == 0
        assert rep["results"] == flagged["results"]


class TestReports:
    def test_dm_check_counts(self, tmp_path):
        code, rep = run_json(["dm-check", "--s", "1", "--q", "3", "--n", "2"],
                             tmp_path)
        assert rep["results"]["plain_class_count"] == 2
        assert rep["results"]["twisted_class_count"] == 2

    def test_building_simplices(self, tmp_path):
        code, rep = run_json(["building", "simplices", "--n", "3"], tmp_path)
        assert code == 0
        assert rep["results"]["count"] == 7

    def test_ub_audit_documented_passes(self, tmp_path):
        code, rep = run_json(["building", "ub-audit", "--n", "2", "--p", "2"],
                             tmp_path)
        assert code == 0
        assert rep["verdicts"][0]["status"] == "documented"
        assert rep["results"]["product_set_size"] == 4
        assert [["0", "1"], ["1", "0"]] in rep["results"]["counterexamples"]

    def test_iwasawa_at_low_precision(self, tmp_path):
        # a determinant that vanishes at working precision is redrawn
        for precision in ("1", "2"):
            code, rep = run_json(["building", "iwasawa",
                                  "--precision", precision], tmp_path)
            assert code == 0, precision
            assert rep["results"]["failures"] == 0

    def test_satake_report(self, tmp_path):
        code, rep = run_json(["satake", "--n", "2", "--p", "3",
                              "--lam", "1,1"], tmp_path)
        assert code == 0
        assert rep["results"]["image"] == {"1,1": {"a": "1", "b": "0"}}

    @given(A=st.integers(-10**6, 10**6), B=st.integers(-10**6, 10**6),
           D=st.integers(1, 10**4))
    @example(A=0, B=0, D=1)
    @example(A=0, B=-6, D=4)
    @example(A=-7, B=0, D=7)
    def test_coefficients_print_as_fractions(self, A, B, D):
        # the printer reduces A/D and B/D on ints, as Fraction does
        c = HalfPowerLaurent(5, A, B) * Fraction(1, D)
        assert cli.ser_by_weight({(1, -1): c}) == {
            "1,-1": {"a": str(Fraction(A, D)), "b": str(Fraction(B, D))}}

    def test_gl3_satake_with_gate(self, tmp_path):
        code, rep = run_json(["satake", "--n", "3", "--p", "2",
                              "--lam", "1,1,1", "--enable-gl3"], tmp_path)
        assert code == 0

    @staticmethod
    def assert_runs_without_sympy(argv):
        """argv exits 0 in a fresh process that never imports sympy."""
        src = str(Path(glnlab.__file__).resolve().parents[1])
        code = ("import sys; from glnlab.cli import run; "
                f"assert run({argv!r}) == 0; "
                "assert 'sympy' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr

    def test_satake_does_not_import_sympy(self):
        self.assert_runs_without_sympy(
            ["satake", "--n", "3", "--p", "2", "--lam=2,0,-1"])

    def test_paper_audit_does_not_import_sympy(self):
        # criterion 10 checks the L-factors on int/Fraction dicts
        self.assert_runs_without_sympy(["suite", "paper-audit"])

    def test_lang_compares_at_every_s(self, tmp_path):
        # the fibres of the Lang map are cosets of GL_s(F_p)
        for p, d, s in [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2)]:
            code, rep = run_json(["lang", "--p", str(p), "--d", str(d),
                                  "--s", str(s)], tmp_path)
            want = gl_order(p, 1, d, s) // gl_order(p, 1, 1, s)
            assert code == 0
            assert rep["results"]["expected_image_size"] == want
            assert rep["results"]["image_size"] == want

    def test_lfactor_report(self, tmp_path):
        code, rep = run_json(["lfactor", "--rep", "wedge(2)",
                              "--params", "a,b,c", "--q", "2"], tmp_path)
        assert code == 0
        assert rep["results"]["degree"] == 3

    def test_no_floats_anywhere(self, tmp_path):
        for argv in (["satake", "--n", "2", "--p", "2", "--lam", "2,0"],
                     ["lfactor", "--rep", "standard", "--params", "a,b",
                      "--q", "3"]):
            code, rep = run_json(argv, tmp_path)

            def walk(x):
                assert not isinstance(x, float)
                if isinstance(x, dict):
                    for v in x.values():
                        walk(v)
                elif isinstance(x, list):
                    for v in x:
                        walk(v)

            walk(rep)


class TestDMCheck:
    @pytest.mark.parametrize("s,q,n", [
        (1, 4, 2), (1, 5, 2), (1, 7, 2), (1, 8, 2), (1, 9, 2), (2, 3, 2),
        (2, 2, 1), (2, 3, 1), (3, 2, 1), (1, 2, 10), (2, 7, 1), (2, 8, 1),
        (2, 9, 1)])
    def test_bijection_with_closed_form_counts(self, s, q, n, tmp_path):
        code, rep = run_json(["dm-check", "--s", str(s), "--q", str(q),
                              "--n", str(n)], tmp_path)
        assert code == 0
        res = rep["results"]
        assert res["plain_class_count"] == res["twisted_class_count"] \
            == gl_class_number(s, q)

    @given(s=st.integers(-1, 3), q=st.integers(-2, 10),
           n=st.integers(-1, 3))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_grammar_fuzz(self, s, q, n):
        # the bijection is a theorem: no input may exit 1
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--cap", "5000", "dm-check", "--s", str(s),
                        "--q", str(q), "--n", str(n)])
        assert time.monotonic() - start < 10.0
        assert "Traceback" not in err.getvalue()
        assert code in (0, 2, 3), err.getvalue()
        assert (code == 2) == (s < 1 or n < 1 or not is_prime_power(q))
        if code == 0:
            res = json.loads(out.getvalue())["results"]
            assert res["plain_class_count"] == res["twisted_class_count"] \
                == gl_class_number(s, q)


class TestHeckeGrammar:
    @staticmethod
    def vector(data, n):
        # mostly of length n and weakly decreasing
        size = data.draw(st.sampled_from([max(n, 0)] * 6 + [0, 1, 2, 3, 4]))
        vec = data.draw(st.lists(st.integers(-6, 6), min_size=size,
                                 max_size=size))
        if data.draw(st.sampled_from([True, True, True, False])):
            vec.sort(reverse=True)
        return vec

    @given(command=st.sampled_from(["satake", "hecke"]),
           n=st.sampled_from(range(-1, 5)), p=st.sampled_from(range(-1, 8)),
           data=st.data())
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_grammar_fuzz(self, command, n, p, data):
        vecs = [self.vector(data, n)
                for _ in range(1 if command == "satake" else 2)]
        flags = ["--lam="] if command == "satake" else ["--left=", "--right="]
        argv = ["--cap", "5000", command, "--n", str(n), "--p", str(p)]
        argv += [flag + ",".join(map(str, vec))
                 for flag, vec in zip(flags, vecs)]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert time.monotonic() - start < 10.0
        assert "Traceback" not in err.getvalue()
        assert code in (0, 2, 3), (argv, err.getvalue())
        bad = (p not in (2, 3, 5, 7) or n not in (1, 2, 3)
               or any(len(vec) != n or vec != sorted(vec, reverse=True)
                      for vec in vecs))
        assert (code == 2) == bad, (argv, err.getvalue())
        if code == 0 and command == "satake":
            image = json.loads(out.getvalue())["results"]["image"]
            image = SatakeImage(n, p, {
                tuple(map(int, nu.split(","))):
                    half_of(p, c["a"], c["b"])
                for nu, c in image.items()})
            assert rho_point(image) == coset_count(tuple(vecs[0]), p), argv


class TestBuildingGrammar:
    # valid values first and more often, and iwasawa, which the shared
    # fuzz reaches least, twice as often; 10^18 + 3 is a prime above the
    # ring's residue-field cap
    @given(action=st.sampled_from(["simplices", "iwasawa", "iwasawa",
                                   "ub-audit", "self-norm", "bogus"]),
           n=st.sampled_from([1, 2, 3, 4] * 3 + [-1, 0, 5, 6, 7]),
           p=st.sampled_from([2, 3, 5, 7, 11] * 3 + [-1, 0, 1, 4, 6, 9,
                                                     2**61 - 1, 10**18 + 3]),
           count=st.sampled_from([1, 2, 50, 1000] * 2 + [-1, 0, 5001, 10**6,
                                                         10**9]),
           precision=st.sampled_from([1, 2, 6, 64, 1000] * 2
                                     + [-1, 0, 10**4, 10**9]))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_grammar_fuzz(self, action, n, p, count, precision):
        argv = ["--cap", "5000", "building", action, "--n", str(n),
                "--p", str(p), "--count", str(count),
                "--precision", str(precision)]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert time.monotonic() - start < 10.0, argv
        assert "Traceback" not in err.getvalue(), argv
        if action == "iwasawa":
            bad = count < 1 or precision < 1 or not sympy.isprime(p)
        else:
            bad = action == "bogus" or n < 1 or (
                action != "simplices" and not sympy.isprime(p))
        if bad:
            # iwasawa charges the cap before it builds (and so checks) its
            # ring, so a request both invalid and too large may exit 3
            assert code == 2 or (action == "iwasawa" and count >= 1
                                 and code == 3), (argv, err.getvalue())
        else:
            assert code in (0, 3), (argv, err.getvalue())


def is_prime(p):
    return p >= 2 and all(p % k for k in range(2, p))


class TestLFactorCap:
    def test_bound_covers_the_expanded_terms(self):
        # a cap of dim * (actual terms) - 1 is exceeded: the bound is
        # never below the term count of the expanded denominator
        third = Fraction(1, 3)
        entries = ("alpha", "beta", "gamma", -1, third)
        reps = [DualRep("standard"), DualRep("dual"), DualRep("sym", 2),
                DualRep("sym", 3), DualRep("wedge", 2), DualRep("wedge", 3)]
        for vals in itertools.combinations_with_replacement(entries, 3):
            t = SatakeParameter(vals, 3)
            cases = [(rho, (t,), l_factor(rho, t)) for rho in reps]
            cases.append((DualRep("tensor"), (t, t),
                          l_factor(DualRep("tensor"), t, t2=t)))
            for rho, params, fac in cases:
                dim = rho.dimension(*[u.n for u in params])
                terms = len(fac.terms)
                with pytest.raises(CapExceeded):
                    _check_lfactor_cap(rho, params, dim * terms - 1)
        # without symbols each coefficient is one number: dim + 1 terms
        t = SatakeParameter((2, third, -1), 3)
        for rho, params in [(rho, (t,)) for rho in reps] + [
                (DualRep("tensor"), (t, t))]:
            dim = rho.dimension(*[u.n for u in params])
            _check_lfactor_cap(rho, params, dim * (dim + 1))
            with pytest.raises(CapExceeded):
                _check_lfactor_cap(rho, params, dim * (dim + 1) - 1)

    def test_base_change_charges_the_norm_passes(self):
        # bc at degree d is charged n * (d(d + 1)/2 - 1) for its powered
        # cycle products on top of terms x degree of the base-changed
        # factor, and never below them
        reps = [DualRep("standard"), DualRep("sym", 2), DualRep("wedge", 2)]
        for vals in [("alpha", "beta"), ("alpha", Fraction(1, 3), -1)]:
            t = SatakeParameter(vals, 3)
            for rho, d in itertools.product(reps, (1, 2, 3)):
                fac = base_change_factor(rho, t, d)
                terms = len(fac.terms)
                passes = t.n * (d * (d + 1) // 2 - 1)
                dim = rho.dimension(t.n)
                with pytest.raises(CapExceeded):
                    _check_lfactor_cap(rho, (t,), passes + dim * d * terms - 1,
                                       d)
        # that quadratic term alone is about 10^10 at d = 10^5
        with pytest.raises(CapExceeded):
            _check_lfactor_cap(DualRep("standard"),
                               (SatakeParameter(("alpha", "beta"), 2),), 10**9,
                               100000)


class TestNearCap:
    """Requests the default cap accepts, close to it, finish promptly."""

    def test_lfactor(self):
        # charged 406 800 of the default 10^6
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["lfactor", "--q", "2", "--params", "a,b,c",
                        "--rep", "sym(4)"]) == 0
        assert time.monotonic() - start < 3.0

    # the exhaustive GL_2(F_27) and GL_3(F_4) checks, charged 27^4 and
    # 4^9 candidate matrices of the default 10^6 (GL_3(F_4) untwisted
    # too, with 60 plain classes); then the largest packed rings (no
    # tables) of these shapes, F_(2^16) at the 2^16 field cap and
    # (Z/16)[x]/(F) of degree 4, charged 2^16, and the Lang images of
    # F_(3^12) and F_(2^19), charged 3^12 and 2^19; and the 65 535
    # classes of GL_1(F_(2^16)), each matched through one norm-form
    # inverse, and its 65 535 level-1 cocycle tests by the norm N_16
    @pytest.mark.parametrize("argv", [
        "h1 --p 3 --d 3 --s 2", "lang --p 3 --d 3 --s 2",
        "lang --p 2 --d 2 --s 3", "dm-check --s 3 --q 2 --n 2",
        "dm-check --s 3 --q 4 --n 1", "dm-check --s 1 --q 2 --n 16",
        "lang --p 2 --d 16 --s 1", "h1 --p 2 --d 4 --s 1 --level 4",
        "lang --p 3 --d 12 --s 1", "lang --p 2 --d 19 --s 1",
        "dm-check --s 1 --q 65536 --n 1", "h1 --p 2 --d 16 --s 1"])
    def test_finite_ring_checks(self, argv):
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv.split()) == 0
        assert time.monotonic() - start < 5.0

    def test_satake_rank3(self):
        # 117 584 first rows tested (118 065 charged) for 12 636 cosets
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["satake", "--n", "3", "--p", "3",
                        "--lam=2,0,-2"]) == 0
        assert time.monotonic() - start < 3.0

    # the rank-3 requests closest to the default cap: 735 841 first rows
    # charged at (4, 4, 0) for p = 3 and 567 031 at (3, 2, 0) for p = 5
    @pytest.mark.parametrize("argv", [
        "satake --n 3 --p 3 --lam=1,1,-3", "satake --n 3 --p 3 --lam=3,3,-1",
        "satake --n 3 --p 5 --lam=3,2,0"])
    def test_satake_rank3_near_cap(self, argv):
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv.split()) == 0
        assert time.monotonic() - start < 5.0

    def test_roots(self):
        # 9! <= 10^6 < 10!: the largest Weyl group the default cap admits
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["roots", "--n", "9"]) == 0
        assert time.monotonic() - start < 5.0

    # near the default cap or the 5 s bound: 980 100 pairing terms,
    # 589 680 pattern entries, the 2^16 candidates of GL_4(F_2), the
    # 31^4 = 923 521 of GL_2(F_31), and the Hermite forms of both hecke
    # factors, 985 089 at rank 2 and 735 842 at rank 3; and the rings of
    # the building audits at the request's cap, not the 2^16 field cap:
    # Z/999983^3 and the 999 982 elements of GL_1(F_999983); and 10^6
    # samples of one word each, the whole default cap
    @pytest.mark.parametrize("argv", [
        "cartan --n 100", "building simplices --n 12",
        "building ub-audit --n 4 --p 2", "building self-norm --n 2 --p 31",
        "building self-norm --n 4 --p 2",
        "hecke --n 2 --p 31 --left=4,0 --right=3,0",
        "hecke --n 3 --p 3 --left=1,1,-3 --right=0,0,0",
        "building iwasawa --p 999983 --count 1000 --precision 3",
        "building self-norm --n 1 --p 999983",
        "building iwasawa --p 2 --count 1000000 --precision 6"])
    def test_other_subcommands(self, argv):
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv.split()) == 0
        assert time.monotonic() - start < 5.0

    def test_iwasawa(self):
        # precision 64 at p = 2 is charged two words (64 times bit
        # length 2), so 250 000 samples cost 250 000 * 2^2 = 10^6, the
        # whole default cap
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["building", "iwasawa", "--p", "2", "--count",
                        "250000", "--precision", "64"]) == 0
        assert time.monotonic() - start < 5.0


class TestCharges:
    def test_power_refused_unformed(self):
        # 2^20 > 10^6 is refused by its exponent alone; 2^19 is formed
        def formed():
            raise AssertionError("the power was formed")

        with pytest.raises(CapExceeded, match="^x exceed cap 1000000$"):
            charge(10**6, "x", formed, 20)
        charge(10**6, "x", lambda: 2**19, 19)
        with pytest.raises(CapExceeded):
            charge(10**6, "x", lambda: 2**19 * 2, 19)

    def test_each_enumeration_charged_once(self, monkeypatch):
        # the candidate matrices of each request, leaving out the field
        # size each ring checks: h1 charges its top level once, which
        # bounds the levels below, and level 1 when it enumerates it
        from glnlab import building, cli, hecke, lang, rings, roots
        charged = []

        def spy(cap, what, count, exponent=0):
            if "candidate matrices" in what:
                charged.append(what)
            charge(cap, what, count, exponent)

        for mod in (building, cli, hecke, lang, rings, roots):
            monkeypatch.setattr(mod, "charge", spy)
        for argv, want in [
                ("h1 --p 2 --d 1 --s 1 --level 3", ["2^3", "2^1"]),
                ("dm-check --s 2 --q 2 --n 2", ["2^8"])]:
            charged.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv.split()) == 0
            assert charged == [f"{c} candidate matrices" for c in want], argv


    def test_one_charge_a_check(self, monkeypatch):
        # roots charges n! once, before any n-vector is built, and the
        # Lang image charges its candidate matrices in lang_image alone,
        # for the CLI and criterion 4 at one cap
        from glnlab import audit, cli, lang, roots
        charged = []

        def spy(cap, what, count, exponent=0):
            charged.append(what)
            charge(cap, what, count, exponent)

        for mod in (cli, lang, roots):
            monkeypatch.setattr(mod, "charge", spy)
        for argv, want in [("roots --n 9", ["9! Weyl group elements"]),
                           ("lang --p 2 --d 2 --s 2",
                            ["2^8 candidate matrices"])]:
            charged.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv.split()) == 0
            assert charged == want, argv
        start = time.monotonic()
        assert run("roots --n 100000".split()) == 3
        assert run("--cap 255 lang --p 2 --d 2 --s 2".split()) == 3
        with pytest.raises(CapExceeded):
            audit.lang_image_size(255, 0)
        assert time.monotonic() - start < 1.0

    def test_a_cached_oracle_is_still_charged(self, capsys):
        # the second request reads the diagonal counts the first cached,
        # and is refused by the 63 Hermite forms of (5, 0) at p = 2
        argv = "satake --n 2 --p 2 --lam=5,0".split()
        clear_hecke_caches()
        assert run(argv) == 0
        assert run(["--cap", "62"] + argv) == 3
        assert "63 Hermite forms to test" in capsys.readouterr().err

    def test_central_translates_decompose_once(self, monkeypatch):
        # (2, 0) and (3, 1) at p = 3 share m = (2, 0), so the oracle's
        # counts of both come from one coset decomposition
        real, entered = hecke.coset_decompose, []

        def spy(lam, *args, **kw):
            entered.append(tuple(lam))
            return real(lam, *args, **kw)

        clear_hecke_caches()
        monkeypatch.setattr(hecke, "coset_decompose", spy)
        for lam in ("2,0", "3,1"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["satake", "--n", "2", "--p", "3",
                            f"--lam={lam}"]) == 0
        assert entered == [(2, 0)]


class TestGrammar:
    """The subcommands without a fuzz of their own, under small and bad
    integers."""

    # valid values first, and more of them, so that most commands run
    PRIMES = [2, 3, 5, 7, 2, 3, -1, 0, 1, 4, 6, 9]
    QS = [2, 3, 4, 5, 7, 8, 9, 2, 3, -2, 0, 1, 6, 10]
    TOKENS = ["a", "b", "x_1", "1", "-2", "3/4"] * 3 + [
        "0", "-0", "2/0", "", "1e3", "2*a", "X"]
    REPS = ["standard", "dual", "trivial", "sym(-1)", "wedge(-1)",
            "tensor"] + [f"{kind}({k})" for kind in ("sym", "wedge")
                         for k in (0, 1, 2, 3, 4, 6, 10, 20, 30)]

    @given(cap=st.sampled_from([5, 100, 5000, 5000]),
           command=st.sampled_from(["roots", "cartan", "lang", "h1",
                                    "building", "building", "lfactor",
                                    "lfactor", "suite"]),
           data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_grammar_fuzz(self, cap, command, data):
        def draw(hi):
            # 1..hi twice as often as the bad values 0 and -1
            return str(data.draw(st.sampled_from([*range(1, hi + 1)] * 2
                                                 + [0, -1])))

        def params():
            return ",".join(data.draw(st.lists(st.sampled_from(self.TOKENS),
                                               min_size=1, max_size=8)))

        argv = ["--cap", str(cap), command]
        p = q = None
        if command == "roots":
            argv += ["--n", draw(9)]
        elif command == "cartan":
            form = data.draw(st.sampled_from(["n", "g2", "a2", "none"]))
            if form == "n":
                argv += ["--n", draw(20)]
            elif form != "none":
                argv += ["--preset", form]
        elif command in ("lang", "h1"):
            p = data.draw(st.sampled_from(self.PRIMES))
            argv += ["--p", str(p), "--d", draw(4), "--s", draw(3)]
            if command == "h1":
                argv += ["--level", draw(3)]
        elif command == "building":
            action = data.draw(st.sampled_from(["simplices", "iwasawa",
                                                "ub-audit", "self-norm",
                                                "bogus"]))
            argv += [action]
            if action != "iwasawa":
                argv += ["--n", draw(6)]
            if action != "simplices":
                p = data.draw(st.sampled_from(self.PRIMES))
                argv += ["--p", str(p)]
            if action == "iwasawa":
                # small and bad values at least half the time, else
                # large sizes, which the cap must refuse or bound
                precision = data.draw(st.sampled_from(
                    [draw(8)] * 3 + ["64", "1000", "10000"]))
                count = data.draw(st.sampled_from(
                    [draw(5)] * 3 + ["1000000", "1000000000"]))
                argv += ["--precision", precision, "--count", count]
        elif command == "lfactor":
            mode = data.draw(st.sampled_from(["", "plain", "rankin", "bc",
                                              "other"]))
            q = data.draw(st.sampled_from(self.QS))
            argv += [mode] * bool(mode) + ["--q", str(q)]
            if mode == "rankin":
                argv += ["--left", params(), "--right", params()]
            else:
                d = data.draw(st.sampled_from([*range(1, 4)] * 2
                                              + [0, -1, 1000, 100000]))
                argv += ["--rep", data.draw(st.sampled_from(self.REPS)),
                         "--d", str(d), "--params", params()]
        else:
            argv = ["--seed", draw(9)] + argv + [data.draw(
                st.sampled_from(["paper-audit", "full", "nonsense"]))]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert time.monotonic() - start < 10.0, argv
        assert "Traceback" not in err.getvalue(), argv
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if code == 0:
            assert p is None or is_prime(p), argv
            assert q is None or is_prime_power(q), argv


class TestDeterminism:
    def test_identical_configs_identical_reports(self, tmp_path):
        _, rep1 = run_json(["building", "iwasawa", "--p", "2",
                            "--count", "40"], tmp_path, "a.json")
        _, rep2 = run_json(["building", "iwasawa", "--p", "2",
                            "--count", "40"], tmp_path, "b.json")
        for rep in (rep1, rep2):
            rep.pop("timing_ms")
            rep["config"].pop("json_out")
        assert canonical_json(rep1) == canonical_json(rep2)

    def test_seed_changes_samples_not_verdict(self, tmp_path):
        _, rep1 = run_json(["--seed", "1", "building", "iwasawa",
                            "--count", "40"], tmp_path, "a.json")
        _, rep2 = run_json(["--seed", "2", "building", "iwasawa",
                            "--count", "40"], tmp_path, "b.json")
        assert rep1["verdicts"][0]["status"] == "pass"
        assert rep2["verdicts"][0]["status"] == "pass"


class TestCachedParser:
    ARGVS = (["hecke", "--n", "2", "--p", "2", "--left", "1,0",
              "--right", "x"],
             ["--help"],
             ["hecke", "-h"],
             ["lang", "--p", "3", "--d", "2"],
             ["--seed", "5", "building", "iwasawa", "--p", "3",
              "--precision", "9", "--count", "30"])

    @staticmethod
    def strip_timing(text):
        if not text.startswith("{"):
            return text
        report = json.loads(text)
        report.pop("timing_ms")
        return report

    def run_here(self, argv, capsys):
        code = run(argv)  # --help too returns, with no SystemExit
        out, err = capsys.readouterr()
        return code, self.strip_timing(out), err

    def run_fresh(self, argv):
        src = str(Path(glnlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "glnlab.cli"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=60)
        return proc.returncode, self.strip_timing(proc.stdout), proc.stderr

    def test_reports_match_a_fresh_interpreter(self, capsys):
        # one grammar serves every request of a process; a request that
        # failed to parse or printed help must not change a later one
        here = [self.run_here(argv, capsys) for argv in self.ARGVS]
        assert [code for code, _, _ in here] == [2, 0, 0, 0, 0]
        assert here[1][1].startswith("usage: glnlab")
        for argv, got in zip(self.ARGVS, here):
            assert got == self.run_fresh(argv), argv


class TestLinter:
    def test_missing_anchor_rejected(self):
        with pytest.raises(InvalidConfig):
            lint_report({"verdicts": [
                {"name": "x", "anchor": "no-prefix", "status": "pass"}]})

    def test_missing_name_rejected(self):
        with pytest.raises(InvalidConfig):
            lint_report({"verdicts": [
                {"name": "", "anchor": "claim:x", "status": "pass"}]})

    def test_bad_status_rejected(self):
        with pytest.raises(InvalidConfig):
            lint_report({"verdicts": [
                {"name": "x", "anchor": "claim:x", "status": "maybe"}]})

    def test_good_verdict_accepted(self):
        lint_report({"verdicts": [verdict("x", "claim:x", True)]})


class TestSuite:
    def test_full_suite_random_checks(self, tmp_path):
        # the whole audit plus its seeded random oracle check; the exact
        # report is pinned by tests/golden/suite_full_seed7.json
        code, rep = run_json(["--seed", "7", "suite", "full"], tmp_path)
        assert code == 0
        statuses = {v["status"] for v in rep["verdicts"]}
        assert statuses <= {"pass", "documented"}
        assert any(v["status"] == "documented" for v in rep["verdicts"])


class TestVerdictsDecide:
    """A broken claim prints its whole report, with its verdict ``fail``,
    and exits 1: no library re-check decides it first."""

    @staticmethod
    def failing(argv, anchor, capsys):
        """Run argv; it exits 1 with its report on stdout, in which the
        verdict of anchor fails.  Returns the report."""
        code = run(argv.split())
        out, err = capsys.readouterr()
        assert code == 1, err
        rep = json.loads(out)
        assert rep["results"]
        assert [v["status"] for v in rep["verdicts"]
                if v["anchor"] == anchor] == ["fail"], rep["verdicts"]
        return rep

    def failing_row(self, row, anchor, capsys):
        """The paper audit exits 1, and its row of index row, of anchor,
        is the only row that fails."""
        rep = self.failing("--seed 0 suite paper-audit", anchor, capsys)
        statuses = [v["status"] for v in rep["verdicts"]]
        assert len(statuses) == 10
        assert statuses[row] == "fail"
        assert statuses.count("fail") == 1

    def test_cartan_minor(self, monkeypatch, capsys):
        from glnlab import roots
        real = roots._leading_minors
        monkeypatch.setattr(roots, "_leading_minors",
                            lambda S: real(S)[:-1] + [Fraction(0)])
        rep = self.failing("cartan --n 3", "claim:cartan-ds-decomposition",
                           capsys)
        assert rep["results"]["leading_minors_of_s"] == ["2", "0"]

    def test_lfactor_constant_term(self, monkeypatch, capsys):
        from glnlab import lfactor
        real = lfactor._times_binomial

        def doubled(terms, a, length, e):
            out = real(terms, a, length, e)
            return {k: 2 * c if k[0] == 0 else c for k, c in out.items()}

        monkeypatch.setattr(lfactor, "_times_binomial", doubled)
        rep = self.failing("lfactor --q 3 --params a,b",
                           "claim:lfactor-constant-term", capsys)
        assert rep["verdicts"][0]["status"] == "pass"  # the degree

    def test_base_change_skipping_the_norm(self, monkeypatch, capsys):
        # each cycle product left unpowered: lfactor bc prints
        # 1 - alpha X^2 at d = 2, whose degree and constant term pass,
        # and the paper audit's base change against the orbit product
        # fails criterion 10 alone
        from glnlab import lfactor
        monkeypatch.setattr(lfactor, "_power", lambda m, e: m)
        self.failing_row(9, "claim:lfactor-degree", capsys)

    def test_satake_invariance(self, monkeypatch, capsys):
        real = hecke._basis_image
        clear_hecke_caches()
        monkeypatch.setattr(hecke, "_basis_image",
                            lambda m, q: real(m, q)[1:])
        try:
            self.failing("satake --n 2 --p 2 --lam 1,0",
                         "claim:satake-weyl-invariance", capsys)
        finally:
            clear_hecke_caches()

    def test_iwasawa_shear(self, monkeypatch, capsys):
        from glnlab import building
        real = building._iwasawa_shear
        monkeypatch.setattr(
            building, "_iwasawa_shear",
            lambda pn, pivoted, inverse: real(pn, pivoted, inverse + 1))
        rep = self.failing("building iwasawa",
                           "claim:iwasawa-exact-reconstruction", capsys)
        assert rep["results"]["failures"] > 0
        self.failing_row(6, "claim:iwasawa-exact-reconstruction", capsys)

    def test_ub_product_set(self, monkeypatch, capsys):
        real = building.audit_ub_factorization

        def short(*args, **kw):
            rep = real(*args, **kw)
            return dict(rep, product_set_size=rep["product_set_size"] - 1)

        monkeypatch.setattr(building, "audit_ub_factorization", short)
        self.failing("building ub-audit --n 2 --p 3",
                     "claim:ub-residue-coverage-gap", capsys)
        self.failing_row(7, "claim:ub-residue-coverage-gap", capsys)

    def test_self_normalizer(self, monkeypatch, capsys):
        real = building.audit_self_normalizing

        def wrong(*args, **kw):
            rep = real(*args, **kw)
            return dict(rep, normalizer_order=rep["u_order"],
                        self_normalizing=not rep["self_normalizing"])

        monkeypatch.setattr(building, "audit_self_normalizing", wrong)
        self.failing("building self-norm --n 2 --p 3",
                     "claim:self-normalizer-audit", capsys)

    def test_centralizer_law(self, monkeypatch, capsys):
        from glnlab import lang
        monkeypatch.setattr(lang, "shintani_law", lambda *args: False)
        self.failing("dm-check --s 2 --q 2 --n 2",
                     "claim:twisted-conjugacy-bijection", capsys)
        self.failing_row(4, "claim:twisted-conjugacy-bijection", capsys)

    def drop_last_basis_vector(monkeypatch):
        real = lfactor._basis_action
        monkeypatch.setattr(lfactor, "_basis_action",
                            lambda *args: real(*args)[:-1])

    def drop_last_member_of_1_0(monkeypatch):
        real = hecke._members
        monkeypatch.setattr(hecke, "_members", lambda m, p: (
            real(m, p)[:-1] if m == (1, 0) else real(m, p)))

    def minor_valuation_off_by_one(monkeypatch):
        # w_S of the first row subset is one too large for the members
        # of (1, 0) at p = 2, the only rank-2 forms read with ptop = 2
        real = hecke._minor_valuations

        def off(form, subsets, ptop, logs):
            w = real(form, subsets, ptop, logs)
            return (w[0] + 1,) + w[1:] if (len(form), ptop) == (2, 2) else w

        monkeypatch.setattr(hecke, "_minor_valuations", off)

    def norm_sigma_off_by_one(monkeypatch):
        # the ring's norm chain built on sigma^(j + 1) for each sigma^j
        real_norm, real_sigma = (rings.TruncatedLocalRing.norm_map,
                                 rings.TruncatedLocalRing.sigma_map)

        def norm_map(ring, *args):
            with monkeypatch.context() as m:
                m.setattr(ring, "sigma_map", lambda k: real_sigma(ring, k + 1))
                return real_norm(ring, *args)

        monkeypatch.setattr(rings.TruncatedLocalRing, "norm_map", norm_map)

    def move_one_twisted_element(monkeypatch):
        # the largest element of the first twisted class moved into the
        # second: at n = 1 only plain sizes that do not come from these
        # same orbits tell the moved sizes from the true ones
        real = lang._twisted_orbits

        def moved(*args):
            orbits = list(real(*args))
            if len(orbits) >= 2 and len(orbits[0]) >= 2:
                x = max(orbits[0])
                orbits[0].discard(x)
                orbits[1].add(x)
            return iter(orbits)

        monkeypatch.setattr(lang, "_twisted_orbits", moved)

    def vint_plus_one(monkeypatch):
        # only the coset-count oracle reads _vint
        real = hecke._vint
        monkeypatch.setattr(hecke, "_vint", lambda x, p: real(x, p) + 1)

    # (anchor, argv, its paper-audit row or None, mutant): the mutant
    # fails the anchor's verdict, and only it, on argv and on that row
    @pytest.mark.parametrize("anchor, argv, row, mutate", [
        ("claim:lfactor-degree", "lfactor --q 2 --params a,b --rep standard",
         9, drop_last_basis_vector),
        ("claim:hecke-commutativity",
         "hecke --n 2 --p 2 --left=1,0 --right=2,0", None,
         drop_last_member_of_1_0),
        ("claim:hecke-commutativity",
         "hecke --n 2 --p 2 --left=1,0 --right=2,0", None,
         minor_valuation_off_by_one),
        ("claim:satake-oracle-agreement", "satake --n 2 --p 2 --lam=1,0",
         8, vint_plus_one),
        ("claim:twisted-conjugacy-bijection", "dm-check --s 1 --q 2 --n 2",
         None, norm_sigma_off_by_one),
        ("claim:twisted-conjugacy-bijection", "dm-check --s 3 --q 2 --n 1",
         4, move_one_twisted_element),
    ], ids=["lfactor-degree", "hecke-commutativity",
            "hecke-commutativity-profile", "satake-oracle-agreement",
            "twisted-conjugacy-bijection-norm",
            "twisted-conjugacy-bijection-moved-element"])
    def test_mutant(self, anchor, argv, row, mutate, monkeypatch, capsys):
        # a mutant is reached only through empty caches, and no value
        # built under it outlives the test
        clear_hecke_caches()
        mutate(monkeypatch)
        try:
            rep = self.failing(argv, anchor, capsys)
            assert [v["anchor"] for v in rep["verdicts"]
                    if v["status"] != "pass"] == [anchor]
            if row is not None:
                self.failing_row(row, anchor, capsys)
        finally:
            clear_hecke_caches()

    def test_suite_keeps_its_report(self, monkeypatch, capsys):
        # criterion 3 raises; its row fails with the message, and the
        # nine other rows still run
        from glnlab import lang

        def broken(*args):
            raise NotACocycle("a class leaves the cocycle set")

        monkeypatch.setattr(lang, "h1_level_tower", broken)
        rep = self.failing("--seed 0 suite paper-audit",
                           "claim:h1-triviality", capsys)
        assert len(rep["verdicts"]) == 10
        assert rep["verdicts"][2]["detail"] \
            == "a class leaves the cocycle set"
        assert [v["status"] for v in rep["verdicts"]].count("fail") == 1


class TestOneDefinition:
    """The paper audit decides each claim through the subcommand claim
    that issues its anchor, and reusing a claim adds no work."""

    # the calls of each costly entry point in `--seed 0 suite paper-audit`,
    # as counted when each criterion still called the library itself: a
    # reused claim must not add a second pass.  The cocycle and orbit
    # passes were counted once the kernels took their cocycles from the
    # level pass (7 -> 5) and dm-check at n = 1 closed its orbits once
    # (19 -> 18); a kernel builds its generators alone.  Criterion 5's
    # fifth configuration, (2, 3, 1), adds one dm-check and its one
    # orbit pass (18 -> 19).  dm-check reads its plain classes off the
    # twisted keys, so its three n = 2 rows lose their second pass
    # (19 -> 16).  Criterion 10 runs base change at d = 2 and 3, which
    # calls no l_factor.  Criterion 9 transforms each of its 15 basis
    # elements once per prime, not once per pair: per prime the satake
    # claim, T_(1,1), the square of T_(1,0), the 15 basis elements and
    # the 120 products, 2 (3 + 15 + 120) = 276, and 2 in criterion 10
    # (728 -> 278).
    WORK = {(lang, "_cocycle_levels"): 3, (lang, "congruence_kernel"): 2,
            (lang, "_cocycles"): 5, (lang, "_twisted_orbits"): 16,
            (lang, "lang_image"): 4, (lang, "dm_bijection_check"): 5,
            (roots, "check_type_a"): 5,
            (building, "iwasawa_sample_failures"): 1,
            (hecke, "satake_transform"): 278,
            (hecke, "satake_by_coset_count"): 2, (hecke, "convolve"): 242,
            (lfactor, "l_factor"): 8, (lfactor, "base_change_factor"): 2}

    @staticmethod
    def spy(monkeypatch, module, name, calls):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(
            name) or real(*args, **kw))

    @staticmethod
    def issuers():
        """{anchor: the names of the functions of cli.py that issue it}."""
        out = {}
        for fn in ast.parse(Path(cli.__file__).read_text()).body:
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Constant) \
                            and str(node.value).startswith("claim:"):
                        out.setdefault(node.value, set()).add(fn.name)
        return out

    def test_work_counts(self, monkeypatch, capsys):
        calls = []
        for module, name in self.WORK:
            self.spy(monkeypatch, module, name, calls)
        assert run("--seed 0 suite paper-audit".split()) == 0
        assert {(module, name): calls.count(name)
                for module, name in self.WORK} == self.WORK

    @pytest.mark.parametrize("row", audit.CRITERIA + (audit.RANDOM_ORACLE,),
                             ids=lambda row: row.check.__name__)
    def test_each_row_runs_its_claim(self, monkeypatch, row):
        (name,) = self.issuers()[row.anchor]
        calls = []
        self.spy(monkeypatch, cli, name, calls)
        assert row.check(10**6, 0)[0]
        assert calls, f"{row.check.__name__} does not run cli.{name}"

    def test_no_verdict_is_a_constant(self):
        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "id", None) == "verdict":
                    ok = node.args[2] if len(node.args) > 2 else next(
                        k.value for k in node.keywords if k.arg == "ok")
                    assert not isinstance(ok, ast.Constant), \
                        f"{path.name}:{node.lineno}"


class TestNoTraceback:
    """A consistency check that fails inside the library exits 1 with its
    message on stderr, not with a traceback."""

    @staticmethod
    def invariant_failure(argv, message, capsys):
        assert run(argv.split()) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"invariant failure: {message}\n"

    def test_frobenius_order(self, monkeypatch, capsys):
        from glnlab import rings
        monkeypatch.setattr(rings.TruncatedLocalRing, "_lift_frobenius",
                            lambda self: self.one_code)
        self.invariant_failure("lang --p 2 --d 2",
                               "Frobenius lift does not have order d", capsys)

    def test_frobenius_lift(self, monkeypatch, capsys):
        from glnlab import rings
        monkeypatch.setattr(rings.TruncatedLocalRing, "evaluate",
                            lambda self, coeffs, y: self.one_code)
        self.invariant_failure("lang --p 2 --d 2",
                               "Newton iteration failed to lift Frobenius",
                               capsys)

    def test_norm_sigma_off_by_one(self, monkeypatch, capsys):
        # the non-cocycles that the mutant norm lets in leave the cocycle
        # set under the orbit closure, which h1 runs before its verdict;
        # the paper audit fails the h1 row so, and the Lang-image and
        # class-matching rows by their verdicts: every ring with d > 1
        # inverts by its norm form, which the mutant breaks too
        TestVerdictsDecide.norm_sigma_off_by_one(monkeypatch)
        self.invariant_failure("h1 --p 2 --d 2 --s 1",
                               "a class leaves the cocycle set", capsys)
        assert run("--seed 0 suite paper-audit".split()) == 1
        verdicts = json.loads(capsys.readouterr()[0])["verdicts"]
        assert [(i, v["anchor"]) for i, v in enumerate(verdicts)
                if v["status"] == "fail"] == [
            (2, "claim:h1-triviality"), (3, "claim:lang-image-size"),
            (4, "claim:twisted-conjugacy-bijection")]
        assert verdicts[2]["detail"] == "a class leaves the cocycle set"

    def test_solver_drops_a_kernel_vector(self, monkeypatch, capsys):
        # half the cocycle lifts of each residue are missing at level 2;
        # the rest are not closed under the twisted action, so h1 stops
        # before its verdict, and the paper audit fails the h1 row alone
        from glnlab import lang
        real = lang._solver
        monkeypatch.setattr(lang, "_solver", lambda columns, p: (
            lambda solve, kernel: (solve, kernel[:-1]))(*real(columns, p)))
        self.invariant_failure("h1 --p 2 --d 2 --s 2 --level 2",
                               "a class leaves the cocycle set", capsys)
        assert run("--seed 0 suite paper-audit".split()) == 1
        verdicts = json.loads(capsys.readouterr()[0])["verdicts"]
        assert [(i, v["anchor"]) for i, v in enumerate(verdicts)
                if v["status"] == "fail"] == [(2, "claim:h1-triviality")]
        assert verdicts[2]["detail"] == "a class leaves the cocycle set"

    def test_primitive_root(self, monkeypatch, capsys):
        from glnlab import rings
        monkeypatch.setattr(rings.TruncatedLocalRing, "pow",
                            lambda self, a, e: self.one_code)
        self.invariant_failure("lang --p 3 --d 1", "no primitive root in F_3",
                               capsys)

    def test_hall_littlewood(self, monkeypatch, capsys):
        # without the - x_j terms the Vandermonde is the monomial x^rho,
        # which does not divide the antisymmetrized numerator
        from glnlab import hecke
        real = hecke._dict_poly_mul
        monkeypatch.setattr(hecke, "_dict_poly_mul", lambda f, g: real(
            f, {e: c for e, c in g.items() if c > 0}))
        clear_hecke_caches()
        try:
            self.invariant_failure(
                "satake --n 2 --p 2 --lam 1,0",
                "numerator not divisible by the Vandermonde", capsys)
        finally:
            clear_hecke_caches()
