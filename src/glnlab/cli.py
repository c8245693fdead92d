"""Command-line workbench: reproducible JSON-emitting experiments.

Every subcommand validates its configuration, dispatches to library
operations, and emits a canonical-JSON report whose verdicts carry
stable claim anchors (``claim:<slug>``).  Each claim is one function of
the parsed configuration, the one the paper audit runs too.  Exit codes: 0 all verdicts
pass (documented findings count as passing), 1 a verdict failed (the
report is printed) or a computation could not go on (the message is on
stderr), 2 invalid configuration, 3 cap exceeded.  ``parse`` reads the
argv off one grammar table, ``GRAMMAR``, and ``canonical_json`` writes
the report.  Each ``cmd_*`` imports its layer when it runs, as hoisted
imports would save about 2 us a request but slow a fresh ``roots --n 3``
from 67-70 to 82 ms (medians of 10, Python 3.11.7, 2 cores).
"""

from __future__ import annotations

import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb, gcd
from types import SimpleNamespace

from . import __version__
from .errors import (CapExceeded, GlnLabError, InvalidConfig, NotACocycle,
                     charge)
from .rings import DEFAULT_GROUP_CAP

_ANCHOR_RE = re.compile(r"^claim:[a-z0-9][a-z0-9-]*$")
L_VARIABLE = "X"  # the report's name for q^(-s)
G2_SIMPLE = ((1, -1, 0), (-1, 2, -1))


# ---------------------------------------------------------------------------
# report plumbing

def verdict(name, anchor, ok, detail=None, documented=False):
    status = "fail" if not ok else "documented" if documented else "pass"
    v = {"name": name, "anchor": anchor, "status": status}
    if detail is not None:
        v["detail"] = detail
    return v


def lint_report(report):
    """Every verdict must carry a well-formed claim anchor."""
    for v in report.get("verdicts", []):
        if not v.get("name"):
            raise InvalidConfig("verdict without a name")
        if not _ANCHOR_RE.match(v.get("anchor", "")):
            raise InvalidConfig(
                f"verdict {v.get('name')!r} lacks a claim anchor")
        if v.get("status") not in ("pass", "fail", "documented"):
            raise InvalidConfig(f"unknown verdict status {v.get('status')!r}")


def canonical_json(report):
    """``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)``
    and a newline, as json's C encoder cannot indent; keys must be str."""
    return _json(report, "\n") + "\n"


def _json(value, newline):
    """value in canonical JSON; newline is a newline and value's indent."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items, ends = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                       for k, v in sorted(value.items())], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


def holds(*reports):
    """Does every verdict of the reports pass or document its finding?"""
    return all(v["status"] != "fail" for r in reports for v in r["verdicts"])


# serialization helpers ------------------------------------------------------

def ser_by_weight(coeffs):
    """{lambda: {"a": A/D, "b": B/D}}, each in lowest terms, for the
    coefficient (A + B v)/D at lambda, written as "l1,l2,.."."""
    return {",".join(map(str, lam)): {
        k: str(x // g) if g == c.D else f"{x // g}/{c.D // g}"
        for k, x in (("a", c.A), ("b", c.B)) for g in [gcd(x, c.D)]}
        for lam, c in sorted(coeffs.items())}


def ser_codes(s, codes):
    """Rows of a flat s x s tuple of codes of degree 1, each its one
    coefficient, as strings."""
    return [list(map(str, codes[i:i + s])) for i in range(0, s * s, s)]


# ---------------------------------------------------------------------------
# subcommands

def cmd_roots(args):
    from .roots import check_type_a, simple_roots_gl
    n = args.n
    if n < 2:
        raise InvalidConfig("roots needs --n >= 2")
    checks, order, axioms_hold, order_is_factorial = check_type_a(n, args.cap)
    results = {
        "n": n,
        "simple_roots": [list(r) for r in simple_roots_gl(n)],
        "root_count": n * (n - 1),
        "axioms": checks,
        "weyl_order": order,
    }
    verdicts = [
        verdict("root axioms hold", "claim:root-axioms", axioms_hold),
        verdict("weyl order is n factorial", "claim:weyl-order-factorial",
                order_is_factorial),
    ]
    return {"results": results, "verdicts": verdicts}


def cmd_cartan(args):
    from .roots import ds_decompose, simple_roots_gl
    if args.preset == "g2":
        simple = G2_SIMPLE
    elif args.n is None:
        raise InvalidConfig("cartan needs --n or --preset g2")
    elif args.n < 2:
        raise InvalidConfig("cartan needs --n >= 2")
    else:
        # each of the (n-1)^2 Cartan integers pairs two n-vectors
        n = args.n
        charge(args.cap, f"({n} - 1)^2 * {n} pairing terms", (n - 1)**2 * n)
        simple = simple_roots_gl(n)
    dec, minors = ds_decompose(simple)
    results = {
        "cartan": [[str(x) for x in row] for row in dec.entries],
        "d": [str(x) for x in dec.D],
        "s": [[str(x) for x in row] for row in dec.S],
        "leading_minors_of_s": [str(m) for m in minors],
    }
    verdicts = [
        verdict("A = D*S with S symmetric positive definite",
                "claim:cartan-ds-decomposition",
                tuple(tuple(d * x for x in row)
                      for d, row in zip(dec.D, dec.S)) == dec.entries
                and dec.S == tuple(zip(*dec.S)) and len(minors)
                == len(dec.S) and all(m > 0 for m in minors)),
    ]
    if args.preset == "g2":
        verdicts.append(verdict(
            "rank-2 triple-bond matrix factors as diag(3,1) times "
            "[[2/3,-1],[-1,2]]", "claim:g2-cartan-factorization",
            (dec.entries, dec.D, dec.S, list(minors))
            == (((2, -3), (-1, 2)), (3, 1), ((Fraction(2, 3), -1), (-1, 2)),
                [Fraction(2, 3), Fraction(1, 3)])))
    return {"results": results, "verdicts": verdicts}


def cmd_lang(args):
    from .lang import fixed_index, gl_order, lang_image
    from .rings import FiniteField
    if args.s < 1:
        raise InvalidConfig("lang needs --s >= 1")
    field = FiniteField(args.p, args.d, cap=args.cap)
    img = lang_image(field, args.s, args.cap)
    expected = fixed_index(args.s, args.p, args.d)
    results = {"p": args.p, "d": args.d, "s": args.s,
               "image_size": len(img),
               "group_size": gl_order(args.s, args.p**args.d),
               "expected_image_size": expected}
    return {"results": results, "verdicts": [
        verdict("image size matches the norm-kernel count law",
                "claim:lang-image-size", len(img) == expected),
    ]}


def cmd_h1(args):
    from .lang import _cocycle_levels
    if args.s < 1 or args.level < 1:
        raise InvalidConfig("h1 needs --s >= 1 and --level >= 1")
    for ring, cocycles in _cocycle_levels(args.p, args.d, args.level, args.s,
                                          args.cap):
        pass  # up to the top level, whose classes alone are formed
    return h1_level(ring, args.s, cocycles)


def h1_level(ring, s, cocycles):
    """The h1 claim at one level of the pass up the levels: the classes
    of H^1 of GL_s(ring) on its cocycles, and their count against the
    closed form.  ``h1`` applies it to the top level, the level towers
    of criterion 3 to every level."""
    from .lang import fixed_index, gl_module, twisted_classes
    h1_size = len(twisted_classes(gl_module(ring, s), cocycles, NotACocycle(
        "a class leaves the cocycle set")))
    # trivial H^1 makes the cocycles the a^-1 sigma(a), one per coset of
    # the sigma-fixed GL_s(Z/p^n)
    expected = fixed_index(s, ring.p, ring.d, ring.n)
    results = {"p": ring.p, "d": ring.d, "s": s,
               "level": ring.n,
               "cocycle_count": len(cocycles),
               "h1_size": h1_size,
               "expected_cocycle_count": expected}
    return {"results": results, "verdicts": [
        verdict("first cohomology is trivial", "claim:h1-triviality",
                h1_size == 1 and len(cocycles) == expected),
    ]}


def cmd_dm_check(args):
    from .lang import dm_bijection_check, gl_class_count
    if args.s < 1:
        raise InvalidConfig("dm-check needs --s >= 1")
    rep = dm_bijection_check(args.s, args.q, args.n, cap=args.cap)
    results = {"s": args.s, "q": args.q, "n": args.n,
               "plain_class_count": rep["plain_class_count"],
               "twisted_class_count": rep["twisted_class_count"],
               "expected_class_count": gl_class_count(args.s, args.q)}
    return {"results": results, "verdicts": [
        verdict("class counts agree and every class is matched",
                "claim:twisted-conjugacy-bijection", rep["bijective"]),
    ]}


def cmd_building(args):
    from .building import (audit_self_normalizing, audit_ub_factorization,
                           fundamental_simplices, iwasawa_sample_failures,
                           stabilizer_pattern)
    from .lang import gl_order
    action = args.action
    if action != "iwasawa" and args.n < 1:
        raise InvalidConfig(f"building {action} needs --n >= 1")
    if action == "simplices":
        # the report holds an n x n pattern per simplex
        n = args.n
        charge(args.cap, f"(2^{n} - 1) * {n}^2 stabilizer-pattern entries",
               lambda: (2**n - 1) * n**2, n - 1)
        simps = fundamental_simplices(n, cap=args.cap)
        results = {"n": n, "count": len(simps),
                   "simplices": [list(s) for s in simps],
                   "patterns": [list(map(list, stabilizer_pattern(s, n)
                                         .entries)) for s in simps]}
        return {"results": results, "verdicts": [
            verdict("simplex count is 2^n - 1", "claim:simplex-count",
                    len(simps) == 2**n - 1),
        ]}
    if action == "iwasawa":
        import random
        if args.count < 1:
            raise InvalidConfig("building iwasawa needs --count >= 1")
        failures = iwasawa_sample_failures(args.p, args.precision, args.count,
                                           random.Random(args.seed),
                                           cap=args.cap)
        results = {"p": args.p, "precision": args.precision,
                   "count": args.count, "failures": failures,
                   "seed": args.seed}
        return {"results": results, "verdicts": [
            verdict("every sample factors as triangular times integral",
                    "claim:iwasawa-exact-reconstruction", failures == 0),
        ]}
    n, p = args.n, args.p
    if action == "ub-audit":
        rep = audit_ub_factorization(n, p, cap=args.cap)
        # U times the upper Borel is the big cell
        big_cell, group = (p - 1)**n * p**(n * (n - 1)), gl_order(n, p)
        ok = (rep["product_set_size"], rep["group_order"],
              len(rep["counterexamples"])) == (big_cell, group,
                                               group - big_cell)
        results = {"n": n, "p": p,
                   "group_order": rep["group_order"],
                   "product_set_size": rep["product_set_size"],
                   "covers": rep["covers"],
                   "counterexamples": [ser_codes(n, g)
                                       for g in rep["counterexamples"]]}
        if rep["covers"]:
            return {"results": results, "verdicts": [verdict(
                "residue-level product set covers the whole group",
                "claim:ub-residue-coverage", ok)]}
        return {"results": results, "verdicts": [verdict(
            "residue-level product set falls short of the group; "
            "counterexamples recorded",
            "claim:ub-residue-coverage-gap", ok, documented=True,
            detail={"product_set_size": rep["product_set_size"],
                    "group_order": rep["group_order"]})]}
    # self-norm
    rep = audit_self_normalizing(n, p, cap=args.cap)
    # U is the scalars times the lower unitriangular group, and its
    # normalizer the lower Borel
    half = n * (n - 1) // 2
    u_order, borel = (p - 1) * p**half, (p - 1)**n * p**half
    results = {"n": n, "p": p,
               "u_order": rep["u_order"],
               "normalizer_order": rep["normalizer_order"],
               "self_normalizing": rep["self_normalizing"]}
    ok = (rep["group_order"], rep["u_order"], rep["normalizer_order"],
          rep["self_normalizing"]) == (gl_order(n, p), u_order, borel,
                                       u_order == borel)
    return {"results": results, "verdicts": [
        verdict("normalizer computed exhaustively",
                "claim:self-normalizer-audit", ok,
                documented=not rep["self_normalizing"],
                detail={"self_normalizing": rep["self_normalizing"]}),
    ]}


def cmd_satake(args):
    from .hecke import (HeckeElement, satake_by_coset_count,
                        satake_transform)
    lam = _parse_int_vector(args.lam, args.n)
    f = HeckeElement.basis(lam, args.p)
    # the oracle's entry bound and cap refuse a large lam before the
    # transform expands P_lam, whose size grows with lam
    oracle = satake_by_coset_count(f, cap=args.cap)
    img = satake_transform(f)
    results = {"n": args.n, "p": args.p, "lam": list(lam),
               "image": ser_by_weight(img.coeffs),
               "oracle": ser_by_weight(oracle.coeffs)}
    return {"results": results, "verdicts": [
        verdict("integral transform agrees with the coset-count oracle",
                "claim:satake-oracle-agreement", img == oracle),
        verdict("image is symmetric under coordinate permutations",
                "claim:satake-weyl-invariance", img.weyl_invariant()),
    ]}


def cmd_hecke(args):
    from .hecke import HeckeElement, convolve
    lam = _parse_int_vector(args.left, args.n)
    mu = _parse_int_vector(args.right, args.n)
    f = HeckeElement.basis(lam, args.p)
    g = HeckeElement.basis(mu, args.p)
    fg = convolve(f, g, cap=args.cap)
    gf = convolve(g, f, cap=args.cap)
    results = {"n": args.n, "p": args.p, "left": list(lam),
               "right": list(mu), "product": ser_by_weight(fg.support)}
    return {"results": results, "verdicts": [
        verdict("convolution is commutative on these basis elements",
                "claim:hecke-commutativity", fg == gf),
    ]}


def _check_lfactor_cap(rho, params, cap, d=1):
    """Charge the factor of rho at params, after base change of degree d,
    against cap, counted as terms times degree.

    A term n * (d(d + 1)/2 - 1), quadratic in d, comes first.  It bounds
    the growth of the cycle products c_C^(d/g) that base change raises
    to powers up to d, and it is kept so that no exit code moves: it
    alone refuses ``lfactor bc --d 100000 --params a,b``.  Then the X^j
    coefficient of the factor, of degree dim*d in X, sums C(dim, j)
    products of j weights, each a monomial of degree at most j*k*d in
    the s distinct symbols (k = 2 for tensor, the degree for sym/wedge,
    else 1): at most min(C(dim, j), C(j*k*d + s, s)) terms."""
    dim = rho.dimension(*[t.n for t in params])
    k = {"sym": rho.k, "wedge": rho.k, "tensor": 2}.get(rho.kind, 1)
    s = len(set().union(*[t.names() for t in params]))
    passes = params[0].n * (d * (d + 1) // 2 - 1)
    what = f"terms x degree of a degree-{dim * d} L-factor in {s} symbols"
    terms = 0
    for j in range(dim + 1):  # charged as it grows, so a huge dim stops early
        terms += min(comb(dim, j), comb(j * k * d + s, s))
        charge(cap, what, passes + dim * d * terms)


def lfactor_claim(args):
    """The lfactor claim, with the factor as ``factor``.  Only ``lfactor``
    prints it, so the paper audit, which runs this claim too, loads no
    sympy."""
    from .lang import factor_prime_power
    from .lfactor import DualRep, SatakeParameter, base_change_factor, l_factor
    mode = args.mode
    if mode == "rankin" and not (args.left and args.right):
        raise InvalidConfig("rankin needs --left and --right")
    if mode != "rankin" and not args.params:
        raise InvalidConfig("lfactor needs --params")
    factor_prime_power(args.q)  # q is a residue-field size
    if mode == "bc" and args.d < 1:
        raise InvalidConfig("lfactor bc needs --d >= 1")
    if mode == "rankin":
        t1 = SatakeParameter(_parse_symbols(args.left), args.q)
        t2 = SatakeParameter(_parse_symbols(args.right), args.q)
        _check_lfactor_cap(DualRep("tensor"), (t1, t2), args.cap)
        fac = l_factor(DualRep("tensor"), t1, t2=t2)
        expect_deg = t1.n * t2.n
    else:
        rho = _parse_rep(args.rep)
        t = SatakeParameter(_parse_symbols(args.params), args.q)
        d = args.d if mode == "bc" else 1
        _check_lfactor_cap(rho, (t,), args.cap, d)
        fac = (base_change_factor(rho, t, d) if mode == "bc"
               else l_factor(rho, t))
        expect_deg = rho.dimension(t.n) * d
    results = {"q": args.q, "mode": mode, "num": "1", "degree": fac.degree()}
    return {"factor": fac, "results": results, "verdicts": [
        verdict("denominator degree equals the representation dimension",
                "claim:lfactor-degree", fac.degree() == expect_deg),
        verdict("denominator has constant term one",
                "claim:lfactor-constant-term",
                fac.coefficient(0) == {(0,) * len(fac.names): 1}),
    ]}


def cmd_lfactor(args):
    report = lfactor_claim(args)
    report["results"].update(_lfactor_report(report.pop("factor")))
    return report


def _lfactor_report(fac):
    """{``denominator``: str of one flat sum of the factor's terms,
    ``den``: {power of X: its coefficient as sympy prints it in a Poly in
    X}}.  This is the only place the lfactor path uses sympy.

    A coefficient over a polynomial ring prints as the sum of its terms.
    A Laurent coefficient (dual) prints as one fraction over the field of
    the names, so those coefficients go through ``Poly.from_dict``; it is
    not used otherwise, as it costs seconds on a few thousand terms, and
    ``Poly(expr, X)`` on the expanded denominator costs far more.

    A coefficient whose numerator or denominator has more digits than
    the interpreter converts to a string is refused (CapExceeded) before
    anything is printed."""
    import sympy

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(max(abs(c.numerator), c.denominator)
                     for c in fac.terms.values()) >= 10**limit:
        raise CapExceeded(f"a coefficient of more than {limit} digits "
                          f"exceeds the int/str conversion limit")

    symbols = [sympy.Symbol(name) for name in fac.names]
    x = sympy.Symbol(L_VARIABLE)
    flat, by_power = [], {}
    for (k, e), c in fac.terms.items():
        term = sympy.Mul(sympy.Rational(c.numerator, c.denominator),
                         *[s**i for s, i in zip(symbols, e) if i])
        by_power.setdefault(k, []).append(term)
        flat.append(term * x**k)
    coeffs = {(k,): sympy.Add(*terms) for k, terms in by_power.items()}
    if any(i < 0 for _, e in fac.terms for i in e):
        poly = sympy.Poly.from_dict(coeffs, x)
        coeffs = dict(zip(poly.monoms(), poly.coeffs()))
    return {"denominator": str(sympy.Add(*flat)),
            "den": {str(k): str(c) for (k,), c in coeffs.items()}}


def cmd_suite(args):
    """One verdict per acceptance criterion; ``full`` adds the random
    oracle check.  Documented findings do not fail the suite; a library
    error other than the cap or a bad configuration fails its row alone,
    with the message as its detail."""
    from .audit import CRITERIA, RANDOM_ORACLE
    rows = CRITERIA + ((RANDOM_ORACLE,) if args.name == "full" else ())
    verdicts = []
    for row in rows:
        try:
            ok, detail = row.check(args.cap, args.seed)
        except (CapExceeded, InvalidConfig):
            raise
        except GlnLabError as exc:
            ok, detail = False, str(exc)
        verdicts.append(verdict(row.name, row.anchor, ok, detail,
                                documented=detail is not None))
    return {"results": {"criteria": len(CRITERIA)}, "verdicts": verdicts}


# ---------------------------------------------------------------------------
# argument parsing

def _parse_int_vector(text, n):
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidConfig(f"not an integer vector: {text!r}")
    if len(vec) != n:
        raise InvalidConfig(f"expected {n} components, got {len(vec)}")
    if any(vec[i] < vec[i + 1] for i in range(n - 1)):
        raise InvalidConfig("vector must be weakly decreasing")
    return vec


def _parse_symbols(text):
    """Parameter entries: Fractions and symbol names."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise InvalidConfig("empty parameter entry")
        if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", tok):
            try:
                out.append(Fraction(tok))
            except ZeroDivisionError:
                raise InvalidConfig(f"zero denominator in {tok!r}")
            except ValueError:  # past the interpreter's int/str digit limit
                raise InvalidConfig(f"parameter entry of {len(tok)} "
                                    f"characters is too long")
        elif tok == L_VARIABLE:
            raise InvalidConfig(f"{tok} is the variable of the L-factor")
        elif re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            out.append(tok)
        else:
            raise InvalidConfig(f"bad parameter entry {tok!r}")
    return out


def _parse_rep(text):
    from .lfactor import DualRep
    m = re.fullmatch(r"(standard|dual|trivial)", text)
    if m:
        if text == "trivial":
            return DualRep.trivial()
        return DualRep(text)
    m = re.fullmatch(r"(sym|wedge)\((\d+)\)", text)
    if m:
        return DualRep(m.group(1), int(m.group(2)))
    raise InvalidConfig(f"unknown representation {text!r}")


# The grammar.  Each section maps its positionals, by dest, and its flags,
# by option, to (type, default or REQUIRED[, choices]); a bool flag takes
# no value, and every section reads -h and --help.  The global flags come
# before the subcommand, whose section reads the rest of the argv.
REQUIRED = "required"
INT, STR = (int, REQUIRED), (str, REQUIRED)
GRAMMAR = {
    "roots": (cmd_roots, {"--n": INT}),
    "cartan": (cmd_cartan, {"--n": (int, None),
                            "--preset": (str, None, ("g2",))}),
    "lang": (cmd_lang, {"--p": INT, "--d": INT, "--s": (int, 1)}),
    "h1": (cmd_h1, {"--p": INT, "--d": INT, "--s": (int, 1),
                    "--level": (int, 1)}),
    "dm-check": (cmd_dm_check, {"--s": INT, "--q": INT, "--n": INT}),
    "building": (cmd_building, {"action": (str, REQUIRED, (
        "simplices", "iwasawa", "ub-audit", "self-norm")), "--n": (int, 2),
        "--p": (int, 2), "--count": (int, 100), "--precision": (int, 6)}),
    "satake": (cmd_satake, {"--n": INT, "--p": INT, "--lam": STR,
                            "--enable-gl3": (bool, False)}),
    "hecke": (cmd_hecke, {"--n": INT, "--p": INT, "--left": STR,
                          "--right": STR}),
    "lfactor": (cmd_lfactor, {
        "mode": (str, "plain", ("plain", "rankin", "bc")), "--q": INT,
        "--rep": (str, "standard"), "--params": (str, None), "--d": (int, 1),
        "--left": (str, None), "--right": (str, None)}),
    "suite": (cmd_suite, {"name": (str, REQUIRED, ("paper-audit", "full"))}),
}
GLOBAL_FLAGS = {"--cap": (int, DEFAULT_GROUP_CAP), "--seed": (int, 0),
                "--json-out": (str, None), "command": (str, REQUIRED, GRAMMAR)}
_NEGATIVE_RE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's


def _section(flags):
    """A section as parse reads it: {key: (dest, type, default, choices)}
    with -h and --help added, {prefix of a key: the keys it names} (only
    the options' are looked up), {dest: default} and the positionals."""
    entries = {"-h": ("help", None, None, None),
               "--help": ("help", None, None, None)}
    for key, (kind, default, *choices) in flags.items():
        entries[key] = (key.lstrip("-").replace("-", "_"), kind, default,
                        choices[0] if choices else None)
    prefixes = {}
    for key in entries:
        for end in range(2, len(key) + 1):
            prefixes.setdefault(key[:end], []).append(key)
    defaults = {dest: None if default is REQUIRED else default
                for dest, kind, default, _ in entries.values() if kind}
    return entries, prefixes, defaults, [key for key in flags if key[0] != "-"]


_SECTIONS = {name: _section(flags) for name, (_, flags) in GRAMMAR.items()}
_SECTIONS[None] = _section(GLOBAL_FLAGS)


def _option(token, entries, prefixes):
    """How argparse reads a token of a section: None for a value or a
    positional, else (its key or None if unknown, its glued value or
    None).  A unique prefix names an option; a value is a token not led
    by -, or - alone, a negative number or a token with a space."""
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":
        raise InvalidConfig("'--' is not supported")
    if token[1] == "-":
        name, eq, value = token.partition("=")
        value = value if eq else None
    else:  # -h, and what is glued to it
        name, value = token[:2], token[2:] or None
    found = [name] if name in entries else prefixes.get(name, ())
    if len(found) > 1:
        raise InvalidConfig(f"ambiguous option {token}: {', '.join(found)}")
    if found:
        return found[0], value
    if _NEGATIVE_RE.match(token) or " " in token:
        return None
    return None, None


def parse(argv, command=None, args=None, extras=()):
    """The configuration that argv asks for, read as argparse did but with
    ``--`` refused: a namespace of every dest of the grammar, ``command``
    and the claim ``func`` included, or None for help.  A section is read
    left to right, a bad value failing at once and a missing or unknown
    argument at the end; the subcommand's section by a nested call."""
    entries, prefixes, defaults, positionals = _SECTIONS[command]
    args, extras = args or SimpleNamespace(), list(extras)
    vars(args).update(defaults)
    readings = [_option(token, entries, prefixes) for token in argv]
    positionals, i = list(positionals), 0
    while i < len(argv):
        reading, i = readings[i], i + 1
        if reading is None and positionals:
            reading = positionals.pop(0), argv[i - 1]
        elif reading is None or reading[0] is None:  # an extra or unknown
            extras.append(argv[i - 1])
            continue
        key, value = reading
        dest, kind, _, choices = entries[key]
        if kind in (None, bool) and value is not None:
            raise InvalidConfig(f"argument {key}: takes no value: {value!r}")
        if kind is None:  # -h or --help
            return None
        if kind is not bool and value is None:
            if i == len(argv) or readings[i] is not None:
                raise InvalidConfig(f"argument {key}: expected one argument")
            value, i = argv[i], i + 1
        try:
            value = True if kind is bool else kind(value)
        except ValueError:
            raise InvalidConfig(f"argument {key}: invalid int: {value!r}")
        if choices and value not in choices:
            raise InvalidConfig(f"argument {key}: invalid choice: {value!r}")
        setattr(args, dest, value)
        if key == "command":
            args.func = GRAMMAR[value][0]
            return parse(argv[i:], value, args, extras)
    missing = [key for key, (dest, _, default, _) in entries.items()
               if default is REQUIRED and getattr(args, dest) is None]
    if missing:
        raise InvalidConfig(f"arguments required: {', '.join(missing)}")
    if extras:
        raise InvalidConfig(f"unrecognized arguments: {' '.join(extras)}")
    return args


def usage():
    """The help text: each section's arguments, read off the grammar, the
    optional ones in brackets; then the module's description."""
    lines = []
    for head, flags in [("glnlab", GLOBAL_FLAGS)] + [
            (f"glnlab {name}", flags) for name, (_, flags) in GRAMMAR.items()]:
        for key, (_, default, *choices) in flags.items():
            # an option by its name, a positional by its choices alone
            word = " ".join(([key] if key[0] == "-" else []) + [
                "{%s}" % ",".join(choice) for choice in choices])
            head += f" {word}" if default is REQUIRED else f" [{word}]"
        lines.append(head)
    return "usage: " + "\n       ".join(lines) + "\n\n" + __doc__


def run(argv=None):
    try:
        args = parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(usage())
            return 0
        if args.cap < 1:
            raise InvalidConfig("--cap must be >= 1")
        start = time.monotonic()
        body = args.func(args)
        elapsed_ms = int((time.monotonic() - start) * 1000)
        report = {
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k != "func" and v is not None},
            "version": __version__,
            "results": body["results"],
            "verdicts": body["verdicts"],
            "timing_ms": elapsed_ms,
        }
        lint_report(report)
        text = canonical_json(report)
        if args.json_out:
            try:
                with open(args.json_out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InvalidConfig(f"cannot write --json-out "
                                    f"{args.json_out}: {exc.strerror}")
        sys.stdout.write(text)
        return 0 if holds(report) else 1
    except InvalidConfig as exc:
        sys.stderr.write(f"invalid config: {exc}\n")
        return 2
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 3
    except GlnLabError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
