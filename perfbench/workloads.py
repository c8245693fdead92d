"""Seeded request streams and the benchmark-side oracle checks.

Each workload is a fixed pool of distinct CLI requests.  The seed sets
the order of the pool and the seeds handed to randomized commands, so
every run does the same amount of work and ``run_s`` compares across
seeds; no request repeats within a run, so a whole-result cache gains
nothing.  Every request carries a check that reads the JSON report and
compares it with a closed form computed here, independently of the
enumeration that produced it.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

# Reference length of each pool, in seconds, on a 2-core x86-64 host
# with Python 3.11.7.  A run with ``--seconds`` below it takes a seeded
# prefix of the pool (the self-test's smoke mode); at or above it, the
# whole pool.
POOL_SECONDS = {
    "paper-audit": 30.0,
    "finite-rings": 14.0,
    "hecke-algebra": 14.0,
    "padic-iwasawa": 10.0,
}


# ---------------------------------------------------------------------------
# closed forms

def gl_order(q, s, level=1):
    """|GL_s(O/p^level)| for O with residue field of size q."""
    out = q ** (s * s * (level - 1))
    for i in range(s):
        out *= q**s - q**i
    return out


def class_count_gl(q, s):
    """Number of conjugacy classes of GL_s(F_q), s <= 2."""
    return {1: q - 1, 2: q * q - 1}[s]


def coset_count(lam, p):
    """|K p^lam K / K| = q^<2rho,lam> [n]_t! / prod [m_k]_t!, t = 1/q."""
    n = len(lam)
    t = Fraction(1, p)

    def qfact(m):
        out = Fraction(1)
        for i in range(1, m + 1):
            out *= sum(t**j for j in range(i))
        return out

    out = Fraction(p) ** sum(lam[i] - lam[j]
                             for i in range(n) for j in range(i + 1, n))
    out *= qfact(n)
    for _, block in itertools.groupby(lam):
        out /= qfact(len(list(block)))
    if out.denominator != 1:
        raise ValueError(f"non-integral coset count for {lam}")
    return int(out)


def dominant_count(lo, hi, n, total):
    """Number of weakly decreasing vectors in [lo, hi]^n with sum total."""
    return sum(1 for v in itertools.combinations_with_replacement(
        range(hi, lo - 1, -1), n) if sum(v) == total)


def hermite_candidates(lam, p):
    """Upper-triangular p-power Hermite forms scanned for lam."""
    n = len(lam)
    total = sum(c - lam[-1] for c in lam)
    out = 0
    for diag in itertools.product(range(total + 1), repeat=n):
        if sum(diag) == total:
            out += p ** sum(diag[i] * (n - 1 - i) for i in range(n))
    return out


def _half(entry):
    return Fraction(entry["a"]), Fraction(entry["b"])


def _lam(key):
    return tuple(int(x) for x in key.split(","))


def rho_evaluation(image, n, q):
    """Evaluate sum c_lam t^lam at t_i = v^(n-1-2i), v^2 = q, as (a, b)
    meaning a + b*v.  The spherical function at this point is the
    degree of the Hecke operator."""
    a_sum = b_sum = Fraction(0)
    for key, entry in image.items():
        a, b = _half(entry)
        k = sum(c * (n - 1 - 2 * i) for i, c in enumerate(_lam(key)))
        if k % 2 == 0:
            pa, pb = Fraction(q) ** (k // 2), Fraction(0)
        else:
            pa, pb = Fraction(0), Fraction(q) ** ((k - 1) // 2)
        a_sum += a * pa + b * pb * q
        b_sum += a * pb + b * pa
    return a_sum, b_sum


# ---------------------------------------------------------------------------
# checks: each returns None when the report is right, else a reason

def _results(report, command):
    if report.get("command") != command:
        return None, f"command {report.get('command')!r} != {command!r}"
    return report["results"], None


def check_lang(report, p, d, s):
    r, err = _results(report, "lang")
    if err:
        return err
    q = p**d
    if (r["p"], r["d"], r["s"]) != (p, d, s):
        return "config echo differs"
    if r["group_size"] != gl_order(q, s):
        return f"group_size {r['group_size']} != {gl_order(q, s)}"
    want = gl_order(q, s) // gl_order(p, s)
    if r["image_size"] != want:
        return f"image_size {r['image_size']} != {want}"
    return None


def check_h1(report, p, d, s, level):
    r, err = _results(report, "h1")
    if err:
        return err
    if (r["p"], r["d"], r["s"], r["level"]) != (p, d, s, level):
        return "config echo differs"
    if r["h1_size"] != 1:
        return f"h1_size {r['h1_size']} != 1"
    # trivial H^1 makes every cocycle a coboundary a^-1 sigma(a), so the
    # cocycles are G / G^sigma with G^sigma = GL_s(Z/p^level)
    want = gl_order(p**d, s, level) // gl_order(p, s, level)
    if r["cocycle_count"] != want:
        return f"cocycle_count {r['cocycle_count']} != {want}"
    return None


def check_dm(report, s, q, n):
    r, err = _results(report, "dm-check")
    if err:
        return err
    want = class_count_gl(q, s)
    if (r["plain_class_count"], r["twisted_class_count"]) != (want, want):
        return (f"class counts {r['plain_class_count']}/"
                f"{r['twisted_class_count']} != {want}")
    return None


def check_hecke(report, p, lam, mu):
    r, err = _results(report, "hecke")
    if err:
        return err
    total = sum(lam) + sum(mu)
    degree = 0
    for key, entry in r["product"].items():
        nu = _lam(key)
        a, b = _half(entry)
        if b or a.denominator != 1 or sum(nu) != total:
            return f"product term {key}: {entry} is not integral"
        degree += a * coset_count(nu, p)
    # the degree is a ring homomorphism of the Hecke algebra
    want = coset_count(lam, p) * coset_count(mu, p)
    if degree != want:
        return f"product degree {degree} != {want}"
    return None


def check_satake(report, n, p, lam):
    r, err = _results(report, "satake")
    if err:
        return err
    got = rho_evaluation(r["image"], n, p)
    want = (Fraction(coset_count(lam, p)), Fraction(0))
    if got != want:
        return f"transform at the rho point {got} != {want}"
    return None


def check_iwasawa(report, p, precision, count):
    r, err = _results(report, "building")
    if err:
        return err
    if (r["p"], r["precision"], r["count"], r["failures"]) \
            != (p, precision, count, 0):
        return f"iwasawa summary {r} differs"
    return None


def check_audit(report):
    r, err = _results(report, "suite")
    if err:
        return err
    statuses = {v["anchor"]: v["status"] for v in report["verdicts"]}
    if r["criteria"] != 10 or len(report["verdicts"]) != 10:
        return "audit does not report ten criteria"
    documented = [a for a, s in statuses.items() if s == "documented"]
    if documented != ["claim:ub-residue-coverage-gap"]:
        return f"documented findings {documented}"
    return None


# ---------------------------------------------------------------------------
# pools

def _finite_rings(rng):
    # Three tiers.  Small claims (GL_1 and GL_2 over F_2, GL_1 over small
    # fields and truncated rings, a few ms each) are more than half the
    # pool, so the median request falls inside a dense group and
    # req_p50_ms tracks ring set-up and small enumerations.  Fourteen
    # claims of 0.3 s or more (GL_2 over F_8, F_9 and truncated rings up
    # to Z/16) set run_s and the tail; the tail falls on a long request.
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
    lang = [(p, d, 1) for p, d in fields]
    lang += [(2, 1, 2), (2, 2, 2), (5, 1, 2),  # small and mid GL_2
             (7, 1, 2), (2, 3, 2), (3, 2, 2)]  # heavy GL_2
    h1 = [(p, d, 1, 1) for p, d in fields]
    h1 += [(2, 1, 1, 2), (3, 1, 1, 2), (5, 1, 1, 2), (2, 2, 1, 2),
           (2, 1, 1, 3), (3, 1, 1, 3), (2, 1, 1, 4), (2, 1, 1, 5),
           (2, 1, 2, 1), (2, 2, 2, 1)]  # small and mid
    h1 += [(7, 1, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1), (2, 1, 2, 3),
           (3, 1, 2, 2), (2, 1, 2, 4), (3, 2, 1, 4), (2, 3, 1, 4),
           (2, 1, 1, 14)]  # heavy
    dm = [(1, 2, 2), (1, 2, 3), (2, 2, 2),  # small and mid
          (2, 2, 3), (1, 2, 10)]  # heavy
    pool = [(["lang", "--p", str(p), "--d", str(d), "--s", str(s)],
             check_lang, (p, d, s)) for p, d, s in lang]
    pool += [(["h1", "--p", str(p), "--d", str(d), "--s", str(s),
               "--level", str(level)], check_h1, (p, d, s, level))
             for p, d, s, level in h1]
    pool += [(["dm-check", "--s", str(s), "--q", str(q), "--n", str(n)],
              check_dm, (s, q, n)) for s, q, n in dm]
    return pool


# dm-check configurations that exit 1 at the time the benchmark was
# written: (1,4,2) fails the characteristic-polynomial prefilter, the
# rest raise NotFound when the extension search reaches the field cap.
KNOWN_DEFECTS = [(1, 4, 2), (1, 5, 2), (1, 7, 2), (1, 8, 2), (1, 9, 2),
                 (2, 3, 2)]


def known_defect_probe():
    return [(["dm-check", "--s", str(s), "--q", str(q), "--n", str(n)],
             check_dm, (s, q, n)) for s, q, n in KNOWN_DEFECTS]


def _vec(v):
    # passed as "--lam=v": argparse would read "-1,0" as a flag
    return ",".join(map(str, v))


def _hecke_algebra(rng):
    pool = []
    # small products hold the median request
    small = [(a, b) for a in range(-1, 3) for b in range(-1, 3) if a >= b]
    pairs = [(p, lam, mu) for p in (2, 3)
             for i, lam in enumerate(small) for mu in small[i:]
             if lam[0] - lam[1] + mu[0] - mu[1] <= 4]
    # the tail class: 21 central translates of T(2,0) * T(2,-1) at p = 3,
    # all of one cost, so the tail percentile lands inside the class
    pairs += [(3, (2 + k, k), (2 + j, j - 1)) for k, j in itertools.product(
        range(-2, 3), repeat=2)][:21]
    # heavier than the tail class
    pairs += [(3, (2, -1), (2, -1))]
    for p, lam, mu in pairs:
        pool.append((["hecke", "--n", "2", "--p", str(p), "--left=" + _vec(lam),
                      "--right=" + _vec(mu)], check_hecke, (p, lam, mu)))
    for p in (2, 3):
        for lam in [(a, b) for a in range(0, 4) for b in range(-2, 4)
                    if a >= b and a - b <= 4]:
            if p == 3 and lam in ((2, -2), (3, -1), (3, 0)):
                continue  # above the tail class
            pool.append((["satake", "--n", "2", "--p", str(p),
                          "--lam=" + _vec(lam)], check_satake, (2, p, lam)))
    rank3 = [(2, (1, 0, 0)), (2, (0, -1, -1)), (2, (1, 1, 1)),
             (3, (1, 0, 0)), (3, (0, -1, -1)), (3, (1, 1, 1)),
             # heavier than the tail class
             (2, (1, 0, -1)), (3, (1, 1, 0)), (3, (0, 0, -1))]
    for p, lam in rank3:
        pool.append((["satake", "--n", "3", "--p", str(p), "--lam=" + _vec(lam),
                      "--enable-gl3"], check_satake, (3, p, lam)))
    return pool


def _padic_iwasawa(rng):
    # p^precision is far above the 2^16 table cap of a small-ring core
    precisions = {2: (20, 40, 80, 160), 3: (12, 25, 50, 100),
                  5: (8, 16, 32, 64)}
    grid = [(p, n) for p, ns in precisions.items() for n in ns]
    # two thirds of the small requests are of one size, so the median
    # falls well inside that group rather than between two sizes
    configs = [(p, n, 50) for p, n in grid] * 8
    configs += [(p, n, 100) for p, n in grid] * 16
    # the tail class: 24 requests of one size, heavier than all others
    configs += [(5, 64, 300)] * 24
    seeds = rng.sample(range(1 << 30), len(configs))
    return [(["--seed", str(seed), "building", "iwasawa", "--p", str(p),
              "--count", str(count), "--precision", str(n)],
             check_iwasawa, (p, n, count))
            for seed, (p, n, count) in zip(seeds, configs)]


def _paper_audit(rng):
    return [(["--seed", str(rng.randrange(1 << 30)), "suite", "paper-audit"],
             check_audit, ())]


POOLS = {
    "paper-audit": _paper_audit,
    "finite-rings": _finite_rings,
    "hecke-algebra": _hecke_algebra,
    "padic-iwasawa": _padic_iwasawa,
}


def stream(workload, seed, seconds):
    """The seeded request stream: (argv, check, check_args) triples."""
    rng = random.Random(f"{workload}:{seed}")
    pool = POOLS[workload](rng)
    rng.shuffle(pool)
    share = min(1.0, seconds / POOL_SECONDS[workload])
    return pool[:max(1, round(share * len(pool)))]


def check(report_text, rc, stderr, check_fn, check_args):
    """None if the request succeeded and its report is right."""
    if isinstance(rc, str):  # the request raised
        return rc
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]}"
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    bad = [v["anchor"] for v in report.get("verdicts", [])
           if v.get("status") not in ("pass", "documented")]
    if bad:
        return f"verdicts not passing: {bad}"
    try:
        return check_fn(report, *check_args)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"
