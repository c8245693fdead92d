"""The spherical Hecke algebra for GL_n (n = 1, 2, 3) and the transform
onto Weyl-invariants of the cocharacter group algebra.

Double cosets are indexed by weakly decreasing integer vectors; all
computations are exact and p-local.  A coset representative is a pair
(shift, M) standing for g = p^shift * M, with M an upper-triangular int
matrix whose diagonal entries are powers of p, so membership tests read
int valuations.  The transform is Macdonald's closed form in
Hall-Littlewood polynomials; its coefficients lie in Laurent
polynomials in a formal square root v of q, each stored on ints as
(A + B v)/D in lowest terms (rings.HalfPowerLaurent).  No coefficient
dict holds a zero, so a sum adds to an entry only when its key is
present.  Haar normalization: vol(GL_n(O)) = vol(N cap GL_n(O)) = 1.

Membership in a double coset has one rule, Smith's theorem: the sum of
the first k elementary divisor exponents of a matrix is the least
valuation D_k of its k x k minors (_minor_valuations).  The cosets come
from one recursion on the rank (_members), charged against the cap in
closed form before any is built (_forms).  Convolution counts the
cosets g_i of K p^lam K with p^-nu g_i in K p^-mu K (Macdonald V.2) by
the same rule, forming no product: for p^-nu p^shift M the minors are
read off those of M alone.  Before it builds a coset, it charges once
the Hermite forms of every cocharacter of both factors (_forms).  The
coset-count oracle reads the Iwasawa torus part lam of p^shift * M (g
in N p^lam K): shift plus the diagonal valuations of M.  What a
request reads of K p^lam K depends on m = lam - lam_n and p alone:
_form_count, _profile, _diagonals and _basis_image keep it per (m, p)
in bounded caches as immutable tuples; no member list is kept.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter

from .errors import (GlnLabError, InvalidConfig, NotPrime, UnsupportedRank,
                     charge)
from .rings import DEFAULT_GROUP_CAP, HalfPowerLaurent, is_prime

MAX_ENTRY = 24  # largest |lam_i| coset_decompose accepts


def _vint(x, p):
    """p-adic valuation of a nonzero int."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def is_dominant(lam):
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


# ---------------------------------------------------------------------------
# coset decomposition

def coset_decompose(lam, n, p, cap=DEFAULT_GROUP_CAP):
    """Representatives (shift, M) of the cosets g K in K p^lam K: g =
    p^shift M, shift = lam[-1], M an upper-triangular int Hermite form
    with p-power diagonal, in the recursion's order (_members); callers
    read them as a multiset.  |lam_i| <= MAX_ENTRY; charged first
    (_forms)."""
    shift, m, forms = _forms(lam, n, p)
    charge(cap, f"{forms} Hermite forms to test", forms)
    return [(shift, form) for form in _members(m, p)]


@functools.lru_cache(maxsize=1024)
def coset_count(lam, p):
    """|K p^lam K / K| = p^e [n]_p! / prod_k [m_k]_p! (Macdonald V.2 at
    t = 1/q), e = sum_{i<j} (lam_i - lam_j) - #{i<j : lam_i > lam_j},
    m_k the multiplicities of the entries of lam, a dominant tuple."""
    def qfactorial(k):
        return math.prod((p**j - 1) // (p - 1) for j in range(1, k + 1))

    e = sum(a - b - (a > b) for a, b in itertools.combinations(lam, 2))
    return p**e * qfactorial(len(lam)) // math.prod(
        map(qfactorial, Counter(lam).values()))


def _interlacing(m):
    """The mu with m_i >= mu_i >= m_(i+1), i < len(m) - 1, largest first."""
    return itertools.product(*(range(a, b - 1, -1) for a, b in zip(m, m[1:])))


def _forms(lam, n, p):
    """(lam_n, m, forms) with m = lam - lam_n, once lam is a valid
    cocharacter of GL_n, and forms the first rows _members tests over
    its blocks: the sum over mu of p^((n - 1) d0) |K p^mu K / K|."""
    if n not in (1, 2, 3):
        raise UnsupportedRank(f"rank {n} not supported")
    lam = tuple(lam)
    if len(lam) != n or not is_dominant(lam):
        raise ValueError("need a weakly decreasing integer vector of length n")
    if max(abs(c) for c in lam) > MAX_ENTRY:
        raise InvalidConfig(
            f"cocharacter entries exceed {MAX_ENTRY} in absolute value")
    m = tuple(c - lam[-1] for c in lam)
    return lam[-1], m, _form_count(m, p)


@functools.lru_cache(maxsize=1024)
def _form_count(m, p):
    return sum(p**((len(m) - 1) * (sum(m) - sum(mu))) * coset_count(mu, p)
               for mu in _interlacing(m))


def _members(m, p):
    """The members of K p^m K, m dominant with m[-1] = 0, in a fixed
    order; a tuple of tuples, built anew on each call.

    Rank 1 is the form (1).  Deleting the first row of a member leaves
    a block whose exponents mu interlace m (Thompson, Linear Algebra
    Appl. 24, 1979): p^mu_(n-1) times a member for mu - mu_(n-1) under
    a zero column, below a first row (p^d0, x), d0 = |m| - |mu|, x in
    [0, p^d0)^(n-1).  The form is a member when D_k = m_n + ... +
    m_(n-k+1) for each k < n.  Its k x k minors off row 0 are the
    block's, of least valuation mu_(n-1) + ... + mu_(n-k); those on row
    and column 0 are p^d0 times the block's (k-1) x (k-1) minors.  So
    D_1 = 0 needs a unit in x only when d0 mu_(n-1) > 0, and for k >= 2
    only the minors on row 0 and off column 0 are computed.
    """
    n = len(m)
    if n == 1:
        return (((1,),),)
    ptop, logs = p**sum(m), {p**k: k for k in range(sum(m) + 1)}
    forms = []
    for mu in _interlacing(m):
        d0, low = sum(m) - sum(mu), mu[-1]
        # per k: the k-row subsets on row 0, the other minors' bound, D_k
        checks = [([(0,) + rows for rows in itertools.combinations(
                       range(1, n), k - 1)],
                    min(sum(mu[-k:]), d0 + sum(mu[1 - k:])), sum(m[-k:]))
                  for k in range(2, n)]
        for block in _members(tuple(c - low for c in mu), p):
            block = tuple(tuple(p**low * c for c in row) for row in block)
            lower = tuple((0,) + row for row in block)
            xs = itertools.product(range(p**d0), repeat=n - 1)
            if d0 and low:
                xs = (x for x in xs if any(c % p for c in x))
            if checks:
                xs = (x for x in xs if all(min(bound, *_minor_valuations(
                    (x,) + block, level, ptop, logs)) == target
                    for level, bound, target in checks))
            forms += [((p**d0,) + x,) + lower for x in xs]
    return tuple(forms)


_PAIRS = [list(itertools.combinations(range(k), 2)) for k in range(4)]
# per rank n < 4: the row subsets S, 0 < |S| < n, one list per size
_LEVELS = [[list(itertools.combinations(range(n), k)) for k in range(1, n)]
           for n in range(4)]


@functools.lru_cache(maxsize=256)
def _profile(m, p):
    """The (profile, count) pairs of the members of K p^m K, a profile
    holding per level of _LEVELS the w_S of its subsets (convolve)."""
    levels = _LEVELS[len(m)]
    subsets = sum(levels, [])
    cuts = [0, *itertools.accumulate(map(len, levels))]
    # every w_S is at most the sum of the diagonal exponents on S
    logs = {p**k: k for k in range(sum(m) + 1)}
    counts = Counter(_minor_valuations(form, subsets, p**sum(m), logs)
                     for form in _members(m, p))
    return tuple((tuple(w[a:b] for a, b in zip(cuts, cuts[1:])), count)
                 for w, count in counts.items())


@functools.lru_cache(maxsize=256)
def _diagonals(m, p):
    """The (diagonal exponents, count) pairs of the members of K p^m K,
    from coset_decompose at the cap the request was charged (_forms)."""
    counts = Counter(tuple([_vint(row[i], p) for i, row in enumerate(form)])
                     for _, form in coset_decompose(m, len(m), p,
                                                    cap=_form_count(m, p)))
    return tuple(counts.items())


def _minor_valuations(form, subsets, ptop, logs):
    """(w_S) for the row subsets S: the least valuation of the |S| x |S|
    minors of form on rows S, for |S| <= 2.  ptop = p^top with top at
    least every w_S, so gcd(ptop, minors) = p^w_S; logs maps p^k to k."""
    pairs = _PAIRS[len(form[0])]
    out = []
    for rows in subsets:
        if len(rows) == 1:
            out.append(logs[math.gcd(ptop, *form[rows[0]])])
        else:
            a, b = form[rows[0]], form[rows[1]]
            out.append(logs[math.gcd(ptop, *[a[i] * b[j] - a[j] * b[i]
                                              for i, j in pairs])])
    return tuple(out)


# ---------------------------------------------------------------------------
# Hecke elements

def _coefficients(q, coeffs):
    """coeffs keyed by tuples, as HalfPowerLaurent over q, zeros dropped:
    the one zero filter of HeckeElement and SatakeImage."""
    out = {}
    for key, c in (coeffs or {}).items():
        if not isinstance(c, HalfPowerLaurent):
            c = HalfPowerLaurent(q) + c
        if not c.is_zero():
            out[tuple(key)] = c
    return out


class HeckeElement:
    """Finitely supported function on double cosets, coefficients in the
    formal sqrt-q Laurent ring."""

    def __init__(self, n, p, support=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.n = n
        self.p = p
        self.support = _coefficients(p, support)

    @classmethod
    def basis(cls, lam, p):
        lam = tuple(lam)
        if not is_dominant(lam):
            raise ValueError("basis elements are indexed by dominant vectors")
        return cls(len(lam), p, {lam: 1})

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and (self.n, self.p) == (other.n, other.p)
                and self.support == other.support)

    def __repr__(self):
        terms = ", ".join(f"{lam}: {c}" for lam, c in sorted(self.support.items()))
        return f"HeckeElement(n={self.n}, p={self.p}, {{{terms}}})"


def convolve(f, g, cap=DEFAULT_GROUP_CAP):
    """Convolution with vol(K) = 1, by one count per coset of f.

    With K p^lam K the disjoint union of the g_i K,
    (1_{K p^lam K} * 1_{K p^mu K})(p^nu) = #{i : p^-nu g_i in K p^-mu K}
    (Macdonald V.2).  For g_i = p^s M, the sum D_k of the first k
    elementary divisor exponents of p^-nu g_i is the least valuation of
    its k x k minors, min over k-row subsets S of w_S + sum_{r in S}
    (s - nu_r), with w_S the least valuation of the k x k minors of M on
    rows S (Smith's theorem).  Every coset of K p^lam K has s = lam_n, so
    the cosets are counted by their profile (w_S)_S, which does not
    depend on nu, and the offsets sum (s - nu_r) are formed once per nu.
    A profile is a hit for nu when D_k = -(mu_1 + ... + mu_k) for every
    k < n (k = n is the determinant, equal once sum(nu) = sum(lam) +
    sum(mu)).  Only the dominant nu with that sum and lam_n + mu_n <=
    nu_i <= lam_1 + mu_1 can be hit.  Before any coset is built, one
    charge: the Hermite forms (_forms) of every lam of f and mu of g,
    which bound the cosets this product and g * f build.
    """
    if (f.n, f.p) != (g.n, g.p):
        raise ValueError("mismatched rank or prime")
    n, p = f.n, f.p
    forms = sum(_forms(lam, n, p)[2]
                for lam in itertools.chain(f.support, g.support))
    charge(cap, f"{forms} Hermite forms to test", forms)
    levels = _LEVELS[n]
    out = {}
    for lam, cf in f.support.items():
        s = lam[-1]
        profiles = _profile(tuple(c - s for c in lam), p)
        for mu, cg in g.support.items():
            scale = cf * cg
            targets = list(itertools.accumulate(-c for c in mu[:-1]))
            total = sum(lam) + sum(mu)
            box = range(lam[0] + mu[0], lam[-1] + mu[-1] - 1, -1)
            for nu in itertools.combinations_with_replacement(box, n):
                if sum(nu) != total:
                    continue
                offs = [[sum(s - nu[r] for r in rows) for rows in level]
                        for level in levels]
                count = 0
                for w, mult in profiles:
                    for wk, ok, t in zip(w, offs, targets):
                        if min(map(operator.add, wk, ok)) != t:
                            break
                    else:
                        count += mult
                if count:
                    c = scale * count
                    out[nu] = out[nu] + c if nu in out else c
    return HeckeElement(n, p, out)


# ---------------------------------------------------------------------------
# modulus character

def modulus_delta_exponent(a, n):
    """Exponent e with delta(diag(p^a_i * units)) = q^e."""
    return -sum(a[i] * (n + 1 - 2 * (i + 1)) for i in range(n))


# ---------------------------------------------------------------------------
# the transform

class SatakeImage:
    """Element of the group algebra of Z^n with formal sqrt-q coefficients."""

    def __init__(self, n, q, coeffs=None):
        self.n = n
        self.q = q
        self.coeffs = _coefficients(q, coeffs)

    def weyl_invariant(self):
        # no coefficient is zero, so a missing permutation breaks it
        coeffs = self.coeffs
        return all(c == coeffs.get(perm) for lam, c in coeffs.items()
                   for perm in itertools.permutations(lam))

    def __mul__(self, other):
        return SatakeImage(self.n, self.q,
                           _dict_poly_mul(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return (isinstance(other, SatakeImage)
                and (self.n, self.q) == (other.n, other.q)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{lam}: {c}" for lam, c in sorted(self.coeffs.items()))
        return f"SatakeImage(n={self.n}, q={self.q}, {{{terms}}})"


def _dict_poly_mul(f, g):
    """Product of two polynomials given as {exponent tuple: coefficient};
    a zero HalfPowerLaurent (it has no __bool__) stays for _coefficients."""
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            e = tuple(map(operator.add, a, b))
            cd = c * d
            out[e] = out[e] + cd if e in out else cd
    return {e: c for e, c in out.items() if c}


def _hall_littlewood(lam, q):
    """The Hall-Littlewood polynomial P_lam(x; t) at t = 1/q, as a list
    of (exponent tuple, HalfPowerLaurent) pairs.

    P_lam = (1/v_lam(t)) sum_{w in S_n} w(x^lam prod_{i<j}
    (x_i - t x_j) / (x_i - x_j)) for lam >= 0 (Macdonald III (2.2)), and
    P_{lam + c} = (x_1...x_n)^c P_lam.  Each factor x_i - t x_j is
    (q x_i - x_j) / q, so the antisymmetrized numerator is an int
    polynomial; it is divided exactly by the Vandermonde prod_{i<j}
    (x_i - x_j), whose lex-leading coefficient is 1, by long division.
    """
    n = len(lam)
    c = lam[-1]
    lam = tuple(a - c for a in lam)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    num = {lam: 1}
    vandermonde = {(0,) * n: 1}
    for i, j in pairs:
        num = _dict_poly_mul(num, {unit[i]: q, unit[j]: -1})
        vandermonde = _dict_poly_mul(vandermonde, {unit[i]: 1, unit[j]: -1})
    rest = {}
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in pairs)
        for e, coeff in num.items():
            w = tuple(e[k] for k in perm)
            rest[w] = rest.get(w, 0) + sign * coeff
    rest = {e: coeff for e, coeff in rest.items() if coeff}
    lead = max(vandermonde)
    quotient = {}
    while rest:
        top = max(rest)
        mono = tuple(a - b for a, b in zip(top, lead))
        if min(mono) < 0:
            raise GlnLabError("numerator not divisible by the Vandermonde")
        coeff = rest[top]
        quotient[mono] = coeff
        for e, d in vandermonde.items():
            key = tuple(a + b for a, b in zip(mono, e))
            val = rest.get(key, 0) - coeff * d
            if val:
                rest[key] = val
            else:
                del rest[key]
    # q^(number of pairs) from the factors, times v_lam(t) =
    # prod over the multiplicities m of lam (zeros too) of
    # prod_{j <= m} (1 - t^j) / (1 - t) = (q^j - 1) / (q^(j-1) (q - 1))
    norm, denom = q**len(pairs), 1
    for m in Counter(lam).values():
        for j in range(1, m + 1):
            norm *= q**j - 1
            denom *= q**(j - 1) * (q - 1)
    scale = HalfPowerLaurent(q, norm).inverse() * denom
    return [(tuple(a + c for a in e), scale * coeff)
            for e, coeff in quotient.items()]


@functools.lru_cache(maxsize=256)
def _basis_image(m, q):
    """The transform q^<rho, m> P_m(x; 1/q) of the indicator of K p^m K,
    m_n = 0, as (exponent tuple, HalfPowerLaurent) pairs; q^<rho, m> is
    v to minus the modulus exponent of m, which central shifts keep, so
    the image for m + c is this one with its exponents shifted by c."""
    scale = HalfPowerLaurent.v_power(q, -modulus_delta_exponent(m, len(m)))
    return tuple((nu, scale * c) for nu, c in _hall_littlewood(m, q))


def satake_transform(f):
    """The whole transform f -> f-hat.

    By Macdonald's formula (Macdonald V (3.3)), the indicator of
    K p^mu K goes to q^<rho, mu> P_mu(x; 1/q), x^nu standing for e_nu
    (_basis_image).  P_mu is m_mu plus terms lower in the dominance
    order (Macdonald III), so every weight lies in [mu_n, mu_1]^n.  The
    sum over S_n has no cap, so the rank is limited to 3.  The image is
    returned as computed: whether it is Weyl-invariant is the caller's
    verdict (SatakeImage.weyl_invariant).
    """
    n, q = f.n, f.p
    if n not in (1, 2, 3):
        raise UnsupportedRank(f"rank {n} not supported")
    coeffs = {}
    for mu, cmu in f.support.items():
        shift = mu[-1]
        for nu, c in _basis_image(tuple(a - shift for a in mu), q):
            nu = tuple([a + shift for a in nu])
            c = cmu * c
            coeffs[nu] = coeffs[nu] + c if nu in coeffs else c
    return SatakeImage(n, q, coeffs)


def satake_by_coset_count(f, cap=DEFAULT_GROUP_CAP):
    """Independent oracle: f-hat(lam) = delta^{1/2} * #{i : g_i in
    N(F) p^lam GL_n(O)}, counting the cosets of coset_decompose.

    A representative p^shift * M lies in N(F) p^lam GL_n(O) for lam the
    shift plus the diagonal exponents of M (_diagonals), charged first
    (_forms); every such lam lies in [mu_n, mu_1]^n, and each is counted.
    """
    n, q = f.n, f.p
    acc = {}
    for mu, cmu in f.support.items():
        shift, m, forms = _forms(mu, n, q)
        charge(cap, f"{forms} Hermite forms to test", forms)
        for diag, count in _diagonals(m, q):
            lam = tuple([shift + e for e in diag])
            c = cmu * count
            acc[lam] = acc[lam] + c if lam in acc else c
    return SatakeImage(n, q, {
        lam: HalfPowerLaurent.v_power(q, modulus_delta_exponent(lam, n)) * c
        for lam, c in acc.items()})
