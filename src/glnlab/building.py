"""Fundamental-domain simplices for GL_n and their stabilizer patterns.

Stabilizers are compact open modulo the center, hence infinite; they are
represented intensionally by entry-wise valuation lower bounds plus the
unit-determinant-mod-center constraint.  Exhaustive enumeration happens
only on residue-level images, inside the audit operations.
"""

from __future__ import annotations

import itertools

from .errors import NotPrime, PrecisionExhausted, charge
from .lang import gl_elements
from .rings import (DEFAULT_GROUP_CAP, FiniteField, TruncatedLocalRing,
                    is_prime, minor)


def fundamental_simplices(n, cap=DEFAULT_GROUP_CAP):
    """All 2^n - 1 nonempty vertex subsets, smallest-first canonical order.

    Vertex i is the homothety class of the standard lattice with the
    first i basis vectors scaled by p.  The count is checked against the
    cap before any subset is built.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    charge(cap, f"2^{n} - 1 simplices", lambda: 2**n - 1, n - 1)
    out = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            out.append(combo)
    return out


class ValuationPattern:
    """Entry-wise valuation lower bounds defining a stabilizer mod center.

    g belongs iff for the central exponent i forced by the determinant
    (v(det g) = -n*i), every entry satisfies v(g_jk) + i >= m_jk.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        self.entries = tuple(tuple(int(x) for x in row) for row in entries)
        self.n = len(self.entries)

    def conjugate(self, diag_exponents):
        """Pattern of diag(p^e) * G * diag(p^e)^-1."""
        e = list(diag_exponents)
        return ValuationPattern(
            [[self.entries[i][j] + e[i] - e[j] for j in range(self.n)]
             for i in range(self.n)])

    def __eq__(self, other):
        return isinstance(other, ValuationPattern) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ValuationPattern({self.entries})"


def stabilizer_pattern(simplex, n):
    """Intersection of the vertex stabilizer patterns over the simplex.
    Vertex k stands for diag(p 1_k, 1_(n-k)) GL_n(O) (..)^-1, whose
    pattern has entry (i, j) e_i - e_j, e = (1^k, 0^(n-k)); so entry
    (i, j) here is the max over the simplex's vertices k of
    (i < k) - (j < k)."""
    return ValuationPattern([[max((i < k) - (j < k) for k in simplex)
                              for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Iwasawa decomposition g = b * k

# samples decomposed per unit inverse: a request holds at most this many
_BLOCK = 256


def _iwasawa_pivot(p, n, a, b, c, d):
    """g = (a b; c d) over Z/p^n, on ints alone, with its columns swapped
    when the leftmost least valuation v of the bottom row is in column 0,
    as (a, b, c, d, p^v, swap): then d = p^v * u with u a unit.  Only a
    singular bottom row raises."""
    v, pv = 0, 1  # v is the least valuation of the bottom row, pv = p^v
    while v < n and not (c % (pv * p) or d % (pv * p)):
        v, pv = v + 1, pv * p
    if v >= n:
        raise PrecisionExhausted("pivot row vanishes at working precision")
    swap = c % (pv * p)  # v(c) = v: the leftmost pivot is in column 0
    if swap:
        return b, a, d, c, pv, swap
    return a, b, c, d, pv, swap


def _iwasawa_shear(pn, pivoted, inverse):
    """Codes of b and k in g = b * k, from ``_iwasawa_pivot``'s output
    and the inverse of its unit u mod pn: one shear clears the
    bottom-left entry, t = (c / p^v) * u^-1.  Then k = (1 0; t 1), or
    (0 1; 1 t) after a swap.  The factors are returned as found, and
    ``iwasawa_failures`` tests them."""
    a, b, c, d, pv, swap = pivoted
    t = 0
    if c:
        t = c // pv * inverse % pn
        a, c = (a - t * b) % pn, (c - t * d) % pn
    return (a, b, c, d), ((0, 1, 1, t) if swap else (1, 0, t, 1))


def _unit_inverses(ring, units):
    """The inverses mod p^n of a list of units, by one ``ring.inv``:
    Montgomery's batch inversion (Math. Comp. 48, 1987, 10.3.1) inverts
    the product of all of them, then peels one unit off at a time, in
    3m products mod p^n for m units."""
    top, prefix, acc = ring.pn, [], 1
    for u in units:
        prefix.append(acc)  # the product of the units before u
        acc = acc * u % top
    acc = ring.inv(acc)
    out = [0] * len(units)
    for i in range(len(units) - 1, -1, -1):
        out[i] = acc * prefix[i] % top
        acc = acc * units[i] % top
    return out


def iwasawa_failures(ring, matrices):
    """How many of a list of 2 x 2 code tuples (a, b, c, d) over a ring
    Z/p^n of degree 1 fail g = b * k: unless b * k == g, b is upper
    triangular and det k is a unit.  Each pivot is found once, and the
    pivot units of the whole list are inverted by one ``ring.inv``."""
    p, n, top = ring.p, ring.n, ring.pn
    pivoted = [_iwasawa_pivot(p, n, *g) for g in matrices]
    inverses = _unit_inverses(ring, [h[3] // h[4] for h in pivoted])
    shear, failures = _iwasawa_shear, 0
    for (a, b, c, d), h, w in zip(matrices, pivoted, inverses):
        (b0, b1, b2, b3), (k0, k1, k2, k3) = shear(top, h, w)
        if ((b0 * k0 + b1 * k2 - a) % top or (b0 * k1 + b1 * k3 - b) % top
                or (b2 * k0 + b3 * k2 - c) % top
                or (b2 * k1 + b3 * k3 - d) % top
                or b2 or not (k0 * k3 - k1 * k2) % p):
            failures += 1
    return failures


def iwasawa_sample_failures(p, precision, count, rng, cap=DEFAULT_GROUP_CAP):
    """Failures of g = b * k among count random 2x2 samples.

    Entries are drawn below p^precision, with a global p-power offset in
    [-2, 2]; a sample is redrawn unless v(det g) < min(3, precision), so
    its determinant is nonzero at working precision.  The samples go to
    ``iwasawa_failures`` in blocks of ``_BLOCK``, each decomposed with
    one unit inverse.  The draws are ``randint(-2, 2)`` and
    ``randrange(p^precision)`` written out on ``rng.getrandbits``:
    CPython's ``randrange(m)`` draws ``getrandbits(m.bit_length())``
    until the value is below m, so each seed samples the same matrices
    and leaves rng in the same state.

    NotPrime unless p is prime; then count * w work units are charged
    against cap, before the ring is built (so p^precision is never
    formed): a sample costs w = ceil(bits/64)^2 work units, where bits =
    precision * bit length of p bounds the bits of p^precision.
    Measured per unit (2-core x86-64 on a shared host, Python 3.11.7,
    best of five, two sweeps): 1.9-4.0 us at one word, 0.33-1.8 us at
    2-5 words, 0.019-0.058 us from 64 to
    6250 words, so the square over-charges large precisions, and a
    request the default cap of 10^6 accepts runs at most about 7 s at
    one word (``--p 2 --count 1000000 --precision 32``, 6.0-7.0 s as a
    fresh process).  From about 128 words up, the three products a
    sample of the batch inversion cost more than one ladder inverse, so
    a sample costs 6-23% more than with one inverse each; there the cap
    admits at most 61 samples, well under 0.1 s.  A
    precision below 1 is charged nothing and refused by the ring, which
    charges its p residue field elements against the same cap.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    words = -(-max(precision, 0) * p.bit_length() // 64)
    charge(cap, f"{count} samples of {words}^2 work units each",
           count * words * words)
    ring = TruncatedLocalRing(p, precision, 1, cap)
    top, det_modulus = ring.pn, p**min(3, precision)
    bits, getrandbits = top.bit_length(), rng.getrandbits
    failures = 0
    for start in range(0, count, _BLOCK):
        size, block = min(_BLOCK, count - start), []
        while len(block) < size:
            # g = p^offset (a b; c d); b takes the offset whole and k
            # none, so the offsets add up by construction: the offset,
            # randint(-2, 2), is drawn and discarded; then randrange(top)
            # for each entry
            while getrandbits(3) >= 5:
                pass
            a = getrandbits(bits)
            while a >= top:
                a = getrandbits(bits)
            b = getrandbits(bits)
            while b >= top:
                b = getrandbits(bits)
            c = getrandbits(bits)
            while c >= top:
                c = getrandbits(bits)
            d = getrandbits(bits)
            while d >= top:
                d = getrandbits(bits)
            if (a * d - b * c) % det_modulus:
                block.append((a, b, c, d))
        failures += iwasawa_failures(ring, block)
    return failures


# ---------------------------------------------------------------------------
# residue-level audits

def _residue_triangular(field, n, lower):
    """Lower triangular matrices with one repeated unit on the diagonal
    (lower=True), or upper triangular ones with any unit diagonal, as
    flat code tuples."""
    nel = field.size()
    units = [a for a in range(nel) if field.is_unit(a)]
    fill = [r * n + c for r in range(n) for c in range(n)
            if (r > c if lower else r < c)]
    diags = ([(a,) * n for a in units] if lower
             else itertools.product(units, repeat=n))
    fills = list(itertools.product(range(nel), repeat=len(fill)))
    out = []
    for diag in diags:
        codes = [0] * (n * n)
        codes[::n + 1] = diag
        for vals in fills:
            for pos, v in zip(fill, vals):  # every fill entry is rewritten
                codes[pos] = v
            out.append(tuple(codes))
    return out


def audit_ub_factorization(n, p, cap=DEFAULT_GROUP_CAP):
    """Does (lower-triangular-equal-diagonal) * (upper triangular) cover
    the whole residue group?  Reports the product-set size and any
    elements not of the form u*b, as flat code tuples.

    The |U| |B| products are charged before GL_n(F_p) is enumerated, in
    closed form: |U| = (p - 1) p^(n(n-1)/2), |B| = (p - 1)^n p^(n(n-1)/2).
    """
    field = FiniteField(p, 1, cap)
    charge(cap, f"{p - 1}^{n + 1} * {p}^{n * (n - 1)} products u * b",
           lambda: (p - 1)**(n + 1) * p**(n * (n - 1)), n * (n - 1))
    g_all = gl_elements(field, n, cap=cap)
    u_set = _residue_triangular(field, n, lower=True)
    b_set = _residue_triangular(field, n, lower=False)
    mul = field.mat_product(n)
    products = {mul(u, b) for u in u_set for b in b_set}
    # g_all is in coefficient order, so missing is too
    missing = [g for g in g_all if g not in products]
    return {
        "group_order": len(g_all),
        "product_set_size": len(products),
        "covers": not missing,
        "counterexamples": missing,
    }


def audit_self_normalizing(n, p, cap=DEFAULT_GROUP_CAP):
    """Normalizer of the residue image U of the lower-equal-diagonal
    group inside GL_n(F_p): U is the central scalars times the group the
    1 + E_rc (r > c) generate, so g normalizes U exactly when each
    g (1 + E_rc) g^-1 lies in U, tested up to the first that does not.

    No g is inverted: g (1 + E_rc) g^-1 = 1 + u w^T / det g, u column r
    of g and w row c of adj(g), w_j the minor of g without row j and
    column c up to sign.  As w^T u = 0, u w^T is nilpotent, so the
    conjugate lies in U exactly when u w^T is strictly lower triangular:
    with k the first index where u is nonzero, k >= 1 and w_j = 0 for
    every j >= k.
    """
    field = FiniteField(p, 1, cap)
    g_all = gl_elements(field, n, cap=cap)
    u_set = set(_residue_triangular(field, n, lower=True))
    det = field.mat_det

    def into_u(g, r):
        """Do the g (1 + E_rc) g^-1, c < r, all lie in U?"""
        k = next(i for i in range(n) if g[i * n + r])
        return k and not any(det(n - 1, minor(g, n, j, c))
                             for c in range(r) for j in range(k, n))

    normalizer = [g for g in g_all if all(into_u(g, r) for r in range(1, n))]
    return {
        "group_order": len(g_all),
        "u_order": len(u_set),
        "normalizer_order": len(normalizer),
        "self_normalizing": set(normalizer) == u_set,
    }
