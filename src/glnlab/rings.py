"""Exact arithmetic substrate.

One integer-coded ring class, ``TruncatedLocalRing(p, n, d)``: the ring
(Z/p^n)[x]/(F), F the canonical degree-d field modulus, with the
canonical Frobenius lift sigma.  ``FiniteField(p, d)`` is its level-1
case, where sigma is the p-power map.  An element is an int code in
[0, p^(nd)) whose base-p^n digits are its coefficients, constant term
most significant, so code order is coefficient-tuple order.  The ring
fixes its arithmetic at construction from (p, n, d): native ints mod p^n
when d = 1; add and mul row tables (``A[a][b]``, ``M[a][b]``) and
negation, unit and sigma tables when d > 1 and the ring has at most
256 elements (so an N x N table holds at most 2^16 codes); packed codes
otherwise, the coefficients in the slots of one int, so that a sum of
products costs one integer product a term, a fold through F and one
read of the slots mod p^n.  Every ring also fixes three matrix kernels
on flat code tuples (``mul2``, ``form``, ``sandwich``: those of
``_op_kernels``, unrolled over the tables).  sigma^e is one map of codes
per e mod d (``sigma_map``), built on first use.  The norm
a sigma^e(a) ... sigma^(e(m-1))(a) (``norm_map``) is one addition chain,
and the inverse of every ring with d > 1 its norm form (Itoh-Tsujii,
Inf. Comput. 78, 1988).

Claims work on codes and flat code tuples alone.  The element layer at
the end (thin (ring, code) objects, and ``Mat``: a flat code tuple plus
a global p-power offset) stays only for perfbench's tracer and the tests.

Last, the coefficient ring of Laurent polynomials in a formal square
root v of q, whose elements are immutable int triples (A, B, D) standing
for (A + B v)/D in lowest terms.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, partial

from .errors import (GlnLabError, InvalidConfig, NotInvertible, NotPrime,
                     charge)

DEFAULT_FIELD_CAP = 1 << 16
DEFAULT_GROUP_CAP = 10**6
_TABLE_MAX = 1 << 8  # largest tabulated ring: an N x N table has <= 2^16 codes
_CHUNK_MAX = 1 << 12  # largest digit-chunk table of a packed ring
_PACK_TERMS = 16  # most products in one packed sum


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least composite that passes the strong test to every base in
# _SMALL_PRIMES (Sorenson and Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BOUND = 318665857834031151167461


def is_prime(m):
    """Exact primality: trial division by the primes up to 37, then a
    strong (Miller-Rabin) test to those bases, which has no false
    positive below _MILLER_RABIN_BOUND; above it, sympy.isprime."""
    if m < 2:
        return False
    for b in _SMALL_PRIMES:
        if m % b == 0:
            return m == b
    if m < 37 * 37:
        return True
    if m >= _MILLER_RABIN_BOUND:
        import sympy
        return bool(sympy.isprime(m))
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _SMALL_PRIMES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# F[X] over a field F: lists of F's codes, low degree first, trimmed (no
# zero leading coefficient), on F's add, mul, neg and inv, with one product
# and one division with remainder: the modulus's irreducibility test,
# lang's invariant factors and lfactor's cyclotomic division over Z
# (monic divisors) use them

def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_submul(F, u, v, k, c):
    """u - c x^k v, trimmed."""
    add, mul, c = F.add, F.mul, F.neg(c)
    out = list(u) + [0] * (len(v) + k - len(u))
    for i, y in enumerate(v, k):
        out[i] = add(out[i], mul(c, y))
    return _poly_trim(out)


def _poly_mul(F, f, g):
    """f g."""
    add, mul = F.add, F.mul
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g, i):
            out[j] = add(out[j], mul(a, b))
    return out


def _poly_divmod(F, f, g):
    """(quotient, remainder) of f by g != 0."""
    quot, lead = [0] * max(len(f) - len(g) + 1, 0), F.inv(g[-1])
    while len(f) >= len(g):
        k, c = len(f) - len(g), F.mul(f[-1], lead)
        quot[k] = c
        f = _poly_submul(F, f, g, k, c)
    return quot, f


def _is_irreducible(f, p):
    """Exhaustive irreducibility test for monic f over Z/p.

    Trial division by every monic polynomial of degree 1..deg(f)//2 over
    F_p, whose codes are the ints mod p; only viable at the small sizes
    this library caps itself to.
    """
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    F = FiniteField(p, 1, cap=p)
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if not _poly_divmod(F, f, tail + (1,))[1]:
                return False
    return True


@lru_cache(maxsize=None)
def _canonical_modulus(p, d):
    """Lexicographically least monic irreducible of degree d over Z/p.

    Coefficient tuples are compared highest degree first.
    """
    for t in itertools.product(range(p), repeat=d):
        f = tuple(reversed(t)) + (1,)
        if _is_irreducible(f, p):
            return f
    raise NotPrime(f"no irreducible polynomial of degree {d} over Z/{p}")


def _norm_chain(mul, sigma, m):
    """a -> N_m(a) = a sigma(a) ... sigma^(m-1)(a), m >= 1, for the product
    mul and sigma(k) the map sigma^k, down the bits of m (Itoh-Tsujii):
    N_(2k) = N_k sigma^k(N_k), and N_(2k+1) = a sigma(N_(2k)) at a set bit,
    k the prefix of m so far.  The plan is fixed here; m <= 3 needs sigma."""
    plan = [(sigma(m >> i), m >> i - 1 & 1)
            for i in range(m.bit_length() - 1, 0, -1)]

    def norm(a):
        acc = a
        for f, add in plan:
            acc = mul(acc, f(acc))
            if add:
                acc = mul(a, plan[0][0](acc))
        return acc

    return norm


def _norm_inverse(ring, conj, a):
    """a^-1 = sigma(N_(d-1)(a)) N_d(a)^-1, conj = N_(d-1), N_d(a) in Z/p^n."""
    b, one = ring.sigma(conj((a,))[0]), ring.one_code
    c, rest = divmod(ring.mul(a, b), one)
    if rest:
        raise GlnLabError("a norm is not in Z/p^n")
    if c % ring.p == 0:
        raise NotInvertible("not a unit")
    return ring.mul(b, pow(c, -1, ring.pn) * one)


def minor(a, s, i, j):
    """The flat s x s matrix a without row i and column j."""
    return tuple([a[r * s + c] for r in range(s) if r != i
                  for c in range(s) if c != j])


def _unit_inverse(p, n):
    """The map a -> a^-1 mod p^n on integers a prime to p; NotInvertible
    when p divides a.

    Newton (Hensel) lifting, as in von zur Gathen-Gerhard, Modern
    Computer Algebra, 9.1: the exponents n, ceil(n/2), ceil(n/4), ..
    stop at the first e with p^e below 2^30 (or at e = 1), one pow
    inverts a mod p^e, and each step x <- x(2 - ax) mod p^e', e' <= 2e,
    lifts the inverse one rung up, with a read mod p^e'.  The ladder is
    built here, once per ring.  pow alone is an extended Euclid,
    quadratic in the bits of p^n; the steps cost a few products, the
    largest at the top.  When p^n is below 2^30 the ladder is empty and
    the map is one pow.
    """
    exps = [n]
    while exps[-1] > 1 and p**exps[-1] >> 30:
        exps.append((exps[-1] + 1) // 2)
    base = p**exps.pop()
    ladder = tuple(p**e for e in reversed(exps))

    def inv(a):
        if a % p == 0:
            raise NotInvertible("not a unit")
        x = pow(a, -1, base)
        for m in ladder:
            x = x * (2 - a % m * x) % m
        return x

    return inv


# ---------------------------------------------------------------------------
# the three arithmetics of a ring's codes; each returns add, mul, neg, dot
# (sum of products), inv (None when d > 1: the ring's norm form),
# is_unit, decode, and linear (images of the basis 1, x, .., x^(d-1) -> the
# additive map of codes they define), then the matrix kernels mul2, form
# and sandwich: unrolled over the tables, those of _op_kernels elsewhere,
# except the packed codes' own sandwich.  The determinant and inverse are
# the ring's mat_det and mat_inv: cofactors on dot at every size.

def _op_kernels(mul, dot):
    """The matrix kernels from a ring's mul and dot on codes: the 2 x 2
    product of flat code tuples, the linear form r -> sum r_i c_i of
    fixed codes c, and the sandwich x -> a x b of flat s x s matrices
    for fixed a, b."""

    def mul2(x, y):
        r0, r1, c0, c1 = x[:2], x[2:], y[::2], y[1::2]
        return (dot(r0, c0), dot(r0, c1), dot(r1, c0), dot(r1, c1))

    def form(cs):
        return lambda r: dot(r, cs)

    def sandwich(s, a, b):
        # per entry, the indices into x and the coefficients of its
        # nonzero terms; 0 * x[0] stands for an entry with none
        pairs = list(itertools.product(range(s), repeat=2))
        terms = []
        for i, j in pairs:
            t = [(k * s + l, c) for k, l in pairs
                 if (c := mul(a[i * s + k], b[l * s + j]))]
            terms.append(tuple(zip(*t)) if t else ((0,), (0,)))
        return lambda x: tuple([dot(cs, [x[k] for k in ks])
                                for ks, cs in terms])

    return mul2, form, sandwich


def _native_ops(ring):
    p, m = ring.p, ring.pn
    mul, neg = (lambda a, b: a * b % m), (lambda a: -a % m)
    inv, is_unit = _unit_inverse(p, ring.n), (lambda a: a % p != 0)

    def dot(xs, ys):
        return sum(map(operator.mul, xs, ys)) % m

    return ((lambda a, b: (a + b) % m, mul, neg, dot, inv, is_unit,
             lambda a: (a,), None) + _op_kernels(mul, dot))


def _table_ops(ring):
    """Row tables A[a][b] = a + b and M[a][b] = a b, and the negation
    and unit tables; the unrolled kernels read the rows directly.  No
    inverse: the ring's norm form inverts."""
    p, pn, d, size = ring.p, ring.pn, ring.d, ring.size()
    coeffs = list(itertools.product(range(pn), repeat=d))  # code order
    A = []
    for ca in coeffs:
        row = [0]
        for ai, w in zip(ca, ring.weights):
            row = [r + (ai + t) % pn * w for r in row for t in range(pn)]
        A.append(row)

    def linear(images):
        row = [0]
        for img in images:
            mult = [0]
            for _ in range(pn - 1):
                mult.append(A[mult[-1]][img])
            row = [A[r][m] for r in row for m in mult]
        return row

    # x * x^j = x^(j+1), and x * x^(d-1) = x^d = x^d - F
    times_x = linear(ring.weights[1:] + (
        ring.encode([-c for c in ring.modulus_lift]),))
    M = []
    for a in range(size):
        images = [a]
        for _ in range(d - 1):
            images.append(times_x[images[-1]])
        M.append(linear(images))
    unit = [any(c % p for c in ca) for ca in coeffs]
    neg = [ring.encode([-c for c in ca]) for ca in coeffs]

    def dot(xs, ys):
        acc = 0
        for a, b in zip(xs, ys):
            acc = A[acc][M[a][b]]
        return acc

    def mul2(x, y):
        a, b, c, e = x
        ma, mb, mc, me = M[a], M[b], M[c], M[e]
        return (A[ma[y[0]]][mb[y[2]]], A[ma[y[1]]][mb[y[3]]],
                A[mc[y[0]]][me[y[2]]], A[mc[y[1]]][me[y[3]]])

    def form(cs):
        if len(cs) == 2:
            m0, m1 = M[cs[0]], M[cs[1]]
            return lambda r: A[m0[r[0]]][m1[r[1]]]
        return lambda r: dot(r, cs)

    def sandwich(s, a, b):
        # entry i is first[i] = (k, row): row[x[k]], plus row[x[k]] for
        # each further nonzero term (i, k, row) of more; (0, M[0]) stands
        # for an entry with none
        pairs = list(itertools.product(range(s), repeat=2))
        first, more = [], []
        for i, j in pairs:
            terms = [(k * s + l, M[c]) for k, l in pairs
                     if (c := M[a[i * s + k]][b[l * s + j]])] or [(0, M[0])]
            first.append(terms[0])
            more += [(i * s + j, k, row) for k, row in terms[1:]]

        def apply(x):
            out = [row[x[k]] for k, row in first]
            for i, k, row in more:
                out[i] = A[out[i]][row[x[k]]]
            return tuple(out)
        return apply

    return ((lambda a, b: A[a][b], lambda a, b: M[a][b], neg.__getitem__,
             dot, None, unit.__getitem__, coeffs.__getitem__,
             lambda images: linear(images).__getitem__,
             mul2, form, sandwich))


def _poly_ops(ring):
    """Packed codes: the coefficients of degree 0 .. d - 1 in W-bit slots
    of one int (Kronecker substitution x -> 2^W; von zur Gathen-Gerhard,
    8.4), W wide enough that no sum below carries out of a slot.  A code
    is packed by one table lookup per chunk of its base-p^n digits.  A
    sum of up to _PACK_TERMS products (``mul``, ``dot``, the 1 x 1
    ``sandwich``) costs one integer product a term, folds of the slots
    of degree >= d through x^d = G mod F, G = x^d - F read mod p^n, and
    one read: every slot mod p^n at once (a mask, or for odd p^n the
    quotient by one multiplication by about 2^s / p^n), then each
    chunk's code by an inverse lookup.  ``add``, ``neg`` and the linear
    maps (sigma^e, whose chunk tables hold the sums of their images) are
    packed sums read once.  No table has more than _CHUNK_MAX entries:
    past it a chunk is one digit, whose table is a range."""
    p, pn, d, weights = ring.p, ring.pn, ring.d, ring.weights
    g = [-c % pn for c in ring.modulus_lift[:-1]]
    # by monotony no slot of a sum read below, over its folds, exceeds
    # those of _PACK_TERMS squares of the code whose every coefficient is
    # p^n - 1, here folded at a width X that no slot can fill
    X = (_PACK_TERMS * d * pn**2 * (1 + d * pn)**d).bit_length()
    folds = [_PACK_TERMS * sum(pn - 1 << i * X for i in range(d))**2]
    top, GX = d * X, sum(c << i * X for i, c in enumerate(g))
    while folds[-1] >> top:
        folds.append((folds[-1] & (1 << top) - 1) + (folds[-1] >> top) * GX)
    bits, rounds = max(P >> i * X & (1 << X) - 1 for P in folds
                       for i in range(2 * d)).bit_length(), len(folds) - 1
    ell, pow2 = (pn - 1).bit_length(), pn & (pn - 1) == 0
    W = bits if pow2 else 2 * bits + 1  # room for v * magic when odd
    G = sum(c << i * W for i, c in enumerate(g))
    ones, high = sum(1 << i * W for i in range(d)), d * W
    low = (1 << high) - 1
    pmask, negs = (pn - 1) * ones, pn * ones  # negs - a packs -a
    magic, shift = -(-(1 << bits + ell) // pn), bits + ell
    qmask = 0 if pow2 else ((1 << W - shift) - 1) * ones

    # chunk j of a code, its j-th k base-p^n digits from the lowest, holds
    # the coefficients of degree d - (j + 1) k .. d - 1 - j k (from 0)
    k = max([1] + [k for k in range(2, d + 1) if pn**k <= _CHUNK_MAX])
    k = -(-d // -(-d // k))  # the chunks as even as their number allows
    spans = [range(max(0, d - k - j), d - j) for j in range(0, d, k)]
    M, chunks = pn**k, len(spans)

    def tables(images):
        """Per chunk, its digits' sums of images, indexed by its value."""
        if pn > _CHUNK_MAX:
            return [range(0, pn * images[span[0]], images[span[0]])
                    for span in spans]
        out = []
        for span in spans:
            out.append([0])
            for i in span:
                out[-1] = [t + v * images[i] for t in out[-1]
                           for v in range(pn)]
        return out

    def lookup(ts):
        """The map code -> sum of its chunks' entries in the tables ts."""
        if chunks == 2:
            lo, hi = ts
            return lambda a: hi[a // M] + lo[a % M]
        return (ts[0].__getitem__ if chunks == 1 else
                lambda a: sum(t[a // M**j % M] for j, t in enumerate(ts)))

    packs = tables([1 << i * W for i in range(d)])
    pack = lookup(packs)
    # a chunk's value from its slots, each below p^n, and the code
    masks = [sum(1 << i * W for i in span) * ((1 << W) - 1) for span in spans]
    codes = [t.index if isinstance(t, range) else
             {v: u for u, v in enumerate(t)}.__getitem__ for t in packs]
    if chunks == 2:
        (f0, f1), (m0, m1) = codes, masks
        compose = lambda R: f1(R & m1) * M + f0(R & m0)
    else:
        compose = codes[0] if chunks == 1 else lambda R: sum(
            f(R & m) * M**j for j, (f, m) in enumerate(zip(codes, masks)))
    # the code of packed P, its slots below 2^bits, each read mod p^n
    reduce = ((lambda P: compose(P & pmask)) if pow2 else
              lambda P: compose(P - (P * magic >> shift & qmask) * pn))

    def read(P):
        """The code of a packed sum of at most _PACK_TERMS products."""
        for _ in range(rounds):
            P = (P & low) + (P >> high) * G
        return reduce(P)

    def mul(a, b):
        return read(pack(a) * pack(b))

    def dot(xs, ys):
        if len(xs) > _PACK_TERMS:
            return add(dot(xs[:_PACK_TERMS], ys[:_PACK_TERMS]),
                       dot(xs[_PACK_TERMS:], ys[_PACK_TERMS:]))
        return read(sum(map(operator.mul, map(pack, xs), map(pack, ys))))

    def linear(images):
        sums = lookup(tables(list(map(pack, images))))
        return lambda b: reduce(sums(b))

    def sandwich(s, a, b):
        if s > 1:  # its entries are dots: packed sums
            return dots(s, a, b)
        C = pack(mul(a[0], b[0]))  # x -> (a b) x
        return lambda x: (read(C * pack(x[0])),)

    decode = lambda a: tuple([a // w % pn for w in weights])
    add = lambda a, b: reduce(pack(a) + pack(b))
    neg = lambda a: reduce(negs - pack(a))
    is_unit = bool if ring.n == 1 else (  # a field's units: codes != 0
        lambda a: any(c % p for c in decode(a)))
    mul2, form, dots = _op_kernels(mul, dot)
    return (add, mul, neg, dot, None, is_unit, decode, linear, mul2, form,
            sandwich)


# ---------------------------------------------------------------------------
# the integer-coded ring

class TruncatedLocalRing:
    """(Z/p^n)[x]/(F), F the canonical field modulus read mod p^n.

    Models the ring of integers of the unramified degree-d extension
    truncated at p-adic precision n.  Carries the canonical Frobenius
    lift: the unique root of F congruent to x^p mod p.  The operations
    on codes (``add``, ``mul``, ``neg``, ``dot``, ``inv``, ``is_unit``,
    ``decode``) and the matrix kernels (``mul2``, ``form``,
    ``sandwich``) are fixed at construction; the ``mat_*`` methods work
    on flat row-major matrices of codes, the determinant and inverse by
    cofactors on ``dot`` at every size.
    """

    def __init__(self, p, n, d, cap=DEFAULT_FIELD_CAP):
        self._setup(p, n, d, cap)

    def _setup(self, p, n, d, cap):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if n < 1:
            raise InvalidConfig("precision must be >= 1")
        if d < 1:
            raise InvalidConfig("extension degree must be >= 1")
        charge(cap, f"{p}^{d} residue field elements", lambda: p**d, d)
        self.p, self.n, self.d = p, n, d
        self.q = p**d
        self.pn = p**n
        self.modulus = _canonical_modulus(p, d)
        self.modulus_lift = tuple(c % self.pn for c in self.modulus)
        # code weight of each coefficient; the constant term weighs most
        self.weights = tuple(self.pn**(d - 1 - i) for i in range(d))
        self.one_code = self.weights[0]
        ops = (_native_ops if d == 1 else
               _table_ops if self.size() <= _TABLE_MAX else _poly_ops)
        (self.add, self.mul, self.neg, self.dot, self.inv, self.is_unit,
         self.decode, self._linear, self.mul2, self.form,
         self.sandwich) = ops(self)
        y, self._sigmas = self._lift_frobenius(), {0: lambda a: a}
        if d > 1:
            sigma = self._sigmas[1] = self._linear(list(itertools.accumulate(
                [y] * (d - 1), self.mul, initial=self.one_code)))
            for _ in range(d - 1):
                y = sigma(y)
            if y != self.weights[1]:
                raise GlnLabError("Frobenius lift does not have order d")
        if self.inv is None:  # d > 1: the norm form, built on sigma
            self.inv = partial(_norm_inverse, self, self.norm_map(1, d - 1))

    # -- Frobenius ------------------------------------------------------------
    def evaluate(self, coeffs, y):
        """Code of the value at code y of an integer-coefficient polynomial."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, y), c % self.pn * self.one_code)
        return acc

    def _lift_frobenius(self):
        """Code of sigma(x): the root of F congruent to x^p mod p, by
        Newton iteration from x^p, with no inverse: u = F'(y)^-1 starts
        mod p as F'(y)^(q-2) and follows y by steps u <- u (2 - F'(y) u)."""
        if self.d == 1:
            return self.one_code
        f, two = self.modulus_lift, 2 % self.pn * self.one_code
        fprime = tuple(i * c for i, c in enumerate(f))[1:]
        y = self.pow(self.weights[1], self.p)
        u = self.pow(self.evaluate(fprime, y), self.q - 2)
        for _ in range(self.n):
            fy = self.evaluate(f, y)
            if not fy:
                break
            y = self.add(y, self.neg(self.mul(fy, u)))
            fu = self.mul(self.evaluate(fprime, y), u)
            u = self.mul(u, self.add(two, self.neg(fu)))
        if self.evaluate(f, y):
            raise GlnLabError("Newton iteration failed to lift Frobenius")
        return y

    def pow(self, a, e):
        """Code of a^e, e >= 0, by repeated squaring."""
        result = self.one_code
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def sigma_map(self, e=1):
        """The map of codes a -> sigma^e(a), built once per e mod d: the
        additive map of the images sigma^e(x^j) of the basis."""
        e %= self.d
        if e not in self._sigmas:
            images = self.weights  # the codes of 1, x, .., x^(d-1)
            for _ in range(e):
                images = list(map(self._sigmas[1], images))
            self._sigmas[e] = self._linear(images)
        return self._sigmas[e]

    def sigma(self, a, e=1):
        """Code of sigma^e(a), e taken mod d."""
        return self.sigma_map(e)(a)

    def norm_map(self, s, m, e=1):
        """a -> a sigma^e(a) ... sigma^(e(m-1))(a) on flat s x s code tuples,
        m >= 1, by ``_norm_chain`` (at s = 1 on the entry's code)."""
        if s == 1:
            norm = _norm_chain(self.mul, lambda k: self.sigma_map(e * k), m)
            return lambda a: (norm(a[0]),)
        return _norm_chain(self.mat_product(s), lambda k: (
            lambda x, f=self.sigma_map(e * k): tuple(map(f, x))), m)

    # -- codes and element constructors ---------------------------------------
    def encode(self, coeffs):
        """Code of the element with these coefficients (at most d), each
        read mod p^n."""
        pn = self.pn
        return sum(c % pn * w for c, w in zip(coeffs, self.weights))

    def element(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) > self.d:
            raise ValueError("too many coefficients")
        return LocalRingElement(self, self.encode(coeffs))

    def one(self):
        return LocalRingElement(self, self.one_code)

    def size(self):
        return self.pn**self.d

    # -- p-adic valuation on codes --------------------------------------------
    def valuation(self, a):
        """p-adic valuation of code a in {0,..,n}; n exactly for zero.

        For d > 1 it is the valuation of the gcd of the coefficients."""
        if not a:
            return self.n
        if self.d > 1:
            a = math.gcd(*self.decode(a))
        p, v = self.p, 0
        while a % p == 0:
            a //= p
            v += 1
        return v

    # -- flat matrices of codes -----------------------------------------------
    def mat_mul(self, s, a, b):
        """Product of two flat s x s matrices."""
        if s == 2:
            return self.mul2(a, b)
        if s == 1:
            return (self.mul(a[0], b[0]),)
        dot = self.dot
        cols = [b[j::s] for j in range(s)]
        return tuple([dot(a[i:i + s], col)
                      for i in range(0, s * s, s) for col in cols])

    def _cofactors(self, s, a, i):
        """The cofactors (-1)^(i+j) det(minor (i, j)) of row i of a flat
        s x s matrix, s >= 2."""
        det, neg = self.mat_det, self.neg
        return [neg(m) if (i + j) % 2 else m
                for j in range(s) for m in [det(s - 1, minor(a, s, i, j))]]

    def mat_det(self, s, a):
        """Determinant by cofactor expansion along the first row."""
        if s == 1:
            return a[0]
        return self.dot(a[:s], self._cofactors(s, a, 0))

    def mat_inv(self, s, a):
        """Inverse by the adjugate, the transposed cofactors, over the
        determinant, the first row against its cofactors; at s = 1 the
        inverse of the one entry.  NotInvertible unless it is a unit."""
        cof = [self._cofactors(s, a, i) for i in range(s)] if s > 1 else ()
        d = self.dot(a[:s], cof[0]) if cof else a[0]
        if not self.is_unit(d):
            raise NotInvertible("determinant is not a unit")
        if not cof:
            return (self.inv(d),)
        k, mul = self.inv(d), self.mul
        return tuple([mul(c, k) for column in zip(*cof) for c in column])

    def mat_product(self, s):
        """The product of flat s x s matrices, a function of the matrices
        alone: the unrolled kernel at s = 2."""
        return self.mul2 if s == 2 else partial(self.mat_mul, s)

    def mat_sigma(self, a, e=1):
        """Entry-wise sigma^e."""
        e %= self.d
        return tuple(map(self.sigma_map(e), a)) if e else a

    def __eq__(self, other):
        return (isinstance(other, TruncatedLocalRing)
                and (self.p, self.n, self.d) == (other.p, other.n, other.d))

    def __hash__(self):
        return hash(("TruncatedLocalRing", self.p, self.n, self.d))

    def __repr__(self):
        return f"TruncatedLocalRing(p={self.p}, n={self.n}, d={self.d})"


class FiniteField(TruncatedLocalRing):
    """The field with p^d elements: the level-1 truncated ring.

    The modulus is the lexicographically least monic irreducible of
    degree d over Z/p (coefficients compared highest degree first), so
    two fields with the same (p, d) are interchangeable.
    """

    def __init__(self, p, d, cap=DEFAULT_FIELD_CAP):
        self._setup(p, 1, d, cap)

    def __repr__(self):
        return f"FiniteField({self.p}, {self.d})"


def _prime_factors(m):
    """The primes dividing m >= 1, read off the divisor pairs (r, m/r) of
    m, r up to its square root."""
    return [f for r in range(1, math.isqrt(m) + 1) if m % r == 0
            for f in (r, m // r) if is_prime(f)]


def residue_primitive_root(ring):
    """The code of the first element, in code order, with every
    coefficient in [0, p) whose residue generates F_q^*: no power
    (q-1)/r of it, r a prime dividing q - 1, is 1 mod p.  On a field it
    is the least primitive element.

    The residue of z^((q-1)/(p-1)) is the norm N(z) of z's residue to
    F_p, a constant: the constant coefficient (the leading digit of the
    code) mod p.  At a prime r of p - 1, z^((q-1)/r) = N(z)^((p-1)/r), so
    the test there is on ints; the units that pass it take the test in
    the ring only at the primes of q - 1 that do not divide p - 1."""
    p, q, one, unit = ring.p, ring.q, ring.one_code, ring.is_unit
    minus_one, e = ring.neg(one), (q - 1) // (p - 1)
    small = _prime_factors(p - 1)
    primes = [r for r in _prime_factors(q - 1) if (p - 1) % r]
    for z in map(ring.encode, itertools.product(range(p), repeat=ring.d)):
        if not unit(z):
            continue
        n = ring.pow(z, e) // one % p if small else 1
        if all(pow(n, (p - 1) // r, p) != 1 for r in small) and all(
                unit(ring.add(ring.pow(z, (q - 1) // r), minus_one))
                for r in primes):
            return z
    raise GlnLabError(f"no primitive root in F_{q}")


class LocalRingElement:
    """Element of a ring above: its code, decoded on demand."""

    __slots__ = ("ring", "code")

    def __init__(self, ring, code):
        self.ring = ring
        self.code = code

    @property
    def coeffs(self):
        return self.ring.decode(self.code)

    def __add__(self, other):
        return LocalRingElement(self.ring, self.ring.add(self.code, other.code))

    def __neg__(self):
        return LocalRingElement(self.ring, self.ring.neg(self.code))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return LocalRingElement(self.ring, self.ring.mul(self.code, other.code))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return LocalRingElement(self.ring, self.ring.pow(self.code, e))

    def is_zero(self):
        return self.code == 0

    def is_unit(self):
        return self.ring.is_unit(self.code)

    def valuation(self):
        """p-adic valuation in {0,..,n}; n exactly for the zero element."""
        return self.ring.valuation(self.code)

    def inverse(self):
        return LocalRingElement(self.ring, self.ring.inv(self.code))

    def sigma(self, e=1):
        """The Frobenius lift applied e times (e taken mod d); on a
        finite field, the p-power Frobenius."""
        return LocalRingElement(self.ring, self.ring.sigma(self.code, e))

    def __eq__(self, other):
        return (isinstance(other, LocalRingElement)
                and self.code == other.code
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash((self.ring.pn, self.ring.d, self.code))

    def __repr__(self):
        r = self.ring
        return f"R(p={r.p},n={r.n},d={r.d}){list(self.coeffs)}"


FqElement = LocalRingElement


# ---------------------------------------------------------------------------
# matrices

class Mat:
    """Square matrix over a ring above, as a flat row-major code tuple.

    ``offset`` is a global p-power exponent e: the matrix represents
    p^e times the stored integral entries, which lets diag(p^-1, 1)-type
    group elements live at finite precision.  Over finite fields the
    offset must stay 0.  ``rows`` and ``m[i, j]`` give element objects.
    """

    __slots__ = ("ring", "size", "codes", "offset")

    def __init__(self, ring, rows, offset=0):
        rows = [tuple(r) for r in rows]
        self._set(ring, len(rows), tuple(a.code for r in rows for a in r),
                  offset)

    def _set(self, ring, size, codes, offset):
        self.ring = ring
        self.size = size
        self.codes = codes
        self.offset = offset

    @classmethod
    def from_codes(cls, ring, size, codes, offset=0):
        """Matrix from its flat row-major tuple of codes."""
        m = object.__new__(cls)
        m._set(ring, size, codes, offset)
        return m

    @classmethod
    def identity(cls, ring, size):
        one = ring.one_code
        return cls.from_codes(ring, size, tuple(
            one if i == j else 0 for i in range(size) for j in range(size)))

    @classmethod
    def from_ints(cls, ring, rows, offset=0):
        one, pn = ring.one_code, ring.pn
        return cls.from_codes(ring, len(rows), tuple(
            c % pn * one for r in rows for c in r), offset)

    @property
    def rows(self):
        ring, s, codes = self.ring, self.size, self.codes
        return tuple(tuple(LocalRingElement(ring, c) for c in codes[i:i + s])
                     for i in range(0, s * s, s))

    def __getitem__(self, ij):
        i, j = ij
        return LocalRingElement(self.ring, self.codes[i * self.size + j])

    def _like(self, codes, offset):
        return Mat.from_codes(self.ring, self.size, codes, offset)

    def __mul__(self, other):
        return self._like(self.ring.mat_mul(self.size, self.codes, other.codes),
                          self.offset + other.offset)

    def __add__(self, other):
        if self.offset != other.offset:
            raise ValueError("cannot add matrices with different offsets")
        return self._like(tuple(map(self.ring.add, self.codes, other.codes)),
                          self.offset)

    def scale(self, c):
        mul, k = self.ring.mul, c.code
        return self._like(tuple(mul(k, a) for a in self.codes), self.offset)

    def det(self):
        """Determinant of the integral part, by cofactor expansion."""
        return LocalRingElement(self.ring,
                                self.ring.mat_det(self.size, self.codes))

    def inverse(self):
        return self._like(self.ring.mat_inv(self.size, self.codes),
                          -self.offset)

    def sigma(self, e=1):
        """Entry-wise Frobenius lift (the p-power map over a field)."""
        return self._like(self.ring.mat_sigma(self.codes, e), self.offset)

    def transpose(self):
        s = self.size
        return self._like(tuple(self.codes[j * s + i]
                                for i in range(s) for j in range(s)),
                          self.offset)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.codes == other.codes
                and self.offset == other.offset
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash((self.codes, self.offset))

    def __repr__(self):
        body = "; ".join(",".join(str(list(a.coeffs)) for a in r)
                         for r in self.rows)
        off = f" * p^{self.offset}" if self.offset else ""
        return f"Mat[{body}]{off}"


# ---------------------------------------------------------------------------
# Laurent polynomials in a formal square root of q

class HalfPowerLaurent:
    """(A + B*v) / D with v a formal square root of the integer q.

    Negative powers of v are folded in via v^-1 = v/q, so every element
    of Q[v]/(v^2 - q) has one normal form on ints: D > 0 and
    gcd(A, B, D) = 1 (zero is (0, 0, 1)); ``HalfPowerLaurent(q, a, b)``
    is a + b*v for ints a and b.  Arithmetic stays on ints and
    each result is reduced by one gcd (_half), never through Fraction;
    a = A/D and b = B/D are read-only Fractions for reports.  An int or
    a Fraction operand of +, * or == is the scalar it stands for.
    Values are immutable: setting an attribute raises.  The
    substitution v -> sqrt(q) is never performed, even when q is a
    perfect square.
    """

    __slots__ = ("q", "A", "B", "D")

    def __new__(cls, q, a=0, b=0):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError("HalfPowerLaurent(q, a, b) takes int a and b")
        return _half(q, a, b, 1)

    def __setattr__(self, name, value):
        raise AttributeError("HalfPowerLaurent is immutable")

    @property
    def a(self):
        return Fraction(self.A, self.D)

    @property
    def b(self):
        return Fraction(self.B, self.D)

    @staticmethod
    def v_power(q, k):
        """The monomial v^k in normal form: v^(2j + r) = q^j v^r."""
        j, r = divmod(k, 2)
        num, den = (q**j, 1) if j >= 0 else (1, q**-j)
        return _half(q, 0, num, den) if r else _half(q, num, 0, den)

    def _operand(self, other):
        """other as (A, B, D) over self.q: an element of the same q, an
        int or a Fraction; None for anything else."""
        if isinstance(other, HalfPowerLaurent):
            if other.q != self.q:
                raise ValueError("mixed q in half-power arithmetic")
            return other.A, other.B, other.D
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self.D:
            return _half(self.q, self.A + a, self.B + b, d)
        return _half(self.q, self.A * d + a * self.D, self.B * d + b * self.D,
                     self.D * d)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return _half(self.q, self.A * a + self.B * b * self.q,
                     self.A * b + self.B * a, self.D * d)

    __rmul__ = __mul__

    def inverse(self):
        # D / (A + Bv) = D (A - Bv) / (A^2 - q B^2)
        nrm = self.A * self.A - self.B * self.B * self.q
        if nrm == 0:
            raise NotInvertible("not invertible in Q[v]/(v^2 - q)")
        if nrm < 0:
            return _half(self.q, -self.D * self.A, self.D * self.B, -nrm)
        return _half(self.q, self.D * self.A, -self.D * self.B, nrm)

    def is_zero(self):
        return self.A == 0 and self.B == 0

    def __eq__(self, other):
        if isinstance(other, HalfPowerLaurent):
            return (self.q, self.A, self.B, self.D) \
                == (other.q, other.A, other.B, other.D)
        o = self._operand(other)
        return NotImplemented if o is None else (self.A, self.B, self.D) == o

    def __hash__(self):
        # equal to the scalar A/D when B = 0, so hashed like it
        if self.B == 0:
            return hash(Fraction(self.A, self.D))
        return hash((self.q, self.A, self.B, self.D))

    def __repr__(self):
        parts = []
        if self.A:
            parts.append(str(self.a))
        if self.B:
            b = self.b
            parts.append(f"{b}*v" if b != 1 else "v")
        return " + ".join(parts) if parts else "0"


_new_half = object.__new__
# the slots are written through their descriptors, past __setattr__
_set_q, _set_A, _set_B, _set_D = (
    getattr(HalfPowerLaurent, k).__set__ for k in HalfPowerLaurent.__slots__)


def _half(q, A, B, D):
    """The HalfPowerLaurent (A + B*v) / D, D > 0, reduced by one gcd."""
    if D != 1:
        g = math.gcd(A, B, D)
        if g != 1:
            A, B, D = A // g, B // g, D // g
    x = _new_half(HalfPowerLaurent)
    _set_q(x, q)
    _set_A(x, A)
    _set_B(x, B)
    _set_D(x, D)
    return x
