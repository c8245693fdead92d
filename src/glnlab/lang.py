"""Galois actions on matrix groups, the Lang map, and twisted conjugacy.

Groups are handled by exhaustive enumeration below a hard size cap, so
every statement verified here (surjectivity counts, H^1 triviality, the
norm-vs-conjugacy matching) is exact, never sampled.  The Lang image,
twisted classes and H^1 classes are orbits of c -> g^-1 c sigma(g),
each closed under a generating set of the group (for GL_s(O/p^n): at
most three matrices plus one diagonal unit per F_p-basis vector of each
layer of 1 + pR); the Lang image is the orbit of 1.  The plain classes
of GL_s(F_q) are not enumerated: each is named by its rational canonical
form and has |GL_s(F_q)| / |C(g)| elements, |C(g)| from the factors of
that form (J. A. Green, Trans. AMS 80, 1955).  The H^1 cocycles come
from one pass up the levels: those of GL_s(F_q) from its elements, and
those of GL_s(O/p^n), n >= 2, from the lifts of those of GL_s(O/p^(n-1))
that solve the linear part of the norm equation (one F_p row reduction
per residue mod p), each level once, so only GL_s(F_q) is ever
enumerated for them; those of the congruence kernel 1 + p^(n-1) M_s
are the ones over 1.

A ``GaloisModule`` is plain data: the ring, the matrix size, the
exponent of the action and a tuple of generators.  It holds no
elements; the checks that need them take them from ``gl_elements`` or
from the caller.  Group elements, cocycles, Lang images and the class
representatives and matches that ``twisted_classes`` and
``dm_bijection_check`` return are flat row-major tuples of the ring's
codes (see ``rings``).  Each loop binds the ring's kernels once
(``mat_product``, ``form``, ``sandwich``, and ``norm_map`` for the
cocycle test and dm-check's norms) and runs on the tuples.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter

from .errors import InvalidConfig, MatchFailure, NotACocycle, charge
from .rings import (
    DEFAULT_GROUP_CAP,
    FiniteField,
    TruncatedLocalRing,
    _poly_divmod,
    _poly_mul,
    _poly_submul,
    _poly_trim,
    is_prime,
    residue_primitive_root,
)


def factor_prime_power(q):
    """(p, v) with q = p^v, or raise InvalidConfig.  For q = p^v, p
    prime, v is the largest exponent with an exact integer root, so the
    exponents are tried from the bit length of q down, each root found
    by bisection on ints, and the first exact one must be prime."""
    for v in range(q.bit_length(), 0, -1):
        lo, hi = 1, 1 << (q.bit_length() // v + 1)  # lo^v <= q < hi^v
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid**v <= q else (lo, mid)
        if lo**v == q:
            if is_prime(lo):
                return lo, v
            break
    raise InvalidConfig(f"{q} is not a prime power")


class GaloisModule:
    """A group of s x s matrices over ``ring`` with a cyclic Frobenius
    action, as plain data: ``generators`` is a tuple of flat code tuples
    that generate the group, and the action is entrywise sigma^exponent,
    sigma the Frobenius lift of ``ring``.  The orbit routines close under
    the generators, so a module without them is refused.
    """

    def __init__(self, ring, s, generators, exponent=1):
        if generators is None:
            raise InvalidConfig("a Galois module needs a generating set")
        self.ring = ring
        self.s = s
        self.generators = tuple(generators)
        self.exponent = exponent

    def sigma(self, x):
        """sigma^exponent of a flat code tuple."""
        return self.ring.mat_sigma(x, self.exponent)


def gl_elements(ring, s, cap=DEFAULT_GROUP_CAP):
    """All of GL_s over an enumerable finite ring, as flat code tuples in
    coefficient order.

    Rows with every entry in the maximal ideal cannot occur, so the scan
    runs over the other rows only (for s = 1 that is the whole test).
    The cofactors of the last row (the ring's ``_cofactors``, that row
    left zero) are computed once per head of s - 1 rows; each candidate
    last row costs one call of their linear ``form``.  The (p^(n d))^(s^2)
    candidates over O/p^n of residue degree d are charged against cap.
    """
    p, e = ring.p, ring.n * ring.d * s * s
    charge(cap, f"{p}^{e} candidate matrices", lambda: p**e, e)
    nel = ring.size()
    unit = ring.is_unit
    rows = [r for r in itertools.product(range(nel), repeat=s)
            if any(map(unit, r))]
    if s == 1:  # a row of one unit is its own determinant
        return rows
    out = []
    for head in itertools.product(rows, repeat=s - 1):
        head = sum(head, ())
        form = ring.form(ring._cofactors(s, head + (0,) * s, s - 1))
        out += [head + r for r in
                itertools.compress(rows, map(unit, map(form, rows)))]
    return out


def _identity(ring, s):
    """Flat codes of the s x s identity."""
    return tuple(ring.one_code * (i == j) for i in range(s) for j in range(s))


def _plus(ring, s, j, l, c):
    """Flat codes of the s x s identity plus code c at (j, l)."""
    out = list(_identity(ring, s))
    out[j * s + l] = ring.add(out[j * s + l], c)
    return tuple(out)


def _gl_generators(ring, s):
    """Flat codes generating GL_s(R), R = O/p^n with residue field F_q:
    diag(zeta, 1, ..) unless zeta = 1, zeta the code of
    ``residue_primitive_root``; 1 + E_12 and the cyclic shift P when
    s >= 2; and diag(1 + p^k x^i, 1, ..) for 1 <= k < n, i < d.

    Proof.  Conjugating 1 + E_12 by diag(zeta, 1, ..)^k gives
    1 + zeta^k E_12, and products of these give 1 + r E_12 for every r
    in Z[zeta].  The residue of zeta generates F_q, so Z[zeta] + pR = R,
    and Z[zeta] = R by Nakayama's lemma.  Conjugating by P moves E_12
    around the cycle E_12, E_23, .., E_s1; commutators
    [1 + a E_ij, 1 + b E_jl] = 1 + ab E_il (i != l) then give every
    elementary transvection, and these generate SL_s(R), R being local.
    Last, the determinants of the diagonal generators generate R^*: zeta
    covers R^* mod 1 + pR, and the 1 + p^k x^i (i < d) map onto an
    F_p-basis of each layer (1 + p^k R)/(1 + p^(k+1) R) = F_q.
    """
    one = ring.one_code
    zeta_minus_one = ring.add(residue_primitive_root(ring), ring.neg(one))
    gens = [_plus(ring, s, 0, 0, zeta_minus_one)] if zeta_minus_one else []
    if s >= 2:
        gens.append(_plus(ring, s, 0, 1, one))
        gens.append(tuple(one if l == (j + 1) % s else 0
                          for j in range(s) for l in range(s)))
    gens += [_plus(ring, s, 0, 0, ring.p**k * c)
             for k in range(1, ring.n) for c in ring.weights]
    return gens


def gl_module(ring, s, sigma_exponent=1):
    """GL_s over a finite field or truncated local ring R = O/p^n with
    entrywise Frobenius^sigma_exponent as the Galois action, generated
    by ``_gl_generators``.  Nothing is enumerated, so nothing is charged:
    a caller that goes on to enumerate charges its own work.
    """
    return GaloisModule(ring, s, _gl_generators(ring, s), sigma_exponent)


# ---------------------------------------------------------------------------
# the Lang map

def _twisted_orbits(module, codes, allowed, leaving):
    """The orbits of c -> g^-1 c sigma(g) through codes, each once, in the
    order of codes, as sets of codes.

    Each orbit is closed under g in the module's generating set, which
    reaches a^-1 c sigma(a) for every a in the group.  Each generator's
    move is the ring's ``sandwich`` of g^-1 and sigma(g), built once:
    its nonzero terms (at most 4 an entry for the generators) are
    resolved then, so a move costs one call per element.  A move that
    lands outside ``allowed`` raises the exception ``leaving``; with
    ``allowed`` None no move is tested.
    """
    ring, s = module.ring, module.s
    moves = [ring.sandwich(s, ring.mat_inv(s, g), module.sigma(g))
             for g in module.generators]
    seen = set()
    for c in codes:
        if c in seen:
            continue
        orbit, todo = {c}, [c]
        while todo:
            x = todo.pop()
            for move in moves:
                y = move(x)
                if y not in orbit:
                    if allowed is not None and y not in allowed:
                        raise leaving
                    orbit.add(y)
                    todo.append(y)
        seen |= orbit
        yield orbit


def gl_order(s, q):
    """|GL_s(F_q)| = (q^s - 1)(q^s - q)...(q^s - q^(s-1))."""
    return math.prod(q**s - q**i for i in range(s))


def gl_class_count(s, q):
    """The number of conjugacy classes of GL_s(F_q): the coefficient of
    x^s in prod_{i >= 1} (1 - x^i) / (1 - q x^i)."""
    c = [1] + [0] * s  # the product so far, to degree s
    for i in range(1, s + 1):
        for k in range(s, i - 1, -1):  # times 1 - x^i
            c[k] -= c[k - i]
        for k in range(i, s + 1):  # over 1 - q x^i
            c[k] += q * c[k - i]
    return c[s]


def fixed_index(s, p, d, level=1):
    """|GL_s(O/p^level)| / |GL_s(Z/p^level)|, O of residue field F_(p^d):
    the index of the sigma-fixed subgroup.  The Lang map x -> x^-1 sigma(x)
    has the cosets of that subgroup as fibres, so this is the size of its
    image, and, H^1 being trivial, the number of cocycles.  Each level past
    the first multiplies the two orders by q^(s^2) and p^(s^2)."""
    q = p**d
    return gl_order(s, q) // gl_order(s, p) * (q // p)**(s * s * (level - 1))


def lang_image(ring, s, cap=DEFAULT_GROUP_CAP):
    """The image {x^-1 sigma(x)} of the Lang map of GL_s(ring), as a set
    of code tuples: the orbit of 1 under c -> g^-1 c sigma(g), closed
    from the generators of ``gl_module``.  No element is inverted, and
    no move is tested, since a move by an invertible matrix cannot leave
    the group.  The (p^(n d))^(s^2) candidate matrices are charged
    first, before any generator is built."""
    p, e = ring.p, ring.n * ring.d * s * s
    charge(cap, f"{p}^{e} candidate matrices", lambda: p**e, e)
    return next(_twisted_orbits(gl_module(ring, s), [_identity(ring, s)],
                                None, None))


def twisted_classes(module, codes, leaving):
    """Partition of the code tuples ``codes`` under a ~ g^-1 a sigma(g),
    g in the module's group: the twisted conjugacy classes when codes is
    the group, the classes of H^1 when it is the cocycles.  The classes
    come in the order of codes, as dicts of the least element
    (``representative``) and the ``size``.  A generator that moves an
    element out of codes raises the exception ``leaving``.
    """
    return [{"representative": min(orbit), "size": len(orbit)}
            for orbit in _twisted_orbits(module, codes, set(codes), leaving)]


# ---------------------------------------------------------------------------
# H^1 for cyclic actions

def _solver(columns, p):
    """(solve, kernel) for the F_p-linear map with these columns, every
    entry an int in [0, p): solve(b) is one y with sum_j y_j columns[j]
    = b, or None when there is none, and kernel is a basis of the
    solutions at b = 0, one vector per free column.  One Gauss-Jordan
    pass on the int rows of [A | I] keeps the row operations, so each
    right side b costs one product by them."""
    m = len(columns)
    rows = [list(row) + [0] * m for row in zip(*columns)]
    for r, row in enumerate(rows):
        row[m + r] = 1
    pivots = []
    for j in range(m):
        r = len(pivots)
        for i in range(r, m):
            if rows[i][j]:
                break
        else:
            continue
        k = pow(rows[i][j], -1, p)
        top = [x * k % p for x in rows[i]]
        rows[i], rows[r] = rows[r], top
        for i, row in enumerate(rows):
            f = row[j]
            if f and i != r:
                rows[i] = [(x - f * t) % p for x, t in zip(row, top)]
        pivots.append(j)
    ops, rank = [row[m:] for row in rows], len(pivots)

    def solve(b):
        t = [sum(map(operator.mul, op, b)) % p for op in ops]
        if any(t[rank:]):
            return None
        y = [0] * m
        for j, v in zip(pivots, t):
            y[j] = v
        return y

    kernel = []
    for f in sorted(set(range(m)).difference(pivots)):
        v = [0] * m
        v[f] = 1
        for row, j in zip(rows, pivots):
            v[j] = -row[f] % p
        kernel.append(v)
    return solve, kernel


def _span(y, kernel, p):
    """Every y + sum_i k_i kernel[i] mod p, k_i in [0, p)."""
    out = [y]
    for v in kernel:
        out = [[(a + k * b) % p for a, b in zip(x, v)]
               for x in out for k in range(p)]
    return out


def _lift_candidates(ring, low, s, cocycles, solvers):
    """Lifts to ring = O/p^n, n >= 2, of the flat code matrices
    ``cocycles`` over low = O/p^(n-1), among which are all the lifts
    that are cocycles, each once.

    With eps = p^(n-1) and c-hat the lift of c with coefficients in
    [0, eps), every lift is c-hat + eps Y, Y in M_s(F_q), and since
    eps^2 = 0, N(c-hat + eps Y) = N(c-hat) + eps L(Y), with L linear over
    F_p and fixed by the residue c mod p, whatever n is.  So for each
    residue L is read off the d s^2 norms of c-hat plus eps times an
    F_p-basis vector, against N(c-hat) (the top base-p digits of their
    coefficients), and row-reduced once (``_solver``); ``solvers`` keeps
    them from level to level.  Each cocycle then costs its own norm
    N(c-hat), and its lifts of norm 1 are the solutions of
    L(Y) = (1 - N(c-hat)) / eps mod p: one solution plus the span of the
    kernel, whose rank is (d - 1) s^2 when H^1 is trivial.  The caller
    tests every norm."""
    p, d, weights = ring.p, ring.d, ring.weights
    m, norm = d * s * s, ring.norm_map(s, d)
    # the code of eps x^i, whose quotient is the top digit of coefficient i
    tops = [low.pn * w for w in weights]

    def digits(x):
        return [a // t % p for a in x for t in tops]

    for c in cocycles:
        # at d = 1 a code is its one coefficient, so c is its own lift
        base = c if d == 1 else tuple(map(ring.encode, map(low.decode, c)))
        n0 = digits(norm(base))
        residue = tuple([x // w % p for x in base for w in weights])
        if residue not in solvers:
            columns = []
            for e in range(s * s):
                for t in tops:
                    moved = list(base)
                    moved[e] += t
                    columns.append([(a - b) % p for a, b in
                                    zip(digits(norm(tuple(moved))), n0)])
            solvers[residue] = _solver(columns, p)
        solve, kernel = solvers[residue]
        y = solve([-b % p for b in n0])
        if y is None:
            continue
        # the codes eps Y of the solutions, entry by entry
        for v in _span(y, kernel, p):
            yield tuple(map(operator.add, base, [
                sum(map(operator.mul, v[i:i + d], tops))
                for i in range(0, m, d)]))


def _cocycles(ring, s, codes):
    """The code tuples c among ``codes`` with c sigma(c) ... sigma^(d-1)(c)
    = 1, sigma the Frobenius lift of ``ring`` and d its order, in their
    order (the ring's ``norm_map``)."""
    norm, ident = ring.norm_map(s, ring.d), _identity(ring, s)
    return [c for c in codes if norm(c) == ident]


def _cocycle_levels(p, d, top, s, cap):
    """(O/p^n, the cocycles of GL_s(O/p^n) in code order) for n = 1 up
    to top, O unramified of residue degree d over Z_p, in one pass up
    the levels.

    Reduction mod p^(n-1) is a sigma-equivariant homomorphism (the
    canonical Frobenius lift reduces to the canonical lift), so every
    cocycle at level n lies over one at level n - 1.  Level 1 tests the
    elements of GL_s(F_q) (``gl_elements``), and each level n >= 2 only
    the lifts of the level below that solve the linearised norm equation
    (``_lift_candidates``), each level once.  The (p^(top d))^(s^2)
    candidates of the top level are charged once, before any ring is
    formed, and bound every level below.
    """
    e = top * d * s * s
    if is_prime(p) and d >= 1:  # else the first ring refuses p or d
        charge(cap, f"{p}^{e} candidate matrices", lambda: p**e, e)
    low = cocycles = None
    solvers = {}  # the solver of L for each residue, for every level
    for n in range(1, top + 1):
        level = TruncatedLocalRing(p, n, d, cap=cap)
        codes = (gl_elements(level, s, cap) if low is None
                 else _lift_candidates(level, low, s, cocycles, solvers))
        cocycles = sorted(_cocycles(level, s, codes))
        yield level, cocycles
        low = level


def congruence_kernel(ring, s):
    """The kernel 1 + p^(n-1) M_s of GL_s(ring) -> GL_s(O/p^(n-1)), ring =
    O/p^n with n >= 2, with the lifted Frobenius action, as a
    ``GaloisModule``: its generators 1 + p^(n-1) x^i E_jl, i < d, are an
    F_p-basis of the kernel, which is M_s(F_q) under addition."""
    return GaloisModule(ring, s, [
        _plus(ring, s, j, l, ring.pn // ring.p * c)
        for c in ring.weights for j in range(s) for l in range(s)])


def h1_level_tower(s, p, d, max_level, cap=DEFAULT_GROUP_CAP):
    """Each truncation level's (ring, cocycles), |H^1| of the congruence
    kernels between consecutive levels, and level-compatibility: the
    level-n cocycles must reduce onto the level-(n-1) ones, so each of
    those must have a lift that is a cocycle.

    The levels are those of ``_cocycle_levels``, each found once.  The
    kernel 1 + p^(n-1) M_s is the set of lifts of 1, so its cocycles are
    the level-n cocycles that reduce to 1, and its order is q^(s^2).
    """
    report = {"levels": [], "kernels": [], "compatible": True}
    low = prev_cocycles = None
    for ring, cocycles in _cocycle_levels(p, d, max_level, s, cap):
        report["levels"].append((ring, cocycles))
        if low is not None:
            # each code reduced once, however many cocycles hold it
            down = {a: low.encode(ring.decode(a))
                    for a in set(itertools.chain.from_iterable(cocycles))}
            reduced = [tuple(map(down.__getitem__, c)) for c in cocycles]
            if set(reduced) != prev_cocycles:
                report["compatible"] = False
            one = _identity(low, s)
            classes = twisted_classes(
                congruence_kernel(ring, s),
                [c for c, r in zip(cocycles, reduced) if r == one],
                NotACocycle("a class leaves the cocycle set"))
            report["kernels"].append({"from_level": low.n, "to_level": ring.n,
                                      "group_order": ring.q**(s * s),
                                      "h1_size": len(classes)})
        low, prev_cocycles = ring, set(cocycles)
    return report


# ---------------------------------------------------------------------------
# the norm-matching bijection between plain and twisted classes

def _invariant_factors(ring, s, codes):
    """Invariant factors of X*I - M over F[X], M the flat s x s matrix of
    codes over the field ``ring``: the monic non-constant ones, each
    dividing the next, as code tuples with the low degree first.

    Smith elimination: move an entry of least degree to the pivot, clear
    its column and row by division with remainder, and repeat until the
    pivot divides every entry left; the pivots are the factors.
    """
    one = ring.one_code
    m = [[_poly_trim([ring.neg(codes[i * s + j])] + [one] * (i == j))
          for j in range(s)] for i in range(s)]
    factors = []
    for t in range(s):
        while True:
            # det(X*I - M) is nonzero, so the block left is never zero
            _, i, j = min((len(m[i][j]), i, j) for i in range(t, s)
                          for j in range(t, s) if m[i][j])
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            piv = m[t][t]
            for _ in range(2):  # column t, then row t as the transpose's
                for i in range(t + 1, s):
                    quot, m[i][t] = _poly_divmod(ring, m[i][t], piv)
                    m[i][t + 1:] = [
                        _poly_submul(ring, a, _poly_mul(ring, quot, b), 0, one)
                        for a, b in zip(m[i][t + 1:], m[t][t + 1:])]
                m = [list(col) for col in zip(*m)]
            if any(m[i][t] or m[t][i] for i in range(t + 1, s)):
                continue  # a remainder of lower degree is the next pivot
            bad = next((row for row in m[t + 1:] if any(
                _poly_divmod(ring, a, piv)[1] for a in row[t + 1:])), None)
            if bad is None:
                break
            m[t][t + 1:] = bad[t + 1:]  # add row bad; row t is zero there
        if len(piv) > 1:
            if piv[-1] != one:  # monic already at s = 1, where piv = X - g
                k = ring.inv(piv[-1])
                piv = [ring.mul(c, k) for c in piv]
            factors.append(tuple(piv))
    return tuple(factors)


def _centralizer_order(ring, sub, key):
    """|C(g)| for g in GL_s(F_q) with the invariant factors key, whose
    coefficients lie in the subfield sub = F_q of the field ring.  An
    irreducible f of degree k with exponents lambda across the factors
    gives a_lambda(q^k), a_lambda(Q) = Q^(|lambda| + 2 n(lambda))
    prod_i phi_(m_i)(1/Q), m_i the multiplicities of the parts (Macdonald,
    Symmetric Functions and Hall Polynomials, II (1.6)).  The factors are
    split by trial division by the monic polynomials over sub of each
    degree in turn, so each divisor found is irreducible."""
    q, parts = len(sub), {}
    for f in key:
        for deg in range(1, (len(f) + 1) // 2):  # up to half of deg f
            for tail in itertools.product(sorted(sub), repeat=deg):
                g, e = tail + (ring.one_code,), 0
                while not (qr := _poly_divmod(ring, f, g))[1]:
                    f, e = tuple(qr[0]), e + 1
                if e:
                    parts.setdefault(g, []).append(e)
        if len(f) > 1:
            parts.setdefault(f, []).append(1)
    order = 1
    for f, lam in parts.items():  # on ints: 1 - Q^-k = (Q^k - 1) / Q^k
        big_q, mult = q ** (len(f) - 1), Counter(lam).values()
        lam.sort(reverse=True)
        order *= big_q ** (sum((2 * i + 1) * x for i, x in enumerate(lam))
                           - sum(m * (m + 1) // 2 for m in mult))
        order *= math.prod(big_q**k - 1 for m in mult for k in range(1, m + 1))
    return order


def shintani_law(s, q, n, twisted_size, plain_size):
    """Shintani's centralizer law for a matched pair (T. Shintani, J. Math.
    Soc. Japan 28, 1976): the sigma-centralizer of A in G = GL_s(F_(q^n))
    and the centralizer of N(A) in H = GL_s(F_q) have one order, so
    |twisted class of A| |H| = |plain class of N(A)| |G|."""
    return twisted_size * gl_order(s, q) == plain_size * gl_order(s, q**n)


def dm_bijection_check(s, q, n, cap=DEFAULT_GROUP_CAP):
    """Match plain conjugacy classes of GL_s(F_q) with twisted classes of
    GL_s(F_{q^n}) under the q-power Frobenius sigma (Shintani descent).

    Only the twisted side is enumerated.  For each representative A of
    ``twisted_classes``, the norm N(A) = A sigma(A) ... sigma^{n-1}(A)
    satisfies sigma(N(A)) = A^-1 N(A) A, so the invariant factors of
    N(A)^-1, its key, name the plain class A goes to: a key names a
    class of GL_s(F_q) exactly when its coefficients lie in F_q, and
    that class has |GL_s(F_q)| / |C(g)| elements (``_centralizer_order``).
    ``bijective`` reports that the keys are valid, pairwise distinct and
    as many as ``gl_class_count``, each pair (a ``matches`` entry)
    obeying ``shintani_law``.  Only a sigma^v-fixed subfield other than
    F_q, or a twisted class leaving the group, raises MatchFailure.
    """
    p, v = factor_prime_power(q)
    ext = FiniteField(p, v * n)
    elements = gl_elements(ext, s, cap)  # the one charge, |F_(q^n)|^(s^2)
    # F_q is 0 and the powers of w = N(zeta) = zeta^((q^n - 1)/(q - 1)),
    # of order q - 1 for a primitive zeta
    (w,) = ext.norm_map(1, n, v)((residue_primitive_root(ext),))
    sub = {0, *itertools.accumulate([w] * (q - 2), ext.mul,
                                    initial=ext.one_code)}
    if len(sub) != q or any(ext.sigma(c, v) != c for c in sub):
        raise MatchFailure(f"the sigma^{v}-fixed subfield is not F_{q}")
    twisted = twisted_classes(
        gl_module(ext, s, sigma_exponent=v), elements,
        MatchFailure("a twisted class leaves the group"))

    norm = ext.norm_map(s, n, v)
    matches, used = [], set()
    for cl in twisted:
        a = cl["representative"]
        key = _invariant_factors(ext, s, ext.mat_inv(s, norm(a)))
        if key in used or not sub.issuperset(itertools.chain(*key)):
            continue
        used.add(key)
        size = gl_order(s, q) // _centralizer_order(ext, sub, key)
        matches.append({"twisted_rep": a,
                        "invariant_factors": key,
                        "twisted_size": cl["size"],
                        "plain_size": size})
    return {
        "plain_class_count": len(used),
        "twisted_class_count": len(twisted),
        "bijective": len(used) == len(twisted) == gl_class_count(s, q)
        and all(shintani_law(s, q, n, m["twisted_size"], m["plain_size"])
                for m in matches),
        "matches": matches,
    }
