"""Root systems for GL_n, Cartan matrices, and Weyl groups.

Vectors are integer (or rational) tuples in the character lattice Z^n.
Arithmetic keeps the type of its input, so integer roots stay on ints;
a quotient is tested by ``divmod`` and becomes an exact
``Fraction(num, den)`` only when it is not an integer.  The axiom check
scales a rational set to ints first.  The bilinear form is the standard
dot product.  The Weyl group of GL_n is S_n acting on the
coordinates; it is counted by the lengths of its elements, never stored
whole.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import NonIntegral, NotPositiveDefinite, charge
from .rings import DEFAULT_GROUP_CAP


def inner(u, v):
    """The standard dot product."""
    return sum(map(operator.mul, u, v))


def simple_roots_gl(n):
    """The n-1 simple roots (1,-1,0,..), (0,1,-1,..), ... of GL_n."""
    if n < 2:
        raise ValueError("need n >= 2")
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    return roots


def pairing(beta, alpha):
    """The Cartan integer 2(alpha,beta)/(alpha,alpha); linear in beta only."""
    denom = inner(alpha, alpha)
    if denom == 0:
        raise ZeroDivisionError("pairing against the zero vector")
    val = Fraction(2 * inner(alpha, beta), denom)
    if val.denominator != 1:
        raise NonIntegral(f"pairing {val} is not an integer")
    return int(val)


def reflect(alpha, beta):
    """Reflection of beta in the hyperplane perpendicular to alpha; the
    coefficient 2(alpha,beta)/(alpha,alpha) is a Fraction only when it is
    not an integer."""
    num, den = 2 * inner(alpha, beta), inner(alpha, alpha)
    c, rest = divmod(num, den)
    if rest:
        c = Fraction(num, den)
    return tuple(b - c * a for a, b in zip(alpha, beta))


class CartanMatrix:
    """Integer matrix of Cartan integers, with optional D*S factorization:
    D a tuple and S a tuple of rows, of Fractions (``ds_decompose``)."""

    def __init__(self, entries, D=None, S=None):
        self.entries = tuple(tuple(int(x) for x in row) for row in entries)
        self.D, self.S = D, S

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"CartanMatrix({self.entries})"


def cartan_matrix(simple):
    """Cartan integers a[j][i] = 2(r_i, r_j)/(r_j, r_j) of a simple system."""
    k = len(simple)
    entries = []
    for j in range(k):
        row = []
        for i in range(k):
            row.append(pairing(simple[i], simple[j]))
        entries.append(row)
    return CartanMatrix(entries)


def _leading_minors(S):
    """Leading principal minors of S, up to the first that is not positive.

    One Gaussian elimination without row swaps: adding multiples of a row
    to later rows keeps every leading minor, so the m-th minor is the
    product of the first m pivots.
    """
    rows = [list(row) for row in S]
    minors = []
    det = 1
    for c, pivot_row in enumerate(rows):
        det *= pivot_row[c]
        minors.append(det)
        if det <= 0:
            break
        for row in rows[c + 1:]:
            if row[c]:
                f = Fraction(row[c], pivot_row[c])
                for j in range(c + 1, len(row)):
                    row[j] -= f * pivot_row[j]
    return minors


def _symmetrizer(entries):
    """Positive diagonal D with D^-1 * A symmetric, one scale per component.

    Each connected component (nonzero off-diagonal linkage) is normalized
    so its smallest D entry is 1.  Returns None if no such D exists.
    """
    k = len(entries)
    D = [None] * k
    for start in range(k):
        if D[start] is not None:
            continue
        comp = [start]
        D[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(k):
                if i == j or entries[i][j] == 0:
                    continue
                if entries[j][i] == 0:
                    return None
                # symmetry of S = D^-1 A forces A[i][j]/D_i = A[j][i]/D_j
                dj = D[i] * Fraction(entries[j][i], entries[i][j])
                if dj <= 0:
                    return None
                if D[j] is None:
                    D[j] = dj
                    comp.append(j)
                    queue.append(j)
                elif D[j] != dj:
                    return None
        lo = min(D[i] for i in comp)
        for i in comp:
            D[i] /= lo
    return tuple(D)


def ds_decompose(simple):
    """(A, minors): the Cartan matrix of a simple system as A = D*S, D
    the positive diagonal of ``_symmetrizer`` and S = D^-1 A, and the
    leading minors of S up to the first that is not positive (the
    caller's verdict).  NotPositiveDefinite if no such D exists."""
    entries = cartan_matrix(simple).entries
    D = _symmetrizer(entries)
    if D is None:
        raise NotPositiveDefinite("no positive symmetrizer")
    S = tuple(tuple(Fraction(a, d) for a in row)
              for row, d in zip(entries, D))
    return CartanMatrix(entries, D=D, S=S), _leading_minors(S)


def _rank(vectors):
    """The rank of int vectors, by fraction-free elimination: each row
    below a pivot row r (pivot in column c) becomes row * r[c] - r *
    row[c], divided by its content; no step changes the rank."""
    rows = [list(v) for v in vectors]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, pv = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                row = [x * pv - y * f for x, y in zip(rows[i], top)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        r += 1
    return r


def check_root_system(roots):
    """Axiom report for a finite set of nonzero vectors.

    Spanning is reported as a codimension rather than a hard failure,
    since GL_n root sets only span the sum-zero sublattice.  Every axiom
    is unchanged when the whole set is scaled by a positive number, so
    rational vectors are first scaled to ints by the lcm of their
    denominators, and the report is computed on ints.  A projection
    coefficient is tested for integrality by divmod; only a non-integral
    one becomes a ``Fraction``, and the reflected vector then holds
    Fractions, which hash like the ints they equal.  A pair with
    coefficient 0 reflects b to b itself, which is in the set.
    """
    k = math.lcm(*(x.denominator for v in roots for x in v))
    roots = [tuple([int(x * k) for x in v]) for v in roots]
    n = len(roots[0])
    report = {}

    rank = _rank(roots)
    report["spans"] = (rank == n)
    report["span_codimension"] = n - rank
    rootset = set(roots)

    # b is a scalar multiple of a exactly when both have one primitive
    # direction (the vector over the gcd of its entries, its first
    # nonzero entry positive); so the set is reduced when no direction
    # holds two distinct multiples other than a pair m, -m
    multiples = {}
    for a in set(roots):
        g = math.gcd(*a)
        g = g if next(x for x in a if x) > 0 else -g
        multiples.setdefault(tuple(x // g for x in a), set()).add(g)
    reduced = all(len(ms) == 1 or len(ms) == 2 and sum(ms) == 0
                  for ms in multiples.values())
    report["reduced"] = reduced

    closed = crystallographic = True
    for a in roots:
        den = inner(a, a)
        for b in roots:
            # the projection coefficient of b on a must lie in (1/2)Z
            num = 2 * inner(a, b)
            c, rest = divmod(num, den)
            if rest:
                crystallographic = False
                c = Fraction(num, den)
            elif not c:
                continue
            if tuple([y - c * x for x, y in zip(a, b)]) not in rootset:
                closed = False
    report["reflection_closed"] = closed
    report["crystallographic"] = crystallographic

    # primed reformulations, computed independently
    closed_prime = True
    integral_prime = True
    for a in roots:
        norm = inner(a, a)
        for b in roots:
            num = 2 * inner(a, b)
            c, rest = divmod(num, norm)
            if rest:
                integral_prime = False
                c = Fraction(num, norm)
            elif not c:
                continue
            if tuple([x - c * y for x, y in zip(b, a)]) not in rootset:
                closed_prime = False
    report["reflection_closed_prime"] = closed_prime
    report["crystallographic_prime"] = integral_prime
    report["primed_agree"] = (closed == closed_prime
                              and crystallographic == integral_prime)
    report["all_pass_in_span"] = (reduced and closed and crystallographic)
    return report


def _reflection_perm(alpha, n):
    """The reflection in alpha as the permutation p with (s v)_i = v[p[i]],
    read off the images of the standard basis."""
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    images = [reflect(alpha, e) for e in basis]
    if sorted(images) != sorted(basis):
        raise ValueError(
            f"reflection in {alpha} does not permute the coordinates")
    return tuple(row.index(1) for row in zip(*images))


def weyl_group(simple):
    """Sizes of the length layers of the closure of the simple reflections:
    entry k counts the elements whose reduced words have length k.

    Each reflection must swap two adjacent coordinates i, i + 1, so the
    closure lies in S_n, at most n! elements; the caller charges them.
    The length of w is its number of inversions, and w s_i is one longer
    than w exactly when w[i] < w[i + 1]; so layer k + 1 is built from
    layer k alone, as a set of one-line notations.
    """
    n = len(simple[0])
    swaps = set()
    for alpha in simple:
        perm = _reflection_perm(alpha, n)
        i = next(k for k, j in enumerate(perm) if k != j)
        if perm[i] != i + 1:
            raise ValueError(f"reflection in {alpha} is not an adjacent swap")
        swaps.add(i)
    layer = {bytes(range(n))}
    sizes = []
    while layer:
        sizes.append(len(layer))
        longer = set()
        for i in swaps:
            j = i + 1
            longer.update([w[:i] + w[j:j + 1] + w[i:j] + w[j + 1:]
                           for w in layer if w[i] < w[j]])
        layer = longer
    return sizes


def mahonian(n):
    """Coefficients of prod_{i <= n} (1 + t + ... + t^(i-1)): entry k is the
    number of permutations of n letters with k inversions."""
    coeffs = [1]
    for i in range(2, n + 1):
        out = [0] * (len(coeffs) + i - 1)
        for k, c in enumerate(coeffs):
            for j in range(k, k + i):
                out[j] += c
        coeffs = out
    return coeffs


def full_root_set_gl(n):
    """All roots e_i - e_j (i != j) of GL_n."""
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 1, -1
                roots.append(tuple(v))
    return roots


def check_type_a(n, cap=DEFAULT_GROUP_CAP):
    """``(checks, weyl_order, axioms_hold, order_is_factorial)`` for GL_n:
    the ``check_root_system`` report of its roots and the closure of its
    simple reflections, whose order must be n! and whose length layers
    must be the Mahonian numbers.
    """
    # once, before the n x n simple roots and the axiom scan
    charge(cap, f"{n}! Weyl group elements", lambda: math.factorial(n),
           n - 1)  # n! >= 2^(n - 1)
    layers = weyl_group(simple_roots_gl(n))
    order = sum(layers)
    checks = check_root_system(full_root_set_gl(n))
    axioms_hold = all(checks[k] for k in ("reduced", "reflection_closed",
                                          "crystallographic", "primed_agree"))
    return (checks, order, axioms_hold,
            order == math.factorial(n) and layers == mahonian(n))
