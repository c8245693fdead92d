"""Root systems for GL_n, Cartan matrices, and Weyl groups.

Vectors are integer (or rational) tuples in the character lattice Z^n;
all linear algebra is exact over Fraction.  The default bilinear form is
the standard dot product, overridable by any symmetric positive-definite
rational matrix.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import CapExceeded, NonIntegral, NotPositiveDefinite

DEFAULT_WEYL_CAP = 10**6


def _as_vec(v):
    return tuple(Fraction(c) for c in v)


def inner(u, v, form=None):
    """Bilinear form; standard dot product when form is None."""
    u, v = _as_vec(u), _as_vec(v)
    if form is None:
        return sum(a * b for a, b in zip(u, v))
    return sum(u[i] * Fraction(form[i][j]) * v[j]
               for i in range(len(u)) for j in range(len(v)))


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


def pairing(beta, alpha, form=None):
    """The Cartan integer 2(alpha,beta)/(alpha,alpha); linear in beta only."""
    denom = inner(alpha, alpha, form)
    if denom == 0:
        raise ZeroDivisionError("pairing against the zero vector")
    val = 2 * inner(alpha, beta, form) / denom
    if val.denominator != 1:
        raise NonIntegral(f"pairing {val} is not an integer")
    return int(val)


def reflect(alpha, beta, form=None):
    """Reflection of beta in the hyperplane perpendicular to alpha."""
    c = Fraction(2 * inner(alpha, beta, form), 1) / inner(alpha, alpha, form)
    return tuple(Fraction(b) - c * Fraction(a) for a, b in zip(alpha, beta))


class CartanMatrix:
    """Integer matrix of Cartan integers, with optional D*S factorization."""

    def __init__(self, entries, D=None, S=None):
        self.entries = tuple(tuple(int(x) for x in row) for row in entries)
        self.D = tuple(Fraction(x) for x in D) if D is not None else None
        self.S = (tuple(tuple(Fraction(x) for x in row) for row in S)
                  if S is not None else None)
        if self.D is not None and self.S is not None:
            for i, row in enumerate(self.entries):
                for j, a in enumerate(row):
                    if self.D[i] * self.S[i][j] != a:
                        raise ValueError("A != D*S")

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"CartanMatrix({self.entries})"


def cartan_matrix(simple, form=None):
    """Cartan integers a[j][i] = 2(r_i, r_j)/(r_j, r_j) of a simple system."""
    k = len(simple)
    entries = []
    for j in range(k):
        row = []
        for i in range(k):
            row.append(pairing(simple[i], simple[j], form))
        entries.append(row)
    return CartanMatrix(entries)


def _leading_minors(S):
    k = len(S)
    minors = []
    for m in range(1, k + 1):
        sub = [row[:m] for row in S[:m]]
        minors.append(_det(sub))
    return minors


def _det(rows):
    rows = [list(r) for r in rows]
    k = len(rows)
    det = Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, k):
            f = rows[r][c] / rows[c][c]
            for cc in range(c, k):
                rows[r][cc] -= f * rows[c][cc]
    return det


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


def ds_decompose(simple=None, form=None, entries=None):
    """Factor the Cartan matrix as A = D*S, D positive diagonal, S symmetric.

    S must come out positive definite (exact leading-minor test).  Accepts
    either a simple system or a precomputed integer matrix.
    """
    if entries is None:
        entries = cartan_matrix(simple, form).entries
    D = _symmetrizer(entries)
    if D is None:
        raise NotPositiveDefinite("no positive symmetrizer exists")
    S = tuple(tuple(Fraction(entries[i][j]) / D[i]
                    for j in range(len(entries))) for i in range(len(entries)))
    minors = _leading_minors(S)
    if any(m <= 0 for m in minors):
        raise NotPositiveDefinite(f"leading minors {minors} not all positive")
    return CartanMatrix(entries, D=D, S=S), minors


def is_generalized_cartan(entries):
    """(verdict, reason) for the generalized-Cartan axioms."""
    k = len(entries)
    for i in range(k):
        if entries[i][i] != 2:
            return False, f"diagonal entry a[{i}][{i}] != 2"
        for j in range(k):
            if i != j and entries[i][j] > 0:
                return False, f"off-diagonal a[{i}][{j}] > 0"
            if i != j and (entries[i][j] == 0) != (entries[j][i] == 0):
                return False, f"zero asymmetry at ({i},{j})"
    return True, "ok"


def is_cartan(entries):
    """(verdict, reason): generalized axioms plus positive-definite S."""
    ok, reason = is_generalized_cartan(entries)
    if not ok:
        return False, reason
    D = _symmetrizer(entries)
    if D is None:
        return False, "no positive symmetrizer"
    S = [[Fraction(entries[i][j]) / D[i] for j in range(len(entries))]
         for i in range(len(entries))]
    minors = _leading_minors(S)
    if any(m <= 0 for m in minors):
        return False, f"symmetrized form not positive definite: minors {minors}"
    return True, "ok"


def _rank(vectors):
    rows = [list(_as_vec(v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                for cc in range(cols):
                    rows[i][cc] -= f * rows[r][cc]
        r += 1
        rank += 1
    return rank


def check_root_system(roots, form=None):
    """Axiom report for a finite set of nonzero vectors.

    Spanning is reported as a codimension rather than a hard failure,
    since GL_n root sets only span the sum-zero sublattice.
    """
    roots = [_as_vec(v) for v in roots]
    n = len(roots[0])
    report = {}

    rank = _rank(roots)
    report["spans"] = (rank == n)
    report["span_codimension"] = n - rank

    # integral roots under the dot product (the common case) take an int
    # path; equal ints and Fractions hash alike, so set membership agrees
    if form is None and all(c.denominator == 1 for v in roots for c in v):
        roots = [tuple(int(c) for c in v) for v in roots]

        def ip(u, v):
            return sum(map(operator.mul, u, v))
    else:
        def ip(u, v):
            return inner(u, v, form)
    rootset = set(roots)

    reduced = True
    for a in roots:
        k = next(i for i, y in enumerate(a) if y != 0)
        for b in roots:
            if a == b:
                continue
            # b a scalar multiple of a other than -a violates reducedness
            if all((x == 0) == (y == 0) and x * a[k] == y * b[k]
                   for x, y in zip(b, a)) and b[k] != -a[k]:
                reduced = False
    report["reduced"] = reduced

    closed = crystallographic = True
    for a in roots:
        for b in roots:
            # the projection coefficient of b on a must lie in (1/2)Z
            num, den = 2 * ip(a, b), ip(a, a)
            c, rest = divmod(num, den)
            if rest:
                crystallographic = False
                c = Fraction(num) / den
            if tuple(y - c * x for x, y in zip(a, b)) not in rootset:
                closed = False
    report["reflection_closed"] = closed
    report["crystallographic"] = crystallographic

    # primed reformulations, computed independently
    closed_prime = True
    integral_prime = True
    for a in roots:
        norm = ip(a, a)
        for b in roots:
            c = Fraction(2 * ip(a, b), 1) / norm
            if c.denominator != 1:
                integral_prime = False
            else:
                c = int(c)
            if tuple(x - c * y for x, y in zip(b, a)) not in rootset:
                closed_prime = False
    report["reflection_closed_prime"] = closed_prime
    report["crystallographic_prime"] = integral_prime
    report["primed_agree"] = (closed == closed_prime
                              and crystallographic == integral_prime)
    report["all_pass_in_span"] = (reduced and closed and crystallographic)
    return report


class WeylGroupElement:
    """Orthogonal matrix generated by simple reflections, with a word."""

    __slots__ = ("matrix", "word")

    def __init__(self, matrix, word):
        self.matrix = matrix
        self.word = word

    def apply(self, v):
        return tuple(sum(row[j] * Fraction(v[j]) for j in range(len(v)))
                     for row in self.matrix)

    def __eq__(self, other):
        return isinstance(other, WeylGroupElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


def _reflection_matrix(alpha, form, n):
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        cols.append(reflect(alpha, e, form))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                 for row in a)


def weyl_group(simple, form=None, cap=DEFAULT_WEYL_CAP):
    """Closure of the simple reflections under composition (BFS, so the
    stored words are reduced expressions)."""
    n = len(simple[0])
    gens = [_reflection_matrix(a, form, n) for a in simple]
    # integral generators (the common case) multiply much faster as ints
    gens = [tuple(tuple(int(x) if Fraction(x).denominator == 1 else x
                        for x in row) for row in g) for g in gens]
    all_integral = all(isinstance(x, int) for g in gens for row in g
                       for x in row)
    ident = tuple(tuple((1 if all_integral else Fraction(1))
                        if i == j else (0 if all_integral else Fraction(0))
                        for j in range(n)) for i in range(n))
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for gi, g in enumerate(gens):
                prod = _mat_mul(m, g)
                if prod not in seen:
                    seen[prod] = seen[m] + (gi,)
                    new.append(prod)
                    if len(seen) > cap:
                        raise CapExceeded("Weyl group exceeds cap")
        frontier = new
    return [WeylGroupElement(m, w) for m, w in seen.items()]


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
