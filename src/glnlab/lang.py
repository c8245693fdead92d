"""Galois actions on matrix groups, the Lang map, and twisted conjugacy.

Groups are handled by exhaustive enumeration below a hard size cap, so
every statement verified here (surjectivity counts, H^1 triviality, the
norm-vs-conjugacy matching) is exact, never sampled.  The enumeration
loops work on the flat code tuples of ``Mat`` (see ``rings``) and wrap
only their results as matrices.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    CapExceeded,
    InvalidConfig,
    MatchFailure,
    NoTrivialization,
    NotACocycle,
    NotFound,
)
from .rings import (
    DEFAULT_FIELD_CAP,
    DEFAULT_GROUP_CAP,
    FiniteField,
    LocalRingElement,
    Mat,
    TruncatedLocalRing,
)


def factor_prime_power(q):
    """(p, v) with q = p^v, or raise InvalidConfig."""
    if q >= 2:
        # the least divisor above 1 is prime
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        v, m = 0, q
        while m % p == 0:
            m //= p
            v += 1
        if m == 1:
            return p, v
    raise InvalidConfig(f"{q} is not a prime power")


class GaloisModule:
    """An enumerated matrix group with a cyclic Frobenius action.

    ``sigma`` maps group elements to group elements and has order
    dividing ``d``.  Elements are ``Mat``s over one ring with offset 0.
    """

    def __init__(self, elements, sigma, d, ring=None, size=None):
        self.elements = list(elements)
        self.sigma = sigma
        self.d = d
        self.ring = ring
        self.size = len(self.elements) if size is None else size

    def identity(self):
        e = self.elements[0]
        return Mat.identity(e.ring, e.size)


def gl_elements(ring, s, cap=DEFAULT_GROUP_CAP):
    """All of GL_s over an enumerable finite ring, in coefficient order.

    Rows with every entry in the maximal ideal cannot occur, so the scan
    runs over the other rows only; the determinant test decides the rest.
    """
    nel = ring.size()
    if nel ** (s * s) > cap:
        raise CapExceeded(
            f"enumerating {nel}^{s * s} candidate matrices exceeds cap {cap}")
    unit, det = ring.is_unit, ring.mat_det
    rows = [r for r in itertools.product(range(nel), repeat=s)
            if any(map(unit, r))]
    out = []
    for m in itertools.product(rows, repeat=s):
        codes = sum(m, ())
        if unit(det(s, codes)):
            out.append(Mat.from_codes(ring, s, codes))
    return out


def gl_module(ring, s, sigma_exponent=1, cap=DEFAULT_GROUP_CAP):
    """GL_s over a finite field or truncated local ring with entrywise
    Frobenius^sigma_exponent as the Galois action."""
    d = ring.d // math.gcd(ring.d, sigma_exponent)
    sig = (lambda m: m.sigma(sigma_exponent))
    module = GaloisModule(gl_elements(ring, s, cap=cap), sig, d, ring=ring)
    module.sigma_exponent = sigma_exponent % ring.d or ring.d
    return module


# ---------------------------------------------------------------------------
# the Lang map

def lang_map(x, module):
    """x^-1 * sigma(x)."""
    return x.inverse() * module.sigma(x)


def _coded(module):
    """(ring, matrix size, {codes: codes of sigma}) of a module, in the
    order of its elements."""
    first = module.elements[0]
    sigma = {m.codes: module.sigma(m).codes for m in module.elements}
    return first.ring, first.size, sigma


def _orbits(codes, orbit_of):
    """The orbits through codes, each once, in the order of codes."""
    seen = set()
    for a in codes:
        if a not in seen:
            orbit = orbit_of(a)
            seen |= orbit
            yield orbit


def _classes(ring, s, codes, lefts, rights):
    """Orbits a -> u * a * w, u and w paired from lefts and rights."""
    mul = ring.mat_mul
    out = []
    for orbit in _orbits(codes, lambda a: {
            mul(s, mul(s, u, a), w) for u, w in zip(lefts, rights)}):
        out.append({"representative": Mat.from_codes(ring, s, min(orbit)),
                    "size": len(orbit),
                    "orbit": {Mat.from_codes(ring, s, c) for c in orbit}})
    return out


def lang_image(module):
    ring, s, sigma = _coded(module)
    mul, inv = ring.mat_mul, ring.mat_inv
    image = {mul(s, inv(s, x), sx) for x, sx in sigma.items()}
    return {Mat.from_codes(ring, s, c) for c in image}


def twisted_norm(a, module, m):
    """a * sigma(a) * ... * sigma^{m-1}(a)."""
    acc = a
    cur = a
    for _ in range(m - 1):
        cur = module.sigma(cur)
        acc = acc * cur
    return acc


def twisted_classes(module):
    """Partition of the group under a ~ v * a * sigma(v)^-1.

    Returns a list of dicts with canonical (coeff-key-least) represen-
    tative, orbit size, and the orbit itself.
    """
    ring, s, sigma = _coded(module)
    return _classes(ring, s, sigma, sigma,
                    [ring.mat_inv(s, sv) for sv in sigma.values()])


def ordinary_classes(elements):
    """Plain conjugacy classes of an enumerated group."""
    ring, s = elements[0].ring, elements[0].size
    codes = [g.codes for g in elements]
    return _classes(ring, s, codes, codes,
                    [ring.mat_inv(s, g) for g in codes])


# ---------------------------------------------------------------------------
# Lang preimages via extension fields

def embed_field(small, big):
    """Canonical embedding F_{p^m} -> F_{p^M}, m | M.

    Sends the generator to the lex-least root of the small modulus in
    the big field; any such root works since the embeddings are Galois-
    conjugate and commute with every p-power map.
    """
    if small.p != big.p or big.d % small.d:
        raise ValueError("no embedding between these fields")
    root = next((a for a in range(big.size())  # in coefficient order
                 if not big.evaluate(small.modulus, a)), None)
    if root is None:
        raise ArithmeticError("modulus has no root in the big field")
    powers = [big.one_code]
    for _ in range(small.d - 1):
        powers.append(big.mul(powers[-1], root))

    def emb(a):
        return LocalRingElement(
            big, big.dot([big.encode((c,)) for c in a.coeffs], powers))

    return emb


def _solve_kernel_gfp(rows, p):
    """Basis of the kernel of a matrix over Z/p (rows = list of row lists)."""
    if not rows:
        return []
    ncols = len(rows[0])
    rows = [list(r) for r in rows]
    pivots = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for c, rr in pivots.items():
            vec[c] = (-rows[rr][fc]) % p
        basis.append(vec)
    return basis


def lang_preimage(y, module, max_extension=None, kernel_cap=1 << 20):
    """Solve x^-1 sigma(x) = y over extensions of the module's field.

    Only supported for GL_s over a finite field.  The equation
    sigma(x) = x*y is F_p-linear in the entries of x, so each extension
    degree is a kernel computation plus a search for an invertible
    kernel element.  Returns (x, extension_degree, big_field, embedding).
    """
    field = module.ring
    if not isinstance(field, FiniteField):
        raise NotFound("preimage search implemented over finite fields only")
    p, m = field.p, field.d
    s = y.size
    sig_exp = getattr(module, "sigma_exponent", 1)
    if max_extension is None:
        # the order bound q^d - 1 = |field| - 1 is always sufficient
        max_extension = max(1, field.q - 1)
    for e in range(1, max_extension + 1):
        if p**(m * e) > DEFAULT_FIELD_CAP:
            break
        big = FiniteField(p, m * e)
        emb = embed_field(field, big)
        ybig = Mat(big, [[emb(a) for a in row] for row in y.rows])
        x = _lang_solve_linear(ybig, big, s, sig_exp, kernel_cap)
        if x is not None:
            return x, e, big, emb
    raise NotFound("no Lang preimage within the extension bound")


def _lang_solve_linear(ybig, big, s, sig_exp, kernel_cap):
    """Invertible solution of sigma(x) = x*y over the big field, if any."""
    p, M = big.p, big.d
    nvars = s * s * M
    rows = []
    for idx in range(s * s):
        for basis in big.weights:  # the code of x^k, k = 0..M-1
            mat = Mat.from_codes(big, s, tuple(
                basis if t == idx else 0 for t in range(s * s)))
            img = mat.sigma(sig_exp) + (mat * ybig).scale(big.from_int(-1))
            rows.append([c for a in img.codes for c in big.decode(a)])
    # rows currently hold images of basis vectors; transpose to the matrix
    # acting on coordinate columns
    mat_rows = [[rows[v][eq] for v in range(nvars)] for eq in range(nvars)]
    kernel = _solve_kernel_gfp(mat_rows, p)
    if not kernel:
        return None
    if p**len(kernel) > kernel_cap:
        raise CapExceeded("kernel too large to scan for an invertible point")
    for combo in itertools.product(range(p), repeat=len(kernel)):
        if not any(combo):
            continue
        vec = [0] * nvars
        for c, bvec in zip(combo, kernel):
            if c:
                vec = [(x + c * y) % p for x, y in zip(vec, bvec)]
        x = Mat.from_codes(big, s, tuple(big.encode(vec[idx * M:(idx + 1) * M])
                                         for idx in range(s * s)))
        if x.is_invertible():
            return x
    return None


# ---------------------------------------------------------------------------
# H^1 for cyclic actions

def h1_cyclic(module):
    """Cocycles c with c sigma(c) ... sigma^{d-1}(c) = 1 and their classes
    under c ~ a^-1 c sigma(a)."""
    ring, s, sigma = _coded(module)
    mul = ring.mat_mul
    ident = Mat.identity(ring, s).codes

    def norm(c):
        acc = cur = c
        for _ in range(module.d - 1):
            cur = sigma[cur]
            acc = mul(s, acc, cur)
        return acc

    cocycles = [c for c in sigma if norm(c) == ident]
    cocycle_set = set(cocycles)
    inv = ring.mat_inv
    classes = []
    # inverses are recomputed per class, not stored: H^1 is mostly trivial
    for orbit in _orbits(cocycles, lambda c: {
            mul(s, mul(s, inv(s, a), c), sa) for a, sa in sigma.items()}):
        orbit &= cocycle_set
        classes.append({"representative": Mat.from_codes(ring, s, min(orbit)),
                        "size": len(orbit),
                        "contains_identity": ident in orbit})
    return {
        "cocycle_count": len(cocycles),
        "cocycles": [Mat.from_codes(ring, s, c) for c in cocycles],
        "classes": classes,
        "h1_size": len(classes),
    }


def congruence_kernel_module(p, d, a, b, s, cap=DEFAULT_GROUP_CAP):
    """The group 1 + p^a M_s at precision b (so p^a O / p^b O entries),
    with the lifted Frobenius action."""
    ring = TruncatedLocalRing(p, b, d)
    pa = p**a
    step = p**(b - a)
    per_entry = step**d
    if per_entry ** (s * s) > cap:
        raise CapExceeded("congruence kernel enumeration exceeds cap")
    entry_values = [ring.encode([pa * t for t in coeffs])
                    for coeffs in itertools.product(range(step), repeat=d)]
    ident = Mat.identity(ring, s).codes
    out = [Mat.from_codes(ring, s, tuple(map(ring.add, ident, delta)))
           for delta in itertools.product(entry_values, repeat=s * s)]
    return GaloisModule(out, lambda m: m.sigma(1), d, ring=ring)


def h1_level_tower(s, p, d, max_level, cap=DEFAULT_GROUP_CAP):
    """|H^1| for GL_s at each truncation level and for the congruence
    kernels between consecutive levels, plus level-compatibility."""
    report = {"levels": [], "kernels": [], "compatible": True}
    low = prev_cocycles = None
    for n in range(1, max_level + 1):
        ring = TruncatedLocalRing(p, n, d)
        module = gl_module(ring, s, cap=cap)
        res = h1_cyclic(module)
        report["levels"].append({"level": n, "group_order": module.size,
                                 "h1_size": res["h1_size"],
                                 "cocycle_count": res["cocycle_count"]})
        cocycles = {c.codes for c in res["cocycles"]}
        if low is not None:
            # reduction must carry level-n cocycles to level-(n-1) cocycles
            reduced = {tuple(low.encode(ring.decode(a)) for a in c)
                       for c in cocycles}
            if not reduced <= prev_cocycles:
                report["compatible"] = False
        low, prev_cocycles = ring, cocycles
    for a in range(1, max_level):
        module = congruence_kernel_module(p, d, a, a + 1, s, cap=cap)
        res = h1_cyclic(module)
        report["kernels"].append({"from_level": a, "to_level": a + 1,
                                  "group_order": module.size,
                                  "h1_size": res["h1_size"]})
    return report


def descend_conjugator(g, u_module):
    """Given g with sigma^-1(g)^-1 g in U, return g1 = g*u fixed by sigma.

    u is found by exhaustive trivialization of the cocycle in U; if no
    trivializer exists the H^1 obstruction is reported, not patched.
    """
    sig_inv_g = _sigma_power(g, u_module, u_module.d - 1)
    c = sig_inv_g.inverse() * g
    members = set(u_module.elements)
    ident = u_module.identity()
    if c == ident:
        return g
    if c not in members:
        raise NotACocycle("sigma^-1(g)^-1 * g does not lie in U")
    for u in u_module.elements:
        if _sigma_power(u, u_module, u_module.d - 1) * u.inverse() == c:
            g1 = g * u
            if u_module.sigma(g1) == g1:
                return g1
    raise NoTrivialization("cocycle has no trivialization in U")


def _sigma_power(m, module, e):
    for _ in range(e % module.d):
        m = module.sigma(m)
    return m


# ---------------------------------------------------------------------------
# the norm-matching bijection between plain and twisted classes

def char_poly(m):
    """Characteristic polynomial coefficients (low degree first, monic).

    Coefficient of X^k is (-1)^{s-k} * (sum of (s-k)x(s-k) principal
    minors); computed exactly over the entry ring.
    """
    s = m.size
    ring = m.ring
    coeffs = []
    for k in range(s + 1):
        r = s - k  # minor size
        if r == 0:
            coeffs.append(ring.one())
            continue
        acc = 0
        for idx in itertools.combinations(range(s), r):
            sub = tuple(m.codes[i * s + j] for i in idx for j in idx)
            acc = ring.add(acc, ring.mat_det(r, sub))
        if r % 2:
            acc = ring.neg(acc)
        coeffs.append(LocalRingElement(ring, acc))
    return tuple(coeffs)


def dm_bijection_check(s, q, n, cap=DEFAULT_GROUP_CAP):
    """Match plain conjugacy classes of GL_s(F_q) with twisted classes of
    GL_s(F_{q^n}) under the q-power Frobenius.

    For each twisted class representative A: solve X^-1 sigma(X) = A
    over an extension, form Y = X sigma^n(X^-1) (sigma-fixed, so an
    F_q point), and locate Y's plain class.  The induced map must be a
    bijection; a characteristic-polynomial cross-check (N(A) is
    conjugate to Y^-1) and an explicit conjugator search confirm each
    match.
    """
    p, v = factor_prime_power(q)
    base = FiniteField(p, v)
    ext = FiniteField(p, v * n)
    plain = ordinary_classes(gl_elements(base, s, cap=cap))
    module = gl_module(ext, s, sigma_exponent=v, cap=cap)
    twisted = twisted_classes(module)
    to_ext = embed_field(base, ext)
    mul = ext.mat_mul

    matches = []
    used = set()
    for cl in twisted:
        a = cl["representative"]
        x, e, big, _ = lang_preimage(a, module)
        # Y = X sigma^n(X^-1), fixed by the q-power map
        xinv = x.inverse()
        y = x * xinv.sigma(v * n)
        if y.sigma(v) != y:
            raise MatchFailure("norm construction did not land in GL_s(F_q)")
        y_small = _pullback_matrix(y, base, big)
        plain_cl = next(c for c in plain if y_small in c["orbit"])
        if id(plain_cl) in used:
            raise MatchFailure("two twisted classes hit the same plain class")
        used.add(id(plain_cl))

        # cross-check: N(A) = A sigma(A)...sigma^{n-1}(A) is conjugate to
        # the inverse of Y inside GL_s(F_{q^n})
        na = twisted_norm(a, module, n)
        target = Mat(ext, [[to_ext(c) for c in row]
                           for row in y_small.inverse().rows])
        if char_poly(na) != char_poly(target):
            raise MatchFailure("characteristic polynomial prefilter failed")
        # g * na * g^-1 = target, tested as g * na = target * g
        conj = next((g for g in module.elements
                     if mul(s, g.codes, na.codes)
                     == mul(s, target.codes, g.codes)), None)
        if conj is None:
            raise MatchFailure("no explicit conjugator found")
        matches.append({
            "twisted_rep": a,
            "plain_rep": plain_cl["representative"],
            "extension_degree": e,
            "char_poly": tuple(c.coeffs for c in char_poly(na)),
        })
    bijective = len(used) == len(plain) == len(twisted)
    if not bijective:
        raise MatchFailure(
            f"{len(twisted)} twisted vs {len(plain)} plain classes")
    return {
        "plain_class_count": len(plain),
        "twisted_class_count": len(twisted),
        "bijective": bijective,
        "matches": matches,
    }


def _pullback_matrix(m, small, big):
    """Invert the canonical embedding entrywise (entries must lie in the
    image of the small field)."""
    emb = embed_field(small, big)
    table = {emb(a): a for a in small.elements()}
    try:
        return Mat(small, [[table[a] for a in row] for row in m.rows])
    except KeyError:
        raise MatchFailure("matrix entry is not in the base field") from None
