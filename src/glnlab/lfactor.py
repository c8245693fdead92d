"""Determinantal local L-factors from Satake parameters.

A closed menu of dual-group representations (standard, dual, sym(k),
wedge(k), tensor) is applied to a semisimple parameter t, possibly
twisted by a coordinate permutation recording the Galois action; the
local factor is 1/det(1 - rho(t sigma) X) with X standing for q^(-s).
All coefficients are exact (rationals, declared symbols, roots of
unity); no floats anywhere.
"""

from __future__ import annotations

import itertools
from math import comb

import sympy

from .errors import BaseMismatch, RankMismatch, ZeroEntry

X = sympy.Symbol("X")


class SatakeParameter:
    """Ordered tuple of nonzero exact eigenvalues of a semisimple
    dual-torus element, with the residue count q."""

    def __init__(self, values, q):
        vals = tuple(sympy.sympify(v) for v in values)
        if any(v == 0 for v in vals):
            raise ZeroEntry("Satake parameters must be nonzero")
        self.values = vals
        self.n = len(vals)
        self.q = q

    def weyl_equal(self, other):
        """Equality up to coordinate permutation."""
        if not isinstance(other, SatakeParameter) or self.q != other.q:
            return False
        key = sorted(map(sympy.srepr, self.values))
        return key == sorted(map(sympy.srepr, other.values))

    def __eq__(self, other):
        return (isinstance(other, SatakeParameter)
                and self.q == other.q and self.values == other.values)

    def __repr__(self):
        return f"SatakeParameter({self.values}, q={self.q})"


class DualRep:
    """One entry of the representation menu."""

    KINDS = ("standard", "dual", "sym", "wedge", "tensor")

    def __init__(self, kind, k=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown representation kind {kind!r}")
        if kind in ("sym", "wedge"):
            if k is None or k < 0:
                raise ValueError("sym/wedge need a degree k >= 0")
        elif k is not None:
            raise ValueError(f"{kind} takes no degree parameter")
        self.kind = kind
        self.k = k

    @classmethod
    def trivial(cls):
        return cls("sym", 0)

    def dimension(self, n, m=None):
        if self.kind in ("standard", "dual"):
            return n
        if self.kind == "sym":
            return comb(n + self.k - 1, self.k)
        if self.kind == "wedge":
            if self.k > n:
                raise RankMismatch(f"wedge({self.k}) needs rank >= {self.k}")
            return comb(n, self.k)
        if m is None:
            raise RankMismatch("tensor dimension needs both ranks")
        return n * m

    def __repr__(self):
        return f"DualRep({self.kind!r}{'' if self.k is None else f', k={self.k}'})"


class DualTorusElement:
    """Pair (sigma^power, t) in the semidirect product of the Galois
    group with the dual torus; sigma permutes torus coordinates."""

    def __init__(self, galois_power, t, action=None, order=None):
        self.t = t
        n = t.n
        self.action = tuple(action) if action is not None else tuple(range(n))
        if sorted(self.action) != list(range(n)):
            raise ValueError("action must be a permutation of the coordinates")
        if order is not None:
            if _perm_power(self.action, order) != tuple(range(n)):
                raise ValueError("action order must divide the declared order")
            galois_power %= order
        self.galois_power = galois_power
        self.order = order

    def apply_action(self, values, times=1):
        """Coordinate permutation: sigma(t)_i = t_{action(i)}."""
        perm = _perm_power(self.action, times)
        return tuple(values[perm[i]] for i in range(len(values)))

    def __eq__(self, other):
        return (isinstance(other, DualTorusElement)
                and self.galois_power == other.galois_power
                and self.t == other.t and self.action == other.action)

    def __repr__(self):
        return (f"DualTorusElement(sigma^{self.galois_power}, "
                f"{self.t}, action={self.action})")


def _perm_power(perm, m):
    n = len(perm)
    out = tuple(range(n))
    base = perm
    m = m % _perm_order(perm)
    for _ in range(m):
        out = tuple(base[out[i]] for i in range(n))
    return out


def _perm_order(perm):
    n = len(perm)
    cur = perm
    order = 1
    ident = tuple(range(n))
    while cur != ident:
        cur = tuple(perm[cur[i]] for i in range(n))
        order += 1
    return order


def semidirect_power(e, m):
    """(sigma, t)^m = (sigma^m, t * sigma(t) * ... * sigma^(m-1)(t)),
    following the convention (sigma, g)(sigma', g') = (sigma sigma',
    g sigma(g'))."""
    if m < 1:
        raise ValueError("need m >= 1")
    vals = list(e.t.values)
    acc = list(vals)
    for j in range(1, m):
        shifted = e.apply_action(vals, times=j)
        acc = [sympy.expand(a * s) for a, s in zip(acc, shifted)]
    t_new = SatakeParameter(acc, e.t.q)
    power = e.galois_power * m
    if e.order is not None:
        power %= e.order
    return DualTorusElement(power, t_new,
                            action=_perm_power(e.action, m), order=e.order)


def semidirect_multiply(e1, e2):
    """(sigma^a, g)(sigma^b, g') = (sigma^(a+b), g * sigma^a(g'));
    requires a shared underlying action."""
    # e1's action permutation is the action of its own Galois component
    g = [sympy.expand(a * b) for a, b in
         zip(e1.t.values, e1.apply_action(e2.t.values, times=1))]
    t_new = SatakeParameter(g, e1.t.q)
    power = e1.galois_power + e2.galois_power
    action = tuple(e1.action[e2.action[i]] for i in range(len(e1.action)))
    order = e1.order
    if order is not None:
        power %= order
    return DualTorusElement(power, t_new, action=action, order=order)


# ---------------------------------------------------------------------------
# representation matrices and eigenvalues

def rep_apply(rho, t, t2=None):
    """Eigenvalue multiset of rho(t) for split parameters (trivial
    Galois twist)."""
    vals = t.values
    n = t.n
    if rho.kind == "standard":
        return list(vals)
    if rho.kind == "dual":
        return [sympy.together(1 / v) for v in vals]
    if rho.kind == "sym":
        out = []
        for combo in itertools.combinations_with_replacement(range(n), rho.k):
            out.append(sympy.expand(sympy.prod([vals[i] for i in combo])))
        return out
    if rho.kind == "wedge":
        if rho.k > n:
            raise RankMismatch(f"wedge({rho.k}) needs rank >= {rho.k}")
        return [sympy.expand(sympy.prod([vals[i] for i in combo]))
                for combo in itertools.combinations(range(n), rho.k)]
    if t2 is None:
        raise RankMismatch("tensor needs a second parameter")
    return [sympy.expand(a * b) for a in vals for b in t2.values]


def _perm_matrix(perm):
    n = len(perm)
    return sympy.Matrix(n, n, lambda i, j: 1 if perm[i] == j else 0)


def _sym_power_matrix(a, k):
    """Induced matrix of a on the degree-k monomial basis."""
    n = a.shape[0]
    xs = sympy.symbols(f"x0:{n}")
    basis = list(itertools.combinations_with_replacement(range(n), k))
    images = []
    for combo in basis:
        poly = sympy.Integer(1)
        for i in combo:
            poly *= sum(a[r, i] * xs[r] for r in range(n))
        images.append(sympy.Poly(sympy.expand(poly), *xs))
    rows = []
    for bi in basis:
        mono = [0] * n
        for i in bi:
            mono[i] += 1
        rows.append([img.coeff_monomial(tuple(mono)) for img in images])
    return sympy.Matrix(rows)


def _wedge_power_matrix(a, k):
    """Induced matrix of a on the k-th exterior power: k x k minors."""
    n = a.shape[0]
    subsets = list(itertools.combinations(range(n), k))
    return sympy.Matrix(
        [[a[rows, cols].det() for cols in subsets] for rows in subsets])


def rep_matrix(rho, a, b=None):
    """rho applied to an explicit invertible matrix a (and b for tensor)."""
    if rho.kind == "standard":
        return a
    if rho.kind == "dual":
        return a.inv().T
    if rho.kind == "sym":
        return _sym_power_matrix(a, rho.k)
    if rho.kind == "wedge":
        if rho.k > a.shape[0]:
            raise RankMismatch(f"wedge({rho.k}) needs rank >= {rho.k}")
        return _wedge_power_matrix(a, rho.k)
    if b is None:
        raise RankMismatch("tensor needs a second matrix")
    return sympy.Matrix(sympy.kronecker_product(a, b))


class LocalLFactor:
    """1/denominator with denominator = det(1 - rho(t sigma) X)."""

    def __init__(self, denominator, q):
        den = sympy.expand(denominator)
        if den.subs(X, 0) != 1:
            raise ValueError("denominator must have constant term 1")
        self.denominator = den
        self.q = q

    def degree(self):
        return sympy.Poly(self.denominator, X).degree()

    def as_rational(self):
        return 1 / self.denominator

    def __eq__(self, other):
        return (isinstance(other, LocalLFactor) and self.q == other.q
                and sympy.expand(self.denominator - other.denominator) == 0)

    def __repr__(self):
        return f"LocalLFactor(1/({self.denominator}), q={self.q})"


def l_factor(rho, t, q=None, t2=None, action=None):
    """det(1 - rho(t sigma) X)^-1 exactly.

    With trivial action this is prod(1 - eps X) over rep_apply
    eigenvalues; a nontrivial coordinate permutation twists the matrix
    before the determinant.
    """
    q = t.q if q is None else q
    n = t.n
    if rho.kind == "tensor" and t2 is None:
        raise RankMismatch("tensor needs a second parameter")
    trivial = action is None or tuple(action) == tuple(range(n))
    if trivial:
        den = sympy.expand(sympy.prod(
            [1 - eps * X for eps in rep_apply(rho, t, t2)]))
        return LocalLFactor(den, q)
    a = sympy.diag(*t.values) * _perm_matrix(tuple(action))
    b = sympy.diag(*t2.values) if t2 is not None else None
    m = rep_matrix(rho, a, b)
    dim = m.shape[0]
    den = sympy.expand((sympy.eye(dim) - X * m).det())
    return LocalLFactor(den, q)


def base_change_factor(rho, t, d, q=None, action=None, t2=None):
    """Local factor after unramified base change of degree d.

    The parameter is replaced by its degree-d Galois norm and the
    variable by X^d (the extension's q^(-s) is q^(-ds))."""
    if d < 1:
        raise ValueError("need d >= 1")
    q = t.q if q is None else q
    e = DualTorusElement(1, t, action=action)
    ed = semidirect_power(e, d)
    residual = ed.action
    base = l_factor(rho, ed.t, q, t2=t2,
                    action=None if residual == tuple(range(t.n)) else residual)
    den = sympy.expand(base.denominator.subs(X, X**d))
    return LocalLFactor(den, q)


def conjugate_orbit_product(alpha, d):
    """The base-change sanity oracle: expand prod_{j<d}(1 - zeta_d^j
    alpha X) over the d-th roots of unity."""
    zeta = sympy.exp(2 * sympy.pi * sympy.I / d)
    prod = sympy.Integer(1)
    for j in range(d):
        prod *= 1 - zeta**j * sympy.sympify(alpha) * X
    a = sympy.sympify(alpha)
    gens = (X, a) if a.is_Symbol else (X,)
    poly = sympy.Poly(sympy.expand(prod), *gens)
    # the remaining coefficients are pure numbers (symmetric functions
    # of the roots of unity); simplify them one by one
    terms = [sympy.simplify(sympy.expand_complex(c))
             * sympy.prod([g**k for g, k in zip(gens, e)])
             for e, c in zip(poly.monoms(), poly.coeffs())]
    return sympy.expand(sympy.Add(*terms))


class EulerProduct:
    """Finite product of local factors, kept factored."""

    def __init__(self, factors):
        qs = {f.q for f in factors}
        if len(qs) > 1:
            raise BaseMismatch("all factors must share the same q")
        self.factors = list(factors)
        self.q = qs.pop() if qs else None

    def denominator(self):
        return sympy.Mul(*[f.denominator for f in self.factors],
                         evaluate=False) if self.factors else sympy.Integer(1)

    def as_rational(self):
        return 1 / sympy.expand(sympy.Mul(
            *[f.denominator for f in self.factors]))


def rankin_selberg(t1, t2, q=None):
    """The 2-variable pairing factor: rho = tensor of the two standard
    representations, denominator prod(1 - alpha_i beta_j X)."""
    q = t1.q if q is None else q
    return l_factor(DualRep("tensor"), t1, q, t2=t2)
