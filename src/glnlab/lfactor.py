"""Determinantal local L-factors from Satake parameters.

A closed menu of dual-group representations (standard, dual, sym(k),
wedge(k), tensor) is applied to a semisimple parameter t, possibly
twisted by a coordinate permutation sigma recording the Galois action;
the local factor is 1/det(1 - rho(t sigma) X) with X standing for
q^(-s).  On the index-tuple basis of rho, rho(t sigma) is a monomial
matrix, so det(1 - rho(t sigma) X) is the product over its cycles C of
(1 - c_C X^|C|), c_C the product of the signed weights around C.  All
coefficients are exact (rationals, declared symbols, roots of unity);
no floats anywhere.
"""

from __future__ import annotations

import itertools
from math import comb

import sympy

from .errors import RankMismatch, ZeroEntry

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
    """perm applied m times, read off the cycle of each point."""
    out = []
    for i in range(len(perm)):
        cycle = [i]
        while perm[cycle[-1]] != i:
            cycle.append(perm[cycle[-1]])
        out.append(cycle[m % len(cycle)])
    return tuple(out)


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


# ---------------------------------------------------------------------------
# the monomial matrix rho(diag(t) P_sigma)

def _basis_action(rho, t, t2=None, action=None):
    """rho(diag(t) P_sigma) on the index-tuple basis of rho, P_sigma
    sending e_j to e_i where action(i) = j: a monomial matrix, given as
    the list of (w, j) with basis vector number b going to w times
    basis vector number j.  w is a product of the t_i (of the 1/t_i for
    dual) with a sign for wedge, the parity of the reordering.  A tensor
    basis pairs coordinates of t with coordinates n.. of t2, which
    sigma fixes."""
    n = t.n
    rho.dimension(n, None if t2 is None else t2.n)  # the rank checks
    vals = list(t.values)
    inv = [0] * n
    for i, j in enumerate(action or range(n)):
        inv[j] = i
    if rho.kind == "tensor":
        basis = list(itertools.product(range(n), range(n, n + t2.n)))
        vals += t2.values
        inv += range(n, n + t2.n)
    elif rho.kind == "sym":
        basis = list(itertools.combinations_with_replacement(range(n), rho.k))
    else:
        k = 1 if rho.k is None else rho.k
        basis = list(itertools.combinations(range(n), k))
    if rho.kind == "dual":
        vals = [1 / v for v in vals]
    position = {b: i for i, b in enumerate(basis)}
    out = []
    for b in basis:
        image = [inv[i] for i in b]
        key = tuple(sorted(image))
        w = sympy.Mul(*[vals[i] for i in key])
        if rho.kind == "wedge" and sum(
                x > y for x, y in itertools.combinations(image, 2)) % 2:
            w = -w
        out.append((w, position[key]))
    return out


class LocalLFactor:
    """1/denominator with denominator = det(1 - rho(t sigma) X), held as
    one Poly in X with coefficients in the parameters' ring (their
    fraction field for dual)."""

    def __init__(self, poly, q):
        if poly.coeff_monomial(1) != 1:
            raise ValueError("denominator must have constant term 1")
        self.poly = poly
        self.q = q

    @property
    def denominator(self):
        """The expanded expression, built for the report."""
        if self.poly.domain.is_PolynomialRing:
            return self.poly.inject().as_expr()
        return sympy.expand(self.poly.as_expr())

    def degree(self):
        return self.poly.degree()

    def __eq__(self, other):
        return (isinstance(other, LocalLFactor) and self.q == other.q
                and self.denominator == other.denominator)

    def __repr__(self):
        return f"LocalLFactor(1/({self.denominator}), q={self.q})"


def l_factor(rho, t, q=None, t2=None, action=None):
    """det(1 - rho(t sigma) X)^-1 exactly: the product over the cycles C
    of the monomial matrix rho(t sigma) of (1 - c_C X^|C|), c_C the
    product of the signed weights around C."""
    images = _basis_action(rho, t, t2, action)
    seen, poly = set(), sympy.Poly(1, X)
    for start in range(len(images)):
        c, length, j = 1, 0, start
        while j not in seen:
            seen.add(j)
            w, j = images[j]
            c *= w
            length += 1
        if length:
            poly *= sympy.Poly(1 - c * X**length, X)
    return LocalLFactor(poly, t.q if q is None else q)


def base_change_factor(rho, t, d, q=None, action=None, t2=None):
    """Local factor after unramified base change of degree d.

    The parameter is replaced by its degree-d Galois norm and the
    variable by X^d (the extension's q^(-s) is q^(-ds)).  A tensor
    partner t2 is normed too, under the trivial action its coordinates
    have in ``l_factor``: it becomes t2^d."""
    if d < 1:
        raise ValueError("need d >= 1")
    q = t.q if q is None else q
    ed = semidirect_power(DualTorusElement(1, t, action=action), d)
    if t2 is not None:
        t2 = semidirect_power(DualTorusElement(1, t2), d).t
    residual = ed.action
    base = l_factor(rho, ed.t, q, t2=t2,
                    action=None if residual == tuple(range(t.n)) else residual)
    return LocalLFactor(base.poly.compose(sympy.Poly(X**d, X)), q)


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


def rankin_selberg(t1, t2, q=None):
    """The 2-variable pairing factor: rho = tensor of the two standard
    representations, denominator prod(1 - alpha_i beta_j X)."""
    q = t1.q if q is None else q
    return l_factor(DualRep("tensor"), t1, q, t2=t2)
