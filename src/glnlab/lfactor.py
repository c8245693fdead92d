"""Determinantal local L-factors from Satake parameters.

A closed menu of dual-group representations (standard, dual, sym(k),
wedge(k), tensor) is applied to a semisimple parameter t, possibly
twisted by a coordinate permutation sigma recording the Galois action;
the local factor is 1/det(1 - rho(t sigma) X) with X standing for
q^(-s).  On the index-tuple basis of rho, rho(t sigma) is a monomial
matrix, so det(1 - rho(t sigma) X) is the product over its cycles C of
(1 - c_C X^|C|), c_C the product of the signed weights around C.  Base
change of degree d reads the same cycles: (t sigma)^d splits C into
g = gcd(|C|, d) cycles of length |C|/g and product c_C^(d/g).

Every number is an exact int or Fraction; no floats anywhere.  A
parameter entry is a rational or a symbol name, so every weight is one
signed Laurent monomial in the names, held as (coefficient, ((name,
exponent), ...)) with the names sorted and each exponent nonzero.  A
factor is the dict of its terms, so each cycle's binomial is a dict
convolution.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import reduce
from math import comb, gcd
from types import SimpleNamespace

from .errors import NonIntegral, RankMismatch, ZeroEntry
from .rings import _poly_divmod

_ONE = (1, ())  # the monomial 1


def _monomial(value):
    """A parameter entry as a monomial: a symbol name (a str) is that
    name to the first power, an int or a Fraction is a constant, and a
    monomial is itself."""
    if isinstance(value, str):
        return 1, ((value, 1),)
    if isinstance(value, tuple):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"not a rational or a symbol name: {value!r}")
    return value, ()


def _times(x, y):
    """The product of two monomials."""
    powers = dict(x[1])
    for name, e in y[1]:
        powers[name] = powers.get(name, 0) + e
    return x[0] * y[0], tuple(sorted(
        (name, e) for name, e in powers.items() if e))


def _power(m, e):
    """The monomial m to the power e >= 1."""
    c, powers = m
    return c**e, tuple((name, x * e) for name, x in powers)


def _exponents(m, names):
    """The exponent tuple of the monomial m over the sorted names."""
    powers = dict(m[1])
    return tuple(powers.get(name, 0) for name in names)


class SatakeParameter:
    """Ordered tuple of nonzero exact eigenvalues of a semisimple
    dual-torus element, with the residue count q.  An entry is given as
    an int, a Fraction or a symbol name and held as a monomial."""

    def __init__(self, values, q):
        vals = tuple(_monomial(v) for v in values)
        if any(c == 0 for c, _ in vals):
            raise ZeroEntry("Satake parameters must be nonzero")
        self.values = vals
        self.n = len(vals)
        self.q = q

    def names(self):
        """The symbol names the entries use."""
        return {name for _, powers in self.values for name, _ in powers}

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


# ---------------------------------------------------------------------------
# the monomial matrix rho(diag(t) P_sigma)

def _basis_action(rho, t, t2=None, action=None):
    """rho(diag(t) P_sigma) on the index-tuple basis of rho, P_sigma
    sending e_j to e_i where action(i) = j: a monomial matrix, given as
    the list of (w, j) with basis vector number b going to w times
    basis vector number j.  w is the monomial product of the t_i (of the
    1/t_i for dual) with a sign for wedge, the parity of the reordering.
    A tensor basis pairs coordinates of t with coordinates n.. of t2,
    which sigma fixes."""
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
        vals = [(1 / Fraction(c), tuple((name, -e) for name, e in powers))
                for c, powers in vals]
    position = {b: i for i, b in enumerate(basis)}
    out = []
    for b in basis:
        image = [inv[i] for i in b]
        key = tuple(sorted(image))
        c, powers = reduce(_times, [vals[i] for i in key], _ONE)
        if rho.kind == "wedge" and sum(
                x > y for x, y in itertools.combinations(image, 2)) % 2:
            c = -c
        out.append(((c, powers), position[key]))
    return out


class LocalLFactor:
    """1/denominator with denominator = det(1 - rho(t sigma) X), held as
    the dict ``terms`` {(power of X, exponents): coefficient}.  The
    exponent tuples run over ``names``, the sorted symbol names (an
    exponent is negative for dual), and every coefficient is a nonzero
    int or Fraction; the constant term is the caller's claim to check."""

    def __init__(self, terms, names, q):
        self.terms = terms
        self.names = tuple(names)
        self.q = q

    def coefficient(self, k):
        """The coefficient of X^k, as {exponents: coefficient}."""
        return {e: c for (j, e), c in self.terms.items() if j == k}

    def degree(self):
        return max(k for k, _ in self.terms)

    def __eq__(self, other):
        """Equal q and terms, each keyed by (power of X, its (name,
        exponent) pairs), so that names with no nonzero exponent do not
        matter."""
        def named(f):
            return {(k, tuple((name, x) for name, x in zip(f.names, e) if x)):
                    c for (k, e), c in f.terms.items()}
        return (isinstance(other, LocalLFactor) and self.q == other.q
                and named(self) == named(other))

    def __repr__(self):
        return f"LocalLFactor({self.terms}, names={self.names}, q={self.q})"


def _times_binomial(terms, a, length, e):
    """terms * (1 + a * X^length * (the monomial with exponents e)), as
    a dict convolution."""
    out = dict(terms)
    for (k, x), c in terms.items():
        key = (k + length, tuple(map(operator.add, x, e)))
        c = out.get(key, 0) + a * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _cycle_factor(rho, t, t2, action, d):
    """det(1 - rho(t sigma)^d X^d), read off the cycles of the monomial
    matrix rho(t sigma): the d-th power splits a cycle C, of length |C|
    and product c_C, into g = gcd(|C|, d) cycles of length |C|/g and
    product c_C^(d/g), so C gives (1 - c_C^(d/g) X^(d|C|/g))^g."""
    images = _basis_action(rho, t, t2, action)
    names = sorted(t.names() | (set() if t2 is None else t2.names()))
    terms = {(0, (0,) * len(names)): 1}
    seen = set()
    for start in range(len(images)):
        c, length, j = _ONE, 0, start
        while j not in seen:
            seen.add(j)
            w, j = images[j]
            c = _times(c, w)
            length += 1
        if length:
            g = gcd(length, d)
            c = _power(c, d // g)
            for _ in range(g):
                terms = _times_binomial(terms, -c[0], d * length // g,
                                        _exponents(c, names))
    return LocalLFactor(terms, names, t.q)


def l_factor(rho, t, t2=None, action=None):
    """det(1 - rho(t sigma) X)^-1 exactly: the product over the cycles C
    of the monomial matrix rho(t sigma) of (1 - c_C X^|C|), c_C the
    product of the signed weights around C."""
    return _cycle_factor(rho, t, t2, action, 1)


def base_change_factor(rho, t, d, action=None, t2=None):
    """Local factor after unramified base change of degree d:
    det(1 - rho(t sigma)^d X^d)^-1, t sigma replaced by its degree-d
    Galois norm (t sigma)^d and X by X^d (the extension's q^(-s) is
    q^(-ds)).  A tensor partner t2 has the trivial action it has in
    ``l_factor``, so it is normed to t2^d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return _cycle_factor(rho, t, t2, action, d)


# ---------------------------------------------------------------------------
# the base-change sanity oracle, in Z[zeta]/(Phi_d)

# Z for rings._poly_divmod, whose divisors here are all monic (Phi_e):
# the units +-1 are their own inverses
_Z = SimpleNamespace(add=operator.add, mul=operator.mul, neg=operator.neg,
                     inv=lambda u: u)


def _cyclotomic(d):
    """Phi_d (constant term first): x^d - 1 over Phi_e for every proper
    divisor e of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_divmod(_Z, poly, _cyclotomic(e))[0]
    return poly


def conjugate_orbit_product(alpha, d):
    """The base-change sanity oracle, independent of base_change_factor:
    prod_{j<d} (1 - zeta^j alpha X) for zeta a primitive d-th root of
    unity.  The coefficient of (alpha X)^k is an int vector in
    Z[zeta]/(zeta^d - 1), reduced mod Phi_d at the end; it must reduce
    to an int (NonIntegral if not).  Returns the terms, keyed as
    ``LocalLFactor.terms`` over the sorted symbol names of alpha."""
    coeffs = [[1] + [0] * (d - 1)]
    for j in range(d):
        # times (1 - zeta^j Y), Y = alpha X: zeta^j rotates by j places
        rotated = [v[d - j:] + v[:d - j] for v in coeffs]
        coeffs = [list(map(operator.sub, a, b)) for a, b in
                  zip(coeffs + [[0] * d], [[0] * d] + rotated)]
    phi = _cyclotomic(d)
    c, powers = _monomial(alpha)
    e = tuple(x for _, x in powers)
    terms = {}
    for k, vec in enumerate(coeffs):
        rest = _poly_divmod(_Z, vec, phi)[1] or [0]
        if any(rest[1:]):
            raise NonIntegral(f"orbit coefficient of X^{k} is not in Z")
        if rest[0]:
            terms[(k, tuple(k * x for x in e))] = rest[0] * c**k
    return terms

