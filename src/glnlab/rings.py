"""Exact arithmetic substrate.

Finite fields F_{p^d}, truncated unramified local rings (Z/p^n)[x]/(F)
with a canonical Frobenius lift, square matrices over either (with an
optional global p-power factor), and the coefficient ring of Laurent
polynomials in a formal square root of q.

Field/ring elements are immutable; all operations are pure.  Polynomials
are coefficient lists, low degree first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BadSubfield,
    CapExceeded,
    InvalidConfig,
    NotInvertible,
    NotPrime,
)

DEFAULT_FIELD_CAP = 1 << 16
DEFAULT_GROUP_CAP = 10**6


def is_prime(m):
    if m < 2:
        return False
    i = 2
    while i * i <= m:
        if m % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over Z/m (coefficient lists, low degree first)

def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mul(a, b, m):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    return _poly_trim(tuple(out))


def _poly_mod(a, f, m):
    """Remainder of a modulo monic f, coefficients in Z/m."""
    a = list(a)
    df = len(f) - 1
    while len(a) > df:
        lead = a[-1] % m
        if lead:
            shift = len(a) - 1 - df
            for i in range(df):
                a[shift + i] = (a[shift + i] - lead * f[i]) % m
        a.pop()
    return _poly_trim(tuple(c % m for c in a))


def _poly_divides(g, f, p):
    """True if monic g divides f over Z/p."""
    return not _poly_mod(f, g, p)


def _is_irreducible(f, p):
    """Exhaustive irreducibility test for monic f over Z/p.

    Trial division by every monic polynomial of degree 1..deg(f)//2;
    only viable at the small sizes this library caps itself to.
    """
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            g = tuple(tail) + (1,)
            if _poly_divides(g, f, p):
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


# ---------------------------------------------------------------------------
# finite fields

class FiniteField:
    """The field with p^d elements, modulus chosen canonically.

    The modulus is the lexicographically least monic irreducible of
    degree d over Z/p (coefficients compared highest degree first), so
    two fields with the same (p, d) are interchangeable.
    """

    def __init__(self, p, d, cap=DEFAULT_FIELD_CAP):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if d < 1:
            raise InvalidConfig("extension degree must be >= 1")
        if p**d > cap:
            raise CapExceeded(f"field size {p}^{d} exceeds cap {cap}")
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = _canonical_modulus(p, d)

    # -- element constructors ------------------------------------------------
    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) < self.d:
            coeffs = coeffs + (0,) * (self.d - len(coeffs))
        if len(coeffs) != self.d:
            raise ValueError("too many coefficients")
        return FqElement(self, coeffs)

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((1,))

    def gen(self):
        if self.d == 1:
            return self.element((1,))
        return self.element((0, 1))

    def from_int(self, k):
        return self.element((k % self.p,))

    def elements(self):
        for t in itertools.product(range(self.p), repeat=self.d):
            yield FqElement(self, t)

    def units(self):
        for a in self.elements():
            if a.coeffs != (0,) * self.d:
                yield a

    # -- raw tuple arithmetic (shared with the element wrapper) --------------
    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b):
        r = _poly_mod(_poly_mul(a, b, self.p), self.modulus, self.p)
        return r + (0,) * (self.d - len(r))

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.d) == (other.p, other.d))

    def __hash__(self):
        return hash(("FiniteField", self.p, self.d))

    def __repr__(self):
        return f"FiniteField({self.p}, {self.d})"


class FqElement:
    """Element of a FiniteField, as a tuple of d residues mod p."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs
        self._hash = hash((field.p, field.d, coeffs))

    def __add__(self, other):
        return FqElement(self.field, self.field._add(self.coeffs, other.coeffs))

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FqElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def inverse(self):
        if self.is_zero():
            raise NotInvertible("zero has no inverse")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        return self * other.inverse()

    def frobenius(self, e=1):
        """Apply the p-power Frobenius e times (e taken mod d)."""
        e %= self.field.d
        return self ** (self.field.p**e)

    def norm(self, e=1):
        """Norm down to the subfield of degree e over the prime field."""
        d = self.field.d
        if d % e:
            raise BadSubfield(f"{e} does not divide {d}")
        result = self.field.one()
        a = self
        for _ in range(d // e):
            result = result * a
            a = a.frobenius(e)
        return result

    def __eq__(self, other):
        return (isinstance(other, FqElement)
                and self.coeffs == other.coeffs
                and self.field == other.field)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Fq({self.field.p}^{self.field.d}){list(self.coeffs)}"


def ff_make(p, d, cap=DEFAULT_FIELD_CAP):
    return FiniteField(p, d, cap=cap)


# ---------------------------------------------------------------------------
# truncated unramified local rings

class TruncatedLocalRing:
    """(Z/p^n)[x]/(F), F the canonical field modulus read mod p^n.

    Models the ring of integers of the unramified degree-d extension
    truncated at p-adic precision n.  Carries the canonical Frobenius
    lift: the unique root of F congruent to x^p mod p, found by Newton
    iteration.
    """

    def __init__(self, p, n, d, cap=DEFAULT_FIELD_CAP):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if n < 1:
            raise InvalidConfig("precision must be >= 1")
        if p**d > cap:
            raise CapExceeded(f"residue field size {p}^{d} exceeds cap {cap}")
        self.p = p
        self.n = n
        self.d = d
        self.pn = p**n
        self.residue_field = FiniteField(p, d, cap=cap)
        self.modulus_lift = tuple(c % self.pn for c in self.residue_field.modulus)
        self.frobenius_image = self._lift_frobenius()
        self._sigma_powers = self._sigma_tables()

    # -- element constructors ------------------------------------------------
    def element(self, coeffs):
        coeffs = tuple(c % self.pn for c in coeffs)
        if len(coeffs) < self.d:
            coeffs = coeffs + (0,) * (self.d - len(coeffs))
        if len(coeffs) != self.d:
            raise ValueError("too many coefficients")
        return LocalRingElement(self, coeffs)

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((1,))

    def gen(self):
        if self.d == 1:
            return self.element((1,))
        return self.element((0, 1))

    def from_int(self, k):
        return self.element((k % self.pn,))

    def elements(self):
        for t in itertools.product(range(self.pn), repeat=self.d):
            yield LocalRingElement(self, t)

    def units(self):
        for a in self.elements():
            if a.is_unit():
                yield a

    def size(self):
        return self.pn**self.d

    # -- raw tuple arithmetic -------------------------------------------------
    def _add(self, a, b):
        return tuple((x + y) % self.pn for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.pn for x in a)

    def _mul(self, a, b):
        r = _poly_mod(_poly_mul(a, b, self.pn), self.modulus_lift, self.pn)
        return r + (0,) * (self.d - len(r))

    def _inv(self, a):
        """Invert a unit by lifting the residue-field inverse Newton-style."""
        red = self.residue_field.element(a)
        if red.is_zero():
            raise NotInvertible("not a unit in the truncated local ring")
        z = red.inverse().coeffs
        one = (1,) + (0,) * (self.d - 1)
        # z <- z(2 - az) doubles the number of correct p-adic digits
        for _ in range(max(1, self.n.bit_length() + 1)):
            az = self._mul(a, z)
            err = tuple((x - y) % self.pn for x, y in zip(one, az))
            if not any(err):
                break
            two_minus = tuple((2 * o - x) % self.pn for o, x in zip(one, az))
            z = self._mul(z, two_minus)
        return z

    def _eval_poly(self, coeffs, y):
        """Evaluate a Z/p^n-coefficient polynomial at ring element y (tuple)."""
        acc = (0,) * self.d
        for c in reversed(coeffs):
            acc = self._mul(acc, y)
            acc = tuple((v + (c if i == 0 else 0)) % self.pn
                        for i, v in enumerate(acc))
        return acc

    def _lift_frobenius(self):
        if self.d == 1:
            return self.one()
        xp = self._eval_poly((0,) * self.p + (1,), self.gen().coeffs)
        fprime = tuple((i * c) % self.pn
                       for i, c in enumerate(self.modulus_lift))[1:]
        y = xp
        for _ in range(max(1, self.n.bit_length() + 1)):
            fy = self._eval_poly(self.modulus_lift, y)
            if not any(fy):
                break
            inv = self._inv(self._eval_poly(fprime, y))
            step = self._mul(fy, inv)
            y = tuple((a - b) % self.pn for a, b in zip(y, step))
        if any(self._eval_poly(self.modulus_lift, y)):
            raise ArithmeticError("Newton iteration failed to lift Frobenius")
        return LocalRingElement(self, y)

    def _sigma_tables(self):
        """Powers of the basis image under each sigma^e, e = 0..d-1."""
        tables = []
        y = self.gen().coeffs
        for _ in range(self.d):
            powers = []
            acc = (1,) + (0,) * (self.d - 1)
            for _ in range(self.d):
                powers.append(acc)
                acc = self._mul(acc, y)
            tables.append(powers)
            y = self._apply_sigma_once(y)
        # sigma^d must return the generator
        if self._apply_sigma_once(tables[-1][1] if self.d > 1 else (1,)) != \
                self.gen().coeffs:
            raise ArithmeticError("Frobenius lift does not have order d")
        return tables

    def _apply_sigma_once(self, a):
        y = self.frobenius_image.coeffs
        acc = (0,) * self.d
        ypow = (1,) + (0,) * (self.d - 1)
        for c in a:
            if c:
                acc = self._add(acc, tuple((c * v) % self.pn for v in ypow))
            ypow = self._mul(ypow, y)
        return acc

    def _sigma(self, a, e=1):
        e %= self.d
        if e == 0:
            return a
        powers = self._sigma_powers[e]
        acc = (0,) * self.d
        for c, yp in zip(a, powers):
            if c:
                acc = self._add(acc, tuple((c * v) % self.pn for v in yp))
        return acc

    def reduce_mod_p(self, a):
        return self.residue_field.element(a.coeffs)

    def __eq__(self, other):
        return (isinstance(other, TruncatedLocalRing)
                and (self.p, self.n, self.d) == (other.p, other.n, other.d))

    def __hash__(self):
        return hash(("TruncatedLocalRing", self.p, self.n, self.d))

    def __repr__(self):
        return f"TruncatedLocalRing(p={self.p}, n={self.n}, d={self.d})"


class LocalRingElement:
    """Element of a TruncatedLocalRing, as d residues mod p^n."""

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs
        self._hash = hash((ring.p, ring.n, ring.d, coeffs))

    def __add__(self, other):
        return LocalRingElement(self.ring, self.ring._add(self.coeffs, other.coeffs))

    def __neg__(self):
        return LocalRingElement(self.ring, self.ring._neg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return LocalRingElement(self.ring, self.ring._mul(self.coeffs, other.coeffs))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def is_unit(self):
        return any(c % self.ring.p for c in self.coeffs)

    def valuation(self):
        """p-adic valuation in {0,..,n}; n exactly for the zero element."""
        v = 0
        p, n = self.ring.p, self.ring.n
        coeffs = self.coeffs
        while v < n and all(c % p**(v + 1) == 0 for c in coeffs):
            v += 1
        return v

    def inverse(self):
        return LocalRingElement(self.ring, self.ring._inv(self.coeffs))

    def __truediv__(self, other):
        return self * other.inverse()

    def divide_exact_p_power(self, v):
        """Divide by p^v; valid only when every coefficient is divisible.

        The quotient is the canonical representative with coefficients
        coeff // p^v; multiplying back by p^v recovers the element
        exactly at the ring's full precision.
        """
        pv = self.ring.p**v
        if any(c % pv for c in self.coeffs):
            raise NotInvertible(f"element is not divisible by p^{v}")
        return LocalRingElement(self.ring, tuple(c // pv for c in self.coeffs))

    def unit_part(self):
        """(u, v) with self = p^v * u and u either a unit or zero."""
        v = self.valuation()
        if v >= self.ring.n:
            return self, v
        return self.divide_exact_p_power(v), v

    def sigma(self, e=1):
        return LocalRingElement(self.ring, self.ring._sigma(self.coeffs, e))

    def __eq__(self, other):
        return (isinstance(other, LocalRingElement)
                and self.coeffs == other.coeffs
                and self.ring == other.ring)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"R(p={self.ring.p},n={self.ring.n},d={self.ring.d}){list(self.coeffs)}"


def ring_make(p, n, d, cap=DEFAULT_FIELD_CAP):
    return TruncatedLocalRing(p, n, d, cap=cap)


# ---------------------------------------------------------------------------
# matrices

class Mat:
    """Square matrix over a FiniteField or TruncatedLocalRing.

    ``offset`` is a global p-power exponent e: the matrix represents
    p^e times the stored integral entries, which lets diag(p^-1, 1)-type
    group elements live at finite precision.  Over finite fields the
    offset must stay 0.
    """

    __slots__ = ("ring", "size", "rows", "offset", "_hash")

    def __init__(self, ring, rows, offset=0):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.size = len(self.rows)
        self.offset = offset
        self._hash = hash((self.rows, offset))

    @classmethod
    def identity(cls, ring, size):
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(size)]
                          for i in range(size)])

    @classmethod
    def from_ints(cls, ring, rows, offset=0):
        return cls(ring, [[ring.from_int(c) for c in r] for r in rows], offset)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        s = self.size
        rows = []
        for i in range(s):
            row = []
            for j in range(s):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, s):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(row)
        return Mat(self.ring, rows, self.offset + other.offset)

    def __add__(self, other):
        if self.offset != other.offset:
            raise ValueError("cannot add matrices with different offsets")
        return Mat(self.ring,
                   [[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)],
                   self.offset)

    def scale(self, c):
        return Mat(self.ring, [[c * a for a in r] for r in self.rows], self.offset)

    def det(self):
        """Determinant of the integral part, by cofactor expansion."""
        return self._det(self.rows)

    def _det(self, rows):
        s = len(rows)
        if s == 1:
            return rows[0][0]
        acc = None
        for j in range(s):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * self._det(minor)
            if j % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    def is_invertible(self):
        d = self.det()
        if isinstance(d, LocalRingElement):
            return d.is_unit()
        return not d.is_zero()

    def inverse(self):
        d = self.det()
        if isinstance(d, LocalRingElement):
            if not d.is_unit():
                raise NotInvertible("determinant is not a unit")
        elif d.is_zero():
            raise NotInvertible("determinant is zero")
        dinv = d.inverse()
        s = self.size
        if s == 1:
            return Mat(self.ring, [[dinv]], -self.offset)
        cof = []
        for i in range(s):
            row = []
            for j in range(s):
                minor = [r[:i] + r[i + 1:]
                         for k, r in enumerate(self.rows) if k != j]
                term = self._det(minor) * dinv
                if (i + j) % 2:
                    term = -term
                row.append(term)
            cof.append(row)
        return Mat(self.ring, cof, -self.offset)

    def sigma(self, e=1):
        """Entry-wise Frobenius (field p-power map or ring lift)."""
        if isinstance(self.rows[0][0], LocalRingElement):
            return Mat(self.ring, [[a.sigma(e) for a in r] for r in self.rows],
                       self.offset)
        return Mat(self.ring, [[a.frobenius(e) for a in r] for r in self.rows],
                   self.offset)

    def transpose(self):
        return Mat(self.ring, list(zip(*self.rows)), self.offset)

    def coeff_key(self):
        """Total-order key: offset, then entry coefficient tuples row-major."""
        return (self.offset, tuple(a.coeffs for r in self.rows for a in r))

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.offset == other.offset)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = "; ".join(",".join(str(list(a.coeffs)) for a in r)
                         for r in self.rows)
        off = f" * p^{self.offset}" if self.offset else ""
        return f"Mat[{body}]{off}"


# ---------------------------------------------------------------------------
# Laurent polynomials in a formal square root of q

class HalfPowerLaurent:
    """a + b*v with v a formal square root of the integer q.

    Negative powers of v are folded in via v^-1 = v/q, so (a, b) with
    rational a, b is a normal form.  The substitution v -> sqrt(q) is
    never performed, even when q is a perfect square.
    """

    __slots__ = ("q", "a", "b")

    def __init__(self, q, a=0, b=0):
        self.q = q
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def v_power(cls, q, k):
        """The monomial v^k in normal form."""
        if k % 2 == 0:
            return cls(q, Fraction(q)**(k // 2), 0)
        return cls(q, 0, Fraction(q)**((k - 1) // 2))

    @classmethod
    def one(cls, q):
        return cls(q, 1, 0)

    def _check(self, other):
        if self.q != other.q:
            raise ValueError("mixed q in half-power arithmetic")

    def __add__(self, other):
        if isinstance(other, int):
            other = HalfPowerLaurent(self.q, other)
        self._check(other)
        return HalfPowerLaurent(self.q, self.a + other.a, self.b + other.b)

    def __neg__(self):
        return HalfPowerLaurent(self.q, -self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, int):
            other = HalfPowerLaurent(self.q, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HalfPowerLaurent(self.q, self.a * other, self.b * other)
        self._check(other)
        return HalfPowerLaurent(
            self.q,
            self.a * other.a + self.b * other.b * self.q,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self):
        # (a + bv)(a - bv) = a^2 - b^2 q
        nrm = self.a * self.a - self.b * self.b * self.q
        if nrm == 0:
            raise NotInvertible("not invertible in Q[v]/(v^2 - q)")
        return HalfPowerLaurent(self.q, self.a / nrm, -self.b / nrm)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = HalfPowerLaurent(self.q, other)
        return (isinstance(other, HalfPowerLaurent)
                and (self.q, self.a, self.b) == (other.q, other.a, other.b))

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __repr__(self):
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}*v" if self.b != 1 else "v")
        return " + ".join(parts) if parts else "0"

    def as_string(self):
        return repr(self)
