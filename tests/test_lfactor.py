import itertools
from fractions import Fraction
from math import gcd

import pytest
import sympy

from glnlab.errors import RankMismatch, ZeroEntry
from glnlab.lfactor import (
    DualRep,
    SatakeParameter,
    _basis_action,
    _cyclotomic,
    base_change_factor,
    conjugate_orbit_product,
    l_factor,
)

X = sympy.Symbol("X")
alpha, beta, gamma, delta = sympy.symbols("alpha beta gamma delta")


def entry(v):
    """A sympy symbol, rational or monomial as a parameter entry."""
    v = sympy.sympify(v)
    if v.is_Symbol:
        return v.name
    c, rest = v.as_coeff_Mul()
    return Fraction(int(c.p), int(c.q)), tuple(sorted(
        (s.name, int(e)) for s, e in rest.as_powers_dict().items()
        if s != 1))


def param(vals, q=3):
    return SatakeParameter([entry(v) for v in vals], q)


def mono(m):
    """A monomial (coefficient, ((name, exponent), ...)) as sympy."""
    c, powers = m
    return sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
        *[sympy.Symbol(name)**e for name, e in powers])


def terms_expr(terms, names):
    """Factor terms {(power of X, exponents over names): c} as sympy."""
    return sympy.Add(*[mono((c, tuple(zip(names, e)))) * X**k
                       for (k, e), c in terms.items()])


def expr(fac):
    return terms_expr(fac.terms, fac.names)


def rep_apply(rho, t, t2=None):
    """Eigenvalue multiset of rho(t) for split parameters (trivial
    Galois twist): the weights of the basis action."""
    return [mono(w) for w, _ in _basis_action(rho, t, t2)]


def values(t):
    return [mono(v) for v in t.values]


def sympy_orbit_product(alpha, d):
    """Reference for conjugate_orbit_product: prod_{j<d}(1 - zeta_d^j
    alpha X) expanded over the d-th roots of unity by sympy."""
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


# reference: rho(diag(t) P_sigma) as an explicit sympy matrix -----------------

def perm_matrix(perm):
    n = len(perm)
    return sympy.Matrix(n, n, lambda i, j: 1 if perm[i] == j else 0)


def sym_power_matrix(a, k):
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


def wedge_power_matrix(a, k):
    """Induced matrix of a on the k-th exterior power: k x k minors."""
    n = a.shape[0]
    subsets = list(itertools.combinations(range(n), k))
    return sympy.Matrix(
        [[a[rows, cols].det() for cols in subsets] for rows in subsets])


def rep_matrix(rho, t, t2, action):
    a = sympy.diag(*values(t)) * perm_matrix(action)
    if rho.kind == "standard":
        return a
    if rho.kind == "dual":
        return a.inv().T
    if rho.kind == "sym":
        return sym_power_matrix(a, rho.k)
    if rho.kind == "wedge":
        return wedge_power_matrix(a, rho.k)
    return sympy.Matrix(sympy.kronecker_product(a, sympy.diag(*values(t2))))


def monomial_cycles(m):
    """(c_C, |C|) for each cycle C of a monomial matrix m."""
    target = {}
    for j in range(m.shape[1]):
        (i,) = [i for i in range(m.shape[0]) if m[i, j] != 0]
        target[j] = (i, m[i, j])
    seen, out = set(), []
    for start in target:
        c, length, j = sympy.Integer(1), 0, start
        while j not in seen:
            seen.add(j)
            j, w = target[j]
            c *= w
            length += 1
        if length:
            out.append((c, length))
    return out


def menu(n):
    """Every menu representation that makes sense at rank n."""
    return ([DualRep("standard"), DualRep("dual"), DualRep("tensor")]
            + [DualRep("sym", k) for k in range(4)]
            + [DualRep("wedge", k) for k in range(n + 1)])


def twisted_cases():
    partner = param((gamma, delta))
    for n in (1, 2, 3):
        t = param((alpha, beta, sympy.Rational(2, 3))[:n])
        for action in itertools.permutations(range(n)):
            for rho in menu(n):
                yield rho, t, partner if rho.kind == "tensor" else None, action


class TestParameters:
    def test_zero_rejected(self):
        with pytest.raises(ZeroEntry):
            param((alpha, 0))


class TestRepApply:
    def test_standard(self):
        assert rep_apply(DualRep("standard"), param((alpha, beta))) \
            == [alpha, beta]

    def test_dual(self):
        out = rep_apply(DualRep("dual"), param((alpha, beta)))
        assert [sympy.simplify(x) for x in out] == [1 / alpha, 1 / beta]

    def test_wedge2(self):
        assert rep_apply(DualRep("wedge", 2), param((alpha, beta))) \
            == [alpha * beta]

    def test_sym2(self):
        assert rep_apply(DualRep("sym", 2), param((alpha, beta))) \
            == [alpha**2, alpha * beta, beta**2]

    def test_tensor(self):
        out = rep_apply(DualRep("tensor"), param((alpha, beta)),
                        param((gamma, delta)))
        assert out == [alpha * gamma, alpha * delta,
                       beta * gamma, beta * delta]

    def test_tensor_needs_partner(self):
        with pytest.raises(RankMismatch):
            rep_apply(DualRep("tensor"), param((alpha,)))

    def test_wedge_rank_bound(self):
        with pytest.raises(RankMismatch):
            rep_apply(DualRep("wedge", 3), param((alpha, beta)))

    def test_dimensions(self):
        t3 = param((alpha, beta, gamma))
        for rho in [DualRep("standard"), DualRep("dual"), DualRep("sym", 2),
                    DualRep("sym", 3), DualRep("wedge", 2),
                    DualRep("wedge", 3)]:
            assert len(rep_apply(rho, t3)) == rho.dimension(3)


class TestLFactor:
    def test_gl1_standard(self):
        f = l_factor(DualRep("standard"), param((alpha,)))
        assert expr(f) == sympy.expand(1 - alpha * X)

    def test_trivial_rep(self):
        f = l_factor(DualRep.trivial(), param((alpha, beta)))
        assert expr(f) == 1 - X

    def test_gl2_standard(self):
        f = l_factor(DualRep("standard"), param((alpha, beta)))
        assert expr(f) == sympy.expand((1 - alpha * X) * (1 - beta * X))
        assert f.degree() == 2

    def test_constant_term_one(self):
        for rho in [DualRep("standard"), DualRep("sym", 2), DualRep("wedge", 2)]:
            f = l_factor(rho, param((alpha, beta, gamma)))
            assert expr(f).subs(X, 0) == 1

    def test_degree_equals_dimension(self):
        t3 = param((alpha, beta, gamma))
        for rho in [DualRep("standard"), DualRep("dual"), DualRep("sym", 2),
                    DualRep("wedge", 2), DualRep("wedge", 3)]:
            assert l_factor(rho, t3).degree() == rho.dimension(3)

    def test_weyl_invariance(self):
        t = (alpha, beta, gamma)
        for rho in [DualRep("standard"), DualRep("sym", 2), DualRep("wedge", 2)]:
            base = l_factor(rho, param(t))
            for perm in itertools.permutations(t):
                assert l_factor(rho, param(perm)) == base

    def test_weyl_conjugation_invariance(self):
        # the factor depends on the class of t sigma alone: conjugating by
        # w in S_n sends t to t'_i = t_w(i) and sigma to w^-1 sigma w,
        # and changes neither l_factor nor base change
        changed = []
        for rho, t, t2, action in twisted_cases():
            want = [l_factor(rho, t, t2=t2, action=action)] + [
                base_change_factor(rho, t, d, action=action, t2=t2)
                for d in range(1, 5)]
            for w in itertools.permutations(range(t.n)):
                w_inv = [w.index(i) for i in range(t.n)]
                t_w = SatakeParameter([t.values[i] for i in w], t.q)
                action_w = tuple(w_inv[action[i]] for i in w)
                got = [l_factor(rho, t_w, t2=t2, action=action_w)] + [
                    base_change_factor(rho, t_w, d, action=action_w, t2=t2)
                    for d in range(1, 5)]
                if got != want:
                    changed.append((rho, t, action, w))
        assert changed == []

    def test_twisted_gl2_swap(self):
        # det(1 - diag(alpha, beta) P X) with P the coordinate swap
        f = l_factor(DualRep("standard"), param((alpha, beta)),
                     action=(1, 0))
        assert expr(f) == sympy.expand(1 - alpha * beta * X**2)

    def test_twisted_wedge_gl2_swap(self):
        # wedge^2 of the swap twist: determinant picks up the sign
        f = l_factor(DualRep("wedge", 2), param((alpha, beta)), action=(1, 0))
        assert expr(f) == sympy.expand(1 + alpha * beta * X)

    def test_twisted_matches_trivial_when_identity(self):
        f = l_factor(DualRep("sym", 2), param((alpha, beta)), action=(0, 1))
        g = l_factor(DualRep("sym", 2), param((alpha, beta)))
        assert f == g


class TestMatrixOracle:
    """l_factor against det(1 - rho(t sigma) X) of the explicit matrix,
    for every sigma in S_n (n <= 3) and every menu representation."""

    def test_determinant_of_explicit_matrix(self):
        mismatches = []
        for rho, t, t2, action in twisted_cases():
            m = rep_matrix(rho, t, t2, action)
            want = sympy.expand((sympy.eye(m.shape[0]) - X * m).det())
            got = expr(l_factor(rho, t, t2=t2, action=action))
            if str(got) != str(want):
                mismatches.append((rho, t, action))
        assert mismatches == []

    def test_base_change_is_determinant_of_matrix_power(self):
        # (t sigma)^d = (sigma^d, norm of t), so base change of degree d
        # is det(1 - rho(t sigma)^d X^d)
        mismatches = []
        for rho, t, t2, action in twisted_cases():
            m = rep_matrix(rho, t, t2, action)
            for d in (2, 3):
                want = sympy.expand(
                    (sympy.eye(m.shape[0]) - X**d * m**d).det())
                got = expr(base_change_factor(rho, t, d, action=action,
                                              t2=t2))
                if str(got) != str(want):
                    mismatches.append((rho, t, action, d))
        assert mismatches == []

    def test_base_change_splits_each_cycle_by_gcd(self):
        # (rho(t sigma))^d splits a cycle C into g = gcd(|C|, d) cycles
        # of length |C|/g, each with product c_C^(d/g)
        mismatches = []
        for rho, t, t2, action in twisted_cases():
            cycles = monomial_cycles(rep_matrix(rho, t, t2, action))
            for d in range(1, 5):
                want = sympy.expand(sympy.Mul(*[
                    (1 - c**(d // g) * X**(d * size // g))**g
                    for c, size in cycles for g in [gcd(size, d)]]))
                got = expr(base_change_factor(rho, t, d, action=action,
                                              t2=t2))
                if str(got) != str(want):
                    mismatches.append((rho, t, action, d))
        assert mismatches == []


class TestBaseChange:
    def test_d1_is_plain(self):
        t = param((alpha, beta))
        assert base_change_factor(DualRep("standard"), t, 1) \
            == l_factor(DualRep("standard"), t)

    def test_gl1_degree2(self):
        f = base_change_factor(DualRep("standard"), param((alpha,)), 2)
        assert expr(f) == sympy.expand(1 - alpha**2 * X**2)

    def test_tensor_norms_both_parameters(self):
        f = base_change_factor(DualRep("tensor"), param((alpha,)), 2,
                               t2=param((beta,)))
        assert expr(f) == sympy.expand(1 - alpha**2 * beta**2 * X**2)

    def test_trivial_rep_any_d(self):
        for d in (2, 3, 4):
            f = base_change_factor(DualRep.trivial(), param((alpha, beta)), d)
            assert expr(f) == 1 - X**d

    def test_conjugate_orbit_oracle(self):
        # prod over d-th roots of unity of (1 - zeta^j alpha X), in
        # Z[zeta]/(Phi_d), is 1 - alpha^d X^d
        for d in range(1, 9):
            assert conjugate_orbit_product("alpha", d) \
                == {(0, (0,)): 1, (d, (d,)): -1}

    def test_cyclotomic_matches_sympy(self):
        # the division over Z, by monic Phi_e, at every d up to 30
        x = sympy.Symbol("x")
        for d in range(1, 31):
            want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
            assert _cyclotomic(d) == [int(c) for c in reversed(want)], d

    def test_conjugate_orbit_product_matches_sympy(self):
        # sympy leaves cosines at d = 7, so each coefficient of the
        # difference is shown zero by its minimal polynomial
        z = sympy.Symbol("z")
        for a in (alpha, sympy.Rational(-2, 3)):
            names = [a.name] if a.is_Symbol else []
            gens = [X] + [a] * bool(names)
            for d in range(1, 9):
                got = terms_expr(conjugate_orbit_product(entry(a), d), names)
                diff = sympy.Poly(sympy.expand(
                    sympy_orbit_product(a, d) - got), *gens)
                assert all(sympy.minimal_polynomial(c, z) == z
                           for c in diff.coeffs()), (a, d)

    def test_swap_twist_base_change(self):
        # degree-2 norm of the swap-twisted parameter is split
        f = base_change_factor(DualRep("standard"), param((alpha, beta)), 2,
                               action=(1, 0))
        assert expr(f) == sympy.expand((1 - alpha * beta * X**2)**2)


class TestRankinSelberg:
    """The pairing factor is the factor of the tensor of the two standard
    representations, denominator prod(1 - alpha_i beta_j X)."""

    @staticmethod
    def pairing(t1, t2):
        return l_factor(DualRep("tensor"), t1, t2=t2)

    def test_rank_one(self):
        f = self.pairing(param((alpha,)), param((beta,)))
        assert expr(f) == sympy.expand(1 - alpha * beta * X)

    def test_trivial_right_reduces_to_standard(self):
        f = self.pairing(param((alpha, beta)), param((1,)))
        assert f == l_factor(DualRep("standard"), param((alpha, beta)))

    def test_gl2_gl2_degree_four(self):
        f = self.pairing(param((alpha, beta)), param((gamma, delta)))
        assert f.degree() == 4
        want = sympy.expand((1 - alpha * gamma * X) * (1 - alpha * delta * X)
                            * (1 - beta * gamma * X) * (1 - beta * delta * X))
        assert expr(f) == want


class TestChiTLinkage:
    def test_x_coefficient_matches_transform_character(self):
        from glnlab.hecke import HeckeElement, satake_transform
        from test_hecke import chi_t
        for p in (2, 3):
            v = sympy.Symbol("v")
            img = satake_transform(HeckeElement.basis((1, 0), p))
            character = chi_t(img, (alpha, beta))
            den = expr(l_factor(DualRep("standard"),
                                param((alpha, beta), q=p)))
            coeff_x = sympy.Poly(den, X).coeff_monomial((1,))
            assert sympy.expand(coeff_x + character / v) == 0
