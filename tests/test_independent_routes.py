"""Exact arithmetic, linear algebra and univariate division against
sympy, an independent implementation: Poly arithmetic and substitution,
the shared sparse elimination, the weight solver, gcd and remainder,
Sylvester determinants, rational roots, and the fiber count and the
Jacobian determinant of the root-splitting map.
sympy is a test dependency only; without it this module is skipped."""

import random
from fractions import Fraction

import pytest

from singkit.defspace import (
    DEGREE_LIMIT,
    _rational_roots,
    build,
    fiber_count,
    jacobian_identity,
    reduce_mod_monic,
)
from singkit.localring import quasi_homogeneous_weights
from singkit.poly import Poly, _cleared, _reduce_into, discriminant, resultant, univariate_gcd

sympy = pytest.importorskip("sympy")
from sympy.solvers.simplex import InfeasibleLPError, lpmax  # noqa: E402


def S(p: Poly):
    """p as a sympy expression."""
    return sympy.sympify(str(p).replace("^", "**"),
                         locals={v: sympy.Symbol(v) for v in p.vars})


def _random_poly(vars, rng, degree, main="w", monic=False):
    """A polynomial of exact degree `degree` in `main`: a nonzero constant
    (1 when monic) leads, and each lower coefficient is a small rational
    plus, at random, small multiples of the other variables."""
    i = vars.index(main)
    terms = {}
    for k in range(degree):
        for j in range(len(vars)):
            e = [0] * len(vars)
            e[i] = k
            if j != i:
                if rng.random() < 0.5:
                    continue
                e[j] = 1
            terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    lead = tuple(degree if j == i else 0 for j in range(len(vars)))
    terms[lead] = 1 if monic else Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))
    return Poly(vars, terms)


def _mixed_poly(vars, rng):
    """Up to five terms of degree at most 3 whose coefficients are ints,
    integral Fractions such as 6/3, and Fractions such as 1/2, in turn."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 3 if i == 0 else 1) for i in range(len(vars)))
        d = rng.choice((2, 3))
        terms[e] = rng.choice((rng.randint(-5, 5), Fraction(d * rng.randint(-3, 3), d),
                               Fraction(rng.randint(-5, 5), d)))
    return Poly(vars, terms)


def _canonical(p: Poly) -> bool:
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in p.terms.values())


def test_arithmetic_and_substitution_match_sympy():
    rng = random.Random(29)
    amb = ("x", "y", "z")
    seen = {"int": 0, "non-integral": 0}
    for _ in range(150):
        a, b = _mixed_poly(amb, rng), _mixed_poly(amb, rng)
        k = rng.randint(0, 4)
        # (a + b) - a cancels a's fractional parts against b's ints
        got = {"+": a + b, "-": a - b, "+-": (a + b) - a, "*": a * b, "**": a ** k}
        want = {"+": S(a) + S(b), "-": S(a) - S(b), "+-": S(b), "*": S(a) * S(b),
                "**": S(a) ** k}
        images = {"x": _mixed_poly(amb, rng), "y": rng.choice((2, Fraction(4, 2), Fraction(-1, 2)))}
        got["subs"] = a.substitute(images)
        want["subs"] = S(a).subs({sympy.Symbol(v): S(i) if isinstance(i, Poly) else i
                                  for v, i in images.items()}, simultaneous=True)
        if not b.is_zero():
            got["div"] = (a * b).exact_divide(b)
            want["div"] = S(a)
        for op, p in got.items():
            assert sympy.expand(S(p) - want[op]) == 0, (op, a, b)
            assert _canonical(p), (op, p.terms)
            for c in p.terms.values():
                seen["int" if type(c) is int else "non-integral"] += 1
    assert min(seen.values()) >= 100, seen


def test_shared_elimination_rank_matches_sympy():
    rng = random.Random(71)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [{c: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for c in range(ncols) if rng.random() < 0.4} for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:  # a combination of two rows
            a, b = rows[0], rows[1]
            rows.append({c: 2 * a.get(c, 0) - b.get(c, 0) for c in set(a) | set(b)})
        pivots = {}
        for row in rows:
            _reduce_into(pivots, {c: v for c, v in row.items() if v})
        dense = sympy.Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
        assert len(pivots) == dense.rank(), rows


def _lp_max_min_weight(exps, n):
    """max t over w with <e, w> = 1 for every e in exps, w_i >= t and
    0 <= t <= 1, or None when that is infeasible: positive exactly when
    positive weights exist.  sympy solves the equations (linsolve), and
    lpmax the inequalities in nonnegative variables, the free parameters
    u written as p - q: in sympy 1.14, lpmax given the equations, or free
    variables, returns points that break its constraints on some of these
    systems, or calls them infeasible."""
    w = sympy.symbols(f"w0:{n}")
    t = sympy.Symbol("t")
    solutions = sympy.linsolve([sum(x * wi for x, wi in zip(e, w)) - 1 for e in exps], w)
    if solutions == sympy.EmptySet:
        return None
    (point,) = solutions
    free = set().union(*(s.free_symbols for s in point))
    if not free:  # one solution: the LP's only point
        return min(min(point), 1) if min(point) >= 0 else None
    split = {u: sympy.Symbol(f"p_{u}") - sympy.Symbol(f"q_{u}") for u in free}
    constraints = [s.subs(split) >= t for s in point] + [t >= 0, t <= 1]
    constraints += [x >= 0 for d in split.values() for x in d.free_symbols]
    if sympy.false in constraints:
        return None
    try:
        return lpmax(t, [c for c in constraints if c is not sympy.true])[0]
    except InfeasibleLPError:
        return None


def test_weights_match_sympy_lp():
    """quasi_homogeneous_weights finds weights exactly when sympy's LP
    finds a positive least weight, and the weights it finds give every
    exponent the same degree."""
    rng = random.Random(5)
    seen = {"free, weights": 0, "free, none": 0, "none": 0}
    for _ in range(90):
        n = rng.randint(1, 4)
        vars = tuple(f"x{i}" for i in range(n))
        exps = {tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(n))
                for _ in range(rng.randint(1, 4))}
        found = quasi_homogeneous_weights(Poly(vars, {e: 1 for e in exps}))
        best = _lp_max_min_weight(exps, n)
        assert (found is not None) == (best is not None and best > 0), exps
        free = sympy.Matrix([list(e) for e in exps]).rank() < n
        if found is None:
            seen["free, none" if free else "none"] += 1
            continue
        weights, degree = found
        assert all(x > 0 for x in weights)
        assert all(sum(x * y for x, y in zip(e, weights)) == degree for e in exps)
        seen["free, weights"] += free
    # Fourier-Motzkin runs when the exponents leave columns free
    assert min(seen.values()) >= 10, seen


def _sparse_poly(vars, rng, degree):
    """w^degree, times a small rational, plus one to three lower powers of
    w: two of them often have remainders whose degrees drop by 2 or more."""
    w = Poly.var(vars, "w")
    p = Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 2)) * w ** degree
    for k in rng.sample(range(degree), min(degree, rng.randint(1, 3))):
        p = p + Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3)) * w ** k
    return p


def _has_gap(p, q, w):
    """Some remainder of Euclid's sequence from (p, q) is 2 or more degrees
    below the one before it: an abnormal subresultant sequence."""
    a, b = sympy.Poly(p, w), sympy.Poly(q, w)
    while not b.is_zero:
        a, b = b, a.rem(b)
        if not b.is_zero and a.degree() - b.degree() >= 2:
            return True
    return False


def test_gcd_and_remainder_match_sympy():
    rng = random.Random(9)
    w = sympy.Symbol("w")
    lam = sympy.Symbol("lam")
    seen = {"gap": 0, "constant": 0, "zero": 0, "lower degree": 0}
    for i in range(200):
        amb = ("w",)
        make = _sparse_poly if i % 2 else _random_poly
        common = _random_poly(amb, rng, rng.randint(0, 3))
        p = common * make(amb, rng, rng.randint(0, 9))
        q = common * make(amb, rng, rng.randint(1, 9))
        if i % 10 == 3:
            q = Poly.const(amb, rng.choice((-2, 1, Fraction(3, 4))))
            seen["constant"] += 1
        elif i % 10 == 7:
            p, q = (Poly.zero(amb), q) if i % 20 == 7 else (p, Poly.zero(amb))
            seen["zero"] += 1
        elif _has_gap(S(p), S(q), w):
            seen["gap"] += 1
        g = univariate_gcd(p, q, "w")
        want = sympy.Poly(sympy.gcd(S(p), S(q)), w).monic().as_expr()
        assert sympy.expand(S(g) - want) == 0, (p, q)

        amb = ("lam", "b1", "b0")
        mod = _random_poly(amb, rng, rng.randint(1, 4), main="lam", monic=True)
        p = _random_poly(amb, rng, rng.randint(0, 8), main="lam")
        seen["lower degree"] += p.degree_in("lam") < mod.degree_in("lam")
        r = reduce_mod_monic(p, mod, "lam")
        assert sympy.expand(S(r) - sympy.rem(S(p), S(mod), lam)) == 0, (p, mod)
    assert min(seen.values()) >= 20, seen


def _sylvester_det(p, q, x):
    """det of the Sylvester matrix of p and q in x, built here from their
    coefficient lists; sympy's resultant is not used (it gives -8 for
    w - 2 and w^3, where this determinant is 8)."""
    pc, qc = sympy.Poly(p, x).all_coeffs(), sympy.Poly(q, x).all_coeffs()
    dp, dq = len(pc) - 1, len(qc) - 1
    rows = [[0] * i + pc + [0] * (dq - 1 - i) for i in range(dq)]
    rows += [[0] * i + qc + [0] * (dp - 1 - i) for i in range(dp)]
    return sympy.Matrix(rows).det()


def test_resultant_and_discriminant_match_sylvester_determinants():
    rng = random.Random(13)
    w = sympy.Symbol("w")
    amb = ("w", "y")
    for _ in range(30):
        p = _random_poly(amb, rng, rng.randint(1, 3))
        q = _random_poly(amb, rng, rng.randint(1, 3))
        assert sympy.expand(S(resultant(p, q, "w")) - _sylvester_det(S(p), S(q), w)) == 0, (p, q)
        d = p.degree_in("w")
        want = (-1) ** (d * (d - 1) // 2) * _sylvester_det(S(p), sympy.diff(S(p), w), w)
        lead = sympy.Poly(S(p), w).LC()
        assert sympy.cancel(S(discriminant(p, "w")) - want / lead) == 0, p


def test_rational_roots_match_sympy():
    rng = random.Random(17)
    w = sympy.Symbol("w")
    for _ in range(60):
        f = Poly.const(("w",), Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        x = Poly.var(("w",), "w")
        for _ in range(rng.randint(0, 4)):
            f = f * (x * rng.randint(1, 4) - rng.randint(-6, 6))
        if rng.random() < 0.5:  # a factor without rational roots
            f = f * (x ** 2 + rng.randint(1, 3))
        if f.degree_in("w") < 1:
            continue
        want = sorted(r for r in sympy.roots(sympy.Poly(S(f), w)) if r.is_rational)
        ints = _cleared([f.coefficient_in("w", k).constant_term()
                         for k in range(f.degree_in("w") + 1)])[1]
        assert _rational_roots(ints, "w") == [Fraction(int(r.p), int(r.q)) for r in want], f


@pytest.mark.parametrize("n", range(2, DEGREE_LIMIT + 1))
def test_fiber_count_matches_sympy(n):
    # fiber_count's int sequence against sympy's discriminant, gcd and
    # roots of P = w^n + b_{n-2} w^{n-2} + ... + b_0, for seeded b
    # integral, rational with denominators up to 7, and made from rational
    # roots with repeats (numerators and denominators up to 2, so that L P's
    # end coefficients stay inside ROOT_SEARCH_LIMIT up to n = 24)
    rng = random.Random(3200 + n)
    w = sympy.Symbol("w")
    m = build(n)
    for kind in ("integral", "rational", "roots"):
        if kind == "integral":
            b = [rng.randint(-20, 20) for _ in range(n - 1)]
        elif kind == "rational":
            b = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n - 1)]
        else:
            pool = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            roots = [rng.choice(pool) for _ in range(n - 1)]
            roots.append(-sum(roots))
            product = sympy.prod([w - sympy.Rational(r.numerator, r.denominator) for r in roots])
            b = [Fraction(int(c.p), int(c.q)) for c in sympy.Poly(product, w).all_coeffs()[2:]]
        fib = fiber_count(m, b)
        big_p = w ** n + sum(sympy.Rational(c.numerator, c.denominator) * w ** (n - 2 - i)
                             for i, c in enumerate(map(Fraction, b)))
        disc = sympy.discriminant(big_p, w)
        assert fib.discriminant == Fraction(int(disc.p), int(disc.q)), (kind, b)
        assert fib.count == n - sympy.degree(sympy.gcd(big_p, sympy.diff(big_p, w)), w), (kind, b)
        want = sorted(r for r in sympy.roots(sympy.Poly(big_p, w)) if r.is_rational)
        assert [p.lam for p in fib.points] == [Fraction(int(r.p), int(r.q)) for r in want], (kind, b)
        if kind == "roots":
            assert [p.lam for p in fib.points] == sorted(set(roots)), roots


@pytest.mark.parametrize("n", range(2, 11))
def test_jacobian_determinant_matches_sympy(n):
    m = build(n)
    comps = sympy.Matrix([S(c) for c in m.components])
    names = sympy.symbols(("lam",) + m.t_names)
    want = comps.jacobian(names).det()
    assert sympy.expand(want - S(jacobian_identity(m).determinant)) == 0
