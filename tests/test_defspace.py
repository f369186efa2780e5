import dataclasses
import random
import re
from fractions import Fraction

import pytest

from singkit import defspace, poly
from singkit.defspace import (
    DEGREE_LIMIT,
    apply_map,
    build,
    fiber_count,
    inverse_composition_reduces,
    inverse_t,
    jacobian_identity,
    ramification_check,
    reduce_mod_monic,
    verify_factor_identity,
)
from singkit.errors import ConfigError
from singkit.poly import Poly, _det, _det_bareiss, parse_polynomial


def test_build_small_cases():
    m2 = build(2)
    assert m2.b_names == ("b0",) and m2.t_names == ()
    assert [str(c) for c in m2.components] == ["-lam^2"]

    m3 = build(3)
    assert m3.b_names == ("b1", "b0") and m3.t_names == ("t0",)
    assert [str(c) for c in m3.components] == ["-lam^2 + t0", "-lam*t0"]

    m5 = build(5)
    assert [str(c) for c in m5.components] == [
        "-lam^2 + t2", "-lam*t2 + t1", "-lam*t1 + t0", "-lam*t0",
    ]


def test_build_rejects_degree_below_two():
    with pytest.raises(ConfigError, match="degree n must be an integer >= 2"):
        build(1)


def test_degree_is_bounded():
    assert build(DEGREE_LIMIT).n == DEGREE_LIMIT
    with pytest.raises(ConfigError, match=f"degree n = 60 too large \\(over {DEGREE_LIMIT}\\)"):
        build(60)


@pytest.mark.parametrize("n", range(2, DEGREE_LIMIT + 1))
def test_symbolic_identities(n):
    m = build(n)
    assert verify_factor_identity(m)
    jac = jacobian_identity(m)
    assert jac.matches
    assert jac.sign == (-1) ** (n - 1)
    assert inverse_composition_reduces(m)
    assert ramification_check(m)


@pytest.mark.parametrize("n", range(2, 13))
def test_jacobian_cofactor_expansion_agrees_with_bareiss(n):
    """jacobian_identity's determinant is `_det`, which expands along the
    column of each constant pivot it clears; fraction-free elimination is
    the reference."""
    m = build(n)
    rows = [[c.differentiate(v) for c in m.components] for v in ("lam",) + m.t_names]
    assert _det(rows) == _det_bareiss(rows) == jacobian_identity(m).determinant


def test_jacobian_identity_never_runs_bareiss(monkeypatch):
    # Bareiss fills in the Jacobian's bidiagonal block and takes seconds at
    # DEGREE_LIMIT; `_det` takes the block's n - 2 unit pivots instead
    def refuse(rows):
        raise AssertionError(f"_det_bareiss ran on a {len(rows)}x{len(rows)} matrix")

    monkeypatch.setattr(poly, "_det_bareiss", refuse)
    for n in range(2, DEGREE_LIMIT + 1):
        assert jacobian_identity(build(n)).matches, n


def test_identities_make_linear_numbers_of_products(monkeypatch):
    # a work count, not a wall clock: the determinant inside
    # jacobian_identity takes one product per unit pivot, and inverse_t one
    # per Horner step; a cofactor recursion, or a product per term of each
    # t_i, makes O(n^2) or more and fails at DEGREE_LIMIT
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    det_products = []
    det = defspace._det

    def counted_det(rows):
        start = len(products)
        out = det(rows)
        det_products.append(len(products) - start)
        return out

    monkeypatch.setattr(defspace, "_det", counted_det)
    for n in range(2, DEGREE_LIMIT + 1):
        m = build(n)
        det_products.clear()
        assert jacobian_identity(m).matches
        assert det_products[0] <= n, (n, det_products)
        products.clear()
        assert len(inverse_t(m)) == n - 2
        assert len(products) <= n, (n, len(products))


def test_fiber_count_never_builds_a_sylvester_matrix(monkeypatch):
    # one subresultant sequence of (P, P') gives the count and disc(P), at
    # most n - 1 pseudo-remainders; a Sylvester determinant took 0.65 s at
    # DEGREE_LIMIT, and the t of a point come from synthetic division, not
    # from the symbolic inverse_t.  P's coefficients are 1, 0 and b, so the
    # sequence runs on a list of ints: no Poly is substituted into or
    # multiplied
    def refuse(*args):
        raise AssertionError("a determinant, inverse_t or Poly arithmetic ran under fiber_count")

    maps = [build(n) for n in range(2, DEGREE_LIMIT + 1)]
    monkeypatch.setattr(poly.PolyMatrix, "determinant", refuse)
    monkeypatch.setattr(poly, "_det_bareiss", refuse)
    monkeypatch.setattr(defspace, "inverse_t", refuse)
    for name in ("substitute", "__mul__", "__rmul__"):
        monkeypatch.setattr(Poly, name, refuse)
    prems = []
    prem = poly._prem
    monkeypatch.setattr(poly, "_prem", lambda a, b: prems.append(1) or prem(a, b))
    rng = random.Random(24)
    for m in maps:
        n = m.n
        random_b = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n - 1)]
        # w^n - w^(n-2) = w^(n-2) (w - 1)(w + 1): a repeated root when n > 3
        for b in (random_b, [-1] + [0] * (n - 2)):
            prems.clear()
            fib = fiber_count(m, b)
            assert (fib.count == n) == (fib.discriminant != 0), n
            assert len(prems) <= n - 1, (n, b)
        assert [p.lam for p in fib.points] == ([-1, 1] if n == 2 else [-1, 0, 1]), n


def _b_of_roots(roots):
    """b_{n-2}, ..., b_0 of P = prod(w - r) for roots summing to zero."""
    coeffs = [Fraction(1)]  # of P, highest degree first
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    assert coeffs[1] == 0
    return coeffs[2:]


@pytest.mark.parametrize("n", range(2, DEGREE_LIMIT + 1))
def test_fiber_point_t_is_inverse_t_at_the_point(n):
    # the synthetic division of P by (w - lam) gives the t of the symbolic
    # inverse, evaluated at (lam, b); the roots repeat, so gcd(P, P') and
    # the zero discriminant are exercised too
    rng = random.Random(2800 + n)
    m = build(n)
    inv = inverse_t(m)
    for _ in range(3):
        pool = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        roots = [rng.choice(pool) for _ in range(n - 1)]
        roots.append(-sum(roots))
        b = _b_of_roots(roots)
        fib = fiber_count(m, b)
        assert fib.count == len(set(roots))
        assert (fib.discriminant == 0) == (len(set(roots)) < n)
        assert [p.lam for p in fib.points] == sorted(set(roots))
        for pt in fib.points:
            point = {"lam": pt.lam, **dict(zip(m.b_names, b))}
            assert pt.t == tuple(t.evaluate(point) for t in inv), (roots, pt.lam)


@pytest.mark.parametrize("n", range(2, DEGREE_LIMIT + 1))
def test_fiber_count_matches_the_poly_route(n):
    # fiber_count runs the sequence on the ints of L P; the same sequence on
    # the Poly coefficients of P_b = P(w; b) gives poly.discriminant and
    # gcd(P_b, P_b'), for b integral, rational with denominators up to 7,
    # and made from rational roots with repeats (numerators and denominators
    # up to 2, so that L P's end coefficients stay inside the root search's
    # ROOT_SEARCH_LIMIT up to n = 24)
    rng = random.Random(3100 + n)
    m = build(n)
    for kind in ("integral", "rational", "roots"):
        roots = None
        if kind == "integral":
            b = [rng.randint(-20, 20) for _ in range(n - 1)]
        elif kind == "rational":
            b = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n - 1)]
        else:
            pool = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            roots = [rng.choice(pool) for _ in range(n - 1)]
            roots.append(-sum(roots))
            b = _b_of_roots(roots)
        fib = fiber_count(m, b)
        pb = m.target.substitute(dict(zip(m.b_names, b)))
        assert fib.discriminant == poly.discriminant(pb, "w").constant_term(), (kind, b)
        gcd = poly._subresultants(poly._coeffs(pb, "w"), poly._coeffs(pb.differentiate("w"), "w"))[1]
        assert fib.count == n - (len(gcd) - 1), (kind, b)
        if roots is not None:
            assert fib.count == len(set(roots))
            assert [p.lam for p in fib.points] == sorted(set(roots)), roots


@pytest.mark.parametrize("bad", [0.5, 0.1, True, False, None, "1/0", "half", [1]])
def test_fiber_count_and_apply_map_refuse_what_is_not_rational(bad):
    # a float was read as its binary value (0.1 as 3602879701896397/2^55,
    # refused for its root search) and a bool as 0 or 1
    m = build(3)
    message = rf"^{re.escape(repr(bad))} is not an integer, a Fraction or a rational string$"
    with pytest.raises(ConfigError, match=message):
        fiber_count(m, [bad, 0])
    with pytest.raises(ConfigError, match=message):
        apply_map(m, bad, [0])
    with pytest.raises(ConfigError, match=message):
        apply_map(m, 0, [bad])
    # ints, Fractions and rational strings, as corpus entries give them
    assert fiber_count(m, ["-1", Fraction(0)]) == fiber_count(m, [-1, 0])
    assert apply_map(m, "1/2", [-3]) == apply_map(m, Fraction(1, 2), [Fraction(-3)])


def test_reduce_mod_monic():
    amb = ("w",)
    p = parse_polynomial("w^5 + 1", amb)
    mod = parse_polynomial("w^2 - 2", amb)
    # w^5 = 4w mod (w^2 - 2)
    assert reduce_mod_monic(p, mod, "w") == parse_polynomial("4*w + 1", amb)
    with pytest.raises(ValueError):
        reduce_mod_monic(p, parse_polynomial("2*w^2 - 1", amb), "w")


def test_inverse_section_formula_n4():
    # t1 = lam^2 + b2, t0 = lam^3 + b2*lam + b1
    m = build(4)
    t1, t0 = inverse_t(m)
    amb = t1.vars
    assert t1 == parse_polynomial("lam^2 + b2", amb)
    assert t0 == parse_polynomial("lam^3 + b2*lam + b1", amb)


def test_fiber_of_split_cubic():
    m = build(3)
    fib = fiber_count(m, [Fraction(-1), Fraction(0)])  # w^3 - w
    assert fib.count == 3
    assert fib.is_generic
    assert [(p.lam, p.t) for p in fib.points] == [
        (Fraction(-1), (Fraction(0),)),
        (Fraction(0), (Fraction(-1),)),
        (Fraction(1), (Fraction(0),)),
    ]


def test_fiber_of_cuspidal_cubic():
    m = build(3)
    fib = fiber_count(m, [0, 0])  # w^3: one triple root
    assert fib.count == 1
    assert not fib.is_generic
    assert fib.discriminant == 0


def test_fiber_points_map_back():
    rng = random.Random(123)
    for n in range(2, 7):
        m = build(n)
        for _ in range(20):
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n - 1)]
            fib = fiber_count(m, b)
            assert (fib.count == n) == (fib.discriminant != 0)
            assert fib.count >= 1
            for pt in fib.points:
                assert apply_map(m, pt.lam, pt.t) == tuple(b)


def test_fiber_count_validates_length():
    with pytest.raises(ConfigError, match="need 2 coefficients"):
        fiber_count(build(3), [1, 2, 3])


def test_rational_root_search_is_bounded():
    m = build(3)
    # (w - 1000)^2 (w + 2000): 44 721 trial divisions, well inside the limit
    fib = fiber_count(m, [-3_000_000, 2_000_000_000])
    assert fib.count == 2 and [p.lam for p in fib.points] == [-2000, 1000]
    # sqrt(4e12 + 1) trial divisions alone pass the limit; nothing is divided
    with pytest.raises(ConfigError, match=r"^coefficient 4000000000001 of w\^0 too large"):
        fiber_count(m, [0, 4 * 10**12 + 1])
    # under a million trial divisions and 6720 divisors, each candidate
    # tested with integer Horner: w^3 + 963761198400 has no rational root
    fib = fiber_count(m, [0, 963_761_198_400])
    assert fib.count == 3 and fib.points == ()
    # 576 divisors of the numerator times 256 of the denominator give too
    # many candidates, though trial division alone is well inside the limit
    num, den = 2**5 * 3**3 * 5**2 * 7 * 11 * 13, 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    with pytest.raises(ConfigError, match=rf"^coefficient {den} of w\^3 too large"):
        fiber_count(m, [0, Fraction(num, den)])
    # denominators are cleared first, so the leading coefficient can be the large one
    with pytest.raises(ConfigError, match=r"^coefficient 10{15} of w\^3 too large"):
        fiber_count(m, [0, Fraction(1, 10**15)])


def test_fiber_points_are_the_rational_roots_put_in():
    # P = prod(w - r_i) with rational r_i summing to zero (P has no w^(n-1)
    # term), so its rational roots are exactly the distinct r_i
    rng = random.Random(41)
    for n in range(2, 7):
        m = build(n)
        for _ in range(10):
            roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n - 1)]
            roots.append(-sum(roots))
            fib = fiber_count(m, _b_of_roots(roots))
            assert [p.lam for p in fib.points] == sorted(set(roots)), roots


def test_jacobian_cofactor_value():
    # n = 3: |J| = 2*lam^2 + t0 = Q(lam; lam, t0) up to sign
    m = build(3)
    jac = jacobian_identity(m)
    assert str(jac.determinant) in ("2*lam^2 + t0", "-2*lam^2 - t0")
    assert jac.cofactor_at_root == jac.determinant * jac.sign


# ---------------------------------------------------------------- mutation guards


def _negate_component(m, idx):
    comps = list(m.components)
    comps[idx] = comps[idx] * Fraction(-1)
    return dataclasses.replace(m, components=tuple(comps))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sign_flip_in_map_breaks_identities(n):
    m = build(n)
    for idx in range(len(m.components)):
        bad = _negate_component(m, idx)
        assert not verify_factor_identity(bad)
        assert not inverse_composition_reduces(bad)


def test_sign_flip_in_cofactor_breaks_identities():
    m = build(4)
    amb = m.cofactor.vars
    flipped = m.cofactor - Poly.const(amb, 2) * Poly.var(amb, "lam") * Poly.var(amb, "w") ** 2
    bad = dataclasses.replace(m, cofactor=flipped)
    assert not verify_factor_identity(bad)
    assert not jacobian_identity(bad).matches
    assert not ramification_check(bad)


def test_term_drop_breaks_jacobian():
    m = build(3)
    comps = list(m.components)
    amb = comps[0].vars
    comps[0] = comps[0] + Poly.var(amb, "t0")  # -lam^2 + 2*t0
    bad = dataclasses.replace(m, components=tuple(comps))
    assert not verify_factor_identity(bad)
    assert not jacobian_identity(bad).matches
