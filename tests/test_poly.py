import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from singkit import poly
from singkit.defspace import DEGREE_LIMIT
from singkit.errors import ParseError
from singkit.poly import (
    PARSE_WORK_LIMIT,
    Poly,
    PolyMatrix,
    _det,
    _height,
    _power_cost,
    discriminant,
    parse_polynomial,
    resultant,
    univariate_gcd,
)

XYZW = ("x", "y", "z", "w")


def P(text, vars=XYZW):
    return parse_polynomial(text, vars)


# ---------------------------------------------------------------- parsing


def test_parse_four_term_example():
    f = P("x^2+y^2+z^2+w^6")
    assert len(f.terms) == 4
    assert f.terms[(0, 0, 0, 6)] == 1


def test_parse_zero():
    f = parse_polynomial("0", ("x",))
    assert f.is_zero()
    assert f.terms == {}


def test_parse_product_expansion():
    f = parse_polynomial("(z-w)*(z+w)", ("z", "w"))
    assert f == parse_polynomial("z^2 - w^2", ("z", "w"))


def test_parse_rational_coefficients():
    f = parse_polynomial("3/2*y - x^2", ("x", "y"))
    assert f.terms[(0, 1)] == Fraction(3, 2)
    assert str(f) == "-x^2 + 3/2*y"


def test_parse_leading_minus():
    # unary minus in front of the whole expression is accepted
    assert parse_polynomial("-x + x", ("x",)).is_zero()


@pytest.mark.parametrize("bad", ["x^2+", "x^-2", "x^(2)", "q + 1", "2//3", "(x", "x 2"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad, ("x",))


def test_parse_deep_nesting_is_a_parse_error():
    text = "(" * 3000 + "x" + ")" * 3000
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ("x",))
    assert "nested too deeply" in str(err.value)
    assert 0 < err.value.position < 3000


@pytest.mark.parametrize("text, at", [
    ("(x+y+z+w)^300+x^2+y^2+z^2+w^2", 9),
    ("((x+y+z+w)^20)^20", 14),
    ("(x+y+z+w)^40*(x+y+z+w)^40", 9),
    ("+".join(["(x+y+z+w)^15"] * 5), 61),   # each power is cheap; all five are not
    ("(x+y)^400", 5),
    # coefficient size is charged too: products on thousands of digits
    ("(123456789012345678901234567890/7*x + 98765432109876543210/11*y)^222", 64),
    ("(123456789^10000)^10000", 17),
    ("2^99999999", 1),
])
def test_parse_refuses_expansions_past_the_work_limit(text, at):
    with pytest.raises(ParseError) as err:
        P(text)
    assert "too large to expand" in str(err.value)
    assert err.value.position == at


def test_parse_expands_within_the_work_limit():
    f = P("(x+y)^60")
    assert len(f.terms) == 61 and f.terms[(30, 30, 0, 0)] == math.comb(60, 30)
    assert len(P("+".join(["(x+y+z+w)^15"] * 4)).terms) == math.comb(18, 3)
    assert P("(x+y+z+w)^10*(x-y+z-w)^5") == P("(x+y+z+w)^10") * P("(x-y+z-w)^5")
    # coefficients +-1 cost no more than before, and moderate ones little;
    # the two largest powers within the limit take about 0.4 s each to
    # expand, so only their charge is checked
    for text, k in [("x+y+z+w", 21), ("x+y", 222)]:
        p = P(text)
        assert _power_cost(len(p.terms), k, _height(p)) <= PARSE_WORK_LIMIT
    assert P("(2/3*x+5/7*y)^100").terms[(100, 0, 0, 0)] == Fraction(2, 3) ** 100
    assert P("123456789^10000").terms[(0, 0, 0, 0)] == 123456789 ** 10000


def test_powers_of_zero_are_not_expanded():
    assert P("0^99999999").is_zero()
    assert P("(x-x)^99999999 + y").terms == {(0, 1, 0, 0): 1}
    assert P("0^0") == 1 and P("(x-x)^0") == 1


def test_sums_parse_in_linear_time():
    # the parser adds each summand into one dict in place; summing with
    # `acc + t` copied the whole sum for every summand, and this input
    # took 14 s that way (Python 3.11, 2-core VM) against 0.8 s now
    text = "+".join(f"x^{i}" for i in range(1, 40_001))
    start = time.perf_counter()
    f = parse_polynomial(text, ("x", "y"))
    assert time.perf_counter() - start < 4.0
    assert len(f.terms) == 40_000 and f.terms[(40_000, 0)] == 1
    # cancelled terms are dropped
    assert P("x^2 - x^2 + y").terms == {(0, 1, 0, 0): 1}


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2 + q", ("x",))
    assert err.value.position == 6


def test_print_graded_lex_descending():
    assert str(P("x^2+y^2+z^2+w^6")) == "w^6 + x^2 + y^2 + z^2"
    assert str(Poly.zero(XYZW)) == "0"
    assert str(P("1")) == "1"
    assert str(P("-x")) == "-x"


def _random_poly(rng, nvars, max_deg=8, max_terms=7):
    vars = XYZW[:nvars]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            expo[rng.randrange(nvars)] += 1
        if sum(expo) > max_deg:
            continue
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            terms[tuple(expo)] = terms.get(tuple(expo), Fraction(0)) + c
    p = Poly.zero(vars)
    for e, c in terms.items():
        mono = Poly.const(vars, c)
        for i, k in enumerate(e):
            mono = mono * Poly.var(vars, vars[i]) ** k
        p = p + mono
    return p


def test_parse_print_roundtrip_1000():
    rng = random.Random(20260814)
    for i in range(1000):
        p = _random_poly(rng, nvars=rng.randint(1, 4))
        again = parse_polynomial(str(p), p.vars)
        assert again == p, f"case {i}: {p}"


# ---------------------------------------------------------------- arithmetic

_coeff = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
).filter(lambda c: c != 0)
_expo = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(3)))


@st.composite
def _polys(draw):
    terms = draw(st.dictionaries(_expo, _coeff, max_size=5))
    p = Poly.zero(("x", "y", "z"))
    for e, c in terms.items():
        mono = Poly.const(("x", "y", "z"), c)
        for name, k in zip(("x", "y", "z"), e):
            mono = mono * Poly.var(("x", "y", "z"), name) ** k
        p = p + mono
    return p


@settings(max_examples=150, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert (a * Poly.const(a.vars, 1)) == a
    assert (a * Poly.zero(a.vars)).is_zero()


@settings(max_examples=100, deadline=None)
@given(_polys(), st.integers(0, 5))
def test_power_is_repeated_multiplication(p, k):
    expected = Poly.const(p.vars, 1)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


def test_power_of_a_monomial_is_not_expanded():
    assert P("(-2/3*x*y^2)^3") == P("-8/27*x^3*y^6")
    assert P("x^99999999").terms == {(99999999, 0, 0, 0): 1}


def _holds_invariant(p):
    # a coefficient is an int when integral and a Fraction otherwise, never 0
    n = len(p.vars)
    return (type(p.vars) is tuple and len(set(p.vars)) == n
            and all((type(c) is int or type(c) is Fraction and c.denominator != 1)
                    and c != 0 for c in p.terms.values())
            and all(type(e) is tuple and len(e) == n
                    and all(type(x) is int and x >= 0 for x in e) for e in p.terms))


@settings(max_examples=150, deadline=None)
@given(_polys(), _polys(), _coeff, st.integers(0, 6))
def test_arithmetic_results_keep_the_invariant(a, b, c, k):
    # results of arithmetic skip the constructor's check, so they must hold
    # the invariant by construction
    results = [a + b, a - b, -a, a + 2, 3 - a, a * b, a * c, c * a, a * 5, a * 0,
               a.differentiate("x"), a.coefficient_in("y", 1), Poly.zero(a.vars) ** k]
    if not b.is_zero():
        results.append((a * b).exact_divide(b))
    if not a.is_zero():
        e, v = next(iter(a.terms.items()))
        results.append(Poly(a.vars, {e: v}) ** k)
    for r in results:
        assert _holds_invariant(r), r.terms
        assert Poly(r.vars, r.terms) == r


def test_integral_coefficients_are_stored_as_int():
    x = (1, 0, 0, 0)
    half_x = P("1/2*x")
    a, b = P("3*x^2*y - 2*z + 7"), P("x - 5*w^3 + 1")
    vs = ("x", "y")
    for r in [half_x * 2, 2 * half_x, half_x + half_x, half_x * P("2"),
              P("1/2*x^2").differentiate("x"), P("1/2*x + 1/2*x"), P("2/2*x"),
              half_x.substitute({"x": P("2*x")}), P("1/3*x") ** 0 * P("x"),
              P("1/2*x^2 + 1/2*x").exact_divide(P("1/2*x + 1/2"))]:
        assert r == P("x") and type(r.terms[x]) is int, r.terms
    assert all(type(c) is int for c in (a * b).exact_divide(b).terms.values())
    assert (a * b).exact_divide(b) == a
    assert P("x").exact_divide(P("2*x")).terms == {(0, 0, 0, 0): Fraction(1, 2)}
    for two in (Poly.const(vs, Fraction(4, 2)), Poly(vs, {(1, 1): Fraction(6, 3)})):
        assert [type(c) for c in two.terms.values()] == [int]
        assert list(two.terms.values()) == [2]
    assert _holds_invariant(Poly(vs, {(1, 0): True, (0, 1): Fraction(-3, 1)}))


def test_numbers_handed_out_are_fractions():
    for p in (P("x + 3"), P("x"), P("1/2"), Poly.zero(XYZW)):
        assert type(p.constant_term()) is Fraction
    assert P("x").constant_term() == 0
    point = {"x": 2, "y": Fraction(1, 2), "z": 0, "w": Fraction(3)}
    for p in (P("x*y + 2*w"), P("x^2 - 4"), P("1/3*y"), Poly.zero(XYZW)):
        assert type(p.evaluate(point)) is Fraction


@settings(max_examples=100, deadline=None)
@given(_polys())
def test_no_stored_zero_coefficients(p):
    assert all(c != 0 for c in p.terms.values())
    q = p - p
    assert q.terms == {}


def test_differentiate_examples():
    assert P("w^6").differentiate("w") == P("6*w^5")
    assert parse_polynomial("z^5 - w^5", ("z", "w")).differentiate("z") == \
        parse_polynomial("5*z^4", ("z", "w"))
    f = P("x^3+y^3+z^3+w^3+x*y*z*w")
    assert f.differentiate("x") == P("3*x^2 + y*z*w")


@settings(max_examples=100, deadline=None)
@given(_polys(), _polys())
def test_leibniz_rule(a, b):
    d = lambda p: p.differentiate("y")
    assert d(a * b) == d(a) * b + a * d(b)


def test_substitute_examples():
    amb = ("w", "lam")
    p = parse_polynomial("w^2 + b0", ("w", "b0"))
    image = p.substitute({"b0": parse_polynomial("-lam^2", amb),
                          "w": Poly.var(amb, "w")})
    assert image == parse_polynomial("w^2 - lam^2", amb)

    f = P("x^2+y^2+z^2+w^6")
    ident = {v: Poly.var(XYZW, v) for v in XYZW}
    assert f.substitute(ident) == f

    g = parse_polynomial("z^5 - w^5", ("z", "w"))
    collapsed = g.substitute({"z": Poly.var(("z", "w"), "w"),
                              "w": Poly.var(("z", "w"), "w")})
    assert collapsed.is_zero()


def test_evaluate():
    f = P("x^2 + 3/2*y - w")
    val = f.evaluate({"x": Fraction(2), "y": Fraction(2), "z": Fraction(7), "w": Fraction(1)})
    assert val == Fraction(6)


# ---------------------------------------------------------------- determinants


def _leibniz_det(rows):
    # permutation-expansion oracle, independent of the implementation
    from itertools import permutations
    n = len(rows)
    amb = rows[0][0].vars
    total = Poly.zero(amb)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Poly.const(amb, sign)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + prod
    return total


def test_determinant_pinned_examples():
    V = ("lam", "t0")
    assert str(PolyMatrix([[parse_polynomial("-2*lam", V)]]).determinant()) == "-2*lam"
    rows = [
        [parse_polynomial("-2*lam", V), parse_polynomial("1", V)],
        [parse_polynomial("-t0", V), parse_polynomial("-lam", V)],
    ]
    assert PolyMatrix(rows).determinant() == parse_polynomial("2*lam^2 + t0", V)
    ident = [[Poly.const(V, 1) if i == j else Poly.zero(V) for j in range(3)]
             for i in range(3)]
    assert PolyMatrix(ident).determinant() == Poly.const(V, 1)


def test_determinant_matches_cofactor_oracle_small():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            rows = [[_random_poly(rng, 2, max_deg=2, max_terms=2)
                     for _ in range(n)] for _ in range(n)]
            m = PolyMatrix([[p.in_ambient(("x", "y")) for p in r] for r in rows])
            assert m.determinant() == _leibniz_det(m.rows), f"size {n}"


def test_determinant_of_linear_entries_matches_oracle():
    rng = random.Random(11)
    for n in (5, 6):
        rows = [[Poly.const(("x",), Fraction(rng.randint(-5, 5)))
                 + Poly.var(("x",), "x") * Fraction(rng.randint(-2, 2))
                 for _ in range(n)] for _ in range(n)]
        m = PolyMatrix(rows)
        assert m.determinant() == _leibniz_det(rows)


def test_constant_pivot_determinant_matches_leibniz(monkeypatch):
    """`_det` against the permutation expansion on sparse matrices whose
    entries are zero, rational constants or polynomials in x and y: some
    are singular, and some run out of constant pivots so that Bareiss
    finishes them."""
    bareiss_sizes = []
    bareiss = poly._det_bareiss
    monkeypatch.setattr(poly, "_det_bareiss",
                        lambda rows: bareiss_sizes.append(len(rows)) or bareiss(rows))
    rng = random.Random(3001)
    amb = ("x", "y")
    singular = 0
    for n in range(1, 7):
        for trial in range(12 if n < 6 else 4):
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    u = rng.random()
                    if u < 0.4:
                        row.append(Poly.zero(amb))
                    elif u < 0.7:
                        row.append(Poly.const(amb, Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                                            rng.randint(1, 3))))
                    else:
                        row.append(_random_poly(rng, 2, max_deg=2, max_terms=2).in_ambient(amb))
                rows.append(row)
            if n > 1 and trial % 4 == 3:
                # the last row a combination of the others: a singular matrix
                k = rng.randrange(n - 1)
                rows[-1] = [a * Fraction(-2, 3) + (b if n > 2 else Poly.zero(amb))
                            for a, b in zip(rows[k], rows[(k + 1) % (n - 1)])]
            want = _leibniz_det(rows)
            singular += want.is_zero()
            assert _det(rows) == want, (n, trial)
    assert singular >= 5
    assert any(size >= 2 for size in bareiss_sizes)


def test_constant_pivot_off_the_diagonal_flips_the_sign():
    V = ("x", "y")
    x, y, one = Poly.var(V, "x"), Poly.var(V, "y"), Poly.const(V, 1)
    zero = Poly.zero(V)
    # transpositions and a 3-cycle of constants
    assert _det([[zero, one], [one, zero]]) == -one
    assert _det([[zero, one, zero], [zero, zero, one], [one, zero, zero]]) == one
    assert _det([[zero, zero, 2 * one], [zero, 3 * one, zero], [5 * one, zero, zero]]) == -30 * one
    # the only constant is off the diagonal: the pivot (0, 1) brings a -1
    assert _det([[x, one], [y, x]]) == x * x - y
    # one constant pivot at (1, 0), then Bareiss on the 2x2 block left over
    rows = [[y, x, x * y], [Fraction(1, 2) * one, zero, zero], [x, y * y, x + y]]
    assert _det(rows) == _leibniz_det(rows)
    assert _det(rows) == Fraction(-1, 2) * (x * (x + y) - x * y * y * y)


def test_determinant_rejects_non_square():
    V = ("x",)
    with pytest.raises(ValueError):
        PolyMatrix([[Poly.var(V, "x"), Poly.zero(V)]]).determinant()


# ---------------------------------------------------------------- gcd / resultant / discriminant


def test_univariate_gcd_examples():
    w = ("w",)
    assert univariate_gcd(parse_polynomial("w^2-1", w), parse_polynomial("w-1", w), "w") \
        == parse_polynomial("w-1", w)
    assert univariate_gcd(parse_polynomial("w^3+w-2", w),
                          parse_polynomial("3*w^2+1", w), "w") == Poly.const(w, 1)
    # the remainders of w^6 - 1 and w^4 - 1 go from degree 4 to 2: a gap
    assert univariate_gcd(parse_polynomial("w^6-1", w), parse_polynomial("w^4-1", w), "w") \
        == parse_polynomial("w^2-1", w)
    # gcd with zero is the monic normalization of the other argument
    assert univariate_gcd(parse_polynomial("2*w^2-2", w), Poly.zero(w), "w") \
        == parse_polynomial("w^2-1", w)


def test_subresultant_divisions_are_checked_on_ints_and_polys(monkeypatch):
    # divmod would floor -7 / 2 to -4 without a word; the sequence's
    # divisions raise instead, on either coefficient type
    assert poly._divide(-12, 4) == -3
    for a, d in ((7, 2), (-7, 2), (1, -3)):
        with pytest.raises(ArithmeticError, match="not exact"):
            poly._divide(a, d)
    w = ("w",)
    with pytest.raises(ArithmeticError, match="not exact"):
        poly._divide(P("w^2 + 1", w), P("w + 1", w))
    # a pseudo-remainder off by one makes a later division of the int
    # sequence inexact: it raises, and no wrong resultant comes out
    a = [1, 0, 3, 0, 2, 5]  # 5w^5 + 2w^4 + 3w^2 + 1
    b = [k * c for k, c in enumerate(a)][1:]
    assert poly._subresultants(a, b) == (9971765, [9971765])
    prem = poly._prem
    monkeypatch.setattr(poly, "_prem", lambda a, b: [c + 1 for c in prem(a, b)])
    with pytest.raises(ArithmeticError, match="integer division is not exact"):
        poly._subresultants(a, b)


def test_univariate_gcd_of_rational_polynomials_runs_on_ints(monkeypatch):
    # each argument is scaled to integer coefficients on its own, so the
    # sequence sees ints only, and the monic gcd is as over Q
    w = ("w",)
    seen = []
    prem = poly._prem
    monkeypatch.setattr(poly, "_prem", lambda a, b: seen.extend(map(type, a + b)) or prem(a, b))
    p = P("(w - 1/2)^2*(w + 1/3)*(2/5*w^2 + 1)", w)
    assert univariate_gcd(p, p.differentiate("w"), "w") == P("w - 1/2", w)
    assert univariate_gcd(P("1/6*w^2 - 1/6", w), P("3/4*w + 3/4", w), "w") == P("w + 1", w)
    assert seen and set(seen) == {int}


def test_discriminant_pinned_examples():
    q = parse_polynomial("w^2 + b0", ("w", "b0"))
    assert discriminant(q, "w") == parse_polynomial("-4*b0", ("w", "b0"))
    cubic = parse_polynomial("w^3 + b1*w + b0", ("w", "b1", "b0"))
    assert discriminant(cubic, "w") == \
        parse_polynomial("-4*b1^3 - 27*b0^2", ("w", "b1", "b0"))
    assert discriminant(parse_polynomial("(w-1)^2", ("w",)), "w").is_zero()


def test_discriminant_requires_positive_degree():
    with pytest.raises(ValueError):
        discriminant(Poly.const(("w",), 3), "w")


def test_discriminant_vanishes_iff_repeated_root():
    # dual route: discriminant = 0 <=> gcd(p, p') has degree >= 1
    rng = random.Random(99)
    w = ("w",)
    for _ in range(120):
        nroots = rng.randint(1, 4)
        p = Poly.const(w, 1)
        mult = []
        for _ in range(nroots):
            r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            e = rng.randint(1, 2)
            mult.append((r, e))
            p = p * (Poly.var(w, "w") - Poly.const(w, r)) ** e
        if p.degree_in("w") > 8:
            continue
        seen = {}
        for r, e in mult:
            seen[r] = seen.get(r, 0) + e
        has_repeat = any(e > 1 for e in seen.values())
        disc = discriminant(p, "w")
        g = univariate_gcd(p, p.differentiate("w"), "w")
        assert (g.degree_in("w") >= 1) == has_repeat
        assert disc.is_zero() == has_repeat


def test_resultant_of_coprime_is_nonzero():
    w = ("w",)
    p = parse_polynomial("w^2 - 2", w)
    q = parse_polynomial("w^3 - 3", w)
    r = resultant(p, q, "w")
    assert not r.is_zero()
    assert r.total_degree() == 0


def test_resultant_of_two_constants_is_one():
    V = ("w", "y")
    assert resultant(P("3*y", V), P("2", V), "w") == Poly.const(V, 1)


@pytest.mark.parametrize("n", range(2, DEGREE_LIMIT + 1))
def test_discriminant_closed_forms(n):
    # disc(w^n + c) = (-1)^(n(n-1)/2) n^n c^(n-1) and
    # disc(w^n + b*w + c) = (-1)^(n(n-1)/2) (n^n c^(n-1) + (-1)^(n-1) (n-1)^(n-1) b^n),
    # with b and c symbolic and at rational values
    V = ("w", "b", "c")
    w, b, c = (Poly.var(V, v) for v in V)
    sign = (-1) ** (n * (n - 1) // 2)
    assert discriminant(w**n + c, "w") == sign * n**n * c ** (n - 1)
    want = sign * (n**n * c ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * b**n)
    assert discriminant(w**n + b * w + c, "w") == want
    rng = random.Random(n)
    for _ in range(3):
        at = {"w": 0, "b": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
              "c": Fraction(rng.randint(-9, 9), rng.randint(1, 5))}
        pb = (w**n + b * w + c).substitute({k: at[k] for k in "bc"})
        assert discriminant(pb, "w") == Poly.const(V, want.evaluate(at))


def _sylvester_matrix_resultant(p, q, name):
    """det of the Sylvester matrix of p and q in `name`, p's rows first,
    by PolyMatrix.determinant."""
    dp, dq = p.degree_in(name), q.degree_in(name)
    pc = [p.coefficient_in(name, k) for k in range(dp, -1, -1)]
    qc = [q.coefficient_in(name, k) for k in range(dq, -1, -1)]
    zero = Poly.zero(p.vars)
    rows = [[zero] * i + pc + [zero] * (dq - 1 - i) for i in range(dq)]
    rows += [[zero] * i + qc + [zero] * (dp - 1 - i) for i in range(dp)]
    return PolyMatrix(rows).determinant()


def _random_in(rng, amb, name, deg, symbolic):
    """A polynomial of degree exactly `deg` in `name`, its coefficients
    rational constants or, when symbolic, up to 2 terms in the other
    variables of degree <= 1 in each; some coefficients below the lead are
    zero."""
    i = amb.index(name)
    p = Poly.zero(amb)
    for k in range(deg + 1):
        if k < deg and rng.random() < 0.25:
            continue
        coeff = Poly.zero(amb)
        while coeff.is_zero():
            for _ in range(rng.randint(1, 2) if symbolic else 1):
                e = [rng.randint(0, 1) if symbolic and j != i else 0 for j in range(len(amb))]
                e[i] = k
                coeff = coeff + Poly(amb, {tuple(e): Fraction(rng.randint(-9, 9), rng.randint(1, 4))})
        p = p + coeff
    return p


@pytest.mark.parametrize("symbolic", [False, True])
def test_resultant_matches_the_sylvester_determinant(symbolic):
    # both degree orders, degree 0 on either side, and pairs with a common
    # factor (resultant 0)
    rng = random.Random(4103 + symbolic)
    amb = ("w", "y", "z") if symbolic else ("w", "y")
    top = 4 if symbolic else 10
    zeros = 0
    for i in range(60):
        shared = i % 6 == 0  # a common linear factor takes one degree of each
        dp, dq = rng.randint(0, top - shared), rng.randint(0, top - shared)
        if dp == dq == 0:
            dq = 1
        p = _random_in(rng, amb, "w", dp, symbolic)
        q = _random_in(rng, amb, "w", dq, symbolic)
        if shared:
            common = _random_in(rng, amb, "w", 1, symbolic)
            p, q = p * common, q * common
        res = resultant(p, q, "w")
        assert res == _sylvester_matrix_resultant(p, q, "w"), (p, q)
        assert res.degree_in("w") <= 0
        zeros += res.is_zero()
    assert zeros >= 5
