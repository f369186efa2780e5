import itertools
import math
import random
from fractions import Fraction

import pytest

from singkit.localring import (
    INFINITE,
    LocalIdeal,
    leading_exponent,
    milnor_number,
    mora_normal_form,
    quasi_homogeneous_weights,
    quotient_dim,
    stabilized_oracle_dim,
    standard_basis,
    tjurina_number,
    truncated_dim_oracle,
)
from singkit.poly import Poly, parse_polynomial

XYZW = ("x", "y", "z", "w")


def P(text, vars=XYZW):
    return parse_polynomial(text, vars)


def jacobian_ideal(f, with_f=False):
    gens = [f] if with_f else []
    gens += [f.differentiate(v) for v in f.vars]
    return LocalIdeal(f.vars, [g for g in gens if not g.is_zero()])


TAU_TABLE = [
    ("x^2 + y^2 + z^2 + w^2", 1),
    ("x^2 + y^2 + z^2 + w^4", 3),
    ("x^2 + y^2 + z^2 + w^6", 5),
    ("x^2 + y^2 + z^2 + w^8", 7),
    ("x^2 + y^2 + z^3 - w^3", 4),
    ("x^2 + y^2 + z^4 - w^4", 9),
    ("x^2 + y^2 + z^5 - w^5", 16),
    ("x^2 + y^2 + z^5 - w^5 + z^3*w^3", 15),
    ("x^3 + y^3 + z^3 + w^3", 16),
    ("x^3 + y^3 + z^3 + w^3 + x*y*z*w", 15),
]


@pytest.mark.parametrize("text,tau", TAU_TABLE)
def test_tjurina_values(text, tau):
    assert tjurina_number(P(text)) == tau


def test_milnor_values():
    assert milnor_number(P("x^3 + y^3 + z^3 + w^3")) == 16
    assert milnor_number(P("x^2 + y^2 + z^5 - w^5 + z^3*w^3")) == 16
    assert milnor_number(P("x^2 + y^2 + z^2 + w^6")) == 5


@pytest.mark.parametrize("text,tau", TAU_TABLE)
def test_tau_le_mu(text, tau):
    f = P(text)
    mu = milnor_number(f)
    assert tau == tjurina_number(f) <= mu


def test_smooth_point_gives_zero():
    # a unit partial derivative means the germ is smooth: tau = mu = 0
    assert tjurina_number(P("x + y^2")) == 0
    assert milnor_number(P("w + w^2")) == 0


def test_non_isolated_is_infinite():
    assert tjurina_number(P("x^2 + y^2")) == INFINITE
    assert milnor_number(P("x^2 * y^2")) == INFINITE


def test_input_validation():
    with pytest.raises(ValueError):
        tjurina_number(Poly.zero(XYZW))
    with pytest.raises(ValueError):
        tjurina_number(P("1 + x"))
    with pytest.raises(ValueError):
        LocalIdeal(XYZW, [P("x + 1")])  # unit generator
    with pytest.raises(ValueError):
        LocalIdeal(XYZW, [])


# ---------------------------------------------------------------- standard bases


def test_leading_exponents_idempotent_and_permutation_invariant():
    f = P("x^3 + y^3 + z^3 + w^3 + x*y*z*w")
    gens = [f] + [f.differentiate(v) for v in XYZW]
    sb = standard_basis(LocalIdeal(XYZW, gens))

    # recomputing from the basis itself reproduces the same leading set
    again = standard_basis(LocalIdeal(XYZW, list(sb.basis)))
    assert set(again.leading_exponents) == set(sb.leading_exponents)

    rng = random.Random(5)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        sb2 = standard_basis(LocalIdeal(XYZW, shuffled))
        assert set(sb2.leading_exponents) == set(sb.leading_exponents)


def test_ideal_members_reduce_to_zero():
    f = P("x^2 + y^2 + z^5 - w^5 + z^3*w^3")
    gens = [f.differentiate(v) for v in XYZW]
    sb = standard_basis(LocalIdeal(XYZW, gens))
    basis = [dict(b.terms) for b in sb.basis]
    rng = random.Random(17)
    for _ in range(25):
        # random small combination sum c_i * m_i * g_i of the generators
        h = Poly.zero(XYZW)
        for g in gens:
            if rng.random() < 0.5:
                continue
            e = tuple(rng.randint(0, 2) for _ in XYZW)
            mono = Poly.const(XYZW, rng.randint(-3, 3))
            for name, k in zip(XYZW, e):
                mono = mono * Poly.var(XYZW, name) ** k
            h = h + mono * g
        if h.is_zero():
            continue
        rem = mora_normal_form(dict(h.terms), basis)
        assert not rem, f"nonzero normal form for an ideal member: {rem}"


def test_quotient_dim_monotone_under_extra_generator():
    f = P("x^2 + y^2 + z^2 + w^6")
    base = jacobian_ideal(f)
    bigger = LocalIdeal(XYZW, list(base.generators) + [f])
    assert quotient_dim(standard_basis(bigger)) <= quotient_dim(standard_basis(base))


def test_pinned_quotient_dimensions():
    w = ("w",)
    sb = standard_basis(LocalIdeal(w, [parse_polynomial("w^5", w)]))
    assert [str(b) for b in sb.basis] == ["w^5"]
    assert quotient_dim(sb) == 5

    zw = ("z", "w")
    box = standard_basis(LocalIdeal(zw, [parse_polynomial("z^4", zw),
                                         parse_polynomial("w^4", zw)]))
    assert quotient_dim(box) == 16  # 4 x 4 monomial box

    maximal = standard_basis(LocalIdeal(XYZW, [P(v) for v in XYZW]))
    assert quotient_dim(maximal) == 1

    line = standard_basis(LocalIdeal(zw, [parse_polynomial("z^2", zw)]))
    assert quotient_dim(line) == INFINITE  # w is unconstrained


# ---------------------------------------------------------------- the oracle


@pytest.mark.parametrize("text,tau", TAU_TABLE)
def test_truncation_oracle_agrees(text, tau):
    f = P(text)
    dim, n = stabilized_oracle_dim(jacobian_ideal(f, with_f=True))
    assert dim == tau
    assert n >= f.total_degree() + 2


def test_oracle_agrees_for_milnor_ideal():
    f = P("x^2 + y^2 + z^5 - w^5 + z^3*w^3")
    dim, _ = stabilized_oracle_dim(jacobian_ideal(f))
    assert dim == milnor_number(f) == 16


# ---------------------------------------------------------------- quasi-homogeneity


def test_weights_pinned_examples():
    assert quasi_homogeneous_weights(P("x^2 + y^2 + z^2 + w^6")) == ((3, 3, 3, 1), 6)
    assert quasi_homogeneous_weights(P("x^2 + y^2 + z^5 - w^5")) == ((5, 5, 2, 2), 10)
    assert quasi_homogeneous_weights(P("x^3 + y^3 + z^3 + w^3")) == ((1, 1, 1, 1), 3)


def test_deformed_examples_have_no_weights():
    assert quasi_homogeneous_weights(P("x^3 + y^3 + z^3 + w^3 + x*y*z*w")) is None
    assert quasi_homogeneous_weights(P("x^2 + y^2 + z^5 - w^5 + z^3*w^3")) is None


def test_weighted_homogeneous_implies_tau_equals_mu():
    for text in ("x^2 + y^2 + z^2 + w^6", "x^2 + y^2 + z^5 - w^5",
                 "x^3 + y^3 + z^3 + w^3"):
        f = P(text)
        assert quasi_homogeneous_weights(f) is not None
        assert tjurina_number(f) == milnor_number(f)


def test_deformed_examples_have_tau_less_than_mu():
    for text in ("x^2 + y^2 + z^5 - w^5 + z^3*w^3",
                 "x^3 + y^3 + z^3 + w^3 + x*y*z*w"):
        f = P(text)
        assert quasi_homogeneous_weights(f) is None
        assert tjurina_number(f) < milnor_number(f)


def test_second_instantiation_of_deformation_parameter():
    # the dimensions above hold for every nonzero scaling of the
    # deformation term; a second sample value guards against the chosen
    # coefficient accidentally being special
    assert tjurina_number(P("x^3 + y^3 + z^3 + w^3 + 2*x*y*z*w")) == 15
    assert tjurina_number(P("x^2 + y^2 + z^5 - w^5 + 2*z^3*w^3")) == 15


@pytest.mark.parametrize("a,b,c,d", [
    (2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 4, 2), (3, 3, 3, 3), (2, 2, 3, 5),
])
def test_brieskorn_closed_form(a, b, c, d):
    # x^a + y^b + z^c + w^d: mu = prod(e_i - 1), and tau = mu since the
    # germ carries the obvious weights
    f = P(f"x^{a} + y^{b} + z^{c} + w^{d}")
    mu = (a - 1) * (b - 1) * (c - 1) * (d - 1)
    assert milnor_number(f) == mu
    assert tjurina_number(f) == mu
    w = quasi_homogeneous_weights(f)
    assert w is not None
    weights, deg = w
    for exp, wt in zip((a, b, c, d), weights):
        assert exp * wt == deg


# ---------------------------------------------------------------- the highest corner

PINNED_GERM = "x^4 + y^4 + z^4 + w^4 + 4*x^2*z + 4*x*y*w^2 + 4*x*w^2"


@pytest.mark.parametrize("text,with_f", [
    (PINNED_GERM, True), (PINNED_GERM, False),
    ("x^3 + y^3 + z^3 + w^3 + x*y*z*w", True),
    ("x^2 + y^2 + z^5 - w^5 + z^3*w^3", True),
    ("x^2 + y^2 + z^2 + w^8", False),
])
def test_corner_is_the_least_degree_inside_the_ideal(text, with_f):
    # the oracle, independent of the standard basis: equal dimensions at N
    # and N+1 mean m^N lies in I + m^(N+1), hence in I (Nakayama); and a
    # smaller dimension at N-1 means m^(N-1) does not lie in I
    ideal = jacobian_ideal(P(text), with_f)
    sb = standard_basis(ideal)
    n = sb.corner
    assert truncated_dim_oracle(ideal, n) == truncated_dim_oracle(ideal, n + 1) == quotient_dim(sb)
    assert truncated_dim_oracle(ideal, n - 1) < quotient_dim(sb)


def test_pure_power_lead_of_degree_corner_is_kept():
    sb = standard_basis(LocalIdeal(XYZW, [P("x"), P("y"), P("z"), P("w^5")]))
    assert sb.corner == 5
    assert "w^5" in [str(b) for b in sb.basis]
    assert quotient_dim(sb) == 5


def test_non_isolated_ideal_has_no_corner():
    sb = standard_basis(jacobian_ideal(P("x^2 + y^2"), with_f=True))
    assert sb.corner is None
    assert quotient_dim(sb) == INFINITE


def _random_member(gens, rng):
    """A random combination sum c_i * m_i * g_i of the generators."""
    h = Poly.zero(XYZW)
    for g in gens:
        mono = Poly.const(XYZW, rng.randint(-3, 3))
        for name in XYZW:
            mono = mono * Poly.var(XYZW, name) ** rng.randint(0, 2)
        h = h + mono * g
    return h


@pytest.mark.parametrize("text", [
    "x^3 + y^3 + z^3 + w^3 + x*y*z*w", "x^2 + y^2 + z^5 - w^5 + z^3*w^3",
])
def test_ideal_members_reduce_to_zero_against_basis_truncated_mid_run(text):
    ideal = jacobian_ideal(P(text), with_f=True)
    sb = standard_basis(ideal)
    # the generators' own leads certify a larger degree: the corner fell
    # during the run, and the generator tails of degree >= corner were cut
    leads = [leading_exponent(g.terms) for g in ideal.generators]
    monomials = LocalIdeal(XYZW, [Poly(XYZW, {e: 1}) for e in leads])
    assert standard_basis(monomials).corner > sb.corner
    assert max(g.total_degree() for g in ideal.generators) >= sb.corner
    for b in sb.basis:
        lead = leading_exponent(b.terms)
        assert all(sum(e) < sb.corner or e == lead for e in b.terms)
    basis = [dict(b.terms) for b in sb.basis]
    rng = random.Random(23)
    for _ in range(15):
        h = _random_member(ideal.generators, rng)
        if h.is_zero():
            continue
        assert not mora_normal_form(dict(h.terms), basis)
        assert not mora_normal_form(dict(h.terms), basis, bound=sb.corner)


# ---------------------------------------------------------------- theorem-based properties


def _monomial(vars, exps):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(vars, exps) if e)


def _random_plane_germ(vars, rng):
    """x^a + y^b plus two random monomials of degree 2..6: often not
    quasi-homogeneous, sometimes not isolated."""
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    terms = [f"{vars[0]}^{a}", f"{vars[1]}^{b}"]
    for _ in range(2):
        d = rng.randint(2, 6)
        i = rng.randint(0, d)
        terms.append(f"{rng.randint(1, 3)}*{_monomial(vars, (i, d - i))}")
    return " + ".join(terms)


def test_tau_at_most_mu_and_milnor_orlik():
    # x^a + y^b + z^c + w^d plus two monomials of Fermat-weighted degree
    # above 1: mu is prod(a_i - 1) (Milnor-Orlik), and tau <= mu
    rng = random.Random(3)
    for _ in range(12):
        a = [rng.randint(2, 5) for _ in XYZW]
        extra = []
        while len(extra) < 2:
            e = tuple(rng.randint(0, ai) for ai in a)
            if 1 < sum(Fraction(x, ai) for x, ai in zip(e, a)) and _monomial(XYZW, e) not in extra:
                extra.append(_monomial(XYZW, e))
        text = " + ".join([_monomial(XYZW, [ai if j == i else 0 for j in range(4)])
                           for i, ai in enumerate(a)]
                          + [f"{rng.randint(1, 3)}*{m}" for m in extra])
        f = P(text)
        mu = milnor_number(f)
        assert mu == math.prod(ai - 1 for ai in a), text
        assert tjurina_number(f) <= mu, text


def test_thom_sebastiani():
    # mu(f(x,y) + g(z,w)) = mu(f) * mu(g), infinite when either factor is
    rng = random.Random(4)
    xy, zw = ("x", "y"), ("z", "w")
    for _ in range(10):
        f, g = _random_plane_germ(xy, rng), _random_plane_germ(zw, rng)
        mu_f = milnor_number(parse_polynomial(f, xy))
        mu_g = milnor_number(parse_polynomial(g, zw))
        assert milnor_number(P(f"{f} + {g}")) == mu_f * mu_g, (f, g)


def test_tau_of_suspension():
    # tau(x^2 + y^2 + g(z,w)) = tau(g)
    rng = random.Random(5)
    zw = ("z", "w")
    for _ in range(10):
        g = _random_plane_germ(zw, rng)
        assert tjurina_number(P(f"x^2 + y^2 + {g}")) == tjurina_number(
            parse_polynomial(g, zw)), g


def _seven_term_germs(rng, count):
    """x^a + y^b + z^c + w^d with a..d in 4..6, plus three mixed monomials
    of degree 4..6 with coefficients 1..4."""
    out = []
    for _ in range(count):
        terms = [_monomial(XYZW, [rng.randint(4, 6) if j == i else 0 for j in range(4)])
                 for i in range(4)]
        mixed = set()
        while len(mixed) < 3:
            d = rng.randint(4, 6)
            cuts = sorted(rng.randint(0, d) for _ in range(3))
            e = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2])
            if sum(1 for x in e if x) > 1 and e not in mixed:
                mixed.add(e)
                terms.append(f"{rng.randint(1, 4)}*{_monomial(XYZW, e)}")
        out.append(" + ".join(terms))
    return out


def test_seven_term_germs_agree_with_oracle():
    # the oracle is the expensive side here (about 2 s for these four)
    for text in _seven_term_germs(random.Random(1), 4):
        f = P(text)
        try:
            dim, _ = stabilized_oracle_dim(jacobian_ideal(f, with_f=True))
        except ValueError:
            continue  # no stabilization below cutoff 40
        assert tjurina_number(f) == dim, text


# ---------------------------------------------------------------- staircase counting


def _box_count_and_top(leads, nvars):
    """Brute force: enumerate the box below the pure powers and test every
    monomial in it against every lead.  (count, top degree) of the
    monomials outside, top -1 when there is none; (INFINITE, None) when
    some variable has no pure power."""
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in leads if not any(x for j, x in enumerate(e) if j != i)]
        if not pure:
            return INFINITE, None
        bounds.append(min(pure))
    outside = [m for m in itertools.product(*(range(b) for b in bounds))
               if not any(all(a <= b for a, b in zip(e, m)) for e in leads)]
    return len(outside), max(map(sum, outside), default=-1)


def _random_monomial_ideal(nvars, rng, all_pure_powers):
    """Pure powers of degree 1..6 (all of them, or all but one) plus up to
    five mixed monomials with exponents 0..5, in arbitrary order."""
    leads = []
    missing = None if all_pure_powers else rng.randrange(nvars)
    for i in range(nvars):
        if i != missing:
            leads.append(tuple(rng.randint(1, 6) if j == i else 0 for j in range(nvars)))
    for _ in range(rng.randint(0, 5) if nvars > 1 else 0):
        e = tuple(rng.randint(0, 5) for _ in range(nvars))
        if sum(map(bool, e)) > 1:
            leads.append(e)
    rng.shuffle(leads)
    return leads


# one variable without its pure power would be the zero ideal
@pytest.mark.parametrize("nvars,all_pure_powers", [
    (1, True), (2, True), (3, True), (4, True), (2, False), (3, False), (4, False)])
def test_staircase_count_and_corner_match_box_enumeration(nvars, all_pure_powers):
    rng = random.Random(100 * nvars + all_pure_powers)
    vars = XYZW[:nvars]
    for _ in range(40):
        leads = _random_monomial_ideal(nvars, rng, all_pure_powers)
        sb = standard_basis(LocalIdeal(vars, [Poly(vars, {e: 1}) for e in leads]))
        count, top = _box_count_and_top(leads, nvars)
        assert quotient_dim(sb) == count, leads
        assert sb.corner == (None if top is None else top + 1), leads
        if not all_pure_powers:
            assert count == INFINITE


@pytest.mark.parametrize("text", [t for t, _ in TAU_TABLE] + [
    PINNED_GERM, "x^2 + y^2", "x^2 * y^2", "x^3 + y^2*z + w^2"])
@pytest.mark.parametrize("with_f", [True, False])
def test_quotient_dim_infinite_iff_no_corner(text, with_f):
    sb = standard_basis(jacobian_ideal(P(text), with_f))
    assert (quotient_dim(sb) == INFINITE) == (sb.corner is None)


def test_fermat_of_degree_40_counts_without_enumeration():
    f = P("x^40 + y^40 + z^40 + w^40")
    assert tjurina_number(f) == milnor_number(f) == 39 ** 4
