import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from singkit.errors import ConfigError, LocalWorkLimitError
from singkit.localring import (
    FIRST_ATTEMPT_WORK,
    INFINITE,
    LOCAL_WORK_LIMIT,
    LocalIdeal,
    _engines,
    _entry,
    _fermat_weights,
    _germ_basis,
    _Keys,
    _Work,
    _misses_an_axis,
    _primitive,
    _product_criterion,
    _staircase,
    _tail_lead,
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


def _normal_form(h, sb, reducers=None):
    """Mora normal form of the terms h against `reducers` (term dicts,
    default sb's minimal monic basis) as standard_basis runs it: primitive
    integer polynomials keyed in sb's order, cut at sb's corner."""
    keys = _Keys(sb.weights)
    pool = [_entry(keys.keyed(_primitive(g)))
            for g in reducers or [b.terms for b in sb.basis]]
    return mora_normal_form(keys.keyed(_primitive(h)), pool, sb.corner,
                            _Work(LOCAL_WORK_LIMIT))


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
        rem = _normal_form(h.terms, sb)
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


def leading_exponent(terms):
    """The lead of plain exponent terms under unit weights: least total
    degree, then reverse lex."""
    return min(terms, key=lambda e: (sum(e), e[::-1]))


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
    rng = random.Random(23)
    for _ in range(15):
        h = _random_member(ideal.generators, rng)
        if h.is_zero():
            continue
        assert not _normal_form(h.terms, sb)


# ---------------------------------------------------------------- theorem-based properties


def _monomial(vars, exps):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(vars, exps) if e)


def _random_plane_germ(vars, rng, extra=2, top=6):
    """x^a + y^b plus `extra` random monomials of degree 2..top: often not
    quasi-homogeneous, sometimes not isolated."""
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    terms = [f"{vars[0]}^{a}", f"{vars[1]}^{b}"]
    for _ in range(extra):
        d = rng.randint(2, top)
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


def _recursive_staircase(leads, nvars, weights=None):
    """`_staircase` recursing down to zero variables, as it did before its
    two-variable sweep: the reference for the sweep."""
    if any(not any(e) for e in leads):
        return 0, -1
    if not leads:
        return (None, None) if nvars else (1, 0)
    w, rest = (1, None) if weights is None else (weights[0], weights[1:])
    count, top = 0, -1
    cuts = sorted({0, *(e[0] for e in leads)})
    for a, b in zip(cuts, cuts[1:] + [None]):
        sub, sub_top = _recursive_staircase([e[1:] for e in leads if e[0] <= a], nvars - 1, rest)
        if sub is None or (b is None and sub):
            return None, None
        if sub:
            count += (b - a) * sub
            top = max(top, (b - 1) * w + sub_top)
    return count, top


def test_staircase_sweep_matches_the_recursion():
    rng = random.Random(2102)
    kinds = set()
    for _ in range(20000):
        n = rng.randint(1, 5)
        leads = [tuple(rng.randint(1, 7) if j == i else 0 for j in range(n))
                 for i in range(n) if rng.random() < 0.9]
        leads += [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(0, 6))]
        rng.shuffle(leads)
        weights = None if rng.random() < 0.5 else _random_weights(n, rng)
        got = _staircase(leads, n, weights)
        assert got == _recursive_staircase(leads, n, weights), (leads, weights)
        kinds.add((n, got[0] is None))
    assert kinds == {(n, infinite) for n in range(1, 6) for infinite in (True, False)}


@pytest.mark.parametrize("text", [t for t, _ in TAU_TABLE] + [
    PINNED_GERM, "x^2 + y^2", "x^2 * y^2", "x^3 + y^2*z + w^2"])
@pytest.mark.parametrize("with_f", [True, False])
def test_quotient_dim_infinite_iff_no_corner(text, with_f):
    sb = standard_basis(jacobian_ideal(P(text), with_f))
    assert (quotient_dim(sb) == INFINITE) == (sb.corner is None)


def test_fermat_of_degree_40_counts_without_enumeration():
    f = P("x^40 + y^40 + z^40 + w^40")
    assert tjurina_number(f) == milnor_number(f) == 39 ** 4


# ---------------------------------------------------------------- pair criteria
# The next four tests ran past 10 s before the pair criteria: the normal
# form of an S-pair with coprime leads never returned.

def test_thom_sebastiani_reproducer_of_the_pre_corner_cliff():
    f, g = "x^3 + y^2 + 2*x^4*y^3 + 2*x*y^2 + x^2*y^2", "z^6 + w^4 + 3*z^6*w + z*w^2 + z^2*w^3"
    assert milnor_number(parse_polynomial(f, ("x", "y"))) == 2
    assert milnor_number(parse_polynomial(g, ("z", "w"))) == 7
    assert milnor_number(P(f"{f} + {g}")) == 14


def _linear_change(f, rows):
    """f with x_i replaced by sum_j rows[i][j] * x_j."""
    vars = f.vars
    return f.substitute({v: sum((Poly.const(vars, c) * Poly.var(vars, u)
                                 for c, u in zip(row, vars)), Poly.zero(vars))
                         for v, row in zip(vars, rows)})


def test_d5_coordinate_change_reproducer_of_the_pre_corner_cliff():
    xyz = ("x", "y", "z")
    d5 = parse_polynomial("x^2 + y^2*z + z^4", xyz)
    h = _linear_change(d5, [(1, Fraction(1, 2), -2), (-2, 1, -1), (2, -2, 2)])
    assert h == parse_polynomial(
        "16*x^4 - 64*x^3*y + 64*x^3*z + 96*x^2*y^2 - 192*x^2*y*z + 96*x^2*z^2"
        " - 64*x*y^3 + 192*x*y^2*z - 192*x*y*z^2 + 64*x*z^3 + 16*y^4 - 64*y^3*z"
        " + 96*y^2*z^2 - 64*y*z^3 + 16*z^4 + 8*x^3 - 16*x^2*y + 16*x^2*z + 10*x*y^2"
        " - 20*x*y*z + 10*x*z^2 - 2*y^3 + 6*y^2*z - 6*y*z^2 + 2*z^3 + x^2 + x*y"
        " - 4*x*z + 1/4*y^2 - 2*y*z + 4*z^2", xyz)
    assert milnor_number(d5) == milnor_number(h) == 5


def test_thom_sebastiani_with_three_extra_monomials():
    # as test_thom_sebastiani, with three extra monomials of degree up to 7
    # per factor; four of these ten sums used to hang
    rng = random.Random(4)
    xy, zw = ("x", "y"), ("z", "w")
    for _ in range(10):
        f, g = _random_plane_germ(xy, rng, 3, 7), _random_plane_germ(zw, rng, 3, 7)
        mu_f = milnor_number(parse_polynomial(f, xy))
        mu_g = milnor_number(parse_polynomial(g, zw))
        assert milnor_number(P(f"{f} + {g}")) == mu_f * mu_g, (f, g)


def _det(rows):
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


@pytest.mark.parametrize("text,mu,tau", [
    ("x^4 + y^2 + z^2", 3, 3), ("x^2*y + y^3 + z^2", 4, 4), ("x^2 + y^2*z + z^4", 5, 5),
    ("x^3 + y^4 + z^2", 6, 6), ("x^3 + x*y^3 + z^2", 7, 7), ("x^3 + y^5 + z^2", 8, 8),
    ("x^2 + y^3 + z^2*w + w^4", 10, 10), ("x^2 + y^2 + z^2 + w^6", 5, 5),
    ("x^3 + y^3 + z^3 + w^3 + x*y*z*w", 16, 15),
    ("x^2 + y^2 + z^5 - w^5 + z^3*w^3", 16, 15),
])
def test_coordinate_invariance(text, mu, tau):
    # mu and tau of known germs survive seeded rational linear changes
    vars = XYZW if "w" in text else ("x", "y", "z")
    f = parse_polynomial(text, vars)
    rng = random.Random(text)
    for _ in range(2):
        while True:
            rows = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in vars]
                    for _ in vars]
            if _det(rows):
                break
        h = _linear_change(f, rows)
        assert (milnor_number(h), tjurina_number(h)) == (mu, tau), rows


def test_product_criterion_guard_keeps_the_pair():
    # leads x, y are coprime, but the tails lead with x*z and y*z, so
    # LM(t_f)*y = LM(t_g)*x = x*y*z and the two products cancel:
    # spoly = y^4 - x^4 is not the difference of the two products' leads
    xyz = ("x", "y", "z")
    f, g = parse_polynomial("x + x*z + y^3", xyz), parse_polynomial("y + y*z + x^3", xyz)
    keys = _Keys((1, 1, 1))  # the kernel's monomial keys
    lf, lg = keys.key((1, 0, 0)), keys.key((0, 1, 0))
    tf, tg = _tail_lead(keys.keyed(f.terms), lf), _tail_lead(keys.keyed(g.terms), lg)
    assert not _product_criterion(lf, tf, lg, tg)
    ideal = LocalIdeal(xyz, [f, g, parse_polynomial("z^6", xyz)])
    sb = standard_basis(ideal)
    # (f, g) is reduced; (f, z^6) and (g, z^6) have lcm degree 7 > corner 6
    counts = (sb.normal_forms, sb.product_skips, sb.chain_skips, sb.left_at_corner)
    assert counts == (1, 0, 0, 2)
    assert quotient_dim(sb) == stabilized_oracle_dim(ideal)[0]


def test_product_criterion_skips_coprime_leads_with_distinct_tail_products():
    xyz = ("x", "y", "z")
    keys = _Keys((1, 1, 1))

    def tail_lead(text, lead):
        return _tail_lead(keys.keyed(P(text, xyz).terms), lead)
    lf, lg, lh = map(keys.key, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    tf, tg = tail_lead("x + y^2", lf), tail_lead("y + 2*x*z", lg)
    assert _product_criterion(lf, tf, lg, tg)
    assert not _product_criterion(lf, tf, lh, tail_lead("x*y + z^3", lh))


def _random_isolated_ideal(vars, rng):
    """A pure power of every variable, with a random tail, plus two or
    three generators of which about a third are m + c*m*x_i + higher
    terms: lead-in-tail elements."""
    n = len(vars)
    gens = []
    for i in range(n):
        g = {tuple(rng.randint(2, 5) if j == i else 0 for j in range(n)): 1}
        e = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(e) > max(map(sum, g)):
            g[e] = rng.choice((1, -1, 2))
        gens.append(g)
    for _ in range(rng.randint(2, 3)):
        m = tuple(rng.randint(0, 2) for _ in range(n))
        if not any(m):
            m = tuple(j == 0 for j in range(n))
        g = {m: rng.choice((1, 2, -3))}
        if rng.random() < 0.35:
            i = rng.randrange(n)
            g[tuple(a + (j == i) for j, a in enumerate(m))] = rng.choice((1, -1, 2))
        for _ in range(rng.randint(0, 2)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(e) > sum(m):
                g[e] = g.get(e, 0) + rng.choice((1, -2, 3))
        gens.append({e: c for e, c in g.items() if c})
    rng.shuffle(gens)
    return LocalIdeal(vars, [Poly(vars, g) for g in gens])


@pytest.mark.parametrize("nvars", [2, 3])
def test_random_isolated_ideals_agree_with_oracle(nvars):
    rng = random.Random(60 + nvars)
    vars = XYZW[:nvars]
    for _ in range(15 if nvars == 2 else 8):
        ideal = _random_isolated_ideal(vars, rng)
        assert quotient_dim(standard_basis(ideal)) == stabilized_oracle_dim(ideal)[0], ideal


def test_brieskorn_milnor_ideal_runs_no_normal_form():
    # monomial generators: every tail is empty, every pair is skipped
    sb = standard_basis(jacobian_ideal(P("x^2 + y^3 + z^4 + w^5")))
    # five pairs are skipped; (z^3, w^4) has lcm degree 7 = corner
    counts = (sb.normal_forms, sb.product_skips, sb.chain_skips, sb.left_at_corner)
    assert counts == (0, 5, 0, 1)
    assert quotient_dim(sb) == 24


def test_pinned_germ_takes_every_pair_outcome():
    sb = standard_basis(jacobian_ideal(P(PINNED_GERM), with_f=True))
    assert min(sb.normal_forms, sb.product_skips, sb.chain_skips, sb.left_at_corner) > 0


def _vanishes_on_an_axis(gens, vars):
    """Brute force: some x_j such that every generator is zero after
    setting the other variables to 0."""
    return any(all(g.substitute({u: 0 for u in vars if u != v}).is_zero() for g in gens)
               for v in vars)


@pytest.mark.parametrize("nvars", [2, 3])
def test_axis_certificate_against_brute_force(nvars):
    rng = random.Random(70 + nvars)
    vars = XYZW[:nvars]
    fired = finite = 0
    for _ in range(40):
        # a pure power of most variables, and two mixed monomials
        terms = {tuple(rng.randint(2, 5) if j == i else 0 for j in range(nvars)): 1
                 for i in range(nvars) if rng.random() < 0.8}
        for _ in range(2):
            e = tuple(rng.randint(0, 3) for _ in vars)
            if sum(e) >= 2:
                terms[e] = rng.choice((1, 2, -1))
        f = Poly(vars, terms)
        if f.is_zero():
            continue
        for with_f in (True, False):
            ideal = jacobian_ideal(f, with_f)
            gens = ideal.generators
            certified = _misses_an_axis([g.terms for g in gens], nvars)
            assert certified == _vanishes_on_an_axis(gens, vars), f
            fired += certified
            start = max(g.total_degree() for g in gens) + 2
            try:
                stabilized_oracle_dim(ideal, start, start + 3)
            except ValueError:
                continue  # undecided within three cutoffs
            finite += 1
            assert not certified, f
    assert fired and finite, (fired, finite)


# ---------------------------------------------------------------- one-pass oracle


def _per_cutoff_oracle_dim(ideal, start=None, limit=40):
    """The oracle's former route: one elimination per cutoff."""
    if start is None:
        start = max(g.total_degree() for g in ideal.generators) + 2
    prev = truncated_dim_oracle(ideal, start)
    n = start
    while n < limit:
        nxt = truncated_dim_oracle(ideal, n + 1)
        if nxt == prev:
            return prev, n
        prev = nxt
        n += 1
    raise ValueError(f"no stabilization up to cutoff {limit} (non-isolated?)")


@pytest.mark.parametrize("text,with_f,start,limit", [
    (t, wf, None, 40) for t, _ in TAU_TABLE[:6] for wf in (True, False)] + [
    (PINNED_GERM, True, None, 40), (PINNED_GERM, False, 2, 40),
    ("x^2 + y^2 + z^2 + w^8", False, 1, 40), ("x^2 + y^2 + z^2 + w^8", False, 3, 6),
    ("x^2 + y^2 + z^2 + w^8", False, 3, 3), ("x^2 + y^2 + z^2 + w^8", False, 5, 4),
    ("x^2 * y^2 + z^2 + w^2", True, None, 9),
])
def test_one_pass_oracle_matches_per_cutoff_route(text, with_f, start, limit):
    ideal = jacobian_ideal(P(text), with_f)
    try:
        want = _per_cutoff_oracle_dim(ideal, start, limit)
    except ValueError as exc:
        with pytest.raises(ValueError, match="no stabilization") as got:
            stabilized_oracle_dim(ideal, start, limit)
        assert str(got.value) == str(exc)
    else:
        assert stabilized_oracle_dim(ideal, start, limit) == want


# ---------------------------------------------------------------- fraction-free kernel

# coefficients with denominators 1, 2, 3 and 7
RATIONALS = [Fraction(p, q) for p in (1, -1, 2, -3, 5) for q in (1, 2, 3, 7)]


def _random_rational_ideal(rng):
    """An ideal in 2..4 variables with rational coefficients, isolated by
    construction.  Half are the Tjurina or Milnor ideal of a pure power of
    every variable plus two to four monomials above the Newton boundary
    (Fermat-weighted degree > 1, so the germ is semi-quasihomogeneous).
    The others hold a pure power of every variable with a random tail,
    plus two or three generators of low degree, some with their lead
    times a variable in the tail, so that Mora's division runs with
    ecart."""
    n = rng.randint(2, 4)
    vars = XYZW[:n]
    a = [rng.randint(2, 6) for _ in range(n)]
    terms = {tuple(a[i] if j == i else 0 for j in range(n)): rng.choice(RATIONALS)
             for i in range(n)}
    if rng.random() < 0.5:
        for _ in range(rng.randint(2, 4)):
            e = tuple(rng.randint(0, ai) for ai in a)
            if sum(map(bool, e)) > 1 and sum(map(Fraction, e, a)) > 1:
                terms[e] = terms.get(e, 0) + rng.choice(RATIONALS)
        return jacobian_ideal(Poly(vars, terms), with_f=rng.random() < 0.5)
    gens = []
    for e, c in terms.items():
        tail = tuple(rng.randint(0, 3) for _ in range(n))
        gens.append({e: c, tail: rng.choice(RATIONALS)} if sum(tail) > sum(e) else {e: c})
    for _ in range(rng.randint(2, 3)):
        m = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(m) < 2:
            m = (1, 1) + m[2:]
        g = {m: rng.choice(RATIONALS)}
        if rng.random() < 0.4:
            i = rng.randrange(n)
            g[tuple(x + (j == i) for j, x in enumerate(m))] = rng.choice(RATIONALS)
        for _ in range(rng.randint(0, 2)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(e) > sum(m):
                g[e] = g.get(e, 0) + rng.choice(RATIONALS)
        gens.append(g)
    rng.shuffle(gens)
    return LocalIdeal(vars, [Poly(vars, g) for g in gens])


def _basis_record(sb):
    counts = (sb.normal_forms, sb.product_skips, sb.chain_skips, sb.left_at_corner)
    return repr((sb.leading_exponents, sb.corner, counts, [str(b) for b in sb.basis]))


# sha256 of the records of each batch of 30 ideals, first 16 hex digits,
# recorded with the Fraction kernel that the fraction-free one replaced
RATIONAL_BATCH_DIGESTS = [
    "42a473e1a4cfd55b", "b6c601ab5d1924a7",
    "5448eb0f1d0b0035", "33e17a9619630541",
    "eb0de114d91c83f6", "c4a8fd4761f9b064",
    "5e78b7fefcd90ea1", "e63a5c9ca6580c73",
    "0b15c5d003b76d1b", "db5adf94da1b5396",
]


@pytest.mark.parametrize("batch", range(10))
def test_random_rational_ideals_match_recorded_bases(batch):
    rng = random.Random(f"rational/{batch}")
    digest = hashlib.sha256()
    for _ in range(30):
        digest.update(_basis_record(standard_basis(_random_rational_ideal(rng))).encode())
    assert digest.hexdigest()[:16] == RATIONAL_BATCH_DIGESTS[batch]


def _seeded_ideals():
    """The seeded ideals of the tests above: the Tjurina and Milnor ideals
    of the table, random isolated ideals, random monomial ideals with and
    without every pure power, and the rational ideals of the first batch."""
    for text, _ in TAU_TABLE + [(PINNED_GERM, None), ("x^2 + y^2", None)]:
        for with_f in (True, False):
            yield jacobian_ideal(P(text), with_f)
    for nvars in (2, 3):
        rng = random.Random(60 + nvars)
        for _ in range(15 if nvars == 2 else 8):
            yield _random_isolated_ideal(XYZW[:nvars], rng)
    for nvars in (2, 3, 4):
        for all_pure_powers in (True, False):
            rng = random.Random(100 * nvars + all_pure_powers)
            vars = XYZW[:nvars]
            for _ in range(10):
                leads = _random_monomial_ideal(nvars, rng, all_pure_powers)
                yield LocalIdeal(vars, [Poly(vars, {e: 1}) for e in leads])
    rng = random.Random("rational/0")
    for _ in range(30):
        yield _random_rational_ideal(rng)


def test_colength_is_the_staircase_count_of_the_leads():
    infinite = 0
    for ideal in _seeded_ideals():
        sb = standard_basis(ideal)
        assert sb.colength == _staircase(sb.leading_exponents, len(ideal.vars))[0], ideal
        infinite += sb.colength is None
    assert infinite


def test_tail_leads_follow_the_cut_at_the_corner():
    # z^3 sets the corner to 3 and cuts both tails away, so the pair
    # (x, y) is skipped by the product criterion; with the uncut tail
    # leads x*z^5 and y*z^5 the two tail products would be equal
    xyz = ("x", "y", "z")
    sb = standard_basis(LocalIdeal(xyz, [P(t, xyz) for t in ("x + x*z^5", "y + y*z^5", "z^3")]))
    assert sb.corner == 3 and [str(b) for b in sb.basis] == ["x", "y", "z^3"]
    assert (sb.normal_forms, sb.product_skips, sb.chain_skips, sb.left_at_corner) == (0, 1, 0, 2)


def _members_and_fraction_reducers():
    """(member, Fraction reducers, standard basis): random members of the
    seeded ideals with rational multipliers, and the basis scaled by
    rationals with denominators."""
    rng = random.Random(29)
    fractions = [r for r in RATIONALS if r.denominator > 1]
    for ideal in itertools.islice(_seeded_ideals(), 0, None, 3):
        sb = standard_basis(ideal)
        basis = [{e: s * c for e, c in b.terms.items()}
                 for s, b in zip(rng.choices(fractions, k=len(sb.basis)), sb.basis)]
        for _ in range(3):
            # a random combination sum c_i * m_i * g_i with rational c_i
            h = Poly.zero(ideal.vars)
            for g in ideal.generators:
                e = tuple(rng.randint(0, 2) for _ in ideal.vars)
                h = h + Poly(ideal.vars, {e: rng.choice(fractions)}) * g
            if not h.is_zero():
                yield dict(h.terms), basis, sb


def test_fraction_reducers_with_denominators_reduce_members_to_zero():
    # Fraction dicts, converted to primitive integer polynomials on entry
    checked = 0
    for h, basis, sb in _members_and_fraction_reducers():
        assert _normal_form(h, sb, basis) == {}, sb.ideal
        checked += 1
    assert checked > 50


def test_thirty_digit_coefficients_agree_with_oracle():
    big = [int("7" * 30) + 3, -int("31" * 15), int("1" + "0" * 29) + 7, int("9" * 30)]
    f = Poly(XYZW[:3], {(4, 0, 0): Fraction(big[0], 7), (0, 5, 0): big[1], (0, 0, 3): 1,
                        (2, 1, 1): Fraction(big[2], big[3]), (1, 3, 0): big[0],
                        (3, 0, 1): Fraction(-1, big[1])})
    tau, mu = tjurina_number(f), milnor_number(f)
    assert tau == stabilized_oracle_dim(jacobian_ideal(f, with_f=True))[0]
    assert mu == stabilized_oracle_dim(jacobian_ideal(f))[0]
    assert (tau, mu) == (16, 18)


# ---------------------------------------------------------------- weighted orders

# Germs on which the unit-weight order ran past 20 s before the weighted
# engine: their partials lead with mixed monomials, so nothing is cut.
CLIFF_GERMS = [
    (("x", "y", "z"),
     "-1/2*x*y^3*z^2 - 3*x^5 + 1/2*x^2*y^3 + 2/7*y^4 + 5*z^4 - 1/7*x*y^2 - 3*x*y*z", 12),
    (XYZW, "2*y^3*z^2*w^3 + x^5 + 2*x^2*z*w + 1/3*w^4 + 1/7*y^3 + 2/7*z^3", 46),
    (XYZW, "x^3*y^3*z^2*w + x*z^2*w^3 + 3/7*w^6 + 2*y^5 + z^2*w^3 + x^2*z^2 + 5/7*z^4"
           " - 1/7*x*y*w + 5*x^2", 36),
]
GERM_115 = ("-x*y^3*z*w^3 + y^6 - y^2*z^2*w^2 + x^5 + 1/3*w^5 + 2/7*x^2*z*w"
            " + 2*x*y*z*w - 3/2*y*z^2*w + 1/2*z^3")
# Fermat weights miss this one: x^2*z has weight 8 < 12 = L
UNIT_ENGINE_GERM = "3/7*z^6 + 1/7*x^3*y*z + x^4 - 3/7*x*y*z^2 + 2/7*y^4 + x^2*z"


@pytest.mark.parametrize("vars,text,mu", CLIFF_GERMS)
def test_cliff_germs_answer_with_fermat_weights(vars, text, mu):
    f = parse_polynomial(text, vars)
    ideal = jacobian_ideal(f)
    sb, attempts = _germ_basis(_engines(_fermat_weights(f)), lambda w: [ideal])
    assert sb.weights == _fermat_weights(f) and attempts == 1
    assert milnor_number(f) == quotient_dim(sb) == mu
    assert stabilized_oracle_dim(ideal)[0] == mu


def test_milnor_number_of_the_115_germ(monkeypatch):
    # The oracle runs past 10 s on this mu, so it is not checked here.  115
    # is trusted because two independent bounds meet there: the colength of
    # the unit-weight kernel over F_p (p = 2^31 - 1), an upper bound for the
    # colength over Q, is 115; and the colength of J + (x^12, y^12, z^12,
    # w^12), a lower bound, is 114.  The oracle confirms tau = 92 (in about
    # 2 s, so not here either).  milnor_number is quotient_dim of this basis,
    # reached by the same engine, attempts and work.
    f = P(GERM_115)
    sb, attempts = _germ_basis(_engines(_fermat_weights(f)), lambda w: [jacobian_ideal(f)])
    assert (quotient_dim(sb), sb.weights) == (115, (6, 5, 10, 6))
    assert attempts > 2  # the unit engine had its turns first
    assert _germ_route(monkeypatch, f, False) == (115, _run_record(sb, attempts))
    assert tjurina_number(f) == 92


def test_germ_that_fermat_weights_miss_is_answered_by_the_unit_engine():
    xyz = ("x", "y", "z")
    f = parse_polynomial(UNIT_ENGINE_GERM, xyz)
    assert _engines(_fermat_weights(f)) == ((3, 3, 2), None)
    sb, attempts = _germ_basis(_engines(_fermat_weights(f)), lambda w: [jacobian_ideal(f)])
    assert (quotient_dim(sb), sb.weights, attempts) == (21, (1, 1, 1), 2)
    assert sb.work < FIRST_ATTEMPT_WORK
    assert milnor_number(f) == 21


def test_an_engine_makes_its_inputs_when_its_first_turn_comes(monkeypatch):
    # the Fermat engine answers tau of the cliff germs in its first
    # attempt, so the unit engine's Euler remainder is never built; mu of
    # the germ that Fermat weights miss reaches the unit engine
    import singkit.localring as localring
    asked = []

    def recording(engines, inputs):
        return _germ_basis(engines, lambda w: asked.append(w) or inputs(w))
    monkeypatch.setattr(localring, "_germ_basis", recording)
    for vars, text, _ in CLIFF_GERMS:
        f = parse_polynomial(text, vars)
        asked.clear()
        tjurina_number(f)
        assert asked == [_fermat_weights(f)], text
    asked.clear()
    milnor_number(parse_polynomial(UNIT_ENGINE_GERM, ("x", "y", "z")))
    assert asked == [(3, 3, 2), None]


def test_engines_need_a_pure_power_of_every_variable_and_unequal_weights():
    assert _engines(_fermat_weights(P("x^2 + y^3 + z^4 + w^5"))) == ((30, 20, 15, 12), None)
    assert _engines(_fermat_weights(P("x^3 + y^3 + z^3 + w^3 + x*y*z*w"))) == (None,)  # all weights equal
    assert _engines(_fermat_weights(P("x^2*y + y^3 + z^2 + w^2"))) == (None,)  # no pure power of x
    # the least pure power of a variable counts
    assert _fermat_weights(P("x^2 + x^5 + y^3 + z^2 + w^2")) == (3, 2, 3, 3)


def _random_weights(n, rng):
    return tuple(rng.randint(1, 4) for _ in range(n))


def _random_member_of(ideal, rng):
    """A random combination sum c_i * x^e_i * g_i of the generators."""
    h = Poly.zero(ideal.vars)
    for g in ideal.generators:
        e = tuple(rng.randint(0, 2) for _ in ideal.vars)
        h = h + Poly(ideal.vars, {e: rng.randint(-3, 3)}) * g
    return h


@pytest.mark.parametrize("nvars", [2, 3])
def test_weighted_standard_bases_agree_with_oracle(nvars):
    rng = random.Random(80 + nvars)
    vars = XYZW[:nvars]
    for _ in range(20 if nvars == 2 else 10):
        ideal = _random_isolated_ideal(vars, rng)
        weights = tuple(rng.randint(1, 4) for _ in vars)
        sb = standard_basis(ideal, weights=weights)
        assert sb.weights == weights
        assert quotient_dim(sb) == stabilized_oracle_dim(ideal)[0], (ideal, weights)
        # the corner is one more than the weighted top of the staircase,
        # and members of the ideal reduce to zero under the same order
        count, top = _staircase(sb.leading_exponents, nvars, weights)
        assert (count, top + 1) == (sb.colength, sb.corner)
        for _ in range(3):
            h = _random_member_of(ideal, rng)
            if not h.is_zero():
                assert _normal_form(h.terms, sb) == {}


def test_colength_does_not_depend_on_the_weights():
    rng = random.Random(90)
    for ideal in _seeded_ideals():
        weights = tuple(rng.randint(1, 5) for _ in ideal.vars)
        assert quotient_dim(standard_basis(ideal, weights=weights)) == \
            quotient_dim(standard_basis(ideal)), (ideal, weights)


def test_unit_weights_are_the_default_order():
    rng = random.Random("rational/0")
    for _ in range(10):
        ideal = _random_rational_ideal(rng)
        default = standard_basis(ideal)
        unit = standard_basis(ideal, weights=(1,) * len(ideal.vars))
        assert _basis_record(unit) == _basis_record(default)
        assert default.weights == (1,) * len(ideal.vars)


def test_weights_are_checked():
    ideal = jacobian_ideal(P("x^2 + y^3 + z^4 + w^5"))
    for bad in [(1, 2, 3), (1, 2, 3, 0), (1, 2, 3, Fraction(1, 2))]:
        with pytest.raises(ValueError, match="positive integers"):
            standard_basis(ideal, weights=bad)


def test_repeated_call_is_answered_by_the_same_engine_with_the_same_counts():
    def record(text, vars):
        f = parse_polynomial(text, vars)
        sb, attempts = _germ_basis(_engines(_fermat_weights(f)), lambda w: [jacobian_ideal(f)])
        return (sb.weights, attempts, sb.work, _basis_record(sb))
    for vars, text, _ in CLIFF_GERMS + [(("x", "y", "z"), UNIT_ENGINE_GERM, 21)]:
        assert record(text, vars) == record(text, vars)


def test_local_work_limit_caps_every_attempt_together(monkeypatch):
    import singkit.localring as localring
    calls = []

    def recording(ideal, *, weights=None, work=None):
        calls.append((weights, work.left))
        return standard_basis(ideal, weights=weights, work=work)
    monkeypatch.setattr(localring, "standard_basis", recording)
    monkeypatch.setattr(localring, "LOCAL_WORK_LIMIT", 50_000)
    with pytest.raises(LocalWorkLimitError, match="over 50000 units"):
        milnor_number(P(GERM_115))
    given = [n for _, n in calls]
    assert given[:4] == [4096, 4096, 8192, 8192]
    # only the last attempt is given all that is left (n == left), and
    # its LocalWorkLimitError ends the number
    assert sum(given) == 50_000
    assert [n == 50_000 - sum(given[:i]) for i, n in enumerate(given)] == \
        [False] * (len(given) - 1) + [True]
    assert [w for w, _ in calls][:2] == [(6, 5, 10, 6), None]


def test_a_step_costs_terms_times_lead_and_multiplier_words():
    c = 2**130 + 1  # 131 bits: 1 + 131 // 64 = 3 words
    keys = _Keys((1, 1, 1))
    reducers = [_entry(keys.keyed(g)) for g in ({(1, 0, 0): c, (0, 2, 0): 1}, {(0, 1, 0): 1})]
    work = _Work(100)
    h = mora_normal_form(keys.keyed({(1, 0, 0): 1, (0, 1, 0): 1}), reducers, None, work)
    assert h == {}
    # x + y against c*x + y^2 (multiplier c): 2 terms * 1 * 3; then
    # c*y - y^2 (lead coefficient c) against y (multiplier 1): 2 * 3 * 1;
    # then -y^2 against y: 1
    assert 100 - work.left == 6 + 6 + 1


NON_ISOLATED = ["3*x^4*y^4*z^2 + 2*x^3*y^2*z^3 + 3*x^2*y^4*z^2 + 2*x^2*y^2*z^3", "y^5",
                "x^2*y*z^3 - y^4*z + 2*y^3*z",
                "-2*x^4*y^2*z^3 + x^2*y*z^3 + x*y*z^4 - 3*x*y*z^3"]


def test_local_work_limit_ends_a_standard_basis_that_would_not(monkeypatch):
    # a non-isolated ideal that the axis certificate does not see: its
    # standard basis ran past 30 s before the limit; with the limit in
    # place it ends with LocalWorkLimitError (about 2 s at the real limit)
    import singkit.localring as localring
    monkeypatch.setattr(localring, "LOCAL_WORK_LIMIT", 200_000)
    xyz = ("x", "y", "z")
    ideal = LocalIdeal(xyz, [parse_polynomial(t, xyz) for t in NON_ISOLATED])
    with pytest.raises(LocalWorkLimitError):
        quotient_dim(standard_basis(ideal))


# ---------------------------------------------------------------- integer generators from the germ


def _poly_generators(f, with_f):
    """The Poly generators that tau (with f) and mu are the colengths of:
    f and its nonzero partials."""
    gens = ([f] if with_f else []) + [f.differentiate(v) for v in f.vars]
    return [g for g in gens if not g.is_zero()]


def _euler_remainder(f, w):
    """L*f - sum w_i x_i df/dx_i as a Poly, for the weights w (None: unit
    weights) and L the least degree of f's terms under them."""
    n = len(f.vars)
    w = w or (1,) * n
    r = f * min(sum(a * b for a, b in zip(w, e)) for e in f.terms)
    for i, v in enumerate(f.vars):
        x_i = Poly(f.vars, {tuple(int(j == i) for j in range(n)): w[i]})
        r = r - x_i * f.differentiate(v)
    return r


def _kernel_inputs(f, with_f, w):
    """The Poly generator lists that the engine with weights w (None: unit
    weights) tries in turn: mu's partials; for tau f's Euler remainder for
    w with them (the partials alone where it is zero), then, unless it is,
    f with them."""
    jacobian = _poly_generators(f, False)
    if not with_f:
        return [jacobian]
    r = _euler_remainder(f, w)
    return [jacobian] if r.is_zero() else [[r] + jacobian, [f] + jacobian]


class _Stop(Exception):
    pass


def _germ_inputs(monkeypatch, f, with_f):
    """{engine weights: the primitive generator lists it tries in turn}, in
    the engines' order, as tjurina_number or milnor_number hands them to
    `_germ_basis`; None when the number is answered before it."""
    import singkit.localring as localring
    seen = {}

    def recording(engines, inputs):
        seen.update((w, [list(ideal._primitives) for ideal in inputs(w)]) for w in engines)
        raise _Stop
    with monkeypatch.context() as m:
        m.setattr(localring, "_germ_basis", recording)
        try:
            (tjurina_number if with_f else milnor_number)(f)
        except _Stop:
            return seen
    return None


def _rational_germs():
    """Seeded germs in x, y, z, w with rational coefficients: a pure power
    of most variables and two or three mixed terms; some leave a variable
    out of every term, some have a linear term."""
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 4)
        missing = rng.randrange(n) if rng.random() < 0.2 else None
        terms = {}
        for i in range(n):
            if i != missing and rng.random() < 0.85:
                terms[tuple(rng.randint(2, 5) if j == i else 0 for j in range(n))] = \
                    rng.choice(RATIONALS)
        for _ in range(rng.randint(2, 3)):
            e = tuple(0 if j == missing else rng.randint(0, 2) for j in range(n))
            if sum(e) >= 2:
                terms[e] = rng.choice(RATIONALS)
        if rng.random() < 0.15:
            i = rng.randrange(n)
            terms[tuple(int(j == i) for j in range(n))] = rng.choice(RATIONALS)
        if terms:
            yield Poly(XYZW[:n], terms)


def test_germ_generators_are_the_primitive_poly_generators(monkeypatch):
    kinds = set()
    germs = list(_rational_germs()) + [
        parse_polynomial(text, vars) for vars, text, _ in QUASI_HOMOGENEOUS_GERMS]
    for f in germs:
        for with_f in (True, False):
            inputs = _germ_inputs(monkeypatch, f, with_f)
            if inputs is None:
                kinds.add("answered before")
                continue
            assert list(inputs) == list(_engines(_fermat_weights(f))), f
            for w, lists in inputs.items():
                assert lists == [[_primitive(g.terms) for g in gens]
                                 for gens in _kernel_inputs(f, with_f, w)], (f, w)
                assert all(type(c) is int for gens in lists for g in gens for c in g.values())
                if with_f:
                    kinds.add(("unit" if w is None else "fermat", len(lists)))
    assert kinds == {"answered before", ("fermat", 1), ("fermat", 2), ("unit", 1), ("unit", 2)}


def _run_record(sb, attempts):
    counts = (sb.normal_forms, sb.product_skips, sb.chain_skips, sb.left_at_corner)
    return sb.weights, attempts, sb.work, counts


def _germ_route(monkeypatch, f, with_f):
    """(tau or mu, the run record of the answering engine or None): the
    number through tjurina_number or milnor_number, with the engine run
    recorded where it is made."""
    import singkit.localring as localring
    runs = []

    def recording(engines, inputs):
        sb, attempts = _germ_basis(engines, inputs)
        runs.append(_run_record(sb, attempts))
        return sb, attempts
    with monkeypatch.context() as m:
        m.setattr(localring, "_germ_basis", recording)
        value = (tjurina_number if with_f else milnor_number)(f)
    assert len(runs) <= 1
    return value, (runs[0] if runs else None)


def _poly_route(f, with_f, inputs):
    """The same from the Poly generator lists `inputs(w)` that the engine
    with weights w tries in turn, with the early answers checked by brute
    force."""
    gens = _poly_generators(f, with_f)
    if any(g.constant_term() for g in gens):
        return 0, None
    if _vanishes_on_an_axis(gens, f.vars):
        return INFINITE, None
    sb, attempts = _germ_basis(_engines(_fermat_weights(f)),
                               lambda w: [LocalIdeal(f.vars, g) for g in inputs(w)])
    return quotient_dim(sb), _run_record(sb, attempts)


# the germs of the README's table (mu of the 115-germ, which takes
# seconds, is compared in its own test above)
README_GERMS = [(vars, text, True) for vars, text, _ in CLIFF_GERMS] + [
    (vars, text, False) for vars, text, _ in CLIFF_GERMS] + [
    (XYZW, GERM_115, True),
    (("x", "y", "z"), UNIT_ENGINE_GERM, True), (("x", "y", "z"), UNIT_ENGINE_GERM, False)]


def test_tau_and_mu_match_the_poly_route_in_engine_attempts_and_work(monkeypatch):
    # the run is that of the kernel inputs' Poly generators; tau is also
    # the colength of (f) + J, an independent route with f itself
    answered = 0
    for f in _rational_germs():
        for with_f in (True, False):
            got = _germ_route(monkeypatch, f, with_f)
            assert got == _poly_route(f, with_f, lambda w: _kernel_inputs(f, with_f, w)), \
                (f, with_f)
            assert got[0] == _poly_route(f, with_f, lambda w: [_poly_generators(f, with_f)])[0], \
                (f, with_f)
            answered += got[1] is not None
    assert answered > 20
    for ambient, text, with_f in README_GERMS:
        f = parse_polynomial(text, ambient)
        got = _germ_route(monkeypatch, f, with_f)
        assert got == _poly_route(f, with_f, lambda w: _kernel_inputs(f, with_f, w)), text
        assert got[0] == _poly_route(f, with_f, lambda w: [_poly_generators(f, with_f)])[0], text


@pytest.mark.parametrize("number,name", [(tjurina_number, "Tjurina number"),
                                         (milnor_number, "Milnor number")])
def test_edge_germs_keep_their_answers_and_messages(number, name):
    with pytest.raises(ConfigError, match=rf"^{name} of the zero polynomial is undefined$"):
        number(Poly.zero(XYZW))
    with pytest.raises(ConfigError, match=r"^germ must vanish at the origin$"):
        number(P("1/2 + x^2 + y^2"))
    assert number(P("3/7*x + y^2")) == number(P("w^3 - 2*w")) == 0  # smooth
    assert number(P("x^2 + y^2 + 1/2*z^2")) == INFINITE  # w is free
    assert number(P("x^2*y^2 + z^2 + w^2")) == INFINITE


def test_tau_and_mu_build_no_basis(monkeypatch):
    # they read the colength only; the basis and its leads are built when
    # read, and then equal those of the Poly route
    import singkit.localring as localring
    made = []

    def recording(ideal, *, weights=None, work=None):
        made.append(standard_basis(ideal, weights=weights, work=work))
        return made[-1]
    monkeypatch.setattr(localring, "standard_basis", recording)
    for ambient, text, with_f in README_GERMS[:3] + README_GERMS[-2:] + [
            (XYZW, PINNED_GERM, True), (XYZW, PINNED_GERM, False)]:
        f = parse_polynomial(text, ambient)
        made.clear()
        (tjurina_number if with_f else milnor_number)(f)
        sb, = made
        assert not {"basis", "leading_exponents", "_minimal"} & set(vars(sb)), text
        gens = next(gens for w in _engines(_fermat_weights(f))
                    for gens in _kernel_inputs(f, with_f, w)
                    if [_primitive(g.terms) for g in gens] == list(sb.ideal._primitives))
        want = standard_basis(LocalIdeal(f.vars, gens), weights=sb.weights)
        assert _basis_record(sb) == _basis_record(want), text


def test_ideal_built_from_integers_has_generators_and_a_repr(monkeypatch):
    xyz = ("x", "y", "z")
    f = parse_polynomial("1/2*x^3 + 2/3*y^2 - z^2 + x*y*z", xyz)
    ideal = LocalIdeal._of(xyz, _germ_inputs(monkeypatch, f, True)[(2, 3, 3)][0])
    # under the Fermat weights (2, 3, 3) f's least degree is 6 and x*y*z has
    # degree 8, so the first input enters the Euler remainder -2*x*y*z
    assert repr(ideal) == "LocalIdeal(('x', 'y', 'z'), [-x*y*z, 3*x^2 + 2*y*z, 3*x*z + 4*y, x*y - 2*z])"
    poly_ideal = LocalIdeal(xyz, _kernel_inputs(f, True, (2, 3, 3))[0])
    assert [_primitive(g.terms) for g in ideal.generators] == \
        [_primitive(g.terms) for g in poly_ideal.generators]
    # the same kernel input, so the same basis; a Poly ideal converts its
    # generators once
    assert _basis_record(standard_basis(ideal)) == _basis_record(standard_basis(poly_ideal))
    assert poly_ideal._primitives is poly_ideal._primitives
    # the same ideal as (f) + J, so the same leads and colength
    with_f = standard_basis(LocalIdeal(xyz, _poly_generators(f, True)))
    assert standard_basis(ideal).leading_exponents == with_f.leading_exponents
    assert quotient_dim(standard_basis(ideal)) == quotient_dim(with_f) == tjurina_number(f)


# ---------------------------------------------------------------- the Euler remainder


def _semi_quasi_homogeneous_germs(rng, count):
    """Seeded germs in 2-4 variables: pure powers x_i^a_i (a_i in 2..6)
    and one to four mixed terms of degree at least L = lcm(a_i) under the
    Fermat weights L/a_i, about a third of them of degree exactly L, with
    rational coefficients."""
    germs = []
    while len(germs) < count:
        n = rng.randint(2, 4)
        a = [rng.randint(2, 6) for _ in range(n)]
        L = math.lcm(*a)
        w = [L // x for x in a]
        terms = {tuple(a[i] if j == i else 0 for j in range(n)): rng.choice(RATIONALS)
                 for i in range(n)}
        for _ in range(rng.randint(1, 4)):
            on_l = rng.random() < 1 / 3
            for _ in range(100):
                e = tuple(rng.randint(0, x) for x in a)
                d = sum(map(math.prod, zip(w, e)))
                if sum(map(bool, e)) > 1 and (d == L if on_l else d > L):
                    terms[e] = rng.choice(RATIONALS)
                    break
        germs.append(Poly(XYZW[:n], terms))
    return germs


def _germs_without_fermat_weights(rng, count):
    """Seeded germs in 2-4 variables with rational coefficients: pure
    powers x_i^a_i (a_i in 2..6) of all variables but one, x_j^a_j x_k
    (k != j) in place of x_j's, and one to three mixed terms of degree 2
    to 6.  The partial in x_k holds x_j^a_j, so no axis lies in the
    singular locus."""
    germs = []
    while len(germs) < count:
        n = rng.randint(2, 4)
        j, k = rng.sample(range(n), 2)
        a = [rng.randint(2, 6) for _ in range(n)]
        terms = {tuple(a[i] if m == i else 0 for m in range(n)): rng.choice(RATIONALS)
                 for i in range(n) if i != j}
        terms[tuple(a[j] if m == j else int(m == k) for m in range(n))] = rng.choice(RATIONALS)
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(map(bool, e)) > 1 and sum(e) <= 6:
                terms[e] = rng.choice(RATIONALS)
        germs.append(Poly(XYZW[:n], terms))
    return germs


def test_euler_remainder_generates_the_same_ideal_with_the_jacobian(monkeypatch):
    # (f) + J = (f_E) + J for the weights of each engine: each of f and f_E
    # reduces to zero modulo a standard basis of the other ideal, and under
    # the same weights both have the same leads.  Some germs have partials
    # that do not lead with pure powers in one order, and a basis then
    # runs long before its corner; each basis gets 200 000 units of work,
    # and a direction whose basis ran out is not checked.
    def basis(gens, w):
        try:
            return standard_basis(LocalIdeal(f.vars, gens), weights=w, work=_Work(200_000))
        except LocalWorkLimitError:
            return None
    kinds, checked, both = set(), 0, 0
    germs = (_semi_quasi_homogeneous_germs(random.Random(2101), 240)
             + _germs_without_fermat_weights(random.Random(2102), 80))
    for f in germs:
        jacobian = _poly_generators(f, False)
        inputs = _germ_inputs(monkeypatch, f, True)
        for w in _engines(_fermat_weights(f)):
            r = _euler_remainder(f, w)
            assert inputs[w][0] == [_primitive(g.terms) for g in [r] + jacobian
                                    if not g.is_zero()], (f, w)
            with_f = basis([f] + jacobian, w)
            euler = basis([g for g in [r] + jacobian if not g.is_zero()], w)
            if euler:
                assert _normal_form(f.terms, euler) == {}, (f, w)
            if with_f and not r.is_zero():
                assert _normal_form(r.terms, with_f) == {}, (f, w)
            checked += 1
            if with_f and euler:
                assert euler.leading_exponents == with_f.leading_exponents, (f, w)
                both += 1
                kinds.add((len(f.vars), "fermat" if w else "unit" if _fermat_weights(f)
                           else "none", r.is_zero()))
    assert (checked, both >= 530) == (545, True)
    assert kinds >= {(n, k, False) for n in (2, 3, 4) for k in ("unit", "fermat", "none")}
    assert kinds >= {(n, "fermat", True) for n in (2, 3, 4)}


# (vars, germ, exponents a_i of its pure powers): quasi-homogeneous in
# the Fermat weights, isolated, so tau = mu = prod(a_i - 1) (Milnor-Orlik)
QUASI_HOMOGENEOUS_GERMS = [
    (("x", "y", "z"), "x^2 + y^3 + z^5", (2, 3, 5)),
    (XYZW, "x^2 + y^3 + z^4 + w^5", (2, 3, 4, 5)),
    (XYZW, "2/3*x^7 - y^2 + 5*z^3 + 1/7*w^11", (7, 2, 3, 11)),
    (("x", "y"), "x^4 + y^4 + x^2*y^2", (4, 4)),
    (("x", "y", "z"), "x^3 + y^3 + z^3 + x*y*z", (3, 3, 3)),
    (("x", "y", "z"), "x^2 + y^3 + z^6 + y*z^4", (2, 3, 6)),
    (XYZW, "x^2 + y^2 + z^2 + w^2 + x*y", (2, 2, 2, 2)),
]


@pytest.mark.parametrize("vars,text,exponents", QUASI_HOMOGENEOUS_GERMS)
def test_quasi_homogeneous_tau_builds_the_generators_of_mu(monkeypatch, vars, text, exponents):
    # f's Euler remainder for the first engine's weights is zero
    f = parse_polynomial(text, vars)
    first = _engines(_fermat_weights(f))[0]
    assert _germ_inputs(monkeypatch, f, True)[first] == _germ_inputs(monkeypatch, f, False)[first]
    assert tjurina_number(f) == milnor_number(f) == math.prod(a - 1 for a in exponents)


# (germ, tau, attempts).  With f's own generators, tau of the first three
# runs past LOCAL_WORK_LIMIT (in 2-6 s) under both engines; the Euler
# remainder answers them.  The next has a term of degree 3 below its pure
# powers, and the remainder for unit weights, its one engine, answers it.
# The last two have a mixed term at the degree of their pure powers, and
# their remainders run longer than f: an engine tries the remainder, then
# f, so the 4th attempt is the unit engine's f and the 2nd the Fermat
# engine's f.  The oracle stabilizes at
# every value.
TAU_ROUTE_GERMS = [
    (XYZW, "-x^3*y^3*w^3 - 1/7*x^2*y*z^3*w^3 + y^4 + y*z^3 + z^4 + x^3 + 2/7*w^3", 36, 1),
    (XYZW, "-1/7*x^3*y^3*w - 1/7*x^3*y^2*z*w + 5*y^5 + 2/7*y^2*z^2*w + 5/7*z^5 + 1/2*w^5"
           " + x^2*y^2 + 2*x^2", 64, 25),
    (("z", "w"), "z^2*w + w^2 + z^2*w^3 + 2*z*w^4 - 3*z*w^6 + 2*z^6*w^2", 3, 1),
    (("x", "y", "z"), "5/7*x^2*y^3*z - 1/7*x^3*y^2 - 1/7*y^5 + z^5 + 2*y^3*z + 1/3*x^3", 22, 1),
    (("x", "y", "z"),
     "-3/7*x*y^3*z^2 - x^4 + 3*x^3*z - 1/7*x*z^3 - 3/7*y^4 + z^4 - 1/7*y^2*z", 15, 4),
    (XYZW, "-3*x^2*y*z^5 - x^2*z^2*w^3 - 1/7*x^2*z*w^3 - 1/2*z^6 + 2/3*y*z^2*w - y^3"
           " - 1/7*w^3 + 5/7*x^2", 20, 2),
]


@pytest.mark.parametrize("vars,text,tau,attempts", TAU_ROUTE_GERMS)
def test_tau_tries_the_euler_remainder_then_f(monkeypatch, vars, text, tau, attempts):
    f = parse_polynomial(text, vars)
    value, (weights, n, work, counts) = _germ_route(monkeypatch, f, True)
    assert (value, n) == (tau, attempts)
    assert stabilized_oracle_dim(jacobian_ideal(f, with_f=True))[0] == tau
