import random
import re
from fractions import Fraction

import pytest

from singkit.corpus import run_corpus
from singkit.errors import ConfigError, ConsistencyError
from singkit.localring import (
    INFINITE,
    milnor_number,
    quasi_homogeneous_weights,
    tjurina_number,
)
from singkit.poly import Poly, parse_polynomial
from singkit.smallres import (
    Family,
    SuspendedCurveGerm,
    germ_from_dict,
    plane_delta_invariant,
    small_res_invariants,
    small_res_report,
    suspension,
)

ZW = ("z", "w")


def G(text):
    return parse_polynomial(text, ZW)


def test_ordinary_double_point_package():
    inv = small_res_invariants(germ_from_dict({"g": "z^2 + w^2", "family": "a1_times", "n": 1}))
    assert (inv.tau, inv.mu, inv.r, inv.delta, inv.b, inv.a) == (1, 1, 1, 1, 0, 0)
    assert inv.is_odp
    # the ODP forces tau = r = delta = 1
    assert inv.tau == inv.r == inv.delta == 1


def test_suspended_a1_family_package():
    # x^2 + y^2 + z^2 + w^6: (r, delta, b, a) = (1, 3, 2, 0)
    inv = small_res_invariants(germ_from_dict({"g": "z^2 + w^6", "family": "a1_times", "n": 3}))
    assert (inv.r, inv.delta, inv.b, inv.a) == (1, 3, 2, 0)
    assert inv.tau == 5 and inv.mu == 5
    assert inv.b - inv.a == 2  # n - 1
    assert not inv.is_odp


def test_five_lines_package():
    # x^2 + y^2 + z^5 - w^5: (r, delta, b, a) = (4, 10, 6, 0)
    inv = small_res_invariants(
        germ_from_dict({"g": "z^5 - w^5", "family": "distinct_lines", "n": 5}))
    assert (inv.r, inv.delta, inv.b, inv.a) == (4, 10, 6, 0)
    assert inv.tau == 16
    assert inv.b - inv.a == 6  # (n-1)(n-2)/2 at n = 5
    assert (inv.b11, inv.b21, inv.ell21) == (6, 6, 4)


def test_deformed_five_lines_package():
    inv = small_res_invariants(germ_from_dict({
        "g": "z^5 - w^5 + z^3*w^3", "family": "custom",
        "branches": 5,
    }))
    assert (inv.tau, inv.mu) == (15, 16)
    assert (inv.r, inv.delta, inv.b, inv.a) == (4, 10, 6, 1)
    assert (inv.b11, inv.b21, inv.ell21) == (6, 5, 4)


def test_consistency_relations_hold_on_every_package():
    germs = [
        {"g": "z^2 + w^2", "family": "a1_times", "n": 1},
        {"g": "z^2 + w^4", "family": "a1_times", "n": 2},
        {"g": "z^2 + w^6", "family": "a1_times", "n": 3},
        {"g": "z^2 + w^8", "family": "a1_times", "n": 4},
        {"g": "z^2 - w^2", "family": "distinct_lines", "n": 2},
        {"g": "z^3 - w^3", "family": "distinct_lines", "n": 3},
        {"g": "z^4 - w^4", "family": "distinct_lines", "n": 4},
        {"g": "z^5 - w^5", "family": "distinct_lines", "n": 5},
        {"g": "z^5 - w^5 + z^3*w^3", "family": "custom", "branches": 5},
    ]
    for d in germs:
        inv, checks = small_res_report(germ_from_dict(d))
        failed = [c for c in checks if not c["pass"]]
        assert not failed, (d, failed)
        assert inv.delta == inv.b + inv.r
        assert inv.tau == 2 * inv.b - inv.a + inv.r
        assert inv.b + inv.r <= inv.tau <= 2 * inv.b + inv.r
        assert inv.tau == inv.b11 + inv.b21 + inv.ell21
        assert inv.h2_forms_dim == inv.b + inv.r == inv.b11 + inv.ell21
        assert inv.tau <= inv.mu


def test_random_slope_line_arrangements():
    # any n distinct lines through the origin give tau = (n-1)^2
    rng = random.Random(2024)
    for n in (3, 4, 5):
        for _ in range(3):
            slopes = set()
            while len(slopes) < n:
                slopes.add(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            g = Poly.const(ZW, 1)
            for c in slopes:
                g = g * (Poly.var(ZW, "z") - Poly.const(ZW, c) * Poly.var(ZW, "w"))
            germ = SuspendedCurveGerm(g=g, family=Family.DISTINCT_LINES, n=n)
            inv = small_res_invariants(germ)
            assert inv.tau == (n - 1) ** 2, f"slopes {sorted(slopes)}"
            assert inv.r == n - 1
            assert inv.delta == n * (n - 1) // 2
            assert inv.a == 0


def test_suspension_polynomial():
    s = germ_from_dict({"g": "z^2 + w^6", "family": "a1_times", "n": 3})
    f = suspension(s)
    assert f == parse_polynomial("x^2 + y^2 + z^2 + w^6", ("x", "y", "z", "w"))


def test_suspension_variable_collision():
    g = parse_polynomial("x^2 + y^2", ("x", "y"))
    with pytest.raises(ConfigError, match="suspension variables"):
        SuspendedCurveGerm(g=g, family=Family.CUSTOM, branches=2)


def test_delta_invariant_values():
    assert plane_delta_invariant(G("z^2 + w^6"), 2) == 3
    assert plane_delta_invariant(G("z^5 - w^5"), 5) == 10
    assert plane_delta_invariant(G("z^2 - w^3"), 1) == 1  # cusp


def test_delta_parity_guard():
    # the cusp has mu = 2; claiming two branches makes mu + r - 1 odd
    with pytest.raises(ConsistencyError):
        plane_delta_invariant(G("z^2 - w^3"), 2)


def test_delta_rejects_non_reduced():
    with pytest.raises(ConfigError, match=r"^plane curve is not reduced"):
        plane_delta_invariant(G("z^2"), 1)


def _random_curve(rng):
    """Text of a random plane curve: an A/D/E-like head, at random, plus
    up to three terms of degree 2..7 with small rational coefficients."""
    terms = []
    if rng.random() < 0.6:
        head = rng.choice(["z^2 + w^{k}", "z^2 - w^{k}", "z^2*w + w^{k}", "z^3 + w^{k}"])
        terms.append(head.format(k=rng.randint(2, 7)))
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(2, 7)
        i = rng.randint(0, d)
        terms.append(f"({rng.choice(['1', '-1', '2', '-3', '1/2', '-2/3'])})*z^{i}*w^{d - i}")
    return " + ".join(terms)


def _differential_germs(rng):
    named = [{"g": f"z^2 + w^{2 * n}", "family": "a1_times", "n": n} for n in range(1, 7)]
    for n in range(2, 7):
        lines = Poly.const(ZW, 1)
        for c in rng.sample(range(-5, 6), n):
            lines = lines * (Poly.var(ZW, "z") - Poly.const(ZW, c) * Poly.var(ZW, "w"))
        named.append({"g": str(lines), "family": "distinct_lines", "n": n})
    curves = (_random_curve(rng) for _ in range(400))
    return named + [{"g": g, "family": "custom", "branches": 1}
                    for g in curves if not G(g).is_zero()]


def test_report_matches_the_four_variable_route():
    # tau and mu of the report are computed on g; the suspension f is the
    # reference route.  An isolated custom germ takes a branch count with
    # the parity of mu(f), so that it reaches a report.
    rng = random.Random(2022)
    reports = 0
    for d in _differential_germs(rng):
        germ = germ_from_dict(d)
        f = suspension(germ)
        tau, mu = tjurina_number(f), milnor_number(f)
        if d["family"] == "custom" and mu != INFINITE:
            d.update(branches=rng.choice([k for k in range(1, 5) if (mu + k) % 2]))
            germ = germ_from_dict(d)
        if tau == INFINITE:
            with pytest.raises(ConfigError, match="^suspended germ has a non-isolated singularity$"):
                small_res_report(germ)
            continue
        inv, _ = small_res_report(germ)
        assert (inv.tau, inv.mu) == (tau, mu), d
        assert inv.r == germ.branch_count - 1 and inv.a == mu - tau, d
        reports += 1
    assert reports >= 300


def test_a3_germ_with_a_higher_term_passes():
    # an A3 curve plus a higher term: tau = mu = 3, so a = 0 and the germ is
    # quasi-homogeneous in other coordinates (Saito), although the weights
    # detector finds none in these
    germ = {"g": "z^2 - w^4 + z^2*w^2", "family": "custom", "branches": 2}
    inv, checks = small_res_report(germ_from_dict(germ))
    assert (inv.tau, inv.mu, inv.a) == (3, 3, 0)
    assert all(c["pass"] for c in checks)
    assert quasi_homogeneous_weights(germ_from_dict(germ).g) is None
    [entry] = run_corpus([{"id": "smallres/a3-higher-term", "kind": "smallres", "germ": germ,
                           "expected": {"a": 0, "checks_pass": True}}])
    assert entry["pass"], entry


def test_wrong_branch_count_is_caught_by_report():
    # five concurrent lines declared as three branches: parity happens to
    # pass, but a small resolution needs ord g = 5 branches
    germ = SuspendedCurveGerm(g=G("z^5 - w^5"), family=Family.CUSTOM, branches=3)
    with pytest.raises(ConsistencyError, match="branches == ord g"):
        small_res_invariants(germ)


# ---------------------------------------------------------------- germ validation


def test_germ_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        germ_from_dict({"g": "z^2 + w^2", "family": "a1_times", "n": 1, "extra": 1})


def test_germ_from_dict_rejects_bad_family():
    with pytest.raises(ConfigError):
        germ_from_dict({"g": "z^2 + w^2", "family": "nope"})


@pytest.mark.parametrize("g", [2, None, True, ["z^2"], {"z": 2}])
def test_germ_from_dict_rejects_g_that_is_not_text(g):
    with pytest.raises(ConfigError, match=re.escape(f"g must be a polynomial string, got {g!r}")):
        germ_from_dict({"g": g, "family": "a1_times", "n": 1})


def test_named_families_reject_overrides():
    with pytest.raises(ConfigError):
        germ_from_dict({"g": "z^2 + w^2", "family": "a1_times", "n": 1, "branches": 2})


def test_a1_times_requires_exact_shape():
    with pytest.raises(ConfigError):
        germ_from_dict({"g": "z^2 + w^5", "family": "a1_times", "n": 2})


def test_distinct_lines_rejects_repeated_line():
    with pytest.raises(ConfigError):  # z^2 divides
        germ_from_dict({"g": "z^2*w", "family": "distinct_lines", "n": 3})
    with pytest.raises(ConfigError):  # w^2 divides
        germ_from_dict({"g": "z*w^2", "family": "distinct_lines", "n": 3})


def test_distinct_lines_rejects_inhomogeneous():
    with pytest.raises(ConfigError):
        germ_from_dict({"g": "z^3 - w^2", "family": "distinct_lines", "n": 3})


def test_custom_needs_branches():
    with pytest.raises(ConfigError):
        SuspendedCurveGerm(g=G("z^2 - w^3"), family=Family.CUSTOM)


def test_cusp_has_no_small_resolution():
    # x^2 + y^2 + z^2 - w^3 is A2: one branch, but ord g = 2 (Katz)
    germ = SuspendedCurveGerm(g=G("z^2 - w^3"), family=Family.CUSTOM, branches=1)
    with pytest.raises(ConsistencyError, match="branches == ord g"):
        small_res_invariants(germ)
