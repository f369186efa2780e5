"""The nine acceptance gates, one test each, one printed PASS/FAIL line each.

Every equality below is exact (integers and rationals, no tolerance).
"""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from singkit import defspace
from singkit.dualcomplex import (
    SimpleElliptic,
    Verdict,
    classify,
    config_from_dict,
    deformation_dims,
    link_invariant,
    restriction_rank_b2,
    semistable_ell_check,
)
from singkit.corpus import (
    TYPE_II_CHAIN,
    TYPE_II_POINT,
    TYPE_III1_SEGMENT,
    TYPE_III2_DISK,
    CUBIC_CONE_LINK,
)
from singkit.localring import (
    LocalIdeal,
    milnor_number,
    quasi_homogeneous_weights,
    standard_basis,
    quotient_dim,
    tjurina_number,
    truncated_dim_oracle,
    stabilized_oracle_dim,
)
from singkit.poly import parse_polynomial
from singkit.smallres import germ_from_dict, small_res_invariants, small_res_report

XYZW = ("x", "y", "z", "w")


def P(text):
    return parse_polynomial(text, XYZW)


def _announce(num, label, ok):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {num} ({label}) failed"


TJURINA_TABLE = [
    ("x^2 + y^2 + z^2 + w^2", 1),
    ("x^2 + y^2 + z^2 + w^4", 3),
    ("x^2 + y^2 + z^2 + w^6", 5),
    ("x^2 + y^2 + z^2 + w^8", 7),
    ("x^2 + y^2 + z^3 - w^3", 4),
    ("x^2 + y^2 + z^4 - w^4", 9),
    ("x^2 + y^2 + z^5 - w^5", 16),
    ("x^3 + y^3 + z^3 + w^3", 16),
    ("x^3 + y^3 + z^3 + w^3 + x*y*z*w", 15),
    ("x^2 + y^2 + z^5 - w^5 + z^3*w^3", 15),
]

SUSPENSION_GERMS = [
    {"g": "z^2 + w^2", "family": "a1_times", "n": 1},
    {"g": "z^2 + w^4", "family": "a1_times", "n": 2},
    {"g": "z^2 + w^6", "family": "a1_times", "n": 3},
    {"g": "z^2 + w^8", "family": "a1_times", "n": 4},
    {"g": "z^2 - w^2", "family": "distinct_lines", "n": 2},
    {"g": "z^3 - w^3", "family": "distinct_lines", "n": 3},
    {"g": "z^4 - w^4", "family": "distinct_lines", "n": 4},
    {"g": "z^5 - w^5", "family": "distinct_lines", "n": 5},
]

DEFORMED_GERM = {"g": "z^5 - w^5 + z^3*w^3", "family": "custom", "branches": 5}


def test_acceptance_1_tjurina_regression():
    ok = True
    for text, want in TJURINA_TABLE:
        t0 = time.time()
        got = tjurina_number(P(text))
        elapsed = time.time() - t0
        if got != want or elapsed >= 10:
            ok = False
            print(f"  tau({text}) = {got}, want {want} ({elapsed:.1f}s)")
    _announce(1, "tjurina regression", ok)


def test_acceptance_2_oracle_equivalence():
    ok = True
    for text, want in TJURINA_TABLE:
        f = P(text)
        gens = [f] + [f.differentiate(v) for v in XYZW]
        ideal = LocalIdeal(XYZW, gens)
        sb_dim = quotient_dim(standard_basis(ideal))
        dim, n = stabilized_oracle_dim(ideal)
        # the stabilized value and an explicit pair of consecutive cutoffs
        at_n = truncated_dim_oracle(ideal, n)
        at_n1 = truncated_dim_oracle(ideal, n + 1)
        if not (sb_dim == dim == at_n == at_n1 == want):
            ok = False
            print(f"  {text}: basis {sb_dim}, oracle {at_n}/{at_n1} at N={n}")
    _announce(2, "truncation oracle equivalence", ok)


def test_acceptance_3_invariant_packages():
    ok = True
    lines5 = small_res_invariants(germ_from_dict(
        {"g": "z^5 - w^5", "family": "distinct_lines", "n": 5}))
    ok &= (lines5.r, lines5.delta, lines5.b, lines5.a) == (4, 10, 6, 0)
    ok &= lines5.b - lines5.a == 6  # (n-1)(n-2)/2 for n = 5
    a1n3 = small_res_invariants(germ_from_dict(
        {"g": "z^2 + w^6", "family": "a1_times", "n": 3}))
    ok &= (a1n3.r, a1n3.delta, a1n3.b, a1n3.a) == (1, 3, 2, 0)
    ok &= a1n3.b - a1n3.a == 2  # n - 1 for n = 3
    odp = small_res_invariants(germ_from_dict(
        {"g": "z^2 + w^2", "family": "a1_times", "n": 1}))
    ok &= odp.b == 0 and odp.is_odp
    for d in SUSPENSION_GERMS + [DEFORMED_GERM]:
        inv, checks = small_res_report(germ_from_dict(d))
        relations = (
            inv.delta == inv.b + inv.r
            and inv.tau == 2 * inv.b - inv.a + inv.r
            and inv.b + inv.r <= inv.tau <= 2 * inv.b + inv.r
            and inv.tau == inv.b11 + inv.b21 + inv.ell21
        )
        if not (relations and all(c["pass"] for c in checks)):
            ok = False
            print(f"  relations fail for {d}")
    _announce(3, "small-resolution invariant packages", ok)


def test_acceptance_4_quasi_homogeneity_iff_a_zero():
    ok = True
    # the two deformed examples: a = 1 and no weights
    for text in ("x^3 + y^3 + z^3 + w^3 + x*y*z*w",
                 "x^2 + y^2 + z^5 - w^5 + z^3*w^3"):
        if quasi_homogeneous_weights(P(text)) is not None:
            ok = False
            print(f"  unexpected weights for deformed {text}")
    deformed = small_res_invariants(germ_from_dict(DEFORMED_GERM))
    ok &= deformed.a == 1
    # every undeformed suspension has weights and a = 0
    from singkit.smallres import suspension
    for d in SUSPENSION_GERMS:
        germ = germ_from_dict(d)
        inv = small_res_invariants(germ)
        w = quasi_homogeneous_weights(suspension(germ))
        if inv.a != 0 or w is None:
            ok = False
            print(f"  {d}: a = {inv.a}, weights = {w}")
    _announce(4, "quasi-homogeneous iff a = 0", ok)


def test_acceptance_5_link_invariant():
    cone = config_from_dict(CUBIC_CONE_LINK)
    rep = link_invariant(cone)
    ok = rep.ell == 6
    ok &= semistable_ell_check(cone, SimpleElliptic(m=3)).ok
    rng = random.Random(55)
    for _ in range(25):
        r = rng.randint(1, 7)
        comps = [{"id": f"E{i}",
                  "kind": "elliptic_ruled" if i < r else "rational",
                  "b2": rng.randint(2, 9)} for i in range(1, r + 1)]
        curves = [{"id": f"D{i}", "between": [f"E{i}", f"E{i+1}"], "genus": 1}
                  for i in range(1, r)]
        c = config_from_dict({"components": comps, "double_curves": curves})
        got = link_invariant(c)
        want = sum(comp["b2"] - 1 for comp in comps) - len(curves)
        if got.ell != want or restriction_rank_b2(c) != got.b2e:
            ok = False
            print(f"  chain r={r}: ell {got.ell} want {want}")
    _announce(5, "link invariant", ok)


def test_acceptance_6_classifier():
    import copy
    canonical = [
        (TYPE_II_POINT, Verdict.TYPE_II),
        (TYPE_II_CHAIN, Verdict.TYPE_II),
        (TYPE_III1_SEGMENT, Verdict.TYPE_III_1),
        (TYPE_III2_DISK, Verdict.TYPE_III_2),
    ]
    ok = True
    for data, verdict in canonical:
        if classify(config_from_dict(data)).verdict is not verdict:
            ok = False
            print(f"  wrong verdict for {verdict}")

    # id-permutation invariance over 100 seeded shuffles
    from test_dualcomplex import _relabel
    rng = random.Random(777)
    for i in range(100):
        data, verdict = canonical[i % len(canonical)]
        shuffled = _relabel(copy.deepcopy(data), rng)
        if classify(config_from_dict(shuffled)).verdict is not verdict:
            ok = False
            print(f"  shuffle {i} changed the verdict for {verdict}")

    # h0(T1) counts elliptic-ruled components; h1(T1) = dim T2 = r - 1
    for data, _ in canonical:
        cfg = config_from_dict(data)
        rep = deformation_dims(cfg)
        n_ell = sum(1 for c in data["components"]
                    if c["kind"] == "elliptic_ruled")
        r = len(data["components"])
        if not (rep.h0_t1 == n_ell and rep.h1_t1 == rep.dim_t2 == r - 1):
            ok = False
            print(f"  dims wrong: {rep}")
    _announce(6, "dual complex classifier", ok)


def test_acceptance_7_symbolic_identities():
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        m = defspace.build(n)
        jac = defspace.jacobian_identity(m)
        good = (
            defspace.verify_factor_identity(m)
            and jac.matches
            and jac.sign in (1, -1)
            and defspace.inverse_composition_reduces(m)
            and defspace.ramification_check(m)
        )
        if not good:
            ok = False
            print(f"  identity failure at n = {n}")
    elapsed = time.time() - t0
    if elapsed >= 30:
        ok = False
        print(f"  too slow: {elapsed:.1f}s")
    _announce(7, "root-splitting map identities n = 2..8", ok)


def test_acceptance_8_fiber_degree():
    ok = True
    rng = random.Random(4242)
    for n in range(2, 7):
        m = defspace.build(n)
        for _ in range(100):
            b = [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                 for _ in range(n - 1)]
            fib = defspace.fiber_count(m, b)
            if (fib.count == n) != (fib.discriminant != 0):
                ok = False
                print(f"  n={n} b={b}: count {fib.count}, disc {fib.discriminant}")
            for pt in fib.points:
                if defspace.apply_map(m, pt.lam, pt.t) != tuple(b):
                    ok = False
                    print(f"  n={n} b={b}: point {pt} does not map back")
    _announce(8, "fiber degree", ok)


def test_acceptance_9_mutation_sensitivity():
    ok = True
    for n in (2, 3, 4, 6):
        m = defspace.build(n)
        for idx in range(len(m.components)):
            comps = list(m.components)
            comps[idx] = comps[idx] * Fraction(-1)
            bad = dataclasses.replace(m, components=tuple(comps))
            if defspace.verify_factor_identity(bad) or \
                    defspace.inverse_composition_reduces(bad):
                ok = False
                print(f"  n={n}: sign flip in component {idx} went unnoticed")
        # corrupt the cofactor Q by a sign flip on its lam-linear term
        from singkit.poly import Poly
        amb = m.cofactor.vars
        wrong = m.cofactor - Poly.const(amb, 2) * Poly.var(amb, "lam") \
            * Poly.var(amb, "w") ** (n - 2)
        bad_q = dataclasses.replace(m, cofactor=wrong)
        if defspace.verify_factor_identity(bad_q) or \
                defspace.jacobian_identity(bad_q).matches:
            ok = False
            print(f"  n={n}: sign flip in the cofactor went unnoticed")
    _announce(9, "mutation sensitivity", ok)
