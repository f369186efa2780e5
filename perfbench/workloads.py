"""Seeded inputs, ops and independent references for the three workloads.

An op is one user-facing computation: one tau or mu of a germ, or one
``singkit.cli.main(argv)`` call.  Each op carries three callables:

* ``call()`` -- the timed computation, made through singkit's public
  surface only;
* ``expect()`` -- an independent reference value, computed outside every
  timed window (truncation oracle, Milnor-Orlik closed form, or a value
  known by construction of the input);
* ``check(value, expected)`` -- ``None`` when the op's output matches its
  reference, else a one-line description of the mismatch.

A run is a sequence of rounds.  Every round of a workload has the same
fixed composition (the same op kinds and input sizes) with inputs drawn
afresh from (seed, round), so no two timed ops see identical input and
each round measures the same kind of work; the end-to-end metrics are
medians over rounds.  The same seed gives byte-identical inputs.
Nothing here looks at run times.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

VARS = ("x", "y", "z", "w")

# The ROADMAP's pinned heavy germ: not semi-quasi-homogeneous with
# respect to the Fermat weights, so its references come from the oracle.
PINNED_GERM = "x^4+y^4+z^4+w^4+4*x^2*z+4*x*y*w^2+4*x*w^2"


@dataclass
class Op:
    id: str
    input: str                                # what the program is given, for the record
    call: Callable[[], object]
    expect: Callable[[], object]
    check: Callable[[object, object], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float     # per-op budget, in reference seconds (see harness)
    max_rounds: int     # bounds a run (and its reference checks) when ops get fast
    make_round: Callable  # make_round(sk, seed, r, workdir) -> list of Op;
                          # 100 or more ops, so harness.TAIL_Q leaves >= 10 beyond


# -- polynomial text helpers -----------------------------------------------------


def monomial(exps, vars=VARS):
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(vars, exps) if e)


def add_terms(terms):
    """Join (coefficient, monomial) pairs into parseable text."""
    out = ""
    for c, mono in terms:
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        out += ("-" if c < 0 else ("+" if out else "")) + body
    return out


def milnor_orlik(exponents):
    """mu of a germ semi-quasi-homogeneous with respect to x_i^{a_i}."""
    return math.prod(a - 1 for a in exponents)


def oracle_value(sk, f, with_f):
    """Colength of (f,) + gradient ideal (with_f) or of the gradient ideal
    alone, from the truncated linear-algebra oracle."""
    gens = [f.differentiate(v) for v in f.vars]
    if with_f:
        gens = [f] + gens
    gens = [g for g in gens if not g.is_zero()]
    return sk.stabilized_oracle_dim(sk.LocalIdeal(f.vars, gens))[0]


def _check_equal(value, expected):
    return None if value == expected else f"expected {expected!r}, got {value!r}"


# -- sparse-germs ----------------------------------------------------------------

_PERTURBATIONS = {}


def perturbation_monomials(a):
    """Monomials of Fermat-weighted degree in (1, 3/2] for weights 1/a_i,
    in lexicographic order."""
    if a not in _PERTURBATIONS:
        lcm = math.lcm(*a)
        w = [lcm // ai for ai in a]
        _PERTURBATIONS[a] = [
            e for e in itertools.product(*(range(ai + 1) for ai in a))
            if lcm < sum(x * y for x, y in zip(e, w)) <= lcm * 3 // 2
        ]
    return _PERTURBATIONS[a]


def sparse_germ(k, seed, r=0):
    """Germ k of a sparse-germs round: (text, Fermat exponents or None).

    Germ 0 is the pinned germ.  The others are x^a+y^b+z^c+w^d with
    exponents in 3..5 plus two monomials of weighted degree in (1, 3/2].
    Whether tau finishes depends on this support and not on the
    coefficients, so germ k has one fixed support and (seed, round) draw
    its coefficients in +-{1,2,3}: every round and every seed covers the
    same mix of easy and hard germs.
    """
    if k == 0:
        return PINNED_GERM, None
    support = random.Random(f"sparse-germs/support/{k}")
    a = tuple(support.randint(3, 5) for _ in range(4))
    extra = support.sample(perturbation_monomials(a), 2)
    coef = random.Random(f"sparse-germs/{seed}/{r}/{k}")
    terms = [(1, monomial(tuple(ai if j == i else 0 for j in range(4))))
             for i, ai in enumerate(a)]
    for e in extra:
        terms.append((coef.choice((1, 2, 3)) * coef.choice((1, -1)), monomial(e)))
    return add_terms(terms), a


def _germ_ops(sk, prefix, text, f, mu_closed):
    """tau and mu ops of one parsed germ.  tau's reference is the oracle;
    mu's is Milnor-Orlik when it applies, else the oracle."""

    def expect_tau():
        return {"tau": oracle_value(sk, f, True), "mu": mu_closed}

    def check_tau(value, exp):
        if value != exp["tau"]:
            return f"expected tau {exp['tau']}, got {value!r}"
        if exp["mu"] is not None and not value <= exp["mu"]:
            return f"tau {value} exceeds mu {exp['mu']}"
        return None

    def expect_mu():
        return mu_closed if mu_closed is not None else oracle_value(sk, f, False)

    return [
        Op(f"{prefix}.tau", text, lambda: sk.tjurina_number(f), expect_tau, check_tau),
        Op(f"{prefix}.mu", text, lambda: sk.milnor_number(f), expect_mu, _check_equal),
    ]


SPARSE_GERMS_PER_ROUND = 50


def sparse_round(sk, seed, r, workdir):
    ops = []
    for k in range(SPARSE_GERMS_PER_ROUND):
        text, a = sparse_germ(k, seed, r)
        f = sk.parse_polynomial(text, VARS)
        prefix = f"r{r}.sg000-pinned" if a is None else f"r{r}.sg{k:03d}"
        ops += _germ_ops(sk, prefix, text, f, None if a is None else milnor_orlik(a))
    return ops


# -- brieskorn-colength ------------------------------------------------------------

BRIESKORN_GERMS_PER_ROUND = 50


def brieskorn_exponents(k, seed, r=0):
    """Exponents of germ k of a round: colength prod(a_i - 1) near
    10^(3 + 2u^2) with u = (k + 1/2) / BRIESKORN_GERMS_PER_ROUND, so every
    round spans 10^3..10^5 with the same amount of work (denser at the low
    end, which keeps a round short).  (seed, round) split each colength
    into four, often lopsided, factors and shuffle them; lopsided splits
    push the socle degree sum(a_i - 2) past 40.  The largest factor is
    fitted last, so the colength stays within a few percent of target."""
    u = (k + 0.5) / BRIESKORN_GERMS_PER_ROUND
    target = 10.0 ** (3 + 2 * u * u)
    rng = random.Random(f"brieskorn-colength/{seed}/{r}/{k}")
    shares = sorted(rng.random() + 0.2 for _ in range(4))
    total = sum(shares)
    factors = [max(2, round(target ** (s / total))) for s in shares[:3]]
    factors.append(max(2, round(target / math.prod(factors))))
    rng.shuffle(factors)
    return tuple(m + 1 for m in factors)


def brieskorn_germ(k, seed, r=0):
    a = brieskorn_exponents(k, seed, r)
    terms = [(1, monomial(tuple(ai if j == i else 0 for j in range(4))))
             for i, ai in enumerate(a)]
    return add_terms(terms), a


def brieskorn_round(sk, seed, r, workdir):
    ops = []
    order = list(range(BRIESKORN_GERMS_PER_ROUND))
    random.Random(f"brieskorn-colength/{seed}/{r}").shuffle(order)
    for k in order:
        text, a = brieskorn_germ(k, seed, r)
        f = sk.parse_polynomial(text, VARS)
        mu = milnor_orlik(a)  # quasi-homogeneous, so tau == mu
        ops += [
            Op(f"r{r}.bk{k:03d}.tau", text, lambda f=f: sk.tjurina_number(f),
               lambda mu=mu: mu, _check_equal),
            Op(f"r{r}.bk{k:03d}.mu", text, lambda f=f: sk.milnor_number(f),
               lambda mu=mu: mu, _check_equal),
        ]
    return ops


# -- cli-mix -----------------------------------------------------------------------

# Divisor configurations with published verdicts (the package's canonical
# shapes), copied here so the benchmark owns its inputs.
BUNDLED_CONFIGS = {
    "cubic-cone-link": ({"components": [{"id": "E", "kind": "rational", "b2": 7}]},
                        None),
    "type-ii-point": ({
        "components": [{"id": "E1", "kind": "rational", "b2": 7,
                        "anticanonical_boundary": ["D0"]}],
        "marked": {"d0_curve": "D0"},
    }, ("TYPE_II", 0)),
    "type-ii-chain": ({
        "components": [
            {"id": "E1", "kind": "elliptic_ruled", "b2": 2, "anticanonical_boundary": ["D0", "D12"]},
            {"id": "E2", "kind": "elliptic_ruled", "b2": 2, "anticanonical_boundary": ["D12", "D23"]},
            {"id": "E3", "kind": "rational", "b2": 7, "anticanonical_boundary": ["D23"]},
        ],
        "double_curves": [
            {"id": "D12", "between": ["E1", "E2"], "genus": 1},
            {"id": "D23", "between": ["E2", "E3"], "genus": 1},
        ],
        "marked": {"d0_curve": "D0"},
    }, ("TYPE_II", 2)),
    "type-iii1-segment": ({
        "components": [
            {"id": "F1", "kind": "rational", "b2": 3, "anticanonical_boundary": ["C1", "G12"]},
            {"id": "F2", "kind": "rational", "b2": 4,
             "anticanonical_boundary": ["G12", "C2a", "C2b", "G23"]},
            {"id": "F3", "kind": "rational", "b2": 3, "anticanonical_boundary": ["C3", "G23"]},
        ],
        "double_curves": [
            {"id": "G12", "between": ["F1", "F2"], "genus": 0},
            {"id": "G23", "between": ["F2", "F3"], "genus": 0},
        ],
        "marked": {"c_curves": {"F1": [["C1"]], "F2": [["C2a"], ["C2b"]], "F3": [["C3"]]}},
    }, ("TYPE_III_1", 2)),
    "type-iii2-disk": ({
        "components": [
            {"id": "E0", "kind": "rational", "b2": 5,
             "anticanonical_boundary": ["S1", "S2", "S3", "S4"]},
            {"id": "E1", "kind": "rational", "b2": 4,
             "anticanonical_boundary": ["C1", "B12", "B41", "S1"]},
            {"id": "E2", "kind": "rational", "b2": 4,
             "anticanonical_boundary": ["C2", "B12", "B23", "S2"]},
            {"id": "E3", "kind": "rational", "b2": 4,
             "anticanonical_boundary": ["C3", "B23", "B34", "S3"]},
            {"id": "E4", "kind": "rational", "b2": 4,
             "anticanonical_boundary": ["C4", "B34", "B41", "S4"]},
        ],
        "double_curves": [
            {"id": "B12", "between": ["E1", "E2"], "genus": 0},
            {"id": "B23", "between": ["E2", "E3"], "genus": 0},
            {"id": "B34", "between": ["E3", "E4"], "genus": 0},
            {"id": "B41", "between": ["E4", "E1"], "genus": 0},
            {"id": "S1", "between": ["E0", "E1"], "genus": 0},
            {"id": "S2", "between": ["E0", "E2"], "genus": 0},
            {"id": "S3", "between": ["E0", "E3"], "genus": 0},
            {"id": "S4", "between": ["E0", "E4"], "genus": 0},
        ],
        "triple_points": [
            {"id": "T1", "components": ["E1", "E2", "E0"]},
            {"id": "T2", "components": ["E2", "E3", "E0"]},
            {"id": "T3", "components": ["E3", "E4", "E0"]},
            {"id": "T4", "components": ["E4", "E1", "E0"]},
        ],
        "marked": {"c_curves": {"E1": [["C1"]], "E2": [["C2"]], "E3": [["C3"]], "E4": [["C4"]]},
                   "pa_d": 1},
    }, ("TYPE_III_2", 4)),
    "unclassified-pair": ({
        "components": [{"id": "A", "kind": "rational", "b2": 2},
                       {"id": "B", "kind": "rational", "b2": 2}],
        "double_curves": [{"id": "D", "between": ["A", "B"], "genus": 1}],
    }, ("UNCLASSIFIED", None)),
}
_CLASSIFIABLE = [k for k, (_, v) in BUNDLED_CONFIGS.items() if v is not None]


def relabel(config, suffix):
    """Copy of a configuration with every component/curve/point id suffixed,
    so repeated passes never hand the program identical input."""
    ids = set()
    for c in config["components"]:
        ids.add(c["id"])
        ids.update(c.get("anticanonical_boundary", ()))
    for key in ("double_curves", "triple_points"):
        ids.update(x["id"] for x in config.get(key, ()))
    marked = config.get("marked", {})
    if "d0_curve" in marked:
        ids.add(marked["d0_curve"])
    for comp, chains in marked.get("c_curves", {}).items():
        ids.add(comp)
        ids.update(itertools.chain.from_iterable(chains))

    def sub(v):
        if isinstance(v, str):
            return v + suffix if v in ids else v
        if isinstance(v, list):
            return [sub(x) for x in v]
        if isinstance(v, dict):
            return {(sub(k) if k in ids else k): sub(x) for k, x in v.items()}
        return v
    return sub(config)


def type_ii_chain(r, rng):
    """Seeded chain E1..E_r: elliptic ruled surfaces capped by a rational
    one, elliptic double curves, D0 marked on E1."""
    comps, curves = [], []
    for i in range(1, r + 1):
        last = i == r
        boundary = []
        if i == 1:
            boundary.append("D0")
        if i > 1:
            boundary.append(f"D{i - 1}_{i}")
        if not last:
            boundary.append(f"D{i}_{i + 1}")
            curves.append({"id": f"D{i}_{i + 1}", "between": [f"E{i}", f"E{i + 1}"], "genus": 1})
        comps.append({
            "id": f"E{i}",
            "kind": "rational" if last else "elliptic_ruled",
            "b2": rng.randint(5, 9) if last else rng.randint(2, 10),
            "anticanonical_boundary": boundary,
        })
    return {"components": comps, "double_curves": curves, "marked": {"d0_curve": "D0"}}


def roots_summing_to_zero(n, rng):
    """n integer roots (repeats allowed) whose sum is 0, so that
    prod(w - r_i) has no w^(n-1) term."""
    roots = [rng.randint(-4, 4) for _ in range(n - 1)]
    roots.append(-sum(roots))
    return roots


def coefficients_from_roots(roots):
    """b_(n-2), ..., b_0 of prod(w - r) = w^n + b_(n-2) w^(n-2) + ... + b_0."""
    coeffs = [Fraction(1)]  # highest degree first
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    assert coeffs[1] == 0, "roots must sum to zero"
    return coeffs[2:]


def _cli_call(sk, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sk.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input
            rc = exc.code
    return rc, out.getvalue()


def _report_check(want):
    """check() for a CLI op: exit 0 and want(report) is None."""
    def check(value, expected):
        rc, text = value
        if rc != 0:
            return f"exit code {rc}"
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        return want(report, expected)
    return check


def _fields(names):
    """want() comparing results[name] to expected[name] for each name."""
    def want(report, expected):
        got = {k: report["results"].get(k) for k in names}
        exp = {k: expected[k] for k in names}
        return None if got == exp else f"expected {exp}, got {got}"
    return want


CLI_PASSES_PER_ROUND = 7
CLI_PASS_KINDS = (
    "corpus", "tjurina", "milnor", "smallres-lines", "smallres-a1",
    "dc-invariants-bundled", "dc-classify-bundled", "dc-invariants-chain",
    "dc-classify-chain", "defspace-verify0", "defspace-verify1", "defspace-verify2",
    "defspace-fiber0", "defspace-fiber1", "defspace-fiber2",
)


SUSPENSION_EXPONENTS = ((3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 4), (5, 5))


def small_suspension(p, rng):
    """x^2+y^2+z^a+w^b plus one seeded monomial above the Newton boundary."""
    a, b = SUSPENSION_EXPONENTS[p % len(SUSPENSION_EXPONENTS)]
    above = [(i, j) for i in range(a + 1) for j in range(b + 1)
             if i and j and i * b + j * a > a * b]
    i, j = rng.choice(above)
    c = rng.choice((1, 2, 3)) * rng.choice((1, -1))
    text = add_terms([(1, "x^2"), (1, "y^2"), (1, f"z^{a}"), (1, f"w^{b}"),
                      (c, monomial((0, 0, i, j)))])
    return text, (2, 2, a, b)


def cli_pass(sk, seed, p, workdir: Path):
    """The ops of pass p: one of each kind in CLI_PASS_KINDS, with inputs
    drawn afresh for the pass.  Input sizes cycle with p over a round of
    CLI_PASSES_PER_ROUND passes, so every round does the same work."""
    q = p % CLI_PASSES_PER_ROUND
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"cli-mix/{seed}/{p}")
    ops = []

    def add(kind, argv, expect, check):
        ops.append(Op(f"cli{p:03d}.{kind}", " ".join(argv),
                      lambda: _cli_call(sk, argv), expect, check))

    def write(name, data):
        path = workdir / f"p{p:03d}-{name}.json"
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        return str(path)

    add("corpus", ["corpus", "--seed", str(rng.randrange(10**6))], lambda: None,
        _report_check(lambda rep, _: None if rep["results"]["passed"] == rep["results"]["total"]
                      else f"corpus failed {rep['results']['failed']}"))

    text, exps = small_suspension(q, rng)
    f = sk.parse_polynomial(text, VARS)
    add("tjurina", ["tjurina", text], lambda: {"tau": oracle_value(sk, f, True)},
        _report_check(_fields(["tau"])))
    add("milnor", ["milnor", text],
        lambda: {"mu": oracle_value(sk, f, False), "closed": milnor_orlik(exps)},
        _report_check(lambda rep, exp: (
            f"oracle {exp['mu']} != Milnor-Orlik {exp['closed']}" if exp["mu"] != exp["closed"]
            else _fields(["mu"])(rep, exp))))

    n = 3 + q % 2
    slopes = rng.sample(range(-9, 10), n)
    g = "*".join(f"(z{-s:+d}*w)" if s else "z" for s in slopes)
    path = write("lines", {"g": g, "family": "distinct_lines", "n": n})
    add("smallres-lines", ["smallres", path],
        lambda n=n: {"tau": (n - 1) ** 2, "delta": n * (n - 1) // 2},
        _report_check(_fields(["tau", "delta"])))

    m = 1 + q
    path = write("a1", {"g": f"z^2+w^{2 * m}", "family": "a1_times", "n": m})
    add("smallres-a1", ["smallres", path],
        lambda: {"tau": 2 * m - 1, "delta": m}, _report_check(_fields(["tau", "delta"])))

    names = list(BUNDLED_CONFIGS)
    config = relabel(BUNDLED_CONFIGS[names[q % len(names)]][0], f"_{p}")
    path = write("bundled-inv", config)
    add("dc-invariants-bundled",
        ["dualcomplex-invariants", path, "--seed", str(rng.randrange(10**6))],
        lambda config=config: link_numbers(config), _report_check(_fields(["r", "n_double", "b2e", "ell"])))

    name = _CLASSIFIABLE[q % len(_CLASSIFIABLE)]
    config, (verdict, h1) = BUNDLED_CONFIGS[name]
    path = write("bundled-cls", relabel(config, f"_{p}"))
    add("dc-classify-bundled", ["dualcomplex-classify", path],
        lambda: {"verdict": verdict, "h1_t1": h1}, _report_check(_classify_want))

    r = 2 + q
    chain = type_ii_chain(r, rng)
    path = write("chain", chain)
    add("dc-invariants-chain",
        ["dualcomplex-invariants", path, "--seed", str(rng.randrange(10**6))],
        lambda: link_numbers(chain), _report_check(_fields(["r", "n_double", "b2e", "ell"])))
    add("dc-classify-chain", ["dualcomplex-classify", path],
        lambda: {"verdict": "TYPE_II", "h1_t1": r - 1}, _report_check(_classify_want))

    for i in range(3):
        dn = 2 + (3 * q + i) % 13
        add(f"defspace-verify{i}",
            ["defspace-verify", "--n", str(dn), "--seed", str(rng.randrange(10**6))],
            lambda dn=dn: {"n": dn}, _report_check(_verify_want))

    for i in range(3):
        fn = 4 + (3 * q + i) % 7
        roots = roots_summing_to_zero(fn, rng)
        b = ",".join(str(c) for c in coefficients_from_roots(roots))
        add(f"defspace-fiber{i}", ["defspace-fiber", "--n", str(fn), f"--b={b}"],
            lambda fn=fn, roots=roots: {"count": len(set(roots)), "lams": sorted(set(roots)), "n": fn},
            _report_check(_fiber_want))
    return ops


def link_numbers(config):
    """r, double-curve count, b2(E) and ell straight from the input."""
    r = len(config["components"])
    n_double = len(config.get("double_curves", ()))
    b2e = sum(c["b2"] for c in config["components"]) - n_double
    return {"r": r, "n_double": n_double, "b2e": b2e, "ell": b2e - r}


def _classify_want(report, expected):
    res = report["results"]
    got = {"verdict": res["verdict"], "h1_t1": res.get("deformation", {}).get("h1_t1")}
    return None if got == expected else f"expected {expected}, got {got}"


def _verify_want(report, expected):
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if failed:
        return f"failed checks {failed}"
    n = expected["n"]
    if report["results"]["n"] != n or len(report["results"]["map"]) != n - 1:
        return f"expected a map with {n - 1} components for n = {n}"
    return None


def _fiber_want(report, expected):
    res = report["results"]
    lams = sorted(Fraction(pt["lam"]) for pt in res["rational_points"])
    got = {"count": res["count"], "lams": lams, "n": res["n"]}
    exp = dict(expected, lams=[Fraction(x) for x in expected["lams"]])
    if got != exp:
        return f"expected {exp}, got {got}"
    if res["is_generic"] != (res["count"] == res["n"]):
        return "is_generic disagrees with count == n"
    return None


def cli_round(sk, seed, r, workdir):
    return [op for i in range(CLI_PASSES_PER_ROUND)
            for op in cli_pass(sk, seed, r * CLI_PASSES_PER_ROUND + i, workdir)]


WORKLOADS = {
    w.name: w for w in (
        Workload("sparse-germs", budget_s=0.25, max_rounds=6, make_round=sparse_round),
        Workload("brieskorn-colength", budget_s=10.0, max_rounds=12, make_round=brieskorn_round),
        Workload("cli-mix", budget_s=10.0, max_rounds=40, make_round=cli_round),
    )
}
