"""Bundled regression corpus: every published value the package reproduces,
and the operations that compute it.

Each entry is a plain dict (JSON-compatible) with an id, a kind that
selects the computation, the inputs, and the expected values.  Expected
dicts are compared key-by-key, so an entry pins exactly the numbers it
cares about.  External corpus files use the same schema: a JSON list of
these entry objects.

Each kind has one operation here, shared with the CLI subcommands: it takes
the fields of an entry and returns (results, checks, warnings)
as the CLI reports them; the runner reads an entry's pinned values off that.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from fractions import Fraction

from . import defspace as ds
from . import dualcomplex as dc
from . import smallres as sr
from .errors import ConfigError
from .localring import INFINITE, milnor_number, tjurina_number
from .poly import parse_polynomial

# -- canonical divisor configurations ------------------------------------------

CUBIC_CONE_LINK = {
    "components": [{"id": "E", "kind": "rational", "b2": 7}],
}

TYPE_II_POINT = {
    "components": [
        {"id": "E1", "kind": "rational", "b2": 7, "anticanonical_boundary": ["D0"]},
    ],
    "marked": {"d0_curve": "D0"},
}

TYPE_II_CHAIN = {
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
}

TYPE_III1_SEGMENT = {
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
    "marked": {
        "c_curves": {"F1": [["C1"]], "F2": [["C2a"], ["C2b"]], "F3": [["C3"]]},
    },
}

# four boundary components around one interior component: the smallest
# triangulated disk whose boundary components meet only their neighbors
TYPE_III2_DISK = {
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
    "marked": {
        "c_curves": {"E1": [["C1"]], "E2": [["C2"]], "E3": [["C3"]], "E4": [["C4"]]},
        "pa_d": 1,
    },
}

UNCLASSIFIED_PAIR = {
    "components": [
        {"id": "A", "kind": "rational", "b2": 2},
        {"id": "B", "kind": "rational", "b2": 2},
    ],
    "double_curves": [{"id": "D", "between": ["A", "B"], "genus": 1}],
}


# -- the entries -----------------------------------------------------------------

ENTRIES = [
    # Tjurina numbers of the suspended A_1 x C family x^2+y^2+z^2+w^(2n)
    {"id": "tjurina/a1-suspension-n1", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^2 + w^2", "expected": {"tau": 1}},
    {"id": "tjurina/a1-suspension-n2", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^2 + w^4", "expected": {"tau": 3}},
    {"id": "tjurina/a1-suspension-n3", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^2 + w^6", "expected": {"tau": 5}},
    {"id": "tjurina/a1-suspension-n4", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^2 + w^8", "expected": {"tau": 7}},
    # cones over n distinct lines: tau = (n-1)^2
    {"id": "tjurina/lines-n3", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^3 - w^3", "expected": {"tau": 4}},
    {"id": "tjurina/lines-n4", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^4 - w^4", "expected": {"tau": 9}},
    {"id": "tjurina/lines-n5", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^5 - w^5", "expected": {"tau": 16}},
    {"id": "tjurina/lines-n5-deformed", "kind": "tjurina",
     "poly": "x^2 + y^2 + z^5 - w^5 + z^3*w^3", "expected": {"tau": 15}},
    # cone over the cubic surface and its equisingular deformation
    {"id": "tjurina/cubic-cone", "kind": "tjurina",
     "poly": "x^3 + y^3 + z^3 + w^3", "expected": {"tau": 16}},
    {"id": "tjurina/cubic-cone-deformed", "kind": "tjurina",
     "poly": "x^3 + y^3 + z^3 + w^3 + x*y*z*w", "expected": {"tau": 15}},
    {"id": "milnor/cubic-cone", "kind": "milnor",
     "poly": "x^3 + y^3 + z^3 + w^3", "expected": {"mu": 16}},
    {"id": "milnor/lines-n5-deformed", "kind": "milnor",
     "poly": "x^2 + y^2 + z^5 - w^5 + z^3*w^3", "expected": {"mu": 16}},

    # small-resolution invariant packages
    {"id": "smallres/ordinary-double-point", "kind": "smallres",
     "germ": {"g": "z^2 + w^2", "family": "a1_times", "n": 1},
     "expected": {"tau": 1, "mu": 1, "r": 1, "delta": 1, "b": 0, "a": 0,
                  "is_odp": True, "checks_pass": True}},
    {"id": "smallres/two-lines-odp", "kind": "smallres",
     "germ": {"g": "z^2 - w^2", "family": "distinct_lines", "n": 2},
     "expected": {"tau": 1, "r": 1, "delta": 1, "b": 0, "a": 0, "is_odp": True}},
    {"id": "smallres/a1-suspension-n3", "kind": "smallres",
     "germ": {"g": "z^2 + w^6", "family": "a1_times", "n": 3},
     "expected": {"tau": 5, "mu": 5, "r": 1, "delta": 3, "b": 2, "a": 0,
                  "b11": 2, "b21": 2, "ell21": 1, "is_odp": False, "checks_pass": True}},
    {"id": "smallres/five-lines", "kind": "smallres",
     "germ": {"g": "z^5 - w^5", "family": "distinct_lines", "n": 5},
     "expected": {"tau": 16, "mu": 16, "r": 4, "delta": 10, "b": 6, "a": 0,
                  "b11": 6, "b21": 6, "ell21": 4, "is_odp": False, "checks_pass": True}},
    {"id": "smallres/five-lines-deformed", "kind": "smallres",
     "germ": {"g": "z^5 - w^5 + z^3*w^3", "family": "custom", "branches": 5},
     "expected": {"tau": 15, "mu": 16, "r": 4, "delta": 10, "b": 6, "a": 1,
                  "b11": 6, "b21": 5, "ell21": 4, "is_odp": False, "checks_pass": True}},

    # link of the cone over the cubic surface: b2(E) = 7, ell = 6
    {"id": "dualcomplex/cubic-cone-link", "kind": "link",
     "config": CUBIC_CONE_LINK,
     "expected": {"r": 1, "n_double": 0, "b2e": 7, "ell": 6, "rank_check": True}},
    {"id": "dualcomplex/cubic-cone-semistable", "kind": "semistable",
     "config": CUBIC_CONE_LINK, "model": {"simple_elliptic": {"m": 3}},
     "expected": {"ok": True, "expected": 6, "actual": 6, "bound_ok": True}},

    # classifier verdicts for the four canonical shapes
    {"id": "classify/type-ii-point", "kind": "classify",
     "config": TYPE_II_POINT,
     "expected": {"verdict": "TYPE_II", "h0_t1": 0, "h1_t1": 0, "dim_t2": 0,
                  "h2_lower_bound": 0}},
    {"id": "classify/type-ii-chain", "kind": "classify",
     "config": TYPE_II_CHAIN,
     "expected": {"verdict": "TYPE_II", "h0_t1": 2, "h1_t1": 2, "dim_t2": 2,
                  "h2_lower_bound": 2}},
    {"id": "classify/type-iii1-segment", "kind": "classify",
     "config": TYPE_III1_SEGMENT,
     "expected": {"verdict": "TYPE_III_1", "h0_t1": 0, "h2_lower_bound": 0}},
    {"id": "classify/type-iii2-disk", "kind": "classify",
     "config": TYPE_III2_DISK,
     "expected": {"verdict": "TYPE_III_2", "h0_t1": 0, "h2_lower_bound": 1}},
    {"id": "classify/unclassified-pair", "kind": "classify",
     "config": UNCLASSIFIED_PAIR,
     "expected": {"verdict": "UNCLASSIFIED"}},

    # root-splitting map identities and closed forms
    {"id": "defspace/identities-n2", "kind": "defspace", "n": 2,
     "expected": {"factor_identity": True, "jacobian_matches": True,
                  "inverse_composition": True, "ramification": True,
                  "phi": ["-lam^2"]}},
    {"id": "defspace/identities-n3", "kind": "defspace", "n": 3,
     "expected": {"factor_identity": True, "jacobian_matches": True,
                  "inverse_composition": True, "ramification": True,
                  "phi": ["-lam^2 + t0", "-lam*t0"]}},
    {"id": "defspace/identities-n5", "kind": "defspace", "n": 5,
     "expected": {"factor_identity": True, "jacobian_matches": True,
                  "inverse_composition": True, "ramification": True,
                  "phi": ["-lam^2 + t2", "-lam*t2 + t1", "-lam*t1 + t0", "-lam*t0"]}},
    {"id": "defspace/identities-n6", "kind": "defspace", "n": 6,
     "expected": {"factor_identity": True, "jacobian_matches": True,
                  "inverse_composition": True, "ramification": True}},
    {"id": "defspace/fiber-n3-split", "kind": "fiber", "n": 3, "b": ["-1", "0"],
     "expected": {"count": 3, "is_generic": True,
                  "points": [["-1", ["0"]], ["0", ["-1"]], ["1", ["0"]]]}},
    {"id": "defspace/fiber-n3-double-root", "kind": "fiber", "n": 3, "b": ["0", "0"],
     "expected": {"count": 1, "is_generic": False, "points": [["0", ["0"]]]}},
]


# -- the operations --------------------------------------------------------------

_DEFAULT_VARS = ("x", "y", "z", "w")


def jsonify(value):
    """value with INFINITE as "infinite", Fractions as strings and tuples as
    lists: the form reports print and corpus expectations are written in."""
    if isinstance(value, float) and value == INFINITE:
        return "infinite"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def _local_number(inputs, number, name, relation):
    f = parse_polynomial(inputs["poly"], inputs.get("vars", _DEFAULT_VARS))
    value = number(f)
    warnings = []
    if value == INFINITE:
        warnings.append("the singular locus is positive-dimensional at the origin")
    return {name: value, "relations": {name: relation}}, [], warnings


def tjurina(inputs):
    return _local_number(inputs, tjurina_number, "tau",
                         "dim of the local ring modulo (f, all partials of f)")


def milnor(inputs):
    return _local_number(inputs, milnor_number, "mu",
                         "dim of the local ring modulo (all partials of f)")


def smallres(inputs):
    inv, checks = sr.small_res_report(sr.germ_from_dict(inputs["germ"]))
    results = {
        **asdict(inv),
        "h2_forms_dim": inv.h2_forms_dim,
        "relations": {
            "delta": "(mu(g) + branches - 1) / 2",
            "r": "branches - 1",
            "b": "delta - r",
            "a": "2*b + r - tau",
            "b11": "b", "b21": "b - a", "ell21": "r",
            "is_odp": "b == 0",
            "h2_forms_dim": "b + r",
        },
    }
    return results, checks, []


def link(inputs):
    config = dc.config_from_dict(inputs["config"])
    rep = dc.link_invariant(config)
    rank_b2 = dc.restriction_rank_b2(config)
    complex_ = dc.build_dual_complex(config)
    checks = [{
        "name": "b2 restriction matrix rank agrees",
        "expected": rep.b2e, "actual": rank_b2, "pass": rank_b2 == rep.b2e,
    }]
    results = {
        "r": rep.r, "n_double": rep.n_double, "b2e": rep.b2e, "ell": rep.ell,
        "dual_complex": {
            "vertices": rep.r,
            "edges": len(complex_.edges),
            "cells": len(complex_.cells),
            "euler_characteristic": complex_.euler_characteristic,
            "h1_rank": complex_.h1_rank,
            "connected": complex_.connected,
        },
        "relations": {
            "b2e": "sum of b2 over components - number of double curves",
            "ell": "b2e - r",
            "euler_characteristic": "vertices - edges + cells",
        },
    }
    return results, checks, rep.warnings


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# semistable model key -> (model class, its integer parameters)
_MODELS = {"simple_elliptic": (dc.SimpleElliptic, ("m",)), "cusp": (dc.Cusp, ("m", "s"))}


def _semistable_model(spec):
    if not isinstance(spec, dict):
        raise ConfigError(f"semistable model must be an object, got {spec!r}")
    kinds = [k for k in _MODELS if k in spec]
    if len(kinds) != 1:
        raise ConfigError(f"unknown semistable model {spec!r}: "
                          "give exactly one of 'simple_elliptic' and 'cusp'")
    cls, names = _MODELS[kinds[0]]
    params = spec[kinds[0]]
    if not isinstance(params, dict) or not all(_is_int(params.get(k)) for k in names):
        raise ConfigError(f"semistable model {kinds[0]!r} needs integer "
                          f"{' and '.join(map(repr, names))}, got {params!r}")
    return cls(**{k: params[k] for k in names})


def semistable(inputs):
    config = dc.config_from_dict(inputs["config"])
    chk = dc.semistable_ell_check(config, _semistable_model(inputs["model"]))
    results = {"ok": chk.ok, "expected": chk.expected, "actual": chk.actual,
               "bound_ok": chk.bound_ok}
    return results, [], []


def classify(inputs):
    config = dc.config_from_dict(inputs["config"])
    result = dc.classify(config)
    results = {
        "verdict": result.verdict.value,
        "failed_clauses": result.failed_clauses,
        "assumed_clauses": result.assumed_clauses,
    }
    if result.verdict is not dc.Verdict.UNCLASSIFIED:
        dims = dc.deformation_dims(config)
        results["deformation"] = {
            "h0_t1": dims.h0_t1, "h1_t1": dims.h1_t1, "dim_t2": dims.dim_t2,
            "h2_lower_bound": dc.h2_lower_bound(config, result),
            "relations": {
                "h0_t1": "sum of h01 over components",
                "h1_t1": "r - 1", "dim_t2": "r - 1",
            },
        }
    return results, [], list(result.notes)


# (the key a corpus entry pins, the check's name in reports)
_DEFSPACE_CHECKS = (
    ("factor_identity", "substitution factors the target polynomial"),
    ("jacobian_matches", "jacobian determinant equals the cofactor at the root (up to sign)"),
    ("inverse_composition", "composing with the section recovers the coefficients"),
    ("ramification", "critical locus maps into the discriminant"),
)


def defspace(inputs):
    m = ds.build(inputs["n"])
    jac = ds.jacobian_identity(m)
    outcomes = (ds.verify_factor_identity(m), jac.matches,
                ds.inverse_composition_reduces(m), ds.ramification_check(m))
    checks = [{"name": name, "expected": True, "actual": ok, "pass": ok}
              for (_, name), ok in zip(_DEFSPACE_CHECKS, outcomes)]
    results = {
        "n": inputs["n"],
        "map": [str(c) for c in m.components],
        "jacobian_sign": jac.sign,
    }
    return results, checks, []


def fiber(inputs):
    fib = ds.fiber_count(ds.build(inputs["n"]), inputs["b"])
    results = {
        "n": inputs["n"],
        "count": fib.count,
        "is_generic": fib.is_generic,
        "discriminant": fib.discriminant,
        "rational_points": [{"lam": p.lam, "t": list(p.t)} for p in fib.points],
        "relations": {
            "count": "n - deg gcd(P, P') for P = w^n + sum b_i w^i",
            "is_generic": "discriminant of P nonzero",
        },
    }
    return results, [], []


# -- the runner -------------------------------------------------------------------


# kind -> (operation, the entry fields it reads, and the values an entry can
# pin, read off the operation's results and checks; run_entry compares them
# in their JSON form)
_KINDS = {
    "tjurina": (tjurina, ("poly",), lambda res, _: {"tau": res["tau"]}),
    "milnor": (milnor, ("poly",), lambda res, _: {"mu": res["mu"]}),
    "smallres": (smallres, ("germ",), lambda res, checks: {
        **{f.name: res[f.name] for f in fields(sr.SmallResInvariants)},
        "checks_pass": all(c["pass"] for c in checks)}),
    "link": (link, ("config",), lambda res, checks: {
        **{k: res[k] for k in ("r", "n_double", "b2e", "ell")},
        "rank_check": checks[0]["pass"]}),
    "semistable": (semistable, ("config", "model"), lambda res, _: res),
    "classify": (classify, ("config",), lambda res, _: {
        "verdict": res["verdict"],
        **{k: v for k, v in res.get("deformation", {}).items() if k != "relations"}}),
    "defspace": (defspace, ("n",), lambda res, checks: {
        **{key: c["actual"] for (key, _), c in zip(_DEFSPACE_CHECKS, checks)},
        "jacobian_sign": res["jacobian_sign"], "phi": res["map"]}),
    "fiber": (fiber, ("n", "b"), lambda res, _: {
        **{k: res[k] for k in ("count", "is_generic", "discriminant")},
        "points": [[p["lam"], p["t"]] for p in res["rational_points"]]}),
}


def _is_rational(value):
    """An integer, or a string such as "-5/4" that reads as a rational."""
    if _is_int(value):
        return True
    if not isinstance(value, str):
        return False
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


# entry field -> (what it must be, its test); checked wherever it appears
_FIELD_TYPES = {
    "poly": ("a string", lambda v: isinstance(v, str)),
    "vars": ("a nonempty list of strings",
             lambda v: isinstance(v, list) and v and all(isinstance(x, str) for x in v)),
    "b": ("a list of integers or rational strings",
          lambda v: isinstance(v, list) and all(map(_is_rational, v))),
}


def run_entry(entry):
    """The entry's check as corpus reports print it: its id as name, the
    pinned values expected and computed, and whether they agree.  The
    entry is an object with a string id and a kind (run_corpus checks)."""
    if not isinstance(entry["kind"], str) or entry["kind"] not in _KINDS:
        raise ConfigError(f"unknown corpus entry kind {entry['kind']!r}")
    if not isinstance(entry.get("expected", {}), dict):
        raise ConfigError(f"corpus entry {entry['id']!r}: expected must be an object")
    op, needs, pinned = _KINDS[entry["kind"]]
    for name in needs:
        if name not in entry:
            raise ConfigError(f"corpus entry {entry['id']!r} needs {name!r}")
    for name, (want, valid) in _FIELD_TYPES.items():
        if name in entry and not valid(entry[name]):
            raise ConfigError(f"corpus entry {entry['id']!r}: {name} must be {want}, "
                              f"got {entry[name]!r}")
    results, checks, _warnings = op(entry)
    actual = jsonify(pinned(results, checks))
    expected = entry.get("expected", {})
    if expected:
        actual = {k: actual.get(k) for k in expected}
    return {"name": entry["id"], "expected": expected, "actual": actual,
            "pass": actual == expected or not expected}


def run_corpus(entries=None):
    """Run entries one after another; results come back in entry-id order
    so reports are deterministic."""
    if entries is None:
        entries = ENTRIES
    if not entries:
        raise ConfigError("empty corpus")
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ConfigError(f"corpus entry {i} is not an object")
        for key in ("id", "kind"):
            if key not in e:
                raise ConfigError(f"corpus entry {i} needs {key!r}")
        if not isinstance(e["id"], str):
            raise ConfigError(f"corpus entry {i}: id must be a string, got {e['id']!r}")
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate corpus entry ids")
    return sorted((run_entry(e) for e in entries), key=lambda r: r["name"])
