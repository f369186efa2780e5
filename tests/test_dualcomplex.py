import copy
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from singkit.corpus import (
    CUBIC_CONE_LINK,
    TYPE_II_CHAIN,
    TYPE_II_POINT,
    TYPE_III1_SEGMENT,
    TYPE_III2_DISK,
    UNCLASSIFIED_PAIR,
)
from singkit.dualcomplex import (
    RANK_WORK_LIMIT,
    Cusp,
    SimpleElliptic,
    Verdict,
    build_dual_complex,
    classify,
    config_from_dict,
    config_to_dot,
    deformation_dims,
    h2_lower_bound,
    link_invariant,
    restriction_rank_b2,
    semistable_ell_check,
)
from singkit.errors import ConfigError
from singkit.poly import _reduce_into

TRIANGLE = {
    # three components meeting pairwise in curves but with no triple point:
    # the dual complex is a hollow triangle
    "components": [
        {"id": "A", "kind": "rational", "b2": 3},
        {"id": "B", "kind": "rational", "b2": 3},
        {"id": "C", "kind": "rational", "b2": 3},
    ],
    "double_curves": [
        {"id": "AB", "between": ["A", "B"], "genus": 0},
        {"id": "BC", "between": ["B", "C"], "genus": 0},
        {"id": "CA", "between": ["C", "A"], "genus": 0},
    ],
}


def cfg(d):
    return config_from_dict(d)


# ---------------------------------------------------------------- dual complex


def test_euler_characteristic_and_h1():
    dc = build_dual_complex(cfg(TRIANGLE))
    assert dc.euler_characteristic == 0
    assert dc.h1_rank == 1
    assert dc.connected
    assert dc.cells == ()

    disk = build_dual_complex(cfg(TYPE_III2_DISK))
    assert disk.euler_characteristic == 1
    assert disk.h1_rank == 0
    assert len(disk.cells) == 4


def test_boundary_and_nonmanifold_edges():
    disk = build_dual_complex(cfg(TYPE_III2_DISK))
    assert set(disk.boundary_edges) == {"B12", "B23", "B34", "B41"}
    assert disk.nonmanifold_edges == ()


def test_point_and_segment_complexes():
    point = build_dual_complex(cfg(TYPE_II_POINT))
    assert point.euler_characteristic == 1 and point.h1_rank == 0
    chain = build_dual_complex(cfg(TYPE_II_CHAIN))
    assert chain.euler_characteristic == 1 and chain.h1_rank == 0


# a reducible intersection E1 ∩ E2 shows up as two curve records with the
# same endpoint pair; the 1-skeleton is then a genuine multigraph
PARALLEL_PAIR = {
    "components": [
        {"id": "E1", "kind": "rational", "b2": 2,
         "anticanonical_boundary": ["B1", "B2", "C1"]},
        {"id": "E2", "kind": "rational", "b2": 2,
         "anticanonical_boundary": ["B1", "B2", "C2"]},
    ],
    "double_curves": [
        {"id": "B1", "between": ["E1", "E2"], "genus": 0},
        {"id": "B2", "between": ["E1", "E2"], "genus": 0},
    ],
    "marked": {"c_curves": {"E1": [["C1"]], "E2": [["C2"]]}},
}


def test_parallel_double_curves_form_a_multigraph():
    c = cfg(PARALLEL_PAIR)
    dc = build_dual_complex(c)
    assert dc.euler_characteristic == 0     # 2 - 2 + 0
    assert dc.h1_rank == 1                  # the bigon cycle survives
    rep = link_invariant(c)
    assert rep.n_double == 2
    assert rep.b2e == 2 + 2 - 2


def test_two_boundary_components_accepted_via_parallel_curves():
    # boundary cycles of length 2 are legal but get a diagnostic note;
    # this bare bigon still misses the disk conditions, so no verdict
    res = classify(cfg(PARALLEL_PAIR))
    assert not [f for f in res.failed_clauses
                if f[0] == "TYPE_III_2" and f[1] == "ii"]
    assert any("parallel double curves" in n for n in res.notes)
    assert res.verdict is Verdict.UNCLASSIFIED


# ---------------------------------------------------------------- link invariant


def test_cubic_cone_link():
    rep = link_invariant(cfg(CUBIC_CONE_LINK))
    assert rep.r == 1 and rep.n_double == 0
    assert rep.b2e == 7
    assert rep.ell == 6
    assert rep.warnings == ()


def test_link_needs_b2():
    with pytest.raises(ConfigError):
        link_invariant(cfg(UNCLASSIFIED_PAIR) if False else cfg({
            "components": [{"id": "E", "kind": "rational"}],
        }))


def test_negative_ell_warns():
    rep = link_invariant(cfg({
        "components": [{"id": "E", "kind": "rational", "b2": 0}],
    }))
    assert rep.ell == -1
    assert rep.warnings


def test_restriction_rank_matches_b2e():
    for d in (CUBIC_CONE_LINK, TYPE_II_CHAIN, TYPE_III1_SEGMENT,
              TYPE_III2_DISK, TRIANGLE):
        c = cfg(d)
        assert restriction_rank_b2(c) == link_invariant(c).b2e, d


def _reference_rank_b2(config, rng):
    """sum b2(E_i) minus the exact rank over Q of a restriction matrix with
    seeded integer entries in 1..997 on the two incident components' b2
    blocks: the generic rank, unless the draw is unlucky."""
    offset, total = {}, 0
    for c in config.components:
        offset[c.id] = total
        total += c.b2
    pivots = {}
    for d in config.double_curves:
        row = {offset[end] + j: Fraction(rng.randint(1, 997))
               for end in d.between for j in range(config.by_id[end].b2)}
        _reduce_into(pivots, row)
    return total - len(pivots)


def _rank_config(rng):
    """1-7 components of b2 0-8 joined by a spanning tree and up to six
    more curves, a fifth of them with 1-4 parallel copies, so that some
    pairs carry more curves than their b2."""
    r = rng.randint(1, 7)
    comps = [{"id": f"E{i}", "b2": rng.choice((0, 0, 1, 1, 2, 3, 5, 8))} for i in range(r)]
    pairs = [(rng.randrange(i), i) for i in range(1, r)]
    if r >= 2:
        pairs += [tuple(rng.sample(range(r), 2)) for _ in range(rng.randint(0, 6))]
    curves = []
    for a, b in pairs:
        for _ in range(1 + (rng.randint(1, 4) if rng.random() < 0.2 else 0)):
            curves.append({"id": f"D{len(curves)}", "between": [f"E{a}", f"E{b}"]})
    return {"components": comps, "double_curves": curves}


def test_restriction_rank_matches_seeded_elimination():
    rng = random.Random(2020)
    seen = {"short of b2e": 0, "b2 0": 0}
    for _ in range(5000):
        c = cfg(_rank_config(rng))
        rank_b2 = restriction_rank_b2(c)
        assert rank_b2 == _reference_rank_b2(c, rng), c.double_curves
        seen["short of b2e"] += rank_b2 != link_invariant(c).b2e
        seen["b2 0"] += any(comp.b2 == 0 for comp in c.components)
    # both the count's deficient case and empty b2 blocks occur
    assert min(seen.values()) >= 500, seen


def _chain(length, b2):
    return {"components": [{"id": f"E{i}", "b2": b2} for i in range(length)],
            "double_curves": [{"id": f"D{i}", "between": [f"E{i}", f"E{i + 1}"]}
                              for i in range(length - 1)]}


def _parallel(curves, b2):
    return {"components": [{"id": "A", "b2": b2}, {"id": "B", "b2": b2}],
            "double_curves": [{"id": f"D{i}", "between": ["A", "B"]} for i in range(curves)]}


def _walked_chain(k, m):
    """The count's dearest shape per unit: a chain of k components of b2 1,
    one more curve at its head and m parallel curves at its tail; every
    tail curve's search walks the whole chain and finds no free class."""
    d = _chain(k, 1)
    d["double_curves"].append({"id": "H", "between": ["E0", "E1"]})
    d["double_curves"] += [{"id": f"P{j}", "between": [f"E{k - 2}", f"E{k - 1}"]}
                           for j in range(m)]
    return d


def test_restriction_rank_is_charged_before_it_runs():
    # curves * (components + curves): 1999 parallel curves are charged
    # 3 999 999 units, 2000 of them 4 004 000
    assert RANK_WORK_LIMIT == 4_000_000
    assert restriction_rank_b2(cfg(_parallel(1999, 100))) == 0
    # one curve between components of b2 200 000, 200 parallel curves
    # between components of b2 100 and a 100-component chain of b2 20 were
    # refused by the elimination's charge; the count answers them at once
    for d, rank_b2 in [(_parallel(1, 200_000), 399_999), (_parallel(200, 100), 0),
                       (_chain(100, 20), 1901)]:
        start = time.perf_counter()
        assert restriction_rank_b2(cfg(d)) == rank_b2
        assert time.perf_counter() - start < 0.1
    for d, curves, comps in [(_parallel(2000, 1), 2000, 2), (_walked_chain(817, 817), 1634, 817)]:
        c = cfg(d)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=(
                f"^b2 rank cross-check too costly: {curves} double curves x "
                f"\\({comps} components \\+ {curves} curves\\) "
                f"\\(over {RANK_WORK_LIMIT} units\\)$")):
            restriction_rank_b2(c)
        assert time.perf_counter() - start < 0.1


def test_restriction_rank_follows_a_long_path_in_a_loop():
    # each chain curve holds the class of its first end, so the head curve
    # moves all but the first one component on: a path of 1399 steps,
    # past Python's default recursion limit of 1000
    c = cfg(_walked_chain(1400, 0))
    start = time.perf_counter()
    assert restriction_rank_b2(c) == link_invariant(c).b2e == 0
    assert time.perf_counter() - start < 0.1


def test_random_chain_ell_closed_form():
    # chains of length r: ell = sum(b2 - 1) - #double curves
    rng = random.Random(31)
    for _ in range(20):
        r = rng.randint(1, 6)
        comps = []
        curves = []
        for i in range(1, r + 1):
            kind = "elliptic_ruled" if i < r else "rational"
            comps.append({"id": f"E{i}", "kind": kind, "b2": rng.randint(2, 9)})
        for i in range(1, r):
            curves.append({"id": f"D{i}", "between": [f"E{i}", f"E{i+1}"], "genus": 1})
        c = cfg({"components": comps, "double_curves": curves})
        rep = link_invariant(c)
        expected = sum(comp["b2"] - 1 for comp in comps) - len(curves)
        assert rep.ell == expected
        assert restriction_rank_b2(c) == rep.b2e


# ---------------------------------------------------------------- semistable models


def test_semistable_simple_elliptic():
    chk = semistable_ell_check(cfg(CUBIC_CONE_LINK), SimpleElliptic(m=3))
    assert chk.ok and chk.expected == 6 and chk.actual == 6
    assert chk.bound_ok


def test_semistable_cusp():
    # ell = 9 - m + s for the cusp model
    c = cfg({"components": [{"id": "E", "kind": "rational", "b2": 9}]})
    chk = semistable_ell_check(c, Cusp(m=3, s=2))
    assert chk.expected == 8 and chk.actual == 8 and chk.ok


def test_semistable_mismatch_and_bound():
    c = cfg(CUBIC_CONE_LINK)
    chk = semistable_ell_check(c, SimpleElliptic(m=2))
    assert not chk.ok and chk.expected == 7 and chk.actual == 6
    big = semistable_ell_check(c, SimpleElliptic(m=12))
    assert not big.bound_ok


# ---------------------------------------------------------------- classification


CANONICAL = [
    (TYPE_II_POINT, Verdict.TYPE_II),
    (TYPE_II_CHAIN, Verdict.TYPE_II),
    (TYPE_III1_SEGMENT, Verdict.TYPE_III_1),
    (TYPE_III2_DISK, Verdict.TYPE_III_2),
    (UNCLASSIFIED_PAIR, Verdict.UNCLASSIFIED),
]


@pytest.mark.parametrize("data,verdict", CANONICAL)
def test_canonical_verdicts(data, verdict):
    result = classify(cfg(data))
    assert result.verdict is verdict


def test_unclassified_reports_failures_for_every_type():
    result = classify(cfg(UNCLASSIFIED_PAIR))
    types_with_failures = {t for t, _, _ in result.failed_clauses}
    assert types_with_failures == {"TYPE_II", "TYPE_III_1", "TYPE_III_2"}


def _relabel(data, rng):
    ids = set()
    for c in data["components"]:
        ids.add(c["id"])
    for d in data.get("double_curves", []):
        ids.add(d["id"])
    for t in data.get("triple_points", []):
        ids.add(t["id"])
    marked = data.get("marked", {})
    if "d0_curve" in marked:
        ids.add(marked["d0_curve"])
    for chains in marked.get("c_curves", {}).values():
        for chain in chains:
            ids.update(chain)
    perm = sorted(ids)
    rng.shuffle(perm)
    table = dict(zip(sorted(ids), perm))

    def sub(x):
        if isinstance(x, str):
            return table.get(x, x)
        if isinstance(x, list):
            return [sub(v) for v in x]
        if isinstance(x, dict):
            return {table.get(k, k): sub(v) for k, v in x.items()}
        return x

    out = copy.deepcopy(data)
    for c in out["components"]:
        c["id"] = table[c["id"]]
        if "anticanonical_boundary" in c:
            c["anticanonical_boundary"] = sub(c["anticanonical_boundary"])
    for d in out.get("double_curves", []):
        d["id"] = table[d["id"]]
        d["between"] = sub(d["between"])
    for t in out.get("triple_points", []):
        t["id"] = table[t["id"]]
        t["components"] = sub(t["components"])
    if "marked" in out:
        m = out["marked"]
        if "d0_curve" in m:
            m["d0_curve"] = table[m["d0_curve"]]
        if "c_curves" in m:
            m["c_curves"] = {table[k]: sub(v) for k, v in m["c_curves"].items()}
    return out


def test_verdicts_invariant_under_relabeling():
    rng = random.Random(300)
    for data, verdict in CANONICAL:
        for _ in range(10):
            shuffled = _relabel(data, rng)
            assert classify(cfg(shuffled)).verdict is verdict


# ---------------------------------------------------------------- deformation dims


def test_deformation_dims_canonical():
    rep = deformation_dims(cfg(TYPE_II_CHAIN))
    assert (rep.h0_t1, rep.h1_t1, rep.dim_t2) == (2, 2, 2)
    rep = deformation_dims(cfg(TYPE_III1_SEGMENT))
    assert (rep.h0_t1, rep.h1_t1, rep.dim_t2) == (0, 2, 2)
    rep = deformation_dims(cfg(TYPE_III2_DISK))
    assert (rep.h0_t1, rep.h1_t1, rep.dim_t2) == (0, 4, 4)


def test_h0_t1_counts_elliptic_ruled_components():
    rng = random.Random(8)
    for _ in range(15):
        r = rng.randint(1, 6)
        comps, curves = [], []
        n_ell = 0
        for i in range(1, r + 1):
            if i < r and rng.random() < 0.6:
                comps.append({"id": f"E{i}", "kind": "elliptic_ruled"})
                n_ell += 1
            else:
                comps.append({"id": f"E{i}", "kind": "rational"})
        for i in range(1, r):
            curves.append({"id": f"D{i}", "between": [f"E{i}", f"E{i+1}"],
                           "genus": rng.choice([0, 1])})
        rep = deformation_dims(cfg({"components": comps, "double_curves": curves}))
        assert rep.h0_t1 == n_ell
        assert rep.h1_t1 == rep.dim_t2 == r - 1


def test_other_kind_needs_explicit_h01():
    c = cfg({"components": [{"id": "E", "kind": "other"}]})
    with pytest.raises(ConfigError):
        deformation_dims(c)
    c2 = cfg({"components": [{"id": "E", "kind": "other", "h01": 2}]})
    assert deformation_dims(c2).h0_t1 == 2


def test_h2_lower_bounds():
    assert h2_lower_bound(cfg(TYPE_II_CHAIN)) == 2       # r - 1
    assert h2_lower_bound(cfg(TYPE_III1_SEGMENT)) == 0
    assert h2_lower_bound(cfg(TYPE_III2_DISK)) == 1      # declared pa(D)
    with pytest.raises(ValueError):
        h2_lower_bound(cfg(UNCLASSIFIED_PAIR))


# ---------------------------------------------------------------- config parsing


def test_rejects_unknown_keys():
    bad = {"components": [{"id": "E", "kind": "rational"}], "nope": 1}
    with pytest.raises(ConfigError):
        config_from_dict(bad)


def test_rejects_components_that_are_not_a_list():
    with pytest.raises(ConfigError, match="components must be a list"):
        config_from_dict({"components": 5})


def test_rejects_triple_point_that_is_not_an_object():
    with pytest.raises(ConfigError, match="each triple point must be an object"):
        config_from_dict({"components": [{"id": "E", "kind": "rational"}],
                          "triple_points": [1]})


def test_rejects_c_curves_that_are_not_an_object():
    with pytest.raises(ConfigError, match="c_curves must be an object"):
        config_from_dict({"components": [{"id": "E", "kind": "rational"}],
                          "marked": {"c_curves": [1]}})


def test_rejects_double_curve_that_is_not_an_object():
    with pytest.raises(ConfigError, match="each double curve must be an object"):
        config_from_dict({"components": [{"id": "E", "kind": "rational"}],
                          "double_curves": ["D12"]})


@pytest.mark.parametrize("anti", [0, None, "D0", {"D0": 1}])
def test_rejects_anticanonical_boundary_that_is_not_a_list(anti):
    # a string would otherwise be read as the curves named by its letters
    bad = copy.deepcopy(TYPE_II_POINT)
    bad["components"][0]["anticanonical_boundary"] = anti
    with pytest.raises(ConfigError, match="anticanonical_boundary must be a list of curve ids"):
        config_from_dict(bad)


def test_rejects_duplicate_ids():
    with pytest.raises(ConfigError):
        config_from_dict({"components": [
            {"id": "E", "kind": "rational"}, {"id": "E", "kind": "rational"},
        ]})


def test_rejects_ambiguous_d0():
    bad = copy.deepcopy(TYPE_II_CHAIN)
    bad["marked"]["d0_curve"] = ["D0", "D0b"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(bad)
    assert "ambiguous" in str(err.value)


def test_rejects_marked_data_with_both_d0_and_chains():
    bad = copy.deepcopy(TYPE_II_CHAIN)
    bad["marked"]["c_curves"] = {"E1": [["C1"]]}
    with pytest.raises(ConfigError) as err:
        config_from_dict(bad)
    assert "ambiguous" in str(err.value)


def test_rejects_unknown_curve_reference():
    with pytest.raises(ConfigError):
        config_from_dict({
            "components": [{"id": "A", "kind": "rational"},
                           {"id": "B", "kind": "rational"}],
            "double_curves": [{"id": "D", "between": ["A", "Z"], "genus": 0}],
        })


def test_rejects_disconnected_configuration():
    with pytest.raises(ConfigError):
        config_from_dict({
            "components": [{"id": "A", "kind": "rational"},
                           {"id": "B", "kind": "rational"}],
        })


def test_rejects_bad_genus():
    with pytest.raises(ConfigError):
        config_from_dict({
            "components": [{"id": "A", "kind": "rational"},
                           {"id": "B", "kind": "rational"}],
            "double_curves": [{"id": "D", "between": ["A", "B"], "genus": 2}],
        })


def test_rejects_self_curve():
    with pytest.raises(ConfigError):
        config_from_dict({
            "components": [{"id": "A", "kind": "rational"}],
            "double_curves": [{"id": "D", "between": ["A", "A"], "genus": 0}],
        })


def test_rejects_kind_h01_contradiction():
    with pytest.raises(ConfigError):
        config_from_dict({
            "components": [{"id": "A", "kind": "rational", "h01": 1}],
        })


def test_config_survives_json_roundtrip():
    text = json.dumps(TYPE_III2_DISK)
    assert classify(config_from_dict(json.loads(text))).verdict is Verdict.TYPE_III_2


# ---------------------------------------------------------------- dot output


def test_dot_output_lists_components_and_curves():
    dot = config_to_dot(cfg(TYPE_II_CHAIN))
    assert dot.startswith("graph ")
    for cid in ("E1", "E2", "E3"):
        assert f'"{cid}"' in dot
    assert '"E1" -- "E2"' in dot
    assert dot.count("--") == 2


# ---------------------------------------------------------------- random configurations
#
# Seeded random configurations, each reduced to its classification
# (verdict, failed, assumed and notes, plus the dual complex) or to its
# ConfigError message, and pinned per batch by a sha256.  The digests pin
# the text and the order of every clause, so a change to how the
# classifier reads the configuration has to reproduce them exactly.

_KINDS = ("rational", "rational", "rational", "elliptic_ruled", "elliptic_ruled", "other")


def _random_config(rng):
    """1-6 components, 0-2 parallel curves per pair, random genera and
    triple points, marked data that is a D0 curve or C chains, and
    anticanonical sets that are the curves on the component plus its
    marks, each perturbed at random."""
    r = rng.randint(1, 6)
    names = [f"E{i}" for i in range(r)]
    genus = rng.choice((0, 1, None))  # None: each curve draws its own
    curves = []
    for i in range(r):
        for j in range(i + 1, r):
            for _ in range(rng.choice((0, 0, 1, 1, 1, 2))):
                pair = [names[i], names[j]]
                rng.shuffle(pair)
                g = rng.randint(0, 1) if genus is None else genus
                curves.append({"id": f"D{len(curves) + 1}", "between": pair, "genus": g})
    triples = []
    if r >= 3:
        for k in range(rng.choice((0, 0, 1, 2, 3))):
            triples.append({"id": f"T{k}", "components": rng.sample(names, 3)})
    pool = [d["id"] for d in curves] + ["D0", "C1", "C2"]

    marks = {n: set() for n in names}
    marked = {}
    style = rng.choice(("none", "d0", "d0", "chains", "chains", "chains"))
    if style == "d0":
        marked["d0_curve"] = "D0" if rng.random() < 0.8 else rng.choice(pool)
        marks[rng.choice(names)].add(marked["d0_curve"])
    elif style == "chains":
        cc = {}
        for n in names:
            if rng.random() < 0.7:
                chains = [rng.sample(["C1", "C2", "C3"], rng.randint(1, 2))
                          for _ in range(rng.randint(0, 2))]
                cc[n] = chains
                for chain in chains:
                    marks[n].update(chain)
        marked["c_curves"] = cc
    if rng.random() < 0.3:
        marked["pa_d"] = rng.randint(0, 3)

    comps = []
    for n in names:
        anti = {d["id"] for d in curves if n in d["between"]} | marks[n]
        if anti and rng.random() < 0.2:
            anti.discard(rng.choice(sorted(anti)))
        if rng.random() < 0.2:
            anti.add(rng.choice(pool))
        comps.append({"id": n, "kind": rng.choice(_KINDS), "b2": rng.randint(0, 9),
                      "anticanonical_boundary": sorted(anti)})
    out = {"components": comps, "double_curves": curves, "triple_points": triples}
    if marked:
        out["marked"] = marked
    return out


def _perturbed_shape(rng):
    """A bundled TYPE_II, TYPE_III_1 or (mostly) TYPE_III_2 configuration
    with up to two random edits, sometimes relabeled."""
    data = copy.deepcopy(rng.choice(
        (TYPE_III2_DISK, TYPE_III2_DISK, TYPE_III2_DISK, TYPE_II_CHAIN, TYPE_III1_SEGMENT)))
    curves = data.setdefault("double_curves", [])
    triples = data.setdefault("triple_points", [])
    comps = data["components"]
    for _ in range(rng.randint(0, 2)):
        edit = rng.choice(("drop curve", "flip genus", "move chain", "drop triple",
                           "parallel curve", "edit boundary"))
        if edit == "drop curve" and curves:
            gone = curves.pop(rng.randrange(len(curves)))
            if rng.random() < 0.5:
                pair = set(gone["between"])
                triples[:] = [t for t in triples if not pair <= set(t["components"])]
        elif edit == "flip genus" and curves:
            d = rng.choice(curves)
            d["genus"] = 1 - d["genus"]
        elif edit == "move chain" and data.get("marked", {}).get("c_curves"):
            cc = data["marked"]["c_curves"]
            src = rng.choice(sorted(cc))
            dst = rng.choice(comps)["id"]
            cc.setdefault(dst, []).extend(cc.pop(src))
        elif edit == "drop triple" and triples:
            triples.pop(rng.randrange(len(triples)))
        elif edit == "parallel curve" and curves:
            d = rng.choice(curves)
            curves.append({"id": "X", "between": list(d["between"]), "genus": d["genus"]})
            if rng.random() < 0.5:
                for c in comps:
                    if c["id"] in d["between"]:
                        c["anticanonical_boundary"] = c["anticanonical_boundary"] + ["X"]
        elif edit == "edit boundary":
            c = rng.choice(comps)
            anti = c.get("anticanonical_boundary", [])
            if anti and rng.random() < 0.5:
                c["anticanonical_boundary"] = [x for x in anti if x != rng.choice(anti)]
            else:
                c["anticanonical_boundary"] = anti + [rng.choice(("C1", "D0", "S1", "B12"))]
    return _relabel(data, rng) if rng.random() < 0.5 else data


def _outcome(data):
    try:
        config = config_from_dict(data)
        res = classify(config)
    except ConfigError as err:
        return "ConfigError", ["error", str(err)]
    dc = build_dual_complex(config)
    return res.verdict.value, [
        res.verdict.value, res.failed_clauses, res.assumed_clauses, res.notes,
        dc.cells, dc.euler_characteristic, dc.h1_rank, dc.boundary_edges,
        dc.nonmanifold_edges,
    ]


# (generator, seed) -> (outcome counts, sha256 of the batch's outcomes)
RANDOM_BATCHES = [
    ("random", 1201, {'ConfigError': 270, 'TYPE_II': 20, 'TYPE_III_1': 4, 'UNCLASSIFIED': 206},
     "38c1a596341f0b0bd60c8c73bae21ff814dea2b070e6ae2cda7bed001a54bdfa"),
    ("random", 1202, {'ConfigError': 252, 'TYPE_II': 8, 'TYPE_III_1': 11, 'UNCLASSIFIED': 229},
     "7866982cedb90cca2ae573d5efd157064c4a5b2b6ca3e6c9a6e46aed47a80ec5"),
    ("random", 1203, {'ConfigError': 260, 'TYPE_II': 9, 'TYPE_III_1': 5, 'UNCLASSIFIED': 226},
     "aa5310f6b877e5eb774bd8a93a004d1aac410fc13f68bad64b18d05eefbb4133"),
    ("random", 1204, {'ConfigError': 251, 'TYPE_II': 13, 'TYPE_III_1': 5, 'UNCLASSIFIED': 231},
     "d8d3a36b6eee7785fd18f69a6cb39e508ca086cade8fb606dd6a4d6f9a4302d9"),
    ("perturbed", 1301, {'ConfigError': 61, 'TYPE_II': 43, 'TYPE_III_1': 43, 'TYPE_III_2': 109, 'UNCLASSIFIED': 244},
     "c80472f81f3e6f0d5e2ab43af925f9b83b60cb6123ceedcdee28c5e5ac8d3c5c"),
    ("perturbed", 1302, {'ConfigError': 70, 'TYPE_II': 44, 'TYPE_III_1': 44, 'TYPE_III_2': 107, 'UNCLASSIFIED': 235},
     "325e746b1a5f603bc2c0e221000bf3769b39341fe3cc052099cf0b53d8afbdf9"),
    ("perturbed", 1303, {'ConfigError': 67, 'TYPE_II': 35, 'TYPE_III_1': 44, 'TYPE_III_2': 112, 'UNCLASSIFIED': 242},
     "5c5e084afc43ee69d8fa791e42c3c616a4c2ded5198475322bd3f8558dceb89a"),
]


@pytest.mark.parametrize("gen,seed,counts,digest", RANDOM_BATCHES)
def test_random_configurations_match_pinned_digests(gen, seed, counts, digest):
    make = {"random": _random_config, "perturbed": _perturbed_shape}[gen]
    rng = random.Random(seed)
    tally = {}
    outcomes = []
    for _ in range(500):
        kind, out = _outcome(make(rng))
        tally[kind] = tally.get(kind, 0) + 1
        outcomes.append(out)
    text = json.dumps(outcomes, sort_keys=True)
    assert (tally, hashlib.sha256(text.encode()).hexdigest()) == (counts, digest)
