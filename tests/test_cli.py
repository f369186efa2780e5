import collections
import contextlib
import copy
import enum
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import validate

from singkit import cli, corpus, defspace, dualcomplex
from singkit.cli import main
from singkit.corpus import CUBIC_CONE_LINK, TYPE_II_CHAIN, TYPE_III2_DISK
from singkit.localring import INFINITE

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_tjurina_report(capsys):
    code, report = run(capsys, "tjurina", "x^2+y^2+z^2+w^6")
    assert code == 0
    validate(report, SCHEMA)
    assert report["command"] == "tjurina"
    assert report["results"]["tau"] == 5
    assert report["warnings"] == []


def test_tjurina_default_vars_are_xyzw(capsys):
    code, report = run(capsys, "tjurina", "x^3+y^3+z^3+w^3+x*y*z*w")
    assert code == 0 and report["results"]["tau"] == 15


def test_tjurina_custom_vars(capsys):
    code, report = run(capsys, "tjurina", "u^2 + v^2 + s^2 + t^2", "--vars", "u,v,s,t")
    assert code == 0 and report["results"]["tau"] == 1


def test_non_isolated_reports_infinite(capsys):
    code, report = run(capsys, "tjurina", "x^2 + y^2")
    assert code == 0
    assert report["results"]["tau"] == "infinite"
    assert report["warnings"]


def test_milnor_report(capsys):
    code, report = run(capsys, "milnor", "x^3+y^3+z^3+w^3")
    assert code == 0 and report["results"]["mu"] == 16
    validate(report, SCHEMA)


def test_parse_error_exits_2(capsys):
    code = main(["tjurina", "x^2+"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "position" in captured.err


def test_undeclared_variable_exits_2(capsys):
    assert main(["tjurina", "q^2"]) == 2


def test_smallres_report(tmp_path, capsys):
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps(
        {"g": "z^5 - w^5", "family": "distinct_lines", "n": 5}))
    code, report = run(capsys, "smallres", str(germ))
    assert code == 0
    validate(report, SCHEMA)
    res = report["results"]
    assert (res["r"], res["delta"], res["b"], res["a"]) == (4, 10, 6, 0)
    assert all(c["pass"] for c in report["checks"])
    assert [c["name"] for c in report["checks"]] == [
        "b >= 0", "a <= b", "tau <= mu", "delta == n*(n-1)/2", "tau == (n-1)^2"]


def test_smallres_inconsistent_germ_exits_1(tmp_path, capsys):
    # five concurrent lines mislabeled as three branches: parity passes,
    # but a small resolution needs ord g = 5 branches
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps({"g": "z^5 - w^5", "family": "custom", "branches": 3}))
    code, report = run(capsys, "smallres", str(germ))
    assert code == 1
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed == [{"name": "branches == ord g", "expected": 3, "actual": 5, "pass": False}]


def test_smallres_cusp_has_no_small_resolution_exits_1(capsys):
    # x^2 + y^2 + z^2 + w^3 is A2: g has one branch but order 2; the germ
    # file is also run by CI without site-packages
    germ = Path(__file__).parent / "data" / "smallres-cusp.json"
    code, report = run(capsys, "smallres", str(germ))
    assert code == 1
    validate(report, SCHEMA)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed == [{"name": "branches == ord g", "expected": 1, "actual": 2, "pass": False}]


def test_smallres_germ_with_r_override_exits_2(tmp_path, capsys):
    # the exceptional curve count is r = branches - 1, never an input
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps(
        {"g": "z^5 - w^5", "family": "custom", "branches": 5, "r_override": 4}))
    assert main(["smallres", str(germ)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown germ keys: ['r_override']\n"


def test_smallres_curve_with_no_pure_power_of_z_answers(capsys):
    # g has no pure power of z, so tau has one engine (unit weights), and
    # g's Euler remainder for them answers where g itself runs past
    # LOCAL_WORK_LIMIT; the germ file is also run by CI without site-packages
    germ = Path(__file__).parent / "data" / "smallres-mu3-curve.json"
    code, report = run(capsys, "smallres", str(germ))
    assert code == 0
    assert (report["results"]["tau"], report["results"]["mu"], report["results"]["a"]) == (3, 3, 0)
    assert all(c["pass"] for c in report["checks"])


def test_smallres_rational_lines_are_checked_distinct_on_ints(tmp_path, capsys):
    # three lines of rational slopes: distinct_lines' check clears each
    # polynomial's denominators and runs the gcd sequence on ints; the germ
    # file is also run by CI without site-packages
    germ = Path(__file__).parent / "data" / "smallres-rational-lines.json"
    code, report = run(capsys, "smallres", str(germ))
    assert code == 0
    validate(report, SCHEMA)
    assert (report["results"]["tau"], report["results"]["delta"]) == (4, 3)
    assert all(c["pass"] for c in report["checks"])
    # the line of slope 1/2 twice: the gcd of u and u' is z - 1/2
    twice = tmp_path / "germ.json"
    twice.write_text(json.dumps(
        {"g": "(z - 1/2*w)^2*(z + 1/3*w)", "family": "distinct_lines", "n": 3}))
    assert main(["smallres", str(twice)]) == 2
    assert capsys.readouterr().err == "error: g has a repeated line\n"


def test_smallres_custom_germ_with_n_exits_2(tmp_path, capsys):
    # n would be echoed in the inputs and ignored: the report counts branches
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps(
        {"g": "z^5 - w^5", "family": "custom", "n": 3, "branches": 5}))
    assert main(["smallres", str(germ)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: custom germs take branches, not n\n"


def test_smallres_missing_file_exits_2(capsys):
    assert main(["smallres", "/no/such/file.json"]) == 2


def test_smallres_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["smallres", str(bad)]) == 2


def test_dualcomplex_invariants(tmp_path, capsys):
    cfgfile = tmp_path / "link.json"
    cfgfile.write_text(json.dumps(
        {"components": [{"id": "E", "kind": "rational", "b2": 7}]}))
    code, report = run(capsys, "dualcomplex-invariants", str(cfgfile))
    assert code == 0
    validate(report, SCHEMA)
    assert report["results"]["ell"] == 6
    assert report["checks"][0]["pass"]
    assert "dot_file" not in report["results"]


def test_dualcomplex_invariants_dot(tmp_path, capsys):
    cfgfile = tmp_path / "chain.json"
    cfgfile.write_text(json.dumps(TYPE_II_CHAIN))
    dotfile = tmp_path / "chain.dot"
    code, report = run(capsys, "dualcomplex-invariants", str(cfgfile),
                       "--dot", str(dotfile))
    assert code == 0
    assert report["results"]["dot_file"] == str(dotfile)
    text = dotfile.read_text()
    assert text.startswith("graph ")
    assert '"E1" -- "E2"' in text


def test_dualcomplex_classify(tmp_path, capsys):
    cfgfile = tmp_path / "disk.json"
    cfgfile.write_text(json.dumps(TYPE_III2_DISK))
    code, report = run(capsys, "dualcomplex-classify", str(cfgfile))
    assert code == 0
    validate(report, SCHEMA)
    assert report["results"]["verdict"] == "TYPE_III_2"
    assert report["results"]["deformation"]["h2_lower_bound"] == 1


def test_classify_unclassified_is_a_normal_result(tmp_path, capsys):
    cfgfile = tmp_path / "pair.json"
    cfgfile.write_text(json.dumps({
        "components": [{"id": "A", "kind": "rational"},
                       {"id": "B", "kind": "rational"}],
        "double_curves": [{"id": "D", "between": ["A", "B"], "genus": 1}],
    }))
    code, report = run(capsys, "dualcomplex-classify", str(cfgfile))
    assert code == 0
    assert report["results"]["verdict"] == "UNCLASSIFIED"
    assert report["results"]["failed_clauses"]


def test_defspace_verify(capsys):
    code, report = run(capsys, "defspace-verify", "--n", "4")
    assert code == 0
    validate(report, SCHEMA)
    assert len(report["checks"]) == 4
    assert all(c["pass"] for c in report["checks"])
    assert report["results"]["jacobian_sign"] == -1


@pytest.mark.parametrize("argv, message", [
    (["defspace-verify", "--n", "60"], f"degree n = 60 too large (over {defspace.DEGREE_LIMIT})"),
    (["defspace-fiber", "--n", "60", "--b", "0"],
     f"degree n = 60 too large (over {defspace.DEGREE_LIMIT})"),
])
def test_defspace_past_its_limits_exits_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 0.1
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, germ, message", [
    (["tjurina", "0"], None, "Tjurina number of the zero polynomial is undefined"),
    (["milnor", "1+x^2"], None, "germ must vanish at the origin"),
    (["smallres"], {"g": "z^2", "family": "custom", "branches": 1},
     "suspended germ has a non-isolated singularity"),
])
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, argv, germ, message):
    # each is a ConfigError raised where the input is first seen
    if germ is not None:
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(germ))
        argv = argv + [str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _b2_inputs(tmp_path, config):
    """argv of dualcomplex-invariants and of corpus on one configuration."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps([{"id": "l", "kind": "link", "config": config}]))
    return (["dualcomplex-invariants", str(path)], ["corpus", str(corpus_path)])


@pytest.mark.parametrize("config", [
    # a 100-component chain of b2 20
    {"components": [{"id": f"E{i}", "b2": 20} for i in range(100)],
     "double_curves": [{"id": f"D{i}", "between": [f"E{i}", f"E{i + 1}"]} for i in range(99)]},
    # one curve between components of b2 200 000
    {"components": [{"id": "A", "b2": 200_000}, {"id": "B", "b2": 200_000}],
     "double_curves": [{"id": "D", "between": ["A", "B"]}]},
    # 200 parallel curves between components of b2 100
    {"components": [{"id": "A", "b2": 100}, {"id": "B", "b2": 100}],
     "double_curves": [{"id": f"D{i}", "between": ["A", "B"]} for i in range(200)]},
], ids=["chain", "pair", "parallel"])
def test_b2_rank_of_shapes_the_elimination_refused_exits_0_at_once(tmp_path, capsys, config):
    for argv in _b2_inputs(tmp_path, config):
        start = time.perf_counter()
        code, report = run(capsys, *argv)
        assert code == 0 and time.perf_counter() - start < 0.1, argv
        assert all(c["pass"] for c in report["checks"]), argv


def test_b2_rank_past_its_limit_exits_2_at_once(tmp_path, capsys):
    # a chain of 5000 components of b2 1, one more curve at its head and
    # 5000 parallel curves at its tail is charged 10000 * (5000 + 10000)
    # units: every tail curve's search would walk the whole chain, and
    # counting it with the limit lifted took 13 s (Python 3.11, 2 cores).
    # The refusal comes before any search, in about 0.1 s there.
    comps = [{"id": f"E{i}", "b2": 1} for i in range(5000)]
    pairs = [(i, i + 1) for i in range(4999)] + [(0, 1)] + [(4998, 4999)] * 5000
    config = {"components": comps,
              "double_curves": [{"id": f"D{j}", "between": [f"E{a}", f"E{b}"]}
                                for j, (a, b) in enumerate(pairs)]}
    message = ("b2 rank cross-check too costly: 10000 double curves x "
               f"(5000 components + 10000 curves) (over {dualcomplex.RANK_WORK_LIMIT} units)")
    for argv in _b2_inputs(tmp_path, config):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and elapsed < 1.0, elapsed
        assert captured.err.startswith("error: ") and captured.err.endswith(message + "\n")
        assert captured.err.count("\n") == 1


def test_defspace_fiber(capsys):
    code, report = run(capsys, "defspace-fiber", "--n", "3", "--b=-1,0")
    assert code == 0
    validate(report, SCHEMA)
    assert report["results"]["count"] == 3
    assert report["results"]["is_generic"] is True
    lams = [p["lam"] for p in report["results"]["rational_points"]]
    assert lams == ["-1", "0", "1"]


def test_defspace_fiber_bad_b_exits_2(capsys):
    assert main(["defspace-fiber", "--n", "3", "--b", "1"]) == 2  # wrong length
    capsys.readouterr()
    for b, detail in [("1,oops", "'oops'"), ("1/0,0", "'1/0'"), ("0, 2/0 ", "'2/0'")]:
        assert main(["defspace-fiber", "--n", "3", f"--b={b}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --b must be comma-separated rationals: {detail}\n"


def test_corpus_bundled(capsys):
    code, report = run(capsys, "corpus")
    assert code == 0
    validate(report, SCHEMA)
    assert report["results"]["total"] >= 12
    assert report["results"]["failed"] == []
    assert all(c["pass"] for c in report["checks"])


def test_corpus_wrong_expectation_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"id": "bad/tau", "kind": "tjurina",
         "poly": "x^2+y^2+z^2+w^6", "expected": {"tau": 99}},
        {"id": "good/tau", "kind": "tjurina",
         "poly": "x^2+y^2+z^2+w^6", "expected": {"tau": 5}},
    ]))
    code, report = run(capsys, "corpus", str(corpus))
    assert code == 1
    assert report["results"]["failed"] == ["bad/tau"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["bad/tau"]["pass"]
    assert by_name["good/tau"]["pass"]


def test_corpus_empty_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["corpus", str(empty)]) == 2


def test_corpus_duplicate_ids_exits_2(tmp_path, capsys):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps([
        {"id": "same", "kind": "tjurina", "poly": "x^2+y^2+z^2+w^2"},
        {"id": "same", "kind": "tjurina", "poly": "x^2+y^2+z^2+w^4"},
    ]))
    assert main(["corpus", str(dup)]) == 2
    assert capsys.readouterr().err == "error: duplicate corpus entry ids\n"


@pytest.mark.parametrize("entries, message", [
    ([{"id": "a", "kind": "tjurina", "poly": "x^2+y^2+z^2+w^2"}, 7],
     "corpus entry 1 is not an object"),
    (["tjurina"], "corpus entry 0 is not an object"),
    ([{"id": "t", "kind": "tjurina"}], "corpus entry 't' needs 'poly'"),
    ([{"id": "m", "kind": "milnor", "vars": ["x"]}], "corpus entry 'm' needs 'poly'"),
    ([{"id": "s", "kind": "smallres"}], "corpus entry 's' needs 'germ'"),
    ([{"id": "l", "kind": "link"}], "corpus entry 'l' needs 'config'"),
    ([{"id": "c", "kind": "classify"}], "corpus entry 'c' needs 'config'"),
    ([{"id": "e", "kind": "semistable", "config": {"components": []}}],
     "corpus entry 'e' needs 'model'"),
    ([{"id": "d", "kind": "defspace"}], "corpus entry 'd' needs 'n'"),
    ([{"id": "f", "kind": "fiber", "n": 3}], "corpus entry 'f' needs 'b'"),
    ([{"id": "f", "kind": "fiber", "b": ["0", "0"]}], "corpus entry 'f' needs 'n'"),
    ([{"id": "k", "kind": ["tjurina"]}], "unknown corpus entry kind"),
    ([{"id": "x", "kind": "tjurina", "poly": "x^2", "expected": [1]}],
     "corpus entry 'x': expected must be an object"),
    ([{"id": "s", "kind": "semistable", "config": CUBIC_CONE_LINK, "model": "cusp"}],
     "semistable model must be an object"),
    ([{"id": "s", "kind": "semistable", "config": CUBIC_CONE_LINK, "model": {}}],
     "unknown semistable model"),
    ([{"id": "s", "kind": "semistable", "config": CUBIC_CONE_LINK,
       "model": {"simple_elliptic": {"m": 3}, "cusp": {"m": 3, "s": 1}}}],
     "unknown semistable model"),
    ([{"id": "s", "kind": "semistable", "config": CUBIC_CONE_LINK,
       "model": {"simple_elliptic": 3}}],
     "semistable model 'simple_elliptic' needs integer 'm'"),
    ([{"id": "s", "kind": "semistable", "config": CUBIC_CONE_LINK,
       "model": {"simple_elliptic": {"m": "3"}}}],
     "semistable model 'simple_elliptic' needs integer 'm'"),
    ([{"id": "s", "kind": "semistable", "config": CUBIC_CONE_LINK,
       "model": {"cusp": {"m": 4}}}],
     "semistable model 'cusp' needs integer 'm' and 's'"),
    ([{"id": "s", "kind": "semistable", "config": CUBIC_CONE_LINK,
       "model": {"cusp": {"m": 4, "s": True}}}],
     "semistable model 'cusp' needs integer 'm' and 's'"),
    ([{"id": ["a"], "kind": "tjurina", "poly": "x^2"}],
     "corpus entry 0: id must be a string"),
    ([{"id": "a", "kind": "tjurina", "poly": "x^2"},
      {"id": 1, "kind": "tjurina", "poly": "x^2"}],
     "corpus entry 1: id must be a string"),
    ([{"id": None, "kind": "tjurina", "poly": "x^2"}],
     "corpus entry 0: id must be a string"),
    ([{"id": "v", "kind": "tjurina", "poly": "x^2+y^3", "vars": "x,y"}],
     "corpus entry 'v': vars must be a nonempty list of strings, got 'x,y'"),
    ([{"id": "v", "kind": "milnor", "poly": "x^2", "vars": []}],
     "corpus entry 'v': vars must be a nonempty list of strings"),
    ([{"id": "v", "kind": "milnor", "poly": "x^2", "vars": ["x", 1]}],
     "corpus entry 'v': vars must be a nonempty list of strings"),
    ([{"id": "p", "kind": "tjurina", "poly": 5}],
     "corpus entry 'p': poly must be a string, got 5"),
    ([{"id": "p", "kind": "milnor", "poly": None}],
     "corpus entry 'p': poly must be a string, got None"),
    ([{"id": "f", "kind": "fiber", "n": 3, "b": 5}],
     "corpus entry 'f': b must be a list of integers or rational strings, got 5"),
    ([{"id": "f", "kind": "fiber", "n": 3, "b": ["0", None]}],
     "corpus entry 'f': b must be a list of integers or rational strings"),
    ([{"id": "f", "kind": "fiber", "n": 3, "b": [0.5, "0"]}],
     "corpus entry 'f': b must be a list of integers or rational strings"),
    ([{"id": "f", "kind": "fiber", "n": 3, "b": [True, "0"]}],
     "corpus entry 'f': b must be a list of integers or rational strings"),
    ([{"id": "f", "kind": "fiber", "n": 3, "b": ["1/0", "0"]}],
     "corpus entry 'f': b must be a list of integers or rational strings"),
    ([{"kind": "tjurina", "poly": "x^2"}, {"kind": "tjurina", "poly": "x^3"}],
     "corpus entry 0 needs 'id'"),
    ([{"id": "a", "kind": "tjurina", "poly": "x^2"}, {"id": "b", "poly": "x^3"}],
     "corpus entry 1 needs 'kind'"),
    ([{"id": "a"}, {"id": "a"}], "corpus entry 0 needs 'kind'"),
    ([{"id": "a", "kind": "tjurina", "poly": "x^2"}, {"kind": "milnor", "poly": "x^2"}],
     "corpus entry 1 needs 'id'"),
    ([{"id": "s", "kind": "smallres", "germ": {"g": 2, "family": "a1_times", "n": 1}}],
     "g must be a polynomial string, got 2"),
    ([{"id": "c", "kind": "classify", "config": {
        "components": [{"id": "E1", "b2": 7, "anticanonical_boundary": "D0"}],
        "marked": {"d0_curve": "D0"}}}],
     "anticanonical_boundary must be a list of curve ids, got 'D0'"),
    ([{"id": "l", "kind": "link", "config": {"components": [{"id": "E", "b2": 7, "h0q": {"x": 1}}]}}],
     "unknown component keys: ['h0q']"),
])
def test_corpus_malformed_entry_exits_2(tmp_path, capsys, entries, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(entries))
    assert main(["corpus", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_deeply_nested_polynomial_exits_2(capsys):
    assert main(["tjurina", "(" * 3000 + "x" + ")" * 3000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parentheses nested too deeply") and err.count("\n") == 1


def test_defspace_verify_runs_each_identity_once(monkeypatch, capsys):
    calls = {"verify_factor_identity": 0, "inverse_composition_reduces": 0}
    for name in calls:
        original = getattr(defspace, name)

        def counted(m, name=name, original=original):
            calls[name] += 1
            return original(m)

        monkeypatch.setattr(defspace, name, counted)
    code, report = run(capsys, "defspace-verify", "--n", "4")
    assert code == 0 and all(c["pass"] for c in report["checks"])
    assert calls == {"verify_factor_identity": 1, "inverse_composition_reduces": 1}


def test_reports_are_byte_identical_for_fixed_seed(tmp_path, capsys):
    cfgfile = tmp_path / "disk.json"
    cfgfile.write_text(json.dumps(TYPE_III2_DISK))
    argv = ["dualcomplex-invariants", str(cfgfile), "--seed", "5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert first.encode() == second.encode()


@pytest.mark.parametrize("argv", [
    ["dualcomplex-invariants", "disk.json"],
    ["defspace-verify", "--n", "5"],
    ["corpus"],
], ids=lambda argv: argv[0])
def test_reports_do_not_depend_on_the_seed(tmp_path, capsys, argv):
    (tmp_path / "disk.json").write_text(json.dumps(TYPE_III2_DISK))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    reports = []
    for seed in ("0", "91"):
        code, report = run(capsys, *argv, "--seed", seed)
        assert code == 0 and report["inputs"].pop("seed") == int(seed)
        reports.append(report)
    assert reports[0] == reports[1]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "singkit.cli", "tjurina", "x^2+y^2+z^2+w^4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["tau"] == 3


def test_tjurina_of_huge_pure_power_is_fast():
    # a one-term power is not expanded by repeated multiplication, and the
    # colength is counted without enumerating 10^8 monomials
    proc = subprocess.run(
        [sys.executable, "-m", "singkit.cli", "tjurina", "x^2+y^2+z^2+w^99999999"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["tau"] == 99999998


def test_main_reuses_one_parser_and_reports_match_a_fresh_process(monkeypatch, capsys):
    built = []

    def build_parser():
        built.append(1)
        return original()

    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    calls = [["tjurina", "x^2+y^3", "--vars", "x,y"],
             ["milnor", "x^2+y^2+z^2+w^3"],
             ["milnor", "x^2", "--samples", "3"],      # argparse exits 2
             ["defspace-fiber", "--n", "3", "--b=-1,0"]]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "singkit.cli", *argv],
                               capture_output=True, timeout=60)
        assert code == fresh.returncode, argv
        assert captured.out.encode() == fresh.stdout, argv
        assert captured.err.encode() == fresh.stderr, argv
    assert codes == [0, 0, 2, 0] and built == [1]


def test_huge_expansion_exits_2_at_once():
    # expanding the power would take minutes; the parser refuses it first
    proc = subprocess.run(
        [sys.executable, "-m", "singkit.cli", "tjurina", "(x+y+z+w)^300+x^2+y^2+z^2+w^2"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: expression too large to expand")
    assert proc.stderr.count("\n") == 1


def test_huge_fiber_coefficient_exits_2_at_once(capsys):
    # trial division up to the square root of b0 would take about 3e13
    # steps; the root search is charged before it runs and refused
    start = time.perf_counter()
    code = main(["defspace-fiber", "--n", "3", "--b=0,1000000000000000000000000000057"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 1.0
    assert captured.err == (
        "error: coefficient 1000000000000000000000000000057 of w^0 too large to search "
        f"for rational roots (over {defspace.ROOT_SEARCH_LIMIT} steps)\n"
    )


def test_big_coefficients_under_a_power_exit_2_at_once(capsys):
    # 222 products on coefficients of thousands of digits: 1 s of parsing
    # before the parser charged coefficient size
    start = time.perf_counter()
    code = main(["milnor", "(123456789012345678901234567890/7*x"
                 " + 98765432109876543210/11*y)^222", "--vars", "x,y"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 0.1
    assert captured.err.startswith("error: expression too large to expand")
    assert captured.err.count("\n") == 1


def test_local_work_limit_exits_2(capsys, monkeypatch):
    from singkit import localring
    monkeypatch.setattr(localring, "LOCAL_WORK_LIMIT", 20_000)
    code = main(["milnor", "-x*y^3*z*w^3 + y^6 - y^2*z^2*w^2 + x^5 + 1/3*w^5 + 2/7*x^2*z*w"
                 " + 2*x*y*z*w - 3/2*y*z^2*w + 1/2*z^3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: local standard basis too costly "
                            "(over 20000 units of Mora reduction work)\n")


# ---------------------------------------------------------------- fuzzed inputs
#
# Valid germ files, configurations and corpus files with one value replaced
# by a random JSON value (or one key dropped), and random polynomial and
# argument text: every call ends in exit 0, 1 or 2, never in a traceback.
# The numbers stay small, so each call takes milliseconds.

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-2, 8)
    | st.sampled_from(["", "x", "0", "-1", "D0", "E1", "z^2 + w^2", "rational", "a1_times"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "g", "b2", "1", "x", "kind"]), inner, max_size=3),
    max_leaves=6,
)
_GERMS = [e["germ"] for e in corpus.ENTRIES if e["kind"] == "smallres"]
_CONFIGS = [corpus.CUBIC_CONE_LINK, corpus.TYPE_II_POINT, corpus.TYPE_II_CHAIN,
            corpus.TYPE_III1_SEGMENT, corpus.TYPE_III2_DISK, corpus.UNCLASSIFIED_PAIR]
_ENTRIES = [e for e in corpus.ENTRIES if e["kind"] != "defspace" or e["n"] <= 3]


def _paths(doc, prefix=()):
    """The path of every value inside doc, as tuples of keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


@st.composite
def _mistyped(draw, docs):
    """One of docs with the value at one path replaced or its key dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return doc


_TEXT = st.text(st.sampled_from("xyzw0123456789+-*^()/, ."), max_size=10)


@st.composite
def _argv(draw, path):
    """A subcommand and its arguments; file arguments name `path`, which
    the test fills with the drawn document."""
    kind = draw(st.sampled_from(["poly", "smallres", "config", "corpus", "defspace"]))
    if kind == "poly":
        return None, [draw(st.sampled_from(["tjurina", "milnor"])), draw(_TEXT),
                      "--vars", draw(st.sampled_from(["x,y,z,w", "x,y", "x", ",", "x,x"]))]
    if kind == "smallres":
        return draw(_mistyped(_GERMS)), ["smallres", path]
    if kind == "config":
        command = draw(st.sampled_from(["dualcomplex-invariants", "dualcomplex-classify"]))
        return draw(_mistyped(_CONFIGS)), [command, path]
    if kind == "corpus":
        return [draw(_mistyped(_ENTRIES))], ["corpus", path]
    n = str(draw(st.integers(-2, 6)))
    if draw(st.booleans()):
        return None, ["defspace-verify", "--n", n, "--seed", str(draw(st.integers(-2, 30)))]
    return None, ["defspace-fiber", "--n", n, f"--b={draw(_TEXT)}"]


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_inputs_exit_0_1_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "input.json")
        doc, argv = data.draw(_argv(path))
        if doc is not None:
            Path(path).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments, with its usage
                assert exc.code == 2, argv
                return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, (argv, doc)


class _Tone(str, enum.Enum):
    LOW = "low é"
    HIGH = 'hi"gh'


_Point = collections.namedtuple("_Point", "lam t")

_SCALARS = [
    "", "plain", 'quote " and \\ backslash', "tab\there\nnewline\x00\x1f\x7f",
    "café → \u2028 \U0001d400", _Tone.LOW, _Tone.HIGH,
    0, 1, -1, True, False, None, 2**64, -(2**64) - 1, 3**200,
    Fraction(1, 2), Fraction(-5, 4), Fraction(4, 2), Fraction(-7),
    INFINITE, -INFINITE, float("nan"), 0.1, -2.5, 1e300, 5e-324, 0.0, -0.0,
]


def _random_value(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(_SCALARS)
    size = rng.choice((0, 1, 2, 3, 5))
    items = [_random_value(rng, depth - 1) for _ in range(size)]
    kind = rng.randrange(6)
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    if kind == 2:
        return _Point(_random_value(rng, depth - 1), items)
    keys = rng.sample(["a", "b", "B", "é", 'k"', "\\", "", "10", "9", "z" * 3], size)
    if kind == 3:
        return dict(zip(keys, items))
    if kind == 4:
        return collections.OrderedDict(zip(reversed(keys), items))
    numbers = [True, 2, -3, 0.5, 2**65, INFINITE, -INFINITE]  # keys json.dumps converts
    return dict(zip(rng.sample(numbers, size), items))


def _written(value):
    out = []
    cli._write(value, out, "\n")
    return "".join(out)


def test_report_writer_matches_json_dumps_of_jsonify():
    rng = random.Random(20261021)
    values = [*_SCALARS, {}, [], (), collections.OrderedDict(), _Point(1, ())]
    values += [_random_value(rng, 4) for _ in range(400)]
    for value in values:
        want = json.dumps(corpus.jsonify(value), indent=2, sort_keys=True)
        assert _written(value) == want, value


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_2_with_one_line(unbuffered):
    # a pipe whose reader is gone; buffered, the write fails only at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "singkit.cli", "tjurina", "x^2+y^2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: stdout closed before the report was written\n"
