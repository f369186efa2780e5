"""Tests of the benchmark itself: generators, references, failure
accounting, budget and tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import singkit  # noqa: E402
import singkit.cli  # noqa: E402,F401
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, self_sum_check  # noqa: E402


def _budget(seconds=10.0):
    return harness.Budget(seconds)


def test_germ_generators_are_deterministic():
    for gen in (wl.sparse_germ, wl.brieskorn_germ):
        first = json.dumps([gen(k, 7) for k in range(60)]).encode()
        again = json.dumps([gen(k, 7) for k in range(60)]).encode()
        assert first == again
        assert first != json.dumps([gen(k, 8) for k in range(60)]).encode()


def _support(text):
    return sorted(re.sub(r"^\d+\*", "", m) for m in text.replace("-", "+").split("+"))


def test_sparse_support_is_fixed_and_coefficients_follow_the_seed():
    for k in range(1, 30):
        (t7, a7), (t8, a8) = wl.sparse_germ(k, 7), wl.sparse_germ(k, 8)
        assert a7 == a8 and all(3 <= x <= 5 for x in a7)
        assert _support(t7) == _support(t8)
    assert wl.sparse_germ(0, 7) == (wl.PINNED_GERM, None)


def test_brieskorn_rounds_span_the_colength_range_with_equal_work():
    totals = []
    for seed, r in [(3, 0), (3, 1), (4, 0)]:
        exps = [wl.brieskorn_exponents(k, seed, r) for k in range(wl.BRIESKORN_GERMS_PER_ROUND)]
        colengths = [wl.milnor_orlik(a) for a in exps]
        assert 900 <= min(colengths) < 1200 and 80_000 < max(colengths) <= 100_000
        assert any(sum(a - 2 for a in e) > 40 for e in exps)
        totals.append(sum(colengths))
    assert max(totals) < 1.02 * min(totals)


def test_cli_pass_inputs_are_deterministic(tmp_path):
    def render(seed, p):
        ops = wl.cli_pass(singkit, seed, p, tmp_path)
        files = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
        return [op.input for op in ops], files

    assert render(5, 3) == render(5, 3)
    assert render(5, 3)[0] != render(6, 3)[0]
    assert [op.id.split(".")[1] for op in wl.cli_pass(singkit, 5, 3, tmp_path)] == list(wl.CLI_PASS_KINDS)


def test_reference_values_on_known_germs():
    fermat = singkit.parse_polynomial("x^3+y^3+z^3+w^3", wl.VARS)
    assert wl.milnor_orlik((3, 3, 3, 3)) == 16
    assert wl.oracle_value(singkit, fermat, True) == 16
    assert wl.oracle_value(singkit, fermat, False) == 16
    deformed = singkit.parse_polynomial("x^3+y^3+z^3+w^3+x*y*z*w", wl.VARS)
    assert wl.oracle_value(singkit, deformed, True) == 15


def test_fiber_roots_construction():
    # (w - 1)(w + 1) w = w^3 - w
    assert wl.coefficients_from_roots([1, -1, 0]) == [-1, 0]
    # (w - 2)^2 (w + 4) = w^3 - 12 w + 16
    assert wl.coefficients_from_roots([2, 2, -4]) == [-12, 16]
    rng = random.Random(0)
    for n in range(3, 11):
        roots = wl.roots_summing_to_zero(n, rng)
        assert len(roots) == n and sum(roots) == 0


def test_every_cli_op_matches_its_reference(tmp_path):
    ops = wl.cli_pass(singkit, 11, 4, tmp_path)
    with _budget() as budget:
        results = harness.check_results([harness.run_op(op, budget) for op in ops], {})
    assert [r.status for r in results] == ["ok"] * len(ops), harness.failures(results)


def test_wrong_reference_is_a_failed_op():
    f = singkit.parse_polynomial("x^3+y^3+z^3+w^3", wl.VARS)
    op = wl.Op("fermat.tau", "x^3+y^3+z^3+w^3", lambda: singkit.tjurina_number(f),
               lambda: 17, lambda v, e: None if v == e else f"expected {e}, got {v}")
    with _budget() as budget:
        results = harness.check_results([harness.Clock().run(op, budget)], {})
    [failed] = harness.failures(results)
    assert failed["id"] == "fermat.tau" and failed["status"] == "mismatch"
    assert failed["expected"] == 17 and failed["actual"] == 16
    lat = harness.end_to_end(results, wl.WORKLOADS["sparse-germs"], [0.1], 1.0)
    assert lat["ok_frac"][0] == 0.0
    assert lat["op_latency_p50_s"][0] >= wl.WORKLOADS["sparse-germs"].budget_s


def test_failing_cli_op_is_a_failed_op(tmp_path):
    op = wl.Op("bad.tjurina", "tjurina 1+x", lambda: wl._cli_call(singkit, ["tjurina", "1+x"]),
               lambda: {"tau": 0}, wl._report_check(wl._fields(["tau"])))
    with _budget() as budget:
        [res] = harness.check_results([harness.run_op(op, budget)], {})
    assert res.status == "mismatch" and res.detail == "exit code 2"


def test_budget_hit_names_the_running_localring_function():
    f = singkit.parse_polynomial(wl.PINNED_GERM, wl.VARS)
    op = wl.Op("pinned.tau", wl.PINNED_GERM, lambda: singkit.tjurina_number(f),
               lambda: 33, lambda v, e: None)
    with _budget(0.2) as budget:
        res = harness.run_op(op, budget)
    assert res.status == "budget"
    assert res.detail.startswith("tjurina_number>standard_basis")
    assert 0.2 <= res.wall < 1.0
    # a budget hit is listed by id, is not a failed op, and is not correct
    assert harness.failures([res]) == []
    assert harness.budget_hits([res]) == [f"pinned.tau@{res.detail}"]
    res.ref = res.wall
    assert harness.end_to_end([res], wl.WORKLOADS["sparse-germs"], [0.1], 1.0)["ok_frac"][0] == 0.0


def test_layer_self_times_add_up_to_each_op_and_tracer_is_removed(tmp_path):
    original = singkit.localring.standard_basis
    ops = wl.cli_pass(singkit, 2, 1, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert singkit.localring.standard_basis is not original
        with _budget() as budget:
            results = []
            for op in ops:
                tracer.op = op.id
                results.append(harness.run_op(op, budget))
                tracer.settle()
    finally:
        tracer.uninstall()
    assert singkit.localring.standard_basis is original
    assert singkit.cli.tjurina_number is singkit.localring.tjurina_number
    assert [r.status for r in results] == ["ok"] * len(ops)
    error, off = self_sum_check(tracer, results, 0.05)
    assert off == [] and error < 0.05
    m = tracer.layer_metrics(len(results))
    assert m["cli.main_s"][0] > 0 and m["localring.standard_basis_s"][0] > 0


def test_corpus_worker_spans_add_up_within_the_corpus_op(tmp_path):
    op = [op for op in wl.cli_pass(singkit, 3, 0, tmp_path) if op.id.endswith(".corpus")][0]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = op.id
        with _budget() as budget:
            res = harness.run_op(op, budget)
        tracer.settle()
    finally:
        tracer.uninstall()
    assert res.status == "ok"
    entries = [s for s in tracer.spans if s.name == "corpus.entry"]
    [run] = [s for s in tracer.spans if s.name == "corpus.run"]
    assert len(entries) > 8 and all(s.parent is run for s in entries)
    # worker threads overlap in wall time; their charged CPU times do not
    assert sum(s.cost for s in entries) <= run.cost
    assert self_sum_check(tracer, [res], 0.05)[1] == []


def test_self_sum_check_catches_children_charged_more_than_their_parent():
    tracer = Tracer()
    root = Span("cli.main", 0.0, None, "op")
    root.end = root.cost = 1.0
    tracer.spans.append(root)
    for start in (0.1, 0.2):  # two overlapping children of 0.8 s each
        child = Span("corpus.entry", start, root, "op")
        child.end, child.cost = start + 0.8, 0.8
        tracer.spans.append(child)
    res = harness.Result(wl.Op("op", "", None, None, None), 0, 1.0, "ok")
    error, off = self_sum_check(tracer, [res], 0.05)
    assert [o["id"] for o in off] == ["op"] and error > 0.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tail_percentile_keeps_ten_ops_of_a_round_beyond(name, tmp_path):
    w = wl.WORKLOADS[name]
    n = len(w.make_round(singkit, 1, 0, tmp_path))
    assert n - math.ceil(harness.TAIL_Q * n) >= 10
