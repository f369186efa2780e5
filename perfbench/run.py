"""singkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse-germs --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced replay.  Details (failed op ids with expected and actual values,
budget hits with the localring function that was running, and with
--trace 1 every span) go to .perfbench_out/ and a summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness
import workloads
from tracing import Tracer, self_sum_check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11


def import_singkit():
    """Import singkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "singkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no singkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import singkit
    import singkit.cli  # noqa: F401  (the CLI ops call singkit.cli.main)
    if Path(singkit.__file__).resolve().parent != SRC / "singkit":
        raise SystemExit(f"error: imported singkit from {singkit.__file__}, not {SRC}")
    return singkit


class Rounds:
    """The workload's rounds, made on first use and then kept."""

    def __init__(self, sk, workload, seed, workdir):
        self._made = []
        self._make = lambda r: workload.make_round(sk, seed, r, workdir)

    def __call__(self, r):
        while len(self._made) <= r:
            self._made.append(self._make(len(self._made)))
        return self._made[r]


def set_up(workload, seed, workdir):
    """Everything between a fresh interpreter and the first timed op:
    import singkit, then generate and parse the inputs of the rounds every
    run measures.  Later rounds are made between rounds, untimed."""
    sk = import_singkit()
    rounds = Rounds(sk, workload, seed, workdir)
    rounds(harness.MIN_ROUNDS - 1)
    return rounds


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, spawn to ready, in seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed with exit code {code}")
    return elapsed


def replay_traced(untraced, budget):
    """Run the ops of the untraced results again with spans and counters
    installed."""
    tracer = Tracer()
    tracer.install()
    try:
        clock = harness.Clock()
        results = []
        for prev in untraced:
            op = prev.op
            tracer.op = op.id
            res = clock.run(op, budget, prev.round)
            tracer.settle()
            if res.status == "budget":
                for fn in ("standard_basis", "quotient_dim"):
                    if fn in res.detail.split(">"):
                        tracer.count(f"undecided.{fn}")
            if op.id.startswith("cli") and res.status == "ok":
                tracer.count("cli.ops")
                tracer.count("cli.report_bytes", len(res.value[1].encode()))
            results.append(res)

        def on_reference(op):
            tracer.op = f"ref:{op.id}"
        references = {}
        harness.check_results(results, references, on_reference)
    finally:
        tracer.uninstall()
    return tracer, results, references


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    try:
        t0 = time.perf_counter()
        rounds = set_up(workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        inprocess_setup = time.perf_counter() - t0
        setup = []

        def probe_due(busy):
            """Set-up probes spread over the run's op time, so that their
            median is not that of one moment of a shared host."""
            due = len(setup) < SETUP_PROBES and busy >= len(setup) * args.seconds / SETUP_PROBES
            if due:
                setup.append(probe_setup(workload, args.seed))
            return due

        with harness.Budget(workload.budget_s) as budget:
            if args.trace:  # half the time untraced, then the same ops traced
                results = harness.run_rounds(rounds, args.seconds / 2, 1,
                                             workload.max_rounds, budget)
            else:
                results = harness.run_rounds(rounds, args.seconds, harness.MIN_ROUNDS,
                                             workload.max_rounds, budget, probe_due)
                while probe_due(math.inf):
                    pass
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                tracer, traced, references = replay_traced(results, budget)
            else:
                references = {}
            harness.check_results(results, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run = traced if args.trace else results
    failed = harness.failures(run)
    hits = harness.budget_hits(run)
    wrong = harness.failures(results + traced) if args.trace else list(failed)
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "budget_s": workload.budget_s,
        "tail_percentile": harness.TAIL_Q * 100, "samples": len(run),
        "rounds": len({r.round for r in run}),
        "inprocess_setup_s": inprocess_setup, "setup_probes_s": setup,
        "budget_hits": hits,
        "failed": failed,
        "op_ref_s": {r.op.id: r.ref for r in run},
    }
    if args.trace:
        metrics = tracer.layer_metrics(len(traced))
        both = [(u.ref, t.ref) for u, t in zip(results, traced) if u.correct and t.correct]
        overhead = sum(t for _, t in both) / sum(u for u, _ in both) - 1 if both else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        # The layers' self times on each op's blocking path must add up to
        # the op's wall time, within 5 % plus the tracing overhead.
        error, off = self_sum_check(tracer, traced, 0.05 + max(0.0, overhead))
        metrics["trace.self_sum_error_frac"] = (error, "ratio")
        detail["self_sum_off"] = off
        wrong += [{"id": f"trace:{o['id']}", "status": "mismatch",
                   "detail": f"layer self times {o['self_sum_s']:.6f} s, wall {o['wall_s']:.6f} s"}
                  for o in off]
    else:
        metrics = harness.end_to_end(results, workload, setup, peak_rss_mb)
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    harness.log(f"{workload.name} seed={args.seed}: {len(run)} ops, {len(hits)} budget hits, "
                f"{len(failed)} failed; "
                f"details in {stem.with_suffix('.json').relative_to(ROOT)}")
    for f in wrong:
        harness.log(f"  WRONG {f['id']}: {f['detail']}")

    print(json.dumps({
        "correct": not wrong,
        "attempted": len(run),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
