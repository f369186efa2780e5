"""Timed closed loop, per-op budget and the end-to-end metrics.

One client runs one op at a time on the main thread (a closed loop with
no think time), round after round.  Each op runs under a budget enforced
with SIGALRM; an op that hits it is abandoned and recorded together with
the chain of public ``singkit.localring`` functions that was running.
References are computed after the loop, outside every timed window.

Reference seconds.  On a shared host the speed of pure-Python code can
change by 1.5x or more for tens of seconds at a time, as other tenants
come and go: the same ops on the same inputs, run twice a minute apart on
a 2-core x86-64 VM, took 0.6x the time in the second run over whole
rounds.  No number of rounds in one run averages that out, so op times
are reported in *reference seconds*: the op's wall time times
REFERENCE_LOOP_S over the time of a fixed pure-Python loop of the kind
singkit runs (tuple keys, dict updates, Fraction arithmetic), taken as
the mean of the loop's time just before and just after the op.  It is the
time the op would take on a host that runs the loop in REFERENCE_LOOP_S.
The loop runs with the garbage collector off, so the size of the heap an
op leaves behind does not enter it.  The per-op budget is in the same
unit.  ``setup_s`` stays in wall seconds.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_LOOP_S = 8e-4
TAIL_Q = 0.90    # tail percentile of a round of >= 100 ops: >= 10 ops beyond it
MIN_ROUNDS = 3   # medians are taken over at least this many rounds


def loop_time():
    """Wall time of a fixed pure-Python loop: the best of two runs, with
    the garbage collector off."""
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            acc = {}
            for i in range(200):
                key = (i % 7, i % 5, i % 3, i % 11)
                acc[key] = acc.get(key, 0) + Fraction(i, 7)
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class BudgetExceeded(BaseException):
    """Raised on the main thread when an op overruns its budget.  A
    BaseException, so the program's own ``except Exception`` handlers
    cannot swallow it."""

    def __init__(self, where):
        super().__init__(where)
        self.where = where


def localring_chain(frame):
    """Public singkit.localring functions on the stack, outermost first,
    e.g. 'tjurina_number>standard_basis>mora_normal_form'."""
    names = []
    while frame is not None:
        code = frame.f_code
        if code.co_filename.endswith("localring.py") and code.co_name[0] not in "_<":
            if not names or names[-1] != code.co_name:
                names.append(code.co_name)
        frame = frame.f_back
    return ">".join(reversed(names)) or "-"


class Budget:
    """SIGALRM-based per-op budget, armed only around an op."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise BudgetExceeded(localring_chain(frame))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc):
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)

    def arm(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Result:
    op: object
    round: int
    wall: float
    status: str               # ok | budget | error, then mismatch after checking
    value: object = None
    detail: str = ""
    expected: object = None
    ref: float = None         # the op's time in reference seconds

    @property
    def correct(self):
        return self.status == "ok"


def run_op(op, budget, round_=0, limit=None):
    """Run one op under the budget, or under `limit` wall seconds."""
    perf = time.perf_counter
    t0 = perf()
    try:
        budget.arm(budget.seconds if limit is None else limit)
        value = op.call()
        budget.disarm()
        res = Result(op, round_, perf() - t0, "ok", value)
    except BudgetExceeded as exc:
        res = Result(op, round_, perf() - t0, "budget", detail=exc.where)
    except Exception as exc:  # any error of the program is a failed op
        budget.disarm()
        res = Result(op, round_, perf() - t0, "error", detail=f"{type(exc).__name__}: {exc}")
    return res


class Clock:
    """Runs ops with the reference loop timed between them, and gives each
    result its time in reference seconds.  The budget (in reference
    seconds) is turned into wall seconds with the loop time just before
    the op."""

    def __init__(self):
        self._last = loop_time()

    def run(self, op, budget, round_=0):
        before = self._last
        res = run_op(op, budget, round_, budget.seconds * before / REFERENCE_LOOP_S)
        self._last = loop_time()
        res.ref = res.wall * 2 * REFERENCE_LOOP_S / (before + self._last)
        return res


def run_rounds(rounds, seconds, min_rounds, max_rounds, budget, between=None):
    """Run whole rounds until `seconds` of op wall time have passed, with
    at least min_rounds and at most max_rounds rounds.  `rounds(r)` gives
    the ops of round r.  `between(busy)`, if given, is called before each
    op with the op wall time so far, and returns whether it did any work."""
    clock = Clock()
    results = []
    busy = 0.0
    r = 0
    while r < max_rounds and (busy < seconds or r < min_rounds):
        for op in rounds(r):
            if between is not None and between(busy):
                clock = Clock()  # time the loop again after the pause
            res = clock.run(op, budget, r)
            results.append(res)
            busy += res.wall
        r += 1
    return results


def check_results(results, references, on_reference=None):
    """Compare each answered op with its reference, computing references
    (outside the timed windows) into the `references` cache by op id, and
    mark ops whose output disagrees as mismatches."""
    for res in results:
        if res.status != "ok":
            continue
        op = res.op
        try:
            if op.id not in references:
                if on_reference:
                    on_reference(op)
                references[op.id] = op.expect()
            res.expected = references[op.id]
            problem = op.check(res.value, res.expected)
        except Exception as exc:  # a reference or check that breaks fails the op
            problem = f"reference failed: {type(exc).__name__}: {exc}"
        if problem is not None:
            res.status, res.detail = "mismatch", problem
    return results


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(results, workload, setup_samples, peak_rss_mb):
    """The end-to-end metrics of one run: latencies and throughput are
    medians over rounds of each round's value, in reference seconds;
    `setup_samples` are wall seconds.  A budget hit counts at the time it
    ran, which is the budget; an op that raised or answered wrongly counts
    at no less than the budget."""
    by_round = {}
    for r in results:
        by_round.setdefault(r.round, []).append(r)
    p50, tail, rate = [], [], []
    for rs in by_round.values():
        lat = sorted(r.ref if r.status in ("ok", "budget") else max(r.ref, workload.budget_s)
                     for r in rs)
        p50.append(statistics.median(lat))
        tail.append(nearest_rank(lat, TAIL_Q))
        rate.append(sum(r.correct for r in rs) / sum(r.ref for r in rs))
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_latency_p50_s": (statistics.median(p50), "ref_s"),
        "op_latency_tail_s": (statistics.median(tail), "ref_s"),
        "ops_per_s": (statistics.median(rate), "1/ref_s"),
        "ok_frac": (sum(r.correct for r in results) / len(results), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def failures(results):
    """Ops whose program raised, exited non-zero or answered wrongly.  A
    budget hit is not among them: the benchmark cut the op off, the program
    gave no wrong answer.  It counts at the budget in the latencies, is not
    a correct op in ok_frac and ops_per_s, and is listed by budget_hits."""
    return [
        {"id": r.op.id, "status": r.status, "detail": r.detail,
         "expected": _plain(r.expected), "actual": _plain(r.value), "input": r.op.input}
        for r in results if r.status in ("error", "mismatch")
    ]


def budget_hits(results):
    """'<op id>@<localring chain running when the budget fired>' per hit."""
    return [f"{r.op.id}@{r.detail}" for r in results if r.status == "budget"]


def _plain(v):
    """JSON-friendly rendering of an op value or reference."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (list, tuple)) and len(v) == 2 and isinstance(v[1], str):
        return {"exit": v[0], "report_head": v[1][:200]}
    return repr(v)


def log(msg):
    print(msg, file=sys.stderr, flush=True)
