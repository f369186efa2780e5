"""Spans and counters around singkit's public functions.

``Tracer.install`` wraps each function in WRAPPED and rebinds the wrapper
in every singkit module namespace that holds the original, so calls
between modules (cli -> localring, localring -> mora_normal_form, ...)
pass through it.  Nothing under ``src/`` changes; ``uninstall`` puts the
originals back.

A span records name, start, end, parent span and op id.  Spans are kept
in memory and written out once, at the end of the run.  A span opened on
a worker thread with nothing open on that thread (the corpus runner's
thread pool) takes the span open on the main thread as its parent.

Each span also has a cost, the time charged to it: its wall time on the
main thread, and the CPU time of its own thread on any other thread.  The
corpus runner's worker threads run side by side under the GIL, so their
wall times overlap and would add up to more than the op took; their CPU
times are serialised by the GIL and add up to the time the main thread
spent waiting for them.  A span's self time is its cost minus its
children's costs, so the self times of one op add up to its wall time up
to the benchmark's own few microseconds around the op (see
``Tracer.self_by_op``).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
from collections import defaultdict

MODULES = ("poly", "localring", "smallres", "dualcomplex", "defspace", "corpus", "cli")


def _count_normal_form(tr, args, result):
    tr.count("localring.spairs")
    if result:
        tr.count("localring.spairs_nonzero")


def _count_basis(tr, args, result):
    tr.count("localring.basis_calls")
    tr.count("localring.basis_size_total", len(result.basis))


def _count_quotient(tr, args, result):
    sb = args[0]
    bounds = []
    for i in range(len(sb.vars)):
        pure = [e[i] for e in sb.leading_exponents
                if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pure:
            return  # positive-dimensional: no box
        bounds.append(min(pure))
    if result != math.inf:
        tr.count("localring.box_monomials", math.prod(bounds))
        tr.count("localring.colength", result)


def _count_oracle(tr, args, result):
    ideal, cutoff = args[0], args[1]
    tr.count("localring.oracle_calls")
    tr.count("localring.oracle_monomials", math.comb(cutoff - 1 + len(ideal.vars), len(ideal.vars)))
    tr.maximum("localring.oracle_cutoff_max", cutoff)


# (defining module, attribute, span name, counter hook).  Both oracle entry
# points share one span name so that nested calls are not counted twice.
WRAPPED = (
    ("poly", "parse_polynomial", "poly.parse", None),
    ("poly", "PolyMatrix.determinant", "poly.determinant", None),
    ("poly", "discriminant", "poly.discriminant", None),
    ("poly", "resultant", "poly.resultant", None),
    ("poly", "univariate_gcd", "poly.gcd", None),
    ("localring", "tjurina_number", "localring.tjurina", None),
    ("localring", "milnor_number", "localring.milnor", None),
    ("localring", "standard_basis", "localring.standard_basis", _count_basis),
    ("localring", "mora_normal_form", "localring.normal_form", _count_normal_form),
    ("localring", "quotient_dim", "localring.quotient_dim", _count_quotient),
    ("localring", "stabilized_oracle_dim", "localring.oracle", None),
    ("localring", "truncated_dim_oracle", "localring.oracle", _count_oracle),
    ("localring", "quasi_homogeneous_weights", "localring.qh_weights", None),
    ("smallres", "germ_from_dict", "smallres.germ", None),
    ("smallres", "suspension", "smallres.suspension", None),
    ("smallres", "small_res_report", "smallres.report", None),
    ("smallres", "plane_delta_invariant", "smallres.delta", None),
    ("dualcomplex", "config_from_dict", "dualcomplex.config", None),
    ("dualcomplex", "link_invariant", "dualcomplex.link", None),
    ("dualcomplex", "restriction_rank_b2", "dualcomplex.rank_b2", None),
    ("dualcomplex", "build_dual_complex", "dualcomplex.complex", None),
    ("dualcomplex", "classify", "dualcomplex.classify", None),
    ("dualcomplex", "deformation_dims", "dualcomplex.deformation", None),
    ("dualcomplex", "h2_lower_bound", "dualcomplex.h2_bound", None),
    ("defspace", "build", "defspace.build", None),
    ("defspace", "verify_factor_identity", "defspace.factor_identity", None),
    ("defspace", "jacobian_identity", "defspace.jacobian", None),
    ("defspace", "inverse_composition_reduces", "defspace.inverse", None),
    ("defspace", "ramification_check", "defspace.ramification", None),
    ("defspace", "fiber_count", "defspace.fiber", None),
    ("corpus", "run_corpus", "corpus.run", None),
    ("corpus", "run_entry", "corpus.entry", None),
    ("cli", "main", "cli.main", None),
)
# Time of an op outside every span: the benchmark's own call, stdout
# capture and budget timer around it.
SLACK_S = 1e-4
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))
LAYERS = MODULES


class Span:
    __slots__ = ("name", "start", "end", "cost", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.parent, self.op = name, start, parent, op
        self.end = self.cost = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.op = None              # id of the op (or reference) being run
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._settled = 0           # spans before this index are closed
        self._patches = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _key(self, key):
        """Counters of reference computations are kept apart."""
        return "ref." + key if str(self.op).startswith("ref:") else key

    def count(self, key, n=1):
        with self._lock:
            self.counters[self._key(key)] += n

    def maximum(self, key, value):
        with self._lock:
            key = self._key(key)
            self.counters[key] = max(self.counters[key], value)

    def _wrap(self, fn, name, hook):
        tracer = self
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            on_main = stack is tracer._main_stack
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(name, perf(), parent, tracer.op)
            stack.append(span)
            tracer.spans.append(span)
            c0 = None if on_main else cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                span.cost = span.end - span.start if on_main else cpu() - c0
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    def settle(self):
        """Close what an op left open.  The budget's exception can land
        inside a wrapper's own bookkeeping and leave a span unclosed or the
        main thread's stack out of step; call this after every op."""
        now = time.perf_counter()
        for s in self.spans[self._settled:]:
            if s.cost is None:
                s.end = now
                s.cost = now - s.start
        self._settled = len(self.spans)
        self._main_stack.clear()

    def install(self):
        pkg = importlib.import_module("singkit")
        namespaces = [pkg] + [importlib.import_module(f"singkit.{m}") for m in MODULES]
        for modname, attr, name, hook in WRAPPED:
            module = importlib.import_module(f"singkit.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, hook))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Self time of each span, in the order of ``spans``: its cost minus
        its children's costs, and never below 0.  Were children charged more
        than their parent took (overlapping wall times), the self times of
        an op would add up to more than its wall time, which ``self_by_op``
        shows."""
        charged = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                charged[id(s.parent)] += s.cost
        return [max(0.0, s.cost - charged[id(s)]) for s in self.spans]

    def self_by_op(self):
        """Sum of the self times of each op's spans, by op id: the time the
        layers account for on the op's blocking path."""
        out = defaultdict(float)
        for s, v in zip(self.spans, self.self_times()):
            out[s.op] += v
        return out

    def layer_metrics(self, n_ops):
        """Per-layer metrics of the timed ops, normalised per op.  Spans
        and counters of the references are left out, except for the
        reference.* metrics, which show what checking the ops costs."""
        inclusive = defaultdict(float)
        self_by_name = defaultdict(float)
        ref_oracle = 0.0
        for s, self_s in zip(self.spans, self.self_times()):
            p = s.parent
            while p is not None and p.name != s.name:
                p = p.parent
            outermost = p is None
            if s.op.startswith("ref:"):
                if outermost and s.name == "localring.oracle":
                    ref_oracle += s.cost
                continue
            self_by_name[s.name] += self_s
            if outermost:
                inclusive[s.name] += s.cost
        m = {}
        for name in SPAN_NAMES:
            m[f"{name}_s"] = (inclusive[name] / n_ops, "s/op")
            m[f"{name}.self_s"] = (self_by_name[name] / n_ops, "s/op")
        for layer in LAYERS:
            total = sum(v for k, v in self_by_name.items() if k.split(".")[0] == layer)
            m[f"{layer}.self_s"] = (total / n_ops, "s/op")
        c = self.counters
        m["localring.spairs"] = (c["localring.spairs"] / n_ops, "count/op")
        m["localring.spairs_useful_ratio"] = (
            _ratio(c["localring.spairs_nonzero"], c["localring.spairs"]), "ratio")
        m["localring.basis_size"] = (
            _ratio(c["localring.basis_size_total"], c["localring.basis_calls"]), "count")
        m["localring.box_monomials"] = (c["localring.box_monomials"] / n_ops, "count/op")
        m["localring.colength"] = (c["localring.colength"] / n_ops, "count/op")
        m["localring.quotient_useful_ratio"] = (
            _ratio(c["localring.colength"], c["localring.box_monomials"]), "ratio")
        m["localring.oracle_calls"] = (c["localring.oracle_calls"] / n_ops, "count/op")
        m["localring.oracle_cutoff_max"] = (c["localring.oracle_cutoff_max"], "count")
        m["localring.oracle_monomials"] = (c["localring.oracle_monomials"] / n_ops, "count/op")
        m["localring.undecided_in_standard_basis"] = (
            c["undecided.standard_basis"] / n_ops, "count/op")
        m["localring.undecided_in_quotient_dim"] = (
            c["undecided.quotient_dim"] / n_ops, "count/op")
        m["cli.report_bytes"] = (_ratio(c["cli.report_bytes"], c["cli.ops"]), "bytes/op")
        m["reference.oracle_s"] = (ref_oracle / n_ops, "s/op")
        m["reference.oracle_cutoff_max"] = (c["ref.localring.oracle_cutoff_max"], "count")
        return m

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps([s.name, s.start, s.end, s.cost, parent, s.op]) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


def self_sum_check(tracer, results, tolerance):
    """Compare, for each op of `results`, the sum of its spans' self times
    with its wall time.  Returns the summed absolute difference as a share
    of the summed wall time, and the ops whose difference exceeds
    `tolerance` times their wall time plus SLACK_S."""
    by_op = tracer.self_by_op()
    error, wall, off = 0.0, 0.0, []
    for r in results:
        total = by_op.get(r.op.id, 0.0)
        error += abs(total - r.wall)
        wall += r.wall
        if abs(total - r.wall) > tolerance * r.wall + SLACK_S:
            off.append({"id": r.op.id, "wall_s": r.wall, "self_sum_s": total})
    return (error / wall if wall else 0.0), off
