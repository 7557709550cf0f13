"""Outside-in span tracing of the ieco_mco package.

The tracer rebinds the module and class attributes that the package's own
callers look up at call time (``ieco_mco.harness.step``,
``ieco_mco.covariance.estimate``, ``ProblemSpec.evaluate`` ...) to thin
wrappers that record one span per call: name, start, end and parent. Nothing
under ``src/`` changes; :meth:`Tracer.installed` restores every attribute on
exit, so untraced passes in the same process run the original code.

Spans are kept in memory in flat arrays and written out once at the end.
Counters that need a call's arguments or result (accepted proposals, archive
duplicates, resamples, bytes written) are taken by hooks. A ``pre`` hook is a
few attribute reads and runs untimed; a ``post`` hook runs inside a ``probe``
span of its own, so its cost lands in no layer.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import ieco_mco.cli as cli
import ieco_mco.covariance as covariance
import ieco_mco.harness as harness
import ieco_mco.stages as stages
import ieco_mco.stats as stats
from ieco_mco.problems.core import ProblemSpec

PROBE = "probe"

# Span name -> layer. Layers are named after the package's modules.
LAYER_OF = {
    "levy_sample": "rng", "clamp": "rng", "init_population": "rng",
    "step": "stages", "StageContext.draw": "stages",
    "primary_school_update": "stages", "primary_student_update": "stages",
    "middle_school_update": "stages", "middle_student_update": "stages",
    "high_school_update": "stages", "high_student_update": "stages",
    "estimate": "covariance", "gaussian_operator": "covariance",
    "shift_operator": "covariance", "differential_operator": "covariance",
    "CovModel.sample": "covariance", "elite_indices": "covariance",
    "EliteArchive.push": "covariance",
    "ProblemSpec.batch": "problems", "ProblemSpec.evaluate": "problems",
    "make_problem": "problems",
    "constrained_evaluate": "handling",
    "Evaluator.evaluate": "harness", "run_single": "harness",
    "run_batch": "harness", "persist": "harness", "load": "harness",
    "export_trace": "harness", "ResultSet.to_matrix": "harness",
    "ResultSet.validate_rectangular": "harness",
    "friedman": "stats", "wtl_table": "stats", "kruskal_wallis": "stats",
    "wilcoxon_rank_sum": "stats",
    "main": "cli",
    PROBE: PROBE,
}
RULES = ("primary_school_update", "primary_student_update",
         "middle_school_update", "middle_student_update",
         "high_school_update", "high_student_update")
OPERATORS = ("gaussian_operator", "shift_operator", "differential_operator",
             "CovModel.sample")

# (owner, attribute, span name). Functions appear once per module that calls
# them through its own namespace.
_MODULE_TARGETS = [
    (stages, "levy_sample", "levy_sample"),
    (stages, "clamp", "clamp"),
    (covariance, "clamp", "clamp"),
    (harness, "init_population", "init_population"),
    (harness, "step", "step"),
    *[(stages, rule, rule) for rule in RULES],
    (covariance, "estimate", "estimate"),
    (covariance, "gaussian_operator", "gaussian_operator"),
    (covariance, "shift_operator", "shift_operator"),
    (covariance, "differential_operator", "differential_operator"),
    (covariance, "elite_indices", "elite_indices"),
    (harness, "make_problem", "make_problem"),
    (harness, "constrained_evaluate", "constrained_evaluate"),
    (harness, "run_single", "run_single"),
    (harness, "run_batch", "run_batch"),
    (harness, "persist", "persist"),
    (harness, "load", "load"),
    (harness, "export_trace", "export_trace"),
    (stats, "friedman", "friedman"),
    (stats, "wtl_table", "wtl_table"),
    (stats, "kruskal_wallis", "kruskal_wallis"),
    (stats, "wilcoxon_rank_sum", "wilcoxon_rank_sum"),
    (cli, "main", "main"),
]
_METHOD_TARGETS = [
    (stages.StageContext, "draw", "StageContext.draw"),
    (covariance.CovModel, "sample", "CovModel.sample"),
    (covariance.EliteArchive, "push", "EliteArchive.push"),
    (ProblemSpec, "batch", "ProblemSpec.batch"),
    (ProblemSpec, "evaluate", "ProblemSpec.evaluate"),
    (harness.Evaluator, "evaluate", "Evaluator.evaluate"),
    (harness.ResultSet, "to_matrix", "ResultSet.to_matrix"),
    (harness.ResultSet, "validate_rectangular",
     "ResultSet.validate_rectangular"),
]


class Tracer:
    """In-memory span store plus the counters its hooks fill."""

    def __init__(self):
        self.names = list(LAYER_OF)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("h")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = Counter()
        self._step_pop = None
        self._directions = {}

    def _record(self, name, fn, pre=None, post=None):
        nid = self._ids[name]
        probe_id = self._ids[PROBE]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                j = len(names)
                names.append(probe_id)
                parents.append(stack[-1])
                ends.append(0)
                starts.append(clock())
                post(self, args, result)
                ends[j] = clock()
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Rebind every traced attribute; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in _MODULE_TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                pre, post = _HOOKS.get(name, (None, None))
                setattr(owner, attr, self._record(name, fn, pre, post))
            for cls, attr, name in _METHOD_TARGETS:
                raw = cls.__dict__[attr]
                saved.append((cls, attr, raw))
                pre, post = _HOOKS.get(name, (None, None))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._record(name, raw.__func__, pre, post))
                else:
                    wrapped = self._record(name, raw, pre, post)
                setattr(cls, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path):
        """Write every span (name id, parent index, start, end) to ``path``."""
        np.savez(path, names=np.array(self.names), **self.arrays())


# ------------------------------------------------------------------- hooks

def _step_enter(tracer, args):
    tracer._step_pop = args[0]


def _step_exit(tracer, args, result):
    tracer._step_pop = None


def _evaluated(tracer, args, result):
    # Inside step the population is sorted and not yet updated, so this is
    # exactly step's ``improved = child_fit < pop.fitness``.
    pop = tracer._step_pop
    if pop is not None:
        tracer.counts["proposals"] += pop.fitness.shape[0]
        tracer.counts["accepted"] += int(np.count_nonzero(result[0] < pop.fitness))


def _archive_rows(tracer, args, result):
    # Rows are told apart by a projection on a fixed random direction: equal
    # rows always collide, distinct real rows almost never do.
    X = args[0].positions()
    d = X.shape[1]
    if d not in tracer._directions:
        tracer._directions[d] = np.random.default_rng(d).standard_normal(d)
    tracer.counts["archive_rows"] += X.shape[0]
    keys = (X * tracer._directions[d]).sum(axis=1)
    tracer.counts["archive_unique"] += np.unique(keys).shape[0]


def _batch_rows(tracer, args):
    tracer.counts["batch_rows"] += np.atleast_2d(args[1]).shape[0]


def _handled(tracer, args, result):
    extra = result.evaluations - 1
    if extra > 0:
        tracer.counts["resample_evals"] += extra
        tracer.counts["resample_feasible"] += int(result.feasible)


def _persisted(tracer, args, result):
    for dirpath, _, files in os.walk(result):
        for f in files:
            tracer.counts["files_written"] += 1
            tracer.counts["bytes_written"] += os.path.getsize(os.path.join(dirpath, f))


_HOOKS = {
    "step": (_step_enter, _step_exit),
    "Evaluator.evaluate": (None, _evaluated),
    "ProblemSpec.batch": (_batch_rows, None),
    "constrained_evaluate": (None, _handled),
    "persist": (None, _persisted),
    "estimate": (None, _archive_rows),
}


# ------------------------------------------------------------ aggregation

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith(("_ratio", "_share", "_yield", "_frac")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, traced_walls, traced_scaled,
                  untraced_scaled_s: float, import_s: float) -> dict:
    """Per-layer metrics per traced pass, from the recorded spans.

    ``traced_walls`` are the wall times of the traced passes, and
    ``traced_scaled`` the same rescaled to reference speed;
    ``untraced_scaled_s`` is the median untraced pass, rescaled.
    """
    passes = len(traced_walls)
    a = tracer.arrays()
    dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.shape[0])
    self_s = dur - child
    nid = a["name"].astype(np.intp)
    k = len(tracer.names)
    self_by = dict(zip(tracer.names, np.bincount(nid, weights=self_s, minlength=k)))
    calls = dict(zip(tracer.names, np.bincount(nid, minlength=k).tolist()))
    top_s = float(dur[~has_parent].sum())
    c = tracer.counts

    def per_pass(x):
        return float(x) / passes

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def layer_self(layer):
        return per_pass(sum(s for n, s in self_by.items() if LAYER_OF[n] == layer))

    evals = calls["ProblemSpec.evaluate"] + c["batch_rows"]
    m = {
        "rng.self_s": layer_self("rng"),
        "rng.calls": per_pass(calls["levy_sample"] + calls["clamp"]
                              + calls["init_population"]),
        "stages.self_s": layer_self("stages"),
        "stages.rule_calls": per_pass(sum(calls[r] for r in RULES)),
        "stages.iterations": per_pass(calls["step"]),
        "stages.accept_ratio": ratio(c["accepted"], c["proposals"]),
        "covariance.self_s": layer_self("covariance"),
        "covariance.estimate_s": per_pass(self_by["estimate"]),
        "covariance.estimate_calls": per_pass(calls["estimate"]),
        "covariance.operator_s": per_pass(sum(self_by[o] for o in OPERATORS)),
        "covariance.operator_calls": per_pass(sum(calls[o] for o in OPERATORS)),
        "covariance.archive_dup_share": ratio(
            c["archive_rows"] - c["archive_unique"], c["archive_rows"]),
        "problems.self_s": layer_self("problems"),
        "problems.batch_s": per_pass(self_by["ProblemSpec.batch"]),
        "problems.batch_rows": per_pass(c["batch_rows"]),
        "problems.scalar_s": per_pass(self_by["ProblemSpec.evaluate"]),
        "problems.scalar_calls": per_pass(calls["ProblemSpec.evaluate"]),
        "handling.self_s": layer_self("handling"),
        "handling.resample_share": ratio(c["resample_evals"], evals),
        "handling.resample_yield": ratio(c["resample_feasible"], c["resample_evals"]),
        "harness.self_s": layer_self("harness"),
        "harness.evaluate_s": per_pass(self_by["Evaluator.evaluate"]),
        "harness.run_self_s": per_pass(self_by["run_single"]),
        "harness.persist_s": per_pass(self_by["persist"]),
        "harness.bytes_written": per_pass(c["bytes_written"]),
        "harness.files_written": per_pass(c["files_written"]),
        "harness.load_s": per_pass(self_by["load"]),
        "harness.export_trace_s": per_pass(self_by["export_trace"]),
        "stats.self_s": layer_self("stats"),
        "stats.ranksum_calls": per_pass(calls["wilcoxon_rank_sum"]),
        "cli.import_s": import_s,
        "cli.self_s": per_pass(self_by["main"]),
        "probe.self_s": layer_self(PROBE),
        "other.self_s": per_pass(sum(traced_walls) - top_s),
        "trace_overhead_frac": ratio(statistics.median(traced_scaled),
                                     untraced_scaled_s) - 1.0,
    }
    return m
