"""Command-line interface: run experiments, compare, test, export traces.

Commands: ``run``, ``compare``, ``stats``, ``export-trace``,
``list-problems``. Option values resolve with precedence command line >
``MCO_*`` environment variable > config file > built-in default. ``run``
reads ``MCO_CONFIG`` and ``MCO_<KEY>`` for each key of ``_RUN_SETTINGS``;
``compare`` reads ``MCO_RESULTS`` and ``MCO_ALPHA``; ``stats`` those two,
``MCO_TEST`` and ``MCO_OUT``; ``export-trace`` ``MCO_RESULTS`` and
``MCO_PROBLEM``. No other option reads a variable. Only ``run`` reads a
config file: INI-style, with a single ``[run]`` section whose keys are the
``_RUN_SETTINGS`` keys.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import harness, stats
from .problems import list_problems as registry_list, problem_label

ENV_PREFIX = "MCO_"


def _csv_list(raw):
    parts = [p.strip() for p in str(raw).split(",")]
    return [p for p in parts if p]


class _Setting(NamedTuple):
    """An ``mco run`` setting: flag ``--key`` (dashes for underscores), variable
    ``MCO_KEY``, config key ``key``, run_batch keyword ``keyword or key``."""

    key: str
    cast: Callable
    default: Any
    help: str
    keyword: Optional[str] = None


_RUN_SETTINGS = (
    _Setting("algorithms", _csv_list, "ieco-mco,eco",
             "comma-separated variant labels"),
    _Setting("problems", _csv_list, "", "comma-separated problem names"),
    _Setting("runs", int, 30, "runs per (algorithm, problem)"),
    _Setting("seed", int, 0, "base seed of the batch", "base_seed"),
    _Setting("dim", int, 10, "dimension of scalable problems", "dimension"),
    _Setting("fes_mult", int, harness.DEFAULT_FES_MULT, "budget per unit of D"),
    _Setting("fes_max", int, None, "budget per run (overrides --fes-mult)"),
    _Setting("n", int, harness.DEFAULT_POPULATION, "population size"),
    _Setting("jobs", int, 1, "worker processes"),
    _Setting("out", str, "results", "output directory for persisted results"),
    _Setting("trace_stride", int, None, "evaluations between trace points"),
    _Setting("instance_seed", int, 0, "seed of the desk problem instances"),
)
_RUN_KEYS = tuple(s.key for s in _RUN_SETTINGS)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _message(exc):
    """The text of an error: ``str`` of a KeyError quotes its message."""
    return exc.args[0] if isinstance(exc, KeyError) else str(exc)


def _env(name):
    return os.environ.get(ENV_PREFIX + name.upper())


def _read_config(path) -> dict:
    parser = configparser.ConfigParser()
    loaded = parser.read(path)
    if not loaded:
        raise UsageError("config file not found: %s" % path)
    if not parser.has_section("run"):
        raise UsageError("config file %s is missing the [run] section" % path)
    out = {}
    for key in parser.options("run"):
        if key not in _RUN_KEYS:
            raise UsageError("unknown config key %r (valid: %s)"
                             % (key, ", ".join(_RUN_KEYS)))
        out[key] = parser.get("run", key)
    return out


def _resolve(name, cli_value, config, default, cast):
    """Apply the precedence chain and cast the chosen raw string."""
    raw = cli_value
    if raw is None:
        raw = _env(name)
    if raw is None:
        raw = config.get(name)
    if raw is None:
        raw = default
    if not isinstance(raw, str):
        return raw
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError("bad value for %s: %s" % (name, exc))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mco",
        description="Population-based optimizer benchmark harness")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment batch")
    run.add_argument("--config", help="INI config file with a [run] section")
    for setting in _RUN_SETTINGS:
        run.add_argument("--" + setting.key.replace("_", "-"), dest=setting.key,
                         type=setting.cast, help=setting.help)

    comp = sub.add_parser("compare", help="Friedman ranks and win/tie/loss "
                                          "over persisted results")
    comp.add_argument("--results", help="directory written by `mco run`")
    comp.add_argument("--alpha", type=float)

    st = sub.add_parser("stats", help="write one statistical report")
    st.add_argument("--results", help="directory written by `mco run`")
    st.add_argument("--test", choices=("friedman", "wilcoxon", "kw"))
    st.add_argument("--alpha", type=float)
    st.add_argument("--out", help="directory for report files")

    et = sub.add_parser("export-trace", help="mean convergence series per "
                                             "algorithm on a shared grid")
    et.add_argument("--results", help="directory written by `mco run`")
    et.add_argument("--problem", help="problem name to export")
    et.add_argument("--algorithms", help="comma-separated subset (default all)")
    et.add_argument("--out", help="output CSV path (default stdout)")

    lp = sub.add_parser("list-problems", help="print the problem registry")
    lp.add_argument("--dim", type=int)
    return top


def cmd_run(args) -> int:
    config = _read_config(args.config) if args.config else {}
    if not args.config and _env("CONFIG"):
        config = _read_config(_env("CONFIG"))

    values = {s.keyword or s.key: _resolve(s.key, getattr(args, s.key), config,
                                           s.default, s.cast)
              for s in _RUN_SETTINGS}
    out = values.pop("out")
    # run_batch checks every argument before its first run and raises
    # ValueError or KeyError; a failure inside a run is a RuntimeError (exit 1).
    try:
        results = harness.run_batch(**values)
    except (ValueError, KeyError) as exc:
        raise UsageError(_message(exc))
    harness.persist(results, out)
    print("persisted %d records to %s" % (len(results), out))
    print("%-10s %-24s %14s %14s %14s" % ("algorithm", "problem", "best",
                                          "mean", "std"))
    for row in results.summary():
        print("%-10s %-24s %14.6g %14.6g %14.6g"
              % (row["algorithm"], row["problem"], row["best"], row["mean"],
                 row["std"]))
    return 0


def _load_results(args):
    where = args.results or _env("RESULTS")
    if not where:
        raise UsageError("no results directory; use --results")
    try:
        return harness.load(where)
    except FileNotFoundError as exc:
        raise UsageError("cannot read results: %s" % exc)
    except harness.SchemaMismatchError as exc:
        raise UsageError(str(exc))


# Per statistical test: the least (algorithms, problems, runs) a result set
# needs, and the report text from the result matrix, the algorithm names and
# alpha. The reports look ``stats`` functions up when they run.
_TESTS = {
    "friedman": ((2, 2, 1), lambda m, algs, alpha:
                 stats.format_friedman(stats.friedman(m, algs))),
    "wilcoxon": ((2, 1, 2), lambda m, algs, alpha:
                 stats.format_wtl(stats.wtl_table(m, algs, alpha))),
    "kw": ((2, 1, 1), lambda m, algs, alpha: stats.format_kruskal(
        stats.kruskal_wallis([m[:, j, :].ravel() for j in range(m.shape[1])]),
        algs)),
}


def _reports(args, tests):
    """The report text of each named test on the results ``args`` point at,
    once alpha lies in (0, 1) and the results are rectangular and large
    enough for every one of them."""
    results = _load_results(args)
    alpha = _resolve("alpha", args.alpha, {}, stats.DEFAULT_ALPHA, float)
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie in (0, 1); got %g" % alpha)
    try:
        results.validate_rectangular()
    except ValueError as exc:
        raise UsageError(str(exc))
    have = (len(results.algorithms), len(results.problems), results.run_count)
    for test in tests:
        for what, got, need in zip(("algorithms", "problems", "runs"), have,
                                   _TESTS[test][0]):
            if got < need:
                raise UsageError("%s needs at least %d %s; the results hold %d"
                                 % (test, need, what, got))
    values = results.to_matrix()
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j, r = bad[0]
        raise UsageError("run %d of %s on %s has a non-finite best (%r); the "
                         "statistical tests need finite values"
                         % (r, results.algorithms[j], results.problems[i],
                            float(values[i, j, r])))
    return [_TESTS[test][1](values, results.algorithms, alpha) for test in tests]


def cmd_compare(args) -> int:
    for text in _reports(args, ("friedman", "wilcoxon")):
        print(text)
    return 0


def cmd_stats(args) -> int:
    test = args.test or _env("TEST") or "friedman"
    if test not in _TESTS:
        raise UsageError("unknown test %r" % test)
    (text,) = _reports(args, (test,))
    text += "\n"
    sys.stdout.write(text)
    out = args.out or _env("OUT")
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / ("report-%s.txt" % test)).write_text(text)
    return 0


def cmd_export_trace(args) -> int:
    results = _load_results(args)
    problem = args.problem or _env("PROBLEM")
    if not problem:
        raise UsageError("no problem given; use --problem")
    if problem not in results.problems:
        # Resolve by the registry's name rule, on both sides. Two persisted
        # problems can share a label only if custom problems were persisted
        # through the library; then the name is ambiguous.
        label = problem_label(problem)
        matches = [p for p in results.problems if problem_label(p) == label]
        if not matches:
            raise UsageError("unknown problem %r; persisted problems: %s"
                             % (problem, ", ".join(results.problems)))
        if len(matches) > 1:
            raise UsageError("ambiguous problem %r; candidates: %s"
                             % (problem, ", ".join(matches)))
        (problem,) = matches
    # algorithm labels match whatever their case; the persisted label is used
    persisted = {a.strip().lower(): a for a in results.algorithms}
    algorithms = []
    for a in (_csv_list(args.algorithms) if args.algorithms
              else results.algorithms):
        if a.strip().lower() not in persisted:
            raise UsageError("unknown algorithm %r; persisted algorithms: %s"
                             % (a, ", ".join(results.algorithms)))
        algorithms.append(persisted[a.strip().lower()])
    try:
        grid, series = harness.export_trace(results, problem, algorithms)
    except (KeyError, ValueError) as exc:
        raise UsageError(_message(exc))

    lines = ["fes," + ",".join(algorithms)]
    for i, fes in enumerate(grid):
        lines.append("%d,%s" % (fes, ",".join(repr(float(series[a][i]))
                                              for a in algorithms)))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
        print("wrote %s (%d grid points)" % (args.out, len(grid)))
    else:
        sys.stdout.write(text)
    return 0


def cmd_list_problems(args) -> int:
    try:
        rows = registry_list(dimension=10 if args.dim is None else args.dim)
    except ValueError as exc:
        raise UsageError(str(exc))
    print("%-26s %-12s %s" % ("name", "category", "D"))
    for name, category, d in rows:
        print("%-26s %-12s %d" % (name, category, d))
    return 0


_DISPATCH = {
    "run": cmd_run,
    "compare": cmd_compare,
    "stats": cmd_stats,
    "export-trace": cmd_export_trace,
    "list-problems": cmd_list_problems,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # runtime failure inside a command
        print("failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
