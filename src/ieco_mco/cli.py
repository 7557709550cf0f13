"""Command-line interface: run experiments, compare, test, export traces.

Commands: ``run``, ``compare``, ``stats``, ``export-trace``,
``list-problems``. One table, ``_COMMANDS``, lists each command's options;
it builds the parser, dispatches, and resolves every option by one rule:
command line > ``MCO_<KEY>`` variable > ``[run]`` config key > default,
the chosen text cast by the option's cast. A value set to the empty string
is set; an option no source sets is not passed on, so an unset run setting
takes its ``RunConfig`` default.

``run`` reads ``MCO_CONFIG`` and ``MCO_<KEY>`` for each of its options;
``compare`` reads ``MCO_RESULTS`` and ``MCO_ALPHA``; ``stats`` those two,
``MCO_TEST`` and ``MCO_OUT``; ``export-trace`` ``MCO_RESULTS`` and
``MCO_PROBLEM``. No other option reads a variable. Only ``run`` reads a
config file, named by ``--config``, else ``MCO_CONFIG``: INI-style, with a
single ``[run]`` section whose keys are ``run``'s other option keys.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import harness, stats
from .problems import list_problems as registry_list, problem_label
from .stages import algorithm_label

ENV_PREFIX = "MCO_"


def _csv_list(raw):
    parts = [p.strip() for p in str(raw).split(",")]
    return [p for p in parts if p]


class _Option(NamedTuple):
    """An option of a command: flag ``--key`` (dashes for underscores),
    variable ``MCO_KEY`` when ``env``, and for ``run`` config key ``key``.
    Its value reaches the handler as ``keyword or key``."""

    key: str
    cast: Callable
    default: Optional[str]
    help: str
    keyword: Optional[str] = None
    env: bool = True


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _message(exc):
    """The text of an error: ``str`` of a KeyError quotes its message."""
    return exc.args[0] if isinstance(exc, KeyError) else str(exc)


def _read_config(path) -> dict:
    parser = configparser.ConfigParser()
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise UsageError("cannot parse config file %s: %s" % (path, exc))
    if not loaded:
        raise UsageError("config file not found: %s" % path)
    if not parser.has_section("run"):
        raise UsageError("config file %s is missing the [run] section" % path)
    out = {}
    for key in parser.options("run"):
        if key not in _CONFIG_KEYS:
            raise UsageError("unknown config key %r (valid: %s)"
                             % (key, ", ".join(_CONFIG_KEYS)))
        out[key] = parser.get("run", key)
    return out


def _resolve(options, flags) -> dict:
    """Each option's value by the one rule, read from the file of an earlier
    ``config`` option; an option that no source sets is left out."""
    values: dict = {}
    for opt in options:
        raw = flags[opt.key]
        if raw is None and opt.env:
            raw = os.environ.get(ENV_PREFIX + opt.key.upper())
        if raw is None:
            raw = values.get("config", {}).get(opt.key, opt.default)
        if raw is None:
            continue
        try:
            values[opt.keyword or opt.key] = opt.cast(raw)
        except ValueError as exc:
            raise UsageError("bad value for %s: %s" % (opt.key, exc))
    return values


def _out_path(out, directory: bool) -> Optional[Path]:
    """The path ``out`` names, None when unset; a usage error, before the
    command reads or prints anything, when a directory's path or a file's
    folder runs through a regular file, or a file's path is a directory."""
    if not out:
        return None
    path = Path(out)
    folder = path if directory else path.parent
    blocker = next(p for p in (folder, *folder.parents) if p.exists())
    if not blocker.is_dir():
        raise UsageError("cannot write results to %s: %s is not a directory"
                         % (out, blocker))
    if not directory and path.is_dir():
        raise UsageError("cannot write results to %s: it is a directory" % out)
    return path


def _persisted_name(name, persisted, label_of, what):
    """The persisted name ``name`` resolves to: itself, else the one persisted
    name with its label under ``label_of``, else a usage error naming the
    candidates (a set persisted through the library can hold two)."""
    if name in persisted:
        return name
    matches = [p for p in persisted if label_of(p) == label_of(name)]
    if not matches:
        raise UsageError("unknown %s %r; persisted %ss: %s"
                         % (what, name, what, ", ".join(persisted)))
    if len(matches) > 1:
        raise UsageError("ambiguous %s %r; candidates: %s"
                         % (what, name, ", ".join(matches)))
    return matches[0]


def cmd_run(values) -> int:
    """execute an experiment batch"""
    values.pop("config", None)
    out = values.pop("out")
    if not out:
        raise UsageError("no output directory; use --out")
    _out_path(out, directory=True)
    try:
        harness.check_out_dir(out)
    except OSError as exc:
        raise UsageError(str(exc))
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


def _load_results(values):
    where = values.get("results")
    if not where:
        raise UsageError("no results directory; use --results")
    try:
        return harness.load(where)
    except (FileNotFoundError, NotADirectoryError) as exc:
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


def _reports(values, tests):
    """The report text of each named test on the results ``values`` point
    at, once alpha lies in (0, 1) and the results are rectangular and large
    enough for every one of them."""
    results = _load_results(values)
    alpha = values["alpha"]
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie in (0, 1); got %g" % alpha)
    try:
        matrix = results.to_matrix()
    except ValueError as exc:
        raise UsageError(str(exc))
    problems, algorithms, runs = matrix.shape
    for test in tests:
        for what, got, need in zip(("algorithms", "problems", "runs"),
                                   (algorithms, problems, runs), _TESTS[test][0]):
            if got < need:
                raise UsageError("%s needs at least %d %s; the results hold %d"
                                 % (test, need, what, got))
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j, r = bad[0]
        raise UsageError("run %d of %s on %s has a non-finite best (%r); the "
                         "statistical tests need finite values"
                         % (r, results.algorithms[j], results.problems[i],
                            float(matrix[i, j, r])))
    return [_TESTS[test][1](matrix, results.algorithms, alpha) for test in tests]


def cmd_compare(values) -> int:
    """Friedman ranks and win/tie/loss over persisted results"""
    for text in _reports(values, ("friedman", "wilcoxon")):
        print(text)
    return 0


def cmd_stats(values) -> int:
    """write one statistical report"""
    test = values["test"]
    if test not in _TESTS:
        raise UsageError("unknown test %r" % test)
    out_dir = _out_path(values.get("out"), directory=True)
    (text,) = _reports(values, (test,))
    text += "\n"
    sys.stdout.write(text)
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / ("report-%s.txt" % test)).write_text(text)
    return 0


def cmd_export_trace(values) -> int:
    """mean convergence series per algorithm on a shared grid"""
    target = _out_path(values.get("out"), directory=False)
    if not values.get("problem"):
        raise UsageError("no problem given; use --problem")
    results = _load_results(values)
    problem = _persisted_name(values["problem"], results.problems,
                              problem_label, "problem")
    algorithms = [_persisted_name(a, results.algorithms, algorithm_label, "algorithm")
                  for a in values.get("algorithms") or results.algorithms]
    try:
        grid, series = harness.export_trace(results, problem, algorithms)
    except (KeyError, ValueError) as exc:
        raise UsageError(_message(exc))

    lines = ["fes," + ",".join(algorithms)]
    for i, fes in enumerate(grid):
        lines.append("%d,%s" % (fes, ",".join(repr(float(series[a][i]))
                                              for a in algorithms)))
    text = "\n".join(lines) + "\n"
    if target:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
        print("wrote %s (%d grid points)" % (values["out"], len(grid)))
    else:
        sys.stdout.write(text)
    return 0


def cmd_list_problems(values) -> int:
    """print the problem registry"""
    try:
        rows = registry_list(**values)
    except ValueError as exc:
        raise UsageError(str(exc))
    print("%-26s %-12s %s" % ("name", "category", "D"))
    for name, category, d in rows:
        print("%-26s %-12s %d" % (name, category, d))
    return 0


_RESULTS = _Option("results", str, None, "directory written by `mco run`")
_ALPHA = _Option("alpha", float, repr(stats.DEFAULT_ALPHA),
                 "significance level in (0, 1)")
_DIM = _Option("dim", int, None, "dimension of scalable problems", "dimension")

# Every command: its handler, whose docstring is its help, and its options.
# ``run``'s ``config`` option comes first, so the options after it can read
# its file.
_COMMANDS = {
    "run": (cmd_run, (
        _Option("config", _read_config, None,
                "INI config file with a [run] section"),
        _Option("algorithms", _csv_list, "ieco-mco,eco",
                "comma-separated variant labels"),
        _Option("problems", _csv_list, "", "comma-separated problem names"),
        _Option("runs", int, "30", "runs per (algorithm, problem)"),
        _Option("seed", int, "0", "base seed of the batch", "base_seed"),
        _DIM,
        _Option("fes_mult", int, None, "budget per unit of D"),
        _Option("fes_max", int, None, "budget per run (overrides --fes-mult)"),
        _Option("n", int, None, "population size"),
        _Option("jobs", int, None, "worker processes"),
        _Option("out", str, "results", "output directory for persisted results"),
    )),
    "compare": (cmd_compare, (_RESULTS, _ALPHA)),
    "stats": (cmd_stats, (
        _RESULTS,
        _Option("test", str, "friedman", " | ".join(_TESTS)),
        _ALPHA,
        _Option("out", str, None, "directory for report files"),
    )),
    "export-trace": (cmd_export_trace, (
        _RESULTS,
        _Option("problem", str, None, "problem name to export"),
        _Option("algorithms", _csv_list, None,
                "comma-separated subset (default all)", env=False),
        _Option("out", str, None, "output CSV path (default stdout)",
                env=False),
    )),
    "list-problems": (cmd_list_problems, (_DIM._replace(env=False),)),
}
_CONFIG_KEYS = tuple(opt.key for opt in _COMMANDS["run"][1][1:])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    top = argparse.ArgumentParser(
        prog="mco",
        description="Population-based optimizer benchmark harness")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, options) in _COMMANDS.items():
        parser = sub.add_parser(name, help=handler.__doc__)
        for opt in options:
            parser.add_argument("--" + opt.key.replace("_", "-"), dest=opt.key,
                                help=opt.help)
    return top


def main(argv=None) -> int:
    try:
        flags = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, options = _COMMANDS[flags["command"]]
    try:
        return handler(_resolve(options, flags))
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
