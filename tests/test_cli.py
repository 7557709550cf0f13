"""Command-line interface tests: exit codes, precedence, reports, exports."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ieco_mco import cli, covariance, harness
from ieco_mco.harness import ResultSet, RunRecord, export_trace, load, persist
from ieco_mco.problems import make_problem

from support import drop_last_trace, rewrite_results, stable_arrays

TINY = ["--runs", "1", "--dim", "5", "--n", "6", "--fes-max", "60"]


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in ("CONFIG", "ALGORITHMS", "PROBLEMS", "RUNS", "SEED", "DIM",
                "FES_MULT", "FES_MAX", "N", "JOBS", "OUT", "RESULTS", "TEST",
                "PROBLEM", "ALPHA"):
        monkeypatch.delenv(cli.ENV_PREFIX + key, raising=False)


# ----------------------------------------------------------------- exit codes


def test_run_succeeds_with_minimal_flags(tmp_path, capsys):
    code = run_cli("run", "--algorithms", "ECO", "--problems", "f01",
                   "--out", str(tmp_path / "r"), *TINY)
    assert code == 0
    out = capsys.readouterr().out
    assert "persisted 1 records" in out
    assert "f01-zakharov-d5" in out
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
        "results.npz", "summary.csv"]


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli() == 2
    assert run_cli("no-such-command") == 2


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "run" in capsys.readouterr().out


def test_run_without_problems_is_usage_error(tmp_path, capsys):
    code = run_cli("run", "--algorithms", "ECO", "--out", str(tmp_path / "r"),
                   *TINY)
    assert code == 2
    assert "no problems" in capsys.readouterr().err


def test_invalid_variant_names_valid_ones(tmp_path, capsys):
    code = run_cli("run", "--algorithms", "TURBO", "--problems", "f01",
                   "--out", str(tmp_path / "r"), *TINY)
    assert code == 2
    err = capsys.readouterr().err
    for label in ("ECO", "GECO", "SECO", "DECO", "IECO-MCO"):
        assert label in err


def test_an_unknown_variant_prints_one_line_before_any_run(tmp_path, capsys):
    code = run_cli("run", "--algorithms", "TURBO", "--problems", "f01",
                   "--out", str(tmp_path / "r"), *TINY)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: unknown variant 'TURBO' (expected one of "
                            "ECO, GECO, SECO, DECO, IECO-MCO)\n")
    assert captured.out == ""
    assert not (tmp_path / "r").exists()


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = run_cli("run", "--config", str(tmp_path / "nope.cfg"),
                   "--problems", "f01", "--out", str(tmp_path / "r"), *TINY)
    assert code == 2


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nwibble = 3\n")
    code = run_cli("run", "--config", str(cfg), "--problems", "f01",
                   "--out", str(tmp_path / "r"), *TINY)
    assert code == 2
    assert "unknown config key 'wibble'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("text", ["[other]\nruns = 2\n", "runs = 2\n"],
                         ids=["other-section", "no-section"])
def test_config_without_run_section_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = run_cli("run", "--config", str(cfg), "--problems", "f01",
                   "--out", str(tmp_path / "r"), *TINY)
    assert code == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("source", ["flag", "variable", "config"])
def test_malformed_value_is_usage_error_whatever_its_source(
        tmp_path, capsys, monkeypatch, source):
    argv = ["run", "--algorithms", "ECO", "--problems", "f01", "--dim", "5",
            "--n", "6", "--fes-max", "60", "--out", str(tmp_path / "r")]
    if source == "flag":
        argv += ["--runs", "two"]
    elif source == "variable":
        monkeypatch.setenv("MCO_RUNS", "two")
    else:
        (tmp_path / "p.cfg").write_text("[run]\nruns = two\n")
        argv += ["--config", str(tmp_path / "p.cfg")]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: bad value for runs: ")
    assert not (tmp_path / "r").exists()


def test_unset_run_settings_are_left_to_run_config(tmp_path, monkeypatch):
    seen = {}
    monkeypatch.setattr(harness, "run_batch",
                        lambda **kw: seen.update(kw) or ResultSet({}, {}))
    assert run_cli("run", "--problems", "f01", "--out", str(tmp_path / "r")) == 0
    assert seen == {"algorithms": ["ieco-mco", "eco"], "problems": ["f01"],
                    "runs": 30, "base_seed": 0}


@pytest.mark.parametrize("out", ["afile/r", "afile"])
def test_an_output_path_through_a_file_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep me\n")
    calls = []
    monkeypatch.setattr(cli.harness, "run_single",
                        lambda *a, **k: calls.append(a))
    assert run_cli("run", "--algorithms", "ECO", "--problems", "f01", *TINY,
                   "--out", out) == 2
    assert "afile is not a directory" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "keep me\n"


@pytest.mark.parametrize("flags,message", [
    (["--jobs", "0"], "jobs must be at least 1"),
    (["--jobs", "-3"], "jobs must be at least 1"),
    (["--seed", "-1"], "base seed must be a non-negative integer"),
])
def test_no_jobs_or_a_negative_seed_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, flags, message):
    calls = []
    monkeypatch.setattr(cli.harness, "run_single",
                        lambda *a, **k: calls.append(a))
    assert run_cli("run", "--algorithms", "ECO", "--problems", "f01", *TINY,
                   *flags, "--out", str(tmp_path / "r")) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert calls == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("source", ["flag", "variable"])
def test_empty_output_directory_is_usage_error(tmp_path, capsys, monkeypatch,
                                               source):
    """An empty output directory would persist into the working directory,
    beside what it holds; it is refused before anything is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "traces").mkdir()
    (tmp_path / "traces" / "mine.txt").write_text("keep me\n")
    argv = ["run", "--algorithms", "ECO", "--problems", "f01", *TINY]
    if source == "flag":
        argv += ["--out", ""]
    else:
        monkeypatch.setenv("MCO_OUT", "")
    assert run_cli(*argv) == 2
    assert "no output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traces"]
    assert (tmp_path / "traces" / "mine.txt").read_text() == "keep me\n"


def test_runtime_failure_maps_to_exit_one(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("synthetic failure")
    monkeypatch.setattr(cli.harness, "run_batch", boom)
    code = run_cli("run", "--algorithms", "ECO", "--problems", "f01",
                   "--out", str(tmp_path / "r"), *TINY)
    assert code == 1
    assert "synthetic failure" in capsys.readouterr().err


def test_failure_inside_a_run_exits_one(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise ValueError("synthetic failure inside the run")
    monkeypatch.setattr(cli.harness, "run_single", boom)
    code = run_cli("run", "--algorithms", "ECO", "--problems", "f01",
                   "--out", str(tmp_path / "r"), *TINY)
    assert code == 1
    err = capsys.readouterr().err
    assert "synthetic failure inside the run" in err
    seed = cli.harness.derive_seed(0, "ECO", "f01-zakharov-d5", 0)
    assert ("algorithm=ECO problem=f01-zakharov-d5 run=0 seed=%d" % seed) in err


@pytest.mark.parametrize("flags,needle", [
    (["--problems", "f99"], "unknown problem"),
    (["--problems", "f01", "--runs", "0"], "runs"),
    (["--problems", "f01", "--n", "3"], "population"),
    (["--problems", "f01", "--fes-max", "5"], "fes_max"),
    (["--problems", "f01", "--algorithms", ""], "no algorithms"),
])
def test_bad_batch_arguments_are_usage_errors(tmp_path, capsys, flags, needle):
    code = run_cli("run", "--algorithms", "ECO", "--out", str(tmp_path / "r"),
                   *TINY, *flags)
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_a_full_problem_name_must_name_what_it_builds(tmp_path, capsys):
    with pytest.raises(KeyError, match="f05-levy-d10"):
        make_problem("f05-levy-d30", 10)
    with pytest.raises(KeyError, match="rw03-three-bar-truss"):
        make_problem("rw03-welded-beam")
    code = run_cli("run", "--algorithms", "ECO", "--problems", "f05-levy-d30",
                   "--runs", "1", "--dim", "10", "--n", "6", "--fes-max", "60",
                   "--out", str(tmp_path / "r"))
    assert code == 2
    assert "f05-levy-d10" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("problem,dim,message", [
    ("f99", "5", "unknown problem 'f99'; try f01..f12 or rw01..rw10"),
    ("f05-levy-d30", "10", "problem 'f05-levy-d30' is not the name of what "
                           "its label builds, f05-levy-d10"),
], ids=["unknown", "mismatched"])
def test_registry_errors_print_their_message_unquoted(tmp_path, capsys,
                                                      problem, dim, message):
    # the registry raises KeyError, whose str() would quote the message
    code = run_cli("run", "--algorithms", "ECO", "--problems", problem,
                   "--runs", "1", "--dim", dim, "--n", "6", "--fes-max", "60",
                   "--out", str(tmp_path / "r"))
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("problem", ["f01", "rw01"])
def test_zero_budget_multiplier_is_usage_error(tmp_path, capsys, problem):
    """The budget rule fes_mult * D is checked for every problem before the
    first run; TINY cannot carry this case because its --fes-max wins."""
    code = run_cli("run", "--algorithms", "ECO", "--problems", problem,
                   "--runs", "1", "--dim", "5", "--n", "6", "--fes-mult", "0",
                   "--out", str(tmp_path / "r"))
    assert code == 2
    assert "fes_max" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_compare_without_results_is_usage_error(capsys):
    assert run_cli("compare") == 2


def test_compare_on_missing_directory_is_usage_error(tmp_path, capsys):
    assert run_cli("compare", "--results", str(tmp_path / "nope")) == 2


# ------------------------------------------------------------- run behaviour


def test_run_whose_model_estimate_raises_names_its_cell(tmp_path, capsys,
                                                       monkeypatch):
    def estimate(archive):
        raise ValueError("no model")

    monkeypatch.setattr(covariance, "estimate", estimate)
    code = run_cli("run", "--algorithms", "IECO-MCO", "--problems", "f01",
                   "--runs", "1", "--n", "6", "--fes-max", "120", "--dim", "5",
                   "--seed", "7", "--out", str(tmp_path / "r"))
    assert code == 1
    seed = harness.derive_seed(7, "IECO-MCO", "f01-zakharov-d5", 0)
    err = capsys.readouterr().err
    assert ("algorithm=IECO-MCO problem=f01-zakharov-d5 run=0 seed=%d" % seed
            in err)
    assert "ValueError: no model" in err


def test_run_cardinality_two_algorithms_ten_runs(tmp_path, capsys):
    code = run_cli("run", "--algorithms", "IECO-MCO,ECO", "--problems", "rw01",
                   "--runs", "10", "--n", "6", "--fes-max", "120",
                   "--out", str(tmp_path / "r"))
    assert code == 0
    assert "persisted 20 records" in capsys.readouterr().out
    assert len(load(tmp_path / "r")) == 20


def _strip_volatile(out_dir):
    """Result files with wall_time and timestamps removed."""
    return stable_arrays(out_dir), (out_dir / "summary.csv").read_bytes()


def test_run_twice_with_config_produces_identical_outputs(tmp_path, capsys):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(
        "[run]\n"
        "algorithms = IECO-MCO\n"
        "problems = f01,f04\n"
        "runs = 2\n"
        "dim = 5\n"
        "n = 6\n"
        "fes_max = 120\n"
    )
    for name in ("a", "b"):
        code = run_cli("run", "--config", str(cfg), "--seed", "7",
                       "--out", str(tmp_path / name))
        assert code == 0
    assert _strip_volatile(tmp_path / "a") == _strip_volatile(tmp_path / "b")


def test_flag_beats_env_beats_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[run]\nruns = 2\n")
    base = ("run", "--config", str(cfg), "--algorithms", "ECO",
            "--problems", "f01", "--dim", "5", "--n", "6", "--fes-max", "60")

    assert run_cli(*base, "--out", str(tmp_path / "c")) == 0
    assert "persisted 2 records" in capsys.readouterr().out

    monkeypatch.setenv("MCO_RUNS", "3")
    assert run_cli(*base, "--out", str(tmp_path / "e")) == 0
    assert "persisted 3 records" in capsys.readouterr().out

    assert run_cli(*base, "--runs", "4", "--out", str(tmp_path / "f")) == 0
    assert "persisted 4 records" in capsys.readouterr().out


def test_env_can_supply_config_path(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("[run]\nproblems = f01\nruns = 1\ndim = 5\nn = 6\n"
                   "fes_max = 60\nalgorithms = ECO\n")
    monkeypatch.setenv("MCO_CONFIG", str(cfg))
    assert run_cli("run", "--out", str(tmp_path / "r")) == 0
    assert "persisted 1 records" in capsys.readouterr().out


# The variables the cli docstring and the README document, per command: for
# ``run``, the raw value and the run_batch keyword and value it must reach.
_RUN_VARIABLES = {
    "CONFIG": ("p.cfg", "runs", 7),  # p.cfg holds runs = 7
    "ALGORITHMS": ("ECO,GECO", "algorithms", ["ECO", "GECO"]),
    "PROBLEMS": ("f01,f02", "problems", ["f01", "f02"]),
    "RUNS": ("3", "runs", 3),
    "SEED": ("5", "base_seed", 5),
    "DIM": ("7", "dimension", 7),
    "FES_MULT": ("11", "fes_mult", 11),
    "FES_MAX": ("90", "fes_max", 90),
    "N": ("8", "n", 8),
    "JOBS": ("2", "jobs", 2),
    "OUT": ("elsewhere", None, None),
}
# For the read commands: argv, the variable's value, the exit code and a
# needle in what the command prints or, for a path, a file it writes.
_READ_VARIABLES = {
    ("compare", "RESULTS"): ((), "{results}", 0, "Friedman test"),
    ("compare", "ALPHA"): (("--results", "{results}"), "2", 2, "got 2"),
    ("stats", "RESULTS"): ((), "{results}", 0, "Friedman test"),
    ("stats", "TEST"): (("--results", "{results}"), "kw", 0, "Kruskal-Wallis"),
    ("stats", "ALPHA"): (("--results", "{results}"), "2", 2, "got 2"),
    ("stats", "OUT"): (("--results", "{results}"), "reports", 0,
                       Path("reports", "report-friedman.txt")),
    ("export-trace", "RESULTS"): (("--problem", "p1"), "{results}", 0, "fes,alpha,beta"),
    ("export-trace", "PROBLEM"): (("--results", "{results}"), "p1", 0, "fes,alpha,beta"),
}


@pytest.mark.parametrize("command, variable", [
    *(("run", v) for v in _RUN_VARIABLES), *_READ_VARIABLES])
def test_each_documented_variable_is_honoured(tmp_path, capsys, monkeypatch,
                                              command, variable):
    monkeypatch.chdir(tmp_path)
    if command == "run":
        raw, keyword, want = _RUN_VARIABLES[variable]
        (tmp_path / "p.cfg").write_text("[run]\nruns = 7\n")
        seen = {}
        monkeypatch.setattr(harness, "run_batch",
                            lambda **kw: seen.update(kw) or ResultSet({}, {}))
        monkeypatch.setenv(cli.ENV_PREFIX + variable, raw)
        assert run_cli("run") == 0
        if keyword is None:
            assert (tmp_path / raw / "results.npz").exists()
        else:
            assert seen[keyword] == want
        return
    results = str(_synthetic_results(tmp_path, tie=False))
    argv, raw, code, needle = _READ_VARIABLES[command, variable]
    monkeypatch.setenv(cli.ENV_PREFIX + variable, raw.format(results=results))
    assert run_cli(command, *(a.format(results=results) for a in argv)) == code
    printed = "".join(capsys.readouterr())
    assert (tmp_path / needle).exists() if isinstance(needle, Path) else needle in printed


@pytest.mark.parametrize("command, flag, variable", [
    ("compare", "results", "RESULTS"), ("stats", "test", "TEST"),
    ("export-trace", "problem", "PROBLEM")])
def test_an_empty_flag_is_a_value(tmp_path, capsys, monkeypatch, command,
                                  flag, variable):
    """The flag wins whenever it is given, also when it is empty."""
    results = str(_synthetic_results(tmp_path, tie=False))
    raw = {"RESULTS": results, "TEST": "kw", "PROBLEM": "p1"}[variable]
    monkeypatch.setenv(cli.ENV_PREFIX + variable, raw)
    argv = [command, "--" + flag, ""]
    if flag != "results":
        argv += ["--results", results]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("source", ["flag", "variable"])
def test_unknown_test_is_usage_error(tmp_path, capsys, monkeypatch, source):
    argv = ["stats", "--results", str(_synthetic_results(tmp_path, tie=False))]
    if source == "flag":
        argv += ["--test", "bogus"]
    else:
        monkeypatch.setenv("MCO_TEST", "bogus")
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown test 'bogus'\n"
    assert captured.out == ""


# --------------------------------------------------------- stats and compare


def _synthetic_results(tmp_path, tie=True, algorithms=("alpha", "beta"),
                       problems=("p1", "p2", "p3"), runs=3, bests=None):
    """``bests`` maps (algorithm, problem, run) cells to the best they hold."""
    records = {}
    gen = np.random.default_rng(5)
    for a_idx, alg in enumerate(algorithms):
        for prob in problems:
            for run in range(runs):
                if tie:
                    best = 1.0 + 0.1 * run
                else:
                    best = float(a_idx) + 0.01 * gen.uniform()
                best = (bests or {}).get((alg, prob, run), best)
                records[(alg, prob, run)] = RunRecord(
                    algorithm=alg, problem=prob, dimension=2, run=run,
                    seed=run, best_position=np.zeros(2), best_fitness=best,
                    best_objective=best, best_violation=0.0, feasible=True,
                    trace=[(6, best + 1.0), (12, best)], evaluations_used=12)
    out = tmp_path / ("%s-%dx%dx%d" % ("ties" if tie else "split",
                                       len(algorithms), len(problems), runs))
    persist(ResultSet(records, {"algorithms": list(algorithms),
                                "problems": list(problems)}), out)
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_reports_refuse_a_non_finite_best_naming_its_cell(tmp_path, capsys, bad):
    out = _synthetic_results(tmp_path, tie=False, bests={
        ("beta", "p2", 1): bad, ("alpha", "p3", 0): bad})
    for argv in (("compare",), ("stats", "--test", "wilcoxon"), ("stats",)):
        assert run_cli(*argv, "--results", str(out)) == 2
        err = capsys.readouterr().err
        assert "run 1 of beta on p2 has a non-finite best" in err


def test_compare_reports_ranks_and_wtl(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=False)
    assert run_cli("compare", "--results", str(out)) == 0
    text = capsys.readouterr().out
    assert "Friedman test" in text
    assert "alpha" in text and "beta" in text
    assert "Win/tie/loss" in text


def test_stats_friedman_over_ties(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=True)
    assert run_cli("stats", "--results", str(out), "--test", "friedman") == 0
    text = capsys.readouterr().out
    assert "p = 1" in text
    assert text.count("mean rank 1.5") == 2


def test_stats_wilcoxon_over_ties_all_equal(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=True)
    assert run_cli("stats", "--results", str(out), "--test", "wilcoxon") == 0
    assert "+0 =3 -0" in capsys.readouterr().out


def test_stats_report_rerun_is_byte_identical(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=False)
    rep = tmp_path / "reports"
    assert run_cli("stats", "--results", str(out), "--test", "friedman",
                   "--out", str(rep)) == 0
    first = (rep / "report-friedman.txt").read_bytes()
    assert run_cli("stats", "--results", str(out), "--test", "friedman",
                   "--out", str(rep)) == 0
    assert (rep / "report-friedman.txt").read_bytes() == first


def test_stats_kruskal_wallis_reports_ranks(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=False)
    assert run_cli("stats", "--results", str(out), "--test", "kw") == 0
    text = capsys.readouterr().out
    assert "Kruskal-Wallis" in text
    assert "alpha" in text


# sha256 of the stdout of every report command on one seeded set; pooled
# rank-sum sizes 6, 8 and 12 take the exact path, 20 and 60 the normal one
REPORT_DIGESTS = {
    "runs3":
        "5c4cc09267ebc474693d2932564c4eb9ece624dbba208c9a24bfd59c7847fcf6",
    "runs4":
        "fe2e05d00809a7820566cafeafdb8d539a039afaa031abe8fc32733b9b1562b4",
    "runs6":
        "656df9cdac9ebb74e12869dc87136573a4998b6b117d967357017e4abc18df57",
    "runs10":
        "6529bed285775f1940e00ba56bb2138e02de57b04e81060510243b70e8db8ddc",
    "runs30":
        "266afae09f30881a5888aadaa49adf7a1cbacca077de68ee788456f4bde8b645",
    "tied6":
        "be999debc731c220d5aafed1ccaac56f5edc4ea6deed738e23ebbdae340952d0",
    "tied10":
        "4170f3f16fad570c640619afd1fc22a27601973075b10519fcd64c9dfc1871fd",
}
REPORT_COMMANDS = (("compare",), ("stats", "--test", "friedman"),
                   ("stats", "--test", "wilcoxon"), ("stats", "--test", "kw"),
                   ("stats", "--test", "wilcoxon", "--alpha", "0.3"))


def _seeded_report_set(tmp_path, name):
    """5 algorithms x 6 problems whose bests move with the algorithm; a tied
    set draws its bests from four levels, and every set copies one cell."""
    runs = int(name.removeprefix("runs").removeprefix("tied"))
    gen = np.random.default_rng(runs + 100 * name.startswith("tied"))
    algorithms = ["A%d" % j for j in range(5)]
    problems = ["p%d" % i for i in range(6)]
    if name.startswith("tied"):
        bests = gen.integers(0, 4, size=(6, 5, runs)) + (np.arange(5) >= 3)[:, None]
    else:
        bests = gen.normal(0.4 * np.arange(5)[:, None], 1.0, size=(6, 5, runs))
    bests = bests.astype(float) + 10.0 * np.arange(6)[:, None, None]
    bests[0, 2] = bests[0, 1]
    records = {(a, p, r): RunRecord(
        algorithm=a, problem=p, dimension=2, run=r, seed=r,
        best_position=np.zeros(2), best_fitness=float(bests[i, j, r]),
        best_objective=float(bests[i, j, r]), best_violation=0.0, feasible=True,
        trace=[(12, float(bests[i, j, r]))], evaluations_used=12)
        for i, p in enumerate(problems) for j, a in enumerate(algorithms)
        for r in range(runs)}
    out = tmp_path / name
    persist(ResultSet(records, {"algorithms": algorithms, "problems": problems}), out)
    return out


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_text_is_pinned(tmp_path, capsys, name):
    """Every p value, statistic, rank and verdict the reports print, through
    both rank-sum paths, with and without ties."""
    out = str(_seeded_report_set(tmp_path, name))
    digest = hashlib.sha256()
    for argv in REPORT_COMMANDS:
        assert run_cli(*argv, "--results", out) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == REPORT_DIGESTS[name]


def test_each_main_call_parses_only_its_own_argv(tmp_path, capsys):
    """The parser is built once per process, and a flag one call gives does
    not carry over to the next."""
    results = str(_synthetic_results(tmp_path, tie=False))
    assert run_cli("stats", "--results", results, "--test", "kw") == 0
    assert "Kruskal-Wallis" in capsys.readouterr().out
    assert run_cli("stats", "--results", results) == 0
    text = capsys.readouterr().out
    assert "Friedman" in text and "Kruskal-Wallis" not in text
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("shape,argv,missing", [
    ({"algorithms": ("alpha",)}, ["compare"], "2 algorithms"),
    ({"problems": ("p1",)}, ["compare"], "2 problems"),
    ({"runs": 1}, ["compare"], "2 runs"),
    ({"algorithms": ("alpha",)}, ["stats", "--test", "friedman"], "2 algorithms"),
    ({"problems": ("p1",)}, ["stats", "--test", "friedman"], "2 problems"),
    ({"algorithms": ("alpha",)}, ["stats", "--test", "kw"], "2 algorithms"),
    ({"runs": 1}, ["stats", "--test", "wilcoxon"], "2 runs"),
    ({}, ["compare", "--alpha", "1.5"], "alpha must lie in (0, 1)"),
    ({}, ["stats", "--test", "friedman", "--alpha", "0"],
     "alpha must lie in (0, 1)"),
])
def test_results_too_small_to_compare_are_usage_errors(tmp_path, capsys, shape,
                                                        argv, missing):
    out = _synthetic_results(tmp_path, tie=False, **shape)
    capsys.readouterr()
    assert run_cli(*argv, "--results", str(out)) == 2
    captured = capsys.readouterr()
    assert missing in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("broken", ["traces row", "trace value",
                                    "position value"])
def test_unreadable_cell_is_a_runtime_failure(tmp_path, capsys, broken):
    out = _synthetic_results(tmp_path, tie=True)
    path = out / "results.npz"
    # the last row is beta's run 2 on p3
    if broken == "traces row":
        drop_last_trace(out)
        expected = "array 'length' holds 17 rows; array 'algorithm' 18"
    elif broken == "trace value":
        rewrite_results(out, lambda a: {**a, "trace": np.append(a["trace"], a["trace"][-1])})
        expected = "the lengths in array 'length' do not split the 37 entries"
    else:
        rewrite_results(out, lambda a: {**a, "best_position": a["best_position"].astype("U8")})
        expected = "array 'best_position' is 1-D <U8; expected 1-D float64"
    # every command loads the whole set
    for argv in (("compare",), ("export-trace", "--problem", "p1")):
        capsys.readouterr()
        assert run_cli(*argv, "--results", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("failed: %s: " % path)
        assert expected in err


@pytest.mark.parametrize("argv", [["compare"], ["stats", "--test", "friedman"],
                                  ["stats", "--test", "wilcoxon"],
                                  ["stats", "--test", "kw"],
                                  ["export-trace", "--problem", "p3"]])
def test_compare_and_stats_open_each_file_of_the_set_once(tmp_path, capsys,
                                                          monkeypatch, argv):
    out = _synthetic_results(tmp_path, tie=False)
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(harness, "open", spy, raising=False)
    assert run_cli(*argv, "--results", str(out)) == 0
    assert opened == ["results.npz"]


@pytest.mark.parametrize("argv", [["compare"], ["stats", "--test", "friedman"],
                                  ["stats", "--test", "wilcoxon"],
                                  ["stats", "--test", "kw"]])
def test_reports_walk_the_result_grid_once(tmp_path, capsys, monkeypatch, argv):
    out = _synthetic_results(tmp_path, tie=False)
    calls = []
    validate = ResultSet.validate_rectangular

    def spy(self):
        calls.append(1)
        return validate(self)

    monkeypatch.setattr(ResultSet, "validate_rectangular", spy)
    assert run_cli(*argv, "--results", str(out)) == 0
    assert len(calls) == 1


def _drop_record(out, key):
    """Persist the set at ``out`` again without the record of cell ``key``;
    a results file with a row cut short is a broken set instead
    (test_harness)."""
    rs = load(out)
    del rs.records[key]
    persist(rs, out)


def test_stats_rejects_non_rectangular_results(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=True)
    _drop_record(out, ("beta", "p3", 2))
    assert run_cli("stats", "--results", str(out)) == 2


# --------------------------------------------------------------- export-trace


def _real_results(tmp_path):
    out = tmp_path / "real"
    code = run_cli("run", "--algorithms", "ECO,IECO-MCO", "--problems",
                   "f01,f02", "--runs", "2", "--dim", "5", "--n", "6",
                   "--fes-max", "120", "--out", str(out))
    assert code == 0
    return out


def test_export_trace_writes_columnar_series(tmp_path, capsys):
    out = _real_results(tmp_path)
    capsys.readouterr()
    target = tmp_path / "trace.csv"
    assert run_cli("export-trace", "--results", str(out), "--problem", "f01",
                   "--out", str(target)) == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "fes,ECO,IECO-MCO"
    grid = [int(r.split(",")[0]) for r in lines[1:]]
    assert grid[0] == 6 and grid[-1] == 120
    for col in (1, 2):
        series = [float(r.split(",")[col]) for r in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(series, series[1:]))


def _export_text_walking_each_point(results, problem):
    """What export-trace printed when it read each trace point by point: a
    grid of every recorded evaluation count, then per algorithm the mean
    over runs of the best value at or before each grid point."""
    algs, runs = results.algorithms, results.run_count
    traces = {a: [list(results.records[(a, problem, r)].trace)
                  for r in range(runs)] for a in algs}
    grid = np.array(sorted({f for a in algs for tr in traces[a] for f, _ in tr}),
                    dtype=int)
    series = {}
    for a in algs:
        acc = np.zeros(len(grid))
        for tr in traces[a]:
            fes = np.array([f for f, _ in tr])
            idx = np.clip(np.searchsorted(fes, grid, side="right") - 1, 0,
                          len(fes) - 1)
            acc += np.array([b for _, b in tr])[idx]
        series[a] = acc / runs
    return "".join("%d,%s\n" % (fes, ",".join(repr(float(series[a][i]))
                                               for a in algs))
                   for i, fes in enumerate(grid))


def test_export_trace_prints_what_the_point_by_point_reading_printed(
        tmp_path, capsys):
    """Constrained cells resample, so their runs record different
    evaluation counts and the grid is the union of ragged traces."""
    out = tmp_path / "r"
    assert run_cli("run", "--algorithms", "ECO,IECO-MCO", "--problems",
                   "f01,rw03", "--runs", "3", "--dim", "5", "--n", "6",
                   "--fes-max", "120", "--out", str(out)) == 0
    results = load(out)
    rw03 = "rw03-three-bar-truss"
    grids = {tuple(f for f, _ in results.records[("ECO", rw03, r)].trace)
             for r in range(3)}
    assert len(grids) > 1
    for problem in ("f01-zakharov-d5", rw03):
        capsys.readouterr()
        assert run_cli("export-trace", "--results", str(out), "--problem",
                       problem) == 0
        assert capsys.readouterr().out == (
            "fes,ECO,IECO-MCO\n" + _export_text_walking_each_point(results, problem))


def test_export_trace_to_stdout(tmp_path, capsys):
    out = _real_results(tmp_path)
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out),
                   "--problem", "f02", "--algorithms", "ECO") == 0
    text = capsys.readouterr().out
    assert text.startswith("fes,ECO")


@pytest.mark.parametrize("label", ["F01", "RW03", "f01-zakharov"])
def test_export_trace_resolves_problem_names_as_run_does(tmp_path, capsys, label):
    out = tmp_path / "r"
    assert run_cli("run", "--algorithms", "ECO", "--problems", "F01,rw03",
                   "--out", str(out), *TINY) == 0
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out),
                   "--problem", label) == 0
    assert capsys.readouterr().out.startswith("fes,ECO")


def test_export_trace_prefers_the_exact_problem_name(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=False, problems=("disk-a", "disk-b"))
    results = load(out)
    for problem in ("disk-a", "disk-b"):
        assert run_cli("export-trace", "--results", str(out),
                       "--problem", problem) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        _, series = export_trace(results, problem)
        assert [float(v) for v in last[1:]] == [series[a][-1]
                                                for a in results.algorithms]


def test_export_trace_refuses_an_ambiguous_leading_token(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=False, problems=("disk-a", "disk-b"))
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out), "--problem", "disk") == 2
    captured = capsys.readouterr()
    assert "disk-a" in captured.err and "disk-b" in captured.err
    assert captured.out == ""


def test_export_trace_matches_algorithms_whatever_their_case(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli("run", "--problems", "f01", "--out", str(out), *TINY) == 0
    assert load(out).algorithms == ["ieco-mco", "eco"]
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out), "--problem", "F01",
                   "--algorithms", "IECO-MCO, Eco") == 0
    assert capsys.readouterr().out.startswith("fes,ieco-mco,eco\n")


def test_export_trace_matches_algorithms_by_the_variant_name_rule(tmp_path,
                                                                  capsys):
    out = tmp_path / "r"
    assert run_cli("run", "--algorithms", "ieco_mco,eco", "--problems", "f01",
                   "--out", str(out), *TINY) == 0
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out), "--problem", "f01",
                   "--algorithms", "IECO-MCO") == 0
    assert capsys.readouterr().out.startswith("fes,ieco_mco\n")


def test_export_trace_without_problem_is_usage_error(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=False)
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no problem given; use --problem\n"
    assert captured.out == ""


def test_export_trace_without_problem_reads_no_set(tmp_path, capsys):
    out = _synthetic_results(tmp_path, tie=False)
    (out / "results.npz").unlink()
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out)) == 2
    assert capsys.readouterr() == ("", "error: no problem given; use --problem\n")


@pytest.mark.parametrize("argv, out, needle", [
    (["stats", "--test", "kw"], "afile", "afile is not a directory"),
    (["stats", "--test", "kw"], "afile/reports", "afile is not a directory"),
    (["export-trace", "--problem", "p1"], "afile/x.csv", "afile is not a directory"),
    (["export-trace", "--problem", "p1"], "adir", "adir: it is a directory"),
])
def test_an_output_path_that_cannot_be_written_is_refused_before_the_set_is_read(
        tmp_path, capsys, monkeypatch, argv, out, needle):
    results = str(_synthetic_results(tmp_path, tie=False))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep me\n")
    (tmp_path / "adir").mkdir()
    loads = []
    monkeypatch.setattr(harness, "load", lambda *a: loads.append(a))
    capsys.readouterr()
    assert run_cli(*argv, "--results", results, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err
    assert loads == []
    assert (tmp_path / "afile").read_text() == "keep me\n"
    assert list((tmp_path / "adir").iterdir()) == []


def test_export_trace_resolves_algorithms_as_problems(tmp_path, capsys):
    """A set persisted through the library can hold two names of one label:
    an exact name picks its own series, and the label alone is ambiguous."""
    out = _synthetic_results(tmp_path, tie=False, algorithms=("ECO", "eco"))
    results = load(out)
    for name in ("ECO", "eco"):
        capsys.readouterr()
        assert run_cli("export-trace", "--results", str(out), "--problem", "p1",
                       "--algorithms", name) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "fes," + name
        _, series = export_trace(results, "p1", [name])
        assert [float(line.split(",")[1]) for line in lines[1:]] == list(series[name])
    assert run_cli("export-trace", "--results", str(out), "--problem", "p1",
                   "--algorithms", "Eco") == 2
    assert capsys.readouterr() == ("", "error: ambiguous algorithm 'Eco'; "
                                       "candidates: ECO, eco\n")


def test_export_trace_unknown_problem_or_algorithm(tmp_path, capsys):
    out = _real_results(tmp_path)
    assert run_cli("export-trace", "--results", str(out),
                   "--problem", "f09") == 2
    assert run_cli("export-trace", "--results", str(out), "--problem", "f01",
                   "--algorithms", "GECO") == 2


def test_export_trace_missing_record_prints_its_message_unquoted(tmp_path,
                                                                 capsys):
    out = _synthetic_results(tmp_path, tie=True)
    _drop_record(out, ("beta", "p3", 2))
    capsys.readouterr()
    assert run_cli("export-trace", "--results", str(out), "--problem", "p3") == 2
    assert capsys.readouterr().err == ("error: no record for algorithm 'beta' "
                                       "on problem 'p3' run 2\n")


# -------------------------------------------------------------- list-problems


@pytest.mark.parametrize("dim,needle", [("0", "dim must be positive"),
                                        ("2", "hybrid blocks")])
def test_list_problems_bad_dim_is_usage_error(capsys, dim, needle):
    assert run_cli("list-problems", "--dim", dim) == 2
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""


def test_list_problems_prints_registry(capsys):
    assert run_cli("list-problems", "--dim", "10") == 0
    text = capsys.readouterr().out
    assert "f01-zakharov-d10" in text
    assert "rw10-step-cone-pulley" in text
    assert "engineering" in text
