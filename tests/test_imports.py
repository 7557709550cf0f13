"""Cold-start import guard: what each command loads in a fresh interpreter.

The optimizer path (``import ieco_mco.cli``, ``mco list-problems``, a serial
``mco run``) imports numpy only: no scipy module and no process pool. The
statistical commands load ``scipy.special`` for their tails on first use,
never ``scipy.stats``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ieco_mco import harness

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs one command through cli.main (or none for "import") and prints the
# names of every loaded module as its last line.
CHILD = """
import json, sys
from ieco_mco import cli
code = 0 if sys.argv[1:] == ["import"] else cli.main(sys.argv[1:])
print()
print(json.dumps([code, sorted(sys.modules)]))
"""

TINY_RUN = ["run", "--algorithms", "ECO,IECO-MCO", "--problems", "f01,rw03",
            "--runs", "2", "--dim", "5", "--n", "6", "--fes-max", "60"]


def loaded_modules(argv):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "MCO_"))}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0, proc.stdout + proc.stderr
    return set(modules)


def scipy_modules(modules):
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


@pytest.fixture(scope="module")
def result_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports") / "r"
    rs = harness.run_batch(["ECO", "IECO-MCO"], ["f01", "rw03"], runs=3,
                           base_seed=0, dimension=5, n=6, fes_max=60)
    harness.persist(rs, out)
    return out


@pytest.mark.parametrize("argv", [
    ["import"],
    ["list-problems"],
    TINY_RUN,
    ["export-trace", "--problem", "f01"],
], ids=["import", "list-problems", "run", "export-trace"])
def test_optimizer_path_loads_no_scipy_and_no_process_pool(argv, result_dir,
                                                           tmp_path):
    if argv[0] == "run":
        argv = argv + ["--out", str(tmp_path / "r")]
    elif argv[0] == "export-trace":
        argv = argv + ["--results", str(result_dir)]
    modules = loaded_modules(argv)
    assert scipy_modules(modules) == []
    assert "concurrent.futures.process" not in modules


def test_compare_loads_scipy_special_but_not_scipy_stats(result_dir):
    modules = loaded_modules(["compare", "--results", str(result_dir)])
    assert "scipy.special" in modules
    assert "scipy.stats" not in modules
