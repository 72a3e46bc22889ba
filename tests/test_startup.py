"""Start-up guard: a figure run never loads scipy.

Importing ``scipy.stats`` costs ≈ 0.7 s and ≈ 50 MB per process, and
a figure needs it for nothing: the 95 % Student-t values come from an
exact table in :mod:`repro.san.statistics`, and every other scipy
use (transient CTMC solver, :mod:`repro.validate` tests) imports it
inside the function. This runs the CLI in a fresh interpreter, so a
module-level ``from scipy import ...`` anywhere on the path fails it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import contextlib, io, sys
import repro
import repro.experiments.cli
import repro.backends.cluster
import repro.experiments.validation
import repro.obs.manifest
from repro.experiments.cli import main

for argv in (
    ["run-figure", "fig4a", "--preset", "quick", "--max-points", "2",
     "--no-validate"],
    ["run-figure", "coordination-law", "--preset", "quick"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert not code, (argv, code)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_figure_runs_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "[]", completed.stdout
