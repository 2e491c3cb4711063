"""kph runs on numpy alone: every demo and subcommand with scipy blocked.

A fake ``scipy`` package that raises ImportError sits first on PYTHONPATH
of each subprocess, so any import of scipy, however indirect, fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
SUBCOMMANDS = {"score", "combine", "build", "tune", "eval", "prcurve", "weaklabel",
               "correlate", "validate"}


@pytest.fixture
def scipy_blocked_env(tmp_path):
    fake = tmp_path / "blocked" / "scipy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text('raise ImportError("scipy is blocked")\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(fake.parent), str(REPO / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # the CLI demo makes its scratch directory there
    blocked = subprocess.run([sys.executable, "-c", "import scipy"], env=env,
                             capture_output=True, text=True)
    assert "scipy is blocked" in blocked.stderr
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_without_scipy(demo, scipy_blocked_env):
    done = subprocess.run([sys.executable, str(demo)], env=scipy_blocked_env, cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if demo.name == "05_cli_pipeline.py":  # one `python -m kph` process per subcommand
        ran = {line.split()[2] for line in done.stdout.splitlines()
               if line.startswith("$ kph ")}
        assert ran == SUBCOMMANDS
