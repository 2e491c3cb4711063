"""kph runs on numpy alone, and `kph eval`, --help and --version without it.

A fake ``scipy`` (or ``numpy``) package that raises ImportError sits first
on PYTHONPATH of each subprocess, so any import of it, however indirect,
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kph import Hierarchy
from kph import io as kio

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
SUBCOMMANDS = {"score", "combine", "build", "tune", "eval", "prcurve", "weaklabel",
               "correlate", "validate"}


def blocked_env(tmp_path, package: str) -> dict[str, str]:
    """The environment with a package that fails to import first on PYTHONPATH."""
    fake = tmp_path / "blocked" / package
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text(f'raise ImportError("{package} is blocked")\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(fake.parent), str(REPO / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # the CLI demo makes its scratch directory there
    blocked = subprocess.run([sys.executable, "-c", f"import {package}"], env=env,
                             capture_output=True, text=True)
    assert f"{package} is blocked" in blocked.stderr
    return env


@pytest.fixture
def scipy_blocked_env(tmp_path):
    return blocked_env(tmp_path, "scipy")


@pytest.fixture
def numpy_blocked_env(tmp_path):
    return blocked_env(tmp_path, "numpy")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_without_scipy(demo, scipy_blocked_env):
    done = subprocess.run([sys.executable, str(demo)], env=scipy_blocked_env, cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if demo.name == "05_cli_pipeline.py":  # one `python -m kph` process per subcommand
        ran = {line.split()[2] for line in done.stdout.splitlines()
               if line.startswith("$ kph ")}
        assert ran == SUBCOMMANDS


def kph(env, *argv):
    return subprocess.run([sys.executable, "-m", "kph", *map(str, argv)], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [["--version"], ["--help"],
                                  *([cmd, "--help"] for cmd in sorted(SUBCOMMANDS))],
                         ids=lambda argv: " ".join(argv))
def test_version_and_help_run_without_numpy(argv, numpy_blocked_env):
    done = kph(numpy_blocked_env, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_eval_runs_without_numpy_and_writes_the_same_bytes(tmp_path, numpy_blocked_env):
    data = tmp_path / "data"
    for sid, domain in [("h1", "hotels"), ("h2", "hotels"), ("r1", "restaurants")]:
        clusters = tuple(frozenset({f"k{i}"}) for i in range(4))
        gold = Hierarchy(sid, clusters, {1: 0, 2: 0, 3: 2}, domain=domain)
        pred = Hierarchy(sid, clusters, {1: 0, 3: 0}, domain=domain)
        kio.write_hierarchy(data / sid / kio.GOLD_FILE, gold)
        kio.write_hierarchy(data / sid / "hierarchy_tncf.jsonl", pred)
    outputs = ("report_eval.json", "metrics.csv", "manifest_eval.json")
    plain_env = {**numpy_blocked_env, "PYTHONPATH": os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)}
    runs = {}
    for label, env in (("blocked", numpy_blocked_env), ("plain", plain_env)):
        done = kph(env, "eval", "--in-dir", data, "--out-dir", tmp_path / label,
                   "--pred", "hierarchy_tncf.jsonl")
        assert done.returncode == 0, done.stderr
        runs[label] = {name: (tmp_path / label / name).read_bytes() for name in outputs}
    assert runs["blocked"] == runs["plain"]
