"""kph runs on numpy alone, and every command that reads no match matrix without it.

`kph eval`, `combine`, `build`, `tune`, `weaklabel`, --help and --version
load no numpy; `score`, `correlate`, `prcurve` and `validate` need it.

A fake ``scipy`` (or ``numpy``) package that raises ImportError sits first
on PYTHONPATH of each subprocess, so any import of it, however indirect,
fails.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from kph import ALGORITHMS, Hierarchy, KeyPoint, KeyPointSet
from kph import io as kio
from helpers import random_hierarchy, random_score_matrix, tree_bytes

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


def unblocked(env) -> dict[str, str]:
    """A blocked environment with the blocked package back in place."""
    return {**env, "PYTHONPATH": os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)}


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
    runs = {}
    for label, env in (("blocked", numpy_blocked_env), ("plain", unblocked(numpy_blocked_env))):
        done = kph(env, "eval", "--in-dir", data, "--out-dir", tmp_path / label,
                   "--pred", "hierarchy_tncf.jsonl")
        assert done.returncode == 0, done.stderr
        runs[label] = {name: (tmp_path / label / name).read_bytes() for name in outputs}
    assert runs["blocked"] == runs["plain"]


@pytest.fixture(scope="module")
def score_corpus(tmp_path_factory):
    """Two domains of three summaries: key points (some filtered), gold and two score files."""
    root = tmp_path_factory.mktemp("scores")
    rng = random.Random(33)
    for k in range(6):
        sid, domain, n = f"s{k}", ("hotels", "restaurants")[k % 2], rng.randrange(6, 11)
        gold = random_hierarchy(rng, n, summary_id=sid, domain=domain)
        ids = sorted(gold.kp_ids)
        kps = KeyPointSet(summary_id=sid, domain=domain, key_points=tuple(
            KeyPoint(id=x, text=f"{sid} point {x}", polarity="positive", match_count=n - i,
                     filtered=i == n - 1) for i, x in enumerate(ids)))
        kio.write_key_points(root / sid / kio.KEY_POINTS_FILE, kps)
        kio.write_hierarchy(root / sid / kio.GOLD_FILE, gold)
        for name in ("a", "b"):
            kio.write_scores(root / sid / f"scores_{name}.jsonl",
                             random_score_matrix(rng, n, summary_id=sid, quantize=True))
    return root


# Every command that reads scores but no match matrix, with each builder.
SCORE_COMMANDS = {
    "combine": ("combine", "--a", "scores_a.jsonl", "--b", "scores_b.jsonl", "--name", "mean"),
    **{f"build {a}": ("build", "--scores", "scores_a.jsonl", "--algorithm", a, "--tau", "0.5")
       for a in ALGORITHMS},
    "tune reduced_forest": ("tune", "--scores", "scores_a.jsonl", "--algorithm",
                            "reduced_forest"),
    "tune tncf": ("tune", "--scores", "scores_a.jsonl", "--algorithm", "tncf",
                  "--grid", "0:1:0.1"),
    "weaklabel": ("weaklabel", "--scores", "scores_a.jsonl"),
}


@pytest.mark.parametrize("argv", SCORE_COMMANDS.values(), ids=SCORE_COMMANDS)
def test_score_commands_run_without_numpy_and_write_the_same_bytes(tmp_path, numpy_blocked_env,
                                                                   score_corpus, argv):
    runs = {}
    for label, env in (("blocked", numpy_blocked_env), ("plain", unblocked(numpy_blocked_env))):
        out = tmp_path / f"out_{label}"
        done = kph(env, argv[0], "--in-dir", score_corpus, "--out-dir", out, *argv[1:])
        assert done.returncode == 0, done.stderr
        runs[label] = tree_bytes(out)
    assert f"manifest_{argv[0]}.json" in runs["plain"]
    assert runs["blocked"] == runs["plain"]
