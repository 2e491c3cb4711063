"""The byte contract across commits: the benchmark's outputs against their recorded digests.

Each workload of ``bench/workloads.py`` is set up on seed 0 and its command
sequence replayed in process through ``kph.cli.main``. Every output's
digest must equal the one in ``bench/reference_digests.json``, which this
module only reads. A change that moves output bytes on purpose refreshes
that file (``python3 bench/run.py --write-reference``) and says which
digests moved and why. Replayed twice in one process on seed 1, each
workload writes the same files, manifests included: no run leaves state
behind that changes the next one's bytes.

``kph eval``, ``combine``, ``build``, ``tune``, ``weaklabel`` and ``prcurve``
load no numpy, so each workload op of theirs also runs under every other
local interpreter without numpy that pyenv lists, and must write the same
bytes.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kph.cli import main
from helpers import tree_bytes

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
REFERENCE = json.loads((BENCH / "reference_digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench():
    """bench's generator, workloads and harness modules, importable by their own names."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import generator
        import harness
        import workloads
        yield generator, workloads, harness


def run_workload(bench, name: str, seed: int, root: Path) -> tuple[Path, dict[str, str]]:
    """Set up a workload's corpus under root and replay its sequence in process.

    Returns the pass directory and {output label: sha256}.
    """
    generator, workloads, harness = bench
    w = workloads.WORKLOADS[name]
    corpus = root / "corpus"
    sids = [p.summary_id for p in generator.write_corpus(corpus, w.spec, seed)]
    for argv in w.prescore:
        assert main([argv[0], "--in-dir", str(corpus), "--out-dir", str(corpus),
                     *argv[1:]]) == 0, argv
    pass_dir = root / "pass"
    harness.fresh_pass_dir(corpus, pass_dir)
    digests = {}
    for op in w.ops:
        (pass_dir / op.out).mkdir(parents=True, exist_ok=True)
        assert main(harness.op_argv(op, pass_dir)) == 0, op.label
        r = harness.OpResult(op)
        harness.collect_outputs(r, pass_dir, sids)
        assert not r.errors, r.errors
        digests.update(r.digests)
    return pass_dir, digests


@pytest.fixture(scope="module")
def replay(bench, tmp_path_factory):
    """replay(workload) -> (pass directory, {output label: sha256}) of its seed-0 run, run once."""

    @functools.cache
    def replay(name: str) -> tuple[Path, dict[str, str]]:
        return run_workload(bench, name, 0, tmp_path_factory.mktemp(name))

    return replay


def test_reference_covers_every_workload(bench):
    _, workloads, _ = bench
    assert set(REFERENCE) == set(workloads.WORKLOADS)
    assert sum(map(len, REFERENCE.values())) == 114


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_outputs_match_reference_digests(replay, workload):
    _, got = replay(workload)
    want = REFERENCE[workload]
    moved = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
    assert not moved, f"{len(moved)} of {len(want)} outputs moved: {moved[:10]}"


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_seed_1_replayed_twice_in_one_process_writes_the_same_trees(bench, tmp_path, workload):
    first, second = tmp_path / "first", tmp_path / "second"
    for root in (first, second):
        run_workload(bench, workload, 1, root)
    assert any(first.rglob("manifest_*.json"))
    assert tree_bytes(second) == tree_bytes(first)


@pytest.fixture(scope="module")
def interpreters() -> list[Path]:
    """pyenv's Python >= 3.10 interpreters without numpy, other than this one's version."""
    pyenv = shutil.which("pyenv")
    found = subprocess.run([pyenv, "root"], capture_output=True, text=True) if pyenv else None
    if found is None or found.returncode != 0:
        pytest.skip("pyenv is not installed, so no other interpreter is known")
    probe = ("import importlib.util, sys; "
             f"sys.exit(not (sys.version_info >= (3, 10) and sys.version_info[:2] != "
             f"{tuple(sys.version_info[:2])} and importlib.util.find_spec('numpy') is None))")
    exes = [exe for exe in sorted(Path(found.stdout.strip()).glob("versions/*/bin/python3"))
            if subprocess.run([exe, "-c", probe], capture_output=True).returncode == 0]
    if not exes:
        pytest.skip("pyenv lists no other Python >= 3.10 without numpy")
    return exes


def same_bytes_elsewhere(argv: list[str], interpreters: list[Path], tmp_path: Path) -> None:
    """argv (without --out-dir) writes the same files under each interpreter as in process."""
    assert main([*argv, "--out-dir", str(tmp_path / "here")]) == 0
    want = tree_bytes(tmp_path / "here")
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for exe in interpreters:
        there = tmp_path / exe.parents[1].name
        subprocess.run([exe, "-m", "kph", *argv, "--out-dir", str(there)], check=True,
                       capture_output=True, env=env)
        assert tree_bytes(there) == want, exe


@pytest.mark.parametrize("algorithm", ["tncf", "greedy_gs"])
def test_eval_bytes_match_under_numpy_free_interpreters(bench, replay, interpreters, tmp_path,
                                                        algorithm):
    _, workloads, _ = bench
    pass_dir, _ = replay("build_paper")
    same_bytes_elsewhere(["eval", "--in-dir", str(pass_dir / workloads.DATA),
                          "--pred", f"hierarchy_{algorithm}.jsonl"], interpreters, tmp_path)


@pytest.mark.parametrize("workload, label", [
    ("build_paper", "combine"), ("build_paper", "build_tncf"), ("build_paper", "build_greedy_gs"),
    ("tune_loo", "tune_reduced_forest"), ("tune_loo", "tune_tncf"),
    ("score_stress", "weaklabel"), ("score_stress", "prcurve"),
])
def test_score_commands_match_under_numpy_free_interpreters(bench, replay, interpreters,
                                                            tmp_path, workload, label):
    _, workloads, _ = bench
    pass_dir, _ = replay(workload)
    op = next(op for op in workloads.WORKLOADS[workload].ops if op.label == label)
    same_bytes_elsewhere([op.command, "--in-dir", str(pass_dir / workloads.DATA),
                          *op.argv[1:]], interpreters, tmp_path)
