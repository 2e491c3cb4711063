"""Seeded loader property test: every mutated input file is a clean exit 2.

Each input file kind is truncated, byte-flipped, given a duplicated line,
stripped of a line, or has one numeric literal replaced by NaN, -1, 1e309,
null, or an integer too large for a float (400 digits) or for json to
read (5000 digits, past Python's int max-str-digits limit). Every
subcommand that reads the file must then either succeed (the mutation can
leave a valid file) or exit 2 with nothing written to its output
directory; exit 3 (internal invariant breach) never happens.
"""

import random
import re
import shutil

import numpy as np
import pytest

from kph import Hierarchy, KeyPoint, KeyPointSet, MatchMatrix, compute_score_matrix
from kph import io as kio
from kph.cli import main

SCORES = "scores_bininc.jsonl"

# (file, subcommands that read it); each argv runs with --in-dir/--out-dir
READERS = {
    kio.GOLD_FILE: ["tune", "eval", "prcurve", "validate"],
    kio.KEY_POINTS_FILE: ["build", "tune", "prcurve", "weaklabel", "validate"],
    kio.MATCH_MATRIX_FILE: ["score", "validate"],
    SCORES: ["combine", "build", "tune", "prcurve", "weaklabel", "correlate", "validate"],
}

ARGV = {
    "score": ["score", "--scorer", "bininc"],
    "combine": ["combine", "--a", SCORES, "--b", SCORES],
    "build": ["build", "--scores", SCORES, "--algorithm", "tncf", "--tau", "0.5"],
    "tune": ["tune", "--scores", SCORES, "--algorithm", "reduced_forest",
             "--grid", "0.3,0.5,0.7"],
    "eval": ["eval", "--pred", kio.GOLD_FILE],
    "prcurve": ["prcurve", "--scores", SCORES],
    "weaklabel": ["weaklabel", "--scores", SCORES],
    "correlate": ["correlate", "--a", SCORES, "--b", SCORES],
    "validate": ["validate"],
}

MUTATIONS = ("truncate", "flip", "duplicate", "drop",
             "splice:NaN", "splice:-1", "splice:1e309", "splice:null",
             "splice:1" + "0" * 399, "splice:1" + "0" * 4999)

SEEDS_PER_MUTATION = 6

# support(k00) holds support(k01) and support(k02); k03 stands apart
PLANTED = np.array([
    [0.9, 0.9, 0.0, 0.0],
    [0.8, 0.8, 0.0, 0.0],
    [0.9, 0.0, 0.9, 0.0],
    [0.8, 0.0, 0.7, 0.0],
    [0.0, 0.0, 0.0, 0.9],
    [0.0, 0.0, 0.0, 0.8],
])

_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    ids = tuple(f"k{i:02d}" for i in range(4))
    for sid, domain in [("h1", "hotels"), ("h2", "hotels"),
                        ("r1", "restaurants"), ("r2", "restaurants")]:
        d = root / sid
        kio.write_key_points(d / kio.KEY_POINTS_FILE, KeyPointSet(
            summary_id=sid, domain=domain,
            key_points=tuple(KeyPoint(id=k, text=f"{sid} point {k}", match_count=6 - i)
                             for i, k in enumerate(ids))))
        m = MatchMatrix(summary_id=sid, domain=domain,
                        sentence_ids=tuple(f"t{j}" for j in range(6)),
                        kp_ids=ids, values=PLANTED)
        kio.write_match_matrix(d / kio.MATCH_MATRIX_FILE, m)
        kio.write_scores(d / SCORES, compute_score_matrix(m, "bininc", 0.5))
        kio.write_hierarchy(d / kio.GOLD_FILE, Hierarchy(
            summary_id=sid, domain=domain, clusters=tuple(frozenset({k}) for k in ids),
            parent={1: 0, 2: 0}))
    return root


def mutate(data: bytes, mutation: str, rng: random.Random) -> bytes:
    lines = data.splitlines(keepends=True)
    if mutation == "truncate":
        return data[:rng.randrange(len(data))]
    if mutation == "flip":
        k = rng.randrange(len(data))
        return data[:k] + bytes([data[k] ^ rng.randrange(1, 256)]) + data[k + 1:]
    if mutation == "duplicate":
        k = rng.randrange(len(lines))
        return b"".join(lines[:k + 1] + lines[k:])
    if mutation == "drop":
        k = rng.randrange(len(lines))
        return b"".join(lines[:k] + lines[k + 1:])
    token = mutation.split(":", 1)[1].encode()
    match = rng.choice(list(_NUMBER.finditer(data)))
    return data[:match.start()] + token + data[match.end():]


def output_files(out_dir):
    return sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.exists() else []


@pytest.mark.parametrize("filename", sorted(READERS))
def test_mutated_file_exits_2_and_writes_nothing(filename, pristine, tmp_path, capsys):
    rejected = 0
    runs = 0
    for m, mutation in enumerate(MUTATIONS):
        for seed in range(SEEDS_PER_MUTATION):
            rng = random.Random(f"{filename}/{mutation}/{seed}")
            data_dir = tmp_path / f"{m}-{seed}"
            shutil.copytree(pristine, data_dir / "in")
            target = data_dir / "in" / rng.choice(["h1", "h2", "r1", "r2"]) / filename
            target.write_bytes(mutate(target.read_bytes(), mutation, rng))
            for command in READERS[filename]:
                out_dir = data_dir / f"out_{command}"
                code = main(ARGV[command] + ["--in-dir", str(data_dir / "in"),
                                            "--out-dir", str(out_dir)])
                err = capsys.readouterr().err
                where = f"{command} on {filename} after {mutation:.20} (seed {seed})"
                assert code in (0, 2), f"{where}: exit {code}\n{err}"
                runs += 1
                if code == 2:
                    rejected += 1
                    assert err.startswith("kph: invalid input: "), where
                    assert output_files(out_dir) == [], f"{where}: wrote output"
                else:
                    assert (out_dir / f"manifest_{command}.json").exists(), where
    # most mutations must actually break the file, or the test checks little
    assert rejected > runs // 2, f"only {rejected} of {runs} runs rejected the input"
