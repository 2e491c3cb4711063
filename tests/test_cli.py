"""Command line driver: exit codes, outputs, determinism."""

import csv
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kph import Hierarchy, KeyPoint, KeyPointSet, MatchMatrix, ScoreMatrix
from kph import io as kio
from kph.evaluation import DEFAULT_TAU_GRID
import kph.cli
from kph.cli import main
from helpers import tree_bytes

SRC = Path(__file__).resolve().parents[1] / "src"

# match weights planted so that bininc at theta 0.5 yields the tree
# k01 -> k00 <- k02 with k03 isolated:
# support(k00) = {0,1,2,3}, support(k01) = {0,1}, support(k02) = {2,3},
# support(k03) = {4,5}; inclusion is 1.0 upward and 0.5 or 0 elsewhere.
PLANTED = np.array([
    [0.9, 0.9, 0.0, 0.0],
    [0.8, 0.8, 0.0, 0.0],
    [0.9, 0.0, 0.9, 0.0],
    [0.8, 0.0, 0.7, 0.0],
    [0.0, 0.0, 0.0, 0.9],
    [0.0, 0.0, 0.0, 0.8],
])


def make_summary(root, sid, domain):
    d = root / sid
    d.mkdir(parents=True)
    ids = tuple(f"k{i:02d}" for i in range(4))
    kps = KeyPointSet(
        summary_id=sid, domain=domain,
        key_points=tuple(
            KeyPoint(id=k, text=f"{sid} point {k}", polarity="positive",
                     match_count=6 - i, filtered=False)
            for i, k in enumerate(ids)))
    kio.write_key_points(d / kio.KEY_POINTS_FILE, kps)
    m = MatchMatrix(summary_id=sid, domain=domain,
                    sentence_ids=tuple(f"t{j}" for j in range(6)),
                    kp_ids=ids, values=PLANTED)
    kio.write_match_matrix(d / kio.MATCH_MATRIX_FILE, m)
    gold = Hierarchy(summary_id=sid, domain=domain,
                     clusters=tuple(frozenset({k}) for k in ids),
                     parent={1: 0, 2: 0})
    kio.write_hierarchy(d / kio.GOLD_FILE, gold)
    return d


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    for sid, dom in [("h1", "hotels"), ("h2", "hotels"),
                     ("r1", "restaurants"), ("r2", "restaurants")]:
        make_summary(root, sid, dom)
    return root


def run(*argv):
    return main([str(a) for a in argv])


def scored_copy(dataset, tmp_path):
    """bininc scores of the dataset, next to copies of its key point and gold files."""
    out = tmp_path / "scored"
    run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
    for sid in ["h1", "h2", "r1", "r2"]:
        for name in (kio.KEY_POINTS_FILE, kio.GOLD_FILE):
            (out / sid / name).write_bytes((dataset / sid / name).read_bytes())
    return out


def threshold_graph(s, tau):
    """Which scores exceed tau, row by row: a reduced forest's whole input besides ids."""
    return tuple(v > tau for row in s.values for v in row)


class TestExitCodes:
    def test_no_args_is_usage_error(self, capsys):
        assert run() == 1

    def test_unknown_scorer(self, dataset, tmp_path):
        assert run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scorer", "tfidf") == 1

    def test_tau_out_of_range(self, dataset, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("score", "--in-dir", dataset, "--out-dir", out,
                   "--scorer", "bininc") == 0
        assert run("build", "--in-dir", out, "--out-dir", tmp_path / "b",
                   "--scores", "scores_bininc.jsonl", "--algorithm", "greedy",
                   "--tau", "1.5") == 1

    def test_missing_required_flag(self, dataset, tmp_path):
        assert run("build", "--in-dir", dataset, "--out-dir", tmp_path / "b",
                   "--algorithm", "greedy", "--tau", "0.5") == 1

    def test_empty_input_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = run("score", "--in-dir", empty, "--out-dir", tmp_path / "o",
                   "--scorer", "bininc")
        assert code == 2
        assert "no summaries" in capsys.readouterr().err

    def test_input_dir_that_is_a_file_is_data_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        for in_dir, says in ((afile, "is not a directory"),
                             (tmp_path / "absent", "does not exist")):
            code = run("score", "--in-dir", in_dir, "--out-dir", tmp_path / "o",
                       "--scorer", "bininc")
            assert code == 2
            assert capsys.readouterr().err == \
                f"kph: invalid input: input directory {in_dir} {says}\n"
        assert not (tmp_path / "o").exists()

    def test_corrupt_input_is_data_error(self, dataset, tmp_path, capsys):
        (dataset / "h1" / kio.MATCH_MATRIX_FILE).write_text("broken\n")
        code = run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scorer", "bininc")
        assert code == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", ["out_dir", "output", "manifest"])
    def test_unwritable_output_exits_2(self, dataset, tmp_path, capsys, blocked):
        # A file where the output directory should be, or a directory where
        # an output's or the manifest's temporary file should be.
        out = tmp_path / "o"
        target = {"out_dir": out / "h1" / "scores_bininc.jsonl",
                  "output": out / "h1" / "scores_bininc.jsonl",
                  "manifest": out / "manifest_score.json"}[blocked]
        if blocked == "out_dir":
            out.write_text("not a directory\n")
        else:
            (target.parent / f".{target.name}.tmp").mkdir(parents=True)
        code = run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"kph: cannot write {target}: ")
        assert "Traceback" not in err and "internal" not in err

    def test_repeated_meta_entry_is_data_error(self, dataset, tmp_path, capsys):
        p = dataset / "h1" / kio.MATCH_MATRIX_FILE
        meta, rest = p.read_text().split("\n", 1)
        p.write_text(f"{meta} summary_id=h2\n{rest}")
        code = run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scorer", "bininc")
        assert code == 2
        assert ("h1/match_matrix.csv, record 1, field 'summary_id': meta entry given twice"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("meta,message", [
        ("summary_id=h1 domain=hotels",
         "record 1: expected a '# summary_id=... domain=...' meta line"),
        ("# summary_id=h1 hotels", "record 1: malformed meta token 'hotels'"),
        ("# summary_id=h1", "record 1, field 'domain': missing meta entry"),
    ], ids=["no hash", "token without =", "no domain"])
    def test_broken_meta_line_is_data_error(self, dataset, tmp_path, capsys, meta, message):
        p = dataset / "h1" / kio.MATCH_MATRIX_FILE
        _, rest = p.read_text().split("\n", 1)
        p.write_text(f"{meta}\n{rest}")
        assert run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scorer", "bininc") == 2
        assert f"h1/match_matrix.csv, {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_theta_match_out_of_range_is_usage_error(self, dataset, tmp_path, capsys):
        assert run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scorer", "bininc", "--theta-match", "1.5") == 1
        assert "--theta-match must lie in [0, 1], got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda row: "x" * (csv.field_size_limit() + 1) + row[row.index(","):],
         "record 3: malformed CSV: field larger than field limit"),
        (lambda row: '"' + row, "record 3: quoted field runs past the end of its line"),
    ], ids=["id past the field limit", "open quote"])
    def test_unreadable_csv_is_data_error(self, dataset, tmp_path, capsys, edit, message):
        p = dataset / "h1" / kio.MATCH_MATRIX_FILE
        meta, header, row, rest = p.read_text().split("\n", 3)
        p.write_text("\n".join([meta, header, edit(row), rest]))
        assert run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scorer", "bininc") == 2
        assert f"h1/match_matrix.csv, {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["cycle", "duplicate-membership"])
    @pytest.mark.parametrize("bad_file", ["pred.jsonl", kio.GOLD_FILE])
    def test_invalid_hierarchy_file_is_data_error(self, dataset, tmp_path, capsys,
                                                  kind, bad_file):
        ids = [f"k{i:02d}" for i in range(4)]
        if kind == "cycle":
            clusters, edges = [[k] for k in ids], [[0, 1], [1, 0]]
        else:  # k01 sits in both clusters
            clusters, edges = [ids[:2], ids[1:]], []
        bad = {"kind": "hierarchy", "summary_id": "h1", "domain": "hotels",
               "clusters": clusters, "edges": edges}
        for d in dataset.iterdir():
            (d / "pred.jsonl").write_bytes((d / kio.GOLD_FILE).read_bytes())
        (dataset / "h1" / bad_file).write_text(json.dumps(bad) + "\n")
        assert run("eval", "--in-dir", dataset, "--out-dir", tmp_path / "e",
                   "--pred", "pred.jsonl") == 2
        err = capsys.readouterr().err
        assert f"h1/{bad_file}, record 1: invalid hierarchy: {kind}: " in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("name", ["scores_[v2].jsonl", "scores_*.jsonl"])
    def test_score_file_name_is_not_a_pattern(self, dataset, tmp_path, name):
        scored = scored_copy(dataset, tmp_path)
        for sid in ["h1", "h2", "r1", "r2"]:
            (scored / sid / "scores_bininc.jsonl").rename(scored / sid / name)
        built = tmp_path / "built"
        assert run("build", "--in-dir", scored, "--out-dir", built, "--scores", name,
                   "--algorithm", "greedy", "--tau", "0.5") == 0
        assert sorted(p.name for p in built.iterdir() if p.is_dir()) == ["h1", "h2", "r1", "r2"]

    def test_pattern_matching_other_files_finds_no_summaries(self, dataset, tmp_path, capsys):
        scored = scored_copy(dataset, tmp_path)
        assert run("build", "--in-dir", scored, "--out-dir", tmp_path / "b",
                   "--scores", "*.jsonl", "--algorithm", "greedy", "--tau", "0.5") == 2
        assert "no summaries found: no */*.jsonl under" in capsys.readouterr().err

    def test_version_exits_zero(self, capsys):
        assert run("--version") == 0
        assert "kph" in capsys.readouterr().out


class TestScore:
    def test_writes_scores_and_manifest(self, dataset, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("score", "--in-dir", dataset, "--out-dir", out,
                   "--scorer", "bininc") == 0
        for sid in ["h1", "h2", "r1", "r2"]:
            s = kio.load_external_scores(out / sid / "scores_bininc.jsonl")
            assert s.score("k01", "k00") == 1.0
            assert s.score("k00", "k01") == 0.5
        manifest = json.loads((out / "manifest_score.json").read_text())
        assert manifest["subcommand"] == "score"
        assert manifest["config"]["scorer"] == "bininc"

    def test_deterministic_across_runs(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("score", "--in-dir", dataset, "--out-dir", out,
                       "--scorer", "apinc") == 0
        assert tree_bytes(a) == tree_bytes(b)


class TestCombine:
    def test_average_of_self_is_self(self, dataset, tmp_path):
        out = tmp_path / "o"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        cmb = tmp_path / "c"
        assert run("combine", "--in-dir", out, "--out-dir", cmb,
                   "--a", "scores_bininc.jsonl", "--b", "scores_bininc.jsonl",
                   "--name", "mean") == 0
        orig = kio.load_external_scores(out / "h1" / "scores_bininc.jsonl")
        got = kio.load_external_scores(cmb / "h1" / "scores_mean.jsonl")
        assert got.scores == orig.scores

    def test_inputs_listing_key_points_in_other_orders_pair_by_id(self, dataset, tmp_path):
        out = tmp_path / "o"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "weedsprec")
        for d in out.iterdir():
            if d.is_dir():
                s = kio.load_external_scores(d / "scores_weedsprec.jsonl")
                kio.write_scores(d / "scores_rev.jsonl", s.restrict(s.kp_ids[::-1]))
        cmb, cr = tmp_path / "c", tmp_path / "corr"
        assert run("combine", "--in-dir", out, "--out-dir", cmb,
                   "--a", "scores_weedsprec.jsonl", "--b", "scores_rev.jsonl",
                   "--name", "mean") == 0
        orig = kio.load_external_scores(out / "h1" / "scores_weedsprec.jsonl")
        got = kio.load_external_scores(cmb / "h1" / "scores_mean.jsonl")
        assert got.scores == orig.scores
        assert run("correlate", "--in-dir", out, "--out-dir", cr,
                   "--a", "scores_weedsprec.jsonl", "--b", "scores_rev.jsonl") == 0
        lines = (cr / "correlations.csv").read_text().splitlines()
        assert lines[1:] == [f"{sid},1.000000" for sid in ("h1", "h2", "r1", "r2", "MEAN")]

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("name", ["../../../../outside", "sub/x", "/abs", ".", ".."])
    def test_name_holding_a_path_is_usage_error(self, dataset, tmp_path, monkeypatch, capsys,
                                                name, how):
        out = tmp_path / "o"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        cwd = tmp_path / "cwd"  # o/h1/scores_../../../../outside.jsonl is cwd/outside.jsonl
        cwd.mkdir()
        monkeypatch.chdir(cwd)

        def refuse(path):
            raise AssertionError(f"{path} read before the options were checked")
        monkeypatch.setattr(kio, "load_external_scores", refuse)
        flags = ["--in-dir", out, "--out-dir", "o",
                 "--a", "scores_bininc.jsonl", "--b", "scores_bininc.jsonl"]
        if how == "flag":
            flags += ["--name", name]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"name": name}))
            flags += ["--config", tmp_path / "cfg.json"]
        assert run("combine", *flags) == 1
        assert f"--name must be a file name, not a path: {name!r}" in capsys.readouterr().err
        assert not any(cwd.iterdir())


class TestBuildAndEval:
    def _score_and_build(self, dataset, tmp_path, algorithm="reduced_forest"):
        out = tmp_path / "scored"
        assert run("score", "--in-dir", dataset, "--out-dir", out,
                   "--scorer", "bininc") == 0
        # build reads scores and gold side by side
        for sid in ["h1", "h2", "r1", "r2"]:
            src = dataset / sid / kio.GOLD_FILE
            (out / sid / kio.GOLD_FILE).write_bytes(src.read_bytes())
            kp = dataset / sid / kio.KEY_POINTS_FILE
            (out / sid / kio.KEY_POINTS_FILE).write_bytes(kp.read_bytes())
        built = tmp_path / "built"
        assert run("build", "--in-dir", out, "--out-dir", built,
                   "--scores", "scores_bininc.jsonl",
                   "--algorithm", algorithm, "--tau", "0.5") == 0
        return out, built

    def test_build_recovers_planted_tree(self, dataset, tmp_path):
        _, built = self._score_and_build(dataset, tmp_path)
        hs = [kio.load_hierarchy(built / sid / "hierarchy_reduced_forest.jsonl")
              for sid in ["h1", "h2", "r1", "r2"]]
        assert sorted(h.summary_id for h in hs) == ["h1", "h2", "r1", "r2"]
        for h in hs:
            assert h.parent == {1: 0, 2: 0}
            assert len(h.clusters) == 4

    def test_build_preserves_domain_from_gold(self, dataset, tmp_path):
        _, built = self._score_and_build(dataset, tmp_path)
        hs = {sid: kio.load_hierarchy(built / sid / "hierarchy_reduced_forest.jsonl")
              for sid in ["h1", "r1"]}
        assert hs["h1"].domain == "hotels"
        assert hs["r1"].domain == "restaurants"

    def test_eval_of_gold_against_itself_is_perfect(self, dataset, tmp_path, capsys):
        out, built = self._score_and_build(dataset, tmp_path)
        ev = tmp_path / "eval"
        # stage predicted hierarchies next to the gold files
        for sid in ["h1", "h2", "r1", "r2"]:
            d = ev / sid
            d.mkdir(parents=True)
            (d / kio.GOLD_FILE).write_bytes((dataset / sid / kio.GOLD_FILE).read_bytes())
        for sid in ["h1", "h2", "r1", "r2"]:
            h = kio.load_hierarchy(built / sid / "hierarchy_reduced_forest.jsonl")
            kio.write_hierarchy(ev / sid / "pred.jsonl", h)
        rep_dir = tmp_path / "report"
        assert run("eval", "--in-dir", ev, "--out-dir", rep_dir,
                   "--pred", "pred.jsonl") == 0
        doc = json.loads((rep_dir / "report_eval.json").read_text())
        assert doc["macro"]["f1"] == 1.0
        assert doc["per_domain"]["hotels"]["f1"] == 1.0
        csv_lines = (rep_dir / "metrics.csv").read_text().splitlines()
        assert csv_lines[-1] == "MACRO,1.000000,1.000000,1.000000"

    def test_all_algorithms_build(self, dataset, tmp_path):
        out = tmp_path / "scored"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        for sid in ["h1", "h2", "r1", "r2"]:
            (out / sid / kio.GOLD_FILE).write_bytes(
                (dataset / sid / kio.GOLD_FILE).read_bytes())
        for algo in ["reduced_forest", "tncf", "greedy", "greedy_gs"]:
            built = tmp_path / f"built_{algo}"
            assert run("build", "--in-dir", out, "--out-dir", built,
                       "--scores", "scores_bininc.jsonl",
                       "--algorithm", algo, "--tau", "0.5") == 0
            assert (built / "h1" / f"hierarchy_{algo}.jsonl").exists()


class TestTune:
    def test_loo_tuning_end_to_end(self, dataset, tmp_path):
        out = tmp_path / "scored"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        for sid in ["h1", "h2", "r1", "r2"]:
            (out / sid / kio.GOLD_FILE).write_bytes(
                (dataset / sid / kio.GOLD_FILE).read_bytes())
        tuned = tmp_path / "tuned"
        assert run("tune", "--in-dir", out, "--out-dir", tuned,
                   "--scores", "scores_bininc.jsonl",
                   "--algorithm", "reduced_forest") == 0
        manifest = json.loads((tuned / "manifest_tune.json").read_text())
        chosen = manifest["config"]["chosen_tau"]
        assert set(chosen) == {"h1", "h2", "r1", "r2"}
        report = json.loads((tuned / "report_loo.json").read_text())
        assert report["macro"]["f1"] == 1.0
        assert (tuned / "h1" / "hierarchy_reduced_forest.jsonl").exists()

    def test_builds_each_summary_once_per_tau(self, dataset, tmp_path, monkeypatch):
        out = tmp_path / "scored"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        for sid in ["h1", "h2", "r1", "r2"]:
            (out / sid / kio.GOLD_FILE).write_bytes(
                (dataset / sid / kio.GOLD_FILE).read_bytes())
        calls = []
        real = kph.cli.build_hierarchy

        def counting(s, config, stats=None):
            calls.append((s.summary_id, config.tau))
            return real(s, config, stats=stats)

        monkeypatch.setattr(kph.cli, "build_hierarchy", counting)
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "tuned",
                   "--scores", "scores_bininc.jsonl", "--algorithm", "reduced_forest",
                   "--grid", "0.2,0.5") == 0
        assert sorted(calls) == [(sid, tau) for sid in ("h1", "h2", "r1", "r2")
                                 for tau in (0.2, 0.5)]

    def _count_builds(self, dataset, tmp_path, monkeypatch, algorithm, *grid):
        """(summary, tau, threshold graph) of every build that one tune run makes."""
        out = scored_copy(dataset, tmp_path)
        calls = []
        real = kph.cli.build_hierarchy

        def counting(s, config, stats=None):
            calls.append((s.summary_id, config.tau, threshold_graph(s, config.tau)))
            return real(s, config, stats=stats)

        monkeypatch.setattr(kph.cli, "build_hierarchy", counting)
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / f"tuned_{algorithm}",
                   "--scores", "scores_bininc.jsonl", "--algorithm", algorithm, *grid) == 0
        return out, calls

    def test_reduced_forest_built_once_per_threshold_graph(self, dataset, tmp_path,
                                                           monkeypatch):
        out, calls = self._count_builds(dataset, tmp_path, monkeypatch, "reduced_forest")
        graphs = set()
        for sid in ("h1", "h2", "r1", "r2"):
            s = kio.load_external_scores(out / sid / "scores_bininc.jsonl")
            graphs |= {(sid, threshold_graph(s, tau)) for tau in DEFAULT_TAU_GRID}
        assert len(calls) == len(graphs) < 4 * len(DEFAULT_TAU_GRID)
        assert {(sid, graph) for sid, _, graph in calls} == graphs

    def test_tncf_built_once_per_tau(self, dataset, tmp_path, monkeypatch):
        _, calls = self._count_builds(dataset, tmp_path, monkeypatch, "tncf",
                                      "--grid", "0:1:0.05")
        taus = [round(0.05 * k, 10) for k in range(21)]
        assert sorted((sid, tau) for sid, tau, _ in calls) == [
            (sid, tau) for sid in ("h1", "h2", "r1", "r2") for tau in taus]

    def test_singleton_domain_is_data_error(self, tmp_path, capsys):
        root = tmp_path / "data"
        make_summary(root, "only", "hotels")
        out = tmp_path / "scored"
        run("score", "--in-dir", root, "--out-dir", out, "--scorer", "bininc")
        (out / "only" / kio.GOLD_FILE).write_bytes(
            (root / "only" / kio.GOLD_FILE).read_bytes())
        code = run("tune", "--in-dir", out, "--out-dir", tmp_path / "t",
                   "--scores", "scores_bininc.jsonl",
                   "--algorithm", "reduced_forest")
        assert code == 2
        assert "single summary" in capsys.readouterr().err


class TestGrid:
    TUNE = ("--scores", "scores_bininc.jsonl", "--algorithm", "reduced_forest")

    def test_default_grid_is_the_evaluation_grid(self):
        parser = kph.cli._build_parser()
        grid = kph.cli._parse_grid(parser.commands["tune"].get_default("grid"), parser)
        assert [v.hex() for v in grid] == [v.hex() for v in DEFAULT_TAU_GRID]

    def test_step_grid_lists_every_tau(self, dataset, tmp_path):
        out = scored_copy(dataset, tmp_path)
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "t", *self.TUNE,
                   "--grid", "0:1:0.05") == 0
        manifest = json.loads((tmp_path / "t" / "manifest_tune.json").read_text())
        assert manifest["config"]["grid"] == [round(0.05 * k, 10) for k in range(21)]

    # All but the zero step once grew the list of taus without end.
    @pytest.mark.parametrize("grid", ["0:1:nan", "0:nan:0.1", "0:inf:0.1", "nan:1:0.1",
                                      "0:1:-inf", "0:1:1e-12", "0:1:0", "0:1e300:0.001",
                                      "-1e300:1:0.001"])
    def test_unbounded_step_grid_is_usage_error(self, dataset, tmp_path, capsys, grid):
        out = scored_copy(dataset, tmp_path)
        capsys.readouterr()
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "t", *self.TUNE,
                   f"--grid={grid}") == 1
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("grid", ["0.9:0.1:0.1", ","])
    def test_empty_grid_is_usage_error(self, dataset, tmp_path, capsys, grid):
        out = scored_copy(dataset, tmp_path)
        capsys.readouterr()
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "t", *self.TUNE,
                   f"--grid={grid}") == 1
        err = capsys.readouterr().err
        assert f"--grid holds no tau, got {grid!r}" in err
        assert "[0, 1]" not in err

    # 0:1:0.0000015 passes the step check, yet its second tau is off the grid.
    @pytest.mark.parametrize("grid", ["0:1:0.0000015", "0.0000005:1:0.5", "0.5,0.4999996"])
    def test_grid_finer_than_recorded_is_usage_error(self, dataset, tmp_path, capsys, grid):
        out = scored_copy(dataset, tmp_path)
        capsys.readouterr()
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "t", *self.TUNE,
                   f"--grid={grid}") == 1
        err = capsys.readouterr().err
        assert "--grid values must have at most 6 decimals, the 1e-06 resolution" in err
        assert not (tmp_path / "t").exists()

    def test_grid_on_the_recorded_resolution_runs(self, dataset, tmp_path):
        out = scored_copy(dataset, tmp_path)
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "t", *self.TUNE,
                   "--grid", "0.15,0.07,0.000001") == 0
        manifest = json.loads((tmp_path / "t" / "manifest_tune.json").read_text())
        assert manifest["config"]["grid"] == [0.15, 0.07, 0.000001]

    def test_unbounded_step_grid_from_config_is_usage_error(self, dataset, tmp_path, capsys):
        out = scored_copy(dataset, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "0:1:nan"}))
        capsys.readouterr()
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "t", *self.TUNE,
                   "--config", cfg) == 1
        assert "bad --grid '0:1:nan'" in capsys.readouterr().err


class TestPrCurveCommand:
    def test_prcurve_outputs(self, dataset, tmp_path):
        out = tmp_path / "scored"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        for sid in ["h1", "h2", "r1", "r2"]:
            (out / sid / kio.GOLD_FILE).write_bytes(
                (dataset / sid / kio.GOLD_FILE).read_bytes())
        pr = tmp_path / "pr"
        assert run("prcurve", "--in-dir", out, "--out-dir", pr,
                   "--scores", "scores_bininc.jsonl") == 0
        doc = json.loads((pr / "report_prcurve.json").read_text())
        assert set(doc["per_domain_auc"]) == {"hotels", "restaurants"}
        lines = (pr / "pr_curves.csv").read_text().splitlines()
        assert lines[0] == "domain,threshold,recall,precision"
        assert len(lines) > 2

    def test_bad_min_recall(self, dataset, tmp_path):
        assert run("prcurve", "--in-dir", dataset, "--out-dir", tmp_path / "pr",
                   "--scores", "scores_bininc.jsonl", "--min-recall", "1.0") == 1


class TestWeakLabel:
    def test_same_seed_is_byte_identical(self, dataset, tmp_path):
        out = scored_copy(dataset, tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for dst in (a, b):
            assert run("weaklabel", "--in-dir", out, "--out-dir", dst,
                       "--scores", "scores_bininc.jsonl",
                       "--threshold", "0.6", "--ratio", "2", "--seed", "7") == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_labels_respect_threshold(self, dataset, tmp_path):
        out = scored_copy(dataset, tmp_path)
        wl = tmp_path / "wl"
        assert run("weaklabel", "--in-dir", out, "--out-dir", wl,
                   "--scores", "scores_bininc.jsonl",
                   "--threshold", "0.6", "--ratio", "2", "--seed", "0") == 0
        got = kio.load_weak_labels(wl / "h1" / "weak_labels.jsonl")
        # k01 -> k00 and k02 -> k00 are the only pairs above 0.6
        assert got.num_positive == 2
        assert got.num_negative == 4

    def test_threshold_validation(self, dataset, tmp_path):
        out = scored_copy(dataset, tmp_path)
        assert run("weaklabel", "--in-dir", out, "--out-dir", tmp_path / "w",
                   "--scores", "scores_bininc.jsonl",
                   "--threshold", "1.0", "--ratio", "2") == 1

    @pytest.mark.parametrize("ratio", ["inf", "-inf", "nan"])
    def test_non_finite_ratio_is_usage_error(self, dataset, tmp_path, capsys, ratio):
        out = scored_copy(dataset, tmp_path)
        assert run("weaklabel", "--in-dir", out, "--out-dir", tmp_path / "w",
                   "--scores", "scores_bininc.jsonl", f"--ratio={ratio}") == 1
        assert "--ratio must be a finite number >= 1" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    def test_huge_ratio_keeps_every_negative(self, dataset, tmp_path):
        out = scored_copy(dataset, tmp_path)
        wl = tmp_path / "wl"
        assert run("weaklabel", "--in-dir", out, "--out-dir", wl,
                   "--scores", "scores_bininc.jsonl",
                   "--threshold", "0.6", "--ratio", "1e308") == 0
        got = kio.load_weak_labels(wl / "h1" / "weak_labels.jsonl")
        assert (got.num_positive, got.num_negative) == (2, 10)


class TestCorrelate:
    def test_correlations_csv(self, dataset, tmp_path):
        out = tmp_path / "scored"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "weedsprec")
        cr = tmp_path / "corr"
        assert run("correlate", "--in-dir", out, "--out-dir", cr,
                   "--a", "scores_bininc.jsonl", "--b", "scores_weedsprec.jsonl") == 0
        lines = (cr / "correlations.csv").read_text().splitlines()
        assert lines[0] == "summary_id,spearman"
        assert lines[-1].startswith("MEAN,")
        assert len(lines) == 6  # four summaries plus header and mean


class TestInputChecks:
    """Missing files, files for different summaries, one summary in two directories."""

    @pytest.mark.parametrize("command,flags,missing", [
        ("tune", ("--scores", "scores_bininc.jsonl", "--algorithm", "tncf"), kio.GOLD_FILE),
        ("eval", ("--pred", "pred.jsonl"), kio.GOLD_FILE),
        ("prcurve", ("--scores", "scores_bininc.jsonl"), kio.GOLD_FILE),
        ("weaklabel", ("--scores", "scores_bininc.jsonl"), kio.KEY_POINTS_FILE),
    ])
    def test_missing_file_is_named(self, dataset, tmp_path, capsys, command, flags, missing):
        data = scored_copy(dataset, tmp_path)
        for sid in ["h1", "h2", "r1", "r2"]:
            shutil.copy(data / sid / kio.GOLD_FILE, data / sid / "pred.jsonl")
        (data / "r1" / missing).unlink()
        capsys.readouterr()
        assert run(command, "--in-dir", data, "--out-dir", tmp_path / "o", *flags) == 2
        err = capsys.readouterr().err
        assert f"{data / 'r1' / missing}: cannot read file" in err
        assert not (tmp_path / "o").exists()

    def test_files_for_different_summaries(self, dataset, tmp_path, capsys):
        data = scored_copy(dataset, tmp_path)
        shutil.copy(data / "h2" / "scores_bininc.jsonl", data / "h1" / "scores_other.jsonl")
        pair = ("--a", "scores_other.jsonl", "--b", "scores_bininc.jsonl")
        for command, flags, second in [("correlate", pair, "scores_bininc.jsonl"),
                                       ("combine", pair, "scores_bininc.jsonl"),
                                       ("weaklabel", ("--scores", "scores_other.jsonl"),
                                        kio.KEY_POINTS_FILE)]:
            capsys.readouterr()
            assert run(command, "--in-dir", data, "--out-dir", tmp_path / "o", *flags) == 2
            assert (f"{data / 'h1'}: files are for different summaries: scores_other.jsonl "
                    f"is for 'h2', {second} is for 'h1'") in capsys.readouterr().err, command
            assert not (tmp_path / "o").exists()

    def test_eval_pred_and_gold_for_different_summaries(self, dataset, tmp_path, capsys):
        for sid in ("h1", "h2"):
            shutil.copy(dataset / sid / kio.GOLD_FILE, dataset / sid / "pred.jsonl")
        h1_gold = (dataset / "h1" / kio.GOLD_FILE).read_bytes()
        shutil.copy(dataset / "h2" / kio.GOLD_FILE, dataset / "h1" / kio.GOLD_FILE)
        (dataset / "h2" / kio.GOLD_FILE).write_bytes(h1_gold)
        capsys.readouterr()
        assert run("eval", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--pred", "pred.jsonl") == 2
        assert (f"{dataset / 'h1'}: files are for different summaries: pred.jsonl "
                f"is for 'h1', gold.jsonl is for 'h2'") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flags", [
        ("build", ("--scores", "scores_bininc.jsonl", "--algorithm", "tncf", "--tau", "0.5")),
        ("tune", ("--scores", "scores_bininc.jsonl", "--algorithm", "tncf")),
        ("correlate", ("--a", "scores_bininc.jsonl", "--b", "scores_bininc.jsonl")),
        ("prcurve", ("--scores", "scores_bininc.jsonl")),
        ("validate", ()),
        ("score", ("--scorer", "bininc")),
        ("combine", ("--a", "scores_bininc.jsonl", "--b", "scores_bininc.jsonl")),
        ("weaklabel", ("--scores", "scores_bininc.jsonl")),
        ("eval", ("--pred", "pred.jsonl")),
    ])
    def test_one_summary_in_two_directories(self, dataset, tmp_path, capsys, command, flags):
        data = scored_copy(dataset, tmp_path)
        for sid in ["h1", "h2", "r1", "r2"]:
            shutil.copy(dataset / sid / kio.MATCH_MATRIX_FILE, data / sid)
            shutil.copy(data / sid / kio.GOLD_FILE, data / sid / "pred.jsonl")
        shutil.copytree(data / "h1", data / "h1_copy")
        # gold in another domain, so no per-domain check alone sees h1 twice
        gold = kio.load_hierarchy(data / "h1_copy" / kio.GOLD_FILE)
        kio.write_hierarchy(data / "h1_copy" / kio.GOLD_FILE,
                            Hierarchy(summary_id="h1", domain="restaurants",
                                      clusters=gold.clusters, parent=dict(gold.parent)))
        capsys.readouterr()
        assert run(command, "--in-dir", data, "--out-dir", tmp_path / "o", *flags) == 2
        assert "summary 'h1' appears in two directories" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestValidate:
    def test_prints_stats(self, dataset, tmp_path, capsys):
        assert run("validate", "--in-dir", dataset,
                   "--out-dir", tmp_path / "v") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_summaries"] == 4
        assert doc["num_kphs"] == 4
        assert doc["num_key_points"] == 16
        assert doc["num_relations"] == 8

    def test_detects_gold_kp_mismatch(self, dataset, tmp_path, capsys):
        bad = Hierarchy(summary_id="h1", domain="hotels",
                        clusters=(frozenset({"k00"}), frozenset({"unknown"})),
                        parent={})
        kio.write_hierarchy(dataset / "h1" / kio.GOLD_FILE, bad)
        assert run("validate", "--in-dir", dataset,
                   "--out-dir", tmp_path / "v") == 2

    def test_score_file_naming_an_unknown_key_point_is_data_error(self, dataset, tmp_path,
                                                                  capsys):
        ids = ("k00", "k01", "k02", "kx")
        kio.write_scores(dataset / "h1" / "scores_x.jsonl", ScoreMatrix.from_pairs(
            "h1", ids, {(a, b): 0.5 for a in ids for b in ids if a != b}))
        capsys.readouterr()
        assert run("validate", "--in-dir", dataset, "--out-dir", tmp_path / "v") == 2
        assert f"{dataset / 'h1' / 'scores_x.jsonl'}: unknown key points ['kx']" \
            in capsys.readouterr().err
        assert not (tmp_path / "v").exists()


class TestConfigFile:
    def test_keys_of_other_commands_are_skipped(self, dataset, tmp_path):
        # One file drives score and build; each manifest lists its command's options only.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scorer": "bininc", "scores": "scores_bininc.jsonl",
                                   "algorithm": "reduced_forest", "tau": 0.5}))
        commands = kph.cli._build_parser().commands
        for command, out in (("score", dataset), ("build", tmp_path / "b")):
            assert run(command, "--in-dir", dataset, "--out-dir", out, "--config", cfg) == 0
            config = json.loads((out / f"manifest_{command}.json").read_text())["config"]
            assert set(config) == set(kph.cli._options(commands[command])) - {
                "config", "in_dir", "out_dir"}, command
        assert (tmp_path / "b" / "h1" / "hierarchy_reduced_forest.jsonl").exists()

    def test_json_list_is_usage_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"scorer": "bininc"}]))
        assert run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--config", cfg) == 1
        assert f"config file {cfg} must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_supplies_defaults(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scorer": "bininc"}))
        out = tmp_path / "o"
        assert run("score", "--in-dir", dataset, "--out-dir", out,
                   "--config", cfg) == 0
        assert (out / "h1" / "scores_bininc.jsonl").exists()

    def test_flags_override_config(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scorer": "bininc"}))
        out = tmp_path / "o"
        assert run("score", "--in-dir", dataset, "--out-dir", out,
                   "--config", cfg, "--scorer", "apinc") == 0
        assert (out / "h1" / "scores_apinc.jsonl").exists()
        assert not (out / "h1" / "scores_bininc.jsonl").exists()

    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scorrer": "bininc"}))
        assert run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--config", cfg) == 1

    def test_number_json_cannot_read_is_usage_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 1' + "0" * 4999 + "}")  # past the int max-str-digits limit
        capsys.readouterr()
        assert run("build", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scores", "scores_bininc.jsonl", "--config", cfg) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_number_too_large_for_a_float_is_usage_error(self, dataset, tmp_path, capsys):
        out = scored_copy(dataset, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ratio": 1' + "0" * 399 + "}")
        capsys.readouterr()
        assert run("weaklabel", "--in-dir", out, "--out-dir", tmp_path / "w",
                   "--scores", "scores_bininc.jsonl", "--config", cfg) == 1
        assert "config key 'ratio': invalid value" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    BUILD = ("--scores", "scores_bininc.jsonl", "--algorithm", "tncf")

    @pytest.mark.parametrize("command,cfg,flags", [
        ("score", {"scorer": "nope"}, ()),
        ("build", {"algorithm": "nope", "tau": 0.5}, ("--scores", "scores_bininc.jsonl")),
        ("build", {"tau": "0.5"}, BUILD),
        ("build", {"tau": True}, BUILD),
        ("build", {"tau": None}, BUILD),
        ("tune", {"grid": 5}, BUILD),
        ("score", {"in_dir": 3}, ("--scorer", "bininc")),
        ("score", {"theta_match": "x"}, ("--scorer", "bininc")),
        ("weaklabel", {"seed": "7"}, ("--scores", "scores_bininc.jsonl")),
        ("build", {"algorithm": ["tncf"]}, ("--scores", "scores_bininc.jsonl", "--tau", "0.5")),
        ("weaklabel", {"seed": 2.5}, ("--scores", "scores_bininc.jsonl")),
        ("weaklabel", {"seed": True}, ("--scores", "scores_bininc.jsonl")),
    ])
    def test_ill_typed_value_is_usage_error(self, dataset, tmp_path, capsys,
                                            command, cfg, flags):
        out = scored_copy(dataset, tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        in_dir = () if "in_dir" in cfg else ("--in-dir", dataset if command == "score" else out)
        capsys.readouterr()
        assert run(command, *in_dir, "--out-dir", tmp_path / "o", "--config", path,
                   *flags) == 1
        assert f"config key {next(iter(cfg))!r}: invalid value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_typed_values_apply(self, dataset, tmp_path):
        out = scored_copy(dataset, tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scores": "scores_bininc.jsonl", "seed": 2}))
        assert run("weaklabel", "--in-dir", out, "--out-dir", tmp_path / "w",
                   "--config", path) == 0
        manifest = json.loads((tmp_path / "w" / "manifest_weaklabel.json").read_text())
        assert manifest["config"]["seed"] == 2

    @pytest.mark.parametrize("command,flags,cfg,flag", [
        ("weaklabel", ("--scores", "scores_bininc.jsonl"), {"ratio": 5}, ("--ratio", "5")),
        ("build", ("--scores", "scores_bininc.jsonl", "--algorithm", "tncf"), {"tau": 1},
         ("--tau", "1")),
    ], ids=["weaklabel-ratio", "build-tau"])
    def test_integer_writes_the_flag_bytes(self, dataset, tmp_path, command, flags, cfg, flag):
        out = scored_copy(dataset, tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(command, "--in-dir", out, "--out-dir", tmp_path / "flag", *flags, *flag) == 0
        assert run(command, "--in-dir", out, "--out-dir", tmp_path / "cfg", *flags,
                   "--config", path) == 0
        assert tree_bytes(tmp_path / "cfg") == tree_bytes(tmp_path / "flag")


def _string_options():
    """(command, option, how it is given) for every string option of every command."""
    for command, sub in kph.cli._build_parser().commands.items():
        for a in kph.cli._options(sub).values():
            if a.type is None:
                for how in ("flag",) if a.dest == "config" else ("flag", "config"):
                    yield pytest.param(command, a, how, id=f"{command}-{a.dest}-{how}")


@pytest.mark.parametrize("command,option,how", list(_string_options()))
def test_empty_string_is_usage_error(tmp_path, monkeypatch, capsys, command, option, how):
    cwd = tmp_path / "cwd"  # an empty --out-dir would write here
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    flags = {"--in-dir": tmp_path, "--out-dir": tmp_path / "o"}
    for a in kph.cli._options(kph.cli._build_parser().commands[command]).values():
        if a.default is None and a.dest != "config":
            flags.setdefault(a.option_strings[0],
                             a.choices[0] if a.choices else "0.5" if a.type else "x.jsonl")
    name = option.option_strings[0]
    flags[name] = ""
    if how == "config":
        del flags[name]
        (tmp_path / "cfg.json").write_text(json.dumps({option.dest: ""}))
        flags["--config"] = tmp_path / "cfg.json"
    assert run(command, *(f"{k}={v}" for k, v in flags.items())) == 1
    if option.choices is None:
        expected = f"{name} must not be empty"
    elif how == "flag":
        expected = f"argument {name}: invalid choice: ''"
    else:
        expected = f"config key {option.dest!r}: invalid value ''"
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert not any(cwd.iterdir())
    if how == "config" or option.dest == "config":  # a NUL byte, where a file can give one
        if option.dest == "config":
            flags[name] = "cfg\0.json"
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({option.dest: "a\0b"}))
        assert run(command, *(f"{k}={v}" for k, v in flags.items())) == 1
        err = capsys.readouterr().err
        assert "\0" not in err
        assert (f"{name} must not hold a NUL byte" if option.choices is None
                else f"config key {option.dest!r}: invalid value 'a\\x00b'") in err
        assert not (tmp_path / "o").exists()
        assert not any(cwd.iterdir())


# Each command's other options, set so that only the option under test is wrong.
VALID = {
    "combine": {"--a": "scores_bininc.jsonl", "--b": "scores_bininc.jsonl"},
    "build": {"--scores": "scores_bininc.jsonl", "--algorithm": "tncf", "--tau": "0.5"},
    "tune": {"--scores": "scores_bininc.jsonl", "--algorithm": "tncf"},
    "eval": {"--pred": "hierarchy_tncf.jsonl"},
    "prcurve": {"--scores": "scores_bininc.jsonl"},
    "weaklabel": {"--scores": "scores_bininc.jsonl"},
    "correlate": {"--a": "scores_bininc.jsonl", "--b": "scores_bininc.jsonl"},
}


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command,option", [
    ("combine", "--a"), ("combine", "--b"), ("build", "--scores"), ("tune", "--scores"),
    ("tune", "--gold"), ("eval", "--pred"), ("eval", "--gold"), ("prcurve", "--scores"),
    ("prcurve", "--gold"), ("weaklabel", "--scores"), ("correlate", "--a"), ("correlate", "--b"),
])  # combine --name: TestCombine.test_name_holding_a_path_is_usage_error
def test_path_in_a_file_name_option_is_usage_error(dataset, tmp_path, capsys, command, option,
                                                    how):
    # Read inside each summary directory, these would be another summary's
    # file, the directory itself and its parent.
    for value in ("../h2/gold.jsonl", ".", ".."):
        flags = {"--in-dir": dataset, "--out-dir": tmp_path / "o", **VALID[command]}
        flags.pop(option, None)
        if how == "flag":
            flags[option] = value
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({option[2:]: value}))
            flags["--config"] = tmp_path / "cfg.json"
        capsys.readouterr()
        assert run(command, *itertools.chain.from_iterable(flags.items())) == 1
        assert f"{option} must be a file name, not a path: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", list(kph.cli._build_parser().commands))
def test_help_shows_every_default(capsys, command):
    assert run(command, "--help") == 0
    text = capsys.readouterr().out
    for a in kph.cli._options(kph.cli._build_parser().commands[command]).values():
        if a.default is not None:
            assert str(a.default) in text, a.dest


def test_parser_choices_are_the_scorers_and_algorithms():
    import kph.construction
    import kph.scoring

    commands = kph.cli._build_parser().commands
    assert list(commands["score"]._option_string_actions["--scorer"].choices) == sorted(
        kph.scoring.SCORERS)
    for command in ("build", "tune"):
        choices = commands[command]._option_string_actions["--algorithm"].choices
        assert choices is kph.construction.ALGORITHMS


def test_readme_command_lines_use_existing_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```text\n(.*?)```", readme, re.S).group(1)
    commands = kph.cli._build_parser().commands
    lines = [line.split() for line in block.splitlines() if line.startswith("kph ")]
    assert {words[1] for words in lines} == set(commands)
    for words in lines:
        known = set(commands[words[1]]._option_string_actions)
        flags = [w for w in words if w.startswith("--")]
        assert flags and set(flags) <= known, (words[1], sorted(set(flags) - known))


class TestManifests:
    def test_manifest_records_inputs_and_outputs(self, dataset, tmp_path):
        out = tmp_path / "o"
        run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        doc = json.loads((out / "manifest_score.json").read_text())
        assert doc["kind"] == "run_manifest"
        assert doc["tool_version"]
        assert doc["inputs"] and doc["outputs"]
        # digests pin the exact bytes of every input and output
        for rel, digest in {**doc["inputs"], **doc["outputs"]}.items():
            assert "/" in rel or rel.endswith(".json")
            assert len(digest) == 64

    def test_inputs_are_exactly_the_files_parsed(self, dataset, tmp_path, monkeypatch):
        parsed = []
        real = kio._read_lines

        def recording(path):
            parsed.append(Path(path))
            return real(path)

        monkeypatch.setattr(kio, "_read_lines", recording)
        bininc, combined = "scores_bininc.jsonl", "scores_combined.jsonl"
        commands = [  # score, combine and build write next to their inputs
            ("score", dataset, "--scorer", "bininc"),
            ("combine", dataset, "--a", bininc, "--b", bininc),
            ("build", dataset, "--scores", combined, "--algorithm", "tncf", "--tau", "0.5"),
            ("tune", tmp_path / "tune", "--scores", bininc, "--algorithm", "reduced_forest"),
            ("eval", tmp_path / "eval", "--pred", "hierarchy_tncf.jsonl"),
            ("prcurve", tmp_path / "prcurve", "--scores", bininc),
            ("weaklabel", tmp_path / "weaklabel", "--scores", bininc),
            ("correlate", tmp_path / "correlate", "--a", bininc, "--b", combined),
            ("validate", tmp_path / "validate"),
        ]
        for command, out, *flags in commands:
            parsed.clear()
            assert run(command, "--in-dir", dataset, "--out-dir", out, *flags) == 0
            doc = json.loads((out / f"manifest_{command}.json").read_text())
            assert set(doc["inputs"]) == {f"{p.parent.name}/{p.name}" for p in parsed}, command

    @pytest.mark.parametrize("command,flags", [
        ("score", ("--scorer", "weedsprec")),
        ("combine", ("--a", "scores_bininc.jsonl", "--b", "scores_bininc.jsonl")),
        ("build", ("--scores", "scores_bininc.jsonl", "--algorithm", "tncf", "--tau", "0.5")),
        ("tune", ("--scores", "scores_bininc.jsonl", "--algorithm", "reduced_forest")),
        ("eval", ("--pred", "hierarchy_tncf.jsonl")),
        ("prcurve", ("--scores", "scores_bininc.jsonl")),
        ("weaklabel", ("--scores", "scores_bininc.jsonl")),
        ("correlate", ("--a", "scores_bininc.jsonl", "--b", "scores_bininc.jsonl")),
        ("validate", ()),
    ])
    def test_each_input_is_parsed_once(self, dataset, tmp_path, monkeypatch, command, flags):
        assert run("score", "--in-dir", dataset, "--out-dir", dataset, "--scorer", "bininc") == 0
        assert run("build", "--in-dir", dataset, "--out-dir", dataset,
                   "--scores", "scores_bininc.jsonl", "--algorithm", "tncf", "--tau", "0.5") == 0
        parsed = []
        # the CLI reaches each loader through the module attribute it looks up at call time
        for name in ("load_key_points", "load_match_matrix", "load_external_scores",
                     "load_hierarchy"):
            def counting(path, real=getattr(kio, name)):
                parsed.append(f"{path.parent.name}/{path.name}")
                return real(path)
            monkeypatch.setattr(kio, name, counting)
        out = tmp_path / "o"
        assert run(command, "--in-dir", dataset, "--out-dir", out, *flags) == 0
        inputs = json.loads((out / f"manifest_{command}.json").read_text())["inputs"]
        assert sorted(parsed) == sorted(inputs)

    def test_config_is_every_resolved_option(self, dataset, tmp_path):
        commands = kph.cli._build_parser().commands
        bininc = "scores_bininc.jsonl"
        flags = {  # score, combine and build write next to their inputs
            "score": (dataset, "--scorer", "bininc"),
            "combine": (dataset, "--a", bininc, "--b", bininc),
            "build": (dataset, "--scores", bininc, "--algorithm", "tncf", "--tau", "0.5"),
            "tune": (tmp_path / "tune", "--scores", bininc, "--algorithm", "reduced_forest"),
            "eval": (tmp_path / "eval", "--pred", "hierarchy_tncf.jsonl"),
            "prcurve": (tmp_path / "prcurve", "--scores", bininc),
            "weaklabel": (tmp_path / "weaklabel", "--scores", bininc),
            "correlate": (tmp_path / "correlate", "--a", bininc, "--b", bininc),
            "validate": (tmp_path / "validate",),
        }
        assert set(flags) == set(commands)
        for command, (out, *rest) in flags.items():
            assert run(command, "--in-dir", dataset, "--out-dir", out, *rest) == 0
            config = json.loads((out / f"manifest_{command}.json").read_text())["config"]
            options = {a.dest for a in commands[command]._actions if a.option_strings}
            expected = options - {"help", "config", "in_dir", "out_dir"}
            assert set(config) == expected | ({"chosen_tau"} if command == "tune" else set()), \
                command

    def test_manifest_is_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        assert ((a / "manifest_score.json").read_text()
                == (b / "manifest_score.json").read_text())


BININC, WEEDSPREC = "scores_bininc.jsonl", "scores_weedsprec.jsonl"
# Each command's flags for a first run, then for a rerun whose outputs or
# manifest differ from the first's (validate has no option to vary), and the
# output it writes last.
RERUNS = {
    "score": (("--scorer", "bininc"), ("--scorer", "bininc", "--theta-match", "0.9"),
              "r2/scores_bininc.jsonl"),
    "combine": (("--a", BININC, "--b", BININC), ("--a", BININC, "--b", WEEDSPREC),
                "r2/scores_combined.jsonl"),
    "build": (("--scores", BININC, "--algorithm", "greedy", "--tau", "0.5"),
              ("--scores", BININC, "--algorithm", "greedy", "--tau", "0.9"),
              "r2/hierarchy_greedy.jsonl"),
    "tune": (("--scores", BININC, "--algorithm", "reduced_forest", "--grid", "0.5"),
             ("--scores", BININC, "--algorithm", "reduced_forest", "--grid", "0.2"),
             "report_loo.json"),
    "eval": (("--pred", "hierarchy_tncf.jsonl"), ("--pred", "hierarchy_reduced_forest.jsonl"),
             "metrics.csv"),
    "prcurve": (("--scores", BININC), ("--scores", WEEDSPREC, "--min-recall", "0.5"),
                "pr_curves.csv"),
    "weaklabel": (("--scores", BININC), ("--scores", BININC, "--seed", "1"),
                  "r2/weak_labels.jsonl"),
    "correlate": (("--a", BININC, "--b", BININC), ("--a", BININC, "--b", WEEDSPREC),
                  "correlations.csv"),
    "validate": ((), (), "validation_report.json"),
}


@pytest.fixture
def piped(dataset):
    """The dataset with its bininc and weedsprec scores and two builds beside its inputs."""
    for scorer in ("bininc", "weedsprec"):
        assert run("score", "--in-dir", dataset, "--out-dir", dataset, "--scorer", scorer) == 0
    for algorithm, tau in (("tncf", "0.5"), ("reduced_forest", "0.2")):
        assert run("build", "--in-dir", dataset, "--out-dir", dataset, "--scores", BININC,
                   "--algorithm", algorithm, "--tau", tau) == 0
    return dataset


def test_commands_are_the_rerun_table():
    assert list(RERUNS) == list(kph.cli._build_parser().commands)


# Each float option, the command that takes it and the other flags the command needs.
FLOAT_OPTIONS = {
    "--theta-match": ("score", ("--scorer", "bininc")),
    "--tau": ("build", ("--scores", BININC, "--algorithm", "reduced_forest")),
    "--min-recall": ("prcurve", ("--scores", BININC)),
    "--threshold": ("weaklabel", ("--scores", BININC)),
    "--ratio": ("weaklabel", ("--scores", BININC)),
}


class TestFloatResolution:
    """A float option must survive its 6-decimal record, or two values would share one."""

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("option", FLOAT_OPTIONS)
    def test_value_finer_than_recorded_is_usage_error(self, piped, tmp_path, capsys, option,
                                                       how):
        command, flags = FLOAT_OPTIONS[option]
        value = 5.0000001 if option == "--ratio" else 0.4999996
        if how == "flag":
            given = (option, str(value))
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({option[2:].replace("-", "_"): value}))
            given = ("--config", cfg)
        capsys.readouterr()
        assert run(command, "--in-dir", piped, "--out-dir", tmp_path / "o", *flags, *given) == 1
        assert (f"{option} must have at most 6 decimals, the 1e-06 resolution it is recorded "
                f"at, got {value!r}") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0.15", "0.07", "0.000001"])
    @pytest.mark.parametrize("option", FLOAT_OPTIONS)
    def test_value_on_the_recorded_resolution_runs(self, piped, tmp_path, option, value):
        command, flags = FLOAT_OPTIONS[option]
        if option == "--ratio":
            value = f"1{value[1:]}"
        assert run(command, "--in-dir", piped, "--out-dir", tmp_path / "o", *flags,
                   option, value) == 0


class TestRunCommit:
    """main writes a run's outputs, then its manifest, or leaves every file as it was."""

    @pytest.mark.parametrize("command", RERUNS)
    def test_out_dir_holds_the_outputs_and_the_manifest_only(self, piped, tmp_path, command):
        out = tmp_path / "o"
        assert run(command, "--in-dir", piped, "--out-dir", out, *RERUNS[command][0]) == 0
        manifest = f"manifest_{command}.json"
        outputs = json.loads((out / manifest).read_text())["outputs"]
        assert set(tree_bytes(out)) == {*outputs, manifest}
        for rel, digest in outputs.items():
            assert kio.file_digest(out / rel) == digest, rel

    @pytest.mark.parametrize("command", RERUNS)
    def test_failed_rerun_leaves_the_old_run(self, piped, tmp_path, capsys, command):
        # A directory planted where the rerun stages its last output fails
        # that write after the others are staged.
        out = tmp_path / "o"
        first, rerun, last = RERUNS[command]
        assert run(command, "--in-dir", piped, "--out-dir", out, *first) == 0
        old = tree_bytes(out)
        last = out / last
        planted = last.with_name(f".{last.name}.tmp")
        planted.mkdir()
        capsys.readouterr()
        assert run(command, "--in-dir", piped, "--out-dir", out, *rerun) == 2
        assert capsys.readouterr().err.startswith(f"kph: cannot write {last}: ")
        assert tree_bytes(out) == old
        assert list(out.rglob("*.tmp")) == [planted]

    @pytest.mark.parametrize("command", RERUNS)
    def test_out_dir_naming_a_file_exits_2(self, piped, tmp_path, capsys, command):
        out = tmp_path / "afile"
        out.write_bytes(b"not a directory\n")
        assert run(command, "--in-dir", piped, "--out-dir", out, *RERUNS[command][0]) == 2
        assert capsys.readouterr().err.startswith("kph: cannot write ")
        assert out.read_bytes() == b"not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "data"]

    def test_failed_commit_leaves_no_manifest(self, piped, tmp_path):
        out = tmp_path / "o"
        assert run("eval", "--in-dir", piped, "--out-dir", out, "--pred", kio.GOLD_FILE) == 0
        (out / ".manifest_eval.json.tmp").mkdir()
        assert run("eval", "--in-dir", piped, "--out-dir", out,
                   "--pred", "hierarchy_tncf.jsonl") == 2
        assert not (out / "manifest_eval.json").exists()
        assert list(out.rglob("*.tmp")) == [out / ".manifest_eval.json.tmp"]


class TestFailedRunDirectories:
    """A run that fails at write time removes the directories it created, and no others."""

    @staticmethod
    def fail_at(monkeypatch, sid):
        # write_scores raises for summary sid, after the summaries before it are staged.
        write_scores = kio.write_scores

        def failing(path, s):
            if Path(path).parent.name == sid:
                raise OSError(28, "No space left on device")
            write_scores(path, s)

        monkeypatch.setattr(kio, "write_scores", failing)

    def test_directories_the_run_created_are_removed(self, dataset, tmp_path, monkeypatch):
        self.fail_at(monkeypatch, "r2")
        out = tmp_path / "new" / "o"
        assert run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    def test_directories_that_existed_stay(self, dataset, tmp_path, monkeypatch):
        self.fail_at(monkeypatch, "r2")
        out = tmp_path / "o"
        for d in ("h1", "other"):
            (out / d).mkdir(parents=True)
        assert run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc") == 2
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["h1", "other"]


class TestOutputOverInput:
    """A run whose output would replace a file it read exits 1 and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ("combine", "--a", "scores_bininc.jsonl", "--b", "scores_weedsprec.jsonl",
         "--name", "bininc"),
        ("tune", "--scores", "scores_bininc.jsonl", "--algorithm", "greedy",
         "--gold", "hierarchy_greedy.jsonl", "--grid", "0.5"),
    ], ids=["combine", "tune"])
    def test_refused_before_anything_is_written(self, dataset, tmp_path, capsys, argv):
        scored = scored_copy(dataset, tmp_path)
        assert run("score", "--in-dir", dataset, "--out-dir", scored, "--scorer", "weedsprec") == 0
        for d in scored.iterdir():
            if d.is_dir():
                shutil.copy(d / kio.GOLD_FILE, d / "hierarchy_greedy.jsonl")
        before = tree_bytes(scored)
        capsys.readouterr()
        assert run(argv[0], "--in-dir", scored, "--out-dir", scored, *argv[1:]) == 1
        output = scored / "h1" / ("scores_bininc.jsonl" if argv[0] == "combine"
                                  else "hierarchy_greedy.jsonl")
        assert f"output {output} is also an input of this run" in capsys.readouterr().err
        assert tree_bytes(scored) == before


def test_ci_smoke_step_runs_every_command():
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    loop = re.search(r"^\s*for cmd in (.*); do$", workflow.read_text(encoding="utf-8"), re.M)
    assert loop.group(1).split() == list(kph.cli._build_parser().commands)


def test_benchmark_wraps_only_existing_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import absent_targets

    assert absent_targets() == set()


class TestPatchContract:
    """The names the benchmark's tracer replaces on kph.cli are what each command calls.

    The tracer wraps them before main runs; main imports a command's modules
    as it dispatches and must leave a name that is already set in place.
    """

    # name -> (home module, the command that calls it)
    NAMES = {
        "compute_score_matrix": ("scoring", "score"),
        "combine_average": ("scoring", "combine"),
        "export_weak_labels": ("scoring", "weaklabel"),
        "build_hierarchy": ("construction", "build"),
        "loo_threshold_tuning": ("evaluation", "tune"),
        "evaluate_hierarchies": ("evaluation", "eval"),
        "pr_curve": ("evaluation", "prcurve"),
        "spearman_correlation": ("evaluation", "correlate"),
    }

    def test_names_are_the_benchmarks_cli_targets(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from tracing import TARGETS

        assert {attr for module, attr, *_ in TARGETS if module == "kph.cli"} == set(self.NAMES)

    def test_names_resolve_to_their_home_objects_before_any_command(self):
        code = ("import importlib, sys\n"
                "import kph.cli\n"
                "assert 'numpy' not in sys.modules\n"
                f"for name, (home, _) in {self.NAMES!r}.items():\n"
                "    obj = getattr(kph.cli, name)\n"
                "    assert obj is getattr(importlib.import_module('kph.' + home), name), name\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("name", NAMES)
    def test_a_replacement_set_before_main_is_called(self, dataset, tmp_path, monkeypatch, name):
        scored = scored_copy(dataset, tmp_path)
        bininc = "scores_bininc.jsonl"
        assert run("build", "--in-dir", scored, "--out-dir", scored, "--scores", bininc,
                   "--algorithm", "tncf", "--tau", "0.5") == 0
        command = self.NAMES[name][1]
        in_dir, *flags = {
            "score": (dataset, "--scorer", "bininc"),
            "combine": (scored, "--a", bininc, "--b", bininc),
            "weaklabel": (scored, "--scores", bininc),
            "build": (scored, "--scores", bininc, "--algorithm", "tncf", "--tau", "0.5"),
            "tune": (scored, "--scores", bininc, "--algorithm", "reduced_forest",
                     "--grid", "0.2,0.5"),
            "eval": (scored, "--pred", "hierarchy_tncf.jsonl"),
            "prcurve": (scored, "--scores", bininc),
            "correlate": (scored, "--a", bininc, "--b", bininc),
        }[command]
        assert run(command, "--in-dir", in_dir, "--out-dir", tmp_path / "plain", *flags) == 0
        calls = []
        real = getattr(kph.cli, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(kph.cli, name, spy)
        assert run(command, "--in-dir", in_dir, "--out-dir", tmp_path / "spied", *flags) == 0
        assert calls
        assert getattr(kph.cli, name) is spy
        assert tree_bytes(tmp_path / "spied") == tree_bytes(tmp_path / "plain")


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
ENTRIES = {
    "python -m kph": ["-m", "kph"],
    "kph.__main__.main": ["-c", "import sys; from kph.__main__ import main; "
                                "sys.exit(main(sys.argv[1:]))"],
    "python -m kph.cli": ["-m", "kph.cli"],
}


class TestBlasThreadDefault:
    """The command line runs on one OpenBLAS thread unless the user chose a count."""

    @staticmethod
    def _env(tmp_path, **blas):
        """The environment minus every BLAS thread variable, plus ``blas``.

        A sitecustomize module on the path records the variables as numpy
        is first imported, which is when OpenBLAS reads them, and reports
        them at exit.
        """
        hook = tmp_path / "hook"
        hook.mkdir(exist_ok=True)
        (hook / "sitecustomize.py").write_text(
            "import atexit, json, os, sys\n"
            f"names = {BLAS_THREAD_VARIABLES!r}\n"
            "seen = {}\n"
            "class NumpyProbe:\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.update({n: os.environ.get(n) for n in names})\n"
            "sys.meta_path.insert(0, NumpyProbe)\n"
            "atexit.register(lambda: print('BLAS ' + json.dumps(seen), file=sys.stderr))\n")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(hook), str(SRC), env.get("PYTHONPATH")) if p)
        return {**env, **blas}

    @staticmethod
    def _kph(entry, env, *argv):
        done = subprocess.run([sys.executable, *ENTRIES[entry], *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("given, openblas", [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"OMP_NUM_THREADS": "2"}, None),
        ({"GOTO_NUM_THREADS": "2"}, None),
    ], ids=["unset", "openblas", "omp", "goto"])
    def test_default_applies_only_when_no_variable_is_set(self, dataset, tmp_path, entry, given,
                                                          openblas):
        # score loads numpy; --version no longer does
        done = self._kph(entry, self._env(tmp_path, **given), "score", "--in-dir", dataset,
                         "--out-dir", tmp_path / "o", "--scorer", "bininc")
        seen = json.loads(done.stderr.splitlines()[-1].removeprefix("BLAS "))
        assert seen == {**dict.fromkeys(BLAS_THREAD_VARIABLES), **given,
                        "OPENBLAS_NUM_THREADS": openblas}

    def test_outputs_do_not_depend_on_the_thread_count(self, dataset, tmp_path):
        def pipeline(root, threads):
            env = self._env(tmp_path, OPENBLAS_NUM_THREADS=threads)
            for scorer in ("bininc", "apinc"):
                self._kph("python -m kph", env, "score", "--in-dir", dataset,
                          "--out-dir", root / "scored", "--scorer", scorer)
            self._kph("python -m kph", env, "combine", "--in-dir", root / "scored",
                      "--out-dir", root / "combined", "--a", "scores_bininc.jsonl",
                      "--b", "scores_apinc.jsonl", "--name", "mean")
            self._kph("python -m kph", env, "build", "--in-dir", root / "combined",
                      "--out-dir", root / "built", "--scores", "scores_mean.jsonl",
                      "--algorithm", "tncf", "--tau", "0.5")
            for sid in ["h1", "h2", "r1", "r2"]:
                (root / "evalin" / sid).mkdir(parents=True)
                shutil.copy(dataset / sid / kio.GOLD_FILE, root / "evalin" / sid)
                shutil.copy(root / "built" / sid / "hierarchy_tncf.jsonl", root / "evalin" / sid)
            self._kph("python -m kph", env, "eval", "--in-dir", root / "evalin",
                      "--out-dir", root / "evaled", "--pred", "hierarchy_tncf.jsonl")
            return tree_bytes(root)

        one, two = pipeline(tmp_path / "one", "1"), pipeline(tmp_path / "two", "2")
        assert one == two
        assert {"scored/manifest_score.json", "combined/manifest_combine.json",
                "built/manifest_build.json", "evaled/manifest_eval.json"} <= set(one)
