"""Command line driver: exit codes, outputs, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from kph import Hierarchy, KeyPoint, KeyPointSet, MatchMatrix, ScoreMatrix
from kph import io as kio
import kph.cli
from kph.cli import main

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


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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

    def test_corrupt_input_is_data_error(self, dataset, tmp_path, capsys):
        (dataset / "h1" / kio.MATCH_MATRIX_FILE).write_text("broken\n")
        code = run("score", "--in-dir", dataset, "--out-dir", tmp_path / "o",
                   "--scorer", "bininc")
        assert code == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["cycle", "duplicate-membership"])
    @pytest.mark.parametrize("bad_file", ["pred.jsonl", kio.GOLD_FILE])
    def test_invalid_hierarchy_file_is_data_error(self, dataset, tmp_path, capsys,
                                                  kind, bad_file):
        ids = [f"k{i:02d}" for i in range(4)]
        if kind == "cycle":
            bad = Hierarchy(summary_id="h1", domain="hotels",
                            clusters=tuple(frozenset({k}) for k in ids), parent={0: 1, 1: 0})
        else:  # k01 sits in both clusters
            bad = Hierarchy(summary_id="h1", domain="hotels",
                            clusters=(frozenset(ids[:2]), frozenset(ids[1:])))
        for d in dataset.iterdir():
            (d / "pred.jsonl").write_bytes((d / kio.GOLD_FILE).read_bytes())
        kio.write_hierarchy(dataset / "h1" / bad_file, bad)
        assert run("eval", "--in-dir", dataset, "--out-dir", tmp_path / "e",
                   "--pred", "pred.jsonl") == 2
        err = capsys.readouterr().err
        assert f"h1/{bad_file}, record 1: invalid hierarchy: {kind}: " in err
        assert not (tmp_path / "e").exists()

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
            calls.append((s.summary_id, config.tau, np.packbits(s.values > config.tau).tobytes()))
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
            graphs |= {(sid, np.packbits(s.values > tau).tobytes())
                       for tau in kph.cli.DEFAULT_TAU_GRID}
        assert len(calls) == len(graphs) < 4 * len(kph.cli.DEFAULT_TAU_GRID)
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

    def test_unbounded_step_grid_from_config_is_usage_error(self, dataset, tmp_path, capsys):
        out = scored_copy(dataset, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "0:1:nan"}))
        capsys.readouterr()
        assert run("tune", "--in-dir", out, "--out-dir", tmp_path / "t", *self.TUNE,
                   "--config", cfg) == 1
        assert "bad --grid '0:1:nan'" in capsys.readouterr().err


class TestTncfConvergenceWarning:
    # The scores of test_construction's test_escapes_bad_parent_choice at
    # tau 0.5 and 0.6: the first pass moves d from under b to under cc, and
    # only a second pass shows that nothing improves further.
    IDS = ("a", "b", "cc", "d", "e")
    PAIRS = {("d", "b"): 0.8, ("b", "a"): 0.8, ("d", "cc"): 0.78, ("d", "a"): 0.1}

    @pytest.fixture
    def scored(self, tmp_path):
        root = tmp_path / "data"
        for sid in ("s1", "s2"):
            (root / sid).mkdir(parents=True)
            scores = {(a, b): self.PAIRS.get((a, b), 0.05)
                      for a in self.IDS for b in self.IDS if a != b}
            kio.write_scores(root / sid / "scores_x.jsonl",
                             ScoreMatrix.from_pairs(summary_id=sid, kp_ids=self.IDS, scores=scores))
            kio.write_hierarchy(root / sid / kio.GOLD_FILE, Hierarchy(
                summary_id=sid, domain="hotels",
                clusters=tuple(frozenset({k}) for k in self.IDS), parent={3: 2, 1: 0}))
        return root

    @staticmethod
    def warnings(capsys) -> list[str]:
        return [line for line in capsys.readouterr().err.splitlines() if "warning" in line]

    @pytest.mark.parametrize("command,flags", [
        ("build", ("--tau", "0.5")),
        ("tune", ("--grid", "0.5,0.6")),
    ])
    def test_one_line_per_unconverged_summary(self, scored, tmp_path, capsys, command, flags):
        base = (command, "--in-dir", scored, "--scores", "scores_x.jsonl",
                "--algorithm", "tncf", *flags)
        assert run(*base, "--out-dir", tmp_path / "one", "--max-passes", "1") == 0
        lines = self.warnings(capsys)
        assert len(lines) == 2
        for sid, line in zip(("s1", "s2"), lines):
            assert f"'{sid}'" in line and "max_passes=1" in line
        assert (tmp_path / "one" / "s1" / "hierarchy_tncf.jsonl").exists()
        assert run(*base, "--out-dir", tmp_path / "two", "--max-passes", "2") == 0
        assert self.warnings(capsys) == []
        assert run(*base, "--out-dir", tmp_path / "all") == 0
        assert self.warnings(capsys) == []


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


class TestValidate:
    def test_prints_stats(self, dataset, tmp_path, capsys):
        assert run("validate", "--in-dir", dataset,
                   "--out-dir", tmp_path / "v") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_summaries"] == 4
        assert doc["num_kphs"] == 4
        assert doc["num_key_points"] == 16
        assert doc["num_relations"] == 8

    def test_loads_each_key_point_file_once(self, dataset, tmp_path, monkeypatch):
        calls = []
        real = kio.load_key_points

        def counting(path):
            calls.append(path.parent.name)
            return real(path)

        monkeypatch.setattr(kio, "load_key_points", counting)
        assert run("validate", "--in-dir", dataset, "--out-dir", tmp_path / "v") == 0
        assert sorted(calls) == ["h1", "h2", "r1", "r2"]

    def test_detects_gold_kp_mismatch(self, dataset, tmp_path, capsys):
        bad = Hierarchy(summary_id="h1", domain="hotels",
                        clusters=(frozenset({"k00"}), frozenset({"unknown"})),
                        parent={})
        kio.write_hierarchy(dataset / "h1" / kio.GOLD_FILE, bad)
        assert run("validate", "--in-dir", dataset,
                   "--out-dir", tmp_path / "v") == 2


class TestConfigFile:
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
        ("build", {"max_passes": "2"}, BUILD + ("--tau", "0.5")),
        ("build", {"max_passes": 2.5}, BUILD + ("--tau", "0.5")),
        ("tune", {"grid": 5}, BUILD),
        ("score", {"in_dir": 3}, ("--scorer", "bininc")),
        ("score", {"theta_match": "x"}, ("--scorer", "bininc")),
        ("weaklabel", {"seed": "7"}, ("--scores", "scores_bininc.jsonl")),
        ("build", {"max_passes": True}, BUILD + ("--tau", "0.5")),
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
        path.write_text(json.dumps({"scores": "scores_bininc.jsonl", "algorithm": "tncf",
                                    "tau": 1, "max_passes": 2}))
        assert run("build", "--in-dir", out, "--out-dir", tmp_path / "b",
                   "--config", path) == 0
        manifest = json.loads((tmp_path / "b" / "manifest_build.json").read_text())
        assert manifest["config"]["max_passes"] == 2


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

    def test_manifest_is_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("score", "--in-dir", dataset, "--out-dir", out, "--scorer", "bininc")
        assert ((a / "manifest_score.json").read_text()
                == (b / "manifest_score.json").read_text())
