"""The benchmark's own checks: generator, output checks and the traced replay.

Run from the checkout root with ``python3 -m pytest bench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import tracing
from generator import CorpusSpec, plant_corpus, write_corpus
from workloads import DATA, WORKLOADS, Op, Workload

from kph import (compute_score_matrix, derive_relations, evaluate_hierarchies,
                 validate_hierarchy)
from kph import io as kio

SMALL = CorpusSpec(domains=2, summaries_per_domain=2, key_points=(9, 8), filtered=(1, 2),
                   sentences=80, flip=0.05, entail_sd=0.2)


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): harness.sha256(p) for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_generator_writes_the_same_bytes_for_the_same_seed(tmp_path):
    for w in WORKLOADS.values():
        write_corpus(tmp_path / "a", w.spec, 7)
        write_corpus(tmp_path / "b", w.spec, 7)
        write_corpus(tmp_path / "c", w.spec, 8)
        assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
        assert _digests(tmp_path / "a") != _digests(tmp_path / "c")
        for d in "abc":
            shutil.rmtree(tmp_path / d)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_gold_is_valid(tmp_path, seed):
    for w in WORKLOADS.values():
        root = tmp_path / w.name
        planted = write_corpus(root, w.spec, seed)
        for p in planted:
            kps = kio.load_key_points(root / p.summary_id / "key_points.jsonl")
            gold = kio.load_hierarchy(root / p.summary_id / "gold.jsonl")
            assert validate_hierarchy(gold, kps) == []
            assert gold.kp_ids == set(kps.unfiltered_ids)
            assert set(derive_relations(gold)) == p.relations()
            kio.load_match_matrix(root / p.summary_id / "match_matrix.csv")
            kio.load_external_scores(root / p.summary_id / "scores_entail.jsonl")


def test_paper_shaped_corpus_matches_the_dataset_totals():
    planted = plant_corpus(WORKLOADS["build_paper"].spec, 0)
    assert len(planted) == 12
    assert sum(len(p.kp_ids) for p in planted) == 517
    assert sum(len(p.filtered) for p in planted) == 86


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_noise_free_bininc_recovers_exactly_the_planted_relations(tmp_path, seed):
    spec = dataclasses.replace(WORKLOADS["score_stress"].spec, sentences=600, flip=0.0)
    for p in write_corpus(tmp_path, spec, seed):
        m = kio.load_match_matrix(tmp_path / p.summary_id / "match_matrix.csv")
        s = compute_score_matrix(m, "bininc")
        kept = set(p.kp_ids) - p.filtered
        full = {pair for pair, v in s.scores.items() if v == 1.0 and set(pair) <= kept}
        assert full == p.relations()


@pytest.mark.parametrize("scorer", harness.RECOMPUTED_SCORERS)
def test_reference_scores_agree_with_the_program(tmp_path, scorer):
    p = write_corpus(tmp_path, SMALL, 3)[0]
    m = kio.load_match_matrix(tmp_path / p.summary_id / "match_matrix.csv")
    s = compute_score_matrix(m, scorer)
    ref = harness.reference_scores(np.asarray(m.values), scorer)
    for i, a in enumerate(m.kp_ids):
        for j, b in enumerate(m.kp_ids):
            if i != j:
                assert abs(s.scores[(a, b)] - ref[i, j]) < 1e-12


def test_recomputed_f1_agrees_with_the_program(tmp_path):
    planted = write_corpus(tmp_path, SMALL, 4)
    golds = {p.summary_id: kio.load_hierarchy(tmp_path / p.summary_id / "gold.jsonl")
             for p in planted}
    # A worse prediction: every gold hierarchy flattened to its clusters.
    preds = {sid: dataclasses.replace(g, parent={}) for sid, g in golds.items()}
    doc = kio.hierarchy_to_doc
    macro, _ = harness.macro_f1({s: doc(h) for s, h in preds.items()},
                                {s: doc(h) for s, h in golds.items()})
    report = evaluate_hierarchies(preds.values(), golds.values())
    assert macro == pytest.approx(report.macro_f1, abs=1e-12)
    assert macro < 1.0


MIXED = Workload(
    name="mixed",
    why="every layer on a tiny corpus",
    spec=SMALL,
    ops=(
        Op("validate", ("validate",), "validate", ("validation_report.json",)),
        Op("score_bininc", ("score", "--scorer", "bininc"), DATA,
           ("{sid}/scores_bininc.jsonl",)),
        Op("combine", ("combine", "--a", "scores_bininc.jsonl", "--b", "scores_entail.jsonl",
                       "--name", "combined"), DATA, ("{sid}/scores_combined.jsonl",)),
        Op("build_tncf", ("build", "--scores", "scores_combined.jsonl", "--algorithm", "tncf",
                          "--tau", "0.5"), DATA, ("{sid}/hierarchy_tncf.jsonl",)),
        Op("eval_tncf", ("eval", "--pred", "hierarchy_tncf.jsonl"), "eval_tncf",
           ("report_eval.json", "metrics.csv")),
        Op("tune_reduced_forest", ("tune", "--scores", "scores_combined.jsonl",
                                   "--algorithm", "reduced_forest", "--grid", "0:1:0.25"),
           "tune_reduced_forest", ("report_loo.json",)),
        Op("prcurve", ("prcurve", "--scores", "scores_combined.jsonl"), "prcurve",
           ("report_prcurve.json",)),
    ),
)


@pytest.fixture(scope="module")
def subprocess_pass(tmp_path_factory):
    root = tmp_path_factory.mktemp("mixed")
    planted = write_corpus(root / "corpus", MIXED.spec, 5)
    sids = [p.summary_id for p in planted]
    p = harness.run_pass(MIXED, root / "corpus", root / "pass", [sys.executable, "-m", "kph"],
                         run.program_env(), sids)
    harness.check_outputs(p, root / "pass", sids)
    return root, sids, p


def test_subprocess_pass_is_checked_and_correct(subprocess_pass):
    _, _, p = subprocess_pass
    assert [e for r in p.ops for e in r.errors] == []
    assert any(k.endswith("report_loo.json") for k in p.digests)


def test_wrapping_leaves_the_cli_outputs_unchanged(subprocess_pass):
    root, sids, p = subprocess_pass
    cli = run.kph_cli()
    original = cli.build_hierarchy
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert cli.build_hierarchy is not original
        _, ops = run.replay(MIXED, root / "corpus", sids, tracer.wrap(cli.main, "cli.main"),
                            p.digests, root / "replay")
    assert cli.build_hierarchy is original
    assert [e for r in ops for e in r.errors] == []
    metrics, _ = tracing.layer_metrics([tracer], [1.0])
    assert metrics["cli.commands"][0] == len(MIXED.ops)
    assert metrics["construction.tncf_ms.calls"][0] == len(sids)
    assert metrics["evaluation.loo_ms.calls"][0] == 1
    assert 0 < metrics["evaluation.loo_distinct_ratio"][0] <= 1
    assert metrics["evaluation.loo_self_ms"][0] < metrics["evaluation.loo_ms"][0]


def test_a_breach_is_counted_on_its_op(subprocess_pass):
    _, _, p = subprocess_pass
    reference = dict(p.digests)
    key = next(k for k in reference if k.startswith("combine/"))
    reference[key] = "0" * 64
    copy = harness.PassResult([dataclasses.replace(r, errors=[]) for r in p.ops])
    harness.compare_digests(copy, reference, "the reference")
    assert [r.op.label for r in copy.ops if r.errors] == ["combine"]


def test_a_missing_target_makes_its_metrics_absent(subprocess_pass, monkeypatch):
    root, sids, p = subprocess_pass
    cli = run.kph_cli()
    monkeypatch.delattr(cli, "pr_curve")
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracer.wrap(cli.main, "cli.main")(["validate", "--in-dir", str(root / "corpus"),
                                           "--out-dir", str(root / "validate")])
    metrics, _ = tracing.layer_metrics([tracer], [1.0])
    assert "evaluation.pr_curve_ms" not in metrics
    assert "io.load_key_points_ms" in metrics


def test_tail_needs_ten_samples_beyond_it():
    assert tracing.tail(list(range(1, 11))) == (10, "max")
    assert tracing.tail([float(x) for x in range(1, 101)]) == (90.0, "p90")
    assert tracing.tail([float(x) for x in range(1, 1001)]) == (990.0, "p99")


def test_run_fails_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "tune_loo", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert not (tmp_path / ".bench_work").exists()


def test_benchmark_json_lists_every_metric_the_run_reports():
    doc = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    names = {m["name"] for m in doc["per_layer"]}
    timed = ["cli.import_ms", *tracing.TIMED]
    assert names == ({f"{t}{s}" for t in timed for s in ("", ".calls", ".p50", ".tail")}
                     | set(tracing.COUNTERS) | {"trace.overhead_ms"})
    assert {m["name"] for m in doc["end_to_end"]} == {"pipeline_s", "cpu_s", "peak_rss_mb",
                                                      "setup_s"}
