"""Acceptance gate: one check per release criterion, one printed line each.

Each test prints "ACCEPTANCE <n> PASS/FAIL/SKIP"; the conftest hook repeats
the lines in the terminal summary so they are visible in a normal run.
"""

import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from kph import (
    ALGORITHMS,
    ConstructionConfig,
    Hierarchy,
    KeyPoint,
    KeyPointSet,
    MatchMatrix,
    PRCurve,
    PRPoint,
    ScoreMatrix,
    SCORERS,
    auc_at_min_recall,
    build_greedy,
    build_greedy_gs,
    build_hierarchy,
    build_reduced_forest,
    build_tncf,
    cluster_link_score,
    derive_relations,
    export_weak_labels,
    objective_value,
    pr_curve,
    relation_f1,
    loo_threshold_tuning,
    spearman_correlation,
    validate_hierarchy,
)
from kph import io as kio
from kph.cli import main
from kph.construction import _condense
from conftest import record_acceptance
from helpers import edge_set, pair_score, random_digraph, random_hierarchy, random_score_matrix
from oracles import (
    apinc_ref,
    bininc_ref,
    brute_force_optimal_kph,
    clarkede_ref,
    condensation_edges,
    is_transitive_reduction_of,
    relations_by_closure,
    scc_partition,
    weedsprec_ref,
)


def _criterion(n: int, fn):
    try:
        detail = fn() or ""
    except Exception as exc:
        record_acceptance(f"ACCEPTANCE {n:2d} FAIL ({exc})")
        raise
    record_acceptance(f"ACCEPTANCE {n:2d} PASS" + (f" ({detail})" if detail else ""))


def test_criterion_01_relation_derivation_oracle():
    def check():
        rng = random.Random(1001)
        start = time.monotonic()
        for _ in range(500):
            h = random_hierarchy(rng, rng.randrange(1, 9))
            assert derive_relations(h) == relations_by_closure(h.clusters, h.parent)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        return f"500 forests, {elapsed:.2f}s"

    _criterion(1, check)


def test_criterion_02_graph_utility_oracles():
    def check():
        rng = random.Random(1002)
        start = time.monotonic()
        for _ in range(500):
            adj = random_digraph(rng, n=8, p=rng.uniform(0.05, 0.5))
            nodes = list(range(8))
            edges = edge_set(adj)
            comps, reduced = _condense(adj)
            members = [frozenset(comp) for comp in comps]
            assert set(members) == scc_partition(nodes, edges)
            re_ = {(members[u], members[v]) for u, v in edge_set(reduced)}
            assert is_transitive_reduction_of(members, condensation_edges(nodes, edges), re_)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        return f"500 graphs, {elapsed:.2f}s"

    _criterion(2, check)


def test_criterion_03_scorer_correctness():
    def check():
        refs = {"bininc": bininc_ref, "weedsprec": weedsprec_ref,
                "clarkede": clarkede_ref, "apinc": apinc_ref}

        rng = random.Random(1003)
        for _ in range(200):
            n = rng.randrange(1, 12)
            theta = rng.choice([0.3, 0.5, 0.7])
            wi = np.array([rng.random() if rng.random() < 0.8 else 0.0
                           for _ in range(n)])
            wj = np.array([rng.random() if rng.random() < 0.8 else 0.0
                           for _ in range(n)])
            for name in SCORERS:
                got = pair_score(name, wi, wj, theta)
                assert abs(got - refs[name](wi, wj, theta)) <= 1e-9, name

        # constant weights: BinInc and WeedsPrec coincide
        for _ in range(50):
            n = rng.randrange(1, 10)
            wi = [0.8 if rng.random() < 0.5 else 0.0 for _ in range(n)]
            wj = [0.8 if rng.random() < 0.5 else 0.0 for _ in range(n)]
            assert abs(pair_score("bininc", wi, wj) - pair_score("weedsprec", wi, wj)) <= 1e-12

        # inclusion and disjointness fixtures
        wi, wj = [0.9, 0.8, 0.0, 0.0], [0.7, 0.6, 0.9, 0.0]
        assert pair_score("bininc", wi, wj) == 1.0
        assert pair_score("weedsprec", wi, wj) == 1.0
        for name in SCORERS:
            assert pair_score(name, [0.9, 0.9, 0.0, 0.0], [0.0, 0.0, 0.9, 0.9]) == 0.0
        return "200 pairs vs direct formulas at 1e-9"

    _criterion(3, check)


def test_criterion_04_objective_oracle():
    def check():
        rng = random.Random(1004)
        taus = [0.3, 0.5, 0.7]
        start = time.monotonic()
        positive = 0
        tncf_good = 0
        for k in range(200):
            n = rng.randrange(2, 7)
            m = random_score_matrix(rng, n)
            tau = taus[k % 3]
            _, best = brute_force_optimal_kph(m, tau)
            init = build_reduced_forest(m, tau)
            init_obj = objective_value(init, m, tau)
            tncf = build_tncf(m, tau)
            tncf_obj = objective_value(tncf, m, tau)
            assert tncf_obj >= init_obj - 1e-12, "local search regressed"
            for name in ALGORITHMS:
                h = build_hierarchy(m, ConstructionConfig(tau=tau, algorithm=name))
                assert best >= objective_value(h, m, tau) - 1e-9, name
            if best > 0:
                positive += 1
                if tncf_obj >= 0.9 * best - 1e-9:
                    tncf_good += 1
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"
        assert positive > 0
        ratio = tncf_good / positive
        assert ratio >= 0.9, f"local search hit 0.9x optimum on only {ratio:.0%}"
        return f"200 instances, local search at 0.9x optimum on {ratio:.0%}, {elapsed:.1f}s"

    _criterion(4, check)


def test_criterion_05_greedy_gs_discriminating_fixture():
    def check():
        ids = ["a", "b", "d", "z"]
        pairs = {("b", "a"): 0.9, ("d", "z"): 0.8, ("d", "b"): 0.7, ("d", "a"): 0.6}
        scores = {(x, y): pairs.get((x, y), 0.05) for x in ids for y in ids if x != y}
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids), scores=scores)

        def ancestor_score_sum(h):
            total = 0.0
            for ci in range(len(h.clusters)):
                seen = set()
                cur = ci
                while cur in h.parent and cur not in seen:
                    seen.add(cur)
                    cur = h.parent[cur]
                    total += cluster_link_score(h.clusters[ci], h.clusters[cur], m)
            return total

        g = build_greedy(m, 0.5)
        gs = build_greedy_gs(m, 0.5)
        assert g.canonical_form() != gs.canonical_form()
        o_g = ancestor_score_sum(g)
        o_gs = ancestor_score_sum(gs)
        assert abs(o_g - 1.7) <= 1e-12, o_g
        assert abs(o_gs - 2.2) <= 1e-12, o_gs
        assert o_gs > o_g
        return f"objectives 2.2 vs 1.7"

    _criterion(5, check)


def test_criterion_06_metric_goldens():
    def check():
        c = frozenset
        # relation F1: gold chain of 4 vs two predicted co-clusters
        gold = Hierarchy(summary_id="s",
                         clusters=(c({"a"}), c({"b"}), c({"cc"}), c({"d"})),
                         parent={0: 1, 1: 2, 2: 3})
        pred = Hierarchy(summary_id="s",
                         clusters=(c({"a", "b"}), c({"cc", "d"})), parent={})
        p, r, f1 = relation_f1(pred, gold)
        assert abs(p - 0.5) <= 1e-9 and abs(r - 1 / 3) <= 1e-9
        assert abs(f1 - 0.4) <= 1e-9

        # PR curve point-by-point
        gold2 = Hierarchy(summary_id="s", clusters=(c({"a", "b"}), c({"z"})),
                          parent={1: 0})
        ids = ["a", "b", "z"]
        sc = {("a", "b"): 0.9, ("b", "a"): 0.8, ("z", "a"): 0.7,
              ("a", "z"): 0.6, ("z", "b"): 0.5, ("b", "z"): 0.4}
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids), scores=sc)
        want = [(0.9, 0.25, 1.0), (0.8, 0.5, 1.0), (0.7, 0.75, 1.0),
                (0.6, 0.75, 0.75), (0.5, 1.0, 0.8), (0.4, 1.0, 4 / 6)]
        got = [(pt.threshold, pt.recall, pt.precision)
               for pt in pr_curve(m, gold2).points]
        assert len(got) == len(want)
        for gv, wv in zip(got, want):
            assert all(abs(x - y) <= 1e-9 for x, y in zip(gv, wv))

        # AUC hand values
        def curve(pts):
            return PRCurve(points=tuple(
                PRPoint(threshold=1.0 - 0.1 * i, recall=rr, precision=pp)
                for i, (rr, pp) in enumerate(pts)))

        assert abs(auc_at_min_recall(curve([(0.2, 1.0), (0.6, 0.5), (1.0, 0.25)]), 0.1)
                   - 0.45) <= 1e-9
        assert abs(auc_at_min_recall(curve([(0.05, 1.0), (0.6, 0.5)]), 0.1)
                   - 4 / 11) <= 1e-9
        assert abs(auc_at_min_recall(curve([(0.3, 0.8), (1.0, 0.8)]), 0.1)
                   - 0.56) <= 1e-9

        # perfect scorer: 10 positives with distinct scores above all negatives
        ids5 = [f"k{i}" for i in range(5)]
        gold3 = Hierarchy(summary_id="s",
                          clusters=tuple(c({x}) for x in ids5),
                          parent={i: i + 1 for i in range(4)})
        rel = derive_relations(gold3)
        assert len(rel) == 10
        pos = iter([0.99 - 0.01 * i for i in range(10)])
        neg = iter([0.20 - 0.01 * i for i in range(10)])
        sc3 = {}
        for a in ids5:
            for b in ids5:
                if a != b:
                    sc3[(a, b)] = next(pos) if (a, b) in rel else next(neg)
        m3 = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids5), scores=sc3)
        auc = auc_at_min_recall(pr_curve(m3, gold3), 0.1)
        assert abs(auc - 0.9) <= 1e-9, auc

        # rank correlation with tied midranks
        xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        ys = [0.15, 0.15, 0.3, 0.4, 0.5, 0.6]
        prs = sorted((a, b) for a in ids for b in ids if a != b)
        sa = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids),
                                    scores={pr: xs[i] for i, pr in enumerate(prs)})
        sb = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids),
                                    scores={pr: ys[i] for i, pr in enumerate(prs)})
        rho = spearman_correlation(sa, sb)
        assert abs(rho - 17 / math.sqrt(17.5 * 17)) <= 1e-9
        return "relation F1, PR, AUC, perfect-scorer 0.9, rank correlation"

    _criterion(6, check)


def test_criterion_07_loo_leakage():
    def check():
        c = frozenset
        golds = {}
        scores = {}
        for k in range(4):
            sid = f"s{k}"
            golds[sid] = Hierarchy(summary_id=sid, domain="hotels",
                                   clusters=(c({"a", "b"}), c({"z"})), parent={})
            ids = ["a", "b", "z"]
            sc = {(x, y): 0.1 for x in ids for y in ids if x != y}
            sc[("a", "b")] = sc[("b", "a")] = 0.9
            scores[sid] = ScoreMatrix.from_pairs(summary_id=sid, kp_ids=tuple(ids), scores=sc)
        chosen, _, _ = loo_threshold_tuning(scores, golds, build_reduced_forest)

        corrupted = dict(golds)
        corrupted["s0"] = Hierarchy(summary_id="s0", domain="hotels",
                                    clusters=(c({"a"}), c({"b"}), c({"z"})),
                                    parent={0: 2, 1: 2})
        chosen2, _, _ = loo_threshold_tuning(scores, corrupted, build_reduced_forest)
        assert chosen2["s0"] == chosen["s0"], "held-out gold leaked into tuning"
        # peers are unchanged for s0, so every other summary may shift, but
        # the held-out one must not
        return f"tau for held-out summary stayed at {chosen['s0']}"

    _criterion(7, check)


PLANTED = np.array([
    [0.9, 0.9, 0.0, 0.0],
    [0.8, 0.8, 0.0, 0.0],
    [0.9, 0.0, 0.9, 0.0],
    [0.8, 0.0, 0.7, 0.0],
    [0.0, 0.0, 0.0, 0.9],
    [0.0, 0.0, 0.0, 0.8],
])


def _make_dataset(root: Path):
    for sid, dom in [("h1", "hotels"), ("h2", "hotels"),
                     ("r1", "restaurants"), ("r2", "restaurants")]:
        d = root / sid
        d.mkdir(parents=True)
        ids = tuple(f"k{i:02d}" for i in range(4))
        kps = KeyPointSet(
            summary_id=sid, domain=dom,
            key_points=tuple(
                KeyPoint(id=k, text=f"{sid} point {k}", polarity="positive",
                         match_count=6 - i, filtered=False)
                for i, k in enumerate(ids)))
        kio.write_key_points(d / kio.KEY_POINTS_FILE, kps)
        kio.write_match_matrix(d / kio.MATCH_MATRIX_FILE, MatchMatrix(
            summary_id=sid, domain=dom,
            sentence_ids=tuple(f"t{j}" for j in range(6)),
            kp_ids=ids, values=PLANTED))
        kio.write_hierarchy(d / kio.GOLD_FILE, Hierarchy(
            summary_id=sid, domain=dom,
            clusters=tuple(frozenset({k}) for k in ids), parent={1: 0, 2: 0}))


def test_criterion_08_cli_determinism(tmp_path):
    def check():
        data = tmp_path / "data"
        _make_dataset(data)

        def tree(root: Path):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        def stage(run_root: Path):
            """Run every subcommand once under run_root; return all bytes."""
            scored = run_root / "scored"
            assert main(["score", "--in-dir", str(data), "--out-dir", str(scored),
                         "--scorer", "bininc"]) == 0
            assert main(["score", "--in-dir", str(data), "--out-dir", str(scored),
                         "--scorer", "apinc"]) == 0
            for sid in ["h1", "h2", "r1", "r2"]:
                for name in [kio.GOLD_FILE, kio.KEY_POINTS_FILE]:
                    (scored / sid / name).write_bytes((data / sid / name).read_bytes())
            assert main(["combine", "--in-dir", str(scored),
                         "--out-dir", str(run_root / "combined"),
                         "--a", "scores_bininc.jsonl", "--b", "scores_apinc.jsonl",
                         "--name", "mean"]) == 0
            assert main(["build", "--in-dir", str(scored),
                         "--out-dir", str(run_root / "built"),
                         "--scores", "scores_bininc.jsonl",
                         "--algorithm", "tncf", "--tau", "0.5"]) == 0
            assert main(["tune", "--in-dir", str(scored),
                         "--out-dir", str(run_root / "tuned"),
                         "--scores", "scores_bininc.jsonl",
                         "--algorithm", "reduced_forest",
                         "--grid", "0.3,0.5,0.7"]) == 0
            ev = run_root / "evalin"
            for sid in ["h1", "h2", "r1", "r2"]:
                (ev / sid).mkdir(parents=True)
                (ev / sid / kio.GOLD_FILE).write_bytes(
                    (data / sid / kio.GOLD_FILE).read_bytes())
                (ev / sid / "pred.jsonl").write_bytes(
                    (run_root / "built" / sid / "hierarchy_tncf.jsonl").read_bytes())
            assert main(["eval", "--in-dir", str(ev),
                         "--out-dir", str(run_root / "evaled"),
                         "--pred", "pred.jsonl"]) == 0
            assert main(["prcurve", "--in-dir", str(scored),
                         "--out-dir", str(run_root / "pr"),
                         "--scores", "scores_bininc.jsonl"]) == 0
            assert main(["weaklabel", "--in-dir", str(scored),
                         "--out-dir", str(run_root / "wl"),
                         "--scores", "scores_bininc.jsonl",
                         "--threshold", "0.6", "--ratio", "2", "--seed", "7"]) == 0
            assert main(["correlate", "--in-dir", str(scored),
                         "--out-dir", str(run_root / "corr"),
                         "--a", "scores_bininc.jsonl",
                         "--b", "scores_apinc.jsonl"]) == 0
            assert main(["validate", "--in-dir", str(data),
                         "--out-dir", str(run_root / "validated")]) == 0
            return tree(run_root)

        first = stage(tmp_path / "run1")
        second = stage(tmp_path / "run2")
        assert first == second, "subcommand outputs differ between identical runs"
        return f"9 subcommands, {len(first)} files byte-identical"

    _criterion(8, check)


def test_criterion_09_dataset_conformance():
    root = os.environ.get("KPH_DATASET_DIR")
    if not root:
        record_acceptance(
            "ACCEPTANCE  9 SKIP (KPH_DATASET_DIR not set; benchmark files not supplied)")
        pytest.skip("KPH_DATASET_DIR not set; benchmark files not supplied")

    def check():
        start = time.monotonic()
        kp_sets, golds = kio.load_dataset(root)
        stats = kio.dataset_stats(kp_sets, golds)
        elapsed = time.monotonic() - start
        assert stats["num_kphs"] == 12, stats
        assert stats["num_key_points"] == 517, stats
        assert stats["num_filtered"] == 86, stats
        assert stats["num_relations"] == 1418, stats
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        return f"12 hierarchies, 517 key points, {elapsed:.2f}s"

    _criterion(9, check)


def test_criterion_09_on_generated_paper_corpus(tmp_path, monkeypatch):
    """Criterion 9's totals on the benchmark's paper-shaped corpus (seed 0)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from generator import write_corpus
    from workloads import BUILD_PAPER

    planted = write_corpus(tmp_path, BUILD_PAPER.spec, 0)
    kp_sets, golds = kio.load_dataset(tmp_path)
    stats = kio.dataset_stats(kp_sets, golds)
    assert stats["num_kphs"] == 12, stats
    assert stats["num_key_points"] == 517, stats
    assert stats["num_filtered"] == 86, stats
    assert stats["num_relations"] == sum(len(p.relations()) for p in planted), stats


def test_criterion_10_weak_label_export():
    def check():
        rng = random.Random(1010)
        ids = tuple(f"k{i:02d}" for i in range(18))
        all_pairs = [(a, b) for a in ids for b in ids if a != b]
        chosen_pairs = sorted(rng.sample(all_pairs, 300))
        positives = set(rng.sample(chosen_pairs, 10))
        scores = dict.fromkeys(all_pairs, 0.0)  # pairs left out of the sample score 0
        for pair in chosen_pairs:
            scores[pair] = (rng.uniform(0.55, 0.95) if pair in positives
                            else rng.uniform(0.05, 0.45))
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=ids, scores=scores)
        kps = KeyPointSet(
            summary_id="s", domain="hotels",
            key_points=tuple(KeyPoint(id=k, text=f"point {k}", polarity="positive",
                                      match_count=3, filtered=False) for k in ids))
        out = export_weak_labels(m, kps, threshold=0.5, neg_ratio=5, seed=11)
        assert out.num_positive == 10, out.num_positive
        assert out.num_negative == 50, out.num_negative
        again = export_weak_labels(m, kps, threshold=0.5, neg_ratio=5, seed=11)
        assert out.records == again.records, "same seed produced different records"
        other = export_weak_labels(m, kps, threshold=0.5, neg_ratio=5, seed=12)
        assert {r.hypothesis for r in other.records if r.label == "entail"} == \
            {r.hypothesis for r in out.records if r.label == "entail"}
        return "10 positives, exactly 50 sampled negatives, seed-stable"

    _criterion(10, check)
