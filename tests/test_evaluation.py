"""Evaluation: relation F1, PR curves, AUC, tuning, baselines, brute force."""

import dataclasses
import functools
import math
import random

import pytest

from kph import (
    DataError,
    DomainMetrics,
    EvalReport,
    Hierarchy,
    PRCurve,
    PRPoint,
    ScoreMatrix,
    auc_at_min_recall,
    build_greedy,
    build_greedy_gs,
    build_reduced_forest,
    build_tncf,
    derive_relations,
    evaluate_hierarchies,
    local_relations_baseline,
    loo_threshold_tuning,
    objective_value,
    pr_curve,
    relation_f1,
    spearman_correlation,
)
from kph.evaluation import DEFAULT_TAU_GRID
from helpers import random_hierarchy, random_score_matrix
from oracles import (brute_force_optimal_kph, loo_threshold_tuning_reference, pr_points_ref,
                     relation_f1_reference)


def c(*ids):
    return frozenset(ids)


def chain(summary_id, ids, domain="other"):
    """Singleton clusters linked bottom-up: ids[0] -> ids[1] -> ..."""
    clusters = tuple(c(x) for x in sorted(ids))
    order = {x: i for i, x in enumerate(sorted(ids))}
    parent = {order[ids[k]]: order[ids[k + 1]] for k in range(len(ids) - 1)}
    return Hierarchy(summary_id=summary_id, clusters=clusters, parent=parent,
                     domain=domain)


def flat(summary_id, clusters, domain="other"):
    return Hierarchy(summary_id=summary_id,
                     clusters=tuple(sorted(clusters, key=sorted)),
                     parent={}, domain=domain)


def sm(ids, pairs, default=0.05, summary_id="s"):
    scores = {(a, b): default for a in ids for b in ids if a != b}
    scores.update(pairs)
    return ScoreMatrix.from_pairs(summary_id=summary_id, kp_ids=tuple(ids), scores=scores)


class TestRelationF1:
    def test_identical_hierarchies(self):
        g = chain("s", ["a", "b", "cc"])
        assert relation_f1(g, g) == (1.0, 1.0, 1.0)

    def test_both_empty(self):
        g = flat("s", [c("a"), c("b")])
        assert relation_f1(g, g) == (1.0, 1.0, 1.0)

    def test_empty_prediction_against_nonempty_gold(self):
        pred = flat("s", [c("a"), c("b")])
        gold = flat("s", [c("a", "b")])
        assert relation_f1(pred, gold) == (0.0, 0.0, 0.0)

    def test_nonempty_prediction_against_empty_gold(self):
        pred = flat("s", [c("a", "b")])
        gold = flat("s", [c("a"), c("b")])
        p, r, f1 = relation_f1(pred, gold)
        assert (p, r) == (0.0, 1.0) and f1 == 0.0

    def test_partial_overlap_hand_values(self):
        # gold chain a->b->c->d induces 6 relations; predicted co-clusters
        # {a,b} and {c,d} induce 4, of which (a,b) and (c,d) are correct:
        # P = 2/4, R = 2/6, F1 = 0.4.
        gold = chain("s", ["a", "b", "cc", "d"])
        pred = flat("s", [c("a", "b"), c("cc", "d")])
        p, r, f1 = relation_f1(pred, gold)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert r == pytest.approx(1 / 3, abs=1e-12)
        assert f1 == pytest.approx(0.4, abs=1e-9)

    def test_pools_relations_across_summaries(self):
        # summary one: perfect on 2 relations; summary two: empty prediction
        # against 2 gold relations. Pooled: P = 2/2, R = 2/4, F1 = 2/3,
        # which differs from the per-summary mean of 0.5.
        pred = [flat("s1", [c("a", "b")]), flat("s2", [c("x"), c("y")])]
        gold = [flat("s1", [c("a", "b")]), flat("s2", [c("x", "y")])]
        p, r, f1 = relation_f1(pred, gold)
        assert (p, r) == (1.0, 0.5)
        assert f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_rejects_summary_mismatch(self):
        with pytest.raises(DataError):
            relation_f1(flat("s1", [c("a")]), flat("s2", [c("a")]))

    def test_rejects_unknown_key_points_in_prediction(self):
        with pytest.raises(DataError):
            relation_f1(flat("s", [c("a"), c("zz")]), flat("s", [c("a")]))


def _random_f1_case(rng):
    """Predicted and gold hierarchies of 1 to 4 summaries, in shuffled order.

    Golds may hold no key point or induce no relation, predictions may be
    empty; now and then two predictions swap summary ids, a summary is
    listed twice or dropped, or a prediction uses a key point gold lacks.
    """
    preds, golds = [], []
    for k in range(rng.randint(1, 4)):
        sid, n = f"s{k}", rng.randint(1, 6)
        r = rng.random()
        if r < 0.1:
            gold = Hierarchy(summary_id=sid, clusters=())
        elif r < 0.3:
            gold = Hierarchy(summary_id=sid, clusters=tuple(c(f"k{i:02d}") for i in range(n)))
        else:
            gold = random_hierarchy(rng, n, summary_id=sid)
        r = rng.random()
        if r < 0.2:
            pred = dataclasses.replace(gold, clusters=tuple(c(x) for x in sorted(gold.kp_ids)),
                                       parent={})
        elif r < 0.25:
            pred = random_hierarchy(rng, n + 1, summary_id=sid)
        else:
            pred = random_hierarchy(rng, rng.randint(1, n), summary_id=sid)
        preds.append(pred)
        golds.append(gold)
    r = rng.random()
    if r < 0.15 and len(preds) > 1:
        a, b = rng.sample(range(len(preds)), 2)
        preds[a], preds[b] = (dataclasses.replace(preds[a], summary_id=preds[b].summary_id),
                              dataclasses.replace(preds[b], summary_id=preds[a].summary_id))
    elif r < 0.2:
        rng.choice((preds, golds)).append(rng.choice(golds))
    elif r < 0.25 and len(preds) > 1:
        rng.choice((preds, golds)).pop(rng.randrange(len(preds)))
    rng.shuffle(preds)
    rng.shuffle(golds)
    if len(preds) == 1 and rng.random() < 0.5:
        return preds[0], golds[0]
    return preds, golds


def _f1_outcome(f1, pred, gold):
    try:
        return f1(pred, gold)
    except DataError as exc:
        return "DataError", str(exc)


class TestRelationF1MatchesReference:
    """Per-summary count sums against pooling summary-tagged relation sets."""

    def test_random_summaries(self):
        rng = random.Random(1010)
        outcomes = []
        for _ in range(400):
            pred, gold = _random_f1_case(rng)
            new = _f1_outcome(relation_f1, pred, gold)
            assert new == _f1_outcome(relation_f1_reference, pred, gold)
            outcomes.append(new)
        errors = " ".join(o[1] for o in outcomes if o[0] == "DataError")
        for text in ("different summaries", "twice", "key points not in gold"):
            assert text in errors
        scores = [o for o in outcomes if o[0] != "DataError"]
        assert (1.0, 1.0, 1.0) in scores and (0.0, 0.0, 0.0) in scores
        assert any(0.0 < o.f1 < 1.0 for o in scores)


class TestEvaluateHierarchies:
    def test_per_domain_and_macro(self):
        gold = [chain("h1", ["a", "b"], domain="hotels"),
                chain("r1", ["a", "b", "cc", "d"], domain="restaurants")]
        pred = [chain("h1", ["a", "b"], domain="hotels"),
                flat("r1", [c("a", "b"), c("cc", "d")], domain="restaurants")]
        rep = evaluate_hierarchies(pred, gold)
        assert set(rep.per_domain) == {"hotels", "restaurants"}
        assert rep.per_domain["hotels"].f1 == 1.0
        assert rep.per_domain["restaurants"].f1 == pytest.approx(0.4, abs=1e-9)
        assert rep.macro_f1 == pytest.approx(0.7, abs=1e-9)
        assert rep.macro_precision == pytest.approx(0.75, abs=1e-9)
        assert rep.macro_recall == pytest.approx((1 + 1 / 3) / 2, abs=1e-9)

    def test_macro_mean_adds_left_to_right(self):
        # Builtin sum() on Python >= 3.12 gives 0.6, not 0.6000000000000001, so
        # its mean would be 0.19999999999999998 instead of 0.20000000000000004.
        rep = EvalReport(per_domain={d: DomainMetrics(0.0, 0.0, f)
                                     for d, f in (("a", 0.1), ("b", 0.2), ("c", 0.3))})
        assert rep.macro_f1 == ((0.1 + 0.2) + 0.3) / 3

    def test_domain_taken_from_gold(self):
        gold = [chain("s1", ["a", "b"], domain="hotels")]
        pred = [chain("s1", ["a", "b"], domain="whatever")]
        rep = evaluate_hierarchies(pred, gold)
        assert set(rep.per_domain) == {"hotels"}

    def test_rejects_duplicate_summaries(self):
        g = chain("s", ["a", "b"])
        with pytest.raises(DataError):
            evaluate_hierarchies([g, g], [g])

    def test_rejects_coverage_mismatch(self):
        with pytest.raises(DataError):
            evaluate_hierarchies([flat("s1", [c("a")])], [flat("s2", [c("a")])])


class TestPrCurve:
    def _fixture(self):
        # gold: {c} -> {a,b}; relations (a,b),(b,a),(c,a),(c,b)
        gold = Hierarchy(summary_id="s",
                         clusters=(c("a", "b"), c("cc")), parent={1: 0})
        scores = sm(["a", "b", "cc"],
                    {("a", "b"): 0.9, ("b", "a"): 0.8, ("cc", "a"): 0.7,
                     ("a", "cc"): 0.6, ("cc", "b"): 0.5, ("b", "cc"): 0.4})
        return scores, gold

    def test_hand_computed_points(self):
        scores, gold = self._fixture()
        curve = pr_curve(scores, gold)
        got = [(p.threshold, p.recall, p.precision) for p in curve.points]
        want = [(0.9, 0.25, 1.0), (0.8, 0.5, 1.0), (0.7, 0.75, 1.0),
                (0.6, 0.75, 0.75), (0.5, 1.0, 0.8), (0.4, 1.0, 4 / 6)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)

    def test_tied_scores_enter_as_one_block(self):
        gold = flat("s", [c("a", "b")])
        scores = sm(["a", "b"], {("a", "b"): 0.7, ("b", "a"): 0.7})
        curve = pr_curve(scores, gold)
        assert len(curve.points) == 1
        assert curve.points[0] == PRPoint(threshold=0.7, recall=1.0, precision=1.0)

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(51)
        for _ in range(50):
            gold = random_hierarchy(rng, rng.randrange(2, 8))
            scores = random_score_matrix(rng, len(gold.kp_ids))
            rel = derive_relations(gold)
            labelled = [(v, pair in rel) for pair, v in scores.scores.items()]
            want = pr_points_ref(labelled)
            got = [(p.threshold, p.recall, p.precision)
                   for p in pr_curve(scores, gold).points]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9)

    def test_pools_across_summaries(self):
        scores, gold = self._fixture()
        import dataclasses
        s2 = dataclasses.replace(scores, summary_id="t")
        g2 = dataclasses.replace(gold, summary_id="t")
        single = pr_curve(scores, gold)
        double = pr_curve([scores, s2], [gold, g2])
        assert [(p.recall, p.precision) for p in double.points] == \
            [(p.recall, p.precision) for p in single.points]

    def test_rejects_missing_scores(self):
        _, gold = self._fixture()
        with pytest.raises(DataError):
            pr_curve([], gold)

    def test_rejects_gold_key_point_without_scores(self):
        scores, gold = self._fixture()
        with pytest.raises(DataError, match=r"scores 's': unknown key points \['cc'\]"):
            pr_curve(scores.restrict(["a", "b"]), gold)

    def test_rejects_duplicate_score_matrices(self):
        scores, gold = self._fixture()
        with pytest.raises(DataError):
            pr_curve([scores, scores], gold)


class TestAucAtMinRecall:
    def _curve(self, pts):
        return PRCurve(points=tuple(
            PRPoint(threshold=1.0 - i * 0.1, recall=r, precision=p)
            for i, (r, p) in enumerate(pts)))

    def test_three_point_polyline(self):
        # trapezoids: (0.6-0.2)*(1.0+0.5)/2 + (1.0-0.6)*(0.5+0.25)/2
        curve = self._curve([(0.2, 1.0), (0.6, 0.5), (1.0, 0.25)])
        assert auc_at_min_recall(curve, 0.1) == pytest.approx(0.45, abs=1e-12)

    def test_interpolates_at_min_recall(self):
        # segment (0.05,1.0)-(0.6,0.5) crossed at 0.1 with precision 21/22;
        # area = 0.5 * (21/22 + 0.5) / 2 = 4/11
        curve = self._curve([(0.05, 1.0), (0.6, 0.5)])
        assert auc_at_min_recall(curve, 0.1) == pytest.approx(4 / 11, abs=1e-12)

    def test_constant_precision_rectangle(self):
        curve = self._curve([(0.3, 0.8), (1.0, 0.8)])
        assert auc_at_min_recall(curve, 0.1) == pytest.approx(0.56, abs=1e-12)

    def test_zero_when_recall_never_reaches_min(self):
        curve = self._curve([(0.05, 1.0)])
        assert auc_at_min_recall(curve, 0.1) == 0.0

    def test_zero_on_empty_curve(self):
        assert auc_at_min_recall(PRCurve(points=()), 0.1) == 0.0

    def test_perfect_scorer_scores_point_nine(self):
        # 10 positives with distinct scores above every negative: recall
        # hits 0.1, 0.2, ..., 1.0 at precision 1, so the area over
        # [0.1, 1.0] is exactly 0.9.
        gold = chain("s", [f"k{i}" for i in range(5)])
        ids = sorted(gold.kp_ids)
        rel = sorted(derive_relations(gold))
        assert len(rel) == 10
        scores = {}
        pos_iter = iter([0.99 - 0.01 * i for i in range(10)])
        neg_iter = iter([0.2 - 0.01 * i for i in range(10)])
        for a in ids:
            for b in ids:
                if a != b:
                    scores[(a, b)] = next(pos_iter) if (a, b) in set(rel) else next(neg_iter)
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids), scores=scores)
        curve = pr_curve(m, gold)
        assert auc_at_min_recall(curve, 0.1) == pytest.approx(0.9, abs=1e-9)


class TestPrCurveValidation:
    def test_rejects_decreasing_recall(self):
        with pytest.raises((DataError, ValueError)):
            PRCurve(points=(PRPoint(threshold=0.9, recall=0.5, precision=1.0),
                            PRPoint(threshold=0.8, recall=0.4, precision=1.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises((DataError, ValueError)):
            PRCurve(points=(PRPoint(threshold=0.9, recall=1.5, precision=1.0),))


class TestLocalBaseline:
    def test_pairs_above_tau(self):
        m = sm(["a", "b", "cc"], {("a", "b"): 0.9, ("b", "a"): 0.5, ("cc", "a"): 0.51})
        assert local_relations_baseline(m, 0.5) == {("a", "b"), ("cc", "a")}

    def test_matches_simple_comprehension(self):
        rng = random.Random(52)
        for _ in range(30):
            m = random_score_matrix(rng, rng.randrange(2, 8))
            tau = rng.choice([0.3, 0.5, 0.7])
            want = {pair for pair, v in m.scores.items() if v > tau}
            assert local_relations_baseline(m, tau) == want


class TestSpearman:
    def test_perfect_agreement(self):
        a = sm(["a", "b"], {("a", "b"): 0.2, ("b", "a"): 0.7})
        b = sm(["a", "b"], {("a", "b"): 0.3, ("b", "a"): 0.9})
        assert spearman_correlation(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_reversal(self):
        a = sm(["a", "b"], {("a", "b"): 0.2, ("b", "a"): 0.7})
        b = sm(["a", "b"], {("a", "b"): 0.9, ("b", "a"): 0.3})
        assert spearman_correlation(a, b) == pytest.approx(-1.0, abs=1e-12)

    def test_tied_ranks_use_midranks(self):
        # ranks 1..6 against midranks (1.5, 1.5, 3, 4, 5, 6). Pearson on
        # the rank vectors: covariance 17, variances 17.5 and 17, so
        # rho = 17 / sqrt(17.5 * 17).
        xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        ys = [0.15, 0.15, 0.3, 0.4, 0.5, 0.6]
        ids = ["a", "b", "cc"]
        pairs = sorted((s, d) for s in ids for d in ids if s != d)
        sa = {p: xs[k] for k, p in enumerate(pairs)}
        sb = {p: ys[k] for k, p in enumerate(pairs)}
        a = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids), scores=sa)
        b = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids), scores=sb)
        want = 17 / math.sqrt(17.5 * 17)
        assert spearman_correlation(a, b) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("levels", [None, 3, 6])
    def test_equals_scipy_spearmanr(self, levels):
        # levels=None draws continuous scores; a small count of levels forces ties
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(2306 + (levels or 0))

        def draw():
            return rng.random() if levels is None else rng.randrange(levels + 1) / levels

        checked = 0
        while checked < 400:
            ids = [f"k{i}" for i in range(rng.randrange(2, 8))]
            pairs = [(x, y) for x in ids for y in ids if x != y]
            sa = {p: draw() for p in pairs}
            sb = {p: draw() for p in pairs}
            if len(set(sa.values())) == 1 or len(set(sb.values())) == 1:
                continue  # constant scores are rejected, covered below
            want = stats.spearmanr([sa[p] for p in sorted(pairs)],
                                   [sb[p] for p in sorted(pairs)]).statistic
            assert spearman_correlation(sm(ids, sa), sm(ids, sb)) == want
            checked += 1

    def test_pairs_scores_by_key_point_id(self):
        rng = random.Random(7)
        a = random_score_matrix(rng, 5)
        b = random_score_matrix(rng, 5)
        shuffled = b.restrict(["k03", "k00", "k04", "k02", "k01"])
        assert spearman_correlation(a, b.restrict(sorted(b.kp_ids))) == \
            spearman_correlation(a, shuffled)
        assert spearman_correlation(a, a.restrict(shuffled.kp_ids)) == pytest.approx(1.0)

    def test_rejects_mismatched_pairs(self):
        a = sm(["a", "b"], {("a", "b"): 0.2, ("b", "a"): 0.7})
        b = sm(["a", "cc"], {("a", "cc"): 0.2, ("cc", "a"): 0.7})
        with pytest.raises(DataError):
            spearman_correlation(a, b)

    def test_rejects_constant_scores(self):
        a = sm(["a", "b"], {("a", "b"): 0.5, ("b", "a"): 0.5})
        b = sm(["a", "b"], {("a", "b"): 0.2, ("b", "a"): 0.7})
        with pytest.raises(DataError):
            spearman_correlation(a, b)


def _plateau_domain(num=4, domain="hotels"):
    """Identical summaries whose gold is perfectly recoverable for any
    tau in [0.10, 0.89], making the tie-break to the smallest tau visible."""
    golds = {}
    scores = {}
    for k in range(num):
        sid = f"s{k}"
        golds[sid] = Hierarchy(summary_id=sid, domain=domain,
                               clusters=(c("a", "b"), c("cc")), parent={})
        scores[sid] = sm(["a", "b", "cc"],
                         {("a", "b"): 0.9, ("b", "a"): 0.9}, default=0.1,
                         summary_id=sid)
    return scores, golds


class TestLooThresholdTuning:
    def test_plateau_resolves_to_smallest_tau(self):
        scores, golds = _plateau_domain()
        for grid, smallest in ((DEFAULT_TAU_GRID, 0.1), (DEFAULT_TAU_GRID[::-1], 0.1),
                               ((0.5, 0.25), 0.25)):
            for tune in (loo_threshold_tuning, loo_threshold_tuning_reference):
                chosen, report, _ = tune(scores, golds, build_reduced_forest, grid)
                assert chosen == {sid: smallest for sid in golds}, (tune.__name__, grid)
                assert report.per_domain["hotels"].f1 == pytest.approx(1.0, abs=1e-12)
                assert report.chosen_tau == chosen

    def test_two_summary_domain_uses_the_peer(self):
        scores, golds = _plateau_domain(num=2)
        chosen, report, _ = loo_threshold_tuning(scores, golds, build_reduced_forest)
        assert set(chosen) == {"s0", "s1"}
        assert report.per_domain["hotels"].f1 == pytest.approx(1.0, abs=1e-12)

    def test_held_out_gold_cannot_leak(self):
        scores, golds = _plateau_domain()
        chosen, _, _ = loo_threshold_tuning(scores, golds, build_reduced_forest)
        # corrupt the held-out summary's gold: its tau must not move,
        # because only the peers' gold may inform the choice
        corrupted = dict(golds)
        corrupted["s0"] = Hierarchy(summary_id="s0", domain="hotels",
                                    clusters=(c("a"), c("b"), c("cc")),
                                    parent={0: 2, 1: 2})
        chosen2, _, _ = loo_threshold_tuning(scores, corrupted, build_reduced_forest)
        assert chosen2["s0"] == chosen["s0"]

    def test_returns_each_hierarchy_at_its_chosen_tau_built_once(self):
        scores, golds = _plateau_domain()
        calls = []

        def builder(s, tau):
            calls.append((s.summary_id, tau))
            return build_reduced_forest(s, tau)

        chosen, _, built = loo_threshold_tuning(scores, golds, builder, tau_grid=[0.1, 0.5, 0.95])
        assert len(calls) == len(set(calls)) == 12
        assert sorted(built) == sorted(golds)
        for sid, h in built.items():
            assert h == build_reduced_forest(scores[sid], chosen[sid])

    def test_singleton_domain_rejected(self):
        scores, golds = _plateau_domain(num=1)
        with pytest.raises(DataError, match="hotels"):
            loo_threshold_tuning(scores, golds, build_reduced_forest)

    def test_custom_grid(self):
        scores, golds = _plateau_domain()
        chosen, _, _ = loo_threshold_tuning(scores, golds, build_reduced_forest,
                                            tau_grid=[0.25, 0.75])
        assert chosen == {sid: 0.25 for sid in golds}

    def test_domains_tuned_independently(self):
        scores_a, golds_a = _plateau_domain(num=2, domain="hotels")
        scores_b, golds_b = _plateau_domain(num=2, domain="restaurants")
        scores = dict(scores_a)
        golds = dict(golds_a)
        for sid in list(scores_b):
            scores[sid + "r"] = ScoreMatrix.from_pairs(summary_id=sid + "r",
                                                       kp_ids=scores_b[sid].kp_ids,
                                                       scores=scores_b[sid].scores)
            g = golds_b[sid]
            golds[sid + "r"] = Hierarchy(summary_id=sid + "r", domain=g.domain,
                                         clusters=g.clusters, parent=dict(g.parent))
        chosen, report, _ = loo_threshold_tuning(scores, golds, build_reduced_forest)
        assert set(report.per_domain) == {"hotels", "restaurants"}
        assert len(chosen) == 4


def _memoised_reduced_forest():
    """reduced_forest built once per threshold graph, as ``kph tune`` builds it."""
    forests = {}

    def builder(s, tau):
        key = (s.summary_id, tuple(v > tau for row in s.values for v in row))
        if key not in forests:
            forests[key] = build_reduced_forest(s, tau)
        return forests[key]

    return builder


LOO_BUILDERS = {
    "reduced_forest": lambda: build_reduced_forest,
    "reduced_forest_memoised": _memoised_reduced_forest,
    "tncf": lambda: build_tncf,
    "greedy": lambda: build_greedy,
    "greedy_gs": lambda: build_greedy_gs,
}


def _coarse_score_matrix(rng, n, sid):
    """Scores on a 0.1 grid, so taus often share a threshold graph and F1s tie."""
    ids = tuple(f"k{i:02d}" for i in range(n))
    return ScoreMatrix.from_pairs(summary_id=sid, kp_ids=ids, scores={
        (a, b): rng.randint(0, 10) / 10 for a in ids for b in ids if a != b})


def _random_loo_case(rng):
    """Domains of 2 to 5 summaries; some golds induce no relations, some lack a key
    point, and in some domains two golds carry each other's summary ids."""
    scores, golds = {}, {}
    for d in range(rng.randint(1, 3)):
        size = rng.randint(2, 5)
        for k in range(size):
            sid, dom, n = f"d{d}s{k}", f"dom{d}", rng.randint(1, 6)
            scores[sid] = _coarse_score_matrix(rng, n, sid)
            r = rng.random()
            if r < 0.25:
                golds[sid] = Hierarchy(summary_id=sid, domain=dom,
                                       clusters=tuple(c(x) for x in scores[sid].kp_ids))
            elif r < 0.28 and n > 1:
                golds[sid] = random_hierarchy(rng, n - 1, summary_id=sid, domain=dom)
            else:
                golds[sid] = random_hierarchy(rng, n, summary_id=sid, domain=dom)
        if rng.random() < 0.1:
            a, b = f"d{d}s0", f"d{d}s{size - 1}"
            golds[a], golds[b] = (dataclasses.replace(golds[a], summary_id=b),
                                  dataclasses.replace(golds[b], summary_id=a))
    grid = rng.choices([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0], k=rng.randint(1, 7))
    return scores, golds, grid


def _loo_outcome(tune, scores, golds, builder, grid):
    try:
        chosen, report, built = tune(scores, golds, builder, grid)
    except DataError as exc:
        return "DataError", str(exc)
    return (chosen, dict(report.per_domain), report.chosen_tau, report.provenance,
            {sid: h.canonical_form() for sid, h in built.items()})


def _loo_outcomes(scores, golds, make_builder, grid):
    """The outcomes of the package's LOO and of the reference, each with a fresh builder."""
    return tuple(_loo_outcome(tune, scores, golds, make_builder(), grid)
                 for tune in (loo_threshold_tuning, loo_threshold_tuning_reference))


class TestLooMatchesReference:
    """Summed per-summary tallies against one pooled relation_f1 per peer set and tau."""

    @pytest.mark.parametrize("name", sorted(LOO_BUILDERS))
    def test_random_domains(self, name):
        rng = random.Random(808)
        outcomes = []
        for _ in range(40):
            scores, golds, grid = _random_loo_case(rng)
            new, ref = _loo_outcomes(scores, golds, LOO_BUILDERS[name], grid)
            assert new == ref
            outcomes.append(new)
        # the seeded cases reach both an error and a peer set with no relations at all
        assert any(o[0] == "DataError" for o in outcomes)
        assert any(m == (1.0, 1.0, 1.0) for o in outcomes if o[0] != "DataError"
                   for m in o[1].values())

    def test_single_summary_domain_same_error(self):
        scores, golds = _plateau_domain(num=1)
        new, ref = _loo_outcomes(scores, golds, LOO_BUILDERS["reduced_forest"], [0.5])
        assert new == ref
        assert new[0] == "DataError" and "single summary" in new[1]

    def test_key_point_missing_from_gold_same_error(self):
        scores, golds = _plateau_domain(num=3)
        golds["s2"] = Hierarchy(summary_id="s2", domain="hotels", clusters=(c("a", "b"),))
        new, ref = _loo_outcomes(scores, golds, LOO_BUILDERS["reduced_forest"], [0.5])
        assert new == ref
        assert new == ("DataError", "summary 's2': predicted hierarchy uses key points "
                                    "not in gold: ['cc']")

    def test_each_built_hierarchy_and_gold_derived_once(self, monkeypatch):
        rng = random.Random(5)
        scores = {f"s{k}": _coarse_score_matrix(rng, 5, f"s{k}") for k in range(4)}
        golds = {sid: random_hierarchy(rng, 5, summary_id=sid, domain="hotels")
                 for sid in scores}
        grid = [0.1 * k for k in range(11)]
        derived = []
        derive = Hierarchy.relations.func
        counting = functools.cached_property(lambda h: derived.append(h) or derive(h))
        counting.__set_name__(Hierarchy, "relations")
        monkeypatch.setattr(Hierarchy, "relations", counting)
        memoised = _memoised_reduced_forest()
        builds = []

        def builder(s, tau):
            builds.append(memoised(s, tau))
            return builds[-1]

        _, _, final = loo_threshold_tuning(scores, golds, builder, grid)
        objects = {id(h) for h in builds}
        # each distinct built object and each gold derives its relations
        # once; the final report reads them again without deriving
        assert len(derived) == len(objects) + len(golds)


class TestBruteForce:
    def test_mutual_pair_co_clusters(self):
        m = sm(["a", "b"], {("a", "b"): 0.9, ("b", "a"): 0.9})
        h, obj = brute_force_optimal_kph(m, 0.5)
        assert h.clusters == (c("a", "b"),)
        assert obj == pytest.approx(0.8, abs=1e-12)

    def test_one_directional_pair_becomes_edge(self):
        m = sm(["a", "b"], {("b", "a"): 0.9}, default=0.1)
        h, obj = brute_force_optimal_kph(m, 0.5)
        assert h.parent == {1: 0}
        assert h.clusters == (c("a"), c("b"))
        assert obj == pytest.approx(0.4, abs=1e-12)

    def test_all_below_tau_returns_singletons(self):
        m = sm(["a", "b", "cc"], {}, default=0.2)
        h, obj = brute_force_optimal_kph(m, 0.5)
        assert h.parent == {} and len(h.clusters) == 3
        assert obj == 0.0

    def test_objective_tie_prefers_canonically_smaller(self):
        # c -> a and c -> b tie at 0.2; the canonical comparison picks the
        # structure whose edge list sorts first, which is c -> a.
        m = sm(["a", "b", "cc"], {("cc", "a"): 0.7, ("cc", "b"): 0.7}, default=0.1)
        h, obj = brute_force_optimal_kph(m, 0.5)
        assert obj == pytest.approx(0.2, abs=1e-12)
        assert {(h.clusters[cd], h.clusters[p]) for cd, p in h.parent.items()} == \
            {(c("cc"), c("a"))}

    def test_dominates_every_builder(self):
        rng = random.Random(53)
        builders = [lambda m, t: build_reduced_forest(m, t),
                    lambda m, t: build_tncf(m, t),
                    lambda m, t: build_greedy(m, t),
                    lambda m, t: build_greedy_gs(m, t)]
        for _ in range(40):
            m = random_score_matrix(rng, rng.randrange(2, 6))
            tau = rng.choice([0.3, 0.5, 0.7])
            _, best = brute_force_optimal_kph(m, tau)
            for b in builders:
                assert best >= objective_value(b(m, tau), m, tau) - 1e-9

    def test_reported_objective_matches_structure(self):
        rng = random.Random(54)
        for _ in range(20):
            m = random_score_matrix(rng, rng.randrange(2, 6))
            h, obj = brute_force_optimal_kph(m, 0.5)
            assert obj == pytest.approx(objective_value(h, m, 0.5), abs=1e-12)

    def test_size_guard(self):
        rng = random.Random(55)
        m = random_score_matrix(rng, 8)
        with pytest.raises(ValueError):
            brute_force_optimal_kph(m, 0.5)
