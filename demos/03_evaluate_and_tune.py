"""Evaluating predicted hierarchies and tuning tau without a dev split.

Predictions are judged on the set of key point relations they induce
(pairs that are co-clustered or connected through ancestors), pooled per
domain and macro-averaged across domains. The score matrices themselves
can be judged before any tree is built, via a precision/recall curve over
all ordered pairs. Finally, leave-one-out tuning picks each summary's tau
on the other summaries of its domain, so no summary tunes on its own gold.

Run:  python3 demos/03_evaluate_and_tune.py
"""

from kph import (
    ConstructionConfig,
    Hierarchy,
    ScoreMatrix,
    auc_at_min_recall,
    build_hierarchy,
    derive_relations,
    evaluate_hierarchies,
    local_relations_baseline,
    loo_threshold_tuning,
    pr_curve,
)

DOMAINS = {"hotels": ["h1", "h2"], "restaurants": ["r1", "r2"]}


def make_summary(sid, domain, jitter):
    """One summary: chain k1 -> k0, cluster {k2, k3}, k4 isolated.

    Relation pairs score around 0.8, noise around 0.1. h1 also carries a
    0.45 distractor pair, strong enough to fool a low tau but not a good
    one.
    """
    ids = [f"{sid}_k{i}" for i in range(5)]
    k = lambda i: ids[i]
    strong = {
        (k(1), k(0)): 0.85 + jitter,
        (k(2), k(3)): 0.80 + jitter,
        (k(3), k(2)): 0.79 + jitter,
    }
    scores = {}
    for a in ids:
        for b in ids:
            if a != b:
                scores[(a, b)] = strong.get((a, b), 0.05 + jitter)
    if sid == "h1":
        scores[(k(4), k(0))] = 0.45
    s = ScoreMatrix.from_pairs(summary_id=sid, kp_ids=ids, scores=scores)
    gold = Hierarchy(
        summary_id=sid,
        clusters=(frozenset({k(0)}), frozenset({k(1)}),
                  frozenset({k(2), k(3)}), frozenset({k(4)})),
        parent={1: 0},
        domain=domain,
    )
    return s, gold


def main():
    scores, gold = {}, {}
    jitter = 0.0
    for domain, sids in DOMAINS.items():
        for sid in sids:
            scores[sid], gold[sid] = make_summary(sid, domain, jitter)
            jitter += 0.01

    def build(s, tau):
        return build_hierarchy(s, ConstructionConfig(tau=tau, algorithm="tncf"))

    # Fixed tau evaluation. tau=0.3 lets h1's 0.45 distractor through.
    for tau in (0.3, 0.5):
        preds = []
        for sid in sorted(scores):
            h = build(scores[sid], tau)
            preds.append(Hierarchy(h.summary_id, h.clusters, h.parent,
                                   domain=gold[sid].domain))
        report = evaluate_hierarchies(preds, gold.values())
        print(f"fixed tau = {tau}:")
        for dom, m in report.per_domain.items():
            print(f"  {dom:12s} P={m.precision:.3f} R={m.recall:.3f} F1={m.f1:.3f}")
        print(f"  {'macro':12s} F1={report.macro_f1:.3f}")
        print()

    # Score quality independent of any builder: pooled PR curve and the
    # area under it for recall >= 0.1.
    curve = pr_curve(scores.values(), gold.values())
    print(f"pooled PR curve has {len(curve.points)} points, "
          f"max recall {curve.max_recall:.2f}")
    for p in curve.points[:4]:
        print(f"  threshold {p.threshold:.2f}  recall {p.recall:.3f}  "
              f"precision {p.precision:.3f}")
    print(f"  ... AUC(recall >= 0.1) = {auc_at_min_recall(curve):.4f}")
    print()

    # A no-structure baseline: every pair above tau counts as a relation.
    flagged = local_relations_baseline(scores["h1"], 0.4)
    gold_rels = derive_relations(gold["h1"])
    extra = sorted(flagged - set(gold_rels))
    print(f"local baseline on h1 at tau=0.4 flags {len(flagged)} pairs; "
          f"not in gold: {extra}")
    print()

    # Leave-one-out tau tuning over a grid, per domain.
    chosen, report, _ = loo_threshold_tuning(scores, gold, build,
                                             tau_grid=(0.3, 0.5, 0.7, 0.9))
    print("leave-one-out tuning on grid (0.3, 0.5, 0.7, 0.9):")
    for sid in sorted(chosen):
        print(f"  {sid}: tau = {chosen[sid]}")
    print(f"  held-out macro F1 = {report.macro_f1:.3f}")
    print("  (h2 sees the distractor in its peer h1 and picks 0.5; h1's peer is")
    print("  clean, so ties go to the smallest tau. A summary's own gold never")
    print("  influences its own tau, which is the point of leaving it out.)")


if __name__ == "__main__":
    main()
