"""Building key point hierarchies with the four construction algorithms.

A hierarchy is a forest over clusters of equivalent key points, with edges
pointing from the more specific cluster to the more general one. All four
builders consume the same directional score matrix and threshold tau:

  reduced_forest  threshold graph -> merge mutual pairs -> transitive reduction
  tncf            local search on top of reduced_forest, moving nodes and
                  clusters while the objective (sum of s - tau over induced
                  relations) strictly improves
  greedy          average-linkage clustering, then adds edges best first
  greedy_gs       same clustering, but each cluster picks the parent whose
                  whole ancestor chain scores best, not just the direct edge

Run:  python3 demos/02_build_hierarchies.py
"""

from kph import (
    ConstructionConfig,
    ScoreMatrix,
    build_hierarchy,
    derive_relations,
    objective_value,
    ALGORITHMS,
)

KP_TEXTS = {
    "kp0": "Great location",
    "kp1": "Close to the beach",
    "kp2": "Steps from the sand",
    "kp3": "Friendly staff",
    "kp4": "Staff remembered our names",
    "kp5": "Overpriced minibar",
}


def hand_scores():
    """Directional scores sketching two branches plus one isolated key point.

    kp1 and kp2 mutually entail each other (both say "beach"), and both
    entail kp0. kp4 entails kp3. kp5 relates to nothing.
    """
    ids = sorted(KP_TEXTS)
    strong = {
        ("kp1", "kp0"): 0.92,
        ("kp2", "kp0"): 0.88,
        ("kp1", "kp2"): 0.90,
        ("kp2", "kp1"): 0.90,
        ("kp4", "kp3"): 0.85,
    }
    scores = {}
    for a in ids:
        for b in ids:
            if a != b:
                scores[(a, b)] = strong.get((a, b), 0.05)
    return ScoreMatrix.from_pairs(summary_id="hotel_demo_pos", kp_ids=ids, scores=scores)


def print_tree(h):
    def label(c):
        texts = " / ".join(KP_TEXTS[k] for k in sorted(h.clusters[c]))
        return f"[{texts}]"

    def walk(c, depth):
        print("      " + "    " * depth + label(c))
        for child in h.children(c):
            walk(child, depth + 1)

    for root in h.roots():
        walk(root, 0)


def main():
    s = hand_scores()
    tau = 0.5

    for algo in ALGORITHMS:
        h = build_hierarchy(s, ConstructionConfig(tau=tau, algorithm=algo))
        obj = objective_value(h, s, tau)
        rels = len(derive_relations(h))
        print(f"{algo}: {h.num_clusters} clusters, {rels} induced relations, "
              f"objective {obj:.2f}")
        print_tree(h)
        print()

    # On scores this clean the four algorithms agree. They split when the
    # best direct parent is not the best ancestor chain: d scores 0.8 with
    # z but 0.7 with b, and b sits under a, so routing d through b picks up
    # the extra (d, a) relation.
    ids = ["a", "b", "d", "z"]
    tricky = {("b", "a"): 0.9, ("d", "z"): 0.8, ("d", "b"): 0.7, ("d", "a"): 0.6}
    scores = {(x, y): tricky.get((x, y), 0.05) for x in ids for y in ids if x != y}
    s2 = ScoreMatrix.from_pairs(summary_id="tricky", kp_ids=ids, scores=scores)

    print("a score matrix where the two greedy variants disagree:")
    for algo in ("greedy", "greedy_gs"):
        h = build_hierarchy(s2, ConstructionConfig(tau=tau, algorithm=algo))
        edges = sorted(
            (sorted(h.clusters[c])[0], sorted(h.clusters[p])[0])
            for c, p in h.parent.items())
        total = sum(s2.score(x, y) for x, y in derive_relations(h))
        print(f"  {algo:10s} edges {edges}  summed relation score {total:.2f}")


if __name__ == "__main__":
    main()
