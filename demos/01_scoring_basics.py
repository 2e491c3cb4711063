"""From a match matrix to directional key point scores.

A summary's match matrix holds, for every (sentence, key point) pair, the
likelihood that the sentence expresses the key point. A key point's support
is the set of sentences matching it with weight >= 0.5; directional
scorers then measure how much of one key point's support is covered by
another's. High s(i -> j) with low s(j -> i) suggests i is the more
specific statement.

Run:  python3 demos/01_scoring_basics.py
"""

import numpy as np

from kph import (
    MatchMatrix,
    compute_score_matrix,
    combine_average,
    spearman_correlation,
    SCORERS,
)

KP_TEXTS = {
    "kp0": "Great location",
    "kp1": "Close to the beach",
    "kp2": "Friendly staff",
    "kp3": "Rooms were spotless",
}

# Eight review sentences. kp1 (beach) matches a subset of the sentences
# that kp0 (location) matches, so kp1 -> kp0 should score high and the
# reverse direction low. kp2 and kp3 live on disjoint sentences.
MATCH = np.array([
    #  kp0   kp1   kp2   kp3
    [0.95, 0.90, 0.00, 0.00],   # "right on the beach"
    [0.90, 0.85, 0.00, 0.00],   # "steps from the sand"
    [0.80, 0.10, 0.00, 0.00],   # "close to restaurants"
    [0.70, 0.00, 0.00, 0.00],   # "easy walk downtown"
    [0.00, 0.00, 0.90, 0.00],   # "staff were lovely"
    [0.00, 0.00, 0.85, 0.10],   # "reception was helpful"
    [0.00, 0.00, 0.00, 0.95],   # "room was spotless"
    [0.30, 0.00, 0.00, 0.80],   # "clean and well located"
])


def main():
    m = MatchMatrix(
        summary_id="hotel_demo_pos",
        sentence_ids=[f"s{i}" for i in range(MATCH.shape[0])],
        kp_ids=list(KP_TEXTS),
        values=MATCH,
        domain="hotels",
    )

    print("feature vectors (support = sentences with match weight >= 0.5):")
    support = m.values >= 0.5
    for j, kp_id in enumerate(m.kp_ids):
        sup = ", ".join(m.sentence_ids[i] for i in np.flatnonzero(support[:, j]))
        print(f"  {kp_id}  {KP_TEXTS[kp_id]!r:28s} support = {{{sup}}}")
    print()

    # The same pair under all four scorers. BinInc only counts sentences,
    # the weighted variants also look at the match strengths.
    matrices = {name: compute_score_matrix(m, name) for name in sorted(SCORERS)}
    print("directional scores for the specific -> general pair:")
    for name, sm in matrices.items():
        fwd = sm.score("kp1", "kp0")
        rev = sm.score("kp0", "kp1")
        print(f"  {name:10s}  beach -> location = {fwd:.4f}    location -> beach = {rev:.4f}")
    print()

    bininc = matrices["bininc"]
    print("full bininc matrix (row = candidate specific, column = candidate general):")
    ids = list(KP_TEXTS)
    print("          " + "".join(f"{j:>8s}" for j in ids))
    for i in ids:
        row = "".join("     ---" if i == j else f"{bininc.score(i, j):8.3f}" for j in ids)
        print(f"  {i:>6s}  {row}")
    print()

    both = combine_average(matrices["bininc"], matrices["apinc"])
    print(f"combine_average(bininc, apinc) tags itself as scorer={both.scorer!r}")
    print(f"  beach -> location under the average: {both.score('kp1', 'kp0'):.4f}")
    rho = spearman_correlation(matrices["bininc"], matrices["weedsprec"])
    print(f"  spearman(bininc, weedsprec) over all 12 ordered pairs: {rho:.4f}")


if __name__ == "__main__":
    main()
