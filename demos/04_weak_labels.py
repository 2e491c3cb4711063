"""Exporting weak entailment labels for training a pair classifier.

Directional scores double as silver supervision: pairs scoring above a
threshold become (premise, hypothesis, entail) examples, everything else
is a neutral candidate, and the neutrals are downsampled to a fixed ratio
so the exported set is not swamped by non-relations. Sampling is seeded,
so a rerun reproduces the file byte for byte.

Run:  python3 demos/04_weak_labels.py
"""

import tempfile
from pathlib import Path

from kph import KeyPoint, KeyPointSet, ScoreMatrix, export_weak_labels
from kph.io import write_weak_labels

TEXTS = {
    "kp0": "Great location",
    "kp1": "Close to the beach",
    "kp2": "Friendly staff",
    "kp3": "Rooms were spotless",
    "kp4": "Uncomfortable pillows",
    "kp5": "Would stay again",
}


def main():
    ids = sorted(TEXTS)
    kps = KeyPointSet(
        summary_id="hotel_demo_pos",
        domain="hotels",
        key_points=tuple(KeyPoint(id=k, text=TEXTS[k]) for k in ids),
    )
    # 30 ordered pairs; two of them look like real entailments.
    strong = {("kp1", "kp0"): 0.9, ("kp3", "kp0"): 0.62}
    scores = ScoreMatrix.from_pairs(
        summary_id="hotel_demo_pos",
        kp_ids=ids,
        scores={(a, b): strong.get((a, b), 0.08 + 0.01 * ids.index(b))
                for a in ids for b in ids if a != b},
    )

    labels = export_weak_labels(scores, kps, threshold=0.5, neg_ratio=3, seed=7)
    print(f"exported {len(labels.records)} records: "
          f"{labels.num_positive} entail, {labels.num_negative} neutral "
          f"(ratio {labels.neg_ratio}, seed {labels.seed})")
    for r in labels.records:
        print(f"  {r.label:8s} {r.score:.2f}  {r.premise!r} -> {r.hypothesis!r}")
    print()

    again = export_weak_labels(scores, kps, threshold=0.5, neg_ratio=3, seed=7)
    other = export_weak_labels(scores, kps, threshold=0.5, neg_ratio=3, seed=8)
    print(f"same seed reproduces the sample: {again == labels}")
    print(f"a different seed draws different neutrals: {other != labels}")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "weak_labels.jsonl"
        write_weak_labels(out, labels)
        lines = out.read_text().splitlines()
    print("serialized form (header plus first record):")
    for line in lines[:2]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
