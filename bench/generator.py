"""Seeded corpora of planted key point hierarchies, written in the FORMATS.md formats.

Each summary gets a random forest of key point clusters. Sentence supports
are planted top-down: a cluster's support is its own block of sentences
plus the supports of its children, so along every planted edge the child's
support nests strictly inside the parent's, siblings are disjoint, and the
members of one cluster share one support. Flip noise then drops a share of
each key point's support and adds as many stray sentences. Filtered key
points get a random support and stay out of the gold forest. An external
entailment-style score file carries the planted relations plus Gaussian
noise.

The generator writes files only; it imports nothing from the program, so
the program sees nothing but the bytes written here.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus."""

    domains: int
    summaries_per_domain: int
    key_points: tuple[int, ...]  # per summary, cycled
    filtered: tuple[int, ...]  # per summary, cycled
    sentences: int
    flip: float  # share of each support dropped, and of stray sentences added
    entail_sd: float  # Gaussian noise of the external scores

    def summary_shapes(self):
        """(summary_id, domain, n_key_points, n_filtered) for every summary."""
        k = 0
        for d in range(self.domains):
            for j in range(self.summaries_per_domain):
                yield (f"d{d}_s{j}", f"dom{d}",
                       self.key_points[k % len(self.key_points)],
                       self.filtered[k % len(self.filtered)])
                k += 1


@dataclass(frozen=True)
class PlantedSummary:
    summary_id: str
    domain: str
    kp_ids: tuple[str, ...]
    filtered: frozenset[str]
    clusters: tuple[tuple[str, ...], ...]  # canonical order
    edges: tuple[tuple[int, int], ...]  # (child, parent), sorted
    values: np.ndarray  # sentences x key points
    entail: np.ndarray  # key points x key points

    def relations(self) -> set[tuple[str, str]]:
        return forest_relations(self.clusters, self.edges)


def forest_relations(clusters, edges) -> set[tuple[str, str]]:
    """(specific, general) pairs of a forest: co-clustered, or below in the forest."""
    parent = {c: p for c, p in edges}
    out = set()
    for c, members in enumerate(clusters):
        above = list(members)
        seen = {c}
        cur = c
        while cur in parent and parent[cur] not in seen:
            cur = parent[cur]
            seen.add(cur)
            above.extend(clusters[cur])
        out.update((x, y) for x in members for y in above if x != y)
    return out


def _rng(seed: int, label: str) -> np.random.Generator:
    # Seed sequences take non-negative entropy only; negative seeds wrap.
    return np.random.default_rng([seed % (1 << 64), zlib.crc32(label.encode())])


COCLUSTER = 0.15  # chance that a key point joins an existing cluster of at most 2
MAX_DEPTH = 3


def _plant_forest(rng, ids: list[str]):
    blocks: list[list[str]] = []
    for x in ids:
        small = [b for b in blocks if len(b) < 3]
        if small and rng.random() < COCLUSTER:
            small[rng.integers(len(small))].append(x)
        else:
            blocks.append([x])
    depth = [0] * len(blocks)
    parent: dict[int, int] = {}
    for c in range(1, len(blocks)):
        if rng.random() < 0.7:
            options = [p for p in range(c) if depth[p] < MAX_DEPTH - 1]
            if options:
                p = options[rng.integers(len(options))]
                parent[c] = p
                depth[c] = depth[p] + 1
    return blocks, parent


def _plant_supports(rng, n_sentences: int, n_clusters: int, parent: dict[int, int]):
    """Sentence index sets per cluster, nested along the planted edges."""
    children: dict[int, list[int]] = {c: [] for c in range(n_clusters)}
    for c, p in sorted(parent.items()):
        children[p].append(c)
    # A cluster's own block is at least as large as its children's supports
    # together, so no child covers more than about half of its parent. Own
    # blocks hold at least one sentence and 85% of all sentences in total.
    spare = int(0.85 * n_sentences) - n_clusters
    if spare < 0:
        raise ValueError(f"{n_sentences} sentences cannot hold {n_clusters} planted clusters")
    own_w = rng.uniform(0.5, 1.5, size=n_clusters)
    size_w = np.zeros(n_clusters)
    for c in reversed(range(n_clusters)):  # parents precede their children
        below = sum(size_w[k] for k in children[c])
        own_w[c] = max(own_w[c], below)
        size_w[c] = own_w[c] + below
    own = [1 + int(spare * w / own_w.sum()) for w in own_w]
    size = [0] * n_clusters
    for c in reversed(range(n_clusters)):
        size[c] = own[c] + sum(size[k] for k in children[c])
    roots = [c for c in range(n_clusters) if c not in parent]
    order = rng.permutation(n_sentences)
    support: dict[int, np.ndarray] = {}

    def place(c: int, block: np.ndarray) -> None:
        support[c] = block
        start = own[c]
        for k in children[c]:
            place(k, block[start:start + size[k]])
            start += size[k]

    start = 0
    for r in roots:
        place(r, order[start:start + size[r]])
        start += size[r]
    return support


def plant_summary(spec: CorpusSpec, seed: int, summary_id: str, domain: str,
                  n_kp: int, n_filtered: int) -> PlantedSummary:
    rng = _rng(seed, summary_id)
    ids = [f"k{i:03d}" for i in range(n_kp)]
    filtered = set(rng.choice(ids, size=n_filtered, replace=False).tolist())
    kept = [x for x in ids if x not in filtered]
    blocks, parent = _plant_forest(rng, kept)
    support = _plant_supports(rng, spec.sentences, len(blocks), parent)

    n = spec.sentences
    member = np.zeros((n, n_kp), dtype=bool)
    col = {x: j for j, x in enumerate(ids)}
    for c, members in enumerate(blocks):
        for x in members:
            member[support[c], col[x]] = True
    for x in sorted(filtered):
        size = int(rng.integers(2, max(3, n // 10)))
        member[rng.choice(n, size=size, replace=False), col[x]] = True
    if spec.flip > 0:
        for j in range(n_kp):
            inside = np.flatnonzero(member[:, j])
            outside = np.flatnonzero(~member[:, j])
            drop = inside[rng.random(len(inside)) < spec.flip]
            if len(drop) == len(inside):
                drop = drop[1:]  # keep every support nonempty
            add = rng.choice(outside, size=min(len(outside), len(drop)), replace=False)
            member[drop, j] = False
            member[add, j] = True
    high = rng.uniform(0.55, 1.0, size=member.shape)
    low = np.where(rng.random(member.shape) < 0.7, 0.0, rng.uniform(0.0, 0.45, size=member.shape))
    values = np.round(np.where(member, high, low), 6)

    # Canonical cluster order (sorted members), as the hierarchy format wants.
    order = sorted(range(len(blocks)), key=lambda c: sorted(blocks[c]))
    remap = {old: new for new, old in enumerate(order)}
    clusters = tuple(tuple(sorted(blocks[c])) for c in order)
    edges = tuple(sorted((remap[c], remap[p]) for c, p in parent.items()))
    rel = forest_relations(clusters, edges)
    base = np.array([[0.8 if (a, b) in rel else 0.2 for b in ids] for a in ids])
    entail = np.clip(base + rng.normal(0.0, spec.entail_sd, size=base.shape), 0.0, 1.0)
    return PlantedSummary(summary_id, domain, tuple(ids), frozenset(filtered),
                          clusters, edges, values, np.round(entail, 6))


def plant_corpus(spec: CorpusSpec, seed: int) -> list[PlantedSummary]:
    return [plant_summary(spec, seed, sid, dom, n_kp, n_f)
            for sid, dom, n_kp, n_f in spec.summary_shapes()]


def _f6(v: float) -> str:
    return f"{v:.6f}"


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(root: Path, p: PlantedSummary) -> None:
    d = root / p.summary_id
    d.mkdir(parents=True, exist_ok=True)
    polarity = "negative" if zlib.crc32(p.summary_id.encode()) % 2 else "positive"
    counts = (p.values >= 0.5).sum(axis=0)
    kp_lines = [json.dumps({"kind": "key_point_set", "summary_id": p.summary_id,
                            "domain": p.domain})]
    for j, x in enumerate(p.kp_ids):
        kp_lines.append(json.dumps({
            "id": x, "text": f"aspect {x} of {p.summary_id}", "polarity": polarity,
            "match_count": int(counts[j]), "filtered": x in p.filtered}))
    _write(d / "key_points.jsonl", kp_lines)

    mm = [f"# summary_id={p.summary_id} domain={p.domain}",
          ",".join(["sentence_id", *p.kp_ids])]
    mm += [f"s{i}," + ",".join(map(_f6, row)) for i, row in enumerate(p.values.tolist())]
    _write(d / "match_matrix.csv", mm)

    _write(d / "gold.jsonl", [json.dumps({
        "kind": "hierarchy", "summary_id": p.summary_id, "domain": p.domain,
        "clusters": [list(c) for c in p.clusters],
        "edges": [list(e) for e in p.edges]})])

    ent = [json.dumps({"kind": "scores", "summary_id": p.summary_id, "scorer": "entail",
                       "params": {}, "kp_ids": list(p.kp_ids)})]
    rows = p.entail.tolist()
    for a, x in enumerate(p.kp_ids):
        for b, y in enumerate(p.kp_ids):
            if a != b:
                ent.append(f'{{"src": "{x}", "dst": "{y}", "score": {_f6(rows[a][b])}}}')
    _write(d / "scores_entail.jsonl", ent)


def write_corpus(root: Path, spec: CorpusSpec, seed: int) -> list[PlantedSummary]:
    """Plant and write every summary of the spec under root."""
    planted = plant_corpus(spec, seed)
    for p in planted:
        write_summary(Path(root), p)
    return planted
