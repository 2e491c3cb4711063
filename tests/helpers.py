"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import random

import numpy as np

from kph import Hierarchy, MatchMatrix, ScoreMatrix, canonical_hierarchy, compute_score_matrix


def pair_score(scorer: str, wi, wj, theta: float = 0.5) -> float:
    """s(i, j) from compute_score_matrix on the two-column match matrix [wi, wj]."""
    values = np.column_stack((np.asarray(wi, dtype=float), np.asarray(wj, dtype=float)))
    m = MatchMatrix(summary_id="s", sentence_ids=[f"s{k}" for k in range(len(values))],
                    kp_ids=("i", "j"), values=values)
    return compute_score_matrix(m, scorer, theta).score("i", "j")


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under root, by its relative posix path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def random_digraph(rng: random.Random, n: int = 8, p: float = 0.25) -> list[int]:
    """n successor bitsets (bit v of adj[u] for an edge u -> v), without self-loops."""
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                adj[u] |= 1 << v
                rng.random()  # an unused edge weight; the seeded instances rely on this draw
    return adj


def edge_set(adj: list[int]) -> set[tuple[int, int]]:
    """The edges (u, v) of successor bitsets."""
    return {(u, v) for u, a in enumerate(adj) for v in range(a.bit_length()) if a >> v & 1}


def adjacency(n: int, edges) -> list[int]:
    """n successor bitsets holding the given edges."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
    return adj


def random_dag_edges(rng: random.Random, n: int = 8, p: float = 0.35) -> set[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    pos = {u: k for k, u in enumerate(order)}
    edges = set()
    for u in range(n):
        for v in range(n):
            if pos[u] < pos[v] and rng.random() < p:
                edges.add((u, v))
    return edges


def random_hierarchy(rng: random.Random, n: int, summary_id: str = "s",
                     domain: str = "other") -> Hierarchy:
    """Random cluster forest over key points k0..k{n-1}."""
    ids = [f"k{i:02d}" for i in range(n)]
    blocks: list[list[str]] = []
    for x in ids:
        if blocks and rng.random() < 0.35:
            rng.choice(blocks).append(x)
        else:
            blocks.append([x])
    m = len(blocks)
    order = list(range(m))
    rng.shuffle(order)
    parent: dict[int, int] = {}
    for pos, c in enumerate(order):
        if pos > 0 and rng.random() < 0.6:
            parent[c] = order[rng.randrange(pos)]
    return canonical_hierarchy(summary_id, [frozenset(b) for b in blocks],
                               parent, domain=domain)


def same_structure(a: Hierarchy, b: Hierarchy) -> bool:
    """Equal clusters and edges, whatever the cluster order."""
    return a.canonical_form() == b.canonical_form()


def random_score_matrix(rng: random.Random, n: int, summary_id: str = "s",
                        quantize: bool = False) -> ScoreMatrix:
    ids = tuple(f"k{i:02d}" for i in range(n))
    scores = {}
    for a in ids:
        for b in ids:
            if a != b:
                v = rng.random()
                scores[(a, b)] = round(v, 6) if quantize else v
    return ScoreMatrix.from_pairs(summary_id=summary_id, kp_ids=ids, scores=scores)


def forest_matrix(rng: random.Random, h: Hierarchy, high: tuple[float, float] = (0.7, 0.95),
                  low: tuple[float, float] = (0.02, 0.2)) -> ScoreMatrix:
    """Score matrix whose high-scoring pairs are exactly the relations of h."""
    from kph import derive_relations

    rel = derive_relations(h)
    ids = tuple(sorted(h.kp_ids))
    scores = {}
    for a in ids:
        for b in ids:
            if a != b:
                lo, hi = high if (a, b) in rel else low
                scores[(a, b)] = rng.uniform(lo, hi)
    return ScoreMatrix.from_pairs(summary_id=h.summary_id, kp_ids=ids, scores=scores)
