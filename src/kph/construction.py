"""Hierarchy construction from a score matrix.

Four builders share a decision threshold tau and the same global objective,
the sum of s(x, y) - tau over every relation the hierarchy induces:

- reduced_forest: threshold the scores into a boolean reachability matrix,
  contract its strongly connected (mutually entailing) components, take
  the transitive reduction, then heuristically keep one parent per cluster.
- tncf: local search that starts from the reduced forest and re-attaches
  one node or one whole cluster at a time while the objective improves.
- greedy: agglomerative clustering, then edges added in descending
  cluster-link-score order under forest constraints.
- greedy_gs: same clusters, but each edge is chosen to maximize the sum of
  cluster-to-ancestor link scores of the whole forest built so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import Hierarchy, canonical_hierarchy, validate_hierarchy
from .errors import HierarchyError
from .scoring import ScoreMatrix

ALGORITHMS = ("reduced_forest", "tncf", "greedy", "greedy_gs")

DEFAULT_MAX_PASSES = 100

# Minimum gain for a TNCF move to count as an improvement; guards against
# accepting float noise and oscillating forever.
_EPS = 1e-12


@dataclass(frozen=True)
class ConstructionConfig:
    tau: float
    algorithm: str = "tncf"
    max_passes: int = DEFAULT_MAX_PASSES

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


def objective_value(h: Hierarchy, s: ScoreMatrix, tau: float) -> float:
    """Sum of s(x, y) - tau over all relations induced by the hierarchy.

    Raises HierarchyError for a structurally invalid hierarchy and DataError
    when an induced pair has no score.
    """
    violations = validate_hierarchy(h)
    if violations:
        raise HierarchyError(f"summary {h.summary_id!r}: {violations[0]}")
    w = {pair: v - tau for pair, v in s.scores.items()}
    try:
        return _state_objective(h.clusters, h.parent, w)
    except KeyError as exc:
        s.score(*exc.args[0])  # raises DataError naming the missing pair
        raise


def _condense(adj: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Strongly connected components and the reduced condensation of a digraph.

    ``adj`` is an n x n bool adjacency matrix whose diagonal is ignored.
    Returns the components as sorted node-index lists ordered by smallest
    member, and the k x k bool adjacency of the transitive reduction of the
    condensation. Components are the distinct rows of R & R.T for the
    reflexive closure R (Warshall); on a DAG's closure C the reduction is
    C minus C @ C (Aho, Garey & Ullman, SIAM J. Comput. 1972).
    """
    n = len(adj)
    r = adj | np.eye(n, dtype=bool)
    for k in range(n):
        r |= r[:, k:k + 1] & r[k:k + 1, :]
    mutual = r & r.T
    reps = [i for i in range(n) if not mutual[i, :i].any()]
    comps = [np.flatnonzero(mutual[i]).tolist() for i in reps]
    closure = r[np.ix_(reps, reps)]
    np.fill_diagonal(closure, False)
    return comps, closure & ~(closure @ closure)


def build_reduced_forest(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Threshold graph -> condensation -> transitive reduction -> one parent.

    The threshold graph is a boolean reachability matrix over ``s.kp_ids``
    (see :func:`_condense`). When the reduction leaves a cluster with
    several parents, the larger parent cluster wins; ties fall to the
    higher mean child-to-parent score, then to the parent that comes first
    in canonical cluster order.
    """
    s.validate_complete()
    ids = s.kp_ids
    adj = np.array([[a != b and s.scores[(a, b)] > tau for b in ids] for a in ids],
                   dtype=bool).reshape(len(ids), len(ids))
    comps, reduced = _condense(adj)
    clusters = [frozenset(ids[i] for i in comp) for comp in comps]

    parent: dict[int, int] = {}
    for c, members in enumerate(clusters):
        cands = np.flatnonzero(reduced[c]).tolist()
        if cands:
            parent[c] = min(cands, key=lambda p: (-len(clusters[p]),
                                                 -cluster_link_score(members, clusters[p], s),
                                                 sorted(clusters[p])))
    return canonical_hierarchy(s.summary_id, clusters, parent)


def cluster_link_score(c1: frozenset[str] | set[str], c2: frozenset[str] | set[str],
                       s: ScoreMatrix) -> float:
    """Mean directional score from members of c1 to members of c2."""
    if not c1 or not c2:
        raise ValueError("cluster_link_score requires nonempty clusters")
    if set(c1) & set(c2):
        raise ValueError(f"clusters overlap on {sorted(set(c1) & set(c2))}")
    total = 0.0
    for i in sorted(c1):
        for j in sorted(c2):
            total += s.score(i, j)
    return total / (len(c1) * len(c2))


def agglomerative_cluster(s: ScoreMatrix, tau: float) -> list[frozenset[str]]:
    """Average-linkage clustering over d(i, j) = 1 - min(s(i,j), s(j,i)).

    Pairs of clusters keep merging while the smallest mean pairwise
    distance is at most 1 - tau. Ties go to the lexicographically first
    cluster-index pair.
    """
    s.validate_complete()
    ids = list(s.kp_ids)
    if not ids:
        return []
    dist = {}
    for a in ids:
        for b in ids:
            if a < b:
                d = 1.0 - min(s.score(a, b), s.score(b, a))
                dist[(a, b)] = dist[(b, a)] = d
    clusters: list[list[str]] = [[x] for x in ids]
    while len(clusters) > 1:
        best_d = None
        best_ij = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                total = 0.0
                for x in clusters[i]:
                    for y in clusters[j]:
                        total += dist[(x, y)]
                avg = total / (len(clusters[i]) * len(clusters[j]))
                if best_d is None or avg < best_d:
                    best_d = avg
                    best_ij = (i, j)
        if best_d is None or best_d > 1.0 - tau:
            break
        i, j = best_ij
        clusters[i].extend(clusters[j])
        del clusters[j]
    return sorted((frozenset(c) for c in clusters), key=lambda c: tuple(sorted(c)))


def _walks_through(parent: Mapping[int, int], start: int, target: int) -> bool:
    """True if target lies on start's ancestor chain (start included)."""
    cur = start
    for _ in range(len(parent) + 1):
        if cur == target:
            return True
        if cur not in parent:
            return False
        cur = parent[cur]
    raise HierarchyError("parent map has a cycle")


def build_greedy(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Add the highest-scoring cluster edges first, keeping a forest."""
    s.validate_complete()
    clusters = agglomerative_cluster(s, tau)
    m = len(clusters)
    link = {(a, b): cluster_link_score(clusters[a], clusters[b], s)
            for a in range(m) for b in range(m) if a != b}
    cands = sorted(link.items(), key=lambda kv: (-kv[1], kv[0]))
    parent: dict[int, int] = {}
    for (a, b), v in cands:
        if v <= tau:
            break
        if a in parent:
            continue
        if _walks_through(parent, b, a):
            continue
        parent[a] = b
    return canonical_hierarchy(s.summary_id, clusters, parent)


def build_greedy_gs(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Like build_greedy, but each added edge maximizes the global sum of
    cluster-to-ancestor link scores, so an edge that sits under a strong
    chain can beat one with a higher direct score."""
    s.validate_complete()
    clusters = agglomerative_cluster(s, tau)
    m = len(clusters)
    link = {(a, b): cluster_link_score(clusters[a], clusters[b], s)
            for a in range(m) for b in range(m) if a != b}
    candidates = sorted(pair for pair, v in link.items() if v > tau)

    def ancestor_sum(parent: Mapping[int, int]) -> float:
        total = 0.0
        for c in range(m):
            cur = c
            for _ in range(m):
                if cur not in parent:
                    break
                cur = parent[cur]
                total += link[(c, cur)]
        return total

    parent: dict[int, int] = {}
    while True:
        best_val = None
        best_pair = None
        for (a, b) in candidates:
            if a in parent or _walks_through(parent, b, a):
                continue
            val = ancestor_sum({**parent, a: b})
            if best_val is None or val > best_val:
                best_val = val
                best_pair = (a, b)
        if best_pair is None:
            break
        parent[best_pair[0]] = best_pair[1]
    return canonical_hierarchy(s.summary_id, clusters, parent)


State = tuple[list[frozenset[str]], dict[int, int]]


def _state_objective(clusters: Sequence[frozenset[str]], parent: Mapping[int, int],
                     w: Mapping[tuple[str, str], float]) -> float:
    total = 0.0
    m = len(clusters)
    for i, c in enumerate(clusters):
        mem = sorted(c)
        for x in mem:
            for y in mem:
                if x != y:
                    total += w[(x, y)]
        cur = i
        for _ in range(m):
            if cur not in parent:
                break
            cur = parent[cur]
            for x in mem:
                for y in sorted(clusters[cur]):
                    total += w[(x, y)]
        else:
            raise HierarchyError("parent map has a cycle")
    return total


def _drop_singleton(clusters: Sequence[frozenset[str]], parent: Mapping[int, int],
                    ci: int) -> State:
    """Remove singleton cluster ci; its children move up to its parent."""
    p = parent.get(ci)
    remap = {}
    out_clusters = []
    for k, c in enumerate(clusters):
        if k == ci:
            continue
        remap[k] = len(out_clusters)
        out_clusters.append(c)
    out_parent = {}
    for c, pp in parent.items():
        if c == ci:
            continue
        if pp == ci:
            if p is not None:
                out_parent[remap[c]] = remap[p]
        else:
            out_parent[remap[c]] = remap[pp]
    return out_clusters, out_parent


def _descendant_indices(parent: Mapping[int, int], m: int, c: int) -> set[int]:
    out = set()
    for k in range(m):
        if k != c and _walks_through(parent, k, c):
            out.add(k)
    return out


def _node_move_states(clusters: Sequence[frozenset[str]], parent: Mapping[int, int],
                      x: str, ci: int) -> Iterator[State]:
    if len(clusters[ci]) > 1:
        base = [c - {x} if k == ci else c for k, c in enumerate(clusters)]
        base_parent = dict(parent)
    else:
        base, base_parent = _drop_singleton(clusters, parent, ci)
        ci = -1  # gone; every remaining cluster is a legal target
    m = len(base)
    for d in range(m):
        if d == ci:
            continue
        yield [c | {x} if k == d else c for k, c in enumerate(base)], dict(base_parent)
    for d in range(m):
        yield list(base) + [frozenset([x])], {**base_parent, m: d}
    yield list(base) + [frozenset([x])], dict(base_parent)


def _cluster_move_states(clusters: Sequence[frozenset[str]], parent: Mapping[int, int],
                         c: int) -> Iterator[State]:
    m = len(clusters)
    blocked = {c} | _descendant_indices(parent, m, c)
    for d in range(m):
        if d in blocked or parent.get(c) == d:
            continue
        yield list(clusters), {**parent, c: d}
    if c in parent:
        yield list(clusters), {k: v for k, v in parent.items() if k != c}
    for d in range(m):
        if d in blocked:
            continue
        remap = {}
        out_clusters = []
        for k, cl in enumerate(clusters):
            if k == c:
                continue
            remap[k] = len(out_clusters)
            out_clusters.append(cl | clusters[c] if k == d else cl)
        out_parent = {}
        for cc, pp in parent.items():
            if cc == c:
                continue
            out_parent[remap[cc]] = remap[d if pp == c else pp]
        yield out_clusters, out_parent


def _candidate_states(clusters: Sequence[frozenset[str]],
                      parent: Mapping[int, int]) -> Iterator[State]:
    home = {x: k for k, c in enumerate(clusters) for x in c}
    for x in sorted(home):
        yield from _node_move_states(clusters, parent, x, home[x])
    for c in range(len(clusters)):
        yield from _cluster_move_states(clusters, parent, c)


def build_tncf(s: ScoreMatrix, tau: float,
               config: ConstructionConfig | None = None) -> Hierarchy:
    """Local search over node and cluster re-attachments.

    Starts from the reduced forest. Each pass evaluates every legal move
    (insert a node into a cluster, re-attach a node or a whole cluster
    under any cluster or as a root, merge a cluster into another; removing
    a singleton hands its children to their grandparent) and applies the
    single best one if it strictly improves the objective. Stops at a pass
    with no improvement or after max_passes.
    """
    if config is None:
        config = ConstructionConfig(tau=tau, algorithm="tncf")
    s.validate_complete()
    init = build_reduced_forest(s, tau)
    clusters: list[frozenset[str]] = list(init.clusters)
    parent: dict[int, int] = dict(init.parent)
    w = {pair: v - tau for pair, v in s.scores.items()}
    cur = _state_objective(clusters, parent, w)
    for _ in range(config.max_passes):
        best_obj = cur
        best_state = None
        for cand_clusters, cand_parent in _candidate_states(clusters, parent):
            obj = _state_objective(cand_clusters, cand_parent, w)
            if obj > best_obj + _EPS:
                best_obj = obj
                best_state = (cand_clusters, cand_parent)
        if best_state is None:
            break
        clusters, parent = best_state
        cur = best_obj
    return canonical_hierarchy(s.summary_id, clusters, parent)


def build_hierarchy(s: ScoreMatrix, config: ConstructionConfig) -> Hierarchy:
    """Dispatch to the configured builder."""
    if config.algorithm == "reduced_forest":
        return build_reduced_forest(s, config.tau)
    if config.algorithm == "tncf":
        return build_tncf(s, config.tau, config)
    if config.algorithm == "greedy":
        return build_greedy(s, config.tau)
    if config.algorithm == "greedy_gs":
        return build_greedy_gs(s, config.tau)
    raise ValueError(f"unknown algorithm {config.algorithm!r}")
