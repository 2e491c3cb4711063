"""Hierarchy construction from a score matrix.

Four builders share a decision threshold tau and the same global objective,
the sum of s(x, y) - tau over every relation the hierarchy induces:

- reduced_forest: threshold the scores into a boolean reachability matrix,
  contract its strongly connected (mutually entailing) components, take
  the transitive reduction, then heuristically keep one parent per cluster.
- tncf: local search that starts from the reduced forest and re-attaches
  one node or one whole cluster at a time while the objective improves.
  Its objective counts millionths, the resolution scores and tau are
  written at, so every sum it forms is an exact integer and each move's
  gain, read off per-cluster sums, is that move's exact objective change.
- greedy and greedy_gs: one loop. Agglomerative clustering, then, while a
  cluster edge whose mean link exceeds tau still fits the forest, add the
  most valuable one. greedy values an edge by its own link, greedy_gs by
  the whole forest's cluster-to-ancestor links with the edge added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ALGORITHMS, DEFAULT_MAX_PASSES, Hierarchy, ancestor_chains, canonical_hierarchy
from .scoring import ScoreMatrix


def _check_tau(tau: float) -> None:
    """Refuse a tau outside [0, 1] or finer than the 6 decimals it is written at."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if float(f"{tau:.6f}") != tau:
        raise ValueError(f"tau must have at most 6 decimals, the resolution it is written at, "
                         f"got {tau!r}")


@dataclass(frozen=True)
class ConstructionConfig:
    """A builder and its tau; tau lies in [0, 1] on the 6-decimal grid (tncf counts millionths)."""

    tau: float
    algorithm: str = "tncf"
    max_passes: int = DEFAULT_MAX_PASSES

    def __post_init__(self):
        _check_tau(self.tau)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


def objective_value(h: Hierarchy, s: ScoreMatrix, tau: float) -> float:
    """Sum of s(x, y) - tau over all relations induced by the hierarchy.

    The terms are added with ``math.fsum``, so the value is correctly rounded
    and does not depend on the order of key points or relations. Raises
    DataError when the hierarchy holds a key point the scores lack.
    """
    ids = sorted(h.kp_ids)
    w = s.restrict(ids).values - tau
    row = {x: i for i, x in enumerate(ids)}
    return math.fsum(w[row[x], row[y]] for x, y in h.relations)


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
    ids = s.kp_ids
    comps, reduced = _condense(s.values > tau)
    clusters = [frozenset(ids[i] for i in comp) for comp in comps]
    members = [sorted(comp, key=ids.__getitem__) for comp in comps]
    rows = s.values.tolist()

    parent: dict[int, int] = {}
    for c, mem in enumerate(members):
        cands = np.flatnonzero(reduced[c]).tolist()
        if cands:
            parent[c] = min(cands, key=lambda p: (-len(clusters[p]),
                                                 -_mean_link(rows, mem, members[p]),
                                                 sorted(clusters[p])))
    return canonical_hierarchy(s.summary_id, clusters, parent)


def _mean_link(rows: list[list[float]], xs: Sequence[int], ys: Sequence[int]) -> float:
    """Mean of rows[x][y] over xs x ys, added in the order the members are given."""
    total = 0.0
    for x in xs:
        row = rows[x]
        for y in ys:
            total += row[y]
    return total / (len(xs) * len(ys))


def cluster_link_score(c1: frozenset[str] | set[str], c2: frozenset[str] | set[str],
                       s: ScoreMatrix) -> float:
    """Mean directional score from members of c1 to members of c2."""
    if not c1 or not c2:
        raise ValueError("cluster_link_score requires nonempty clusters")
    if set(c1) & set(c2):
        raise ValueError(f"clusters overlap on {sorted(set(c1) & set(c2))}")
    xs, ys = sorted(c1), sorted(c2)
    pos = {x: i for i, x in enumerate(s.kp_ids)}
    unknown = next(((x, y) for x in xs for y in ys if x not in pos or y not in pos), None)
    if unknown:
        s.score(*unknown)  # raises the DataError naming the first pair without a score
    return _mean_link(s.values.tolist(), [pos[x] for x in xs], [pos[y] for y in ys])


def agglomerative_cluster(s: ScoreMatrix, tau: float) -> list[frozenset[str]]:
    """Average-linkage clustering over d(i, j) = 1 - min(s(i,j), s(j,i)).

    Pairs of clusters keep merging while the smallest mean pairwise
    distance is at most 1 - tau. Ties go to the lexicographically first
    cluster-index pair.
    """
    ids = s.kp_ids
    dist = (1.0 - np.minimum(s.values, s.values.T)).tolist()
    clusters: list[list[int]] = [[x] for x in range(len(ids))]
    while len(clusters) > 1:
        best_d = None
        best_ij = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                avg = _mean_link(dist, clusters[i], clusters[j])
                if best_d is None or avg < best_d:
                    best_d = avg
                    best_ij = (i, j)
        if best_d is None or best_d > 1.0 - tau:
            break
        i, j = best_ij
        clusters[i].extend(clusters[j])
        del clusters[j]
    return sorted((frozenset(ids[x] for x in c) for c in clusters),
                  key=lambda c: tuple(sorted(c)))


def _build_greedy(s: ScoreMatrix, tau: float, value: Callable) -> Hierarchy:
    """Cluster, then add cluster edges (a, b) with link[a][b] > tau while one is legal.

    Legal means a has no parent and is not on b's ancestor chain; an edge
    that stops being legal never becomes legal again. Each step adds the
    legal edge of highest value(link, chains, a, b), ties to the first in (a, b) order.
    """
    clusters = agglomerative_cluster(s, tau)
    pos = {x: i for i, x in enumerate(s.kp_ids)}
    members = [[pos[x] for x in sorted(c)] for c in clusters]
    rows = s.values.tolist()
    link = [[_mean_link(rows, xs, ys) for ys in members] for xs in members]
    candidates = [(a, b) for a, row in enumerate(link) for b, v in enumerate(row)
                  if a != b and v > tau]
    parent: dict[int, int] = {}
    while True:
        chains = ancestor_chains(parent, len(clusters))
        candidates = [(a, b) for a, b in candidates if a not in parent and a not in chains[b]]
        if not candidates:
            break
        a, b = max(candidates, key=lambda e: value(link, chains, *e))
        parent[a] = b
    return canonical_hierarchy(s.summary_id, clusters, parent)


def _ancestor_sum(link: list[list[float]], chains: Sequence[tuple[int, ...]],
                  a: int, b: int) -> float:
    """Sum of link[c][x] over each cluster c and each ancestor x once root a goes under b,
    in the order walking the new parent map adds them: c by index, x nearest first."""
    total = 0.0
    for c, chain in enumerate(chains):
        if chain or c == a:  # every other root adds nothing
            row = link[c]
            for x in chain:
                total += row[x]
            if c == a or chain[-1] == a:
                total += row[b]
                for x in chains[b]:
                    total += row[x]
    return total


def build_greedy(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Add the highest-linked cluster edges first, keeping a forest."""
    return _build_greedy(s, tau, lambda link, chains, a, b: link[a][b])


def build_greedy_gs(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Like build_greedy, but each added edge maximizes the global sum of
    cluster-to-ancestor link scores, so an edge that sits under a strong
    chain can beat one with a higher direct score."""
    return _build_greedy(s, tau, _ancestor_sum)


# tncf's search state: clusters of rows of an id-sorted score matrix, and a parent map.
State = tuple[list[frozenset[int]], dict[int, int]]


# Move kinds, in the order one pass scans them: first every key point's
# node moves (rows in ascending order), then every cluster's moves.
_INSERT, _LEAF, _ROOT, _REATTACH, _DETACH, _MERGE = range(6)


def _remove_cluster(clusters: Sequence[frozenset[int]], parent: Mapping[int, int],
                    ci: int, heir: int | None) -> State:
    """Drop cluster ci; its children move to cluster heir (become roots if None)."""
    def shift(k: int) -> int:
        return k - (k > ci)

    out_parent = {}
    for c, p in parent.items():
        if c == ci:
            continue
        if p == ci:
            p = heir
        if p is not None:
            out_parent[shift(c)] = shift(p)
    return [cl for k, cl in enumerate(clusters) if k != ci], out_parent


def _apply_move(clusters: Sequence[frozenset[int]], parent: Mapping[int, int],
                kind: int, a: int, d: int) -> State:
    """The state one move leads to; a is a key point's row or a cluster index.

    Node moves first take row a out of its cluster (a singleton
    cluster is dropped and its children go to its parent), then put it into
    cluster d (_INSERT), into a new singleton under d (_LEAF) or a new root
    (_ROOT); d indexes ``clusters``. Cluster moves re-attach cluster a under
    d, detach it, or merge it into d, whose position the union keeps.
    """
    if kind == _REATTACH:
        return list(clusters), {**parent, a: d}
    if kind == _DETACH:
        return list(clusters), {k: v for k, v in parent.items() if k != a}
    if kind == _MERGE:
        merged = [cl | clusters[a] if k == d else cl for k, cl in enumerate(clusters)]
        return _remove_cluster(merged, parent, a, d)
    ci = next(k for k, c in enumerate(clusters) if a in c)
    if len(clusters[ci]) > 1:
        base = [c - {a} if k == ci else c for k, c in enumerate(clusters)]
        base_parent = dict(parent)
    else:
        base, base_parent = _remove_cluster(clusters, parent, ci, parent.get(ci))
        d -= d > ci
    if kind == _INSERT:
        return [c | {a} if k == d else c for k, c in enumerate(base)], base_parent
    if kind == _LEAF:
        return base + [frozenset([a])], {**base_parent, len(base): d}
    return base + [frozenset([a])], base_parent


def _move_gains(clusters: Sequence[frozenset[int]], parent: Mapping[int, int],
                wm: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The objective gain of every legal move, in scan order, and the moves.

    ``wm`` is the dense s - tau matrix over the state's rows, in millionths
    (see :func:`build_tncf`), with a zero diagonal, so a sum over a cluster
    that still holds x adds nothing for x. Returns the gains and a function
    mapping a position in them to the (kind, a, d) that :func:`_apply_move`
    takes. Nothing is materialised: every gain is read off per-cluster sums.

    - A key point x takes its pairs with co-members, with members of its
      ancestors (out) and with members of its descendants (in). Taking x
      out loses exactly these (a dropped singleton's children go to its
      parent, so no other pair changes); putting it into d gains its out
      sum over d and d's ancestors and its in sum over d and d's
      descendants; a new leaf under d gains only the out sum.
    - Re-attaching cluster c swaps its subtree's pairs with c's old
      ancestors for pairs with d and d's ancestors; detaching drops them.
    - Merging c into d re-attaches c's subtree under d, with d's members
      standing in as co-members, and adds the pairs from d and from d's
      descendants outside c's subtree into c.
    """
    n, m = len(wm), len(clusters)
    member = np.zeros((n, m))
    home = np.zeros(n, dtype=int)
    for k, c in enumerate(clusters):
        idx = list(c)
        member[idx, k] = 1.0
        home[idx] = k
    up = np.eye(m, dtype=bool)  # up[c, a]: a is c or an ancestor of c
    for c, chain in enumerate(ancestor_chains(parent, m)):
        for a in chain:
            up[c, a] = True
    upf = up.astype(float)

    out = (wm @ member) @ upf.T  # out[x, d]: x -> members of d and of d's ancestors
    inn = (wm.T @ member) @ upf  # inn[x, d]: members of d and of d's descendants -> x
    rows = np.arange(n)
    own = out[rows, home] + inn[rows, home]
    cols = np.arange(m)
    lone = member.sum(axis=0)[home] == 1
    node_gain = np.hstack([out + inn - own[:, None], out - own[:, None], -own[:, None]])
    node_ok = np.hstack([cols != home[:, None], ~(lone[:, None] & (cols == home[:, None])),
                         np.ones((n, 1), dtype=bool)])
    node_cells = np.flatnonzero(node_ok)

    pair = member.T @ wm @ member  # pair[k, l]: members of k -> members of l
    sub = upf.T @ pair  # sub[c, l]: members of c's subtree -> members of l
    sub_up = sub @ upf.T  # sub_up[c, d]: c's subtree -> d and d's ancestors
    par = np.array([parent.get(c, c) for c in range(m)], dtype=int)
    rooted = par != cols
    old = np.where(rooted, sub_up[cols, par], 0.0)
    reattach = sub_up - old[:, None]
    strict_up = up & ~np.eye(m, dtype=bool)
    merge = reattach + sub.T - strict_up * np.diag(sub)[:, None]
    free = ~up.T  # free[c, d]: d is outside c's subtree
    cluster_gain = np.hstack([reattach, -old[:, None], merge])
    cluster_ok = np.hstack([free & (cols != par[:, None]), rooted[:, None], free])
    cluster_cells = np.flatnonzero(cluster_ok)

    gains = np.concatenate([node_gain[node_ok], cluster_gain[cluster_ok]])

    def move(i: int) -> tuple:
        if i < len(node_cells):
            x, col = divmod(int(node_cells[i]), 2 * m + 1)
            kind, d = divmod(col, m) if col < 2 * m else (_ROOT, 0)  # _INSERT, _LEAF
            return kind, x, d
        c, col = divmod(int(cluster_cells[i - len(node_cells)]), 2 * m + 1)
        if col < m:
            return _REATTACH, c, col
        return (_DETACH, c, 0) if col == m else (_MERGE, c, col - m - 1)

    return gains, move


def build_tncf(s: ScoreMatrix, tau: float, max_passes: int = DEFAULT_MAX_PASSES,
               stats: dict | None = None) -> Hierarchy:
    """Local search over node and cluster re-attachments.

    Starts from the reduced forest. Each pass considers every legal move
    (insert a node into a cluster, re-attach a node or a whole cluster
    under any cluster or as a root, merge a cluster into another; removing
    a singleton hands its children to their grandparent) and applies the
    first move of highest gain if that gain is positive. Stops at a pass
    with no improvement or after max_passes.

    The objective counts millionths: the sum of round(s * 1e6) - tau * 1e6
    over the induced relations. Scores and tau are written at 6 decimals,
    so on them this is the sum of s - tau scaled by 1e6; tau must lie on
    that grid (ValueError otherwise), and finer scores are rounded to it.
    Every sum is then an integer that float64 holds exactly, so each gain
    from :func:`_move_gains` is its move's exact objective change, in any
    summation order, and a move that rebuilds the current forest gains 0.

    If ``stats`` is given, it receives ``passes``, ``candidates`` (moves
    scored), ``accepted`` (moves applied) and ``converged`` (False when the
    search stopped at max_passes with a move still improving).
    """
    _check_tau(tau)
    s = s.restrict(sorted(s.kp_ids))
    row = {x: i for i, x in enumerate(s.kp_ids)}
    init = build_reduced_forest(s, tau)
    clusters = [frozenset(row[x] for x in c) for c in init.clusters]
    parent: dict[int, int] = dict(init.parent)
    wm = np.rint(s.values * 1e6) - round(tau * 1e6)
    np.fill_diagonal(wm, 0.0)
    counts = {"passes": 0, "candidates": 0, "accepted": 0, "converged": False}
    for _ in range(max_passes):
        counts["passes"] += 1
        gains, move = _move_gains(clusters, parent, wm)
        counts["candidates"] += len(gains)
        if not len(gains) or gains.max() <= 0:
            counts["converged"] = True
            break
        clusters, parent = _apply_move(clusters, parent, *move(int(np.argmax(gains))))
        counts["accepted"] += 1
    if stats is not None:
        stats.update(counts)
    return canonical_hierarchy(s.summary_id, [[s.kp_ids[x] for x in c] for c in clusters], parent)


def build_hierarchy(s: ScoreMatrix, config: ConstructionConfig,
                    stats: dict | None = None) -> Hierarchy:
    """Dispatch to the configured builder; ``stats`` is filled by tncf only."""
    if config.algorithm == "reduced_forest":
        return build_reduced_forest(s, config.tau)
    if config.algorithm == "tncf":
        return build_tncf(s, config.tau, config.max_passes, stats)
    if config.algorithm == "greedy":
        return build_greedy(s, config.tau)
    if config.algorithm == "greedy_gs":
        return build_greedy_gs(s, config.tau)
    raise ValueError(f"unknown algorithm {config.algorithm!r}")
