"""Hierarchy construction from a score matrix.

Four builders share a decision threshold tau and the same global objective,
the sum of s(x, y) - tau over every relation the hierarchy induces:

- reduced_forest: threshold the scores into a digraph held as bitsets,
  contract its strongly connected (mutually entailing) components, take
  the transitive reduction, then heuristically keep one parent per cluster.
- tncf: local search that starts from the reduced forest and re-attaches
  one node or one whole cluster at a time until no move improves the
  objective. Its objective counts millionths, the resolution scores and
  tau are written at, so every sum it forms is a Python int and each
  move's gain, read off per-cluster sums, is that move's exact objective
  change; as each applied move adds at least 1, the search ends.
- greedy and greedy_gs: one loop. Agglomerative clustering, then, while a
  cluster edge whose mean link exceeds tau still fits the forest, add the
  most valuable one. greedy values an edge by its own link, greedy_gs by
  the whole forest's cluster-to-ancestor links with the edge added.

Every builder reads the score matrix's rows of Python floats and none
loads numpy: at 12 to 44 key points, loops over rows and integer bitsets
cost less than numpy's import, which every build command would pay.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, gt
from typing import Callable, Mapping, Sequence

from . import io as kio
from .core import ALGORITHMS, Hierarchy, ancestor_chains, canonical_hierarchy
from .scoring import ScoreMatrix


def _check_tau(tau: float) -> None:
    """Refuse a tau outside [0, 1] or finer than the 6 decimals it is written at."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if kio.finer_than_fmt6(tau):
        raise ValueError(f"tau must have at most 6 decimals, the resolution it is written at, "
                         f"got {tau!r}")


@dataclass(frozen=True)
class ConstructionConfig:
    """A builder and its tau; tau lies in [0, 1] on the 6-decimal grid (tncf counts millionths)."""

    tau: float
    algorithm: str = "tncf"

    def __post_init__(self):
        _check_tau(self.tau)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")


def objective_value(h: Hierarchy, s: ScoreMatrix, tau: float) -> float:
    """Sum of s(x, y) - tau over all relations induced by the hierarchy.

    The terms are added with ``math.fsum``, so the value is correctly rounded
    and does not depend on the order of key points or relations. Raises
    DataError when the hierarchy holds a key point the scores lack.
    """
    ids = sorted(h.kp_ids)
    rows = s.restrict(ids).values
    row = {x: i for i, x in enumerate(ids)}
    return math.fsum(rows[row[x]][row[y]] - tau for x, y in h.relations)


def _bits(x: int) -> list[int]:
    """The positions of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _condense(adj: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components and the reduced condensation of a digraph.

    ``adj[i]`` is the bitset of node i's successors (bit j set for an edge
    i -> j); bit i itself is ignored. Returns the components as sorted
    node-index lists ordered by smallest member, and the transitive
    reduction of the condensation as one bitset of component indices per
    component. Mutually reachable nodes reach the same set, and nodes that
    reach the same set reach each other, so a component is a class of equal
    rows of the reflexive closure (Warshall). On a DAG the reduction keeps
    an edge a -> b unless b is reachable from another successor of a (Aho,
    Garey & Ullman, SIAM J. Comput. 1972).
    """
    r = [a | 1 << i for i, a in enumerate(adj)]
    for k in range(len(r)):  # whatever reaches k reaches what k reaches
        bit, rk = 1 << k, r[k]
        r = [ri | rk if ri & bit else ri for ri in r]
    by_row: dict[int, list[int]] = {}
    for i, ri in enumerate(r):
        by_row.setdefault(ri, []).append(i)
    comps = list(by_row.values())
    index = {c[0]: a for a, c in enumerate(comps)}  # representative -> component
    reps = sum(1 << i for i in index)
    # per component, the representatives it reaches outside itself
    beyond = [ri & reps & ~(1 << c[0]) for ri, c in zip(by_row, comps)]
    reduced = []
    for out in beyond:
        skip = 0
        for i in _bits(out):
            skip |= beyond[index[i]]
        reduced.append(sum(1 << index[i] for i in _bits(out & ~skip)))
    return comps, reduced


def _forest_rows(s: ScoreMatrix, tau: float) -> tuple[list[list[int]], dict[int, int]]:
    """:func:`build_reduced_forest` over the rows of s: clusters as row lists,
    members in id order, ordered by smallest row, and their parent map."""
    ids = s.kp_ids
    rows = s.values
    masks = [1 << j for j in range(len(ids))]
    comps, reduced = _condense([sum(compress(masks, map(gt, row, repeat(tau)))) for row in rows])
    members = [sorted(comp, key=ids.__getitem__) for comp in comps]
    parent: dict[int, int] = {}
    for c, mem in enumerate(members):
        cands = _bits(reduced[c])
        if cands:
            parent[c] = min(cands, key=lambda p: (-len(members[p]),
                                                 -_mean_link(rows, mem, members[p]),
                                                 [ids[x] for x in members[p]]))
    return members, parent


def build_reduced_forest(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Threshold graph -> condensation -> transitive reduction -> one parent.

    The threshold graph holds an edge i -> j for each score above tau, as
    one bitset per key point of ``s.kp_ids`` (see :func:`_condense`). When
    the reduction leaves a cluster with several parents, the larger parent
    cluster wins; ties fall to the higher mean child-to-parent score, then
    to the parent that comes first in canonical cluster order.
    """
    members, parent = _forest_rows(s, tau)
    return canonical_hierarchy(s.summary_id, [[s.kp_ids[x] for x in c] for c in members], parent)


def _mean_link(rows: Sequence[Sequence[float]], xs: Sequence[int], ys: Sequence[int]) -> float:
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
    return _mean_link(s.values, [pos[x] for x in xs], [pos[y] for y in ys])


def agglomerative_cluster(s: ScoreMatrix, tau: float) -> list[frozenset[str]]:
    """Average-linkage clustering over d(i, j) = 1 - min(s(i,j), s(j,i)).

    Pairs of clusters keep merging while the smallest mean pairwise
    distance is at most 1 - tau. Ties go to the lexicographically first
    cluster-index pair.
    """
    ids = s.kp_ids
    rows = s.values
    dist = [[1.0 - min(v, w) for v, w in zip(row, col)] for row, col in zip(rows, zip(*rows))]
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
    link = [[_mean_link(s.values, xs, ys) for ys in members] for xs in members]
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


def _cluster_sums(rows: Sequence[Sequence[int]], members: Sequence[Sequence[int]]) -> list:
    """Per cluster, the element-wise sum of its members' rows."""
    out = []
    for c in members:
        total = rows[c[0]]
        for y in c[1:]:
            total = list(map(add, total, rows[y]))
        out.append(total)
    return out


def _up_sums(vecs: Sequence[Sequence[int]], parent: Mapping[int, int],
             down: Sequence[int]) -> list:
    """Per cluster, its vector plus its ancestors'; ``down`` lists parents before children."""
    out = list(vecs)
    for c in down:
        if c in parent:
            out[c] = list(map(add, out[c], out[parent[c]]))
    return out


def _subtree_sums(vecs: Sequence[Sequence[int]], parent: Mapping[int, int],
                  down: Sequence[int]) -> list:
    """Per cluster, its vector plus its descendants'; ``down`` as for :func:`_up_sums`."""
    out = list(vecs)
    for c in reversed(down):
        if c in parent:
            p = parent[c]
            out[p] = list(map(add, out[p], out[c]))
    return out


def _move_gains(clusters: Sequence[frozenset[int]], parent: Mapping[int, int],
                wm: Sequence[Sequence[int]]) -> tuple[list[int], Callable]:
    """The objective gain of every legal move, in scan order, and the moves.

    ``wm`` is the s - tau matrix over the state's rows, in millionths (see
    :func:`build_tncf`): rows of Python ints with a zero diagonal, so a sum
    over a cluster that still holds x adds nothing for x. Returns the gains
    and a function mapping a position in them to the (kind, a, d) that
    :func:`_apply_move` takes. No candidate state is built: every gain is
    read off per-cluster sums, each an exact int.

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
    members = [list(c) for c in clusters]
    home = [0] * n
    for k, mem in enumerate(members):
        for x in mem:
            home[x] = k
    chains = ancestor_chains(parent, m)
    down = sorted(range(m), key=lambda c: len(chains[c]))  # parents before children
    below = [{c} for c in range(m)]  # below[c]: c and its descendants
    for c, chain in enumerate(chains):
        for a in chain:
            below[a].add(c)

    to = _cluster_sums(list(zip(*wm)), members)  # to[k][x]: x -> members of k
    frm = _cluster_sums(wm, members)  # frm[k][x]: members of k -> x
    out = list(zip(*_up_sums(to, parent, down)))  # out[x][d]: x -> d and d's ancestors
    inn = list(zip(*_subtree_sums(frm, parent, down)))  # inn[x][d]: d and its descendants -> x
    pair = list(zip(*_cluster_sums(list(zip(*frm)), members)))  # pair[k][l]: k -> l
    sub = _subtree_sums(pair, parent, down)  # sub[c][l]: c's subtree -> l
    into_sub = list(zip(*sub))  # into_sub[l][c] = sub[c][l]
    # sub_up[c][d]: c's subtree -> d and d's ancestors
    sub_up = list(zip(*_up_sums(into_sub, parent, down)))

    gains: list[int] = []
    runs: list[tuple] = []  # (position of its first gain, kind, a, targets d) per run of moves
    every = range(m)
    others = [[d for d in every if d != k] for k in every]
    for x in range(n):
        h, ox, ix = home[x], out[x], inn[x]
        own = ox[h] + ix[h]
        leaf = others[h] if len(members[h]) == 1 else every
        runs.append((len(gains), _INSERT, x, others[h]))
        gains += [ox[d] + ix[d] - own for d in others[h]]
        runs.append((len(gains), _LEAF, x, leaf))
        gains += [ox[d] - own for d in leaf]
        runs.append((len(gains), _ROOT, x, (0,)))
        gains.append(-own)
    for c in every:
        su, p = sub_up[c], parent.get(c)
        old = 0 if p is None else su[p]
        free = [d for d in every if d not in below[c]]
        targets = [d for d in free if d != p]
        runs.append((len(gains), _REATTACH, c, targets))
        gains += [su[d] - old for d in targets]
        if p is not None:
            runs.append((len(gains), _DETACH, c, (0,)))
            gains.append(-old)
        merge = list(map(add, su, into_sub[c]))
        for a in chains[c]:  # an ancestor's subtree holds c's, whose pairs into c count already
            merge[a] -= sub[c][c]
        runs.append((len(gains), _MERGE, c, free))
        gains += [merge[d] - old for d in free]

    firsts = [r[0] for r in runs]  # a run of no moves is never the last to start at or
    # before a position, so bisect_right finds the run holding it

    def move(i: int) -> tuple:
        first, kind, a, targets = runs[bisect_right(firsts, i) - 1]
        return kind, a, targets[i - first]

    return gains, move


def build_tncf(s: ScoreMatrix, tau: float, stats: dict | None = None) -> Hierarchy:
    """Local search over node and cluster re-attachments.

    Starts from the reduced forest. Each pass considers every legal move
    (insert a node into a cluster, re-attach a node or a whole cluster
    under any cluster or as a root, merge a cluster into another; removing
    a singleton hands its children to their grandparent) and applies the
    first move of highest gain if that gain is positive. Stops at the
    first pass with no positive gain.

    The objective counts millionths: the sum of round(s * 1e6) - tau * 1e6
    over the induced relations. Scores and tau are written at 6 decimals,
    so on them this is the sum of s - tau scaled by 1e6; tau must lie on
    that grid (ValueError otherwise), and finer scores are rounded to it
    (round half to even). Every sum is then a Python int, so each gain
    from :func:`_move_gains` is its move's exact objective change, in any
    summation order, and a move that rebuilds the current forest gains 0.
    So each applied move raises an integer objective by at least 1, no
    state recurs, and over the finitely many forests the search ends.

    If ``stats`` is given, it receives ``passes``, ``candidates`` (moves
    scored) and ``accepted`` (moves applied).
    """
    _check_tau(tau)
    s = s.restrict(sorted(s.kp_ids))
    members, parent = _forest_rows(s, tau)
    clusters = [frozenset(c) for c in members]
    t = round(tau * 1e6)
    wm = [[round(v * 1e6) - t for v in r] for r in s.values]
    for i, r in enumerate(wm):
        r[i] = 0
    counts = {"passes": 0, "candidates": 0, "accepted": 0}
    while True:
        counts["passes"] += 1
        gains, move = _move_gains(clusters, parent, wm)
        counts["candidates"] += len(gains)
        best = max(gains, default=0)
        if best <= 0:
            break
        clusters, parent = _apply_move(clusters, parent, *move(gains.index(best)))
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
        return build_tncf(s, config.tau, stats)
    if config.algorithm == "greedy":
        return build_greedy(s, config.tau)
    if config.algorithm == "greedy_gs":
        return build_greedy_gs(s, config.tau)
    raise ValueError(f"unknown algorithm {config.algorithm!r}")
