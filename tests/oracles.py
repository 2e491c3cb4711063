"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms and data
structures than the package (Floyd-Warshall matrices, one scorer call per
key point pair instead of one array kernel per matrix, one float() call per
match-matrix cell instead of one array pass over fixed-width cells, one json
call per score-file line instead of one pass over all lines, one set of
summary-tagged relations per relation F1 instead of summed per-summary
counts, two greedy loops over link dicts instead of one loop on a link
table, a forest re-walked with each greedy_gs edge added instead of read
off the chains of the forest without it, a walk per cluster that stops at
a revisit instead of one that counts its steps, every partition and forest
enumerated instead of a search) so that
agreement between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import csv
import itertools
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from kph import (DataError, DomainMetrics, FormatError, Hierarchy, HierarchyError, MatchMatrix,
                 ScoreMatrix, Violation, agglomerative_cluster, build_reduced_forest,
                 canonical_hierarchy, derive_relations, objective_value)
from kph import io as kio
from kph.evaluation import (DEFAULT_TAU_GRID, EvalReport, _by_summary, _check_known_kps,
                            _check_same_summaries, _prf_counts)


# -- reachability (Floyd-Warshall) ---------------------------------------

def fw_closure(nodes: list, edges: set[tuple]) -> dict:
    """node -> set of nodes reachable by at least one edge."""
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for u, v in edges:
        reach[idx[u]][idx[v]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {u: {v for v in nodes if reach[idx[u]][idx[v]]} for u in nodes}


def scc_partition(nodes: list, edges: set[tuple]) -> set[frozenset]:
    """Partition by mutual reachability."""
    closure = fw_closure(nodes, edges)
    comps = set()
    for u in nodes:
        comp = {v for v in nodes if
                (v == u) or (v in closure[u] and u in closure[v])}
        comps.add(frozenset(comp))
    return comps


def condensation_edges(nodes: list, edges: set[tuple]) -> set[tuple[frozenset, frozenset]]:
    comp_of = {}
    for comp in scc_partition(nodes, edges):
        for u in comp:
            comp_of[u] = comp
    return {(comp_of[u], comp_of[v]) for u, v in edges if comp_of[u] != comp_of[v]}


def is_transitive_reduction_of(nodes: list, original: set[tuple],
                               reduced: set[tuple]) -> bool:
    """A DAG's transitive reduction is its unique minimal equivalent graph:
    same closure, and dropping any single edge changes the closure."""
    if fw_closure(nodes, reduced) != fw_closure(nodes, original):
        return False
    target = fw_closure(nodes, original)
    for e in reduced:
        if fw_closure(nodes, reduced - {e}) == target:
            return False
    return True


# -- hierarchy relations --------------------------------------------------

def relations_by_closure(clusters, parent: dict) -> frozenset[tuple[str, str]]:
    """Relations of a cluster forest via transitive closure of its pair graph:
    co-cluster pairs in both directions plus member-to-parent-member edges."""
    nodes = sorted(x for c in clusters for x in c)
    edges = set()
    for i, c in enumerate(clusters):
        for x in c:
            for y in c:
                if x != y:
                    edges.add((x, y))
        if i in parent:
            for x in c:
                for y in clusters[parent[i]]:
                    edges.add((x, y))
    closure = fw_closure(nodes, edges)
    return frozenset((x, y) for x in nodes for y in closure[x] if x != y)


def ancestor_walk_reference(parent: Mapping[int, int], c: int) -> list[int] | None:
    """c's ancestors, nearest first, or None once the walk comes back to a cluster it passed."""
    path: list[int] = []
    seen = {c}
    while c in parent:
        c = parent[c]
        if c in seen:
            return None
        seen.add(c)
        path.append(c)
    return path


def structure_violations_reference(clusters, parent: dict) -> list[Violation]:
    """Every structural violation of a cluster forest, in report order.

    The structural half of the package's former ``validate_hierarchy``:
    empty clusters and shared members cluster by cluster, then every
    cluster whose parent walk never reaches a root, as a cycle.
    """
    out: list[Violation] = []
    seen: dict[str, int] = {}
    for i, c in enumerate(clusters):
        if not c:
            out.append(Violation("empty-cluster", f"cluster {i} has no members"))
        for x in sorted(c):
            if x in seen:
                out.append(Violation(
                    "duplicate-membership",
                    f"key point {x!r} appears in clusters {seen[x]} and {i}"))
            else:
                seen[x] = i

    on_cycle: set[int] = set()
    for start in range(len(clusters)):
        path = [start]
        visited = {start}
        cur = start
        while cur in parent:
            cur = parent[cur]
            if cur in visited:
                on_cycle.update(path)
                break
            visited.add(cur)
            path.append(cur)
    for c in sorted(on_cycle):
        out.append(Violation("cycle", f"cluster {c} lies on a parent cycle"))
    return out


# -- distributional scorers (numpy formulations) --------------------------

def bininc_ref(wi: np.ndarray, wj: np.ndarray, theta: float) -> float:
    si = wi >= theta
    sj = wj >= theta
    if not si.any():
        return 0.0
    return float((si & sj).sum() / si.sum())


def weedsprec_ref(wi: np.ndarray, wj: np.ndarray, theta: float) -> float:
    si = wi >= theta
    sj = wj >= theta
    denom = wi[si].sum()
    if denom == 0.0:
        return 0.0
    return float(wi[si & sj].sum() / denom)


def clarkede_ref(wi: np.ndarray, wj: np.ndarray, theta: float) -> float:
    si = wi >= theta
    sj = wj >= theta
    denom = wi[si].sum()
    if denom == 0.0:
        return 0.0
    return float(np.minimum(wi, wj)[si & sj].sum() / denom)


def apinc_ref(wi: np.ndarray, wj: np.ndarray, theta: float) -> float:
    si = np.flatnonzero(wi >= theta)
    sj = np.flatnonzero(wj >= theta)
    if si.size == 0:
        return 0.0
    order_i = si[np.lexsort((si, -wi[si]))]
    order_j = sj[np.lexsort((sj, -wj[sj]))]
    rank_j = {int(f): r for r, f in enumerate(order_j, start=1)}
    in_j = np.array([int(f) in rank_j for f in order_i])
    precision_at = np.cumsum(in_j) / np.arange(1, order_i.size + 1)
    rel = np.array([1.0 - rank_j[int(f)] / (sj.size + 1) if int(f) in rank_j else 0.0
                    for f in order_i])
    return float((precision_at * rel).sum() / si.size)


# -- distributional scorers, one call per pair (exact) --------------------
# The scorers as first written: one call for each ordered pair of key
# points, every sum an explicit left-to-right loop over sorted sentence
# indices. compute_score_matrix must reproduce these floats bit for bit.

def _support(w: np.ndarray, theta: float) -> frozenset[int]:
    return frozenset(int(k) for k in np.flatnonzero(w >= theta))


def _left_sum(xs) -> float:
    total = 0.0
    for x in xs:
        total += x
    return total


def bininc_pair(wi: np.ndarray, si: frozenset[int], wj: np.ndarray, sj: frozenset[int]) -> float:
    if not si:
        return 0.0
    return len(si & sj) / len(si)


def weedsprec_pair(wi: np.ndarray, si: frozenset[int], wj: np.ndarray, sj: frozenset[int]) -> float:
    denom = _left_sum(float(wi[k]) for k in sorted(si))
    if denom == 0.0:
        return 0.0
    return _left_sum(float(wi[k]) for k in sorted(si & sj)) / denom


def clarkede_pair(wi: np.ndarray, si: frozenset[int], wj: np.ndarray, sj: frozenset[int]) -> float:
    denom = _left_sum(float(wi[k]) for k in sorted(si))
    if denom == 0.0:
        return 0.0
    return _left_sum(min(float(wi[k]), float(wj[k])) for k in sorted(si & sj)) / denom


def _ranked(support: frozenset[int], weights: np.ndarray) -> list[int]:
    # Descending weight; equal weights fall back to sentence index.
    return sorted(support, key=lambda k: (-float(weights[k]), k))


def apinc_pair(wi: np.ndarray, si: frozenset[int], wj: np.ndarray, sj: frozenset[int]) -> float:
    if not si:
        return 0.0
    order_i = _ranked(si, wi)
    rank_j = {f: r for r, f in enumerate(_ranked(sj, wj), start=1)}
    nj = len(sj)
    total = 0.0
    hits = 0
    for r, f in enumerate(order_i, start=1):
        if f in rank_j:
            hits += 1
            rel = 1.0 - rank_j[f] / (nj + 1)
            total += (hits / r) * rel
    return total / len(order_i)


PAIR_SCORERS = {
    "bininc": bininc_pair,
    "weedsprec": weedsprec_pair,
    "clarkede": clarkede_pair,
    "apinc": apinc_pair,
}


def pair_score_values(values: np.ndarray, scorer: str, theta: float) -> np.ndarray:
    """n x n scores of a sentences x key points matrix, one call per ordered pair."""
    cols = [values[:, j] for j in range(values.shape[1])]
    supports = [_support(w, theta) for w in cols]
    fn = PAIR_SCORERS[scorer]
    out = np.zeros((len(cols), len(cols)))
    for i in range(len(cols)):
        for j in range(len(cols)):
            if i != j:
                out[i, j] = fn(cols[i], supports[i], cols[j], supports[j])
    return out


# -- match matrices ----------------------------------------------------------

def load_match_matrix_reference(path) -> MatchMatrix:
    """A match matrix read with csv.reader and one float() call per cell.

    A quoted field must close on its own line, and csv.reader's errors name
    the record they stopped at.
    """
    lines = kio._read_lines(path)
    if len(lines) < 2:
        raise FormatError("match matrix needs a meta line and a header row", path=path)
    meta = kio._parse_meta_comment(path, lines[0])
    reader = csv.reader(lines[1:])
    rows = []
    try:
        for row in reader:
            if reader.line_num > len(rows) + 1:
                raise FormatError("quoted field runs past the end of its line",
                                  path=path, line=len(rows) + 2)
            rows.append(row)
    except csv.Error as e:
        raise FormatError(f"malformed CSV: {e}", path=path, line=reader.line_num + 1) from e
    header = rows[0]
    if not header or header[0] != "sentence_id":
        raise FormatError("header row must start with 'sentence_id'",
                          path=path, line=2, field="sentence_id")
    kp_ids = tuple(header[1:])
    sentence_ids = []
    values = []  # every cell, row after row, for one np.array call
    for lineno, row in enumerate(rows[1:], start=3):
        if len(row) != len(header):
            raise FormatError(
                f"row has {len(row)} cells, header has {len(header)}",
                path=path, line=lineno)
        sentence_ids.append(row[0])
        try:
            values += [float(c) for c in row[1:]]
        except ValueError as e:
            raise FormatError(f"non-numeric likelihood: {e}", path=path, line=lineno) from e
    try:
        return MatchMatrix(
            summary_id=meta["summary_id"],
            sentence_ids=tuple(sentence_ids),
            kp_ids=kp_ids,
            values=np.array(values, dtype=float).reshape(len(sentence_ids), len(kp_ids)),
            domain=meta["domain"],
        )
    except DataError as e:
        raise FormatError(str(e), path=path) from e


# -- score files -------------------------------------------------------------

def write_scores_reference(path, s: ScoreMatrix) -> None:
    """A score file written with one dumps6 call per pair line."""
    lines = [kio.dumps6(
        {"kind": "scores", "summary_id": s.summary_id, "scorer": s.scorer,
         "params": s.params, "kp_ids": list(s.kp_ids)})]
    for src, dst, v in s.pairs():
        lines.append(kio.dumps6({"src": src, "dst": dst, "score": v}))
    kio.write_text(path, "\n".join(lines) + "\n")


def load_scores_reference(path) -> ScoreMatrix:
    """A score file read with one json.loads and three field checks per line."""
    lines = kio._read_lines(path)
    if not lines:
        raise FormatError("empty score file", path=path)
    meta = kio._load_json_line(path, 1, lines[0])
    kio._check_kind(meta, "scores", path, 1)
    summary_id = kio._field(meta, "summary_id", str, path, 1)
    scorer = kio._field(meta, "scorer", str, path, 1)
    params = kio._field(meta, "params", dict, path, 1)
    kp_ids = kio._field(meta, "kp_ids", list, path, 1)
    if not all(isinstance(x, str) for x in kp_ids):
        raise FormatError("kp_ids must be strings", path=path, line=1, field="kp_ids")
    scores: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        obj = kio._load_json_line(path, lineno, line)
        src = kio._field(obj, "src", str, path, lineno)
        dst = kio._field(obj, "dst", str, path, lineno)
        v = kio._field(obj, "score", float, path, lineno)
        if not 0.0 <= v <= 1.0:
            raise FormatError(f"score {v} for pair ({src!r}, {dst!r}) is outside [0, 1]",
                              path=path, line=lineno, field="score")
        if (src, dst) in scores:
            raise FormatError(f"pair ({src!r}, {dst!r}) listed twice",
                              path=path, line=lineno)
        scores[(src, dst)] = v
    try:
        return ScoreMatrix.from_pairs(summary_id, kp_ids, scores, scorer, params)
    except DataError as e:
        raise FormatError(str(e), path=path) from e


# -- clustering ------------------------------------------------------------

def average_linkage_ref(ids: list[str], dist: dict[tuple[str, str], float],
                        threshold: float) -> set[frozenset]:
    """Naive agglomerative clustering, merging the closest pair of clusters
    (mean pairwise distance) while that distance is <= threshold.

    Uses frozensets and itertools instead of positional lists; ties are
    broken by the sorted-members representation of the pair, which matches
    index order when clusters start as sorted singletons.
    """
    clusters: list[frozenset[str]] = [frozenset([x]) for x in ids]
    while len(clusters) > 1:
        scored = []
        for a, b in itertools.combinations(range(len(clusters)), 2):
            ds = [dist[(x, y)] for x in sorted(clusters[a]) for y in sorted(clusters[b])]
            scored.append((_left_sum(ds) / len(ds), a, b))
        best = min(scored)
        if best[0] > threshold:
            break
        _, a, b = best
        merged = clusters[a] | clusters[b]
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.insert(a, merged)
    return set(clusters)


# -- precision/recall ------------------------------------------------------

def pr_points_ref(scored_labels: list[tuple[float, bool]]) -> list[tuple[float, float, float]]:
    """(threshold, recall, precision) per distinct score, via numpy cumsums."""
    arr = np.array(sorted(scored_labels, key=lambda t: -t[0]),
                   dtype=[("score", float), ("pos", bool)])
    num_pos = int(arr["pos"].sum())
    tp = np.cumsum(arr["pos"])
    seen = np.arange(1, len(arr) + 1)
    out = []
    for t in sorted(set(arr["score"].tolist()), reverse=True):
        k = int(np.flatnonzero(arr["score"] >= t)[-1])  # last index of the block
        recall = tp[k] / num_pos if num_pos else 0.0
        out.append((t, float(recall), float(tp[k] / seen[k])))
    return out


# -- TNCF by full recompute ------------------------------------------------
# The local search with every candidate state materialised and its
# objective summed from scratch. The package must reproduce its order of
# candidates and the float value of every objective it compares, so the
# incremental scan picks the same moves.

State = tuple[list[frozenset[str]], dict[int, int]]

_EPS = 1e-12


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


def tncf_reference(s: ScoreMatrix, tau: float) -> Hierarchy:
    """TNCF that scores every candidate by a full objective recompute, until none improves."""
    init = build_reduced_forest(s, tau)
    clusters: list[frozenset[str]] = list(init.clusters)
    parent: dict[int, int] = dict(init.parent)
    w = {pair: v - tau for pair, v in s.scores.items()}
    cur = _state_objective(clusters, parent, w)
    while True:
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


# -- greedy builders (a sort-and-scan and an argmax loop) ---------------
# The two greedy builders as two separate loops over a dict of cluster
# links, each link summed through ScoreMatrix.score. The package runs both
# as one loop on one link table and must pick the same edges.

def cluster_link_score_reference(c1: frozenset[str] | set[str], c2: frozenset[str] | set[str],
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


def greedy_reference(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Add the highest-scoring cluster edges first, keeping a forest."""
    clusters = agglomerative_cluster(s, tau)
    m = len(clusters)
    link = {(a, b): cluster_link_score_reference(clusters[a], clusters[b], s)
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


# greedy_gs's value of edge (a, b) as the package once computed it: the
# forest walked again, cluster by cluster, with a: b added to its parent map.
# The package reads it off the chains of the forest without the edge, and
# must add the same terms in the same order.

def _ancestor_sum(link: list[list[float]], parent: Mapping[int, int]) -> float:
    """Sum of link[c][a] over every cluster c and each of its ancestors a."""
    total = 0.0
    for c in range(len(link)):
        cur = c
        while cur in parent:
            cur = parent[cur]
            total += link[c][cur]
    return total


def greedy_gs_reference(s: ScoreMatrix, tau: float) -> Hierarchy:
    """Like greedy_reference, but each added edge maximizes the global sum of
    cluster-to-ancestor link scores, so an edge that sits under a strong
    chain can beat one with a higher direct score."""
    clusters = agglomerative_cluster(s, tau)
    m = len(clusters)
    link = {(a, b): cluster_link_score_reference(clusters[a], clusters[b], s)
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


# -- relation F1 (one set of summary-tagged relations per side) ----------

def _prf(pred: frozenset, gold: frozenset) -> DomainMetrics:
    return _prf_counts(len(pred & gold), len(pred), len(gold))


def _tagged_relations(hs: Mapping[str, Hierarchy]) -> frozenset[tuple[str, str, str]]:
    out = set()
    for sid in sorted(hs):
        for x, y in derive_relations(hs[sid]):
            out.add((sid, x, y))
    return frozenset(out)


def relation_f1_reference(predicted: Hierarchy | Iterable[Hierarchy],
                          gold: Hierarchy | Iterable[Hierarchy]) -> DomainMetrics:
    """Pooled precision/recall/F1 over the summaries' induced relations.

    Relations are pooled across all supplied summaries before computing the
    counts. Empty sets follow fixed conventions: empty predictions score
    precision 0 against nonempty gold, and 1 when gold is empty too.
    """
    pred_map = _by_summary(predicted, "predicted hierarchies")
    gold_map = _by_summary(gold, "gold hierarchies")
    _check_same_summaries(pred_map, gold_map)
    for sid, ph in sorted(pred_map.items()):
        _check_known_kps(sid, ph, gold_map[sid])
    return _prf(_tagged_relations(pred_map), _tagged_relations(gold_map))


# -- leave-one-out tuning (one pooled relation F1 per peer set and tau) --

def loo_threshold_tuning_reference(
    scores: Mapping[str, ScoreMatrix],
    gold: Mapping[str, Hierarchy],
    builder: Callable[[ScoreMatrix, float], Hierarchy],
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
) -> tuple[dict[str, float], EvalReport, dict[str, Hierarchy]]:
    """Pick each summary's tau on the other summaries of its domain.

    For summary S, every tau in the grid builds hierarchies for S's domain
    peers; the tau with the best pooled F1 on those peers (ties to the
    smallest tau) is then used to build S itself. The report pools each
    domain's held-out predictions. Returns the chosen taus, the report and
    the hierarchies built at them; each (summary, tau) is built once.
    """
    tau_grid = tuple(tau_grid)
    if not tau_grid:
        raise ValueError("tau grid must be nonempty")
    if set(scores) != set(gold):
        raise DataError("scores and gold must cover the same summaries")
    domains: dict[str, list[str]] = {}
    for sid in sorted(gold):
        domains.setdefault(gold[sid].domain, []).append(sid)
    for dom, sids in sorted(domains.items()):
        if len(sids) < 2:
            raise DataError(
                f"domain {dom!r} has a single summary ({sids[0]!r}); "
                f"leave-one-out tuning needs at least 2")

    built: dict[tuple[str, float], Hierarchy] = {}

    def build(sid: str, tau: float) -> Hierarchy:
        key = (sid, tau)
        if key not in built:
            built[key] = builder(scores[sid], tau)
        return built[key]

    chosen: dict[str, float] = {}
    for dom in sorted(domains):
        for sid in domains[dom]:
            peers = [p for p in domains[dom] if p != sid]
            best_tau = None
            best_f1 = -1.0
            for tau in tau_grid:
                f1 = relation_f1_reference([build(p, tau) for p in peers],
                                           [gold[p] for p in peers]).f1
                if f1 > best_f1 or f1 == best_f1 and tau < best_tau:
                    best_f1 = f1
                    best_tau = tau
            chosen[sid] = best_tau

    final = {sid: build(sid, chosen[sid]) for dom in sorted(domains) for sid in domains[dom]}
    per_domain = {}
    for dom in sorted(domains):
        sids = domains[dom]
        per_domain[dom] = relation_f1_reference([final[sid] for sid in sids],
                                                [gold[sid] for sid in sids])
    report = EvalReport(
        per_domain=per_domain,
        chosen_tau=chosen,
        provenance={"tau_grid": list(tau_grid),
                    "builder": getattr(builder, "__name__", "custom")},
    )
    return chosen, report, final


# -- exhaustive optimum (every partition, every forest) ------------------

BRUTE_FORCE_MAX_KPS = 7


# Forest shapes over m clusters, keyed by m: (parent items, ancestor pairs).
_FOREST_CACHE: dict[int, list[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]]] = {}


def _forest_structures(m: int):
    if m not in _FOREST_CACHE:
        shapes = []
        options = [[-1] + [j for j in range(m) if j != i] for i in range(m)]
        for pvec in itertools.product(*options):
            parent = {i: p for i, p in enumerate(pvec) if p != -1}
            anc_pairs = []
            ok = True
            for c in range(m):
                cur = c
                hops = 0
                while cur in parent:
                    cur = parent[cur]
                    hops += 1
                    if hops > m:
                        ok = False
                        break
                    anc_pairs.append((c, cur))
                if not ok:
                    break
            if ok:
                shapes.append((tuple(sorted(parent.items())), tuple(anc_pairs)))
        _FOREST_CACHE[m] = shapes
    return _FOREST_CACHE[m]


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_force_optimal_kph(s: ScoreMatrix, tau: float) -> tuple[Hierarchy, float]:
    """Exhaustively best hierarchy by objective value; tiny inputs only.

    Enumerates every partition of the key points into clusters and every
    forest over the clusters. Ties are broken by the hierarchy's canonical
    serialization, so the result is deterministic.
    """
    n = len(s.kp_ids)
    if n > BRUTE_FORCE_MAX_KPS:
        raise ValueError(
            f"brute force is limited to {BRUTE_FORCE_MAX_KPS} key points, got {n}")
    ids = sorted(s.kp_ids)
    if not ids:
        return Hierarchy(summary_id=s.summary_id, clusters=(), parent={}), 0.0
    pos = {x: i for i, x in enumerate(ids)}
    w = [[v - tau for v in row] for row in s.restrict(ids).values]

    best_obj = None
    best_struct = None  # (blocks, parent dict)
    best_key = None

    def struct_key(blocks, parent):
        return canonical_hierarchy(s.summary_id, blocks, parent).canonical_form()

    for blocks in _set_partitions(ids):
        rows = [[pos[x] for x in b] for b in blocks]
        m = len(blocks)
        W = [[0.0] * m for _ in range(m)]
        intra = 0.0
        for bi in range(m):
            for bj in range(m):
                if bi == bj:
                    W[bi][bi] = sum(w[x][y] for x in rows[bi] for y in rows[bi] if x != y)
                    intra += W[bi][bi]
                else:
                    W[bi][bj] = sum(w[x][y] for x in rows[bi] for y in rows[bj])
        for parent_items, anc_pairs in _forest_structures(m):
            obj = intra
            for c, a in anc_pairs:
                obj += W[c][a]
            if best_obj is None or obj > best_obj + 1e-12:
                best_obj = obj
                best_struct = (blocks, dict(parent_items))
                best_key = None
            elif obj >= best_obj - 1e-12:
                if best_key is None:
                    best_key = struct_key(*best_struct)
                key = struct_key(blocks, dict(parent_items))
                if key < best_key:
                    best_struct = (blocks, dict(parent_items))
                    best_key = key

    h = canonical_hierarchy(s.summary_id, *best_struct)
    return h, objective_value(h, s, tau)
