"""Evaluation of predicted hierarchies and raw score matrices against gold.

Relation-level F1 pools the induced relations of all summaries under
comparison (per domain, then macro-averaged across domains). Score matrices
are evaluated rank-free via precision/recall curves and the area under the
curve for recall above a minimum. Threshold selection is leave-one-out
within a domain so a summary's own gold never influences its tau.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import Hierarchy, RelationSet, canonical_hierarchy, derive_relations
from .construction import objective_value
from .errors import DataError
from .scoring import ScoreMatrix

DEFAULT_MIN_RECALL = 0.1
DEFAULT_TAU_GRID = tuple(round(0.01 * k, 2) for k in range(101))

BRUTE_FORCE_MAX_KPS = 7


class DomainMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    recall: float
    precision: float


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall points, one per distinct score threshold.

    Points are ordered by descending threshold, so recall never decreases
    along the list.
    """

    points: tuple[PRPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        prev = -1.0
        for p in self.points:
            if not (0.0 <= p.recall <= 1.0 and 0.0 <= p.precision <= 1.0):
                raise DataError(f"curve point out of range: {p}")
            if p.recall < prev:
                raise DataError("curve recalls must be non-decreasing")
            prev = p.recall

    @property
    def max_recall(self) -> float:
        return self.points[-1].recall if self.points else 0.0


@dataclass(frozen=True)
class EvalReport:
    """Per-domain metrics plus whatever a run produced (AUC, taus, curves)."""

    per_domain: Mapping[str, DomainMetrics]
    per_domain_auc: Mapping[str, float] = field(default_factory=dict)
    chosen_tau: Mapping[str, float] = field(default_factory=dict)
    curves: Mapping[str, PRCurve] = field(default_factory=dict)
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "per_domain",
                           {k: DomainMetrics(*v) for k, v in sorted(dict(self.per_domain).items())})
        object.__setattr__(self, "per_domain_auc", dict(sorted(dict(self.per_domain_auc).items())))
        object.__setattr__(self, "chosen_tau", dict(sorted(dict(self.chosen_tau).items())))
        object.__setattr__(self, "curves", dict(sorted(dict(self.curves).items())))
        object.__setattr__(self, "provenance", dict(self.provenance))

    def _macro(self, values: Iterable[float]) -> float:
        # Added left to right: builtin sum() compensates float sums from
        # Python 3.12 on, so its result, and the bytes written from it,
        # would depend on the interpreter.
        values = list(values)
        total = 0.0
        for v in values:
            total += v
        return total / len(values) if values else 0.0

    @property
    def macro_precision(self) -> float:
        return self._macro(m.precision for m in self.per_domain.values())

    @property
    def macro_recall(self) -> float:
        return self._macro(m.recall for m in self.per_domain.values())

    @property
    def macro_f1(self) -> float:
        return self._macro(m.f1 for m in self.per_domain.values())

    @property
    def macro_auc(self) -> float:
        return self._macro(self.per_domain_auc.values())


def _prf_counts(inter: int, npred: int, ngold: int) -> DomainMetrics:
    if not npred and not ngold:
        return DomainMetrics(1.0, 1.0, 1.0)
    precision = inter / npred if npred else 0.0
    recall = inter / ngold if ngold else 1.0
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return DomainMetrics(precision, recall, f1)


def _by_summary(hs: Hierarchy | Iterable[Hierarchy], role: str) -> dict[str, Hierarchy]:
    if isinstance(hs, Hierarchy):
        hs = [hs]
    out: dict[str, Hierarchy] = {}
    for h in hs:
        if h.summary_id in out:
            raise DataError(f"{role} hierarchies list summary {h.summary_id!r} twice")
        out[h.summary_id] = h
    return out


def _check_same_summaries(pred_map: Mapping[str, Hierarchy],
                          gold_map: Mapping[str, Hierarchy]) -> None:
    if set(pred_map) != set(gold_map):
        raise DataError(
            f"predicted and gold cover different summaries "
            f"(only predicted: {sorted(set(pred_map) - set(gold_map))}, "
            f"only gold: {sorted(set(gold_map) - set(pred_map))})")


def _check_known_kps(sid: str, pred: Hierarchy, gold: Hierarchy) -> None:
    if not pred.kp_ids <= gold.kp_ids:
        raise DataError(
            f"summary {sid!r}: predicted hierarchy uses key points not in gold: "
            f"{sorted(pred.kp_ids - gold.kp_ids)}")


def _pooled_f1(predicted: Hierarchy | Iterable[Hierarchy],
               gold: Hierarchy | Iterable[Hierarchy],
               relations: Callable[[Hierarchy], RelationSet]) -> DomainMetrics:
    """relation_f1 with the relation derivation supplied by the caller."""
    pred_map = _by_summary(predicted, "predicted")
    gold_map = _by_summary(gold, "gold")
    _check_same_summaries(pred_map, gold_map)
    sids = sorted(pred_map)
    for sid in sids:
        _check_known_kps(sid, pred_map[sid], gold_map[sid])
    pred_rel = [relations(pred_map[sid]) for sid in sids]
    gold_rel = [relations(gold_map[sid]) for sid in sids]
    # Pooled relations are tagged by summary, so the pooled counts are sums.
    return _prf_counts(sum(len(p & g) for p, g in zip(pred_rel, gold_rel)),
                       sum(map(len, pred_rel)), sum(map(len, gold_rel)))


def relation_f1(predicted: Hierarchy | Iterable[Hierarchy],
                gold: Hierarchy | Iterable[Hierarchy]) -> DomainMetrics:
    """Pooled precision/recall/F1 over the summaries' induced relations.

    Relations are pooled across all supplied summaries before computing the
    counts. Empty sets follow fixed conventions: empty predictions score
    precision 0 against nonempty gold, and 1 when gold is empty too.
    """
    return _pooled_f1(predicted, gold, derive_relations)


def evaluate_hierarchies(predicted: Iterable[Hierarchy],
                         gold: Iterable[Hierarchy]) -> EvalReport:
    """Relation F1 per domain (pooled within each domain) plus the macro mean."""
    pred_map = _by_summary(predicted, "predicted")
    gold_map = _by_summary(gold, "gold")
    _check_same_summaries(pred_map, gold_map)
    domains: dict[str, list[str]] = {}
    for sid in sorted(gold_map):
        domains.setdefault(gold_map[sid].domain, []).append(sid)
    per_domain = {}
    for dom in sorted(domains):
        sids = domains[dom]
        per_domain[dom] = relation_f1([pred_map[sid] for sid in sids],
                                      [gold_map[sid] for sid in sids])
    return EvalReport(per_domain=per_domain)


def pr_curve(scores: ScoreMatrix | Iterable[ScoreMatrix],
             gold: Hierarchy | Iterable[Hierarchy]) -> PRCurve:
    """Precision/recall over all ordered key point pairs of the gold summaries.

    A pair is a positive iff the gold hierarchy induces it. Pairs are ranked
    by score; each distinct score value yields one curve point computed as
    if every pair at or above it were predicted positive (ties enter as a
    block, never split).
    """
    if isinstance(scores, ScoreMatrix):
        scores = [scores]
    score_map: dict[str, ScoreMatrix] = {}
    for s in scores:
        if s.summary_id in score_map:
            raise DataError(f"score matrices list summary {s.summary_id!r} twice")
        score_map[s.summary_id] = s
    gold_map = _by_summary(gold, "gold")
    missing = sorted(set(gold_map) - set(score_map))
    if missing:
        raise DataError(f"no scores supplied for summaries {missing}")

    ranked = []  # (score, summary_id, src, dst, is_positive)
    num_pos = 0
    for sid in sorted(gold_map):
        gh = gold_map[sid]
        positives = derive_relations(gh)
        num_pos += len(positives)
        ids = sorted(gh.kp_ids)
        rows = score_map[sid].restrict(ids).values.tolist()
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if a != b:
                    ranked.append((rows[i][j], sid, a, b, (a, b) in positives))
    ranked.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))

    points = []
    tp = 0
    seen = 0
    i = 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j][0] == ranked[i][0]:
            tp += ranked[j][4]
            seen += 1
            j += 1
        recall = tp / num_pos if num_pos else 0.0
        points.append(PRPoint(threshold=ranked[i][0], recall=recall, precision=tp / seen))
        i = j
    return PRCurve(points=tuple(points))


def auc_at_min_recall(curve: PRCurve, min_recall: float = DEFAULT_MIN_RECALL) -> float:
    """Trapezoidal area under the PR polyline for recall >= min_recall.

    The polyline is linearly interpolated at min_recall when a segment
    crosses it; a curve that never reaches min_recall has area 0.
    """
    pts = [(p.recall, p.precision) for p in curve.points]
    if not pts or pts[-1][0] <= min_recall:
        return 0.0
    clipped: list[tuple[float, float]] = []
    prev = None
    for r, p in pts:
        if r >= min_recall:
            if prev is not None and prev[0] < min_recall < r:
                t = (min_recall - prev[0]) / (r - prev[0])
                clipped.append((min_recall, prev[1] + t * (p - prev[1])))
            clipped.append((r, p))
        prev = (r, p)
    xs = [r for r, _ in clipped]
    ys = [p for _, p in clipped]
    return float(np.trapezoid(ys, xs))


def local_relations_baseline(s: ScoreMatrix, tau: float) -> frozenset[tuple[str, str]]:
    """Treat every pair scoring above tau as a relation, with no structure."""
    return frozenset((a, b) for a, b, v in s.pairs() if v > tau)


def spearman_correlation(a: ScoreMatrix, b: ScoreMatrix) -> float:
    """Spearman rank correlation of two scorers, pairing scores by key point id."""
    if set(a.kp_ids) != set(b.kp_ids):
        raise DataError(
            f"scores {a.summary_id!r}: pair universes differ; "
            f"rank correlation is undefined")
    ids = sorted(a.kp_ids)
    if len(ids) < 2:
        raise DataError("rank correlation requires at least 2 pairs")
    off = ~np.eye(len(ids), dtype=bool)
    xs = a.restrict(ids).values[off]
    ys = b.restrict(ids).values[off]
    if xs.min() == xs.max() or ys.min() == ys.max():
        raise DataError("rank correlation is undefined for constant scores")
    ranked = np.column_stack((_average_ranks(xs), _average_ranks(ys)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, with tied values sharing the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    counts = np.diff(np.r_[starts, len(x)])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def loo_threshold_tuning(
    scores: Mapping[str, ScoreMatrix],
    gold: Mapping[str, Hierarchy],
    builder: Callable[[ScoreMatrix, float], Hierarchy],
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
) -> tuple[dict[str, float], EvalReport, dict[str, Hierarchy]]:
    """Pick each summary's tau on the other summaries of its domain.

    For summary S, every tau in the grid builds hierarchies for S's domain
    peers; the tau with the best pooled F1 on those peers (ties to the
    smallest tau) is then used to build S itself. The report is
    :func:`evaluate_hierarchies` of the held-out predictions against gold,
    plus the chosen taus. Returns the chosen taus, the report and the
    hierarchies built at them.

    Each (summary, tau) is built once, and each built or gold hierarchy
    object has its relations derived once. A builder may return one
    hierarchy object for several taus (``kph tune`` builds reduced_forest
    once per threshold graph), and that object is derived once.
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
    # Relations keyed by object id; every object stays alive in ``built`` or
    # ``gold``, so no id is reused.
    derived: dict[int, RelationSet] = {}

    def build(sid: str, tau: float) -> Hierarchy:
        key = (sid, tau)
        if key not in built:
            built[key] = builder(scores[sid], tau)
        return built[key]

    def relations(h: Hierarchy) -> RelationSet:
        rel = derived.get(id(h))
        if rel is None:
            rel = derived[id(h)] = derive_relations(h)
        return rel

    chosen: dict[str, float] = {}
    for dom in sorted(domains):
        for sid in domains[dom]:
            peers = [p for p in domains[dom] if p != sid]
            best_tau = None
            best_f1 = -1.0
            for tau in tau_grid:
                f1 = _pooled_f1([build(p, tau) for p in peers],
                                [gold[p] for p in peers], relations).f1
                if f1 > best_f1:
                    best_f1 = f1
                    best_tau = tau
            chosen[sid] = best_tau

    final = {sid: build(sid, chosen[sid]) for dom in sorted(domains) for sid in domains[dom]}
    report = replace(
        evaluate_hierarchies(final.values(), gold.values()),
        chosen_tau=chosen,
        provenance={"tau_grid": list(tau_grid),
                    "builder": getattr(builder, "__name__", "custom")},
    )
    return chosen, report, final


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
    w = (s.restrict(ids).values - tau).tolist()

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
