"""Evaluation of predicted hierarchies and raw score matrices against gold.

Relation-level F1 pools the induced relations of all summaries under
comparison (per domain, then macro-averaged across domains). Score matrices
are evaluated rank-free via precision/recall curves and the area under the
curve for recall above a minimum. Threshold selection is leave-one-out
within a domain so a summary's own gold never influences its tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import DEFAULT_MIN_RECALL, Hierarchy, derive_relations, left_to_right_mean
from .errors import DataError

# numpy loads only in the functions that need it (ranks, the AUC) and scoring
# only for type checks, so relation F1 (kph eval) and leave-one-out tuning
# (kph tune) load no numpy.
if TYPE_CHECKING:
    import numpy as np

    from .scoring import ScoreMatrix

DEFAULT_TAU_GRID = tuple(round(0.01 * k, 2) for k in range(101))


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
    """Per-domain metrics plus whatever a run produced (AUC, taus)."""

    per_domain: Mapping[str, DomainMetrics]
    per_domain_auc: Mapping[str, float] = field(default_factory=dict)
    chosen_tau: Mapping[str, float] = field(default_factory=dict)
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "per_domain",
                           {k: DomainMetrics(*v) for k, v in sorted(dict(self.per_domain).items())})
        object.__setattr__(self, "per_domain_auc", dict(sorted(dict(self.per_domain_auc).items())))
        object.__setattr__(self, "chosen_tau", dict(sorted(dict(self.chosen_tau).items())))
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def macro_precision(self) -> float:
        return left_to_right_mean(m.precision for m in self.per_domain.values())

    @property
    def macro_recall(self) -> float:
        return left_to_right_mean(m.recall for m in self.per_domain.values())

    @property
    def macro_f1(self) -> float:
        return left_to_right_mean(m.f1 for m in self.per_domain.values())

    @property
    def macro_auc(self) -> float:
        return left_to_right_mean(self.per_domain_auc.values())


def _prf_counts(inter: int, npred: int, ngold: int) -> DomainMetrics:
    if not npred and not ngold:
        return DomainMetrics(1.0, 1.0, 1.0)
    precision = inter / npred if npred else 0.0
    recall = inter / ngold if ngold else 1.0
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return DomainMetrics(precision, recall, f1)


def _by_summary(items, noun: str) -> dict:
    """One hierarchy or score matrix, or several, keyed by summary id.

    ``noun`` names the items in the error for a summary listed twice.
    """
    if hasattr(items, "summary_id"):
        items = [items]
    out = {}
    for x in items:
        if x.summary_id in out:
            raise DataError(f"{noun} list summary {x.summary_id!r} twice")
        out[x.summary_id] = x
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


def _counts(sid: str, pred: Hierarchy, gold: Hierarchy) -> tuple[int, int, int]:
    """(|pred & gold|, |pred|, |gold|) of one summary's induced relations, once checked."""
    _check_known_kps(sid, pred, gold)
    p, g = derive_relations(pred), derive_relations(gold)
    return len(p & g), len(p), len(g)


def _pooled(counts: Iterable[tuple[int, int, int]]) -> DomainMetrics:
    """The metrics of summed per-summary counts."""
    inter = npred = ngold = 0
    for i, p, g in counts:
        inter, npred, ngold = inter + i, npred + p, ngold + g
    return _prf_counts(inter, npred, ngold)


def relation_f1(predicted: Hierarchy | Iterable[Hierarchy],
                gold: Hierarchy | Iterable[Hierarchy]) -> DomainMetrics:
    """Pooled precision/recall/F1 over the summaries' induced relations.

    Relations are pooled across all supplied summaries before computing the
    counts. Empty sets follow fixed conventions: empty predictions score
    precision 0 against nonempty gold, and 1 when gold is empty too.
    """
    pred_map = _by_summary(predicted, "predicted hierarchies")
    gold_map = _by_summary(gold, "gold hierarchies")
    _check_same_summaries(pred_map, gold_map)
    # Pooled relations are tagged by summary, so the pooled counts are sums.
    return _pooled([_counts(sid, pred_map[sid], gold_map[sid]) for sid in sorted(pred_map)])


def evaluate_hierarchies(predicted: Iterable[Hierarchy],
                         gold: Iterable[Hierarchy]) -> EvalReport:
    """Relation F1 per domain (pooled within each domain) plus the macro mean."""
    pred_map = _by_summary(predicted, "predicted hierarchies")
    gold_map = _by_summary(gold, "gold hierarchies")
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
    score_map = _by_summary(scores, "score matrices")
    gold_map = _by_summary(gold, "gold hierarchies")
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
        rows = score_map[sid].restrict(ids).values
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
    import numpy as np

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
    import numpy as np

    if set(a.kp_ids) != set(b.kp_ids):
        raise DataError(
            f"scores {a.summary_id!r}: pair universes differ; "
            f"rank correlation is undefined")
    ids = sorted(a.kp_ids)
    if len(ids) < 2:
        raise DataError("rank correlation requires at least 2 pairs")
    off = ~np.eye(len(ids), dtype=bool)
    xs = np.array(a.restrict(ids).values)[off]
    ys = np.array(b.restrict(ids).values)[off]
    if xs.min() == xs.max() or ys.min() == ys.max():
        raise DataError("rank correlation is undefined for constant scores")
    ranked = np.column_stack((_average_ranks(xs), _average_ranks(ys)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, with tied values sharing the mean of their ranks."""
    import numpy as np

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
    hierarchies built at them. Each (summary, tau) is built, checked against
    gold and counted once, and a peer set's F1 is :func:`relation_f1`'s from
    the sum of its members' counts, as long as every hierarchy carries the
    summary id it is keyed by.
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
    counted: dict[tuple[str, float], tuple[int, int, int]] = {}

    def build(sid: str, tau: float) -> Hierarchy:
        key = (sid, tau)
        if key not in built:
            built[key] = builder(scores[sid], tau)
        return built[key]

    def count(sid: str, tau: float) -> tuple[int, int, int]:
        key = (sid, tau)
        if key not in counted:
            counted[key] = _counts(sid, build(sid, tau), gold[sid])
        return counted[key]

    chosen: dict[str, float] = {}
    for dom in sorted(domains):
        for sid in domains[dom]:
            peers = [p for p in domains[dom] if p != sid]
            best_tau = None
            best_f1 = -1.0
            for tau in tau_grid:
                hs = [build(p, tau) for p in peers]
                if all(h.summary_id == p == gold[p].summary_id for h, p in zip(hs, peers)):
                    f1 = _pooled([count(p, tau) for p in peers]).f1
                else:  # pair and check by summary id, as relation_f1 does
                    f1 = relation_f1(hs, [gold[p] for p in peers]).f1
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
