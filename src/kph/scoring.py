"""Directional local scores between key points.

The evidence for "key point i is more specific than key point j" is
distributional: each key point's weights are its column of a
sentence-match matrix, its support is the set of sentences matched above a
threshold, and the four scorers measure how well i's support is included
in j's. Externally computed scores (e.g. from an entailment model) enter
through the same ScoreMatrix type and can be averaged with local ones.
A ScoreMatrix is complete: an n x n array over its key points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import KeyPointSet
from .errors import DataError

DEFAULT_THETA_MATCH = 0.5

# Weak-label export: the entail threshold, negatives kept per positive, and
# the seed that samples the negatives.
DEFAULT_WEAK_LABEL_THRESHOLD = 0.5
DEFAULT_NEG_RATIO = 5.0
DEFAULT_WEAK_LABEL_SEED = 0


@dataclass(frozen=True, eq=False)
class MatchMatrix:
    """Sentence x key point match likelihoods for one summary."""

    summary_id: str
    sentence_ids: tuple[str, ...]
    kp_ids: tuple[str, ...]
    values: np.ndarray
    domain: str = "other"

    def __post_init__(self):
        object.__setattr__(self, "sentence_ids", tuple(self.sentence_ids))
        object.__setattr__(self, "kp_ids", tuple(self.kp_ids))
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.sentence_ids), len(self.kp_ids)):
            raise DataError(
                f"match matrix {self.summary_id!r}: values have shape {values.shape}, "
                f"expected ({len(self.sentence_ids)}, {len(self.kp_ids)})")
        if len(set(self.sentence_ids)) != len(self.sentence_ids):
            raise DataError(f"match matrix {self.summary_id!r}: duplicate sentence ids")
        if len(set(self.kp_ids)) != len(self.kp_ids):
            raise DataError(f"match matrix {self.summary_id!r}: duplicate key point ids")
        if values.size and (not np.isfinite(values).all()
                            or values.min() < 0.0 or values.max() > 1.0):
            raise DataError(f"match matrix {self.summary_id!r}: values must lie in [0, 1]")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def num_sentences(self) -> int:
        return len(self.sentence_ids)


def _sums_down(a: np.ndarray) -> np.ndarray:
    # Each column's sum, added sentence by sentence from the first: the
    # order of a left-to-right loop over the support, because adding a
    # masked 0.0 is exact. Score bytes depend on this order.
    return np.add.accumulate(a, axis=0)[-1]


def _per_row(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """num[i, j] / denom[i], and 0.0 for each row i whose denom is 0."""
    out = np.zeros(num.shape)
    np.divide(num, denom[:, None], out=out, where=denom[:, None] != 0)
    return out


def _bininc(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Fraction of i's support sentences that are also in j's support."""
    # Integer counts: a float product would go through BLAS, whose worker
    # threads spin after each call and cost more CPU time than they save.
    c = s.astype(np.int64)
    shared = c.T @ c
    return _per_row(shared, np.diagonal(shared))


def _inclusion(w: np.ndarray, s: np.ndarray, shared) -> np.ndarray:
    """Row i: shared(w_i, w_j) summed over S_i & S_j, divided by i's support mass.

    Only i's support rows can hold a shared term, so the sum runs down
    those rows alone; the terms it skips are 0.0 and change no bit.
    """
    num = np.zeros((w.shape[1], w.shape[1]))
    for i in range(w.shape[1]):
        rows = np.flatnonzero(s[:, i])
        if rows.size:
            num[i] = _sums_down(np.where(s[rows], shared(w[rows, i:i + 1], w[rows]), 0.0))
    return _per_row(num, _sums_down(np.where(s, w, 0.0)))


def _weedsprec(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Weight-mass fraction of i's support that falls inside j's support."""
    return _inclusion(w, s, lambda wi, wj: wi)


def _clarkede(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Degree of inclusion: shared mass is capped by j's own weights."""
    return _inclusion(w, s, np.minimum)


def _apinc(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Average-precision-style inclusion of i's ranked support in j's.

    Each support is ranked by descending weight, equal weights by sentence
    index. Walking down i's ranking, rank r contributes P(r) (precision of
    the top r against j's support) times a relevance 1 - rank_j / (|S_j| + 1)
    that decays with the sentence's rank in j; sentences outside j's
    support contribute nothing. The sum is divided by |S_i|.
    """
    ranked = []
    rank = np.zeros(w.shape, dtype=np.int64)  # rank[k, j]: k's 1-based rank in j, 0 outside
    for j in range(w.shape[1]):
        sj = np.flatnonzero(s[:, j])
        order = sj[np.lexsort((sj, -w[sj, j]))]
        rank[order, j] = np.arange(1, order.size + 1)
        ranked.append(order)
    rel = 1.0 - rank / (s.sum(axis=0) + 1)
    out = np.zeros((w.shape[1], w.shape[1]))
    for i, order in enumerate(ranked):
        if order.size:
            hit = s[order]
            r = np.arange(1, order.size + 1)[:, None]
            terms = np.where(hit, (np.cumsum(hit, axis=0) / r) * rel[order], 0.0)
            out[i] = _sums_down(terms) / order.size
    return out


# Each scorer maps the match values and the support mask (values >=
# theta_match), both sentences x key points, to the n x n scores s(i, j).
SCORERS = {
    "bininc": _bininc,
    "weedsprec": _weedsprec,
    "clarkede": _clarkede,
    "apinc": _apinc,
}


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Directional scores s(i, j) over every ordered pair of distinct key points.

    ``values[i, j]`` is s(kp_ids[i], kp_ids[j]): a read-only n x n float
    array whose diagonal is 0 and whose other entries lie in [0, 1]. A
    score matrix is therefore complete by construction; pair data enters
    through :meth:`from_pairs`, which requires every ordered pair.
    """

    summary_id: str
    kp_ids: tuple[str, ...]
    values: np.ndarray
    scorer: str = ""
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "kp_ids", tuple(self.kp_ids))
        if len(set(self.kp_ids)) != len(self.kp_ids):
            raise DataError(f"scores {self.summary_id!r}: duplicate key point ids")
        n = len(self.kp_ids)
        values = np.array(self.values, dtype=float)
        if values.shape != (n, n):
            raise DataError(f"scores {self.summary_id!r}: values have shape {values.shape}, "
                            f"expected ({n}, {n})")
        if not ((values >= 0.0) & (values <= 1.0)).all():  # NaN fails both
            raise DataError(f"scores {self.summary_id!r}: values must lie in [0, 1]")
        if np.diagonal(values).any():
            raise DataError(f"scores {self.summary_id!r}: the diagonal must be 0")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "params", dict(self.params))

    def __reduce__(self):
        # Pickles and deep copies are rebuilt through the constructor, and so checked again.
        return type(self), (self.summary_id, self.kp_ids, self.values, self.scorer, self.params)

    @classmethod
    def from_pairs(cls, summary_id: str, kp_ids: Sequence[str],
                   scores: Mapping[tuple[str, str], float], scorer: str = "",
                   params: Mapping[str, object] | None = None) -> "ScoreMatrix":
        """The matrix holding one score per ordered pair of distinct ``kp_ids``."""
        kp_ids = tuple(kp_ids)  # duplicates fail in __post_init__ if nothing fails first
        pos = {x: i for i, x in enumerate(kp_ids)}
        values = np.zeros((len(kp_ids), len(kp_ids)))
        scores = dict(scores)
        for (src, dst), v in scores.items():
            if src == dst:
                raise DataError(f"scores {summary_id!r}: reflexive pair ({src!r}, {dst!r})")
            if src not in pos or dst not in pos:
                raise DataError(
                    f"scores {summary_id!r}: pair ({src!r}, {dst!r}) uses a "
                    f"key point outside the declared universe")
            v = float(v)
            if not 0.0 <= v <= 1.0:  # NaN fails too
                raise DataError(
                    f"scores {summary_id!r}: score {v!r} for pair ({src!r}, {dst!r}) "
                    f"is outside [0, 1]")
            values[pos[src], pos[dst]] = v
        missing = [(a, b) for a in kp_ids for b in kp_ids if a != b and (a, b) not in scores]
        if missing:
            shown = ", ".join(f"({a!r}, {b!r})" for a, b in missing[:5])
            more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
            raise DataError(f"scores {summary_id!r}: missing pairs {shown}{more}")
        return cls(summary_id, kp_ids, values, scorer, params or {})

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.kp_ids)}

    @cached_property
    def scores(self) -> Mapping[tuple[str, str], float]:
        """Read-only view {(src, dst): score} of every off-diagonal entry."""
        return MappingProxyType({(a, b): v for a, b, v in self.pairs()})

    def score(self, src: str, dst: str) -> float:
        if src == dst or src not in self._index or dst not in self._index:
            raise DataError(f"scores {self.summary_id!r}: no score for pair ({src!r}, {dst!r})")
        return float(self.values[self._index[src], self._index[dst]])

    def pairs(self) -> Iterator[tuple[str, str, float]]:
        """(src, dst, score) for every ordered pair, sorted by (src, dst)."""
        order = sorted(range(len(self.kp_ids)), key=self.kp_ids.__getitem__)
        rows = self.values.tolist()
        for i in order:
            row = rows[i]
            for j in order:
                if i != j:
                    yield self.kp_ids[i], self.kp_ids[j], row[j]

    def restrict(self, kp_ids: Sequence[str]) -> "ScoreMatrix":
        """Submatrix over the given key points (order preserved, deduped)."""
        keep = list(dict.fromkeys(kp_ids))
        unknown = [x for x in keep if x not in self._index]
        if unknown:
            raise DataError(f"scores {self.summary_id!r}: unknown key points {unknown}")
        idx = [self._index[x] for x in keep]
        return ScoreMatrix(self.summary_id, keep, self.values[np.ix_(idx, idx)],
                           self.scorer, self.params)


def compute_score_matrix(m: MatchMatrix, scorer: str,
                         theta_match: float = DEFAULT_THETA_MATCH) -> ScoreMatrix:
    """Score every ordered pair of the matrix's key points with one scorer.

    A key point's support is the set of sentences whose match value is at
    least ``theta_match``.
    """
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}; expected one of {sorted(SCORERS)}")
    if not 0.0 <= theta_match <= 1.0:
        raise ValueError(f"theta_match must lie in [0, 1], got {theta_match}")
    if m.num_sentences == 0 or not m.kp_ids:
        raise DataError(f"match matrix {m.summary_id!r} is empty; nothing to score")
    values = SCORERS[scorer](m.values, m.values >= theta_match)
    np.fill_diagonal(values, 0.0)
    return ScoreMatrix(m.summary_id, m.kp_ids, values, scorer, {"theta_match": theta_match})


def combine_average(a: ScoreMatrix, b: ScoreMatrix) -> ScoreMatrix:
    """Elementwise mean of two score matrices, pairing scores by key point id."""
    if a.summary_id != b.summary_id:
        raise DataError(
            f"cannot combine scores for different summaries "
            f"({a.summary_id!r} vs {b.summary_id!r})")
    if set(a.kp_ids) != set(b.kp_ids):
        raise DataError(
            f"scores {a.summary_id!r}: pair universes differ between "
            f"{a.scorer or 'first'} and {b.scorer or 'second'} inputs")
    name_a = a.scorer or "a"
    name_b = b.scorer or "b"
    return ScoreMatrix(a.summary_id, a.kp_ids, (a.values + b.restrict(a.kp_ids).values) / 2.0,
                       f"average({name_a},{name_b})", {"sources": [name_a, name_b]})


@dataclass(frozen=True)
class WeakLabelRecord:
    premise: str
    hypothesis: str
    label: str
    score: float


@dataclass(frozen=True)
class WeakLabelSet:
    """Silver entail/neutral training pairs exported from one score matrix."""

    summary_id: str
    records: tuple[WeakLabelRecord, ...]
    threshold: float
    neg_ratio: float
    seed: int
    no_positives: bool = False

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def num_positive(self) -> int:
        return sum(1 for r in self.records if r.label == "entail")

    @property
    def num_negative(self) -> int:
        return sum(1 for r in self.records if r.label == "neutral")


def export_weak_labels(scores: ScoreMatrix, kps: KeyPointSet,
                       threshold: float = DEFAULT_WEAK_LABEL_THRESHOLD,
                       neg_ratio: float = DEFAULT_NEG_RATIO,
                       seed: int = DEFAULT_WEAK_LABEL_SEED) -> WeakLabelSet:
    """Label score pairs entail/neutral and downsample the negatives.

    Pairs scoring strictly above ``threshold`` become entail records; the
    rest are neutral candidates, downsampled uniformly without replacement
    to ``neg_ratio`` times the positive count (or kept whole if fewer).
    With zero positives the set is empty and flagged ``no_positives``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if not (math.isfinite(neg_ratio) and neg_ratio >= 1):
        raise ValueError(f"neg_ratio must be a finite number >= 1, got {neg_ratio}")
    if kps.summary_id != scores.summary_id:
        raise DataError(
            f"weak labels: scores are for {scores.summary_id!r} but key points "
            f"are for {kps.summary_id!r}")
    eligible = set(kps.unfiltered_ids)
    positives = []
    negatives = []
    for src, dst, v in scores.pairs():
        if src not in eligible or dst not in eligible:
            continue
        (positives if v > threshold else negatives).append((src, dst, v))

    if not positives:
        return WeakLabelSet(summary_id=scores.summary_id, records=(),
                            threshold=threshold, neg_ratio=neg_ratio, seed=seed,
                            no_positives=True)

    target = neg_ratio * len(positives)  # inf when it overflows: keep every negative
    if len(negatives) > target:
        # random.Random keeps its stream stable across interpreter versions,
        # which keeps exported files reproducible.
        rng = random.Random(seed)
        rng.shuffle(negatives)
        negatives = sorted(negatives[:int(round(target))])

    records = []
    for src, dst, v in positives:
        records.append(WeakLabelRecord(kps.get(src).text, kps.get(dst).text, "entail", v))
    for src, dst, v in negatives:
        records.append(WeakLabelRecord(kps.get(src).text, kps.get(dst).text, "neutral", v))
    return WeakLabelSet(summary_id=scores.summary_id, records=tuple(records),
                        threshold=threshold, neg_ratio=neg_ratio, seed=seed)
