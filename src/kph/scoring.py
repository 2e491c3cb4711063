"""Directional local scores between key points.

The evidence for "key point i is more specific than key point j" is
distributional: each key point's feature vector is the column of a
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

    def column(self, kp_id: str) -> np.ndarray:
        try:
            j = self.kp_ids.index(kp_id)
        except ValueError:
            raise KeyError(f"match matrix {self.summary_id!r}: unknown key point {kp_id!r}") from None
        return self.values[:, j]


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """One key point's match weights over the summary's sentences.

    ``support`` holds the indices of sentences whose weight reached the
    match threshold the vector was built with.
    """

    kp_id: str
    weights: np.ndarray
    support: frozenset[int]

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        weights = weights.copy()
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "support", frozenset(self.support))


def build_feature_vectors(m: MatchMatrix, theta_match: float = DEFAULT_THETA_MATCH) -> list[FeatureVector]:
    """One feature vector per key point column, support thresholded at theta_match."""
    if not 0.0 <= theta_match <= 1.0:
        raise ValueError(f"theta_match must lie in [0, 1], got {theta_match}")
    if m.num_sentences == 0 or not m.kp_ids:
        raise DataError(f"match matrix {m.summary_id!r} is empty; nothing to score")
    out = []
    for j, kp_id in enumerate(m.kp_ids):
        col = m.values[:, j]
        support = frozenset(int(i) for i in np.flatnonzero(col >= theta_match))
        out.append(FeatureVector(kp_id=kp_id, weights=col, support=support))
    return out


def _check_universe(fi: FeatureVector, fj: FeatureVector) -> None:
    if len(fi.weights) != len(fj.weights):
        raise DataError(
            f"feature vectors {fi.kp_id!r} and {fj.kp_id!r} cover different "
            f"sentence universes ({len(fi.weights)} vs {len(fj.weights)} sentences)")


def score_binary_inclusion(fi: FeatureVector, fj: FeatureVector) -> float:
    """Fraction of i's support sentences that are also in j's support."""
    _check_universe(fi, fj)
    if not fi.support:
        return 0.0
    return len(fi.support & fj.support) / len(fi.support)


def score_weedsprec(fi: FeatureVector, fj: FeatureVector) -> float:
    """Weight-mass fraction of i's support that falls inside j's support."""
    _check_universe(fi, fj)
    denom = sum(float(fi.weights[k]) for k in sorted(fi.support))
    if denom == 0.0:
        return 0.0
    num = sum(float(fi.weights[k]) for k in sorted(fi.support & fj.support))
    return num / denom


def score_clarkede(fi: FeatureVector, fj: FeatureVector) -> float:
    """Degree of inclusion: shared mass is capped by j's own weights."""
    _check_universe(fi, fj)
    denom = sum(float(fi.weights[k]) for k in sorted(fi.support))
    if denom == 0.0:
        return 0.0
    num = sum(min(float(fi.weights[k]), float(fj.weights[k]))
              for k in sorted(fi.support & fj.support))
    return num / denom


def _ranked(support: frozenset[int], weights: np.ndarray) -> list[int]:
    # Descending weight; equal weights fall back to sentence index so the
    # ranking is a total order.
    return sorted(support, key=lambda k: (-float(weights[k]), k))


def score_apinc(fi: FeatureVector, fj: FeatureVector) -> float:
    """Average-precision-style inclusion of i's ranked support in j's.

    i's support is ranked by descending weight; each rank r contributes
    P(r) (precision of the top-r against j's support) times a relevance
    that decays with the feature's rank in j. Features outside j's support
    contribute nothing.
    """
    _check_universe(fi, fj)
    if not fi.support:
        return 0.0
    order_i = _ranked(fi.support, fi.weights)
    rank_j = {f: r for r, f in enumerate(_ranked(fj.support, fj.weights), start=1)}
    nj = len(fj.support)
    total = 0.0
    hits = 0
    for r, f in enumerate(order_i, start=1):
        if f in rank_j:
            hits += 1
            rel = 1.0 - rank_j[f] / (nj + 1)
            total += (hits / r) * rel
    return total / len(order_i)


SCORERS = {
    "bininc": score_binary_inclusion,
    "weedsprec": score_weedsprec,
    "clarkede": score_clarkede,
    "apinc": score_apinc,
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
    """Score every ordered pair of the matrix's key points with one scorer."""
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}; expected one of {sorted(SCORERS)}")
    vectors = build_feature_vectors(m, theta_match)
    fn = SCORERS[scorer]
    values = np.zeros((len(vectors), len(vectors)))
    for i, fi in enumerate(vectors):
        for j, fj in enumerate(vectors):
            if i != j:
                values[i, j] = fn(fi, fj)
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


def export_weak_labels(scores: ScoreMatrix, kps: KeyPointSet, threshold: float = 0.5,
                       neg_ratio: float = 5, seed: int = 0) -> WeakLabelSet:
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
