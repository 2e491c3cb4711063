"""Distributional scorers, score matrices, and weak-label export."""

import copy
import itertools
import pickle
import random

import numpy as np
import pytest

from kph import (
    SCORERS,
    DataError,
    KeyPoint,
    KeyPointSet,
    MatchMatrix,
    ScoreMatrix,
    combine_average,
    compute_score_matrix,
    export_weak_labels,
)
from helpers import pair_score
from oracles import apinc_ref, bininc_ref, clarkede_ref, pair_score_values, weedsprec_ref

ORACLES = {
    "bininc": bininc_ref,
    "weedsprec": weedsprec_ref,
    "clarkede": clarkede_ref,
    "apinc": apinc_ref,
}


def assert_read_only_floats(values):
    """Score rows are tuples of Python floats, so no caller can change them."""
    assert type(values) is tuple and all(type(row) is tuple for row in values)
    assert all(type(v) is float for row in values for v in row)


class TestMatchMatrix:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            MatchMatrix(summary_id="s", sentence_ids=("s0", "s1"), kp_ids=("a",),
                        values=np.zeros((2, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            MatchMatrix(summary_id="s", sentence_ids=("s0",), kp_ids=("a",),
                        values=np.array([[1.5]]))

    def test_rejects_duplicate_kp_ids(self):
        with pytest.raises(DataError):
            MatchMatrix(summary_id="s", sentence_ids=("s0",), kp_ids=("a", "a"),
                        values=np.zeros((1, 2)))

    def test_values_are_read_only(self):
        m = MatchMatrix(summary_id="s", sentence_ids=("s0",), kp_ids=("a",),
                        values=np.array([[0.5]]))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.9


class TestSupportThreshold:
    def test_threshold_is_inclusive(self):
        # The all-ones column supports all three sentences; under an
        # inclusive threshold 0.5 and 0.51 are in the other's support.
        assert pair_score("bininc", [1.0, 1.0, 1.0], [0.5, 0.49, 0.51], 0.5) == 2 / 3

    def test_rejects_bad_theta(self):
        m = MatchMatrix(summary_id="s", sentence_ids=("s0",), kp_ids=("a",),
                        values=np.array([[0.5]]))
        with pytest.raises(ValueError):
            compute_score_matrix(m, "bininc", theta_match=1.5)


class TestScorerHandValues:
    # wi support {0,1,2} with weights 1.0, 1.0, 0.5 (sum 2.5);
    # wj support {0,1,3}; intersection {0,1}.
    WI = [1.0, 1.0, 0.5, 0.0]
    WJ = [0.9, 0.6, 0.0, 0.7]

    def score(self, scorer):
        return pair_score(scorer, self.WI, self.WJ)

    def test_binary_inclusion(self):
        assert self.score("bininc") == pytest.approx(2 / 3, abs=1e-12)

    def test_weedsprec(self):
        # (1.0 + 1.0) / 2.5
        assert self.score("weedsprec") == pytest.approx(0.8, abs=1e-12)

    def test_clarkede(self):
        # (min(1.0, 0.9) + min(1.0, 0.6)) / 2.5 = 1.5 / 2.5
        assert self.score("clarkede") == pytest.approx(0.6, abs=1e-12)

    def test_apinc(self):
        # i ranks [0, 1, 2]; j ranks 0->1, 3->2, 1->3 of |sup_j|=3.
        # r=1: P=1, rel(0)=1-1/4; r=2: P=1, rel(1)=1-3/4; r=3: miss.
        # (0.75 + 0.25) / 3
        assert self.score("apinc") == pytest.approx(1 / 3, abs=1e-12)


class TestScorerEdgeCases:
    def test_empty_antecedent_support_scores_zero(self):
        for scorer in SCORERS:
            assert pair_score(scorer, [0.1, 0.2], [0.9, 0.9]) == 0.0

    def test_disjoint_supports_score_zero(self):
        for scorer in SCORERS:
            assert pair_score(scorer, [0.9, 0.9, 0.0, 0.0], [0.0, 0.0, 0.9, 0.9]) == 0.0

    def test_support_subset_gives_full_inclusion(self):
        wi = [0.9, 0.8, 0.0, 0.0]
        wj = [0.7, 0.6, 0.9, 0.0]
        assert pair_score("bininc", wi, wj) == 1.0
        assert pair_score("weedsprec", wi, wj) == 1.0

    def test_bininc_equals_weedsprec_on_constant_weights(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randrange(1, 10)
            wi = [0.8 if rng.random() < 0.5 else 0.0 for _ in range(n)]
            wj = [0.8 if rng.random() < 0.5 else 0.0 for _ in range(n)]
            assert pair_score("bininc", wi, wj) == pytest.approx(
                pair_score("weedsprec", wi, wj), abs=1e-12)

    def test_apinc_self_is_half(self):
        rng = random.Random(22)
        for _ in range(50):
            n = rng.randrange(1, 10)
            w = [round(rng.uniform(0.5, 1.0), 3) for _ in range(n)]
            assert pair_score("apinc", w, w) == pytest.approx(0.5, abs=1e-12)

    def test_apinc_rewards_top_ranked_shared_features(self):
        # Antecedent supports features 0 and 1 only; consequent supports all
        # five. With full overlap the score reduces to
        # (rel(rank of 0) + rel(rank of 1)) / 2, so it is a strictly
        # decreasing function of the consequent ranks of features 0 and 1.
        wi = [0.9, 0.8, 0.0, 0.0, 0.0]
        base = [0.9, 0.8, 0.7, 0.6, 0.55]
        for perm in itertools.permutations(range(5)):
            wj = [0.0] * 5
            for rank_pos, feature in enumerate(perm):
                wj[feature] = base[rank_pos]
            got = pair_score("apinc", wi, wj)
            r0, r1 = perm.index(0) + 1, perm.index(1) + 1
            want = ((1 - r0 / 6) + (1 - r1 / 6)) / 2
            assert got == pytest.approx(want, abs=1e-12)


class TestScorersAgainstReference:
    def test_random_pairs_match_reference(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            n = rng.randrange(1, 12)
            theta = rng.choice([0.3, 0.5, 0.7])
            wi = np.array([rng.random() if rng.random() < 0.8 else 0.0 for _ in range(n)])
            wj = np.array([rng.random() if rng.random() < 0.8 else 0.0 for _ in range(n)])
            for name in SCORERS:
                assert pair_score(name, wi, wj, theta) == pytest.approx(
                    ORACLES[name](wi, wj, theta), abs=1e-9), (name, wi, wj, theta)
            checked += 1

    def test_scores_stay_in_unit_interval(self):
        rng = random.Random(24)
        for _ in range(100):
            n = rng.randrange(1, 8)
            wi = [rng.random() for _ in range(n)]
            wj = [rng.random() for _ in range(n)]
            for scorer in SCORERS:
                assert 0.0 <= pair_score(scorer, wi, wj) <= 1.0


class TestScorersMatchPairOracle:
    """The array kernels add the same floats in the same order as the
    per-pair scorers, so every score is equal to the last bit."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(25)
        yield np.array([[0.7, 0.2, 0.7]]), 0.5                      # one sentence
        yield np.array([[0.0, 0.4], [0.0, 0.9], [0.0, 0.6]]), 0.5   # all-zero column
        yield np.array([[0.1, 0.6], [0.3, 0.9], [0.2, 0.6]]), 0.5   # empty support
        for case in range(240):
            rows = int(rng.integers(1, 300))
            cols = int(rng.integers(1, 9))
            values = rng.random((rows, cols)) * (rng.random((rows, cols)) < 0.7)
            if case % 2:
                values = np.round(values, 2)  # ties within and across columns
            if case % 4 == 0:
                values[:, rng.integers(cols)] = 0.0
            yield values, (0.0, 0.3, 0.5, 0.7)[case % 4]

    def test_equal_to_the_bit(self):
        checked = 0
        for values, theta in self._matrices():
            m = MatchMatrix(summary_id="s", sentence_ids=[f"s{k}" for k in range(len(values))],
                            kp_ids=[f"k{j}" for j in range(values.shape[1])], values=values)
            for name in SCORERS:
                got = compute_score_matrix(m, name, theta).values
                want = pair_score_values(m.values, name, theta)
                assert np.array_equal(got, want), (name, values.shape, theta)
            checked += 1
        assert checked == 243

    def test_accumulate_adds_left_to_right(self):
        # The kernels rely on np.add.accumulate adding element after element.
        # Pairwise or compensated summation gives 1.0000000000000016 here.
        v = [1.0] + [1e-16] * 16
        total = 0.0
        for x in v:
            total += x
        assert total == 1.0
        assert np.add.accumulate(np.array(v))[-1] == total
        assert np.add.accumulate(np.array(v)[:, None] * np.ones(3), axis=0)[-1].tolist() == [total] * 3


class TestScoreMatrix:
    def _m(self):
        return ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                      scores={("a", "b"): 0.3, ("b", "a"): 0.7})

    def test_score_lookup(self):
        assert self._m().score("a", "b") == 0.3

    @pytest.mark.parametrize("copy_of", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_pickle_and_deepcopy_rebuild_an_equal_matrix(self, copy_of):
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("b", "a", "c"),
                                   scores={("a", "b"): 0.3, ("b", "a"): 0.7, ("a", "c"): 0.1,
                                           ("c", "a"): 0.0, ("b", "c"): 1.0, ("c", "b"): 0.5},
                                   scorer="bininc", params={"theta_match": 0.5})
        m.scores  # a cached value must not stop the copy
        g = copy_of(m)
        assert (g.summary_id, g.kp_ids, g.scorer, g.params) == \
            (m.summary_id, m.kp_ids, m.scorer, m.params)
        assert g.values is not m.values and g.values == m.values
        assert_read_only_floats(g.values)
        assert g.scores == m.scores

    def test_missing_pair_raises(self):
        with pytest.raises(DataError, match=r"scores 's': missing pairs \('b', 'a'\)$"):
            ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"), scores={("a", "b"): 0.3})

    def test_rejects_reflexive_pairs(self):
        with pytest.raises(DataError):
            ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a",), scores={("a", "a"): 1.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 1.2, ("b", "a"): 0.0})

    def test_pairs_sorted(self):
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("b", "a"),
                                   scores={("b", "a"): 0.1, ("a", "b"): 0.2})
        assert [(s, d) for s, d, _ in m.pairs()] == [("a", "b"), ("b", "a")]

    def test_incomplete_pairs_error_lists_five_then_a_count(self):
        want = (r"scores 's': missing pairs \('a', 'c'\), \('a', 'd'\), \('b', 'a'\), "
                r"\('b', 'c'\), \('b', 'd'\) and 6 more$")
        with pytest.raises(DataError, match=want):
            ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b", "c", "d"),
                                   scores={("a", "b"): 0.1})

    @pytest.mark.parametrize("values,match", [
        (np.zeros((2, 3)), r"values have shape \(2, 3\), expected \(2, 2\)"),
        (np.zeros(4), r"values have shape \(4,\), expected \(2, 2\)"),
        ([[0.0, float("nan")], [0.5, 0.0]], r"values must lie in \[0, 1\]"),
        ([[0.0, 1.5], [0.5, 0.0]], r"values must lie in \[0, 1\]"),
        ([[0.0, -0.1], [0.5, 0.0]], r"values must lie in \[0, 1\]"),
        ([[0.2, 0.5], [0.5, 0.0]], r"the diagonal must be 0"),
    ])
    def test_rejects_bad_values(self, values, match):
        with pytest.raises(DataError, match=match):
            ScoreMatrix(summary_id="s", kp_ids=("a", "b"), values=values)

    def test_values_are_a_read_only_copy(self):
        raw = np.array([[0.0, 0.3], [0.7, 0.0]])
        m = ScoreMatrix(summary_id="s", kp_ids=("a", "b"), values=raw)
        raw[0, 1] = 0.9
        assert m.score("a", "b") == 0.3
        with pytest.raises(TypeError):
            m.values[0][1] = 0.9

    @pytest.mark.parametrize("src,dst", [("a", "a"), ("a", "x"), ("x", "b")])
    def test_score_rejects_unknown_or_equal_ids(self, src, dst):
        with pytest.raises(DataError, match=r"scores 's': no score for pair"):
            self._m().score(src, dst)

    def test_from_pairs_rejects_unknown_key_point(self):
        with pytest.raises(DataError, match="outside the declared universe"):
            ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 0.3, ("b", "a"): 0.7, ("a", "x"): 0.1})

    def test_restrict_keeps_the_requested_order(self):
        ids = ("a", "b", "c", "d")
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=ids,
                                   scores={(x, y): (ids.index(x) * 4 + ids.index(y)) / 16
                                           for x in ids for y in ids if x != y})
        r = m.restrict(["d", "b", "d", "a"])
        assert r.kp_ids == ("d", "b", "a")
        for x in r.kp_ids:
            for y in r.kp_ids:
                if x != y:
                    assert r.score(x, y) == m.score(x, y)
        with pytest.raises(DataError, match=r"unknown key points \['x'\]"):
            m.restrict(["a", "x"])

    def test_restrict(self):
        m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b", "c"),
                                   scores={(x, y): 0.5 for x in "abc" for y in "abc" if x != y})
        r = m.restrict(["a", "c"])
        assert r.kp_ids == ("a", "c")
        assert set(r.scores) == {("a", "c"), ("c", "a")}


class TestComputeScoreMatrix:
    def test_complete_and_tagged(self):
        m = MatchMatrix(summary_id="s", sentence_ids=("s0", "s1"), kp_ids=("a", "b"),
                        values=np.array([[0.9, 0.6], [0.2, 0.8]]))
        sm = compute_score_matrix(m, "bininc")
        assert sm.kp_ids == ("a", "b")
        assert sm.values == ((0.0, 1.0), (0.5, 0.0))
        assert_read_only_floats(sm.values)
        assert sm.scorer == "bininc"
        assert sm.params.get("theta_match") == 0.5
        # support(a) = {0}, support(b) = {0, 1}: a's one feature is shared.
        assert sm.score("a", "b") == 1.0
        assert sm.score("b", "a") == 0.5

    def test_unknown_scorer(self):
        m = MatchMatrix(summary_id="s", sentence_ids=("s0",), kp_ids=("a",),
                        values=np.array([[0.9]]))
        with pytest.raises((KeyError, ValueError, DataError)):
            compute_score_matrix(m, "nope")


class TestCombineAverage:
    def _pair(self):
        a = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 0.2, ("b", "a"): 0.6}, scorer="bininc")
        b = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 0.4, ("b", "a"): 1.0}, scorer="apinc")
        return a, b

    def test_elementwise_mean(self):
        c = combine_average(*self._pair())
        assert c.score("a", "b") == pytest.approx(0.3, abs=1e-12)
        assert c.score("b", "a") == pytest.approx(0.8, abs=1e-12)
        assert "bininc" in c.scorer and "apinc" in c.scorer

    def test_idempotent_on_self(self):
        a, _ = self._pair()
        c = combine_average(a, a)
        assert all(c.score(s, d) == pytest.approx(v, abs=1e-12)
                   for s, d, v in a.pairs())

    def test_pairs_scores_by_key_point_id(self):
        ids = ("a", "b", "c")
        a = ScoreMatrix.from_pairs(summary_id="s", kp_ids=ids,
                                   scores={(x, y): (ids.index(x) * 3 + ids.index(y)) / 9
                                           for x in ids for y in ids if x != y})
        shuffled = a.restrict(["c", "a", "b"])
        for c in (combine_average(a, shuffled), combine_average(shuffled, a)):
            assert dict(c.scores) == dict(a.scores)

    def test_mismatched_universe_rejected(self):
        a, _ = self._pair()
        other = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "c"),
                                       scores={("a", "c"): 0.5, ("c", "a"): 0.5})
        with pytest.raises(DataError):
            combine_average(a, other)

    def test_mismatched_summary_rejected(self):
        a, _ = self._pair()
        other = ScoreMatrix.from_pairs(summary_id="t", kp_ids=("a", "b"),
                                       scores={("a", "b"): 0.5, ("b", "a"): 0.5})
        with pytest.raises(DataError):
            combine_average(a, other)


def _weak_fixture(n=6, filtered=(), scores=None):
    kps = KeyPointSet(
        summary_id="s", domain="hotels",
        key_points=tuple(
            KeyPoint(id=f"k{i}", text=f"text {i}", polarity="positive",
                     match_count=5, filtered=(i in filtered))
            for i in range(n)))
    ids = tuple(f"k{i}" for i in range(n))
    if scores is None:
        rng = random.Random(99)
        scores = {(a, b): rng.random() for a in ids for b in ids if a != b}
    return ScoreMatrix.from_pairs(summary_id="s", kp_ids=ids, scores=scores), kps


class TestExportWeakLabels:
    def test_positive_count_and_negative_truncation(self):
        ids = [f"k{i}" for i in range(4)]
        scores = {(a, b): 0.1 for a in ids for b in ids if a != b}
        scores[("k0", "k1")] = 0.9
        scores[("k1", "k0")] = 0.8
        sm, kps = _weak_fixture(4, scores=scores)
        out = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=2, seed=0)
        assert out.num_positive == 2
        assert out.num_negative == 4  # round(2 * 2) of the 10 candidates
        assert not out.no_positives

    def test_keeps_all_negatives_when_below_target(self):
        ids = ["k0", "k1"]
        scores = {("k0", "k1"): 0.9, ("k1", "k0"): 0.1}
        sm, kps = _weak_fixture(2, scores=scores)
        out = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=5, seed=0)
        assert out.num_positive == 1
        assert out.num_negative == 1

    def test_threshold_is_strict(self):
        ids = ["k0", "k1"]
        scores = {("k0", "k1"): 0.5, ("k1", "k0"): 0.51}
        sm, kps = _weak_fixture(2, scores=scores)
        out = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=1, seed=0)
        entail = [r for r in out.records if r.label == "entail"]
        assert len(entail) == 1 and entail[0].score == 0.51

    def test_same_seed_same_records(self):
        sm, kps = _weak_fixture(6)
        a = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=1, seed=42)
        b = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=1, seed=42)
        assert a.records == b.records

    def test_different_seeds_can_differ(self):
        sm, kps = _weak_fixture(6)
        sets = {export_weak_labels(sm, kps, threshold=0.5, neg_ratio=1, seed=s).records
                for s in range(8)}
        assert len(sets) > 1

    def test_filtered_key_points_excluded(self):
        ids = [f"k{i}" for i in range(3)]
        scores = {(a, b): 0.9 for a in ids for b in ids if a != b}
        sm, kps = _weak_fixture(3, filtered={2}, scores=scores)
        out = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=1, seed=0)
        texts = {r.premise for r in out.records} | {r.hypothesis for r in out.records}
        assert "text 2" not in texts
        assert out.num_positive == 2  # k0 <-> k1 both directions

    def test_zero_positives_flagged(self):
        ids = ["k0", "k1"]
        scores = {("k0", "k1"): 0.1, ("k1", "k0"): 0.2}
        sm, kps = _weak_fixture(2, scores=scores)
        out = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=5, seed=0)
        assert out.no_positives and out.records == ()

    def test_parameter_validation(self):
        sm, kps = _weak_fixture(2, scores={("k0", "k1"): 0.9, ("k1", "k0"): 0.1})
        with pytest.raises(ValueError):
            export_weak_labels(sm, kps, threshold=1.0)
        with pytest.raises(ValueError):
            export_weak_labels(sm, kps, threshold=0.5, neg_ratio=0.5)
        for ratio in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="neg_ratio must be a finite number"):
                export_weak_labels(sm, kps, threshold=0.5, neg_ratio=ratio)

    def test_huge_ratio_keeps_every_negative(self):
        sm, kps = _weak_fixture(6)
        # The target 1e308 * positives overflows to inf; every negative stays.
        out = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=1e308, seed=0)
        every = export_weak_labels(sm, kps, threshold=0.5, neg_ratio=1000, seed=0)
        assert out.num_positive > 1
        assert out.records == every.records
        assert out.num_negative == 30 - out.num_positive
