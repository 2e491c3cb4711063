"""Hierarchy construction: reduced forest, local search, greedy variants."""

import random

import pytest

from kph import (
    ALGORITHMS,
    ConstructionConfig,
    DataError,
    Hierarchy,
    HierarchyError,
    ScoreMatrix,
    agglomerative_cluster,
    build_greedy,
    build_greedy_gs,
    build_hierarchy,
    build_reduced_forest,
    build_tncf,
    cluster_link_score,
    derive_relations,
    objective_value,
)
from kph.construction import _ancestor_sum, _apply_move, _condense, _move_gains
from kph.core import ancestor_chains
from helpers import (
    adjacency,
    edge_set,
    forest_matrix,
    random_dag_edges,
    random_digraph,
    random_hierarchy,
    random_score_matrix,
    same_structure,
)
from oracles import (
    cluster_link_score_reference,
    condensation_edges,
    fw_closure,
    greedy_gs_reference,
    greedy_reference,
    is_transitive_reduction_of,
    relations_by_closure,
    scc_partition,
    tncf_reference,
)
from oracles import _ancestor_sum as ancestor_sum_reference
from oracles import _candidate_states as tncf_candidate_states
from oracles import _state_objective as tncf_state_objective


def sm(ids, pairs, default=0.05, summary_id="s"):
    """Score matrix with given (src, dst) -> score overrides, rest at default."""
    scores = {(a, b): default for a in ids for b in ids if a != b}
    scores.update(pairs)
    return ScoreMatrix.from_pairs(summary_id=summary_id, kp_ids=tuple(ids), scores=scores)


def shuffled_matrix(rng: random.Random, n: int, step: float) -> ScoreMatrix:
    """Random scores over ids listed out of sorted order, on a grid of step (0: none)."""
    ids = [f"k{i:02d}" for i in range(n)]
    rng.shuffle(ids)
    scores = {}
    for a in ids:
        for b in ids:
            if a != b:
                v = rng.random()
                scores[(a, b)] = round(v / step) * step if step else v
    return ScoreMatrix.from_pairs(summary_id="s", kp_ids=ids, scores=scores)


def edge_pairs(h: Hierarchy) -> set[tuple[frozenset, frozenset]]:
    return {(h.clusters[c], h.clusters[p]) for c, p in h.parent.items()}


def c(*ids):
    return frozenset(ids)


class TestObjectiveValue:
    def test_missing_induced_pair_is_data_error(self):
        # The hierarchy holds b, which the scores lack, so pair (b, a) has no score.
        h = Hierarchy(summary_id="s", clusters=(c("a"), c("b")), parent={1: 0})
        m = sm(["a", "x"], {})
        with pytest.raises(DataError, match=r"scores 's': unknown key points \['b'\]"):
            objective_value(h, m, 0.5)

    def test_pairs_not_induced_need_no_score(self):
        # Only (b, a) is induced; the other pairs and key point x leave no trace.
        h = Hierarchy(summary_id="s", clusters=(c("a"), c("b")), parent={1: 0})
        m = sm(["a", "b", "x"], {("b", "a"): 0.9}, default=1.0)
        assert objective_value(h, m, 0.5) == pytest.approx(0.4, abs=1e-12)

    def test_co_cluster_pair(self):
        # (0.8 - 0.4) + (0.6 - 0.4)
        h = Hierarchy(summary_id="s", clusters=(c("a", "b"),), parent={})
        m = sm(["a", "b"], {("a", "b"): 0.8, ("b", "a"): 0.6})
        assert objective_value(h, m, 0.4) == pytest.approx(0.6, abs=1e-12)

    def test_weak_edge_scores_negative(self):
        h = Hierarchy(summary_id="s", clusters=(c("a"), c("b")), parent={1: 0})
        m = sm(["a", "b"], {("b", "a"): 0.3})
        assert objective_value(h, m, 0.5) == pytest.approx(-0.2, abs=1e-12)

    def test_singletons_score_zero(self):
        h = Hierarchy(summary_id="s", clusters=(c("a"), c("b")), parent={})
        m = sm(["a", "b"], {})
        assert objective_value(h, m, 0.5) == 0.0

    def test_matches_closure_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            h = random_hierarchy(rng, rng.randrange(1, 9))
            m = random_score_matrix(rng, len(h.kp_ids))
            # the generator names key points identically, so universes line up
            tau = rng.choice([0.3, 0.5, 0.7])
            want = sum(m.score(a, b) - tau
                       for a, b in sorted(relations_by_closure(h.clusters, h.parent)))
            assert objective_value(h, m, tau) == pytest.approx(want, abs=1e-9)


# One structurally broken (clusters, parent) per violation kind building refuses.
BROKEN = {
    "duplicate-membership": ((c("a", "b"), c("b")), {}),
    "empty-cluster": ((c("a"), c()), {}),
    "cycle": ((c("a"), c("b")), {0: 1, 1: 0}),
}


@pytest.mark.parametrize("kind", sorted(BROKEN))
@pytest.mark.parametrize("fn", ["derive_relations", "objective_value"])
def test_structure_violations_raise(kind, fn):
    # A broken structure never reaches a consumer: building it raises first.
    clusters, parent = BROKEN[kind]
    with pytest.raises(HierarchyError, match=f"^invalid hierarchy: {kind}: "):
        h = Hierarchy(summary_id="s", clusters=clusters, parent=parent)
        if fn == "derive_relations":
            derive_relations(h)
        else:
            objective_value(h, sm(["a", "b"], {}), 0.5)


class TestReducedForest:
    def test_mutual_edges_collapse_to_cluster(self):
        m = sm(["a", "b"], {("a", "b"): 0.9, ("b", "a"): 0.9})
        h = build_reduced_forest(m, 0.5)
        assert h.clusters == (c("a", "b"),)
        assert h.parent == {}

    def test_single_direction_becomes_edge(self):
        m = sm(["a", "b"], {("b", "a"): 0.9})
        h = build_reduced_forest(m, 0.5)
        assert edge_pairs(h) == {(c("b"), c("a"))}

    def test_threshold_is_strict(self):
        m = sm(["a", "b"], {("b", "a"): 0.5})
        h = build_reduced_forest(m, 0.5)
        assert h.parent == {}

    def test_shortcut_edge_removed(self):
        m = sm(["a", "b", "c"],
               {("c", "b"): 0.9, ("b", "a"): 0.9, ("c", "a"): 0.8})
        h = build_reduced_forest(m, 0.5)
        assert edge_pairs(h) == {(c("c"), c("b")), (c("b"), c("a"))}
        # the shortcut survives as a derived relation
        assert ("c", "a") in derive_relations(h)

    def test_parent_choice_prefers_larger_cluster(self):
        # x links to the pair cluster {p, q} at 0.6 and to singleton {r}
        # at 0.9; cluster size outranks link strength.
        m = sm(["p", "q", "r", "x"],
               {("p", "q"): 0.9, ("q", "p"): 0.9,
                ("x", "p"): 0.6, ("x", "q"): 0.6, ("x", "r"): 0.9})
        h = build_reduced_forest(m, 0.5)
        assert (c("x"), c("p", "q")) in edge_pairs(h)

    def test_parent_choice_breaks_size_ties_by_mean_link(self):
        m = sm(["a", "b", "c", "x"],
               {("x", "b"): 0.8, ("x", "c"): 0.78})
        h = build_reduced_forest(m, 0.5)
        assert edge_pairs(h) == {(c("x"), c("b"))}

    def test_parent_choice_breaks_exact_ties_by_cluster_order(self):
        m = sm(["b", "c", "x"], {("x", "b"): 0.8, ("x", "c"): 0.8})
        h = build_reduced_forest(m, 0.5)
        assert edge_pairs(h) == {(c("x"), c("b"))}

    def test_isolated_nodes_kept_as_singleton_roots(self):
        m = sm(["a", "b", "z"], {("b", "a"): 0.9})
        h = build_reduced_forest(m, 0.5)
        assert c("z") in h.clusters
        assert h.kp_ids == frozenset({"a", "b", "z"})

    def test_clusters_are_exactly_threshold_graph_sccs(self):
        rng = random.Random(32)
        for _ in range(100):
            n = rng.randrange(1, 9)
            m = random_score_matrix(rng, n)
            tau = rng.choice([0.3, 0.5, 0.7])
            h = build_reduced_forest(m, tau)
            ids = sorted(m.kp_ids)
            edges = {(a, b) for (a, b), v in m.scores.items() if v > tau}
            assert set(h.clusters) == scc_partition(ids, edges)

    def test_relations_are_sound_wrt_threshold_graph(self):
        # every derived relation must be witnessed by a path of
        # above-threshold scores
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randrange(2, 9)
            m = random_score_matrix(rng, n)
            tau = rng.choice([0.3, 0.5, 0.7])
            h = build_reduced_forest(m, tau)
            ids = sorted(m.kp_ids)
            edges = {(a, b) for (a, b), v in m.scores.items() if v > tau}
            closure = fw_closure(ids, edges)
            for a, b in derive_relations(h):
                assert b in closure[a]


class TestCondense:
    """_condense checked against the Floyd-Warshall oracles."""

    def test_two_cycle(self):
        comps, reduced = _condense(adjacency(3, {(0, 1), (1, 0), (1, 2)}))
        assert comps == [[0, 1], [2]]
        assert edge_set(reduced) == {(0, 1)}

    def test_diagonal_ignored(self):
        comps, reduced = _condense(adjacency(2, {(0, 0), (1, 1), (0, 1)}))
        assert comps == [[0], [1]]
        assert edge_set(reduced) == {(0, 1)}

    def test_matches_mutual_reachability_oracle(self):
        rng = random.Random(101)
        for _ in range(200):
            adj = random_digraph(rng, n=rng.randrange(1, 9), p=rng.uniform(0.05, 0.6))
            comps, _ = _condense(adj)
            assert {frozenset(comp) for comp in comps} == scc_partition(
                list(range(len(adj))), edge_set(adj))
            assert comps == sorted(comps)
            assert all(comp == sorted(comp) for comp in comps)

    def test_deterministic(self):
        rng = random.Random(7)
        adj = random_digraph(rng, n=8, p=0.4)
        comps, reduced = _condense(adj)
        again, reduced_again = _condense(adj)
        assert again == comps
        assert reduced_again == reduced

    def test_isolated_nodes(self):
        comps, reduced = _condense([0] * 4)
        assert comps == [[0], [1], [2], [3]]
        assert not any(reduced)

    def test_condensed_graph_is_dag(self):
        rng = random.Random(202)
        for _ in range(100):
            adj = random_digraph(rng, n=rng.randrange(2, 9), p=rng.uniform(0.1, 0.7))
            comps, reduced = _condense(adj)
            closure = fw_closure(list(range(len(comps))), edge_set(reduced))
            for u in range(len(comps)):
                assert u not in closure[u], "condensation left a cycle"

    def test_edges_match_oracle(self):
        # the reduced condensation is the transitive reduction of the
        # oracle's condensation edges
        rng = random.Random(303)
        for _ in range(100):
            adj = random_digraph(rng, n=rng.randrange(2, 9), p=rng.uniform(0.1, 0.7))
            comps, reduced = _condense(adj)
            members = [frozenset(comp) for comp in comps]
            got = {(members[u], members[v]) for u, v in edge_set(reduced)}
            want = condensation_edges(list(range(len(adj))), edge_set(adj))
            assert is_transitive_reduction_of(members, want, got)

    def test_chain_with_shortcut(self):
        _, reduced = _condense(adjacency(3, {(0, 1), (1, 2), (0, 2)}))
        assert edge_set(reduced) == {(0, 1), (1, 2)}

    def test_unique_minimal_equivalent_graph(self):
        # For a DAG the reduction is characterized by: same closure as the
        # input, and removing any one edge changes the closure.
        rng = random.Random(404)
        for _ in range(200):
            n = rng.randrange(1, 9)
            edges = random_dag_edges(rng, n=n, p=rng.uniform(0.1, 0.7))
            comps, reduced = _condense(adjacency(n, edges))
            assert comps == [[u] for u in range(n)]
            assert is_transitive_reduction_of(list(range(n)), edges, edge_set(reduced))

    def test_preserves_nodes(self):
        comps, reduced = _condense(adjacency(5, {(0, 4)}))
        assert comps == [[u] for u in range(5)]
        assert len(reduced) == 5
        assert edge_set(reduced) == {(0, 4)}

    def test_empty_graph(self):
        comps, reduced = _condense([])
        assert comps == []
        assert reduced == []


class TestClusterLinkScore:
    def _m(self):
        return sm(["a", "b", "x", "y"],
                  {("a", "x"): 0.8, ("a", "y"): 0.6, ("b", "x"): 0.4, ("b", "y"): 0.2,
                   ("x", "a"): 0.1, ("x", "b"): 0.1, ("y", "a"): 0.1, ("y", "b"): 0.1})

    def test_mean_over_cross_pairs(self):
        got = cluster_link_score(c("a", "b"), c("x", "y"), self._m())
        assert got == pytest.approx((0.8 + 0.6 + 0.4 + 0.2) / 4, abs=1e-12)

    def test_directional(self):
        m = self._m()
        assert cluster_link_score(c("x", "y"), c("a", "b"), m) == pytest.approx(0.1, abs=1e-12)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            cluster_link_score(c("a", "b"), c("b", "x"), self._m())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cluster_link_score(c(), c("a"), self._m())

    @pytest.mark.parametrize("c1, c2", [
        (c("a"), c("zz")),
        (c("zz"), c("a")),
        (c("a", "zz"), c("x")),
        (c("a", "b"), c("x", "zz", "y")),
        (c("a", "qq"), c("x", "zz")),
    ])
    def test_unknown_key_point_is_data_error(self, c1, c2):
        # The error names the first pair, in sorted member order, that has no score.
        with pytest.raises(DataError) as want:
            cluster_link_score_reference(c1, c2, self._m())
        with pytest.raises(DataError, match="no score for pair") as got:
            cluster_link_score(c1, c2, self._m())
        assert str(got.value) == str(want.value)

    def test_matches_reference(self):
        rng = random.Random(40)
        for _ in range(100):
            m = shuffled_matrix(rng, rng.randrange(2, 9), (0.0, 0.25)[rng.randrange(2)])
            ids = list(m.kp_ids)
            rng.shuffle(ids)
            k = rng.randrange(1, len(ids))
            c1, c2 = frozenset(ids[:k]), frozenset(ids[k:rng.randrange(k + 1, len(ids) + 1)])
            assert cluster_link_score(c1, c2, m) == cluster_link_score_reference(c1, c2, m)


class TestAgglomerativeCluster:
    def test_single_merge_then_stop(self):
        # d(a,b) = 1 - 0.8 = 0.2 merges; {a,b} vs c averages
        # (0.95 + 0.9) / 2 = 0.925 > 0.5 and stops.
        m = sm(["a", "b", "c"],
               {("a", "b"): 0.9, ("b", "a"): 0.8,
                ("a", "c"): 0.05, ("c", "a"): 0.05,
                ("b", "c"): 0.1, ("c", "b"): 0.2})
        got = set(agglomerative_cluster(m, 0.5))
        assert got == {c("a", "b"), c("c")}

    def test_merge_at_exact_threshold_distance(self):
        # min(s(a,b), s(b,a)) = 0.5 gives distance 0.5 = 1 - tau: merged.
        m = sm(["a", "b"], {("a", "b"): 0.5, ("b", "a"): 0.6})
        assert set(agglomerative_cluster(m, 0.5)) == {c("a", "b")}

    def test_no_merge_just_above_threshold_distance(self):
        m = sm(["a", "b"], {("a", "b"): 0.499, ("b", "a"): 0.6})
        assert set(agglomerative_cluster(m, 0.5)) == {c("a"), c("b")}

    def test_matches_naive_reference(self):
        from oracles import average_linkage_ref
        rng = random.Random(34)
        for _ in range(100):
            n = rng.randrange(2, 9)
            m = random_score_matrix(rng, n)
            tau = rng.choice([0.3, 0.5, 0.7])
            ids = sorted(m.kp_ids)
            dist = {}
            for a in ids:
                for b in ids:
                    if a != b:
                        dist[(a, b)] = 1.0 - min(m.score(a, b), m.score(b, a))
            got = set(agglomerative_cluster(m, tau))
            assert got == average_linkage_ref(ids, dist, 1.0 - tau)

    def test_matches_scipy_average_linkage(self):
        pytest.importorskip("scipy")
        import numpy as np
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import squareform

        rng = random.Random(35)
        for _ in range(50):
            n = rng.randrange(2, 9)
            # distinct symmetric distances so tie policy cannot matter
            vals = rng.sample(range(1, 1000), n * (n - 1) // 2)
            ids = [f"k{i:02d}" for i in range(n)]
            dmat = np.zeros((n, n))
            it = iter(vals)
            for i in range(n):
                for j in range(i + 1, n):
                    dmat[i, j] = dmat[j, i] = next(it) / 1000.0
            scores = {}
            for i in range(n):
                for j in range(n):
                    if i != j:
                        scores[(ids[i], ids[j])] = 1.0 - dmat[i, j]
            m = ScoreMatrix.from_pairs(summary_id="s", kp_ids=tuple(ids), scores=scores)
            tau = rng.choice([0.2, 0.5, 0.8])
            labels = fcluster(linkage(squareform(dmat), method="average"),
                              t=1.0 - tau, criterion="distance")
            want = {}
            for idx, lab in enumerate(labels):
                want.setdefault(lab, set()).add(ids[idx])
            assert set(agglomerative_cluster(m, tau)) == {frozenset(v) for v in want.values()}


class TestGreedy:
    def test_edge_trace_skips_second_parent(self):
        # candidates by score: (a->b, 0.9) added, (a->c, 0.8) skipped
        # because a already has a parent, (b->c, 0.6) added.
        m = sm(["a", "b", "c"],
               {("a", "b"): 0.9, ("a", "c"): 0.8, ("b", "c"): 0.6})
        h = build_greedy(m, 0.5)
        assert edge_pairs(h) == {(c("a"), c("b")), (c("b"), c("c"))}

    def test_cycle_closing_edge_skipped(self):
        # three equal candidates orderd a->b, b->c, c->a: the last one
        # would close a cycle and is dropped.
        m = sm(["a", "b", "c"],
               {("a", "b"): 0.9, ("b", "c"): 0.9, ("c", "a"): 0.9})
        h = build_greedy(m, 0.5)
        assert edge_pairs(h) == {(c("a"), c("b")), (c("b"), c("c"))}

    def test_score_tie_broken_by_pair_order(self):
        m = sm(["a", "b", "x"], {("x", "a"): 0.8, ("x", "b"): 0.8})
        h = build_greedy(m, 0.5)
        assert edge_pairs(h) == {(c("x"), c("a"))}

    def test_no_edges_at_or_below_tau(self):
        m = sm(["a", "b"], {("a", "b"): 0.5, ("b", "a"): 0.45})
        h = build_greedy(m, 0.5)
        assert h.parent == {}

    def test_clusters_then_links_clusters(self):
        # a and b merge (both directions 0.9); c attaches to the pair via
        # the mean of s(c,a)=0.8 and s(c,b)=0.7.
        m = sm(["a", "b", "z"],
               {("a", "b"): 0.9, ("b", "a"): 0.9, ("z", "a"): 0.8, ("z", "b"): 0.7})
        h = build_greedy(m, 0.5)
        assert edge_pairs(h) == {(c("z"), c("a", "b"))}


class TestGreedyGs:
    # b attaches to a (0.9). For d the single best link is d->z (0.8), but
    # hanging d under b also pays for the inherited pair (d, a):
    # 0.7 + 0.6 > 0.8.
    FIX = {("b", "a"): 0.9, ("d", "z"): 0.8, ("d", "b"): 0.7, ("d", "a"): 0.6}

    def test_accounts_for_inherited_ancestors(self):
        m = sm(["a", "b", "d", "z"], self.FIX)
        h = build_greedy_gs(m, 0.5)
        assert edge_pairs(h) == {(c("b"), c("a")), (c("d"), c("b"))}

    def test_plain_greedy_takes_local_best_instead(self):
        m = sm(["a", "b", "d", "z"], self.FIX)
        h = build_greedy(m, 0.5)
        assert edge_pairs(h) == {(c("b"), c("a")), (c("d"), c("z"))}

    def test_matches_greedy_on_single_candidate(self):
        m = sm(["a", "b"], {("b", "a"): 0.9})
        assert same_structure(build_greedy_gs(m, 0.5), build_greedy(m, 0.5))

    def test_outputs_are_valid_forests(self):
        rng = random.Random(36)
        for _ in range(50):
            m = random_score_matrix(rng, rng.randrange(1, 9))
            h = build_greedy_gs(m, 0.5)  # building checks the forest
            assert h.kp_ids == frozenset(m.kp_ids)


class TestGreedyMatchesReference:
    """build_greedy and build_greedy_gs against the two loops they replaced:
    a sort-and-scan and an argmax over whole-forest re-sums."""

    @staticmethod
    def check(m: ScoreMatrix, tau: float):
        for got, want in ((build_greedy(m, tau), greedy_reference(m, tau)),
                          (build_greedy_gs(m, tau), greedy_gs_reference(m, tau))):
            assert (got.clusters, got.parent) == (want.clusters, want.parent)

    @pytest.mark.parametrize("step", [0.5, 0.25, 0.0])
    def test_seeded_instances(self, step):
        # Ids listed out of sorted order; scores on a grid of the given step
        # (0: unquantised), so that links and ancestor sums tie exactly.
        rng = random.Random(1008 + int(100 * step))
        for k in range(300):
            m = shuffled_matrix(rng, rng.randrange(2, 14), step)
            tau = (0.0, 0.5, 1.0, rng.random())[k % 4]
            self.check(m, tau)

    def test_acceptance_4_instances(self):
        rng = random.Random(1004)
        for k in range(100):
            self.check(random_score_matrix(rng, rng.randrange(2, 7)), (0.3, 0.5, 0.7)[k % 3])


class TestAncestorSumMatchesReference:
    """greedy_gs's edge value, read off the chains of the forest without the
    edge, against re-walking the forest with the edge added."""

    @pytest.mark.parametrize("step", [0.5, 0.25, 0.0])
    def test_every_legal_edge_of_seeded_forests(self, step):
        # Links on a grid of the given step (0: unquantised, where the order
        # of the terms shows in the float sum).
        rng = random.Random(1809 + int(100 * step))
        checked = 0
        for _ in range(300):
            m = rng.randrange(1, 10)
            order = rng.sample(range(m), m)
            parent = {c: order[rng.randrange(k)] for k, c in enumerate(order)
                      if k and rng.random() < 0.6}
            link = [[round(rng.random() / step) * step if step else rng.random()
                     for _ in range(m)] for _ in range(m)]
            chains = ancestor_chains(parent, m)
            for a in range(m):
                for b in range(m):
                    if a != b and a not in parent and a not in chains[b]:
                        assert _ancestor_sum(link, chains, a, b) == \
                            ancestor_sum_reference(link, {**parent, a: b}), (parent, a, b)
                        checked += 1
        assert checked > 1000


class TestTncf:
    def test_keeps_already_optimal_forest(self):
        m = sm(["a", "b"], {("b", "a"): 0.9})
        init = build_reduced_forest(m, 0.5)
        h = build_tncf(m, 0.5)
        assert same_structure(h, init)

    def test_escapes_bad_parent_choice(self):
        # Reduced forest prefers d->b (0.8 beats 0.78) and inherits the
        # costly pair (d, a) through b->a, for an objective of
        # 0.3 - 0.4 + 0.3 = 0.2. Moving d under c instead scores
        # 0.28 + 0.3 = 0.58, which a single node move reaches.
        m = sm(["a", "b", "cc", "d", "e"],
               {("d", "b"): 0.8, ("b", "a"): 0.8, ("d", "cc"): 0.78, ("d", "a"): 0.1})
        init = build_reduced_forest(m, 0.5)
        assert objective_value(init, m, 0.5) == pytest.approx(0.2, abs=1e-9)
        h = build_tncf(m, 0.5)
        assert objective_value(h, m, 0.5) == pytest.approx(0.58, abs=1e-9)
        assert edge_pairs(h) == {(c("d"), c("cc")), (c("b"), c("a"))}

    def test_all_below_tau_stays_singletons(self):
        m = sm(["a", "b", "cc"], {}, default=0.2)
        h = build_tncf(m, 0.5)
        assert h.parent == {} and len(h.clusters) == 3

    def test_never_worse_than_reduced_forest(self):
        rng = random.Random(37)
        for _ in range(60):
            m = random_score_matrix(rng, rng.randrange(1, 8))
            tau = rng.choice([0.3, 0.5, 0.7])
            init = objective_value(build_reduced_forest(m, tau), m, tau)
            got = objective_value(build_tncf(m, tau), m, tau)
            assert got >= init - 1e-9

    def test_stats_report_convergence(self):
        # The fixture of test_escapes_bad_parent_choice: one improving
        # move, so the second pass is the one that proves convergence.
        m = sm(["a", "b", "cc", "d", "e"],
               {("d", "b"): 0.8, ("b", "a"): 0.8, ("d", "cc"): 0.78, ("d", "a"): 0.1})
        stats = {}
        build_hierarchy(m, ConstructionConfig(tau=0.5, algorithm="tncf"), stats=stats)
        assert (stats["passes"], stats["accepted"]) == (2, 1)
        assert stats["candidates"] > stats["accepted"]

    def test_planted_optimum_converges_in_one_pass(self):
        # The planted forest is already optimal, so one pass accepts
        # nothing, not even a move that rebuilds it (a childless singleton
        # put back where it was), whose gain is exactly 0.
        rng = random.Random(43)
        planted = random_hierarchy(rng, 40)
        m = forest_matrix(rng, planted)
        stats = {}
        assert same_structure(build_tncf(m, 0.5, stats=stats), planted)
        assert (stats["passes"], stats["accepted"]) == (1, 0)


def quantised_matrix(rng: random.Random, n: int, step: float) -> ScoreMatrix:
    """Scores on a grid of the given step, so that many moves tie exactly."""
    ids = tuple(f"k{i:02d}" for i in range(n))
    return ScoreMatrix.from_pairs(summary_id="s", kp_ids=ids,
                                  scores={(a, b): round(round(rng.random() / step) * step, 2)
                                          for a in ids for b in ids if a != b})


class TestIntegerGainsAtPaperScale:
    """tncf's integer gains and search at the paper's 20 to 44 key points per summary."""

    def test_every_gain_is_its_moves_objective_change(self):
        # Seeded random forests at n = 30 to 44: the objective in millionths
        # after each move, re-summed by the oracle, is the current one plus
        # the move's gain, exactly.
        rng = random.Random(1009)
        for n in (30, 33, 36, 39, 42, 44):
            h = random_hierarchy(rng, n)
            base = random_score_matrix(rng, n, quantize=True)
            ids = tuple(sorted(base.kp_ids))
            tau = rng.choice((0.3, 0.5, 0.7))
            w = {pair: round(v * 1e6) - round(tau * 1e6) for pair, v in base.scores.items()}
            wm = [[w[(a, b)] if a != b else 0 for b in ids] for a in ids]
            row = {x: i for i, x in enumerate(ids)}
            rows = [frozenset(row[x] for x in c) for c in h.clusters]
            gains, move = _move_gains(rows, dict(h.parent), wm)
            assert len(gains) > 40 * n
            cur = tncf_state_objective(list(h.clusters), dict(h.parent), w)
            for i, gain in enumerate(gains):
                got, got_parent = _apply_move(rows, dict(h.parent), *move(i))
                state = [frozenset(ids[x] for x in c) for c in got]
                assert cur + gain == tncf_state_objective(state, got_parent, w), (n, i)

    def test_builds_match_reference(self):
        rng = random.Random(1010)
        accepted = 0
        for k, n in enumerate((20, 22, 24, 26, 28, 30)):
            m = random_score_matrix(rng, n, quantize=True)
            tau = (0.3, 0.5, 0.7)[k % 3]
            TestTncfMatchesReference.check(m, tau)
            stats = {}
            build_tncf(m, tau, stats=stats)
            accepted += stats["accepted"]
        assert accepted > 6  # the searches move, not only confirm the reduced forest


class TestTncfMatchesReference:
    """build_tncf against the full-recompute search it replaced."""

    @staticmethod
    def check(m: ScoreMatrix, tau: float):
        got = build_tncf(m, tau)
        want = tncf_reference(m, tau)
        assert (got.clusters, got.parent) == (want.clusters, want.parent)

    def test_every_move_matches_reference_candidate(self):
        # Random forests (multi-member clusters, deep chains) held as row
        # indices over sorted key points, on 6-decimal scores: move i,
        # mapped back to ids, must build the reference's candidate i, and
        # current objective plus gain i must equal that candidate's
        # objective exactly, in millionths.
        rng = random.Random(1007)
        for k in range(60):
            n = rng.randrange(1, 11)
            h = random_hierarchy(rng, n)
            base = random_score_matrix(rng, n, quantize=True)
            ids = tuple(sorted(base.kp_ids))
            tau = (0.3, 0.5, 0.7)[k % 3]
            w = {pair: round(v * 1e6) - round(tau * 1e6) for pair, v in base.scores.items()}
            wm = [[w[(a, b)] if a != b else 0 for b in ids] for a in ids]
            row = {x: i for i, x in enumerate(ids)}
            rows = [frozenset(row[x] for x in c) for c in h.clusters]
            clusters, parent = list(h.clusters), dict(h.parent)
            gains, move = _move_gains(rows, parent, wm)
            want = list(tncf_candidate_states(clusters, parent))
            assert len(gains) == len(want)
            cur = tncf_state_objective(clusters, parent, w)
            for i, state in enumerate(want):
                got, got_parent = _apply_move(rows, parent, *move(i))
                assert ([frozenset(ids[x] for x in c) for c in got], got_parent) == state
                assert cur + gains[i] == tncf_state_objective(*state, w)

    def test_key_points_out_of_id_order(self):
        # Scores that list key points out of id order build the reference's
        # forest, and give every hierarchy the same objective bits as the
        # scores in id order.
        rng = random.Random(1008)
        for k in range(80):
            n = rng.randrange(2, 13)
            base = random_score_matrix(rng, n)
            m = base.restrict(rng.sample(base.kp_ids, n))
            tau = (0.3, 0.5, 0.7)[k % 3]
            self.check(m, tau)
            for h in (build_tncf(m, tau), random_hierarchy(rng, n)):
                assert objective_value(h, m, tau).hex() == objective_value(h, base, tau).hex()

    def test_acceptance_4_instances(self):
        rng = random.Random(1004)
        taus = [0.3, 0.5, 0.7]
        for k in range(200):
            n = rng.randrange(2, 7)
            self.check(random_score_matrix(rng, n), taus[k % 3])

    def test_quantised_scores_tie(self):
        rng = random.Random(1005)
        for k in range(100):
            m = quantised_matrix(rng, rng.randrange(8, 21), (0.1, 0.05)[k % 2])
            self.check(m, (0.3, 0.5, 0.7)[k % 3])

    def test_one_millionth_gain_decides(self):
        # The fixture of test_escapes_bad_parent_choice with s(d, a) =
        # 0.48 - k millionths, so moving d from under b to under cc gains
        # exactly k millionths, beside a 10-point clique that lifts the
        # objective to about 36. Only the move's sign decides: it is taken
        # at k = 1 and not at k = 0 or -1.
        clique = [f"f{i}" for i in range(10)]
        ids = ["a", "b", "cc", "d", "e"] + clique
        for k in (-1, 0, 1):
            pairs = {("d", "b"): 0.8, ("b", "a"): 0.8, ("d", "cc"): 0.78,
                     ("d", "a"): round(0.48 - k * 1e-6, 6)}
            pairs.update({(x, y): 0.9 for x in clique for y in clique if x != y})
            m = sm(ids, pairs)
            self.check(m, 0.5)
            stats = {}
            h = build_tncf(m, 0.5, stats=stats)
            assert stats["accepted"] == (k == 1)
            assert (c("d"), c("cc") if k == 1 else c("b")) in edge_pairs(h)


class TestBuildHierarchy:
    def test_dispatches_all_algorithms(self):
        rng = random.Random(39)
        m = random_score_matrix(rng, 6)
        for name in ALGORITHMS:
            h = build_hierarchy(m, ConstructionConfig(tau=0.5, algorithm=name))
            assert h.summary_id == "s"
            assert h.kp_ids == frozenset(m.kp_ids)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ConstructionConfig(tau=0.5, algorithm="mystery")

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            ConstructionConfig(tau=1.5)

    @pytest.mark.parametrize("tau", [0.4999996, 0.1 + 0.2, 1e-7])
    def test_rejects_tau_finer_than_6_decimals(self, tau):
        # tncf counts millionths, so a tau between two of them has no objective.
        m = random_score_matrix(random.Random(44), 4)
        for build in (lambda: ConstructionConfig(tau=tau), lambda: build_tncf(m, tau)):
            with pytest.raises(ValueError, match=r"^tau must have at most 6 decimals"):
                build()
        assert build_tncf(m, round(tau, 6)).kp_ids == frozenset(m.kp_ids)

    def test_deterministic_across_runs(self):
        rng = random.Random(40)
        for _ in range(20):
            m = random_score_matrix(rng, rng.randrange(2, 9))
            for name in ALGORITHMS:
                cfg = ConstructionConfig(tau=0.5, algorithm=name)
                a = build_hierarchy(m, cfg)
                b = build_hierarchy(m, cfg)
                assert a.canonical_form() == b.canonical_form()

    def test_greedy_variants_share_clustering(self):
        rng = random.Random(41)
        for _ in range(30):
            m = random_score_matrix(rng, rng.randrange(2, 8))
            g = build_greedy(m, 0.4)
            gs = build_greedy_gs(m, 0.4)
            assert set(g.clusters) == set(gs.clusters)

    def test_recovers_planted_forest(self):
        # With relation scores in (0.7, 0.95) and the rest in (0.02, 0.2)
        # the planted structure is the unique optimum: the reduced forest
        # reconstructs it exactly and local search has nothing to improve.
        # The greedy variants recover the clusters and may rewire edges,
        # but never invent a relation the planted forest lacks.
        rng = random.Random(42)
        for _ in range(20):
            planted = random_hierarchy(rng, rng.randrange(2, 8))
            m = forest_matrix(rng, planted)
            assert same_structure(build_reduced_forest(m, 0.5), planted)
            assert same_structure(build_tncf(m, 0.5), planted)
            for name in ("greedy", "greedy_gs"):
                h = build_hierarchy(m, ConstructionConfig(tau=0.5, algorithm=name))
                assert set(h.clusters) == set(planted.clusters), name
                assert derive_relations(h) <= derive_relations(planted), name
