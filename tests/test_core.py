"""Data model: key points, hierarchies, relation derivation, validation."""

import copy
import dataclasses
import pickle
import random
import re
from types import MappingProxyType

import pytest

from kph import (
    Hierarchy,
    HierarchyError,
    KeyPoint,
    KeyPointSet,
    ancestors,
    canonical_hierarchy,
    derive_relations,
    validate_hierarchy,
)
from kph.core import ancestor_chains
from helpers import random_hierarchy, same_structure
from oracles import ancestor_walk_reference, relations_by_closure, structure_violations_reference


def kp(i, match_count=3, filtered=False, polarity="positive"):
    return KeyPoint(id=f"k{i:02d}", text=f"point {i}", polarity=polarity,
                    match_count=match_count, filtered=filtered)


class TestKeyPoint:
    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError):
            KeyPoint(id="a", text="t", polarity="meh", match_count=1, filtered=False)

    def test_rejects_negative_match_count(self):
        with pytest.raises(ValueError):
            KeyPoint(id="a", text="t", polarity="positive", match_count=-1, filtered=False)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            KeyPoint(id="", text="t", polarity="positive", match_count=1, filtered=False)


class TestKeyPointSet:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            KeyPointSet(summary_id="s", domain="hotels",
                        key_points=(kp(1), kp(1)))

    def test_rejects_mixed_polarity(self):
        with pytest.raises(ValueError):
            KeyPointSet(summary_id="s", domain="hotels",
                        key_points=(kp(1), kp(2, polarity="negative")))

    def test_unfiltered_ids(self):
        s = KeyPointSet(summary_id="s", domain="hotels",
                        key_points=(kp(1), kp(2, filtered=True), kp(3)))
        assert s.unfiltered_ids == ("k01", "k03")


class TestHierarchy:
    def test_rejects_parent_out_of_range(self):
        with pytest.raises((HierarchyError, ValueError)):
            Hierarchy(summary_id="s", clusters=(frozenset({"a"}),), parent={0: 3})

    def test_self_parent_is_a_cycle_violation(self):
        with pytest.raises(HierarchyError,
                           match="^invalid hierarchy: cycle: cluster 0 lies on a parent cycle$"):
            Hierarchy(summary_id="s", clusters=(frozenset({"a"}), frozenset({"b"})),
                      parent={0: 0})

    def test_parent_is_read_only(self):
        edges = {1: 0}
        h = Hierarchy(summary_id="s", clusters=(frozenset({"a"}), frozenset({"b"})),
                      parent=edges)
        with pytest.raises(TypeError):
            h.parent[0] = 1
        edges[0] = 1  # the caller's dict is copied, not kept
        assert h.parent == {1: 0}

    def test_replace_checks_again(self):
        h = Hierarchy(summary_id="s", clusters=(frozenset({"a"}), frozenset({"b"})),
                      parent={1: 0})
        with pytest.raises(HierarchyError, match="^invalid hierarchy: cycle: cluster 0 "):
            dataclasses.replace(h, parent={0: 1, 1: 0})
        with pytest.raises(HierarchyError, match="^invalid hierarchy: duplicate-membership: "):
            dataclasses.replace(h, clusters=(frozenset({"a"}), frozenset({"a", "b"})))
        assert dataclasses.replace(h, parent={}).relations == frozenset()

    def test_roots_and_children(self):
        h = Hierarchy(summary_id="s",
                      clusters=(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
                      parent={1: 0, 2: 0})
        assert h.roots() == (0,)
        assert h.children(0) == (1, 2)
        assert h.children(1) == ()

    def test_ancestors_chain(self):
        h = Hierarchy(summary_id="s",
                      clusters=(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
                      parent={2: 1, 1: 0})
        assert ancestors(h, 2) == [1, 0]
        assert ancestors(h, 0) == []

    def test_chains_are_the_naive_walks(self):
        rng = random.Random(1810)
        for _ in range(200):
            h = random_hierarchy(rng, rng.randrange(1, 10))
            assert [list(chain) for chain in h.chains] == \
                [ancestor_walk_reference(h.parent, c) for c in range(h.num_clusters)]

    def test_chains_stay_out_of_repr_equality_and_replace(self):
        h = Hierarchy(summary_id="s",
                      clusters=(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
                      parent={2: 1, 1: 0})
        assert "chains" not in repr(h)
        assert repr(h) == ("Hierarchy(summary_id='s', clusters=(frozenset({'a'}), "
                           "frozenset({'b'}), frozenset({'c'})), "
                           "parent=mappingproxy({1: 0, 2: 1}), domain='other')")
        moved = dataclasses.replace(h, parent={2: 0, 1: 0})
        assert moved.chains == ((), (0,), (0,))
        assert dataclasses.replace(h, domain="hotels").chains == h.chains == ((), (0,), (1, 0))
        assert dataclasses.replace(h) == h != moved
        with pytest.raises(ValueError):
            dataclasses.replace(h, chains=((), (), ()))

    @pytest.mark.parametrize("copy_of", [lambda h: pickle.loads(pickle.dumps(h)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_pickle_and_deepcopy_rebuild_an_equal_forest(self, copy_of):
        rng = random.Random(1910)
        for _ in range(50):
            h = random_hierarchy(rng, rng.randrange(1, 9))
            h.relations  # a cached value must not stop the copy
            g = copy_of(h)
            assert g == h and g is not h
            assert (g.clusters, g.parent, g.chains, g.relations) == \
                (h.clusters, h.parent, h.chains, h.relations)
            assert isinstance(g.parent, MappingProxyType)

    def test_ancestors_bad_index(self):
        h = Hierarchy(summary_id="s", clusters=(frozenset({"a"}),), parent={})
        with pytest.raises(IndexError):
            ancestors(h, 5)

    def test_canonical_orders_clusters_by_members(self):
        h = canonical_hierarchy(
            "s",
            [frozenset({"z"}), frozenset({"a", "m"}), frozenset({"b"})],
            {0: 1, 2: 1},
        )
        assert h.clusters == (frozenset({"a", "m"}), frozenset({"b"}), frozenset({"z"}))
        # z and b both point at {a, m}, which is now index 0
        assert h.parent == {1: 0, 2: 0}

    def test_canonical_form_ignores_input_order(self):
        rng = random.Random(11)
        for _ in range(50):
            h = random_hierarchy(rng, rng.randrange(1, 9))
            perm = list(range(len(h.clusters)))
            rng.shuffle(perm)
            shuffled_clusters = [h.clusters[p] for p in perm]
            inv = {p: i for i, p in enumerate(perm)}
            shuffled_parent = {inv[c]: inv[p] for c, p in h.parent.items()}
            g = canonical_hierarchy(h.summary_id, shuffled_clusters, shuffled_parent,
                                    domain=h.domain)
            assert g.canonical_form() == h.canonical_form()
            assert same_structure(g, h)


class TestDeriveRelations:
    def test_co_clustered_pair_is_symmetric(self):
        h = Hierarchy(summary_id="s", clusters=(frozenset({"a", "b"}),), parent={})
        assert derive_relations(h) == frozenset({("a", "b"), ("b", "a")})

    def test_child_to_ancestor_only(self):
        h = Hierarchy(summary_id="s",
                      clusters=(frozenset({"a"}), frozenset({"b"})),
                      parent={1: 0})
        assert derive_relations(h) == frozenset({("b", "a")})

    def test_matches_closure_oracle(self):
        rng = random.Random(12)
        for _ in range(200):
            h = random_hierarchy(rng, rng.randrange(1, 10))
            assert derive_relations(h) == relations_by_closure(h.clusters, h.parent)

    def test_derived_once_per_object(self):
        h = Hierarchy(summary_id="s", clusters=(frozenset({"a"}), frozenset({"b"})),
                      parent={1: 0})
        assert derive_relations(h) is derive_relations(h) is h.relations

    def test_never_reflexive(self):
        rng = random.Random(13)
        for _ in range(50):
            h = random_hierarchy(rng, rng.randrange(1, 10))
            assert all(a != b for a, b in derive_relations(h))


class TestValidateHierarchy:
    def _kps(self, n, filtered=()):
        return KeyPointSet(
            summary_id="s", domain="hotels",
            key_points=tuple(kp(i, filtered=(i in filtered)) for i in range(n)))

    def test_clean_hierarchy_has_no_violations(self):
        h = Hierarchy(summary_id="s",
                      clusters=(frozenset({"k00", "k01"}), frozenset({"k02"})),
                      parent={1: 0})
        assert validate_hierarchy(h, self._kps(3)) == []

    def test_duplicate_membership(self):
        with pytest.raises(HierarchyError, match="^invalid hierarchy: duplicate-membership: "
                                                 "key point 'b' appears in clusters 0 and 1$"):
            Hierarchy(summary_id="s", clusters=(frozenset({"a", "b"}), frozenset({"b"})),
                      parent={})

    def test_unknown_key_point(self):
        h = Hierarchy(summary_id="s", clusters=(frozenset({"zz"}),), parent={})
        kinds = {v.kind for v in validate_hierarchy(h, self._kps(2))}
        assert "unknown-key-point" in kinds

    def test_filtered_key_point(self):
        h = Hierarchy(summary_id="s",
                      clusters=(frozenset({"k00"}), frozenset({"k01"})),
                      parent={})
        kinds = {v.kind for v in validate_hierarchy(h, self._kps(2, filtered={1}))}
        assert "filtered-key-point" in kinds

    def test_summary_mismatch(self):
        h = Hierarchy(summary_id="other", clusters=(frozenset({"k00"}),), parent={})
        kinds = {v.kind for v in validate_hierarchy(h, self._kps(1))}
        assert "summary-mismatch" in kinds

    def test_random_hierarchies_are_valid(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randrange(1, 10)
            assert validate_hierarchy(random_hierarchy(rng, n), self._kps(n)) == []


def _random_structure(rng: random.Random) -> tuple[tuple[frozenset, ...], dict[int, int]]:
    """A random forest over a few key points, then zero to two breakages:
    an empty cluster, a shared member, a self-parent, a 2- or 3-cycle, or a
    tail of edges leading into a cycle."""
    ids = [f"k{i}" for i in range(rng.randrange(1, 8))]
    blocks: list[set[str]] = []
    for x in ids:
        if blocks and rng.random() < 0.3:
            rng.choice(blocks).add(x)
        else:
            blocks.append({x})
    m = len(blocks)
    order = rng.sample(range(m), m)
    parent = {c: order[rng.randrange(k)] for k, c in enumerate(order)
              if k and rng.random() < 0.6}
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        kind = rng.choice(["empty", "shared", "self", "cycle2", "cycle3", "tail"])
        if kind == "empty":
            blocks[rng.randrange(m)] = set()
        elif kind == "shared" and m >= 2:
            i, j = rng.sample(range(m), 2)
            blocks[i] |= set(sorted(blocks[j])[:1])
        elif kind == "self":
            i = rng.randrange(m)
            parent[i] = i
        elif kind in ("cycle2", "cycle3", "tail"):
            length = 3 if kind == "cycle3" else 2
            if m < length + (kind == "tail"):
                continue
            ring = rng.sample(range(m), length + (kind == "tail"))
            for a, b in zip(ring[:length], ring[1:length] + ring[:1]):
                parent[a] = b
            if kind == "tail":
                parent[ring[-1]] = ring[0]
    return tuple(frozenset(b) for b in blocks), parent


def _broken_parent_map(rng: random.Random, kind: str) -> tuple[int, dict[int, int]]:
    """m and a random forest's parent map over m clusters, with a self-loop, a
    2- or 3-cycle, or a tail of edges into a cycle put in (kind "forest": none)."""
    length = {"forest": 0, "self": 1, "cycle": rng.choice([2, 3]),
              "tail": rng.choice([1, 2, 3])}[kind]
    ring_size = length + (kind == "tail")
    m = rng.randrange(max(1, ring_size), 9)
    order = rng.sample(range(m), m)
    parent = {c: order[rng.randrange(k)] for k, c in enumerate(order)
              if k and rng.random() < 0.6}
    ring = rng.sample(range(m), ring_size)
    for a, b in zip(ring[:length], ring[1:length] + ring[:1]):
        parent[a] = b
    if kind == "tail":
        parent[ring[-1]] = ring[0]
    return m, parent


class TestAncestorChains:
    """ancestor_chains, the one walk up a parent map, against a walk that
    stops at a revisit and against the structure reference's first cycle."""

    @pytest.mark.parametrize("kind", ["forest", "self", "cycle", "tail"])
    def test_matches_naive_walk(self, kind):
        rng = random.Random(f"chains-{kind}")
        off_cycle = 0
        for _ in range(500):
            m, parent = _broken_parent_map(rng, kind)
            walks = [ancestor_walk_reference(parent, c) for c in range(m)]
            clusters = tuple(frozenset({f"k{c}"}) for c in range(m))
            violations = structure_violations_reference(clusters, parent)
            if kind == "forest":
                assert violations == []
                assert ancestor_chains(parent, m) == tuple(tuple(w) for w in walks)
                continue
            first = walks.index(None)
            assert str(violations[0]) == f"cycle: cluster {first} lies on a parent cycle"
            with pytest.raises(HierarchyError,
                               match=f"^invalid hierarchy: {re.escape(str(violations[0]))}$"):
                ancestor_chains(parent, m)
            passed, cur = [], parent[first]
            while cur not in passed:  # every cluster on first's walk has a parent
                passed.append(cur)
                cur = parent[cur]
            off_cycle += first not in passed
        if kind == "tail":
            assert off_cycle > 0  # the first cluster reported is sometimes a tail's


class TestStructureMatchesReference:
    """Building refuses exactly the (clusters, parent) the reference reports,
    naming its first violation."""

    def test_random_structures(self):
        rng = random.Random(1101)
        first_kinds = []
        for _ in range(3000):
            clusters, parent = _random_structure(rng)
            want = structure_violations_reference(clusters, parent)
            if not want:
                h = Hierarchy(summary_id="s", clusters=clusters, parent=parent)
                assert h.parent == parent
                first_kinds.append("valid")
                continue
            with pytest.raises(HierarchyError) as exc:
                Hierarchy(summary_id="s", clusters=clusters, parent=parent)
            assert str(exc.value) == f"invalid hierarchy: {want[0]}"
            first_kinds.append(want[0].kind)
        assert set(first_kinds) == {"valid", "empty-cluster", "duplicate-membership", "cycle"}

    def test_tail_into_a_cycle_reports_the_tail(self):
        # 0 -> 1 -> 2 -> 1: cluster 0 is not on the cycle, but its walk never
        # reaches a root, and the reference reports it first.
        clusters = (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
        parent = {0: 1, 1: 2, 2: 1}
        assert str(structure_violations_reference(clusters, parent)[0]) == \
            "cycle: cluster 0 lies on a parent cycle"
        with pytest.raises(HierarchyError,
                           match="^invalid hierarchy: cycle: cluster 0 lies on a parent cycle$"):
            Hierarchy(summary_id="s", clusters=clusters, parent=parent)
