"""Domain types for key points and key point hierarchies.

A hierarchy is a directed forest over clusters of key points: every cluster
has at most one parent, edges point from the more specific cluster to the
more general one, and the set of key point relations it induces is the
co-cluster pairs plus every (member of cluster, member of ancestor) pair.

All types are immutable after construction and the functions here are pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import HierarchyError

POLARITIES = ("positive", "negative")

#: Ordered (specific, general) key point id pairs induced by a hierarchy.
RelationSet = frozenset[tuple[str, str]]


@dataclass(frozen=True)
class KeyPoint:
    """One key point of a summary.

    ``match_count`` is the number of input sentences matched to the key
    point; ``filtered`` marks low-quality key points removed by annotators,
    which never participate in hierarchies or evaluation.
    """

    id: str
    text: str
    polarity: str = "positive"
    match_count: int = 0
    filtered: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("key point id must be non-empty")
        if not self.text:
            raise ValueError(f"key point {self.id!r}: text must be non-empty")
        if self.polarity not in POLARITIES:
            raise ValueError(f"key point {self.id!r}: polarity must be one of {POLARITIES}")
        if self.match_count < 0:
            raise ValueError(f"key point {self.id!r}: match_count must be >= 0")


@dataclass(frozen=True)
class KeyPointSet:
    """The key points of one (business, polarity) summary."""

    summary_id: str
    domain: str
    key_points: tuple[KeyPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "key_points", tuple(self.key_points))
        seen = set()
        for kp in self.key_points:
            if kp.id in seen:
                raise ValueError(f"summary {self.summary_id!r}: duplicate key point id {kp.id!r}")
            seen.add(kp.id)
        polarities = {kp.polarity for kp in self.key_points}
        if len(polarities) > 1:
            raise ValueError(f"summary {self.summary_id!r}: mixed polarities {sorted(polarities)}")

    @cached_property
    def by_id(self) -> Mapping[str, KeyPoint]:
        return {kp.id: kp for kp in self.key_points}

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(kp.id for kp in self.key_points)

    @property
    def unfiltered_ids(self) -> tuple[str, ...]:
        return tuple(kp.id for kp in self.key_points if not kp.filtered)

    @property
    def polarity(self) -> str | None:
        return self.key_points[0].polarity if self.key_points else None

    def get(self, kp_id: str) -> KeyPoint:
        try:
            return self.by_id[kp_id]
        except KeyError:
            raise KeyError(f"summary {self.summary_id!r}: unknown key point {kp_id!r}") from None

    def by_match_count(self) -> list[KeyPoint]:
        """Key points sorted by descending match count (display order)."""
        return sorted(self.key_points, key=lambda kp: -kp.match_count)

    def __len__(self) -> int:
        return len(self.key_points)


@dataclass(frozen=True)
class Hierarchy:
    """A directed forest of key point clusters.

    ``clusters`` are disjoint, non-empty sets of key point ids; ``parent``
    maps a cluster index to its single parent's index (clusters absent from
    the map are roots). The parent map structurally enforces the single-
    parent rule; cycles and overlapping clusters are representable and are
    reported by :func:`validate_hierarchy`.
    """

    summary_id: str
    clusters: tuple[frozenset[str], ...]
    parent: Mapping[int, int] = field(default_factory=dict)
    domain: str = "other"

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(frozenset(c) for c in self.clusters))
        parent = {int(c): int(p) for c, p in dict(self.parent).items()}
        m = len(self.clusters)
        for c, p in parent.items():
            if not (0 <= c < m and 0 <= p < m):
                raise HierarchyError(
                    f"summary {self.summary_id!r}: parent edge ({c}, {p}) "
                    f"references a cluster index outside 0..{m - 1}")
        object.__setattr__(self, "parent", dict(sorted(parent.items())))

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def kp_ids(self) -> frozenset[str]:
        return frozenset(x for c in self.clusters for x in c)

    @cached_property
    def cluster_of(self) -> Mapping[str, int]:
        """Key point id -> cluster index (first occurrence wins on overlap)."""
        out: dict[str, int] = {}
        for i, c in enumerate(self.clusters):
            for x in c:
                out.setdefault(x, i)
        return out

    def children(self, c: int) -> tuple[int, ...]:
        return tuple(i for i, p in self.parent.items() if p == c)

    def roots(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.clusters)) if i not in self.parent)

    def canonical_form(self) -> tuple:
        """Order-independent structure used to compare hierarchies.

        Cluster identity is by membership set, not index.
        """
        clusters = tuple(sorted(tuple(sorted(c)) for c in self.clusters))
        edges = tuple(sorted(
            (tuple(sorted(self.clusters[c])), tuple(sorted(self.clusters[p])))
            for c, p in self.parent.items()))
        return clusters, edges

    def same_structure(self, other: "Hierarchy") -> bool:
        return self.canonical_form() == other.canonical_form()


def canonical_hierarchy(summary_id: str, clusters: Iterable[Iterable[str]],
                        parent: Mapping[int, int], domain: str = "other") -> Hierarchy:
    """Build a Hierarchy with clusters in canonical (sorted-members) order."""
    clusters = [frozenset(c) for c in clusters]
    order = sorted(range(len(clusters)), key=lambda i: tuple(sorted(clusters[i])))
    remap = {old: new for new, old in enumerate(order)}
    return Hierarchy(
        summary_id=summary_id,
        clusters=tuple(clusters[i] for i in order),
        parent={remap[c]: remap[p] for c, p in parent.items()},
        domain=domain,
    )


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_hierarchy`."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def ancestors(h: Hierarchy, c: int) -> list[int]:
    """Clusters on the parent path from ``c`` to its root, excluding ``c``.

    Roots yield an empty list. Raises HierarchyError if the parent map is
    cyclic along the walk.
    """
    if not 0 <= c < len(h.clusters):
        raise IndexError(f"cluster index {c} out of range 0..{len(h.clusters) - 1}")
    path: list[int] = []
    seen = {c}
    cur = c
    while cur in h.parent:
        cur = h.parent[cur]
        if cur in seen:
            raise HierarchyError(f"summary {h.summary_id!r}: parent map has a cycle through cluster {cur}")
        seen.add(cur)
        path.append(cur)
    return path


def derive_relations(h: Hierarchy) -> RelationSet:
    """All directional key point relations induced by a hierarchy.

    A pair (x, y) with x != y is included when x and y share a cluster
    (both directions) or when x's cluster has a directed path to y's
    cluster. Reflexive pairs are never included.
    """
    violations = validate_hierarchy(h)
    if violations:
        raise HierarchyError(f"summary {h.summary_id!r}: {violations[0]}")
    relations: set[tuple[str, str]] = set()
    for i, c in enumerate(h.clusters):
        members = sorted(c)
        for x in members:
            for y in members:
                if x != y:
                    relations.add((x, y))
        for a in ancestors(h, i):
            for x in members:
                for y in h.clusters[a]:
                    relations.add((x, y))
    return frozenset(relations)


def validate_hierarchy(h: Hierarchy, kps: KeyPointSet | None = None) -> list[Violation]:
    """Check a hierarchy's invariants; the returned report is empty iff valid.

    Structural checks: empty clusters, key points in more than one cluster,
    cycles in the parent map. With ``kps`` given, also checks membership:
    unknown ids, filtered key points, and a summary_id mismatch. Multiple
    parents per cluster cannot be represented (the parent map enforces the
    rule); file loaders reject duplicate child edges instead.
    """
    out: list[Violation] = []
    seen: dict[str, int] = {}
    for i, c in enumerate(h.clusters):
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
    for start in range(len(h.clusters)):
        path = [start]
        visited = {start}
        cur = start
        while cur in h.parent:
            cur = h.parent[cur]
            if cur in visited:
                on_cycle.update(path)
                break
            visited.add(cur)
            path.append(cur)
    for c in sorted(on_cycle):
        out.append(Violation("cycle", f"cluster {c} lies on a parent cycle"))

    if kps is not None:
        if h.summary_id != kps.summary_id:
            out.append(Violation(
                "summary-mismatch",
                f"hierarchy is for {h.summary_id!r} but key points are for {kps.summary_id!r}"))
        known = set(kps.ids)
        filtered = {kp.id for kp in kps.key_points if kp.filtered}
        for x in sorted(seen):
            if x not in known:
                out.append(Violation("unknown-key-point", f"{x!r} is not in the key point set"))
            elif x in filtered:
                out.append(Violation("filtered-key-point", f"{x!r} is filtered and cannot appear"))
    return out
