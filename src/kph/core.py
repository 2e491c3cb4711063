"""Domain types for key points and key point hierarchies.

A hierarchy is a directed forest over clusters of key points: every cluster
has at most one parent, edges point from the more specific cluster to the
more general one, and the set of key point relations it induces is the
co-cluster pairs plus every (member of cluster, member of ancestor) pair.
A Hierarchy is checked to be such a forest when it is built, derives its
ancestor chains once, then and there, and its relations once, on first use.

All types are immutable after construction and the functions here are pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NoReturn

from .errors import HierarchyError

POLARITIES = ("positive", "negative")

# The scorer and algorithm names and the defaults that the command line's
# parser shows. They live here, beside no numpy, so that building the parser
# loads none of the numeric modules; scoring, construction and evaluation
# import them from here.
SCORER_NAMES = ("apinc", "bininc", "clarkede", "weedsprec")
ALGORITHMS = ("reduced_forest", "tncf", "greedy", "greedy_gs")
DEFAULT_THETA_MATCH = 0.5
# Weak-label export: the entail threshold, negatives kept per positive, and
# the seed that samples the negatives.
DEFAULT_WEAK_LABEL_THRESHOLD = 0.5
DEFAULT_NEG_RATIO = 5.0
DEFAULT_WEAK_LABEL_SEED = 0
DEFAULT_MIN_RECALL = 0.1

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

    def get(self, kp_id: str) -> KeyPoint:
        try:
            return self.by_id[kp_id]
        except KeyError:
            raise KeyError(f"summary {self.summary_id!r}: unknown key point {kp_id!r}") from None

    def __len__(self) -> int:
        return len(self.key_points)


def _invalid(kind: str, detail: str) -> NoReturn:
    raise HierarchyError(f"invalid hierarchy: {kind}: {detail}")


def ancestor_chains(parent: Mapping[int, int], m: int) -> tuple[tuple[int, ...], ...]:
    """The ancestors of each of clusters 0..m-1, nearest first: the one walk up a parent map.

    Raises HierarchyError naming the first cluster whose walk never reaches a root.
    """
    chains = []
    for i in range(m):
        chain, c = [], i
        while c in parent:
            c = parent[c]
            chain.append(c)
            if len(chain) == m:  # a root is at most m - 1 steps up
                _invalid("cycle", f"cluster {i} lies on a parent cycle")
        chains.append(tuple(chain))
    return tuple(chains)


@dataclass(frozen=True)
class Hierarchy:
    """A directed forest of key point clusters, valid by construction.

    ``clusters`` are disjoint, non-empty sets of key point ids; ``parent``
    maps a cluster index to its single parent's index (clusters absent from
    the map are roots) and is read-only. Building a hierarchy whose parent
    map leaves the index range, or whose clusters are empty, overlap or lie
    on a parent cycle, raises HierarchyError, so every consumer can rely on
    a forest. ``chains[c]`` lists c's ancestors, nearest first.
    """

    summary_id: str
    clusters: tuple[frozenset[str], ...]
    parent: Mapping[int, int] = field(default_factory=dict)
    domain: str = "other"
    chains: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        clusters = tuple(frozenset(c) for c in self.clusters)
        parent = {int(c): int(p) for c, p in dict(self.parent).items()}
        m = len(clusters)
        for c, p in parent.items():
            if not (0 <= c < m and 0 <= p < m):
                raise HierarchyError(
                    f"summary {self.summary_id!r}: parent edge ({c}, {p}) "
                    f"references a cluster index outside 0..{m - 1}")
        seen: dict[str, int] = {}
        for i, members in enumerate(clusters):
            if not members:
                _invalid("empty-cluster", f"cluster {i} has no members")
            for x in sorted(members):
                if x in seen:
                    _invalid("duplicate-membership",
                             f"key point {x!r} appears in clusters {seen[x]} and {i}")
                seen[x] = i
        object.__setattr__(self, "chains", ancestor_chains(parent, m))
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "parent", MappingProxyType(dict(sorted(parent.items()))))

    def __reduce__(self):
        # Pickles and deep copies are rebuilt through the constructor, and so checked again.
        return type(self), (self.summary_id, self.clusters, dict(self.parent), self.domain)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def kp_ids(self) -> frozenset[str]:
        return frozenset(x for c in self.clusters for x in c)

    @cached_property
    def relations(self) -> RelationSet:
        """All directional key point relations the hierarchy induces.

        A pair (x, y) with x != y is included when x and y share a cluster
        (both directions) or when x's cluster has a directed path to y's
        cluster. Reflexive pairs are never included.
        """
        relations: set[tuple[str, str]] = set()
        for i, c in enumerate(self.clusters):
            members = sorted(c)
            for x in members:
                for y in members:
                    if x != y:
                        relations.add((x, y))
            for a in self.chains[i]:
                for x in members:
                    for y in self.clusters[a]:
                        relations.add((x, y))
        return frozenset(relations)

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
    """One membership violation found by :func:`validate_hierarchy`."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def ancestors(h: Hierarchy, c: int) -> list[int]:
    """Clusters on the parent path from ``c`` to its root, excluding ``c``.

    Roots yield an empty list.
    """
    if not 0 <= c < len(h.clusters):
        raise IndexError(f"cluster index {c} out of range 0..{len(h.clusters) - 1}")
    return list(h.chains[c])


def derive_relations(h: Hierarchy) -> RelationSet:
    """All directional key point relations induced by a hierarchy (``h.relations``)."""
    return h.relations


def validate_hierarchy(h: Hierarchy, kps: KeyPointSet) -> list[Violation]:
    """Check a hierarchy's membership against its key point set.

    The returned report is empty iff every member is a known, unfiltered
    key point of ``kps`` and the summary ids agree. Structure needs no
    check here: every Hierarchy is a valid forest once built.
    """
    out: list[Violation] = []
    if h.summary_id != kps.summary_id:
        out.append(Violation(
            "summary-mismatch",
            f"hierarchy is for {h.summary_id!r} but key points are for {kps.summary_id!r}"))
    known = set(kps.ids)
    filtered = {kp.id for kp in kps.key_points if kp.filtered}
    for x in sorted(h.kp_ids):
        if x not in known:
            out.append(Violation("unknown-key-point", f"{x!r} is not in the key point set"))
        elif x in filtered:
            out.append(Violation("filtered-key-point", f"{x!r} is filtered and cannot appear"))
    return out
