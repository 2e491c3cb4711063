"""Key point hierarchies: scoring, construction, and evaluation.

The package turns sentence-to-key-point match likelihoods into directional
pairwise scores, builds forests of key point clusters from those scores
with four algorithms, and evaluates predicted forests against gold ones.

Names are re-exported lazily: ``import kph`` loads no submodule (and so
no numpy) until one of its names is first used, which lets the command
line choose numpy's BLAS threads before numpy loads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Hierarchy", "KeyPoint", "KeyPointSet", "RelationSet", "Violation",
        "ancestors", "canonical_hierarchy", "derive_relations", "validate_hierarchy",
    ),
    "errors": ("DataError", "FormatError", "HierarchyError", "KphError"),
    "scoring": (
        "SCORERS", "MatchMatrix", "ScoreMatrix", "WeakLabelRecord", "WeakLabelSet",
        "combine_average", "compute_score_matrix", "export_weak_labels",
    ),
    "construction": (
        "ALGORITHMS", "ConstructionConfig", "agglomerative_cluster", "build_greedy",
        "build_greedy_gs", "build_hierarchy", "build_reduced_forest", "build_tncf",
        "cluster_link_score", "objective_value",
    ),
    "evaluation": (
        "DomainMetrics", "EvalReport", "PRCurve", "PRPoint", "auc_at_min_recall",
        "evaluate_hierarchies", "local_relations_baseline",
        "loo_threshold_tuning", "pr_curve", "relation_f1", "spearman_correlation",
    ),
    "io": ("load_external_scores",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # The home modules stay reachable as attributes, as when this file imported them all.
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
