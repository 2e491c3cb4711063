"""Key point hierarchies: scoring, construction, and evaluation.

The package turns sentence-to-key-point match likelihoods into directional
pairwise scores, builds forests of key point clusters from those scores
with four algorithms, and evaluates predicted forests against gold ones.
"""

__version__ = "0.1.0"

from .core import (
    Hierarchy,
    KeyPoint,
    KeyPointSet,
    RelationSet,
    Violation,
    ancestors,
    canonical_hierarchy,
    derive_relations,
    validate_hierarchy,
)
from .errors import DataError, FormatError, HierarchyError, KphError
from .scoring import (
    SCORERS,
    MatchMatrix,
    ScoreMatrix,
    WeakLabelRecord,
    WeakLabelSet,
    combine_average,
    compute_score_matrix,
    export_weak_labels,
)
from .construction import (
    ALGORITHMS,
    ConstructionConfig,
    agglomerative_cluster,
    build_greedy,
    build_greedy_gs,
    build_hierarchy,
    build_reduced_forest,
    build_tncf,
    cluster_link_score,
    objective_value,
)
from .evaluation import (
    DomainMetrics,
    EvalReport,
    PRCurve,
    PRPoint,
    auc_at_min_recall,
    evaluate_hierarchies,
    local_relations_baseline,
    loo_threshold_tuning,
    pr_curve,
    relation_f1,
    spearman_correlation,
)
from .io import load_external_scores

__all__ = [
    "__version__",
    "Hierarchy", "KeyPoint", "KeyPointSet", "RelationSet", "Violation",
    "ancestors", "canonical_hierarchy", "derive_relations", "validate_hierarchy",
    "DataError", "FormatError", "HierarchyError", "KphError",
    "SCORERS", "MatchMatrix", "ScoreMatrix", "WeakLabelRecord", "WeakLabelSet",
    "combine_average", "compute_score_matrix", "export_weak_labels",
    "ALGORITHMS", "ConstructionConfig", "agglomerative_cluster", "build_greedy",
    "build_greedy_gs", "build_hierarchy", "build_reduced_forest", "build_tncf",
    "cluster_link_score", "objective_value",
    "DomainMetrics", "EvalReport", "PRCurve", "PRPoint", "auc_at_min_recall",
    "evaluate_hierarchies", "local_relations_baseline",
    "loo_threshold_tuning", "pr_curve", "relation_f1", "spearman_correlation",
    "load_external_scores",
]
