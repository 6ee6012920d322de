"""Truncated-metric resolving sets and exhaustive Maker-Breaker resolving games."""

from .errors import MBResolveError
from .families import (
    FamilySpec,
    TreeProfile,
    all_free_trees,
    classify_tree,
    connected_graph_atlas,
    family_names,
    gen_family,
    predict_outcome,
    predict_tree_outcome,
    predicted_counts,
    random_connected_graph,
)
from .game import (
    Certificate,
    CertificateKind,
    GameOutcome,
    GamePosition,
    GameSolver,
    JumpReport,
    MoveCounts,
    OutcomeSymbol,
    Player,
    certificate_fast_path,
    jump_report,
    move_counts,
    outcome,
    winner,
)
from .graph import (
    DistanceMatrix,
    Graph,
    TwinClassKind,
    TwinPartition,
    all_pairs_distances,
    build_graph,
    truncated_distance,
    twin_partition,
)
from .resolve import (
    DimResult,
    GapProfile,
    PairSystem,
    PairSystemCheck,
    PairSystemKind,
    ResolveCheck,
    check_pair_system,
    cycle_gap_check,
    is_resolving,
    metric_dimension_k,
    minimal_pair_masks,
    pair_resolver_set,
    search_pair_system,
)

__version__ = "0.1.0"
