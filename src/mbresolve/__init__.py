"""Truncated-metric resolving sets and exhaustive Maker-Breaker resolving games.

``import mbresolve`` loads only what solving needs: the ``errors``, ``graph``,
``resolve`` and ``game`` modules.  The ``families`` module and the names taken
from it (``gen_family``, ``connected_graph_atlas``, ``predict_outcome`` and the
rest) load on first use, through the module ``__getattr__`` below, and resolve
to the very objects ``mbresolve.families`` holds.  The command-line interface
lists the family names in its help, so it still loads ``families``.
"""

from typing import TYPE_CHECKING

from .errors import MBResolveError
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

if TYPE_CHECKING:
    from . import families
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
del TYPE_CHECKING  # a typing aid, not a name of this package

__version__ = "0.1.0"

_FAMILIES_NAMES = frozenset({
    "FamilySpec",
    "TreeProfile",
    "all_free_trees",
    "classify_tree",
    "connected_graph_atlas",
    "family_names",
    "gen_family",
    "predict_outcome",
    "predict_tree_outcome",
    "predicted_counts",
    "random_connected_graph",
})


def __getattr__(name: str):
    # called only for a name not yet in the module globals (PEP 562)
    if name != "families" and name not in _FAMILIES_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not "from . import families": its fromlist check would call this hook again
    import importlib

    families = importlib.import_module(".families", __name__)
    value = families if name == "families" else getattr(families, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _FAMILIES_NAMES | {"families"})
