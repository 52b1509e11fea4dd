"""Physical planning shared by the pull and push execution paths.

Layering: the query layer parses and optimizes the one query tree
(``repro.query.ast``); this package puts it in canonical normal form
(:func:`canonicalize`) and turns that into running machinery — pull via
:func:`plan_to_stream` (chained lazy generators) or push via
:class:`PlanDAG` (a shared operator DAG the DSMS feeds chunk-by-chunk,
with subplan-level sharing across queries). Both build their operators
through :func:`make_operator`.
"""

from .canonical import canonicalize
from .epoch import EpochSwapResult, EpochTransition, PlanEpoch
from .lower import empty_stream, plan_to_stream
from .ops import VALUE_MAP_DEFAULTS, build_composition, build_value_map, make_operator
from .stages import PlanDAG, PlanStats, Stage

__all__ = [
    "canonicalize",
    "plan_to_stream",
    "empty_stream",
    "make_operator",
    "build_value_map",
    "build_composition",
    "VALUE_MAP_DEFAULTS",
    "PlanDAG",
    "PlanStats",
    "Stage",
    "EpochTransition",
    "EpochSwapResult",
    "PlanEpoch",
]
