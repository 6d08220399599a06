"""Join algorithms: SENS-Join (the paper's contribution) and baselines."""

from .adaptive import AdaptiveJoin
from .base import (
    ExecutionContext,
    FullTupleRecord,
    JoinAlgorithm,
    JoinOutcome,
    TupleFormat,
    node_tuple,
    oracle_result,
)
from .des_sensjoin import DesSensJoin, RecoveryPolicy
from .external import ExternalJoin
from .filterbuild import build_join_filter
from .incremental import IncrementalSensJoin
from .mediated import MediatedJoin
from .placement import PlacementReport, analyze_join_location
from .planner import CostEstimate, estimate_costs, recommend_algorithm
from .runner import (
    make_algorithm,
    run_continuous,
    run_snapshot,
    run_with_failures,
)
from .semijoin import SemiJoinBroadcast
from .sensjoin import (
    PHASE_COLLECTION,
    PHASE_FILTER,
    PHASE_FINAL,
    SensJoin,
    SensJoinConfig,
)

__all__ = [
    "AdaptiveJoin",
    "DesSensJoin",
    "ExecutionContext",
    "ExternalJoin",
    "FullTupleRecord",
    "IncrementalSensJoin",
    "JoinAlgorithm",
    "JoinOutcome",
    "MediatedJoin",
    "PlacementReport",
    "PHASE_COLLECTION",
    "PHASE_FILTER",
    "PHASE_FINAL",
    "RecoveryPolicy",
    "SemiJoinBroadcast",
    "SensJoin",
    "SensJoinConfig",
    "TupleFormat",
    "analyze_join_location",
    "CostEstimate",
    "build_join_filter",
    "estimate_costs",
    "make_algorithm",
    "node_tuple",
    "oracle_result",
    "recommend_algorithm",
    "run_continuous",
    "run_snapshot",
    "run_with_failures",
]
