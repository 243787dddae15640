"""Multi-component bitmap indexes (Sections 2 and 6).

A base-``<b_n, ..., b_1>`` index decomposes each attribute value into n
digits (Equation 3) and indexes each digit position with its own set of
encoded bitmaps.  Query processing is a rewrite phase (membership ->
intervals -> digit predicates -> bitmap expressions) followed by an
evaluation phase over a buffer pool.
"""

from repro.index.advisor import Recommendation, recommend
from repro.index.costbased import CostBasedRewriter
from repro.index.bitmap_index import BitmapIndex, IndexSpec, UpdateReport
from repro.index.costmodel import (
    PredictedQueryCost,
    index_expected_scans,
    index_space,
    predict_query_cost,
    time_optimal_bases,
)
from repro.index.persist import (
    IndexValidationReport,
    load_index,
    save_index,
    validate_index,
)
from repro.index.segmented import SegmentedBitmapIndex
from repro.index.decompose import (
    compose_value,
    decompose_column,
    decompose_value,
    optimal_bases,
    uniform_bases,
    validate_bases,
)
from repro.index.evaluation import EvaluationResult, QueryEngine
from repro.index.rewrite import QueryRewriter

__all__ = [
    "BitmapIndex",
    "IndexSpec",
    "UpdateReport",
    "recommend",
    "Recommendation",
    "save_index",
    "load_index",
    "validate_index",
    "IndexValidationReport",
    "SegmentedBitmapIndex",
    "CostBasedRewriter",
    "index_expected_scans",
    "index_space",
    "time_optimal_bases",
    "predict_query_cost",
    "PredictedQueryCost",
    "QueryEngine",
    "EvaluationResult",
    "QueryRewriter",
    "decompose_value",
    "decompose_column",
    "compose_value",
    "validate_bases",
    "uniform_bases",
    "optimal_bases",
]
