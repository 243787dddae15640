"""End-to-end serving over an ``auto`` index with mixed inner codecs.

The adaptive codec's whole point is that one index holds bitmaps under
*different* concrete encodings; both serving tiers must combine them
transparently.  A skewed clustered column forces the selector to mix
inner codecs (dense head values vs an ultra-sparse tail), and single
plus sharded services are checked against the naive scan, as are the
materializing and fused evaluators on their own.
"""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import split_payload
from repro.expr import evaluate, evaluate_fused
from repro.expr.fused import MIN_BLOCK_WORDS
from repro.index import BitmapIndex, IndexSpec
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve import (
    QueryService,
    ServiceConfig,
    ShardedConfig,
    ShardedQueryService,
)
from repro.workload import markov_column

CARDINALITY = 48


@pytest.fixture(scope="module")
def column():
    return markov_column(
        6000, CARDINALITY, clustering_factor=8.0, skew=2.0, seed=13
    )


@pytest.fixture(scope="module")
def auto_index(column):
    spec = IndexSpec(cardinality=CARDINALITY, scheme="E", codec="auto")
    return BitmapIndex.build(column, spec)


def naive(query, values):
    return BitVector.from_bools(query.matches(values))


QUERIES = [
    IntervalQuery(1, 30, CARDINALITY),
    IntervalQuery(0, CARDINALITY - 1, CARDINALITY),
    MembershipQuery.of({0, 1, 40, 47}, CARDINALITY),
    ThresholdQuery(
        2,
        (
            IntervalQuery(0, 10, CARDINALITY),
            IntervalQuery(5, 20, CARDINALITY),
            MembershipQuery.of({1, 2, 3}, CARDINALITY),
        ),
    ),
]


def test_index_actually_mixes_inner_codecs(auto_index):
    inners = set()
    for key in auto_index.store.keys():
        payload, _ = auto_index.store.get_payload(key)
        inners.add(split_payload(payload)[0])
    assert len(inners) >= 2, inners


def test_single_service_auto(auto_index, column):
    config = ServiceConfig(buffer_pages=16)
    with QueryService(auto_index, config) as service:
        results = service.execute_many(QUERIES)
    for query, result in zip(QUERIES, results):
        assert result.bitmap == naive(query, column), query


def test_sharded_service_auto(column):
    spec = IndexSpec(cardinality=CARDINALITY, scheme="E", codec="auto")
    config = ShardedConfig(
        shards=3,
        transport="inline",
        segment_size=512,
        buffer_pages=16,
    )
    with ShardedQueryService(column, spec, config) as service:
        results = service.execute_many(QUERIES)
    for query, result in zip(QUERIES, results):
        assert result.bitmap == naive(query, column), query


def test_direct_threshold_both_evaluators(auto_index, column):
    query = QUERIES[3]
    expected = naive(query, column)
    expr = auto_index.rewriter.rewrite_threshold(query)
    length = auto_index.num_records
    fetch = auto_index.store.get
    assert evaluate(expr, fetch, length) == expected
    assert evaluate_fused(
        expr, fetch, length, block_words=MIN_BLOCK_WORDS
    ) == expected
    assert auto_index.engine().execute(query).bitmap == expected
