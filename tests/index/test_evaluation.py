"""Tests for the Section 6.3 evaluation strategies and buffer effects."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.expr import EvalStats
from repro.index import BitmapIndex, IndexSpec
from repro.queries import IntervalQuery, MembershipQuery
from repro.storage import CostClock


@pytest.fixture
def index(rng):
    values = rng.integers(0, 50, size=5000)
    return BitmapIndex.build(
        values, IndexSpec(cardinality=50, scheme="R", bases=(7, 8), codec="raw")
    ), values


def overlapping_membership() -> MembershipQuery:
    """Constituents that share prefix bitmaps in a base-<7,8> R index."""
    # {10, 11, 12} and {14, 15} and {40}: nearby digit prefixes overlap.
    return MembershipQuery.of({10, 11, 12, 14, 15, 40}, 50)


class TestStrategies:
    def test_same_answer_both_strategies(self, index):
        idx, values = index
        query = overlapping_membership()
        component_wise = idx.engine(strategy="component-wise").execute(query)
        query_wise = idx.engine(strategy="query-wise").execute(query)
        assert component_wise.bitmap == query_wise.bitmap
        assert component_wise.row_count == int(query.matches(values).sum())

    def test_component_wise_never_refetches(self, index):
        idx, _ = index
        engine = idx.engine(strategy="component-wise")
        result = engine.execute(overlapping_membership())
        # Each distinct bitmap fetched exactly once per query.
        assert result.stats.scans == len(set(result.stats.fetched_keys))

    def test_query_wise_refetches_shared_bitmaps(self, index):
        idx, _ = index
        engine = idx.engine(strategy="query-wise")
        result = engine.execute(overlapping_membership())
        assert result.stats.scans >= len(set(result.stats.fetched_keys))

    def test_component_wise_fetch_order(self, index):
        idx, _ = index
        engine = idx.engine(strategy="component-wise")
        result = engine.execute(overlapping_membership())
        components = [key[0] for key in result.stats.fetched_keys]
        assert components == sorted(components)

    def test_unknown_strategy_rejected(self, index):
        idx, _ = index
        with pytest.raises(QueryError):
            idx.engine(strategy="random")


class TestBufferEffects:
    def test_large_pool_hits_across_queries(self, index):
        idx, _ = index
        engine = idx.engine()  # default: everything fits
        engine.execute(IntervalQuery(0, 30, 50))
        misses_before = engine.buffer_stats.misses
        engine.execute(IntervalQuery(0, 30, 50))
        assert engine.buffer_stats.misses == misses_before

    def test_tiny_pool_forces_rescans(self, index):
        idx, _ = index
        clock = CostClock()
        engine = idx.engine(buffer_pages=1, clock=clock)
        query = overlapping_membership()
        engine.execute(query)
        first = clock.read_requests
        engine.execute(query)
        assert clock.read_requests > first  # everything evicted between

    def test_query_wise_costs_more_io_under_small_pool(self, index):
        """The §6.3 tradeoff: with a tight buffer, query-wise evaluation
        re-reads shared bitmaps that component-wise reads once."""
        idx, _ = index
        query = overlapping_membership()

        clock_cw = CostClock()
        idx.engine(buffer_pages=1, clock=clock_cw, strategy="component-wise").execute(query)
        clock_qw = CostClock()
        idx.engine(buffer_pages=1, clock=clock_qw, strategy="query-wise").execute(query)
        assert clock_qw.read_requests >= clock_cw.read_requests

    def test_simulated_time_accumulates(self, index):
        idx, _ = index
        clock = CostClock()
        engine = idx.engine(clock=clock)
        r1 = engine.execute(IntervalQuery(3, 3, 50))
        r2 = engine.execute(IntervalQuery(0, 44, 50))
        assert clock.total_ms == pytest.approx(r1.simulated_ms + r2.simulated_ms)


class TestAnswerOwnership:
    """Query answers belong to the caller: never a read-only view of
    pool/store memory, even when a constituent is a bare leaf."""

    def _single_leaf_query(self, codec):
        values = np.arange(120) % 4
        idx = BitmapIndex.build(
            values, IndexSpec(cardinality=4, scheme="E", codec=codec)
        )
        # Equality on an E-encoded index is a bare-leaf expression.
        result = idx.query(IntervalQuery(2, 2, 4))
        return idx, result

    @pytest.mark.parametrize("codec", ["raw", "bbc"])
    def test_answer_is_writable(self, codec):
        idx, result = self._single_leaf_query(codec)
        assert result.bitmap.words.flags.writeable
        result.bitmap.words[0] = 0  # must not raise

    def test_mutating_answer_leaves_index_intact(self):
        """Neither execute nor evaluate_shared hands out the pool's copy
        (a heap-decoded BBC leaf is writable, so only a copy protects it)."""
        query = IntervalQuery(2, 2, 4)
        for codec in ("raw", "bbc"):
            idx, result = self._single_leaf_query(codec)
            before = result.row_count
            engine = idx.engine()
            engine.execute(query).bitmap.words[:] = 0
            assert engine.execute(query).row_count == before, codec
            leaf_expr = idx.rewriter.rewrite_interval(query)
            engine.evaluate_shared([leaf_expr], {}, EvalStats()).words[:] = 0
            assert engine.execute(query).row_count == before, codec
