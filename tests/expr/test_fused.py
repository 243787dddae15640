"""Fused block-at-a-time evaluation: correctness, accounting, planning."""

import numpy as np
import pytest

from repro import obs
from repro.bitmap import BitVector
from repro.compress import get_codec
from repro.errors import BitmapError
from repro.expr import (
    DEFAULT_BLOCK_WORDS,
    EvalStats,
    evaluate,
    evaluate_fused,
    leaf,
    one,
    plan_physical,
    zero,
)
from repro.expr.fused import MAX_BLOCK_WORDS, MIN_BLOCK_WORDS, clamp_block_words


def make_bitmaps(length, seed=0, keys="abcd"):
    rng = np.random.default_rng(seed)
    return {
        key: BitVector.from_bools(rng.random(length) < density)
        for key, density in zip(keys, (0.3, 0.5, 0.05, 0.9))
    }


# Spans several blocks at the smallest block size, with a ragged tail.
LENGTH = MIN_BLOCK_WORDS * 64 * 3 + 17
BITMAPS = make_bitmaps(LENGTH)

EXPRS = [
    leaf("a"),
    ~leaf("a"),
    leaf("a") & leaf("b"),
    (leaf("a") & leaf("b")) | leaf("c"),
    ~(leaf("a") ^ leaf("b")),
    (~leaf("a") | leaf("b")) & ~(leaf("c") ^ ~leaf("d")),
    (leaf("a") | one()) ^ (leaf("b") & zero()),
    ~~leaf("a") & ~(~leaf("b")),
]


class TestCorrectness:
    @pytest.mark.parametrize("expr", EXPRS, ids=[str(i) for i in range(len(EXPRS))])
    def test_matches_materializing(self, expr):
        reference = evaluate(expr, BITMAPS.get, LENGTH)
        fused = evaluate_fused(
            expr, BITMAPS.get, LENGTH, block_words=MIN_BLOCK_WORDS
        )
        assert fused == reference

    def test_padding_bits_clean_after_folded_not(self):
        # A folded complement sets padding bits inside blocks; the final
        # mask must clear them so count()/to_indices() stay correct.
        length = 100
        vec = BitVector.from_indices(length, [0, 99])
        result = evaluate_fused(~leaf("a"), {"a": vec}.get, length)
        assert result.count() == length - 2
        assert int(result.words[-1]) >> (length % 64) == 0

    def test_result_does_not_alias_fetched_bitmap(self):
        original = bool(BITMAPS["a"][10])
        result = evaluate_fused(leaf("a"), BITMAPS.get, LENGTH)
        result[10] = not original
        assert bool(BITMAPS["a"][10]) == original

    def test_block_size_invariance(self):
        expr = (~leaf("a") | leaf("b")) & ~(leaf("c") ^ leaf("d"))
        reference = evaluate_fused(expr, BITMAPS.get, LENGTH)
        for block_words in (MIN_BLOCK_WORDS, 1024, MAX_BLOCK_WORDS):
            assert (
                evaluate_fused(
                    expr, BITMAPS.get, LENGTH, block_words=block_words
                )
                == reference
            )

    def test_length_mismatch_detected(self):
        with pytest.raises(BitmapError):
            evaluate_fused(leaf("a"), BITMAPS.get, LENGTH + 1)


class TestAccounting:
    @pytest.mark.parametrize("expr", EXPRS, ids=[str(i) for i in range(len(EXPRS))])
    def test_stats_match_materializing(self, expr):
        mat, fus = EvalStats(), EvalStats()
        evaluate(expr, BITMAPS.get, LENGTH, mat)
        evaluate_fused(expr, BITMAPS.get, LENGTH, fus)
        assert fus.scans == mat.scans
        assert fus.operations == mat.operations
        assert fus.fetched_keys == mat.fetched_keys

    def test_shared_cache_suppresses_refetch(self):
        cache, stats = {}, EvalStats()
        evaluate_fused(leaf("a") & leaf("b"), BITMAPS.get, LENGTH, stats, cache)
        evaluate_fused(leaf("a") | leaf("c"), BITMAPS.get, LENGTH, stats, cache)
        assert stats.scans == 3

    def test_cse_charge_is_memoized(self):
        shared = leaf("a") & leaf("b")
        stats = EvalStats()
        evaluate_fused(shared | shared, BITMAPS.get, LENGTH, stats)
        # Logical charge matches the materializing memo: AND once + OR.
        assert stats.operations == 2

    def test_obs_counters(self):
        expr = ~(leaf("a") & ~leaf("b"))
        with obs.observed() as o:
            evaluate_fused(
                expr, BITMAPS.get, LENGTH, block_words=MIN_BLOCK_WORDS
            )
        words = -(-LENGTH // 64)
        expected_blocks = -(-words // MIN_BLOCK_WORDS)
        assert o.counter_total("expr.fused.blocks") == expected_blocks
        assert o.counter_total("expr.fused.not_folds") == 2
        assert o.metrics.find("expr.intermediate_allocs", mode="fused").value == 0

    def test_materializing_counts_intermediates(self):
        expr = ~(leaf("a") & leaf("b"))
        with obs.observed() as o:
            evaluate(expr, BITMAPS.get, LENGTH)
        found = o.metrics.find("expr.intermediate_allocs", mode="materialize")
        assert found.value == 2  # the AND copy + the NOT


class TestStreams:
    @pytest.mark.parametrize("codec", ["raw", "bbc", "wah", "ewah", "roaring"])
    def test_encoded_leaves_stream(self, codec):
        """Leaves decoded through each codec's block stream, then fused."""
        encoder = get_codec(codec)
        payloads = {key: encoder.encode(vec) for key, vec in BITMAPS.items()}

        def fetch(key):
            return encoder.decode_blockwise(
                payloads[key], LENGTH, MIN_BLOCK_WORDS
            )

        expr = (~leaf("a") | leaf("b")) & ~(leaf("c") ^ leaf("d"))
        reference = evaluate(expr, BITMAPS.get, LENGTH)
        stats = EvalStats()
        result = evaluate_fused(
            expr, fetch, LENGTH, stats, block_words=MIN_BLOCK_WORDS
        )
        assert result == reference
        assert stats.scans == 4

    def test_stream_length_mismatch_detected(self):
        payload = get_codec("ewah").encode(BITMAPS["a"])

        def fetch(key):
            return get_codec("ewah").decode_blockwise(payload, LENGTH)

        with pytest.raises(BitmapError):
            evaluate_fused(leaf("a"), fetch, LENGTH - 1)


class TestPlanner:
    def test_small_vectors_materialize(self):
        expr = leaf("a") & leaf("b") & leaf("c")
        assert plan_physical(expr, 1000) == "materialize"

    def test_trivial_expressions_materialize(self):
        long_enough = DEFAULT_BLOCK_WORDS * 64 * 4
        assert plan_physical(leaf("a"), long_enough) == "materialize"
        assert plan_physical(~leaf("a"), long_enough) == "materialize"

    def test_large_compound_fuses(self):
        expr = leaf("a") & leaf("b") & leaf("c")
        assert plan_physical(expr, DEFAULT_BLOCK_WORDS * 64 * 4) == "fused"

    def test_threshold_scales_with_block_size(self):
        expr = leaf("a") & leaf("b") & leaf("c")
        length = MIN_BLOCK_WORDS * 64 * 2
        assert plan_physical(expr, length, MIN_BLOCK_WORDS) == "fused"
        assert plan_physical(expr, length - 64, MIN_BLOCK_WORDS) == "materialize"

    def test_clamp(self):
        assert clamp_block_words(1) == MIN_BLOCK_WORDS
        assert clamp_block_words(10**9) == MAX_BLOCK_WORDS
        assert clamp_block_words(1024) == 1024
