"""Differential property suite: fused ≡ materializing ≡ naive.

Three independent evaluators must agree bit-for-bit on random
expression trees:

* the **naive** oracle — numpy boolean arrays, no blocks, no codecs;
* the **materializing** evaluator (:func:`repro.expr.evaluate`);
* the **fused** block-at-a-time evaluator
  (:func:`~repro.expr.evaluate_fused`), both over plain vectors and
  over leaves decoded through every codec's block stream.

Lengths deliberately straddle the fusion boundaries: the block size in
bits ± one word (first/last block edge cases), 2^16 ± 1 (roaring
container edges), and word/byte/31-bit-group edges inherited from the
codec suite.  The index-level test additionally drives every encoding
scheme's rewrite output through both evaluators, and the engine
against the naive scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import get_codec
from repro.expr import EvalStats, Threshold, evaluate, evaluate_fused
from repro.expr.fused import MIN_BLOCK_WORDS
from repro.expr.nodes import And, Const, Leaf, Not, Or, Xor, leaf, one, zero
from repro.index import BitmapIndex, IndexSpec
from repro.queries.model import IntervalQuery, MembershipQuery

CODEC_NAMES = ("raw", "bbc", "wah", "ewah", "roaring")
SCHEME_NAMES = ("E", "R", "I", "ER", "O", "EI", "EI*")
KEYS = ("a", "b", "c", "d")

BLOCK_BITS = MIN_BLOCK_WORDS * 64
#: Block edges (±1 word), roaring container edges, word/byte edges.
BOUNDARY_LENGTHS = sorted(
    {1, 63, 64, 65, 100, 1000}
    | {BLOCK_BITS - 64, BLOCK_BITS, BLOCK_BITS + 64}
    | {2 * BLOCK_BITS + 1, 3 * BLOCK_BITS - 64}
    | {2**16 - 1, 2**16, 2**16 + 1}
)

lengths = st.sampled_from(BOUNDARY_LENGTHS)
densities = st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0])


def expression_trees():
    leaves = st.sampled_from([leaf(k) for k in KEYS] + [one(), zero()])
    return st.recursive(
        leaves,
        lambda child: st.one_of(
            child.map(lambda c: ~c),
            st.tuples(child, child).map(lambda ab: ab[0] & ab[1]),
            st.tuples(child, child).map(lambda ab: ab[0] | ab[1]),
            st.tuples(child, child).map(lambda ab: ab[0] ^ ab[1]),
            st.lists(child, min_size=1, max_size=4).flatmap(
                lambda cs: st.integers(1, len(cs)).map(
                    lambda k: Threshold(k, tuple(cs))
                )
            ),
        ),
        max_leaves=8,
    )


def negated_child_thresholds():
    """Thresholds whose children mix plain and NOT-wrapped leaves.

    Guaranteed at least one negated child — the fused path folds the
    NOT into the child's invert flag, and :mod:`repro.expr.simplify`
    deliberately refuses to touch these nodes, so the differential
    suite is their only equivalence check.
    """
    children = st.lists(
        st.sampled_from(
            [leaf(k) for k in KEYS] + [~leaf(k) for k in KEYS]
        ),
        min_size=2,
        max_size=6,
    ).filter(lambda cs: any(isinstance(c, Not) for c in cs))
    return children.flatmap(
        lambda cs: st.integers(1, len(cs)).map(
            lambda k: Threshold(k, tuple(cs))
        )
    )


def random_bitmaps(length: int, density: float, seed: int):
    rng = np.random.default_rng(seed)
    return {
        key: BitVector.from_bools(rng.random(length) < density)
        for key in KEYS
    }


def streamed_fetch(codec: str, bitmaps: dict, length: int):
    """A leaf fetcher decoding each bitmap through ``codec``'s stream."""
    encoder = get_codec(codec)
    payloads = {key: encoder.encode(vec) for key, vec in bitmaps.items()}
    return lambda key: encoder.decode_blockwise(
        payloads[key], length, MIN_BLOCK_WORDS
    )


def naive(expr, bitmaps, length) -> np.ndarray:
    """Reference semantics on plain boolean arrays."""
    if isinstance(expr, Leaf):
        return bitmaps[expr.key].to_bools()
    if isinstance(expr, Const):
        return np.full(length, bool(expr.value))
    if isinstance(expr, Not):
        return ~naive(expr.child, bitmaps, length)
    if isinstance(expr, Threshold):
        counts = np.zeros(length, dtype=np.int64)
        for child in expr.children():
            counts += naive(child, bitmaps, length)
        return counts >= expr.k
    op = {And: np.logical_and, Or: np.logical_or, Xor: np.logical_xor}[
        type(expr)
    ]
    parts = [naive(child, bitmaps, length) for child in expr.children()]
    result = parts[0]
    for part in parts[1:]:
        result = op(result, part)
    return result


@given(
    expr=expression_trees(),
    length=lengths,
    density=densities,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=80, deadline=None)
def test_fused_matches_materializing_and_naive(expr, length, density, seed):
    bitmaps = random_bitmaps(length, density, seed)
    oracle = naive(expr, bitmaps, length)
    materialized = evaluate(expr, bitmaps.get, length)
    fused = evaluate_fused(
        expr, bitmaps.get, length, block_words=MIN_BLOCK_WORDS
    )
    assert materialized.to_bools().tolist() == oracle.tolist()
    assert fused == materialized


@pytest.mark.parametrize("codec", CODEC_NAMES)
@given(
    expr=expression_trees(),
    length=lengths,
    density=densities,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=25, deadline=None)
def test_streamed_leaves_match_all_codecs(codec, expr, length, density, seed):
    bitmaps = random_bitmaps(length, density, seed)
    reference = evaluate(expr, bitmaps.get, length)
    fused = evaluate_fused(
        expr,
        streamed_fetch(codec, bitmaps, length),
        length,
        block_words=MIN_BLOCK_WORDS,
    )
    assert fused == reference


@given(
    expr=negated_child_thresholds(),
    length=lengths,
    density=densities,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=60, deadline=None)
def test_fused_threshold_with_negated_children(expr, length, density, seed):
    """NOT-folding under Threshold: fused invert flags ≡ materializing.

    These are exactly the nodes ``simplify`` refuses to rewrite; the
    fused path still folds each child's NOT into its invert flag, and
    this suite is the equivalence proof for that folding.
    """
    bitmaps = random_bitmaps(length, density, seed)
    oracle = naive(expr, bitmaps, length)
    materialized = evaluate(expr, bitmaps.get, length)
    fused = evaluate_fused(
        expr, bitmaps.get, length, block_words=MIN_BLOCK_WORDS
    )
    assert materialized.to_bools().tolist() == oracle.tolist()
    assert fused == materialized


@pytest.mark.parametrize("codec", CODEC_NAMES)
@given(
    expr=negated_child_thresholds(),
    length=lengths,
    density=densities,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=15, deadline=None)
def test_streamed_threshold_negated_children(codec, expr, length, density, seed):
    bitmaps = random_bitmaps(length, density, seed)
    reference = evaluate(expr, bitmaps.get, length)
    fused = evaluate_fused(
        expr,
        streamed_fetch(codec, bitmaps, length),
        length,
        block_words=MIN_BLOCK_WORDS,
    )
    assert fused == reference


# Straddles MIN_BLOCK_WORDS blocks so forced fusion is multi-block.
INDEX_RECORDS = BLOCK_BITS * 2 + 17
INDEX_CARDINALITY = 12


@pytest.fixture(scope="module")
def scheme_indexes():
    rng = np.random.default_rng(7)
    values = rng.integers(0, INDEX_CARDINALITY, INDEX_RECORDS)
    indexes = {
        scheme: BitmapIndex.build(
            values,
            IndexSpec(cardinality=INDEX_CARDINALITY, scheme=scheme),
        )
        for scheme in SCHEME_NAMES
    }
    return values, indexes


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_engine_modes_agree_per_scheme(scheme_indexes, scheme, data):
    """Each rewritten constituent: fused ≡ materializing, same accounting;
    the engine's answer ≡ the naive scan."""
    values, indexes = scheme_indexes
    index = indexes[scheme]
    lo = data.draw(st.integers(0, INDEX_CARDINALITY - 1), label="lo")
    hi = data.draw(st.integers(lo, INDEX_CARDINALITY - 1), label="hi")
    members = data.draw(
        st.frozensets(
            st.integers(0, INDEX_CARDINALITY - 1), min_size=1, max_size=5
        ),
        label="members",
    )
    for query in (
        IntervalQuery(lo, hi, INDEX_CARDINALITY),
        MembershipQuery(members, INDEX_CARDINALITY),
    ):
        if isinstance(query, IntervalQuery):
            constituents = [index.rewriter.rewrite_interval(query)]
        else:
            constituents = index.rewriter.rewrite_membership(query)
        for expr in constituents:
            materialized_stats, fused_stats = EvalStats(), EvalStats()
            materialized = evaluate(
                expr, index.store.get, INDEX_RECORDS, materialized_stats
            )
            fused = evaluate_fused(
                expr, index.store.get, INDEX_RECORDS, fused_stats,
                block_words=MIN_BLOCK_WORDS,
            )
            assert fused == materialized
            assert fused_stats.scans == materialized_stats.scans
            assert fused_stats.operations == materialized_stats.operations
        result = index.query(query, block_words=MIN_BLOCK_WORDS)
        assert result.bitmap == BitVector.from_bools(query.matches(values))
