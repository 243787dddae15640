"""Fused block-at-a-time expression evaluation.

The materializing evaluator (:mod:`repro.expr.evaluator`) allocates a
full-length :class:`~repro.bitmap.BitVector` for every internal node,
so a deep tree over a large relation streams each intermediate through
main memory several times.  This module evaluates the same trees in
word *blocks* (default 2048 words = 16 KiB) small enough that every
intermediate stays in L1/L2:

* the only full-length allocation is the answer itself — internal
  nodes write into block-sized scratch buffers reused across blocks;
* ``Not`` is *folded*: a complement over a leaf flips into the leaf
  load, a complement over an operator node becomes an in-place
  ``bitwise_not`` on that node's block — no NOT intermediate exists at
  any granularity;
* leaves are :class:`~repro.compress.streams.VectorStream` objects,
  zero-copy block slices of the decoded leaf vectors.

Accounting is *identical* to the materializing evaluator by
construction: ``stats.scans``/``fetched_keys`` follow the same
first-touch depth-first order through the same per-query cache, and
``stats.operations`` is :func:`~repro.expr.evaluator.expression_operation_count`
— the memoized logical op count the analytic cost model predicts —
charged once per evaluation, never per block.  Fusion changes where
bytes move, not what the cost model charges, so
``predict_query_cost == CostClock == obs`` survives the swap.  (The
physical walk re-executes a subtree that appears twice; the logical
charge still counts it once, exactly as the materializing memo does.)

Padding: folded complements set padding bits inside a block, so the
final word is masked once after the last block — intermediates never
need the padding invariant, only the answer does.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress.multiway import ThresholdCounter
from repro.compress.streams import BlockStream, VectorStream
from repro.expr.evaluator import (
    EvalStats,
    FetchFn,
    _fetch_leaf,
    expression_operation_count,
)
from repro.expr.nodes import And, Const, Expr, Leaf, Not, Or, Xor
from repro.expr.threshold import Threshold

#: Default block size in 64-bit words (16 KiB per block).
DEFAULT_BLOCK_WORDS = 2048
#: Smallest allowed block (4 KiB) — below this the numpy dispatch
#: overhead per block dominates the cache win.
MIN_BLOCK_WORDS = 512
#: Largest allowed block (64 KiB) — beyond this three live blocks
#: (accumulator, operand, scratch) no longer fit typical L2.
MAX_BLOCK_WORDS = 8192

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

_OPS = {And: np.bitwise_and, Or: np.bitwise_or, Xor: np.bitwise_xor}

def clamp_block_words(block_words: int) -> int:
    """Clamp a requested block size into the supported 4–64 KiB band."""
    return max(MIN_BLOCK_WORDS, min(int(block_words), MAX_BLOCK_WORDS))


class _LeafPlan:
    __slots__ = ("stream", "invert")

    def __init__(self, stream: BlockStream, invert: bool):
        self.stream = stream
        self.invert = invert


class _ConstPlan:
    __slots__ = ("fill",)

    def __init__(self, value: bool):
        self.fill = _FULL if value else np.uint64(0)


class _OpPlan:
    __slots__ = ("op", "children", "invert")

    def __init__(self, op, children: list, invert: bool):
        self.op = op
        self.children = children
        self.invert = invert


class _ThresholdPlan:
    """Block-at-a-time k-of-N: children counted, never materialized.

    Each block evaluates every child into the counter (leaf children
    straight off their streams), then extracts ``count >= k`` into the
    output.  A parent ``Not`` folds into :attr:`invert` exactly like an
    :class:`_OpPlan`; child ``Not`` nodes fold into the child plans.
    The bit-sliced counter scratch is per-plan and block-sized, reused
    across blocks.
    """

    __slots__ = ("k", "children", "invert", "counter")

    def __init__(self, k: int, children: list, invert: bool):
        self.k = k
        self.children = children
        self.invert = invert
        self.counter: ThresholdCounter | None = None


def _compile(
    expr: Expr,
    open_leaf: Callable[[Hashable], BlockStream],
    invert: bool,
    counters: list[int],
):
    """Lower ``expr`` to a physical plan, folding Not nodes away.

    ``counters`` accumulates ``[not_folds, threshold_nodes,
    threshold_children]`` for the obs layer.  Leaves are opened in
    depth-first first-touch order — the same order the materializing
    evaluator fetches them, so buffer-pool LRU state evolves identically
    under either physical plan.
    """
    if isinstance(expr, Not):
        counters[0] += 1
        return _compile(expr.child, open_leaf, not invert, counters)
    if isinstance(expr, Leaf):
        return _LeafPlan(open_leaf(expr.key), invert)
    if isinstance(expr, Const):
        return _ConstPlan(expr.value != invert)
    if isinstance(expr, (And, Or, Xor)):
        children = [
            _compile(child, open_leaf, False, counters)
            for child in expr.children()
        ]
        return _OpPlan(_OPS[type(expr)], children, invert)
    if isinstance(expr, Threshold):
        children = [
            _compile(child, open_leaf, False, counters)
            for child in expr.children()
        ]
        counters[1] += 1
        counters[2] += len(children)
        return _ThresholdPlan(expr.k, children, invert)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _exec_block(plan, lo: int, hi: int, out: np.ndarray, buffers: list, depth: int,
                block_words: int) -> None:
    """Evaluate one block of ``plan`` into ``out`` (length ``hi - lo``)."""
    n = hi - lo
    if isinstance(plan, _LeafPlan):
        block = plan.stream.block(lo, hi)
        if plan.invert:
            np.bitwise_not(block, out=out[:n])
        else:
            out[:n] = block
        return
    if isinstance(plan, _ConstPlan):
        out[:n] = plan.fill
        return
    if isinstance(plan, _ThresholdPlan):
        if plan.k > len(plan.children):
            out[:n] = 0
        else:
            counter = plan.counter
            if counter is None:
                counter = plan.counter = ThresholdCounter(
                    len(plan.children), block_words
                )
            counter.reset(n)
            for child in plan.children:
                if isinstance(child, _LeafPlan) and not child.invert:
                    # Count straight off the stream block — no staging.
                    counter.add(child.stream.block(lo, hi))
                    continue
                if len(buffers) <= depth:
                    buffers.append(np.empty(block_words, dtype=np.uint64))
                scratch = buffers[depth]
                _exec_block(
                    child, lo, hi, scratch, buffers, depth + 1, block_words
                )
                counter.add(scratch[:n])
            counter.compare_ge(plan.k, out[:n])
        if plan.invert:
            np.bitwise_not(out[:n], out=out[:n])
        return
    _exec_block(plan.children[0], lo, hi, out, buffers, depth, block_words)
    acc = out[:n]
    for child in plan.children[1:]:
        if isinstance(child, _LeafPlan) and not child.invert:
            # Operate straight off the stream block — no staging copy.
            plan.op(acc, child.stream.block(lo, hi), out=acc)
            continue
        if len(buffers) <= depth:
            buffers.append(np.empty(block_words, dtype=np.uint64))
        scratch = buffers[depth]
        _exec_block(child, lo, hi, scratch, buffers, depth + 1, block_words)
        plan.op(acc, scratch[:n], out=acc)
    if plan.invert:
        np.bitwise_not(acc, out=acc)


def _run(plan, length: int, block_words: int, counters: list[int]) -> BitVector:
    num_words = (length + 63) // 64
    out_words = np.empty(num_words, dtype=np.uint64)
    buffers: list[np.ndarray] = []
    blocks = 0
    for lo in range(0, num_words, block_words):
        hi = min(lo + block_words, num_words)
        _exec_block(plan, lo, hi, out_words[lo:hi], buffers, 0, block_words)
        blocks += 1
    tail = length % 64
    if tail and num_words:
        out_words[-1] &= (_ONE << np.uint64(tail)) - _ONE
    o = _obs.active()
    if o is not None:
        o.count("expr.fused.blocks", blocks)
        o.count("expr.fused.not_folds", counters[0])
        if counters[1]:
            o.count("expr.threshold.evals", counters[1])
            o.count("expr.threshold.children", counters[2])
        # Register the fused-mode allocation counter even when zero, so
        # the bench allocation gate can read "0" rather than "absent".
        o.count("expr.intermediate_allocs", 0, mode="fused")
    return BitVector(length, out_words)


def evaluate_fused(
    expr: Expr,
    fetch: FetchFn,
    length: int,
    stats: EvalStats | None = None,
    cache: dict[Hashable, BitVector] | None = None,
    block_words: int = DEFAULT_BLOCK_WORDS,
) -> BitVector:
    """Drop-in replacement for :func:`repro.expr.evaluator.evaluate`.

    Same ``fetch``/``cache``/``stats`` contract and the same result,
    scans and operation counts — only the physical plan differs: leaf
    vectors are sliced zero-copy per block and no intermediate
    full-length vector is allocated.
    """
    if stats is None:
        stats = EvalStats()
    if cache is None:
        cache = {}
    block_words = clamp_block_words(block_words)
    streams: dict[Hashable, VectorStream] = {}

    def open_leaf(key: Hashable) -> BlockStream:
        stream = streams.get(key)
        if stream is None:
            vector = _fetch_leaf(key, fetch, length, stats, cache)
            stream = VectorStream(vector)
            streams[key] = stream
        return stream

    counters = [0, 0, 0]
    plan = _compile(expr, open_leaf, False, counters)
    stats.operations += expression_operation_count(expr)
    return _run(plan, length, block_words, counters)
