"""Threshold (k-of-N) counting over bitmap blocks.

Kaser & Lemire ("Compressed bitmap indexes: beyond unions and
intersections") answer the symmetric threshold function "at least k of
N" in one pass over the N inputs instead of a fold of pairwise ops.
This module is that pass's counting kernel, a word-parallel
**bit-sliced counter** (:class:`ThresholdCounter`):
``ceil(log2(N+1))`` word slices hold, per bit position, the binary
count of inputs that have that bit set; each input is ripple-carry
added in O(width) bulk ops and the final ``count >= k`` compare is a
bitwise magnitude comparison against the constant ``k``.

Total work is ``O(N * words * log N)`` bulk word operations with
``O(log N)`` block-sized scratch.  Both evaluators use it: the fused
evaluator counts each block of a ``Threshold`` node's children
directly, and the materializing evaluator goes through
:func:`threshold_vectors`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.errors import BitmapError

#: Words per counting window (16 KiB — matches the fused evaluator's
#: default so both evaluators share cache behaviour).
DEFAULT_BLOCK_WORDS = 2048

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def counter_width(n: int) -> int:
    """Bit slices needed to count ``n`` one-bit inputs without overflow."""
    if n < 1:
        raise BitmapError(f"counter needs at least one input, got {n}")
    return int(n).bit_length()


class ThresholdCounter:
    """Word-parallel bit-sliced counter over up to ``n`` bitmap blocks.

    ``slices[i]`` holds bit ``i`` of the per-position count: after
    adding blocks ``b_1..b_m`` (``m <= n``), bit position ``p`` of the
    slices spells the binary number ``|{j : b_j has bit p set}|``.
    :meth:`add` is a ripple-carry increment (2 bulk ops per slice);
    :meth:`compare_ge` extracts ``count >= k`` with one pass from the
    most significant slice down, maintaining *greater* and *equal*
    accumulators against the constant ``k``.
    """

    def __init__(self, n: int, block_words: int):
        self.width = counter_width(n)
        self.slices = [
            np.empty(block_words, dtype=np.uint64) for _ in range(self.width)
        ]
        self._carry = np.empty(block_words, dtype=np.uint64)
        self._tmp = np.empty(block_words, dtype=np.uint64)
        self._eq = np.empty(block_words, dtype=np.uint64)

    def reset(self, num_words: int) -> None:
        """Zero the counters for a window of ``num_words`` words."""
        for s in self.slices:
            s[:num_words] = 0

    def add(self, block: np.ndarray) -> None:
        """Ripple-carry add one input block into the counter slices."""
        n = len(block)
        carry, tmp = self._carry, self._tmp
        np.copyto(carry[:n], block)
        for s in self.slices:
            np.bitwise_and(s[:n], carry[:n], out=tmp[:n])
            np.bitwise_xor(s[:n], carry[:n], out=s[:n])
            carry, tmp = tmp, carry
        self._carry, self._tmp = carry, tmp

    def compare_ge(self, k: int, out: np.ndarray) -> None:
        """Write ``count >= k`` into ``out`` (``k >= 1``, fits the width).

        MSB-to-LSB bitwise magnitude comparison: ``gt`` accumulates
        positions already decided greater than ``k``'s prefix, ``eq``
        the positions still tied; a set count bit where ``k``'s bit is
        clear turns a tie into greater, a clear count bit where ``k``'s
        bit is set eliminates the tie.
        """
        n = len(out)
        gt = out
        eq, tmp, scratch = self._eq, self._tmp, self._carry
        gt[:n] = 0
        eq[:n] = _FULL
        for i in reversed(range(self.width)):
            c = self.slices[i]
            if (k >> i) & 1:
                np.bitwise_and(eq[:n], c[:n], out=eq[:n])
            else:
                np.bitwise_and(eq[:n], c[:n], out=tmp[:n])
                np.bitwise_or(gt[:n], tmp[:n], out=gt[:n])
                np.bitwise_not(c[:n], out=scratch[:n])
                np.bitwise_and(eq[:n], scratch[:n], out=eq[:n])
        np.bitwise_or(gt[:n], eq[:n], out=gt[:n])


def threshold_vectors(k: int, vectors: Sequence[BitVector]) -> BitVector:
    """"At least ``k`` of ``vectors``" over decoded bit vectors.

    The vectors are counted :data:`DEFAULT_BLOCK_WORDS` words at a
    time, so the only full-length allocation is the answer.  ``k <= 0``
    yields all ones, ``k > len(vectors)`` all zeros; padding bits beyond
    the length are masked off.  Emits the ``expr.threshold.*`` counters
    when observability is installed.
    """
    if not vectors:
        raise BitmapError("threshold needs at least one input vector")
    length = len(vectors[0])
    for vector in vectors:
        if len(vector) != length:
            raise BitmapError(
                f"threshold input has length {len(vector)}, expected {length}"
            )
    n = len(vectors)
    o = _obs.active()
    if o is not None:
        o.count("expr.threshold.evals", 1)
        o.count("expr.threshold.children", n)
    out = BitVector(length)
    if k > n:
        return out
    words = out.words
    if k <= 0:
        words[:] = _FULL
    else:
        block_words = DEFAULT_BLOCK_WORDS
        counter = ThresholdCounter(n, min(block_words, max(1, len(words))))
        for lo in range(0, len(words), block_words):
            hi = min(lo + block_words, len(words))
            counter.reset(hi - lo)
            for vector in vectors:
                counter.add(vector.words[lo:hi])
            counter.compare_ge(k, words[lo:hi])
    tail = length % 64
    if tail and len(words):
        words[-1] &= (_ONE << np.uint64(tail)) - _ONE
    return out
