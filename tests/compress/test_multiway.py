"""Tests for :mod:`repro.compress.multiway` — the k-of-N counters.

The threshold kernel must match the naive per-row count, over decoded
vectors and over vectors decoded from every codec.  Plus the
bit-sliced counter in isolation, the degenerate ``k`` bounds, the
error paths, and the ``expr.threshold.*`` obs counters.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bitmap import BitVector
from repro.compress import get_codec, multiway
from repro.compress.multiway import (
    DEFAULT_BLOCK_WORDS,
    ThresholdCounter,
    counter_width,
    threshold_vectors,
)
from repro.errors import BitmapError

CODECS = ("bbc", "wah", "ewah", "roaring")

lengths = st.sampled_from([1, 63, 64, 65, 1000, 2**16 - 1, 2**16 + 1])
densities = st.sampled_from([0.0, 0.05, 0.5, 1.0])


def random_vectors(n, length, density, seed):
    rng = np.random.default_rng(seed)
    return [
        BitVector.from_bools(rng.random(length) < density) for _ in range(n)
    ]


class TestThresholdKernels:
    @given(
        n=st.integers(min_value=1, max_value=32),
        length=lengths,
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_vectors_matches_count(
        self, n, length, density, seed, data
    ):
        vectors = random_vectors(n, length, density, seed)
        k = data.draw(st.integers(1, n), label="k")
        counts = np.zeros(length, dtype=np.int64)
        for vector in vectors:
            counts += vector.to_bools()
        result = threshold_vectors(k, vectors)
        assert result.to_bools().tolist() == (counts >= k).tolist()

    def test_k_at_most_zero_is_all_ones_masked(self):
        vectors = random_vectors(2, 70, 0.5, 3)
        result = threshold_vectors(0, vectors)
        assert result.to_bools().all()
        # Padding bits above length 70 must be masked off.
        assert int(result.words[-1]) >> 6 == 0

    def test_k_above_n_is_all_zeros(self):
        vectors = random_vectors(2, 70, 1.0, 3)
        assert not threshold_vectors(3, vectors).to_bools().any()

    def test_empty_vectors_rejected(self):
        with pytest.raises(BitmapError, match="at least one input"):
            threshold_vectors(1, [])

    def test_stream_length_mismatch_rejected(self):
        vectors = [BitVector.zeros(64), BitVector.zeros(128)]
        with pytest.raises(BitmapError, match="length"):
            threshold_vectors(1, vectors)

    @pytest.mark.parametrize("codec", CODECS)
    def test_multiway_threshold_roundtrip(self, codec):
        """k-of-N over vectors streamed block-at-a-time off ``codec``."""
        vectors = random_vectors(5, 1000, 0.3, 11)
        encoder = get_codec(codec)
        decoded = [
            encoder.decode_blockwise(encoder.encode(v), 1000, block_words=4)
            for v in vectors
        ]
        counts = np.zeros(1000, dtype=np.int64)
        for vector in vectors:
            counts += vector.to_bools()
        # 3-word counting windows: the 16-word vectors cross 5 edges.
        with mock.patch.object(multiway, "DEFAULT_BLOCK_WORDS", 3):
            for k in (1, 3, 5):
                result = threshold_vectors(k, decoded)
                assert result.to_bools().tolist() == (counts >= k).tolist()

    def test_default_block_words_is_power_of_two(self):
        assert DEFAULT_BLOCK_WORDS & (DEFAULT_BLOCK_WORDS - 1) == 0

    def test_emits_obs_counters(self):
        vectors = random_vectors(4, 256, 0.5, 7)
        with obs.observed() as o:
            threshold_vectors(2, vectors)
        assert o.counter_total("expr.threshold.evals") == 1
        assert o.counter_total("expr.threshold.children") == 4


class TestThresholdCounter:
    def test_counter_width(self):
        assert counter_width(1) == 1
        assert counter_width(3) == 2
        assert counter_width(4) == 3
        assert counter_width(32) == 6
        with pytest.raises(BitmapError):
            counter_width(0)

    @given(
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**20),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_add_then_compare_matches_popcount(self, n, seed, data):
        words = 4
        rng = np.random.default_rng(seed)
        blocks = [
            rng.integers(0, 2**64, size=words, dtype=np.uint64)
            for _ in range(n)
        ]
        k = data.draw(st.integers(1, n), label="k")
        counter = ThresholdCounter(n, words)
        counter.reset(words)
        for block in blocks:
            counter.add(block)
        out = np.empty(words, dtype=np.uint64)
        counter.compare_ge(k, out)
        for w in range(words):
            for bit in range(64):
                count = sum(
                    (int(block[w]) >> bit) & 1 for block in blocks
                )
                expected = count >= k
                got = bool((int(out[w]) >> bit) & 1)
                assert got == expected, (w, bit, count, k)

    def test_reset_reuses_scratch_between_windows(self):
        counter = ThresholdCounter(3, 2)
        out = np.empty(2, dtype=np.uint64)
        full = np.full(2, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
        for _ in range(2):  # second window must not see the first's counts
            counter.reset(2)
            counter.add(full)
            counter.compare_ge(2, out)
            assert not out.any()
            counter.add(full)
            counter.compare_ge(2, out)
            assert (out == full).all()
