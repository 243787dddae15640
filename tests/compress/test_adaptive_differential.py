"""Differential property tests for the position/range-list and auto codecs.

Mirrors ``test_differential.py`` for the position-list, range-list and
auto codecs: every round trip and every evaluation over their payloads
must agree bit-for-bit with the plain-vector oracle.  Lengths hit the
new alignment boundaries on top of the old ones — 2^16 ± 1 (the
roaring container edge the auto selector measures per chunk) and
131072 ± 1 bits (the fused evaluator's 2048-word default block, which
the two new streams must straddle).  Auto gets the extra mixed-codec
cases: operand pairs whose payloads carry *different* inner codecs,
which no fixed codec ever faces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import CODEC_IDS, get_codec, open_stream, split_payload
from repro.compress.multiway import threshold_vectors
from repro.expr import Threshold, evaluate, evaluate_fused, leaf
from repro.workload.markov import markov_bitmap

NEW_CODECS = ("position_list", "range_list", "auto")

# Old boundaries plus the roaring-chunk and fused-block edges.
BOUNDARY_LENGTHS = sorted(
    {0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129}
    | {2**16 - 1, 2**16, 2**16 + 1}
    | {2048 * 64 - 1, 2048 * 64, 2048 * 64 + 1}
)
lengths = st.one_of(
    st.sampled_from(BOUNDARY_LENGTHS),
    st.integers(min_value=0, max_value=1500),
)
densities = st.sampled_from([0.0, 0.001, 0.02, 0.1, 0.5, 0.9, 1.0])
clusterings = st.sampled_from([1.0, 4.0, 32.0])

OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}


def clustered(length, density, clustering, seed):
    if density < 1.0:
        clustering = max(clustering, density / (1.0 - density))
    return markov_bitmap(length, density, clustering, seed=seed)


@pytest.mark.parametrize("name", NEW_CODECS)
@given(
    length=lengths,
    density=densities,
    clustering=clusterings,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=80, deadline=None)
def test_roundtrip(name, length, density, clustering, seed):
    vector = clustered(length, density, clustering, seed)
    codec = get_codec(name)
    assert codec.decode(codec.encode(vector), length) == vector


@pytest.mark.parametrize("name", NEW_CODECS)
@given(
    length=st.sampled_from(
        [1, 100, 2**16 - 1, 2**16 + 1, 2048 * 64 - 1, 2048 * 64 + 1]
    ),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=30, deadline=None)
def test_multiway_threshold_matches_raw(name, length, k, seed):
    """k-of-N over vectors streamed off the new codecs == the same off raw."""
    rng = np.random.default_rng(seed)
    vectors = [
        BitVector.from_bools(rng.random(length) < d)
        for d in (0.01, 0.2, 0.5, 0.8)
    ]
    codec = get_codec(name)
    raw = get_codec("raw")
    got = threshold_vectors(
        k,
        [codec.decode_blockwise(codec.encode(v), length) for v in vectors],
    )
    want = threshold_vectors(
        k, [raw.decode_blockwise(raw.encode(v), length) for v in vectors]
    )
    assert got == want


@pytest.mark.parametrize("inner_a", ["position_list", "range_list", "raw", "roaring"])
@pytest.mark.parametrize("inner_b", ["position_list", "bbc", "ewah", "wah"])
@pytest.mark.parametrize("op", ["and", "or", "xor"])
def test_auto_mixed_inner_codecs(inner_a, inner_b, op):
    """Both evaluators over auto payloads with *forced*, differing inners.

    The selector would rarely pick some of these pairings itself, so
    the payloads are hand-tagged; every pairing must decode, stream and
    evaluate (materializing and fused) to the plain-vector oracle.
    """
    length = 3 * 2**16 + 17
    rng = np.random.default_rng(hash((inner_a, inner_b, op)) % 2**32)
    vec_a = BitVector.from_bools(rng.random(length) < 0.01)
    vec_b = BitVector.from_bools(rng.random(length) < 0.4)
    payloads = {
        "a": bytes([CODEC_IDS[inner_a]]) + get_codec(inner_a).encode(vec_a),
        "b": bytes([CODEC_IDS[inner_b]]) + get_codec(inner_b).encode(vec_b),
    }
    assert split_payload(payloads["a"])[0] == inner_a
    assert split_payload(payloads["b"])[0] == inner_b
    auto = get_codec("auto")
    for key, vector in (("a", vec_a), ("b", vec_b)):
        stream = open_stream("auto", payloads[key], length)
        block = stream.block(0, stream.num_words).copy()
        assert BitVector(length, block) == vector

    def fetch(key):
        return auto.decode(payloads[key], length)

    expr = OPS[op](leaf("a"), leaf("b"))
    oracle = OPS[op](vec_a, vec_b)
    assert evaluate(expr, fetch, length) == oracle
    assert evaluate_fused(expr, fetch, length, block_words=512) == oracle


def test_auto_multiway_mixed_inners_matches_raw():
    """N-ary ops and k-of-N over an auto set whose inners genuinely differ."""
    length = 2**17 + 5
    rng = np.random.default_rng(9)
    vectors = [
        BitVector.from_bools(rng.random(length) < d)
        for d in (0.00005, 0.3, 0.9)
    ]
    auto = get_codec("auto")
    payloads = [auto.encode(v) for v in vectors]
    inners = {split_payload(p)[0] for p in payloads}
    assert len(inners) > 1, inners
    decoded = {
        i: auto.decode_blockwise(p, length) for i, p in enumerate(payloads)
    }
    leaves = [leaf(i) for i in range(len(vectors))]
    for op in ("and", "or", "xor"):
        expr = OPS[op](OPS[op](leaves[0], leaves[1]), leaves[2])
        want = OPS[op](OPS[op](vectors[0], vectors[1]), vectors[2])
        assert evaluate_fused(expr, decoded.__getitem__, length) == want
    got = evaluate_fused(
        Threshold(2, tuple(leaves)), decoded.__getitem__, length
    )
    assert got == threshold_vectors(2, vectors)
