"""Differential property tests: every codec round-trips every length.

The raw, BBC, WAH, EWAH and roaring codecs must decode exactly what
they encoded.  Lengths deliberately hit the codecs' alignment
boundaries: n = 0, 1, 31·k ± 1 (WAH packs 31-bit groups), 32/33,
63/64/65 (EWAH and raw use 64-bit words; BBC bytes), and 2^16 ± 1
(roaring splits the domain into 2^16-bit containers).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import get_codec

CODEC_NAMES = ("raw", "bbc", "wah", "ewah", "roaring")

# Alignment-boundary lengths for 31-bit groups, 32/64-bit words, bytes
# and 2^16-bit roaring containers, mixed with arbitrary lengths.
BOUNDARY_LENGTHS = sorted(
    {0, 1, 7, 8, 9, 32, 33, 63, 64, 65, 127, 128, 129}
    | {31 * k + d for k in (1, 2, 3, 8) for d in (-1, 0, 1)}
    | {2**16 - 1, 2**16, 2**16 + 1}
)
lengths = st.one_of(
    st.sampled_from(BOUNDARY_LENGTHS),
    st.integers(min_value=0, max_value=1500),
)
densities = st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9, 0.98, 1.0])


def random_pair(length: int, density_a: float, density_b: float, seed: int):
    rng = np.random.default_rng(seed)
    a = BitVector.from_bools(rng.random(length) < density_a)
    b = BitVector.from_bools(rng.random(length) < density_b)
    return a, b


@given(
    length=lengths,
    density=densities,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_all_codecs(length, density, seed):
    vector, _ = random_pair(length, density, density, seed)
    for name in CODEC_NAMES:
        codec = get_codec(name)
        assert codec.decode(codec.encode(vector), length) == vector


@given(
    length=st.sampled_from(
        [2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16, 3 * 2**16 + 17]
    ),
    density=densities,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=30, deadline=None)
def test_container_boundary_roundtrip_all_codecs(length, density, seed):
    """Lengths at/around the 2^16 container boundary roundtrip everywhere."""
    vector, _ = random_pair(length, density, density, seed)
    for name in CODEC_NAMES:
        codec = get_codec(name)
        assert codec.decode(codec.encode(vector), length) == vector
