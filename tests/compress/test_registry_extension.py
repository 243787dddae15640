"""A codec registered at runtime flows through every dispatch layer.

:func:`register_codec` + :func:`register_stream` must be *all* a new
codec needs for stats tables, blockwise decode and the query engine to
pick it up.  A fake codec (trivial raw clone under a new name) proves
it end to end.
"""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import (
    Codec,
    available_codecs,
    get_codec,
    measure_all_codecs,
    open_stream,
    register_codec,
    register_stream,
)
from repro.compress.base import _REGISTRY
from repro.compress.streams import _STREAMS, RawStream
from repro.errors import CodecError


class FakeCodec(Codec):
    """Raw words under a different registry name."""

    name = "fake64"

    def _encode(self, vector):
        return vector.to_bytes()

    def _decode(self, payload, length):
        return BitVector.from_bytes(length, payload)


@pytest.fixture
def fake_codec():
    codec = register_codec(FakeCodec())
    register_stream("fake64", RawStream)
    try:
        yield codec
    finally:
        del _REGISTRY["fake64"]
        del _STREAMS["fake64"]


def test_measure_all_codecs_includes_registered_codec(fake_codec, rng):
    vectors = [
        BitVector.from_bools(rng.random(500) < d) for d in (0.01, 0.5)
    ]
    stats = measure_all_codecs(vectors)
    assert "fake64" in stats
    assert list(stats) == available_codecs()
    assert stats["fake64"].encoded_bytes == stats["raw"].encoded_bytes


def test_open_stream_and_blockwise_decode_dispatch_registered_codec(
    fake_codec, rng
):
    length = 5000
    vector = BitVector.from_bools(rng.random(length) < 0.5)
    payload = fake_codec.encode(vector)
    stream = open_stream("fake64", payload, length)
    assert BitVector(length, stream.block(0, stream.num_words).copy()) == vector
    assert fake_codec.decode_blockwise(payload, length, block_words=7) == vector


def test_query_engine_accepts_registered_codec(fake_codec, rng):
    from repro.index import BitmapIndex, IndexSpec
    from repro.queries import IntervalQuery

    values = rng.integers(0, 12, size=400)
    index = BitmapIndex.build(
        values, IndexSpec(cardinality=12, scheme="E", codec="fake64")
    )
    query = IntervalQuery(2, 9, 12)
    want = np.flatnonzero((values >= 2) & (values <= 9))
    got = index.engine().execute(query).bitmap.to_indices()
    assert np.array_equal(got, want)


def test_unregistered_name_still_rejected():
    with pytest.raises(CodecError):
        get_codec("fake64")
    with pytest.raises(CodecError):
        open_stream("fake64", b"", 0)
