"""Horizontally segmented bitmap indexes (extension).

Production bitmap indexes partition the relation into fixed-size
horizontal segments with an independent index per segment: appends only
touch the tail segment (no decode/re-encode of old bitmaps, unlike
:meth:`~repro.index.BitmapIndex.append`), segments can be evaluated
independently (parallelism, per-segment pruning), and per-segment
answers concatenate into the global answer because record ids are
segment-local offsets.

:class:`SegmentedBitmapIndex` mirrors the :class:`~repro.index.BitmapIndex`
query surface; every segment shares the same
:class:`~repro.index.IndexSpec`.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector, concatenate
from repro.errors import EncodingSchemeError, QueryError, ReproError
from repro.expr import EvalStats
from repro.index.bitmap_index import BitmapIndex, IndexSpec, UpdateReport
from repro.index.evaluation import EvaluationResult
from repro.queries.model import IntervalQuery, MembershipQuery

Query = IntervalQuery | MembershipQuery


class SegmentedBitmapIndex:
    """A bitmap index split into fixed-size horizontal segments."""

    def __init__(self, spec: IndexSpec, segment_size: int):
        if segment_size < 1:
            raise ReproError(
                f"segment size must be >= 1, got {segment_size}"
            )
        self.spec = spec
        self.segment_size = segment_size
        self._segments: list[BitmapIndex] = []
        #: Monotonic update counter: bumped by every :meth:`append`
        #: (mirrors :attr:`repro.index.BitmapIndex.epoch`).
        self.epoch = 0

    @classmethod
    def build(
        cls,
        values: np.ndarray,
        spec: IndexSpec,
        segment_size: int = 65_536,
    ) -> "SegmentedBitmapIndex":
        """Build from a column, splitting into ``segment_size`` chunks."""
        index = cls(spec, segment_size)
        index.append(values)
        return index

    # ------------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        """Number of segments currently materialized."""
        return len(self._segments)

    @property
    def num_records(self) -> int:
        """Total records across segments."""
        return sum(segment.num_records for segment in self._segments)

    @property
    def cardinality(self) -> int:
        """Attribute cardinality C."""
        return self.spec.cardinality

    def segments(self) -> list[BitmapIndex]:
        """The per-segment indexes, in record order."""
        return list(self._segments)

    def size_bytes(self) -> int:
        """Total stored size across segments."""
        return sum(segment.size_bytes() for segment in self._segments)

    def num_bitmaps(self) -> int:
        """Total stored bitmaps across segments."""
        return sum(segment.num_bitmaps() for segment in self._segments)

    # ------------------------------------------------------------------

    def append(self, values: np.ndarray) -> UpdateReport:
        """Append records, filling the tail segment before opening new ones.

        Only the tail segment's bitmaps are ever rewritten; sealed
        segments are immutable — the property that makes segmented
        layouts append-friendly.  An empty batch changes nothing and
        must not bump the epoch (a bump would sweep every serving
        result cache keyed on it for no reason).
        """
        vals = np.asarray(values)
        if vals.size == 0:
            return UpdateReport(
                records_appended=0, bitmaps_extended=0, bitmaps_touched=0
            )
        if vals.min() < 0 or vals.max() >= self.cardinality:
            raise EncodingSchemeError(
                f"batch values outside domain [0, {self.cardinality})"
            )
        touched = 0
        extended = 0
        offset = 0
        while offset < vals.size:
            if (
                self._segments
                and self._segments[-1].num_records < self.segment_size
            ):
                tail = self._segments[-1]
                room = self.segment_size - tail.num_records
                chunk = vals[offset : offset + room]
                report = tail.append(chunk)
                touched += report.bitmaps_touched
                extended += report.bitmaps_extended
            else:
                chunk = vals[offset : offset + self.segment_size]
                segment = BitmapIndex.build(chunk, self.spec)
                self._segments.append(segment)
                touched += sum(
                    1
                    for key in segment.store.keys()
                    if segment.store.get(key).any()
                )
                extended += segment.num_bitmaps()
            offset += len(chunk)
        self.epoch += 1
        return UpdateReport(
            records_appended=int(vals.size),
            bitmaps_extended=extended,
            bitmaps_touched=touched,
        )

    # ------------------------------------------------------------------

    def split_at(
        self, row: int
    ) -> tuple["SegmentedBitmapIndex", "SegmentedBitmapIndex"]:
        """Split into two indexes at a *segment-boundary* row.

        Returns ``(left, right)`` where ``left`` holds rows
        ``[0, row)`` and ``right`` holds rows ``[row, num_records)``.
        Sealed segments are shared by reference — no bitmap is decoded
        or re-encoded, which is what makes shard splits cheap — so
        ``row`` must fall on a segment boundary (``k * segment_size``
        within range).  Callers that need an arbitrary split point
        rebuild from rows instead.

        Both halves start at epoch 0 (they are new indexes with new
        update histories); ``self`` is not mutated and must simply be
        discarded by callers that treat the split as a move.
        """
        if row < 0 or row > self.num_records:
            raise ReproError(
                f"split row {row} outside [0, {self.num_records}]"
            )
        if row % self.segment_size:
            raise ReproError(
                f"split row {row} is not a multiple of the segment "
                f"size {self.segment_size}; rebuild from rows for "
                f"arbitrary split points"
            )
        boundary = row // self.segment_size
        left = SegmentedBitmapIndex(self.spec, self.segment_size)
        left._segments = self._segments[:boundary]
        right = SegmentedBitmapIndex(self.spec, self.segment_size)
        right._segments = self._segments[boundary:]
        return left, right

    # ------------------------------------------------------------------

    def query(self, query: Query, **engine_kwargs) -> EvaluationResult:
        """Evaluate over every segment and concatenate the answers.

        Keyword arguments (``strategy``, ``block_words``, ...)
        configure each segment's throwaway engine.
        """
        if isinstance(query, (IntervalQuery, MembershipQuery)):
            if query.cardinality != self.cardinality:
                raise QueryError(
                    f"query domain C={query.cardinality} does not match "
                    f"index domain C={self.cardinality}"
                )
        else:
            raise QueryError(f"unsupported query type {type(query).__name__}")

        stats = EvalStats()
        simulated = 0.0
        pieces: list[BitVector] = []
        for segment in self._segments:
            result = segment.query(query, **engine_kwargs)
            stats.merge(result.stats)
            simulated += result.simulated_ms
            pieces.append(result.bitmap)
        bitmap = (
            concatenate(pieces) if pieces else BitVector.zeros(0)
        )
        return EvaluationResult(
            bitmap=bitmap,
            stats=stats,
            simulated_ms=simulated,
            strategy="segmented",
        )

    def __repr__(self) -> str:
        return (
            f"SegmentedBitmapIndex({self.spec.label}, "
            f"segments={self.num_segments} x {self.segment_size}, "
            f"N={self.num_records})"
        )
