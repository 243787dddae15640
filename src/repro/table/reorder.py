"""Build-time row reordering (extension).

Bitmap codecs are run-length compressors, so the order rows arrive in
is a compression knob: sorting the relation lexicographically turns
each value's scattered occurrences into contiguous runs, which
word-aligned codecs (BBC/WAH/EWAH) collapse into a handful of fill
words and roaring collapses into run containers.  Kaser & Lemire
("Histogram-Aware Sorting for Enhanced Word-Aligned Compression in
Bitmap Indexes") and Lemire, Kaser & Aouiche ("Sorting improves
word-aligned bitmap indexes") show integer-factor size reductions and
proportionally faster compressed-domain operations from exactly this
preprocessing pass.

This module provides that pass:

* :func:`choose_column_order` picks the histogram-aware sort-key order
  — lowest cardinality first, most skewed first among ties — so the
  leading sort keys produce the longest runs across *every* column;
* :func:`reorder_rows` sorts a set of columns by that key order and
  returns the reordered columns plus a :class:`RowReordering`;
* :class:`RowReordering` is the stored permutation: it maps positions
  in the sorted layout back to original record ids, so query answers
  computed in sorted space are translated at the result boundary and
  clients never see reordered ids.  Appended rows land *past* the
  sorted prefix as identity entries (:meth:`RowReordering.extend`), so
  tail-append paths (segments, shards) keep working unchanged.

Everything between build and result mapping — decode, fused
evaluation, thresholds, serving — operates purely in sorted
space and needs no knowledge of the permutation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.bitmap import BitVector
from repro.errors import ReproError

#: Reordering strategies accepted by specs, configs and the CLI.
REORDER_STRATEGIES = ("none", "lexicographic")


def validate_strategy(strategy: str) -> str:
    """``strategy``, or raise for values outside :data:`REORDER_STRATEGIES`."""
    if strategy not in REORDER_STRATEGIES:
        raise ReproError(
            f"unknown reorder strategy {strategy!r}; "
            f"expected one of {REORDER_STRATEGIES}"
        )
    return strategy


class RowReordering:
    """A stored row permutation mapping sorted positions to original ids.

    ``permutation[p]`` is the original record id of the row stored at
    position ``p``; the array is a permutation of ``0..len-1``.
    ``num_sorted`` is the length of the sorted prefix — rows appended
    after the build sit past it in arrival order (identity entries), so
    the permutation stays a bijection without re-sorting the index.
    """

    __slots__ = ("permutation", "num_sorted", "strategy", "_identity")

    def __init__(
        self,
        permutation: np.ndarray,
        num_sorted: int | None = None,
        strategy: str = "lexicographic",
    ):
        perm = np.ascontiguousarray(permutation, dtype=np.int64)
        if perm.ndim != 1:
            raise ReproError(
                f"permutation must be 1-d, got ndim={perm.ndim}"
            )
        self.permutation = perm
        self.num_sorted = perm.size if num_sorted is None else int(num_sorted)
        if not 0 <= self.num_sorted <= perm.size:
            raise ReproError(
                f"sorted prefix {self.num_sorted} outside "
                f"[0, {perm.size}]"
            )
        self.strategy = strategy
        self._identity: bool | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, size: int, strategy: str = "none") -> "RowReordering":
        """The do-nothing reordering over ``size`` rows."""
        return cls(np.arange(size, dtype=np.int64), size, strategy)

    @classmethod
    def from_sort(
        cls, values: np.ndarray, strategy: str = "lexicographic"
    ) -> "RowReordering":
        """Stable ascending sort of one column (its lexicographic order)."""
        vals = np.asarray(values)
        return cls(
            np.argsort(vals, kind="stable").astype(np.int64),
            vals.size,
            strategy,
        )

    @classmethod
    def validated(
        cls,
        permutation: np.ndarray,
        num_sorted: int,
        strategy: str,
        expected_size: int,
    ) -> "RowReordering":
        """Construct from untrusted input (the persistence loader).

        Checks the array is a true permutation of ``0..expected_size-1``
        — a corrupt or truncated permutation would silently misattribute
        every query answer, which is worse than failing the load.
        """
        perm = np.ascontiguousarray(permutation, dtype=np.int64)
        if perm.size != expected_size:
            raise ReproError(
                f"permutation has {perm.size} entries, index has "
                f"{expected_size} records"
            )
        if perm.size and not np.array_equal(
            np.sort(perm), np.arange(perm.size, dtype=np.int64)
        ):
            raise ReproError(
                "permutation is not a bijection over "
                f"[0, {perm.size}): duplicate or out-of-range entries"
            )
        return cls(perm, num_sorted, strategy)

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of rows covered."""
        return self.permutation.size

    @property
    def is_identity(self) -> bool:
        """True when mapping through this reordering is a no-op.

        Computed once and cached — :meth:`extend` appends identity
        entries, which never changes the answer, so the cache survives
        appends.
        """
        if self._identity is None:
            self._identity = bool(
                np.array_equal(
                    self.permutation,
                    np.arange(self.permutation.size, dtype=np.int64),
                )
            )
        return self._identity

    def copy(self) -> "RowReordering":
        """An independent copy (indexes mutate theirs on append)."""
        return RowReordering(
            self.permutation.copy(), self.num_sorted, self.strategy
        )

    # ------------------------------------------------------------------
    # The two directions
    # ------------------------------------------------------------------

    def apply(self, values: np.ndarray) -> np.ndarray:
        """A column in sorted row order (what indexes are built over)."""
        vals = np.asarray(values)
        if vals.shape[0] != self.permutation.size:
            raise ReproError(
                f"column has {vals.shape[0]} rows, permutation covers "
                f"{self.permutation.size}"
            )
        return vals[self.permutation]

    def to_original(self, row_ids: np.ndarray) -> np.ndarray:
        """Sorted original record ids for sorted-space ``row_ids``."""
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.size and (
            ids.min() < 0 or ids.max() >= self.permutation.size
        ):
            raise ReproError(
                f"row ids outside [0, {self.permutation.size})"
            )
        out = self.permutation[ids]
        out.sort()
        return out

    def restore_bitmap(self, bitmap: BitVector) -> BitVector:
        """An answer bitmap translated from sorted to original row order.

        Bit ``permutation[p]`` of the result equals bit ``p`` of the
        input — one vectorized scatter, the only per-query cost of the
        whole reordering scheme.
        """
        if len(bitmap) != self.permutation.size:
            raise ReproError(
                f"bitmap length {len(bitmap)} does not match permutation "
                f"size {self.permutation.size}"
            )
        original = np.zeros(self.permutation.size, dtype=bool)
        original[self.permutation] = bitmap.to_bools()
        return BitVector.from_bools(original)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def extend(self, count: int) -> None:
        """Track ``count`` rows appended past the sorted prefix.

        Appended rows keep their arrival positions (identity entries),
        so only the prefix built at sort time is sorted; ``num_sorted``
        is unchanged and records where the sorted run ends.
        """
        if count < 0:
            raise ReproError(f"append count must be >= 0, got {count}")
        if count == 0:
            return
        start = self.permutation.size
        self.permutation = np.concatenate(
            [
                self.permutation,
                np.arange(start, start + count, dtype=np.int64),
            ]
        )

    def __repr__(self) -> str:
        return (
            f"RowReordering({self.strategy!r}, rows={self.size}, "
            f"sorted={self.num_sorted})"
        )


# ---------------------------------------------------------------------------
# Histogram-aware column ordering
# ---------------------------------------------------------------------------


def _histogram_stats(values: np.ndarray) -> tuple[int, float]:
    """(distinct count, normalized entropy) of one column's histogram.

    Entropy is normalized to ``[0, 1]`` (0 = all mass on one value,
    1 = uniform over the distinct values), so it compares columns of
    different cardinalities; lower entropy = more skewed.
    """
    vals = np.asarray(values)
    if vals.size == 0:
        return 0, 0.0
    _, counts = np.unique(vals, return_counts=True)
    distinct = int(counts.size)
    if distinct <= 1:
        return distinct, 0.0
    p = counts / counts.sum()
    entropy = float(-(p * np.log(p)).sum() / np.log(distinct))
    return distinct, entropy


def choose_column_order(
    columns: Mapping[str, np.ndarray]
) -> list[str]:
    """Histogram-aware sort-key order over ``columns``.

    Lowest distinct count first — a low-cardinality leading key gives
    *every* column long runs within each of its few groups — with ties
    broken toward the more skewed histogram (lower normalized entropy:
    skew concentrates rows into fewer, longer runs), then column name
    for determinism.  This is the Kaser & Lemire heuristic.
    """
    stats = {
        name: _histogram_stats(col) for name, col in columns.items()
    }
    return sorted(
        columns,
        key=lambda name: (stats[name][0], stats[name][1], name),
    )


def lexicographic_permutation(
    columns: Mapping[str, np.ndarray], order: Sequence[str]
) -> np.ndarray:
    """Stable lexicographic sort permutation with ``order[0]`` primary."""
    if not order:
        raise ReproError("lexicographic sort needs at least one column")
    keys = [np.asarray(columns[name]) for name in reversed(list(order))]
    sizes = {key.shape[0] for key in keys}
    if len(sizes) > 1:
        raise ReproError(f"column lengths differ: {sorted(sizes)}")
    return np.lexsort(keys).astype(np.int64)


def reorder_rows(
    columns: Mapping[str, np.ndarray],
    strategy: str = "lexicographic",
    order: Sequence[str] | None = None,
) -> tuple[dict[str, np.ndarray], RowReordering]:
    """Sort a set of columns into their compression-friendly row order.

    Returns ``(reordered columns, reordering)``; with
    ``strategy="none"`` the columns come back unchanged under an
    identity reordering.  ``order`` overrides the histogram-aware
    column ordering (primary key first) when given.
    """
    validate_strategy(strategy)
    names = list(columns)
    if strategy == "none" or not names:
        size = np.asarray(columns[names[0]]).shape[0] if names else 0
        return dict(columns), RowReordering.identity(size, strategy)
    if order is None:
        order = choose_column_order(columns)
    else:
        missing = [name for name in order if name not in columns]
        if missing:
            raise ReproError(f"order names unknown columns: {missing}")
    permutation = lexicographic_permutation(columns, order)
    reordering = RowReordering(permutation, permutation.size, strategy)
    reordered = {
        name: np.asarray(col)[permutation] for name, col in columns.items()
    }
    return reordered, reordering
