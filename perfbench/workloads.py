"""The benchmark's four workloads, their closed-loop clients and the
answer check.

Every input comes from the ``--seed``: a Zipf (z = 1) column over
C = 200 values (``repro.workload.zipf_column``), the paper's
membership-query mix (``repro.serve.driver.paper_mix``) and, where rows
are appended, 2,000-row Zipf batches.  Ranks map to values through one
fixed random permutation (``VALUE_OF_RANK``), so the hot values do not
move between seeds; seeds vary the rows and the queries.  The program
sees only those generated inputs and is driven only through its public
entry points.

Clients time every call with ``perf_counter`` around the call itself.
Each answer is reduced to a digest (bit length, CRC-32 of its words)
outside that timing; after the timed phase every digest is compared
with a naive scan (:class:`NaiveScan`) of the generated rows the answer
reflects.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
import threading
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.errors import ReproError
from repro.index import persist
from repro.index.bitmap_index import BitmapIndex, IndexSpec
from repro.index.segmented import SegmentedBitmapIndex
from repro.queries.model import MembershipQuery
from repro.serve import QueryService, ShardedConfig, ShardedQueryService
from repro.serve.driver import paper_mix
from repro.workload import zipf_column, zipf_probabilities

CARDINALITY = 200
SKEW = 1.0
#: Distinct queries in a run's stream (a power of two); clients cycle
#: through them.
DISTINCT_QUERIES = 2048
APPEND_ROWS = 2000
#: Value given to each Zipf rank (rank 0 most frequent).  A per-seed
#: permutation would move the hottest values in and out of the query
#: ranges and swing mean query cost by a quarter between seeds.
VALUE_OF_RANK = np.random.default_rng(1999).permutation(CARDINALITY)
#: Appends timed after the query phase by workloads that do not append
#: while serving, so every workload reports append latency.
APPEND_PROBES = 7


def no_trace(name, kind, rid=None):
    """Span factory of untraced runs."""
    return nullcontext()


def derive_seed(seed: int, *parts: int) -> int:
    """Independent sub-seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


@functools.cache
def query_stream(seed: int) -> tuple[MembershipQuery, ...]:
    """``DISTINCT_QUERIES`` distinct paper-mix membership queries.

    The queries are sorted by expected selectivity and then taken in
    bit-reversed rank order, so every prefix of the stream samples the
    whole selectivity range evenly: a run that gets through only part of
    the stream still sees the same mix of cheap and costly queries as
    any other seed.
    """
    share = np.empty(CARDINALITY)
    share[VALUE_OF_RANK] = zipf_probabilities(CARDINALITY, SKEW)
    mix = paper_mix(CARDINALITY, 2 * DISTINCT_QUERIES, seed=derive_seed(seed, 1))
    queries = list(dict.fromkeys(mix))[:DISTINCT_QUERIES]
    queries.sort(key=lambda q: (share[sorted(q.values)].sum(), sorted(q.values)))
    bits = DISTINCT_QUERIES.bit_length() - 1
    rank = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(DISTINCT_QUERIES)]
    return tuple(queries[r] for r in rank)


def zipf_rows(count: int, seed: int) -> np.ndarray:
    ranks = zipf_column(count, CARDINALITY, SKEW, seed=seed, decorrelate=False)
    return VALUE_OF_RANK[ranks]


def warm_queries() -> list[MembershipQuery]:
    """40 queries whose equality constituents touch every value."""
    return [
        MembershipQuery.of(range(v, CARDINALITY, 40), CARDINALITY)
        for v in range(40)
    ]


def digest(bitmap) -> tuple[int, int]:
    return len(bitmap), zlib.crc32(bitmap.words)


class NaiveScan:
    """Exact answers computed from the generated rows alone.

    One packed row mask per value (``rows == v``, as 64-bit
    little-endian words like the program's bitmaps); a membership
    answer over any row prefix is the OR of its values' masks, the
    same set ``np.isin(rows, values)`` selects.
    """

    def __init__(self, rows: np.ndarray):
        words = -(-rows.size // 64)
        self.masks = np.zeros((CARDINALITY, words * 8), dtype=np.uint8)
        for value in range(CARDINALITY):
            packed = np.packbits(rows == value, bitorder="little")
            self.masks[value, : packed.size] = packed
        self.masks = self.masks.view(np.uint64)

    def digest(self, query: MembershipQuery, count: int) -> tuple[int, int]:
        """Digest of the answer over the first ``count`` rows."""
        words = np.bitwise_or.reduce(
            self.masks[sorted(query.values), : -(-count // 64)], axis=0
        )
        if count % 64:
            words[-1] &= np.uint64((1 << (count % 64)) - 1)
        return count, zlib.crc32(words)


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies_ms: list[float] = field(default_factory=list)
    #: (query index, rows the answer reflects, answer digest).
    answers: list[tuple] = field(default_factory=list)
    append_ms: list[float] = field(default_factory=list)
    simulated_ms: float = 0.0
    errors: int = 0
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms) + len(self.append_ms) + self.errors

    @property
    def qps(self) -> float:
        return len(self.latencies_ms) / self.elapsed_s


class ClosedLoop:
    """Closed-loop client threads recording into one phase."""

    def __init__(self, seconds: float, span):
        self.span = span
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.deadline = perf_counter() + seconds
        self.issued = 0
        self.completed = 0
        self.phase = Phase()

    def call(self, execute, queries, pick, reflects) -> float:
        """Issue the next query of the stream and record it; returns the
        completion time.  ``pick(i)`` maps the i-th request to a query
        index, ``reflects(result)`` to what its answer reflects."""
        with self.lock:
            number = self.issued
            self.issued += 1
        index = pick(number)
        with self.span("bench.query", "q", number):
            t0 = perf_counter()
            try:
                result = execute(queries[index])
            except ReproError:
                result = None
            t1 = perf_counter()
        answer = None if result is None else (index, reflects(result), digest(result.bitmap))
        phase = self.phase
        with self.lock:
            self.completed += 1
            if answer is None:
                phase.errors += 1
            else:
                phase.latencies_ms.append((t1 - t0) * 1e3)
                phase.simulated_ms += result.simulated_ms
                phase.answers.append(answer)
        return t1

    def run(self, client, clients: int) -> Phase:
        """Run ``client(number)`` on ``clients`` threads; a client that
        raises stops the others and the error is re-raised here."""
        failures = []

        def guarded(number):
            try:
                client(number)
            except BaseException as exc:
                failures.append(exc)
                self.stop.set()

        start = perf_counter()
        threads = [
            threading.Thread(target=guarded, args=(n,)) for n in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        self.phase.elapsed_s = perf_counter() - start
        return self.phase


class Workload:
    """One named workload: set-up, timed phase, append probe, check."""

    name = ""
    rows = 0
    #: True where requests wait in a QueryService queue (``serve.wait_ms``).
    queued = False

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.queries = query_stream(seed)
        #: Rows appended so far, in order, after the generated column.
        self.batches: list[np.ndarray] = []
        self.column = np.empty(0, dtype=np.int64)

    # -- to implement -------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, span=no_trace) -> Phase:
        raise NotImplementedError

    def append(self, values: np.ndarray) -> None:
        raise NotImplementedError

    def query(self, query: MembershipQuery):
        raise NotImplementedError

    def index_bytes(self) -> int:
        raise NotImplementedError

    def counters(self) -> dict:
        return {}

    def worker_pids(self) -> list[int]:
        return []

    def segments_per_shard(self) -> float:
        return 0.0

    def close(self) -> None:
        pass

    # -- shared -------------------------------------------------------------

    def generate(self) -> None:
        self.column = zipf_rows(self.rows, derive_seed(self.seed, 0))
        self.batches = []

    def batch(self, number: int) -> np.ndarray:
        return zipf_rows(APPEND_ROWS, derive_seed(self.seed, 2, number))

    def all_rows(self) -> np.ndarray:
        return np.concatenate([self.column, *self.batches])

    def probe_appends(self, span=no_trace) -> Phase:
        """Time ``APPEND_PROBES`` appends, then answer one query over the
        grown rows (checked like any other answer)."""
        probe = Phase()
        for number in range(APPEND_PROBES):
            values = self.batch(number)
            with span("bench.append", "a", number):
                start = perf_counter()
                self.append(values)
                probe.append_ms.append((perf_counter() - start) * 1e3)
            self.batches.append(values)
        with span("bench.query", "check"):
            start = perf_counter()
            result = self.query(self.queries[0])
            probe.latencies_ms.append((perf_counter() - start) * 1e3)
        probe.answers.append((0, self.all_rows().size, digest(result.bitmap)))
        return probe

    def check(self, phase: Phase) -> int:
        """Wrong answers in ``phase`` (each compared with a naive scan)."""
        scan = NaiveScan(self.all_rows())
        naive: dict[tuple, tuple] = {}
        wrong = 0
        for index, count, got in phase.answers:
            key = (index, count)
            if key not in naive:
                naive[key] = scan.digest(self.queries[index], count)
            wrong += got != naive[key]
        return wrong

    def _cycle(self, execute, seconds: float, span, clients: int) -> Phase:
        """``clients`` closed-loop threads cycling through the stream."""
        loop = ClosedLoop(seconds, span)
        count = len(self.queries)

        def pick(i):
            return i % count

        def reflects(result):
            return self.rows

        def client(number):
            while not loop.stop.is_set():
                if loop.call(execute, self.queries, pick, reflects) >= loop.deadline:
                    break

        return loop.run(client, clients)


class _EngineWorkload(Workload):
    """One client calling ``BitmapIndex.engine(...).execute``."""

    def run(self, seconds, span=no_trace) -> Phase:
        return self._cycle(self.engine.execute, seconds, span, clients=1)

    def append(self, values):
        self.index.append(values)

    def query(self, query):
        return self.engine.execute(query)

    def index_bytes(self) -> int:
        return self.index.size_bytes()

    def counters(self) -> dict:
        stats = self.engine.buffer_stats
        return {
            "pool_hits": stats.hits,
            "pool_misses": stats.misses,
            "pool_evictions": stats.evictions,
        }


class ZipfEBbcCold(_EngineWorkload):
    name = "zipf-e-bbc-cold"
    rows = 300_000

    def setup(self) -> None:
        self.generate()
        index = BitmapIndex.build(
            self.column, IndexSpec(CARDINALITY, scheme="E", codec="bbc")
        )
        self.directory = tempfile.mkdtemp(dir=self.work_dir)
        persist.save_index(index, self.directory)
        self.index = persist.load_index(self.directory, mapped=True)
        #: Appends go to the in-memory index: through the mapped store
        #: every append also fsyncs each of the 200 bitmap files, and
        #: shared-disk fsync latency swamped the encode cost (run-to-run
        #: spread above 50%).
        self.writable = index
        decoded_bytes = -(-self.rows // 64) * 8
        pages_per_bitmap = -(-decoded_bytes // self.index.store.page_size)
        decoded_pages = pages_per_bitmap * self.index.num_bitmaps()
        self.engine = self.index.engine(buffer_pages=max(1, decoded_pages // 10))
        for query in warm_queries():
            self.engine.execute(query)

    def append(self, values):
        self.writable.append(values)

    def query(self, query):
        return self.writable.query(query)

    def close(self) -> None:
        self.index.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class ZipfIReorderWarm(_EngineWorkload):
    name = "zipf-i-reorder-warm"
    rows = 1_000_000

    def setup(self) -> None:
        self.generate()
        self.index = BitmapIndex.build(
            self.column,
            IndexSpec(CARDINALITY, scheme="I", codec="auto", reorder="lexicographic"),
        )
        self.engine = self.index.engine()
        for query in warm_queries():
            self.engine.execute(query)


class ServeMixed(Workload):
    name = "serve-mixed"
    rows = 250_000
    queued = True
    #: Share of requests drawn from a small hot set (result-cache hits).
    HOT_SHARE = 0.3
    HOT_QUERIES = 4
    APPEND_EVERY = 100

    def setup(self) -> None:
        self.generate()
        rng = np.random.default_rng(derive_seed(self.seed, 3))
        hot = rng.random(1 << 16) < self.HOT_SHARE
        picks = rng.integers(0, self.HOT_QUERIES, size=hot.size)
        cold = self.HOT_QUERIES + np.arange(hot.size) % (
            DISTINCT_QUERIES - self.HOT_QUERIES
        )
        self.stream = np.where(hot, picks, cold)
        index = BitmapIndex.build(
            self.column, IndexSpec(CARDINALITY, scheme="E", codec="auto")
        )
        self.service = QueryService(index)
        for query in warm_queries():
            self.service.execute(query)
        self.rows_at = {index.epoch: self.rows}

    def run(self, seconds, span=no_trace) -> Phase:
        """Client 0 appends after every ``APPEND_EVERY`` completed queries;
        once time is up the phase ends at the next append, so every run
        holds whole read/append cycles."""
        loop = ClosedLoop(seconds, span)
        stream = self.stream

        def pick(i):
            return int(stream[i % stream.size])

        def reflects(result):
            return result.epoch

        def client(number):
            next_append = self.APPEND_EVERY
            while not loop.stop.is_set():
                loop.call(self.service.execute, self.queries, pick, reflects)
                if number == 0 and loop.completed >= next_append:
                    next_append = loop.completed + self.APPEND_EVERY
                    self._append_timed(loop.phase, span)
                    if perf_counter() >= loop.deadline:
                        loop.stop.set()

        phase = loop.run(client, clients=2)
        # Answers carry the epoch they reflect; map it to a row count.
        phase.answers = [
            (index, self.rows_at[epoch], got) for index, epoch, got in phase.answers
        ]
        return phase

    def _append_timed(self, phase: Phase, span) -> None:
        number = len(self.batches)
        values = self.batch(number)
        with span("bench.append", "a", number):
            start = perf_counter()
            self.service.append(values)
            elapsed = (perf_counter() - start) * 1e3
        self.batches.append(values)
        self.rows_at[self.service.index.epoch] = self.all_rows().size
        phase.append_ms.append(elapsed)

    def probe_appends(self, span=no_trace) -> Phase:
        return Phase()  # this workload appends while it serves

    def query(self, query):
        return self.service.execute(query)

    def index_bytes(self) -> int:
        return self.service.index.size_bytes()

    def counters(self) -> dict:
        return self.service.metrics_snapshot()

    def close(self) -> None:
        self.service.close()


class ShardedClosed(Workload):
    name = "sharded-closed"
    rows = 100_000
    SPEC = IndexSpec(CARDINALITY, scheme="E", codec="auto")

    def setup(self) -> None:
        self.generate()
        self.service = ShardedQueryService(
            self.column, self.SPEC, ShardedConfig(shards=2, transport="process")
        )
        for query in warm_queries():
            self.service.execute(query)

    def run(self, seconds, span=no_trace) -> Phase:
        return self._cycle(self.service.execute, seconds, span, clients=2)

    def append(self, values):
        self.service.append(values)

    def query(self, query):
        return self.service.execute(query)

    def index_bytes(self) -> int:
        """Payload bytes of the shards' segmented indexes.

        The shards live in worker processes, so the same row ranges are
        indexed again here with the service's segment size.
        """
        total = 0
        start = 0
        for shard in self.service.shard_info():
            rows = self.column[start : start + shard["num_records"]]
            start += shard["num_records"]
            index = SegmentedBitmapIndex(self.SPEC, self.service.config.segment_size)
            index.append(rows)
            total += index.size_bytes()
        return total

    def segments_per_shard(self) -> float:
        size = self.service.config.segment_size
        info = self.service.shard_info()
        return sum(-(-s["num_records"] // size) for s in info) / len(info)

    def counters(self) -> dict:
        return self.service.metrics_snapshot()

    def worker_pids(self) -> list[int]:
        return [s["pid"] for s in self.service.shard_info() if s["pid"]]

    def close(self) -> None:
        self.service.close()


WORKLOADS = {
    cls.name: cls
    for cls in (ZipfEBbcCold, ZipfIReorderWarm, ServeMixed, ShardedClosed)
}
