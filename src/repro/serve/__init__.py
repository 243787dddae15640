"""Concurrent query serving over bitmap indexes (extension).

The paper evaluates one query at a time; a deployment answers many
selection queries concurrently over shared bitmaps.  This package is
the in-process serving layer that closes that gap:

* :class:`~repro.serve.service.QueryService` — bounded queue, worker
  pool, per-request deadlines, typed load shedding
  (:class:`~repro.errors.Overloaded` /
  :class:`~repro.errors.DeadlineExceeded`);
* :mod:`~repro.serve.batcher` — shared-scan batching: one buffer-pool
  pass over the union of a batch's bitmaps serves every query in the
  batch;
* :mod:`~repro.serve.cache` — result cache keyed by ``(index epoch,
  canonical expression)``, invalidated when an append bumps the epoch;
* :mod:`~repro.serve.driver` — closed- and open-loop workload replay
  with throughput and p50/p95/p99 latency reporting from
  :mod:`repro.obs` histograms;
* :mod:`~repro.serve.sharded` — the multi-process tier:
  :class:`~repro.serve.sharded.ShardedQueryService` partitions rows
  into shards (one :class:`~repro.serve.shard_worker.ShardEngine` per
  shard, inline or behind a :class:`~repro.parallel.ProcessWorker`),
  scatter-gathers queries, routes appends to the tail shard, and
  splits shards online.

See ``docs/serving.md`` for the architecture and the ``serve.*``
metric catalog; ``repro serve-bench`` is the CLI entry point.
"""

from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    ServeError,
    ServiceClosed,
    ShardFailed,
)
from repro.serve.batcher import plan_batches, sharing_groups
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.driver import (
    DriverReport,
    paper_mix,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.service import (
    QueryService,
    ServeResult,
    ServiceConfig,
    ServiceStats,
    Ticket,
)
from repro.serve.shard_worker import ShardAnswer, ShardEngine
from repro.serve.sharded import (
    TRANSPORTS,
    ShardAppend,
    ShardSplit,
    ShardedConfig,
    ShardedQueryService,
    ShardedResult,
    ShardedStats,
)

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServiceStats",
    "ServeResult",
    "Ticket",
    "ShardedQueryService",
    "ShardedConfig",
    "ShardedResult",
    "ShardedStats",
    "ShardAppend",
    "ShardSplit",
    "ShardAnswer",
    "ShardEngine",
    "TRANSPORTS",
    "ShardFailed",
    "ResultCache",
    "CacheStats",
    "plan_batches",
    "sharing_groups",
    "DriverReport",
    "paper_mix",
    "run_closed_loop",
    "run_open_loop",
    "ServeError",
    "Overloaded",
    "DeadlineExceeded",
    "ServiceClosed",
]
