"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``   write a synthetic Zipf column to a ``.npy`` file
``build``      build a bitmap index over a column and save it to a directory
``info``       print a saved index's layout and space statistics
``query``      run an interval, membership, or k-of-N threshold query
``append``     append a batch of records from a column file to a saved index
``verify-index``  check a saved index for corruption (checksums, lengths)
``experiment`` regenerate one of the paper's tables/figures
``advise``     sweep the design space for a column and recommend a design
``serve-bench``  drive the concurrent serving layer and compare
               shared-scan batching against serial execution; with
               ``--shards N`` it drives the sharded multi-process tier
               (scatter-gather routing, ``--transport inline|process``)

Every command is deterministic given its ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import obs
from repro.encoding import ALL_SCHEME_NAMES
from repro.errors import QueryError, ReproError
from repro.index import BitmapIndex, IndexSpec
from repro.index.persist import load_index, save_index, validate_index
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.table.reorder import REORDER_STRATEGIES
from repro.workload import zipf_column


def _workers_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = one per CPU), got {value}"
        )
    return value


def _load_column(path: str) -> np.ndarray:
    """Load an integer column from .npy or a one-value-per-line text file."""
    file = Path(path)
    if not file.exists():
        raise ReproError(f"column file not found: {path}")
    if file.suffix == ".npy":
        return np.load(file)
    return np.loadtxt(file, dtype=np.int64, ndmin=1)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.generator == "markov":
        from repro.workload import markov_column

        values = markov_column(
            args.num_records,
            args.cardinality,
            clustering_factor=args.clustering,
            skew=args.skew,
            seed=args.seed,
        )
        shape = f"C={args.cardinality}, z={args.skew:g}, f={args.clustering:g}"
    else:
        values = zipf_column(
            args.num_records, args.cardinality, args.skew, seed=args.seed
        )
        shape = f"C={args.cardinality}, z={args.skew:g}"
    np.save(args.output, values)
    print(f"wrote {values.size} values ({shape}) to {args.output}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    values = _load_column(args.column)
    cardinality = args.cardinality or int(values.max()) + 1
    spec = IndexSpec(
        cardinality=cardinality,
        scheme=args.scheme,
        num_components=args.components,
        codec=args.codec,
        reorder=args.reorder,
    )
    index = BitmapIndex.build(values, spec)
    save_index(index, args.output)
    print(
        f"built {index!r}: {index.size_bytes() / 1024:.1f} KB in "
        f"{args.output}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    print(f"design:       {index.spec.label}")
    print(f"cardinality:  {index.cardinality}")
    print(f"components:   {index.num_components} (bases "
          f"<{','.join(map(str, index.bases))}>)")
    print(f"records:      {index.num_records}")
    if index.reordering is not None:
        print(
            f"reorder:      {index.reordering.strategy} "
            f"({index.reordering.num_sorted} sorted, "
            f"{index.num_records - index.reordering.num_sorted} appended)"
        )
    print(f"bitmaps:      {index.num_bitmaps()}")
    print(f"stored size:  {index.size_bytes() / 1024:.1f} KB "
          f"({index.size_pages()} pages)")
    print(f"uncompressed: {index.uncompressed_bytes() / 1024:.1f} KB")
    return 0


def _parse_predicate(spec: str, cardinality: int):
    """One ``--predicates`` item: ``lo:hi`` interval or a single value."""
    if ":" in spec:
        low, high = spec.split(":", 1)
        return IntervalQuery(int(low), int(high), cardinality)
    return MembershipQuery.of({int(spec)}, cardinality)


def _parse_query(args: argparse.Namespace, cardinality: int):
    if getattr(args, "threshold_k", None) is not None:
        specs = args.predicates or args.values
        if not specs:
            raise QueryError(
                "--threshold-k needs --predicates (or --values) listing the "
                "N predicates to count"
            )
        predicates = [
            _parse_predicate(part.strip(), cardinality)
            for part in specs.split(",")
        ]
        return ThresholdQuery.of(args.threshold_k, predicates)
    if args.values:
        members = {int(v) for v in args.values.split(",")}
        return MembershipQuery.of(members, cardinality)
    low = args.low if args.low is not None else 0
    high = args.high if args.high is not None else cardinality - 1
    return IntervalQuery(low, high, cardinality)


def _cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index, mapped=args.mapped)
    query = _parse_query(args, index.cardinality)
    result = index.query(query)
    print(f"query:         {query}")
    print(f"matching rows: {result.row_count}")
    print(f"bitmap scans:  {result.stats.scans}")
    print(f"simulated ms:  {result.simulated_ms:.3f}")
    if args.show_rows:
        ids = result.row_ids()
        shown = ids[: args.show_rows]
        tail = "..." if ids.size > args.show_rows else ""
        print(f"row ids:       {' '.join(map(str, shown))}{tail}")
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    batch = _load_column(args.column)
    report = index.append(batch)
    save_index(index, args.index)
    print(
        f"appended {report.records_appended} records; "
        f"{report.bitmaps_touched}/{report.bitmaps_extended} bitmaps gained bits"
    )
    return 0


def _cmd_verify_index(args: argparse.Namespace) -> int:
    report = validate_index(args.index)
    print(f"index:   {args.index}")
    print(f"format:  v{report.format}")
    print(f"bitmaps: {report.checked} checked")
    for name, count in sorted(report.codec_counts.items()):
        print(f"codec:   {name} x{count}")
    for error in report.errors:
        print(f"ERROR [{type(error).__name__}] {error}")
    for orphan in report.orphans:
        print(f"orphan:  {orphan} (unreferenced; junk from an old or "
              f"interrupted writer)")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig, run_all, run_experiment

    config = ExperimentConfig(
        num_records=args.num_records, workers=args.workers, codec=args.codec
    )
    if args.name == "all":
        for name, result in run_all(config).items():
            print(result.render())
            print()
    else:
        print(run_experiment(args.name, config).render())
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import (
        QueryService,
        ServiceConfig,
        paper_mix,
        run_closed_loop,
        run_open_loop,
    )

    values = zipf_column(
        args.num_records, args.cardinality, args.skew, seed=args.seed
    )
    spec = IndexSpec(
        cardinality=args.cardinality,
        scheme=args.scheme,
        num_components=args.components,
        codec=args.codec,
    )
    queries = paper_mix(args.cardinality, args.num_queries, seed=args.seed)
    if args.shards > 0:
        return _serve_bench_sharded(args, values, spec, queries)
    index = BitmapIndex.build(values, spec)
    print(
        f"index:    {index!r}\n"
        f"workload: {len(queries)} queries (C={args.cardinality}, "
        f"z={args.skew:g}), concurrency {args.concurrency}, "
        f"buffer {args.buffer_pages} pages"
    )

    def make_service(max_batch: int, cache_entries: int) -> QueryService:
        return QueryService(
            index,
            ServiceConfig(
                workers=args.workers,
                max_batch=max_batch,
                max_queue=args.max_queue,
                buffer_pages=args.buffer_pages,
                cache_entries=cache_entries,
            ),
        )

    # Counted-pages comparison on the deterministic path.
    with make_service(1, 0) as serial:
        for query in queries:
            serial.execute_many([query])
        serial_pages = serial.clock.pages_read
    with make_service(args.concurrency, 0) as batched:
        for start in range(0, len(queries), args.concurrency):
            batched.execute_many(queries[start : start + args.concurrency])
        batched_pages = batched.clock.pages_read
    n = len(queries)
    print(f"serial:   {serial_pages / n:.2f} pages/query ({serial_pages})")
    print(
        f"batched:  {batched_pages / n:.2f} pages/query ({batched_pages}, "
        f"{100 * (1 - batched_pages / serial_pages):.1f}% fewer)"
    )

    cache_entries = 0 if args.no_cache else len(queries) + 1
    with make_service(args.concurrency, cache_entries) as service:
        if args.rate is not None:
            report = run_open_loop(
                service, queries, args.rate, timeout_s=args.timeout
            )
        else:
            report = run_closed_loop(
                service,
                queries,
                concurrency=args.concurrency,
                timeout_s=args.timeout,
            )
        print(report.render())
        if not args.no_cache:
            before = service.clock.pages_read
            repeat = run_closed_loop(
                service, queries, concurrency=args.concurrency
            )
            delta = service.clock.pages_read - before
            print(
                f"repeat mix:     {repeat.cache_hits} cache hits, "
                f"{delta} pages read"
            )
    return 0


def _serve_bench_sharded(args, values, spec, queries) -> int:
    from repro.serve import (
        ShardedConfig,
        ShardedQueryService,
        run_closed_loop,
        run_open_loop,
    )

    config = ShardedConfig(
        shards=args.shards,
        transport=args.transport,
        workers=args.workers,
        max_batch=args.concurrency,
        max_queue=args.max_queue,
        buffer_pages=args.buffer_pages,
        cache_entries=0 if args.no_cache else len(queries) + 1,
    )
    print(
        f"sharded:  {args.shards} shards ({args.transport} transport), "
        f"{len(values)} rows, spec {spec.label}\n"
        f"workload: {len(queries)} queries (C={args.cardinality}, "
        f"z={args.skew:g}), concurrency {args.concurrency}"
    )
    with ShardedQueryService(values, spec, config) as service:
        for info in service.shard_info():
            print(
                f"  shard {info['id']}: {info['num_records']} rows "
                f"(epoch {info['epoch']})"
            )
        if args.rate is not None:
            report = run_open_loop(
                service, queries, args.rate, timeout_s=args.timeout
            )
        else:
            report = run_closed_loop(
                service,
                queries,
                concurrency=args.concurrency,
                timeout_s=args.timeout,
            )
        print(report.render())
        if not args.no_cache:
            repeat = run_closed_loop(
                service, queries, concurrency=args.concurrency
            )
            print(
                f"repeat mix:     {repeat.cache_hits} cache hits "
                f"({repeat.throughput_qps:.0f} q/s)"
            )
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    from repro.analysis.theorems import all_theorem_checks

    for check in all_theorem_checks():
        verdict = {True: "VERIFIED", False: "REFUTED", None: "PAPER-PROVED"}[
            check.holds
        ]
        print(f"[{verdict:12s}] {check.statement}")
        print(f"               method: {check.method}")
        if args.verbose:
            for line in check.details:
                print(f"               {line}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.index import recommend
    from repro.queries import generate_query_set, paper_query_sets

    values = _load_column(args.column)
    cardinality = args.cardinality or int(values.max()) + 1
    workload = {
        spec.label: generate_query_set(spec, cardinality, 10, seed=args.seed)
        for spec in paper_query_sets()
    }
    outcome = recommend(
        values,
        cardinality,
        workload,
        space_budget_bytes=args.budget_kb * 1024 if args.budget_kb else None,
    )
    print(f"{'design':18s} {'space KB':>10s} {'avg ms':>10s}")
    for point in outcome.candidates:
        marker = " *" if point in outcome.frontier else ""
        print(
            f"{point.label:18s} {point.space_bytes / 1024:10.1f} "
            f"{point.avg_time_ms:10.2f}{marker}"
        )
    if outcome.best is not None:
        print(f"recommended: {outcome.best.label}")
    else:
        print("no design fits the budget")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Bitmap index toolkit reproducing Chan & Ioannidis, "
            "SIGMOD 1999"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every command that exercises the
    # instrumented stack (see docs/observability.md).
    traceable = argparse.ArgumentParser(add_help=False)
    traceable.add_argument(
        "--trace",
        action="store_true",
        help="record metrics + spans for this run and print the JSON "
        "export after the command output",
    )
    traceable.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="like --trace, but write the JSON export to PATH instead "
        "of printing it",
    )

    p = sub.add_parser("generate", help="generate a synthetic column")
    p.add_argument("output", help="output .npy path")
    p.add_argument("--num-records", type=int, default=100_000)
    p.add_argument("--cardinality", type=int, default=50)
    p.add_argument("--skew", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--generator",
        choices=("zipf", "markov"),
        default="zipf",
        help="zipf: independent draws (the paper's data sets); markov: "
        "clustered value runs (geometric, mean --clustering)",
    )
    p.add_argument(
        "--clustering",
        type=float,
        default=4.0,
        help="mean value-run length for --generator markov (>= 1)",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("build", help="build and save a bitmap index", parents=[traceable])
    p.add_argument("column", help=".npy or text column file")
    p.add_argument("output", help="index directory")
    p.add_argument("--scheme", choices=ALL_SCHEME_NAMES + ("I+",), default="I")
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--codec", default="bbc")
    p.add_argument(
        "--cardinality",
        type=int,
        default=None,
        help="attribute cardinality (default: max value + 1)",
    )
    p.add_argument(
        "--reorder",
        choices=REORDER_STRATEGIES,
        default="none",
        help="sort rows at build time so run-length codecs compress "
        "better; query answers still report original row ids "
        "(see docs/reordering.md)",
    )
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("info", help="describe a saved index", parents=[traceable])
    p.add_argument("index", help="index directory")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("query", help="query a saved index", parents=[traceable])
    p.add_argument("index", help="index directory")
    p.add_argument("--low", type=int, default=None, help="interval lower bound")
    p.add_argument("--high", type=int, default=None, help="interval upper bound")
    p.add_argument(
        "--values", default=None, help="comma-separated membership values"
    )
    p.add_argument(
        "--threshold-k",
        type=int,
        default=None,
        help="k-of-N threshold query: match rows satisfying at least K of "
        "the --predicates (see docs/threshold.md)",
    )
    p.add_argument(
        "--predicates",
        default=None,
        help="comma-separated threshold predicates, each 'lo:hi' (interval) "
        "or a single value (membership), e.g. '0:3,7,12:15'",
    )
    p.add_argument(
        "--show-rows", type=int, default=0, help="print up to N matching row ids"
    )
    p.add_argument(
        "--mapped",
        action="store_true",
        help="serve payloads from read-only mmap views instead of heap "
        "copies (v2 index directories; see docs/zero_copy.md)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("append", help="append a batch to a saved index", parents=[traceable])
    p.add_argument("index", help="index directory")
    p.add_argument("column", help=".npy or text column file with new records")
    p.set_defaults(func=_cmd_append)

    p = sub.add_parser(
        "verify-index",
        help="validate a saved index directory (checksums, byte lengths, "
        "orphans); exit 1 on any corruption",
        parents=[traceable],
    )
    p.add_argument("index", help="index directory")
    p.set_defaults(func=_cmd_verify_index)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure", parents=[traceable])
    p.add_argument(
        "name",
        choices=[
            "figure3",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "table1",
            "adaptive_sweep",
            "all",
        ],
    )
    p.add_argument("--num-records", type=int, default=50_000)
    p.add_argument(
        "--codec",
        default="bbc",
        help="codec for the compressed index variants (e.g. bbc, wah, "
        "ewah, roaring)",
    )
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="processes for independent data points (1 = serial, 0 = one "
        "per CPU)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "theorems", help="verify the paper's optimality theorems"
    )
    p.add_argument("--verbose", action="store_true", help="show per-C details")
    p.set_defaults(func=_cmd_theorems)

    p = sub.add_parser(
        "serve-bench",
        help="drive the concurrent serving layer: shared-scan batching vs "
        "serial pages/query, then a threaded closed- or open-loop replay",
        parents=[traceable],
    )
    p.add_argument("--num-records", type=int, default=20_000)
    p.add_argument("--num-queries", type=int, default=1000)
    p.add_argument("--cardinality", type=int, default=200)
    p.add_argument("--skew", type=float, default=1.0)
    p.add_argument("--scheme", choices=ALL_SCHEME_NAMES, default="E")
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--codec", default="raw")
    p.add_argument("--concurrency", type=int, default=8,
                   help="closed-loop clients / shared-scan wave size")
    p.add_argument("--workers", type=int, default=2,
                   help="service worker threads for the threaded replay")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission-control queue bound")
    p.add_argument("--buffer-pages", type=int, default=16)
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in queries/s (default: closed loop)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-query deadline in seconds for the threaded replay",
    )
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache in the threaded replay")
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the sharded tier with this many row-range shards "
        "(0 = single-process QueryService)",
    )
    p.add_argument(
        "--transport",
        choices=("inline", "process"),
        default="process",
        help="sharded tier only: host shard engines inline "
        "(deterministic) or one worker process per shard (parallel)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser("advise", help="recommend an index design", parents=[traceable])
    p.add_argument("column", help=".npy or text column file")
    p.add_argument("--cardinality", type=int, default=None)
    p.add_argument("--budget-kb", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_advise)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    tracing = bool(getattr(args, "trace", False)) or trace_out is not None
    try:
        if not tracing:
            return args.func(args)
        with obs.observed() as o:
            code = args.func(args)
        export = o.export_json()
        if trace_out is not None:
            Path(trace_out).write_text(export + "\n")
            print(f"wrote trace to {trace_out}", file=sys.stderr)
        else:
            print(export)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
