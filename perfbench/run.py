"""The repository benchmark: selection queries over the bitmap index.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` sets the workload up
``SETUPS`` times (reporting the median set-up time), runs the timed
closed loop for ``--seconds`` with all instrumentation off, times the
appends, checks every answer against a naive scan and prints the
end-to-end metrics.  ``--trace 1`` runs half the time untraced, then
wraps every layer's public functions (``tracing.py``), sets up again
and runs the other half traced; it prints the per-layer metrics, each
normalised per query (per append for write metrics).

Each metric is printed as ``name = value unit``; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A record with the host fingerprint and the raw
samples is written under ``.perfbench/`` in the checkout, next to the
traced run's spans.  See ``perfbench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record() -> dict:
    """CPU count and model, Python and numpy versions, source identity."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


def _hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError(f"no VmHWM for {pid}")


def peak_rss_mb(worker_pids) -> float:
    """Peak RSS of this process plus each live worker process."""
    return _hwm_mb() + sum(_hwm_mb(pid) for pid in worker_pids)


def run_plain(cls, args, work) -> tuple[dict, dict]:
    """End-to-end metrics, all instrumentation off."""
    setups = []
    for attempt in range(SETUPS):
        workload = cls(args.seed, work)
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
        if attempt < SETUPS - 1:
            workload.close()
    try:
        index_bytes = workload.index_bytes()
        phase = workload.run(args.seconds)
        probe = workload.probe_appends()
        rss = peak_rss_mb(workload.worker_pids())
        wrong = workload.check(phase) + workload.check(probe)
    finally:
        workload.close()
    appends_ms = phase.append_ms + probe.append_ms
    latencies = phase.latencies_ms
    attempted = phase.attempted + probe.attempted
    failed = phase.errors + probe.errors + wrong
    p50, p95 = (float(v) for v in np.percentile(latencies, [50, 95]))
    beyond = sum(1 for value in latencies if value > p95)
    if beyond < 10:
        print(f"warning: only {beyond} queries above p95", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": p50,
        "query_p95_ms": p95,
        "throughput_qps": phase.qps,
        "append_p50_ms": statistics.median(appends_ms),
        "index_bytes": index_bytes,
        "peak_rss_mb": rss,
        "success_frac": 1.0 - failed / attempted,
    }
    samples = {
        "setup_s": setups,
        "queries": len(latencies),
        "queries_above_p95": beyond,
        "appends_ms": appends_ms,
        "wrong_answers": wrong,
        "errors": phase.errors,
        "error_frac": failed / attempted,
    }
    outcome = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    return outcome, {"metrics": metrics, "samples": samples}


def _delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(cls, args, work) -> tuple[dict, dict]:
    """Per-layer metrics: an untraced half, then a traced half."""
    import tracing

    half = args.seconds / 2
    workload = cls(args.seed, work)
    workload.setup()
    try:
        plain = workload.run(half)
        wrong = workload.check(plain)
    finally:
        workload.close()

    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    workload = cls(args.seed, work)
    with tracer.request("bench.setup", "setup"):
        workload.setup()
    try:
        before = workload.counters()
        start = perf_counter()
        traced = workload.run(half, tracer.request)
        window = (start, perf_counter())
        after_queries = workload.counters()
        segments = workload.segments_per_shard()
        probe = workload.probe_appends(tracer.request)
        after = workload.counters()
        wrong += workload.check(traced) + workload.check(probe)
    finally:
        workload.close()
    tracer.dump(OUT / f"spans-{cls.name}.json")

    queries = len(traced.latencies_ms)
    appends = len(traced.append_ms) + len(probe.append_ms)
    mean_ms = statistics.fmean(traced.latencies_ms)
    # Service worker threads carry no request tag ("bg"); only their
    # spans inside the timed window served the timed queries.
    on_queries = tracer.totals({"q", "bg"}, window)
    on_appends = tracer.totals({"a"})
    on_setup = tracer.totals({"setup"})

    def per_query(name, field=0, scale=1e3):
        return on_queries[name][field] * scale / queries if queries else 0.0

    def per_append(name):
        return on_appends[name][0] * 1e3 / appends if appends else 0.0

    decode_s = on_queries["compress.decode"][0]
    evals = on_queries["expr.eval.fused"][2] + on_queries["expr.eval.materialize"][2]
    worker_side = sum(
        row[0] for name, row in on_queries.items()
        if name not in ("bench.query", "serve.execute")
    ) * 1e3 / queries
    merge_ms = per_query("sharded.merge")
    hits = _delta(after_queries, before, "pool_hits")
    misses = _delta(after_queries, before, "pool_misses")
    cache_hits = _delta(after_queries, before, "cache_hits")
    cache_misses = _delta(after_queries, before, "cache_misses")
    metrics = {
        "index.rewrite_ms": per_query("index.rewrite"),
        "storage.buffer.hit_ratio": _ratio(hits, hits + misses),
        "storage.buffer.misses_per_query": _ratio(misses, queries),
        "storage.buffer.evictions_per_query": _ratio(
            _delta(after_queries, before, "pool_evictions"), queries
        ),
        "storage.buffer.self_ms": per_query("storage.buffer.fetch"),
        "storage.fetch_ms": per_query("storage.store.get"),
        "storage.read_bytes_per_query": per_query("storage.store.get", 3, 1),
        "compress.decode_ms": per_query("compress.decode"),
        "compress.decode_mb_per_s": _ratio(
            on_queries["compress.decode"][3] / 1e6, decode_s
        ),
        "compress.encode_ms_per_append": per_append("compress.encode"),
        "compress.decode_ms_per_append": per_append("compress.decode"),
        "expr.eval_ms": per_query("expr.eval.fused")
        + per_query("expr.eval.materialize"),
        "expr.fused_frac": _ratio(on_queries["expr.eval.fused"][2], evals),
        "index.restore_ms": per_query("index.restore"),
        "index.append_ms": per_append("index.append"),
        "index.build_s": on_setup["index.build"][1],
        "index.persist.save_s": on_setup["index.persist.save"][1],
        "index.persist.load_s": on_setup["index.persist.load"][1],
        "serve.wait_ms": mean_ms - worker_side if cls.queued else 0.0,
        "serve.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "serve.batch_size_mean": _ratio(
            _delta(after_queries, before, "batched_queries"),
            _delta(after_queries, before, "batches"),
        ),
        "serve.cache_invalidated_per_append": _ratio(
            _delta(after, before, "cache_invalidated"), appends
        ),
        "serve.shed_frac": _ratio(
            _delta(after_queries, before, "shed"),
            _delta(after_queries, before, "submitted"),
        ),
        "sharded.merge_ms": merge_ms,
        "sharded.remote_ms": mean_ms - merge_ms if segments else 0.0,
        "sharded.segments_per_shard": segments,
        "bench.unattributed_ms": per_query("bench.query"),
        "costmodel.sim_over_wall": _ratio(
            plain.simulated_ms, sum(plain.latencies_ms)
        ),
        "trace.overhead_frac": plain.qps / traced.qps - 1.0,
    }
    attempted = plain.attempted + traced.attempted + probe.attempted
    failed = plain.errors + traced.errors + probe.errors + wrong
    samples = {
        "queries_untraced": len(plain.latencies_ms),
        "queries_traced": queries,
        "appends_traced": appends,
        "wrong_answers": wrong,
        "error_frac": failed / attempted,
    }
    outcome = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    return outcome, {"metrics": metrics, "samples": samples}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    OUT.mkdir(exist_ok=True)
    host = host_record()
    print(f"host {json.dumps(host)}")
    print(f"workload {cls.name}: {why[cls.name]}")
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        runner = run_traced if args.trace else run_plain
        outcome, record = runner(cls, args, work)
    metrics = record["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics differ from BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_frac = {record['samples']['error_frac']:.6g} ratio")
    record.update(host=host, args=vars(args), **outcome)
    path = OUT / f"result-{cls.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    outcome["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()
    }
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
