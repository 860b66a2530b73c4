"""Run one benchmark workload and print its metrics.

    python3 mpdsbench/run.py --workload session-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the
run's provenance (host, versions, workload seed, op count, tail
percentile).  A traced run also writes its spans to
``.bench_out/<workload>-<seed>.trace.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()

#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "worldstore.draw_s": "s", "worldstore.worlds_sampled": "count",
    "worldstore.mask_bytes": "bytes",
    "estimators.bound_s": "s", "estimators.worlds_primed": "count",
    "estimators.worlds_filtered": "count",
    "estimators.exact_s": "s", "session.worlds_evaluated": "count",
    "graphpath.eval_s": "s", "mpds.replayed_worlds": "count",
    "mpds.finalize_s": "s", "mpds.candidates": "count",
    "nds.finalize_s": "s", "nds.transactions": "count",
    "nds.itemsets": "count",
    "results.serialize_s": "s", "results.bytes": "bytes",
    "session.store_hits": "count", "session.eval_hits": "count",
    "session.eval_hit_ratio": "ratio", "session.cached_evaluations": "count",
    "delta.update_s": "s", "delta.columns_redrawn": "count",
    "delta.worlds_flipped": "count", "delta.worlds_reevaluated": "count",
    "serve.handler_ms": "ms", "serve.http_ms": "ms",
    "serve.admission_waits": "count", "serve.errors": "count",
    "serve.sender_late_ms": "ms",
    "process.cpu_ms_per_op": "ms", "process.wait_share": "ratio",
    "trace.coverage": "ratio",
}

#: mean self time per op of each layer, reported in seconds
LAYER_TIMES = {
    "worldstore.draw_s": "draw", "estimators.bound_s": "bound",
    "estimators.exact_s": "exact", "graphpath.eval_s": "graphpath",
    "mpds.finalize_s": "mpds_finalize", "nds.finalize_s": "nds_finalize",
    "results.serialize_s": "serialize", "delta.update_s": "delta",
}

#: per-layer counts summed over the counting window of ops
LAYER_COUNTS = {
    "worldstore.worlds_sampled": "worlds_sampled",
    "worldstore.mask_bytes": "mask_bytes",
    "estimators.worlds_primed": "worlds_primed",
    "estimators.worlds_filtered": "worlds_filtered",
    "session.worlds_evaluated": "worlds_evaluated",
    "mpds.replayed_worlds": "replayed_worlds",
    "mpds.candidates": "candidates",
    "nds.transactions": "transactions", "nds.itemsets": "itemsets",
    "delta.columns_redrawn": "columns_redrawn",
    "delta.worlds_flipped": "worlds_flipped",
}

END_TO_END = {
    "setup_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "throughput_qps": "1/s", "slo_share": "ratio", "peak_rss_mib": "MiB",
}


def check_checkout() -> None:
    """Refuse to run outside a source checkout of the library, or where
    the process cannot reset its peak-memory mark."""
    needed = (ROOT / "src" / "repro" / "session.py",
              ROOT / "benchmarks" / "bench_engine.py")
    missing = [str(path.relative_to(ROOT)) for path in needed
               if not path.is_file()]
    if missing:
        sys.stderr.write(
            "mpdsbench: run from the root of a repro source checkout; "
            f"missing {', '.join(missing)}\n")
        sys.exit(2)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from mpdsbench.workloads import PeakRss

    try:
        PeakRss()
    except OSError as exc:
        sys.stderr.write("mpdsbench: the peak-memory probe needs a "
                         f"writable /proc/self/clear_refs: {exc}\n")
        sys.exit(2)


def git_sha():
    """The checked-out commit, or ``None`` when the checkout is not a git
    repository (git does not look above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the library sources: identifies the code under test
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, out) -> dict:
    import numpy

    from repro.engine import HAVE_NUMBA

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "cores": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba": HAVE_NUMBA, "ops": out["attempted"],
        "failed": out["failed"], "valid": out["valid"], **out["info"],
    }


def _stat_diff(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def layer_metrics(workload, out, tracer) -> dict:
    """Per-layer metrics of a traced run."""
    ops = out["attempted"]
    window = set(range(out["info"]["count_ops"]))
    selves = tracer.self_times()
    counts = {}
    for op, bucket in tracer.counts.items():
        if op in window:
            for key, value in bucket.items():
                counts[key] = counts.get(key, 0) + value
    metrics = {name: selves[layer] / ops for name, layer in LAYER_TIMES.items()}
    metrics.update({name: counts.get(key, 0)
                    for name, key in LAYER_COUNTS.items()})

    handle = [s for s in tracer.spans if s.name == "ReproServer.handle"]
    roots = [s for s in tracer.spans if s.parent is None]
    wall = sum(root.busy for root in roots)
    metrics["serve.handler_ms"] = (
        1000.0 * sum(s.busy for s in handle) / ops if handle else 0.0)
    metrics["serve.http_ms"] = 1000.0 * selves["http"] / ops
    metrics["serve.sender_late_ms"] = out["info"].get(
        "sender_late_ms_mean", 0.0)

    if "stats_after" in out:
        before = out["stats_before"]["sessions"]["bench"]
        after = out["stats_after"]["sessions"]["bench"]
        hits = _stat_diff(after, before, "eval_hits")
        queries = _stat_diff(after, before, "queries")
        metrics["session.store_hits"] = _stat_diff(after, before,
                                                   "store_hits")
        metrics["delta.worlds_reevaluated"] = _stat_diff(
            after, before, "worlds_reevaluated")
        metrics["serve.admission_waits"] = (
            _stat_diff(after, before, "store_waits")
            + _stat_diff(after, before, "eval_waits"))
        metrics["serve.errors"] = _stat_diff(
            out["stats_after"]["server"], out["stats_before"]["server"],
            "errors_total")
        reply_bytes = sum(r["bytes"] for r in out["records"])
    else:
        rounds = [s for i, s in enumerate(out["session_stats"])
                  if i * 5 < len(window)]
        hits = sum(s["eval_hits"] for s in rounds)
        queries = sum(s["queries"] for s in rounds)
        metrics["session.store_hits"] = sum(s["store_hits"] for s in rounds)
        metrics["delta.worlds_reevaluated"] = 0
        metrics["serve.admission_waits"] = 0
        metrics["serve.errors"] = 0
        reply_bytes = sum(op.result_bytes for op in out["ops"]
                          if op.index in window)
    metrics["session.eval_hits"] = hits
    metrics["session.eval_hit_ratio"] = hits / queries if queries else 0.0
    metrics["session.cached_evaluations"] = hits * getattr(workload, "theta", 0)
    metrics["results.bytes"] = reply_bytes
    cpu = out["info"]["cpu_s"]
    metrics["process.cpu_ms_per_op"] = 1000.0 * cpu / ops
    metrics["process.wait_share"] = 1.0 - cpu / out["info"]["timed_s"]
    metrics["trace.coverage"] = (
        1.0 - selves["bench"] / wall if wall else 0.0)
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        corrupt: bool = False, ops=None):
    """Run one workload; returns ``(summary, out, tracer)``.  ``ops``
    fixes the op count instead of ``seconds`` (closed loops round it up
    to whole rounds)."""
    from mpdsbench import layers, workloads
    from mpdsbench.spans import Tracer

    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install(tracer)
    try:
        if workload_name == workloads.ServeDynamic.name:
            workload = workloads.ServeDynamic()
            if ops is not None:
                seconds = ops / workload.rate
            out = workloads.run_serve(workload, seed, seconds, tracer,
                                      corrupt)
        else:
            workload = workloads.CLOSED[workload_name]()
            rounds = (None if ops is None
                      else -(-ops // workload.per_round))
            out = workloads.run_closed(workload, seed, seconds, tracer,
                                       corrupt, rounds)
    finally:
        if tracer is not None:
            tracer.restore()
    if trace:
        metrics = layer_metrics(workload, out, tracer)
    else:
        metrics = {name: {"value": out["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    summary = {
        "correct": out["failed"] == 0 and out["valid"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return summary, out, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    from mpdsbench.workloads import NAMES

    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {NAMES}")
    summary, out, tracer = run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    prov = provenance(args, out)
    if tracer is not None:
        prov["end_to_end_traced"] = out["metrics"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-{args.seed}.trace.json",
                    prov)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    # import the package, not sibling modules by their bare names
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    sys.exit(main())
