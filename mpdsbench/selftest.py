"""Self-tests of the benchmark itself, at small scale.

    python3 mpdsbench/selftest.py

* A corrupted reference makes the run fail: one closed-loop workload and
  the HTTP workload are run with one reference altered, and each must
  report ``correct: false`` with exactly the corrupted op failed.
* Counts repeat exactly: every workload runs twice, traced, with one
  seed; the per-op counts the seed fixes (worlds evaluated, candidates,
  transactions, replayed worlds, columns redrawn, worlds flipped, result
  bytes) and the result digests must be identical.
* ``BENCHMARK.json`` names exactly the metrics the runner prints.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: ops per self-test run: one round of each closed loop, and enough
#: requests that the HTTP workload applies one update and reads after it
SMALL = {"session-mix": 5, "graph-paths": 3, "serve-dynamic": 17}
SEED = 20231


def fingerprint(workload: str, out: dict, tracer) -> list:
    """Per-op deterministic counts plus the digest of each op's result."""
    from mpdsbench.layers import DETERMINISTIC_COUNTS

    per_op = []
    for index in range(out["info"]["count_ops"]):
        counts = tracer.counts.get(index, {})
        row = {key: counts.get(key, 0) for key in DETERMINISTIC_COUNTS}
        if "records" in out:
            record = out["records"][index]
            row["result_bytes"] = record["bytes"]
            row["digest"] = record["digest"]
        else:
            op = out["ops"][index]
            row["result_bytes"] = op.result_bytes
            row["digest"] = op.digest
        per_op.append(row)
    return per_op


def check_corruption(run) -> list:
    failures = []
    for workload in ("graph-paths", "serve-dynamic"):
        summary, _out, _tracer = run(
            workload, SEED, 0.0, False, corrupt=True, ops=SMALL[workload])
        ok = summary["correct"] is False and summary["failed"] == 1
        print(f"corrupted reference fails the run [{workload}]: "
              f"{'ok' if ok else 'NOT DETECTED'} "
              f"(correct={summary['correct']}, failed={summary['failed']})")
        if not ok:
            failures.append(f"corruption not detected on {workload}")
    return failures


def check_repeat(run, names) -> list:
    failures = []
    for workload in names:
        prints = []
        for _ in range(2):
            summary, out, tracer = run(workload, SEED, 0.0, True,
                                       ops=SMALL[workload])
            if not summary["correct"]:
                failures.append(f"{workload}: a self-test run failed")
            prints.append(fingerprint(workload, out, tracer))
        same = prints[0] == prints[1]
        print(f"counts repeat exactly [{workload}]: "
              f"{'ok' if same else 'DIFFERENT'} "
              f"({len(prints[0])} ops, first op {prints[0][0]})")
        if not same:
            failures.append(f"{workload}: counts differ between runs")
    return failures


def check_manifest(root: Path) -> list:
    from mpdsbench.run import END_TO_END, PER_LAYER

    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = declared == END_TO_END and layered == PER_LAYER
    print(f"BENCHMARK.json matches the runner's metrics: "
          f"{'ok' if ok else 'MISMATCH'}")
    return [] if ok else ["BENCHMARK.json and the runner disagree"]


def main() -> int:
    from mpdsbench.run import ROOT, check_checkout, run
    from mpdsbench.workloads import NAMES

    check_checkout()
    failures = check_manifest(ROOT)
    failures += check_corruption(run)
    failures += check_repeat(run, NAMES)
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    sys.exit(main())
