"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload laer-train --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
measures the same operations twice, untraced and then with every layer entry
point of ``perfbench/layers.py`` wrapped in a span, checks that both passes
give identical results, and reports the per-layer metrics and the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full record (host, config, details
and failures), which is also written to ``perfbench/out/``.  The exit code is
0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("laer-train", "baselines-train", "planner-scale", "serve-mixed")

#: Set-ups per run; ``setup_s`` reports their median plus the import time.
SETUP_REPEATS = 3


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record() -> Dict[str, Any]:
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def metric_block(declared: List[Dict[str, Any]],
                  values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} are "
                           f"not both declared and measured")
    return {metric["name"]: {"value": float(values[metric["name"]]),
                             "unit": metric["unit"]} for metric in declared}


def measure_run(workload: Any, seed: int, seconds: float, trace: bool,
                import_s: float) -> Dict[str, Any]:
    """Set up, measure and check ``workload``, then close it.

    Returns the full record; ``record["values"]`` holds the end-to-end
    metrics (``trace`` false) or the per-layer metrics (``trace`` true).
    """
    from perfbench import layers, tracer as tracing, workloads

    untraced = lambda name: nullcontext()  # noqa: E731
    record: Dict[str, Any] = {}
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        # Read before any reference work runs, whose arrays would count too;
        # each set-up ends with a warm-up operation.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            measured = workload.measure(seconds / 2, untraced)
            tracer = tracing.Tracer()
            with layers.install(tracer):
                traced = workload.measure(seconds / 2, tracer.span,
                                          ops=measured.ops)
            passes = [measured, traced]
            tree, tree_error = tracing.self_time_tree(tracer.spans)
            overhead_s = (traced.wall_s
                          - measured.wall_s * traced.ops / measured.ops)
            values = layers.per_layer_metrics(tracer, overhead_s)
            record["tree"] = tree
            record["tree_error"] = tree_error
        else:
            measured = workload.measure(seconds, untraced)
            passes = [measured]
            values = workload.end_to_end(measured)
        for measured_pass in passes:
            workload.settle(measured_pass)
        failures = [f for measured_pass in passes
                    for f in measured_pass.failures]
        # The end-of-run checks count as one more operation.
        checks = workload.check()
        checks.append(workloads.scalar_reference_check(seed))
        if trace:
            if traced.digests != measured.digests:
                checks.append("traced and untraced passes differ")
            if tree_error > 0.01:
                checks.append(f"self times miss the root spans by "
                              f"{100 * tree_error:.2f}%")
        checks = [problem for problem in checks if problem]
        attempted = sum(p.ops for p in passes) + 1
        failed = min(attempted, len(failures) + bool(checks))
        failures += checks
        if not trace:
            values.update({
                "setup_s": import_s + statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
                "ok_ratio": (attempted - failed) / attempted,
            })
        record.update({
            "benchmark": "perfbench", "workload": workload.name,
            "seed": seed, "seconds": seconds, "trace": int(trace),
            "host": host_record(), "config": workload.config(),
            "setup_s": setups, "import_s": import_s,
            "details": workload.details(passes[0]),
            "attempted": attempted, "failed": failed,
            "failures": failures[:20], "values": values,
        })
    finally:
        workload.close()
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    began = time.perf_counter()
    from perfbench import workloads  # imports the program
    import_s = time.perf_counter() - began
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, OUT_DIR)
    record = measure_run(workload, args.seed, args.seconds, bool(args.trace),
                         import_s)
    metrics = metric_block(
        declared["per_layer" if args.trace else "end_to_end"],
        record.pop("values"))
    record["metrics"] = metrics
    correct = record["failed"] == 0
    path = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record.pop("tree", None)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
