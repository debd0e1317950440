"""One harness and one record schema for the ``BENCH_*.json`` benches.

A script bench defines ``measure(quick) -> (config, metrics, gates)`` and
ends with ``raise SystemExit(run(name, measure))``.  :func:`run` parses
``--quick`` (the only flag), writes the record, then grades the gates and
returns 1 when an asserted gate failed.  The record is written before the
exit code is decided, so a failing run still leaves its numbers behind.

Every record has the same six top-level keys::

    {"benchmark": name, "mode": "full" | "quick", "host": host(),
     "config": {...}, "metrics": {...},
     "gates": [{"metric", "op", "bound", "value", "asserted", "passed"}]}

Full-mode runs write ``BENCH_<name>.json`` at the repository root; quick
(CI smoke) runs write ``BENCH_<name>_quick.json`` so they never clobber the
checked-in full-mode record.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The script benches run as ``python benchmarks/bench_<x>.py`` without an
# installed package; importing the harness first makes ``repro`` importable.
sys.path.insert(0, str(ROOT / "src"))

RECORD_KEYS = ("benchmark", "mode", "host", "config", "metrics", "gates")

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt,
}


@dataclass(frozen=True)
class Gate:
    """``metrics[metric] <op> bound``, where ``metric`` is a dotted path.

    An unasserted gate is graded and recorded but never fails the run: the
    fleet speedup, for one, means nothing on a host with too few CPUs.
    """

    metric: str
    op: str
    bound: Any
    asserted: bool = True

    def grade(self, metrics: Mapping[str, Any]) -> Dict[str, Any]:
        value = resolve(metrics, self.metric)
        return {"metric": self.metric, "op": self.op, "bound": self.bound,
                "value": value, "asserted": self.asserted,
                "passed": bool(_OPS[self.op](value, self.bound))}


Measure = Callable[[bool], Tuple[Dict[str, Any], Dict[str, Any],
                                 Sequence[Gate]]]


def resolve(metrics: Mapping[str, Any], path: str) -> Any:
    """The value at dotted ``path`` (``"run_experiment.speedup"``)."""
    value: Any = metrics
    for key in path.split("."):
        value = value[key]
    return value


def host() -> Dict[str, Any]:
    """What a reader needs to compare two records: the machine and stack."""
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return {"cpu_count": os.cpu_count(), "usable_cpus": usable,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Fastest wall-clock of ``repeats`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record_path(name: str, quick: bool) -> Path:
    return ROOT / f"BENCH_{name}{'_quick' if quick else ''}.json"


def write_record(name: str, quick: bool, config: Mapping[str, Any],
                 metrics: Mapping[str, Any],
                 gates: Sequence[Gate]) -> Dict[str, Any]:
    """Grade ``gates``, write the record and return it."""
    record = {"benchmark": name, "mode": "quick" if quick else "full",
              "host": host(), "config": dict(config),
              "metrics": dict(metrics),
              "gates": [gate.grade(metrics) for gate in gates]}
    path = record_path(name, quick)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["metrics"], indent=2))
    for gate in record["gates"]:
        verdict = "pass" if gate["passed"] else (
            "FAIL" if gate["asserted"] else "fail (not asserted)")
        print(f"gate {gate['metric']} = {gate['value']} {gate['op']} "
              f"{gate['bound']}: {verdict}")
    print(f"recorded to {path}")
    return record


def failed_gates(record: Mapping[str, Any]) -> List[Dict[str, Any]]:
    return [gate for gate in record["gates"]
            if gate["asserted"] and not gate["passed"]]


def run(name: str, measure: Measure) -> int:
    """Parse ``--quick``, measure, write the record; 1 if a gate failed."""
    parser = argparse.ArgumentParser(
        description=sys.modules[measure.__module__].__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke mode: smaller counts, recorded to "
                             f"{record_path(name, True).name}")
    quick = parser.parse_args().quick
    record = write_record(name, quick, *measure(quick))
    failed = failed_gates(record)
    if failed:
        print(f"{name} REGRESSION: "
              + "; ".join(f"{gate['metric']} = {gate['value']} not "
                          f"{gate['op']} {gate['bound']}" for gate in failed),
              file=sys.stderr)
        return 1
    return 0
