"""The shared bench harness (``benchmarks/_harness.py``) and its records.

Every ``BENCH_*.json`` at the repository root is written through the
harness, so each one must carry the same six top-level keys, and a
checked-in record must never hold a failed asserted gate.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "_harness", ROOT / "benchmarks" / "_harness.py")
harness = sys.modules.setdefault(
    "_harness", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(harness)
Gate = harness.Gate

RECORDS = sorted(path for path in ROOT.glob("BENCH_*.json")
                 if not path.stem.endswith("_quick"))


@pytest.fixture
def bench_root(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_toy.py"])
    return tmp_path


def _measure(gate):
    return lambda quick: ({"size": 1 if quick else 4},
                          {"row": {"speedup": 1.5}}, [gate])


def test_failing_asserted_gate_fails_the_run_after_recording(bench_root):
    assert harness.run("toy", _measure(Gate("row.speedup", ">=", 2.0))) == 1
    record = json.loads((bench_root / "BENCH_toy.json").read_text())
    assert tuple(record) == harness.RECORD_KEYS
    assert record["mode"] == "full" and record["config"] == {"size": 4}
    assert record["gates"] == [{"metric": "row.speedup", "op": ">=",
                                "bound": 2.0, "value": 1.5,
                                "asserted": True, "passed": False}]


def test_unasserted_failing_gate_is_recorded_but_passes(bench_root,
                                                        monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bench_toy.py", "--quick"])
    gate = Gate("row.speedup", ">", 2.0, asserted=False)
    assert harness.run("toy", _measure(gate)) == 0
    assert not (bench_root / "BENCH_toy.json").exists()
    record = json.loads((bench_root / "BENCH_toy_quick.json").read_text())
    assert record["mode"] == "quick" and record["config"] == {"size": 1}
    assert record["gates"][0]["passed"] is False


def test_dotted_metric_paths_resolve():
    metrics = {"a": {"b": {"c": 3}}, "flag": True}
    assert harness.resolve(metrics, "a.b.c") == 3
    assert harness.resolve(metrics, "a.b") == {"c": 3}
    assert Gate("a.b.c", "==", 3).grade(metrics)["passed"]
    assert Gate("flag", "==", True).grade(metrics)["passed"]
    assert not Gate("a.b.c", "<", 3).grade(metrics)["passed"]
    with pytest.raises(KeyError):
        harness.resolve(metrics, "a.missing")


def test_every_bench_script_has_a_checked_in_record():
    scripts = {path.stem[len("bench_"):]
               for path in (ROOT / "benchmarks").glob("bench_*.py")
               if "_harness" in path.read_text()}
    assert {path.stem[len("BENCH_"):] for path in RECORDS} == scripts


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_checked_in_record_shares_the_schema_and_passed(path):
    record = json.loads(path.read_text())
    assert tuple(record) == harness.RECORD_KEYS
    assert record["benchmark"] == path.stem[len("BENCH_"):]
    assert record["mode"] == "full"
    assert record["gates"], "a record must grade at least one gate"
    assert not harness.failed_gates(record)
