"""Fast self-check of the benchmark: every path, at reduced epochs.

    python3 perfbench/selfcheck.py
    python -m pytest perfbench/selfcheck.py

Each workload runs with one epoch per model and no minimum measuring
time, untraced and then traced twice.  The check fails unless
every run is correct with no failed operation, the metric names emitted
are exactly those BENCHMARK.json declares (with the same units), the
traced output's sha256 equals the untraced one, and the exact counts
repeat between the two traced runs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run

run.prepare()

import bench  # noqa: E402  (needs the thread pinning above)
import tracing  # noqa: E402

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SEED = 3


def _declared(section: str) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _quick(workload: bench.Workload) -> bench.Workload:
    return dataclasses.replace(workload, epochs_i=1, epochs_p=1)


def _check_result(result: dict, declared: dict[str, str]) -> None:
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared, (sorted(set(emitted) ^ set(declared)),
                                 emitted)


def test_workloads_match_spec():
    spec = json.loads(SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_every_path():
    end_to_end = _declared("end_to_end")
    per_layer = _declared("per_layer")
    for workload in map(_quick, bench.WORKLOADS.values()):
        plain, detail = bench.run(workload, SEED, 0.0, trace=False)
        _check_result(plain, end_to_end)
        traced, traced_detail = bench.run(workload, SEED, 0.0, trace=True)
        _check_result(traced, per_layer)
        assert (traced_detail["output_sha256_traced"]
                == detail["output_sha256"]), workload.name
        again, _ = bench.run(workload, SEED, 0.0, trace=True)
        for name in tracing.EXACT_COUNTS:
            assert (again["metrics"][name]["value"]
                    == traced["metrics"][name]["value"]), (workload.name,
                                                           name)


if __name__ == "__main__":
    test_workloads_match_spec()
    test_every_path()
    print("perfbench self-check passed")
    sys.exit(0)
