"""Harness self-check: one traced round of every workload at tiny sizes.

    python3 sfbench/selfcheck.py        # from the root of a source checkout

Asserts that job lists are reproducible from their seed, that every job is
correct, that every layer emits at least one span in some workload, that the
traced spans cover the job wall time, and that the metric names agree with
BENCHMARK.json. Prints the tracing overhead of each workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads

COVERAGE_SLACK = 0.1


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        a = workloads.make_plan(name, 5, "root", tiny=True)
        b = workloads.make_plan(name, 5, "root", tiny=True)
        c = workloads.make_plan(name, 6, "root", tiny=True)
        if a.rounds != b.rounds or any(not (x.values == y.values).all()
                                       for x, y in zip(a.files, b.files)):
            problems.append(f"{name}: job list differs between two plans of seed 5")
        if a.rounds == c.rounds:
            problems.append(f"{name}: seeds 5 and 6 give the same job list")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seen, layer_names = set(), None
    for name in workloads.WORKLOADS:
        out = run.measure(name, seed=5, seconds=0, trace=True, tiny=True, max_rounds=1)
        result = out["result"]
        if not result["correct"]:
            problems.append(f"{name}: {out['report']['failures']}")
            continue
        metrics = result["metrics"]
        layer_names = list(metrics)
        for traced in out["traced"]:
            seen.update(run.layer_of(span[0]) for span in traced.spans["spans"])
        if metrics["operators.write.calls"]["value"] > 0:
            seen.add("operators.write")
        coverage = metrics["trace.coverage"]["value"]
        if abs(coverage - 1.0) > COVERAGE_SLACK:
            problems.append(f"{name}: trace.coverage {coverage:.3f} not within "
                            f"{COVERAGE_SLACK} of 1")
        print(f"{name}: {result['attempted']} jobs, trace.coverage {coverage:.3f}, "
              f"trace.overhead_ratio {metrics['trace.overhead_ratio']['value']:.3f}")
    missing = sorted((set(run.LAYERS) | {"operators.write"}) - seen)
    if missing:
        problems.append(f"layers without a span in any workload: {missing}")

    if layer_names is not None and sorted(layer_names) != sorted(
            m["name"] for m in spec["per_layer"]):
        problems.append("per-layer metric names differ from BENCHMARK.json")
    untraced = run.measure("desk", seed=5, seconds=0, trace=False, tiny=True, max_rounds=1)
    if sorted(untraced["result"]["metrics"]) != sorted(m["name"] for m in spec["end_to_end"]):
        problems.append("end-to-end metric names differ from BENCHMARK.json")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
