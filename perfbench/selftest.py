"""Self-test of the benchmark harness: ``python3 perfbench/selftest.py``.

For each workload it makes two traced runs at ``--seconds 1`` (one block)
on a fixed seed and asserts that the outputs are correct, that every count
and ratio metric repeats exactly, that every metric name matches [A-Za-z0-9_.-]+, and that
0 <= self time <= total time holds for every recorded span.  One untraced run
per workload checks that the end-to-end metrics are those in BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_UNITS = ("count", "ratio", "bits")
SEED = 7


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_spans(workload: str) -> int:
    spans = json.loads((HERE / "out" / f"spans-{workload}-seed{SEED}.json").read_text())["spans"]
    for record, own in zip(spans, self_times(spans)):
        total = record[2] - record[1]
        if not -1e-6 <= own <= total + 1e-9:
            raise AssertionError(f"{workload}: span {record[0]} has self {own} and total {total}")
    return len(spans)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        first, second = run(workload, 1), run(workload, 1)
        n_spans = check_spans(workload)
        plain = run(workload, 0)
        for result in (first, second, plain):
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{workload}: incorrect output in a self-test run")
        if set(first["metrics"]) != per_layer or set(plain["metrics"]) != end_to_end:
            raise AssertionError(f"{workload}: metric names differ from BENCHMARK.json")
        for name, metric in first["metrics"].items():
            if not NAME.fullmatch(name):
                raise AssertionError(f"bad metric name {name!r}")
            if metric["unit"] in EXACT_UNITS and metric["value"] != second["metrics"][name]["value"]:
                raise AssertionError(
                    f"{workload}: {name} is {metric['value']} then {second['metrics'][name]['value']}"
                )
        print(f"{workload}: ok ({first['attempted']} ops, {n_spans} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
