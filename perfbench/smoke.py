"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that ``workloads.json`` matches ``BENCHMARK.json`` and the
workloads.  Then, for each workload, it runs one untraced and one traced
round through ``run.py --smoke`` and checks that the result line names
every metric of ``BENCHMARK.json`` with its unit, that every answer passed
its check, and that both runs hash the same answers.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return details, result


def check(workload: str, spec: dict):
    digests = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        details, result = run(workload, trace)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise AssertionError(f"{workload}: result keys {sorted(result)}")
        if not result["correct"] or result["attempted"] < 1 or result["failed"]:
            raise AssertionError(f"{workload} trace {trace}: {details}")
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            raise AssertionError(f"{workload} trace {trace}: missing {missing}, extra {extra}, "
                                 f"wrong unit {wrong}")
        for name, m in result["metrics"].items():
            if not isinstance(m["value"], (int, float)):
                raise AssertionError(f"{workload}: {name} = {m['value']!r}")
        digests.append(details["digest"])
    if digests[0] != digests[1]:
        raise AssertionError(f"{workload}: untraced and traced runs hash different answers")
    print(f"{workload}: ok ({result['attempted']} cases)")


def check_records(spec: dict):
    """workloads.json agrees with BENCHMARK.json and with the workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    records = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if sorted(records) != sorted(w["name"] for w in spec["workloads"]):
        raise AssertionError(f"workloads.json names {sorted(records)}")
    layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, record in records.items():
        cases = len(workloads.WORKLOADS[name](0).round(0))
        samples = cases * record["min_rounds"]
        beyond = samples - math.ceil(record["case_tail_percentile"] / 100 * samples)
        if (cases, samples) != (record["cases_per_round"], record["case_tail_samples"]) or beyond < 10:
            raise AssertionError(f"{name}: {cases} cases a round, {beyond} beyond the tail")
        for metric, moves in record["layer_metrics"].items():
            if metric not in layer or not set(moves) <= end_to_end:
                raise AssertionError(f"{name}: unknown metric in {metric} -> {moves}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_records(spec)
    for workload in spec["workloads"]:
        check(workload["name"], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
