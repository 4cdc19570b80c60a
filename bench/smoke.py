#!/usr/bin/env python3
"""Self-check of the benchmark harness.

Runs every workload of BENCHMARK.json at minimal size (``--quick``), once
untraced and once traced, each in a fresh process, and checks that the
result line has exactly the keys correct, attempted, failed and metrics,
that every metric of BENCHMARK.json appears with its unit and a direction,
and that every output check passed.
Run from the repository root:

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        detail = json.loads(proc.stdout.strip().splitlines()[-2]).get("problems")
        problems.append(f"{where}: checks failed: {detail}")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: attempted {result.get('attempted')}, "
                        f"failed {result.get('failed')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        value = got.get(m["name"], {})
        if m["better"] not in ("higher", "lower"):
            problems.append(f"{m['name']}: direction {m['better']!r}")
        if value.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {value.get('unit')!r} != {m['unit']!r}")
        number = value.get("value")
        if not isinstance(number, (int, float)) or not math.isfinite(number):
            problems.append(f"{where}: {m['name']} value {number!r}")
        elif not trace and number <= 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is {number}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']:18s} trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
