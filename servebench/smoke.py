#!/usr/bin/env python3
"""ctest smoke for bench_serve: every workload, small and short.

    python3 smoke.py BENCH_SERVE_BINARY

Runs each workload traced on a 3,000-node city for 2 s and fails unless the
run exits 0 with every answer correct, no request failed, and every metric
BENCHMARK.json lists (end_to_end and per_layer) present in its result.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (same directory)

WORKLOADS = [w["name"] for w in
             json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]


def main():
    binary = sys.argv[1]
    names = run.listed_metrics(0) + run.listed_metrics(1)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            result_path = Path(tmp) / f"{workload}.json"
            proc = subprocess.run(
                [binary, f"--workload={workload}", "--seed=7", "--seconds=2",
                 "--trace=1", "--nodes=3000",
                 f"--json={result_path}", f"--state-dir={Path(tmp) / 'state'}"],
                stdout=subprocess.DEVNULL, timeout=120)
            if proc.returncode != 0 or not result_path.is_file():
                failures.append(f"{workload}: exit {proc.returncode}")
                continue
            result = json.loads(result_path.read_text())
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{workload}: correct={result['correct']} "
                                f"failed={result['failed']}")
            missing = [n for n in names if n not in result["metrics"]]
            if missing:
                failures.append(f"{workload}: missing {missing}")
            print(f"{workload}: {result['attempted']} requests checked")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
