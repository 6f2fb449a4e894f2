#!/usr/bin/env python3
"""Runs one bench_serve workload and prints the benchmark's result line.

    python3 servebench/run.py --workload hot_closed --seed 1 --seconds 20 \
        --trace 0 [--json FILE]

Run from the repository root. The first run configures and builds
servebench/ (which compiles ../src) into .bench_build/servebench; later runs
only rebuild what changed. The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end_to_end metrics that
BENCHMARK.json lists with --trace 0, its per_layer metrics with --trace 1.
--json FILE also saves the full result (every metric, plus the run's
parameters) for compare.py.

Exits non-zero without a result line when the build or the run fails or a
listed metric is missing, and with the result line but exit code 1 when an
answer was wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds bench_serve; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_serve",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return BUILD / "bench_serve"


def run(binary, args):
    """Runs the binary once; returns (exit code, full result or None)."""
    result_path = BUILD / f"result.{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    sys.stdout.flush()
    proc = subprocess.run(
        [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
         f"--seconds={args.seconds}", f"--trace={args.trace}",
         f"--json={result_path}",
         f"--state-dir={BUILD / f'state.{os.getpid()}'}"],
        timeout=RUN_TIMEOUT_S)
    if not result_path.is_file():
        return proc.returncode, None
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return proc.returncode, result


def listed_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(result, names):
    """The result line's object; raises KeyError on a missing metric."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also save the full result here")
    args = parser.parse_args()

    try:
        names = listed_metrics(args.trace)
        binary = build()
        code, result = run(binary, args)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        fail(str(e))
    if result is None:
        fail(f"bench_serve exited with {code} and no result")
    try:
        line = result_line(result, names)
    except KeyError as e:
        fail(f"metric {e} missing from the result")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(line))
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
