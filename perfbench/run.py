"""Benchmark entry point for the plcd pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The workload (see ``workloads.py``) runs in
one fresh child interpreter with BLAS pinned to ``BLAS_THREADS`` threads,
``src`` on its import path and one caller issuing one call at a time. Its
inputs come from ``--seed`` only. Timed passes repeat for about
``--seconds`` (at least one cycle of passes that covers every query) and
report medians, scaled by the run's host speed factor (``hostspeed.py``) so
that swings in the shared host's speed cancel out; the outputs of the last
cycle are then checked.

Standard output ends with two JSON lines: the run record (thread count,
nproc, numpy and OpenBLAS versions, commit, seed, ``src/plcd`` line count,
retrieval quality, every raw timing sample and the host speed factor) and
the result, ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced set-up and cycle, plus its overhead
over an untraced set-up and cycle made just before in the same process.
Scratch files and span files go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-chain", "retrieve-large", "sweep-iterative")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PLCD_OUTPUT_ROOT", None)  # every path the benchmark passes is absolute
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plcd" / "__init__.py").is_file():
        print(f"no plcd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{args.workload} failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print(f"malformed result keys {sorted(result)}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
