"""Run one benchmark workload in this process and print its record and result.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
count pinned and ``src`` on the import path. It prints two JSON lines: the
run record (environment, retrieval quality and every timing sample) and the
result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from plcd import dataspace

import layers
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import WORKLOADS, Tally, timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plcd"
SETUP_REPEATS = 11  # at least this many set-ups in an untraced run
SETUP_SHARE = 0.05  # and after each pass, set-ups up to this share of pass time
HOST_SHARE = 0.3  # calibration time after each timed step, as a share of it

# setup_s: median of the set-ups; chain_s: median wall time of the timed
# passes; both scaled by the run's host speed factor (see hostspeed.py).
# peak_rss_mb: this process's peak resident set after the passes;
# pass_ratio: operations and output checks that passed, over those attempted.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "chain_s", "unit": "s", "better": "lower"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
    {"name": "pass_ratio", "unit": "fraction", "better": "higher"},
]


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": _openblas_version(), "commit": _git_commit(),
        "src_sha256": digest.hexdigest(), "src_plcd_lines": lines,
    }


def run(workload: str, seed: int, seconds: int, trace: bool,
        workdir: Path) -> tuple[dict, dict]:
    """Returns the result object, and the retrieval quality of the last pass
    with every raw timing sample and the host speed factor, for the run
    record."""
    wl = WORKLOADS[workload](seed, workdir)
    tally = Tally()
    host = HostSpeed(HOST_SHARE)

    def setup() -> float:
        setup_s = timed(wl.setup)[1]
        if not trace:
            host.after_step(setup_s)
        return setup_s

    setup_times = [setup()]
    if trace:
        # The overhead reference is an untraced set-up and cycle made in this
        # process, each pass just before its traced twin, so that both halves
        # see the same host. An untimed pass first takes the process's cold
        # start, which would otherwise fall on the untraced half.
        wl.run_pass(tally)
        tracer = Tracer(run_id=f"{workload}-seed{seed}")

        @contextmanager
        def tracing():
            layers.install(tracer, dataspace.infer_visible_facet, wl.cfg.num_sections)
            try:
                yield
            finally:
                tracer.unwrap()

        untraced_s = timed(wl.setup)[1]
        with tracing():
            traced_s = timed(wl.setup)[1]
        for _ in range(wl.cycle):
            untraced_s += wl.run_pass(tally)
            with tracing():
                traced_s += wl.run_pass(tally, tracer)
        passes = [traced_s]
        trace_dir = ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{workload}-seed{seed}.json")
    else:
        # Passes run until ``seconds`` are used, at least one cycle, and none
        # starts that the median pass so far says would end past ``seconds``.
        # The host is calibrated after every timed step, set-ups included.
        wl.after_step = host.after_step
        passes = []
        start = time.perf_counter()
        while (len(passes) < wl.cycle or time.perf_counter() - start
               + statistics.median(passes) <= seconds):
            passes.append(wl.run_pass(tally))
            # Set-ups are spread over the run like the passes, so that
            # setup_s and chain_s are taken on the same host conditions.
            while sum(setup_times) < SETUP_SHARE * sum(passes):
                setup_times.append(setup())
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup())
    # Read before the checks, which re-rank and would add their own peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality = wl.check(tally)
    if trace:
        metrics = layers.per_layer_metrics(tracer, untraced_s, traced_s, quality)
    else:
        values = {"setup_s": statistics.median(setup_times) * host.factor,
                  "chain_s": statistics.median(passes) * host.factor,
                  "peak_rss_mb": peak_rss_mb,
                  "pass_ratio": (tally.attempted - tally.failed) / tally.attempted}
        units = {spec["name"]: spec["unit"] for spec in END_TO_END}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    samples = {"setup_s": setup_times, "chain_s": passes}
    if not trace:
        samples.update(host_factor=host.factor, calibration_chunks=host.chunks,
                       calibration_s=host.busy_s)
    return result, {"quality": quality, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result, extra = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record, **extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
