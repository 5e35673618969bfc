"""Outside-in benchmark of edsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: edsim is imported from its `src/`, nothing is
installed, and scratch files go to a temporary directory inside the
checkout that is removed afterwards. Workloads (see workloads.py and
README.md): michelson, ramsey_sweep, ramsey_loss, cli_small.

--trace 0 measures the end-to-end metrics: set-up is timed in
SETUP_REPEATS fresh processes (median of their normalised CPU time), then
one fresh worker process runs the closed loop for S seconds. Every process
runs one thread, so on an idle machine CPU time is the time a user waits;
on a shared one it leaves out the time other tenants hold the CPU. The
worker's command times are also normalised by a reference kernel run
between commands (reference.py), which cancels the stretches in which the
shared machine runs slower. Raw CPU and wall times are in the run record.

--trace 1 runs an untraced and a traced worker for S/2 seconds each and
reports the per-layer metrics of the traced one, plus the tracing
overhead (traced minus untraced wall time of a pass).

Standard output ends with two JSON lines: the run record (environment,
seed, problem dimensions, source size, failures, tail latency, raw CPU
and wall times) and the result {"correct", "attempted", "failed",
"metrics"}. A result fails if its command errors, writes no output, or misses its closed
form. The one exception is a command marked as a known defect: its misses
of the closed form are counted in the record's `known_defect_misses`
instead. `correct` is true when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("michelson", "ramsey_sweep", "ramsey_loss", "cli_small")
SETUP_REPEATS = 9
DEADLINE_S = 170            # the whole run, set-up and workers included
BLAS_THREADS = 1            # one thread, so that CPU time is the time waited for

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_norm_s": "s",
    "results_per_norm_s": "1/s",
    "op_p50_norm_s": "s",
    "peak_rss_mb": "MB",
}


def worker_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def worker_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its wall time and the
    JSON object on the last line of its stdout. The child is killed if the
    run's deadline passes first."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(0.0, deadline - time.monotonic()))
    return time.perf_counter() - t0, json.loads(proc.stdout.strip().splitlines()[-1])


def run_worker(args, env, deadline: float, seconds: float, trace: bool) -> dict:
    extra = ["--seconds", repr(seconds)] + (["--trace"] if trace else [])
    return run_child(worker_argv(args, *extra), env, deadline)[1]


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "edsim").rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="edsim outside-in benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "edsim" / "__init__.py").is_file():
        print(f"no edsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one closed-loop caller in one thread
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(BLAS_THREADS)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = run_worker(args, env, deadline, args.seconds / 2.0, trace=False)
            traced = run_worker(args, env, deadline, args.seconds / 2.0, trace=True)
            runs = [plain, traced]
            layers = dict(traced["layers"])
            layers["cli.bytes_out"] = traced["bytes_out"] / traced["passes"]
            layers["trace.wall_s"] = traced["pass_wall_s"]
            layers["trace.overhead_s"] = traced["pass_wall_s"] - plain["pass_wall_s"]
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        else:
            setup_argv = worker_argv(args, "--setup-only")
            setup = [run_child(setup_argv, env, deadline) for _ in range(SETUP_REPEATS)]
            res = run_worker(args, env, deadline, float(args.seconds), trace=False)
            res["setup_wall_s"] = statistics.median(wall for wall, _ in setup)
            res["setup_cpu_s"] = statistics.median(out["setup_cpu_s"] for _, out in setup)
            runs = [res]
            values = {**res, "setup_s": statistics.median(out["setup_norm_s"] for _, out in setup)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    except subprocess.SubprocessError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    known_misses = sum(r["known_defect_misses"] for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **runs[-1]["environment"],
        "nproc": nproc,
        "thread_limit": BLAS_THREADS,
        "src_edsim_lines": source_lines(),
        "commands": runs[-1]["commands"],
        "passes": [r["passes"] for r in runs],
        "failed_ratio": (failed + known_misses) / attempted,
        "known_defect_misses": known_misses,
        "errors": runs[-1]["errors"],
        **{key: runs[-1].get(key) for key in ("op_tail_norm_s", "pass_cpu_s", "op_p50_cpu_s",
                                               "pass_wall_s", "op_p50_wall_s", "setup_wall_s",
                                               "setup_cpu_s",
                                               "reference_cpu_s", "reference_runs")},
    }
    if args.trace:
        record["spans"] = traced["spans"]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
