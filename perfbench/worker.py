"""One fresh benchmark process.

Imports edsim from the checkout's `src/` and builds the seeded inputs; with
--setup-only it stops there and prints the CPU time that took, raw and
normalised by the reference kernel run right after it. Otherwise
it drives `edsim.cli.main(argv)` in a closed loop, one command at a time,
repeating the workload's pass while another pass fits in --seconds (at
least one pass), checks every output against its closed form, and prints
one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_GAP_S = 0.5       # least wall time between two runs of the reference kernel
SETUP_REFERENCE_RUNS = 3    # kernel runs right after a set-up, to scale its CPU time


def outcomes(cmd, status, base: Path) -> list[bool | None]:
    """Per-result outcome: True if it matches its closed form, False if it
    misses it, None if its command exited nonzero or raised, or an output
    file is missing."""
    if status != 0:
        return [None] * cmd.results
    try:
        summary = json.loads(Path(f"{base}.json").read_text(encoding="utf-8"))
        written = all(Path(f"{base}{ext}").stat().st_size > 0 for ext in (".csv", ".meta.json"))
    except (OSError, ValueError):
        return [None] * cmd.results
    docs = summary.get("rows", []) if cmd.sweep else [summary]
    if not written or len(docs) != cmd.results:
        return [None] * cmd.results
    return [all(e.holds(doc) for e in expects) for doc, expects in zip(docs, cmd.expects)]


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    return {"value": sorted(latencies)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def drive(cli, commands, seconds: float, tmp: Path) -> dict:
    """Run whole passes while the next one still fits in `seconds` (at least
    one). Each command is timed in wall time and in this process's CPU time;
    the reference kernel runs at the start, at the end, and between
    commands once REFERENCE_GAP_S has passed since its last run."""
    import reference  # after set-up, which it is no part of

    walls: list[float] = []
    cpus: list[float] = []
    refs = [reference.cpu_time()]
    ref_before: list[int] = []   # per command, the reference run just before it
    attempted = failed = known_misses = bytes_out = 0
    errors: dict[str, str] = {}
    start = last_ref = time.perf_counter()
    last_pass = 0.0
    while not walls or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for i, cmd in enumerate(commands):
            base = tmp / f"c{i}"
            out, err = io.StringIO(), io.StringIO()
            ref_before.append(len(refs) - 1)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = cli.main([*cmd.argv, "--out", str(base)])
            except Exception as exc:  # a raising command is a failed result, not a crash
                status = f"{type(exc).__name__}: {exc}"
            cpus.append(time.process_time() - c0)
            walls.append(time.perf_counter() - t0)

            ok = outcomes(cmd, status, base)
            attempted += len(ok)
            # a known defect is a miss of the closed form; a command that
            # errors or writes no output is a failure whatever it runs
            misses = ok.count(False)
            broken = ok.count(None)
            if cmd.known_defect:
                known_misses += misses
                failed += broken
            else:
                failed += misses + broken
            if (misses or broken) and cmd.label not in errors:
                errors[cmd.label] = (err.getvalue().strip() if broken else
                                     f"{misses}/{len(ok)} results miss the closed form")
                if cmd.known_defect:
                    errors[cmd.label] += f"; known defect: {cmd.known_defect}"
            bytes_out += len(out.getvalue().encode()) + sum(
                p.stat().st_size for p in tmp.glob(f"{base.name}.*")
            )
            if time.perf_counter() - last_ref >= REFERENCE_GAP_S:
                refs.append(reference.cpu_time())
                last_ref = time.perf_counter()
        last_pass = time.perf_counter() - pass_start
    if ref_before[-1] == len(refs) - 1:  # no kernel run after the last command yet
        refs.append(reference.cpu_time())

    # each command's CPU time at the machine speed the kernel around it saw
    norms = [cpu * 2.0 * reference.NOMINAL_S / (refs[k] + refs[k + 1])
             for cpu, k in zip(cpus, ref_before)]
    n = len(commands)
    pass_norms = [sum(norms[i:i + n]) for i in range(0, len(norms), n)]
    pass_walls = [sum(walls[i:i + n]) for i in range(0, len(walls), n)]
    return {
        "passes": len(pass_walls),
        "pass_norm_s": statistics.median(pass_norms),
        "results_per_norm_s": attempted / sum(norms),
        "op_p50_norm_s": statistics.median(norms),
        "op_tail_norm_s": tail(norms),
        "pass_cpu_s": statistics.median(sum(cpus[i:i + n]) for i in range(0, len(cpus), n)),
        "op_p50_cpu_s": statistics.median(cpus),
        "pass_wall_s": statistics.median(pass_walls),
        "op_p50_wall_s": statistics.median(walls),
        "reference_cpu_s": statistics.median(refs),
        "reference_runs": len(refs),
        "attempted": attempted,
        "failed": failed,
        "known_defect_misses": known_misses,
        "errors": errors,
        "bytes_out": bytes_out,
    }


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import edsim.cli as cli  # numpy comes with it
    import workloads

    commands = workloads.build(args.workload, args.seed)
    if args.setup_only:
        setup_cpu = time.process_time()  # CPU time since the process started
        import reference

        ref = statistics.median(reference.cpu_time() for _ in range(SETUP_REFERENCE_RUNS))
        print(json.dumps({"setup_cpu_s": setup_cpu,
                          "setup_norm_s": setup_cpu * reference.NOMINAL_S / ref}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        result = drive(cli, commands, args.seconds, Path(tmp))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    kinds: dict[str, dict] = {}
    for c in commands:
        kind = kinds.setdefault(c.label, {"count": 0, "results": 0})
        kind["count"] += 1
        kind["results"] += c.results
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.per_layer(result["passes"])
        result["spans"] = tracer.per_name()
        # the state dimension edsim propagated for each command (None: closed form)
        for i, dim in enumerate(tracer.top_level_dims()):
            kind = kinds[commands[i % len(commands)].label]
            kind["dim"] = max(kind.get("dim") or 0, dim) or None
    result["commands"] = kinds
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
