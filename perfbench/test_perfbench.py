"""Checks of the benchmark's own parts: seeded inputs, the output oracle,
the tracer, and the refusal to run without edsim sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
import run
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent


def _cli():
    sys.path.insert(0, str(worker.ROOT / "src"))
    import edsim.cli

    return edsim.cli


def _doc(expects) -> dict:
    """A summary that holds exactly the expected values."""
    doc: dict = {}
    for e in expects:
        *path, leaf = e.key.split(".")
        node = doc
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = e.value
    return doc


def _perturbed(e: oracle.Expect):
    if isinstance(e.value, bool):
        return not e.value
    return e.value + 2.0 * (e.atol + e.rtol * abs(e.value))


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        first = [c.argv for c in workloads.build(name, 7)]
        assert first == [c.argv for c in workloads.build(name, 7)]
        assert first != [c.argv for c in workloads.build(name, 8)]


def test_oracle_rejects_every_perturbed_field():
    for name in workloads.WORKLOADS:
        for cmd in workloads.build(name, 3):
            for expects in cmd.expects:
                doc = _doc(expects)
                assert all(e.holds(doc) for e in expects)
                for e in expects:
                    assert not e.holds(_doc([*expects, oracle.Expect(e.key, _perturbed(e))]))
                    assert not e.holds({})


def test_sampled_visibility_and_reduced_phase():
    assert abs(oracle.sampled_visibility(0.5, 0.0, 32) - 0.5) < 1e-15
    # off-grid phase: the scan misses the extrema, so the sampled contrast drops
    assert oracle.sampled_visibility(0.5, 3.14159 / 32, 32) < 0.5 - 1e-4
    assert abs(oracle.reduced_phase(7.0, 1.0) - (7.0 - 6.283185307179586)) < 1e-15
    assert 0.0 <= oracle.reduced_phase(1519267448810.0, 1.0) < 6.2832


def test_real_outputs_pass_and_a_perturbed_output_fails(tmp_path):
    commands = workloads.build("cli_small", 5)
    result = worker.drive(_cli(), commands, 0.0, tmp_path)
    assert result["passes"] == 1
    assert result["attempted"] == len(commands) and result["failed"] == 0
    # the reference kernel ran before and after the pass
    assert result["reference_runs"] >= 2 and result["pass_norm_s"] > 0.0

    cmd, base = commands[0], tmp_path / "c0"
    assert worker.outcomes(cmd, 0, base) == [True]
    assert worker.outcomes(cmd, 2, base) == [None]
    summary = json.loads(Path(f"{base}.json").read_text(encoding="utf-8"))
    e = cmd.expects[0][0]
    *path, leaf = e.key.split(".")
    node = summary
    for part in path:
        node = node[part]
    node[leaf] = _perturbed(e)
    Path(f"{base}.json").write_text(json.dumps(summary), encoding="utf-8")
    assert worker.outcomes(cmd, 0, base) == [False]


def test_sweep_rows_are_checked_one_by_one(tmp_path):
    cmd = workloads.build("ramsey_sweep", 1)[0]
    rows = [_doc(expects) for expects in cmd.expects]
    rows[3]["visibility"] = _perturbed(cmd.expects[3][0])
    base = tmp_path / "sweep"
    Path(f"{base}.json").write_text(json.dumps({"rows": rows}), encoding="utf-8")
    for ext in (".csv", ".meta.json"):
        Path(f"{base}{ext}").write_text("x", encoding="utf-8")
    ok = worker.outcomes(cmd, 0, base)
    assert ok.count(False) == 1 and not ok[3]


class _FakeCli:
    """Writes the expected rows of one sweep command, the fourth perturbed."""

    def __init__(self, cmd, status: int) -> None:
        self.cmd, self.status = cmd, status

    def main(self, argv) -> int:
        base = argv[-1]
        rows = [_doc(expects) for expects in self.cmd.expects]
        rows[3]["visibility"] = _perturbed(self.cmd.expects[3][0])
        Path(f"{base}.json").write_text(json.dumps({"rows": rows}), encoding="utf-8")
        for ext in (".csv", ".meta.json"):
            Path(f"{base}{ext}").write_text("x", encoding="utf-8")
        return self.status


def test_known_defect_misses_are_counted_apart_from_failures(tmp_path):
    sigma_sweep, detuning_sweep = workloads.build("ramsey_sweep", 1)
    assert detuning_sweep.known_defect and not sigma_sweep.known_defect

    result = worker.drive(_FakeCli(detuning_sweep, 0), [detuning_sweep], 0.0, tmp_path)
    assert (result["failed"], result["known_defect_misses"]) == (0, 1)
    result = worker.drive(_FakeCli(sigma_sweep, 0), [sigma_sweep], 0.0, tmp_path)
    assert (result["failed"], result["known_defect_misses"]) == (1, 0)
    # a known-defect command that errors fails every one of its results
    result = worker.drive(_FakeCli(detuning_sweep, 1), [detuning_sweep], 0.0, tmp_path)
    assert (result["failed"], result["known_defect_misses"]) == (detuning_sweep.results, 0)


def test_command_times_are_scaled_by_the_reference_kernel(tmp_path, monkeypatch):
    import reference

    # a machine on which the kernel takes twice its nominal time runs at half speed
    monkeypatch.setattr(reference, "cpu_time", lambda: 2.0 * reference.NOMINAL_S)
    sigma_sweep = workloads.build("ramsey_sweep", 1)[0]
    result = worker.drive(_FakeCli(sigma_sweep, 0), [sigma_sweep], 0.0, tmp_path)
    assert result["reference_runs"] == 2
    assert result["pass_norm_s"] == pytest.approx(result["pass_cpu_s"] / 2.0)
    assert result["op_p50_norm_s"] == pytest.approx(result["op_p50_cpu_s"] / 2.0)


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    child = tracer._wrap("x.child", lambda: time.sleep(0.01))
    parent = tracer._wrap("x.parent", lambda: (child(), child(), time.sleep(0.005)))
    parent()
    stats = tracer.per_name()
    p, c = stats["x.parent"], stats["x.child"]
    assert c["calls"] == 2 and p["calls"] == 1
    assert abs(p["self_s"] + c["time_s"] - p["time_s"]) < 1e-9
    assert 0.004 < p["self_s"] < p["time_s"]


def test_tracer_patches_every_importing_module(tmp_path):
    cli = _cli()
    import edsim.engine
    import edsim.interferometry

    original = edsim.engine.evolve_analytic
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert edsim.interferometry.evolve_analytic is edsim.engine.evolve_analytic
        assert edsim.interferometry.evolve_analytic is not original
        cmd = next(c for c in workloads.build("cli_small", 2) if c.label == "ramsey.semiclassical")
        assert cli.main([*cmd.argv, "--out", str(tmp_path / "r")]) == 0
    finally:
        tracer.uninstall()
    assert edsim.interferometry.evolve_analytic is original
    layers = tracer.per_layer(1)
    assert layers["cli.main.calls"] == 1
    assert layers["engine.evolve_analytic.calls"] == 1
    assert layers["engine.evolve_analytic.dim_max"] == 2
    assert tracer.top_level_dims() == [2]
    assert layers["interferometry.phase_points"] == workloads.PHASE_POINTS
    assert set(layers) | {"cli.bytes_out", "trace.wall_s", "trace.overhead_s"} == {
        name for name, _ in tracing.PER_LAYER
    }


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_edsim_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
