"""Tests for config parsing, command dispatch, sweeps and file output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edsim import cli
from edsim.cli import ConfigError, parse_config
from edsim.constants import (
    DESIGN_MAX_GRID_AXIS,
    MAX_PHASE_POINTS,
    MICHELSON_MAX_CUTOFF,
    RAMSEY_MAX_CUTOFF,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_empty_file_with_command_override(self):
        cfg = parse_config("", [("command", "selftest")])
        assert cfg.command == "selftest"
        assert cfg.output_format == "json"

    def test_flag_overrides_file(self):
        cfg = parse_config("sigma = 1e-38\ncommand = ramsey\n", [("sigma", "1e-40")])
        assert cfg.parameters["sigma"] == 1e-40

    def test_unit_suffix_is_malformed(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("command = ramsey\nsigma = 1e-38s\n", [])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("command = ramsey\nwibble = 3\n", [])

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("sigma = 1e-38\n", [])

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ncommand = ghz\nn_atoms = 7\n"
        cfg = parse_config(text, [])
        assert cfg.parameters["n_atoms"] == 7

    def test_choice_validation(self):
        with pytest.raises(ConfigError, match="one of"):
            parse_config("command = ramsey\npartition = sideways\n", [])

    def test_defaults_filled(self):
        cfg = parse_config("command = ramsey\n", [])
        assert cfg.parameters["mode"] == "semiclassical"
        assert cfg.parameters["wait"] == 1.0
        assert "n_max" not in cfg.parameters  # no default: stays absent

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("command = ghz\nformat = xml\n", [])

    def test_sweep_parsed_into_config(self):
        cfg = parse_config("command = ghz\nsweep = n-atoms\nsweep_values = 2, 4\n", [])
        assert (cfg.sweep_key, cfg.sweep_values) == ("n_atoms", (2, 4))
        assert "sweep" not in cfg.parameters and "sweep_values" not in cfg.parameters
        assert parse_config("command = ghz\n", []).sweep_key is None


class TestRunCommands:
    @pytest.mark.parametrize("argv", [
        ["ramsey", "--wait", "0.5", "--sigma", "1e-34"],
        ["michelson", "--partition", "local", "--sigma", "1e-31"],
    ], ids=["ramsey", "michelson"])
    def test_ramsey_writes_deterministic_files(self, argv, tmp_path, capsys):
        blobs = []
        for attempt in (1, 2):
            base = tmp_path / f"r{attempt}"
            code, _, _ = _run(argv + ["--out", str(base)], capsys)
            assert code == 0
            blobs.append(
                (
                    (tmp_path / f"r{attempt}.json").read_bytes(),
                    (tmp_path / f"r{attempt}.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]
        assert (tmp_path / "r1.meta.json").exists()

    def test_decay_beyond_double_range_runs(self, capsys):
        argv = ["ramsey", "--mode", "semiclassical", "--gamma-sp", "1e300", "--wait", "1e10"]
        code, out, err = _run(argv, capsys)
        assert code == 0
        assert err == ""
        assert json.loads(out)["visibility"] == 0.0

    @pytest.mark.parametrize("mode", ["semiclassical", "quantized"])
    def test_gap_squared_beyond_double_range_runs(self, mode, capsys):
        # (1e200 rad/s)**2 overflows: the fringe decays fully, with no warning
        argv = ["ramsey", "--mode", mode, "--omega0", "1e200", "--sigma", "1e-31",
                "--partition", "local"]
        code, out, err = _run(argv, capsys)
        assert code == 0
        assert err == ""
        assert json.loads(out)["visibility"] == 0.0

    def test_csv_has_header_and_full_precision(self, tmp_path, capsys):
        base = tmp_path / "out"
        code, _, _ = _run(["ramsey", "--out", str(base)], capsys)
        assert code == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "phi,p_g"
        phi = float(lines[2].split(",")[0])
        assert phi == 2.0 * math.pi / 32.0  # 17 significant digits round-trip

    def test_json_round_trip(self, tmp_path, capsys):
        base = tmp_path / "d"
        code, _, _ = _run(["design", "--species", "Sr", "--out", str(base)], capsys)
        assert code == 0
        text = (tmp_path / "d.json").read_text()
        parsed = json.loads(text)
        assert parsed["closed_form"]["gamma_min"] == 1e-8
        assert parsed["closed_form"]["n_opt"] == 1e5
        redumped = json.dumps(parsed, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert redumped == text

    def test_design_requires_species_or_rates(self, capsys):
        code, _, err = _run(["design"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_design_unknown_species(self, capsys):
        code, _, err = _run(["design", "--species", "Xx"], capsys)
        assert code == 2
        assert "unknown species" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("flag,value", [
        ("--gamma-sp", "0.5"), ("--kappa", "3"), ("--k3", "1e-40"), ("--delta-e", "7"),
    ])
    def test_design_species_conflicting_key(self, flag, value, capsys):
        code, out, err = _run(["design", "--species", "Sr", flag, value], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError"
        assert repr(flag[2:].replace("-", "_")) in error["message"]

    def test_design_species_keys_equal_to_its_own(self, capsys):
        code, out, _ = _run(["design", "--species", "Sr", "--kappa", "1e-17", "--delta-e", "1"], capsys)
        assert code == 0
        assert json.loads(out)["closed_form"]["gamma_min"] == 1e-8

    def test_design_has_no_mass_key(self, capsys):
        code, _, err = _run(
            ["design", "--mass", "1", "--gamma-sp", "1e-3", "--kappa", "1e-17", "--k3", "1e-41"], capsys
        )
        assert code == 2
        assert "unknown key 'mass'" in json.loads(err)["error"]["message"]

    def test_design_explicit_rates(self, capsys):
        code, out, _ = _run(
            ["design", "--gamma-sp", "1e-3", "--kappa", "1e-17", "--k3", "1e-41"], capsys
        )
        assert code == 0
        assert json.loads(out)["closed_form"]["gamma_min"] == 1e-8

    def test_bounds_cosmic_value(self, capsys):
        code, out, _ = _run(
            ["bounds", "--cosmic", "--sigma", "5.391247e-44", "--age-years", "1e10"], capsys
        )
        assert code == 0
        de = json.loads(out)["cosmic"]["delta_e_ev"]
        assert 2e-3 <= de <= 10e-3

    def test_bounds_unbounded_sentinel(self, tmp_path, capsys):
        base = tmp_path / "b"
        code, out, _ = _run(["bounds", "--matterwave", "--sigma", "0", "--out", str(base)], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["matterwave"]["decoherence_length"] == "unbounded"
        assert "Infinity" not in (tmp_path / "b.json").read_text()
        assert "unbounded" in (tmp_path / "b.csv").read_text()

    def test_bounds_needs_selector(self, capsys):
        code, _, err = _run(["bounds"], capsys)
        assert code == 2
        assert "no bound selected" in json.loads(err)["error"]["message"]

    def test_bounds_distance_requires_gamma(self, capsys):
        code, _, err = _run(["bounds", "--distance"], capsys)
        assert code == 2
        assert "gamma" in json.loads(err)["error"]["message"]

    def test_unknown_flag_is_hard_error(self, capsys):
        code, _, err = _run(["ramsey", "--wibble", "3"], capsys)
        assert code == 2
        assert "unknown key" in json.loads(err)["error"]["message"]

    def test_global_invariance_through_cli(self, capsys):
        argv = ["ramsey", "--mode", "quantized", "--field", "fock", "--n", "12",
                "--partition", "global", "--wait", "1"]
        vis = []
        for sigma in ("0", "1e-30"):
            code, out, _ = _run(argv + ["--sigma", sigma], capsys)
            assert code == 0
            vis.append(json.loads(out)["visibility"])
        assert abs(vis[0] - vis[1]) <= 1e-9

    def test_config_file_yields_same_run(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("wait = 0.5\nsigma = 1e-34\n")
        code1, out1, _ = _run(["ramsey", "--config", str(cfgfile)], capsys)
        code2, out2, _ = _run(["ramsey", "--wait", "0.5", "--sigma", "1e-34"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_coherent_field_beyond_vacuum_underflow(self, capsys):
        # exp(-|alpha|^2/2) underflows above |alpha| ~ 38.6
        argv = ["ramsey", "--mode", "quantized", "--field", "coherent", "--alpha", "40"]
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        assert 0.99 < json.loads(out)["visibility"] <= 1.0

    @pytest.mark.parametrize("argv", [
        ["ramsey"],
        ["michelson"],
        ["ghz", "--sigma=1e-34"],
        ["design", "--species=Sr"],
        ["bounds", "--cosmic=true"],
        ["selftest", "--criteria=9"],
        ["selftest"],
        ["ghz", "--sweep=sigma", "--sweep-values=0,1e-34"],
    ], ids=["ramsey", "michelson", "ghz", "design", "bounds", "selftest", "selftest-all", "sweep"])
    def test_summary_names_command_and_parameters(self, argv, capsys):
        code, out, _ = _run(argv, capsys)
        assert code == 0
        summary = json.loads(out[out.index("{"):])  # after selftest's PASS lines
        pairs = [tuple(flag[2:].split("=", 1)) for flag in argv[1:]]
        expected = parse_config("", [("command", argv[0]), *pairs]).parameters
        assert (summary["command"], summary["parameters"]) == (argv[0], expected)

    def test_selftest_subset(self, capsys):
        code, out, _ = _run(["selftest", "--criteria", "9,11"], capsys)
        assert code == 0
        assert "PASS  9" in out and "PASS 11" in out

    @pytest.mark.parametrize("criteria", ["99", "3,99", ",", ""])
    def test_selftest_unknown_or_empty_criteria(self, criteria, capsys):
        # nothing runs: a config error, not a failed suite
        code, out, err = _run(["selftest", "--criteria", criteria], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError"
        assert "known ids: [1, 2, 3," in error["message"]
        assert ("[99]" in error["message"]) == ("99" in criteria)


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["ghz", "--sigma", "nan"],
        ["ramsey", "--wait", "inf"],
    ])
    def test_non_finite_value_rejected(self, argv, capsys):
        code, out, err = _run(argv, capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ConfigError"

    def test_failed_serialization_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        def nan_summary(params):
            return cli.ExperimentOutput([{"x": 1.0}], {"x": math.nan}, {})

        monkeypatch.setitem(cli._HANDLERS, "ghz", nan_summary)
        code, _, err = _run(["ghz", "--out", str(tmp_path / "B")], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_removes_earlier_files(self, tmp_path, capsys):
        (tmp_path / "B.json").mkdir()
        code, _, err = _run(["ghz", "--out", str(tmp_path / "B")], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["B.json"]

    def test_overflowing_pulse_duration_rejected(self, capsys):
        code, _, err = _run(["ramsey", "--mode", "quantized", "--coupling", "1e-320"], capsys)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["michelson", "--alpha", "1e200"],
        ["ramsey", "--mode", "quantized", "--field", "coherent", "--alpha", "1e200"],
    ], ids=["michelson", "ramsey"])
    def test_overflowing_fock_cutoff_rejected(self, argv, capsys):
        # |alpha|**2 overflows, so no Fock cutoff exists
        code, out, err = _run(argv, capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["ramsey", "--mode", "quantized", "--n-max", str(RAMSEY_MAX_CUTOFF + 1)],
        ["ramsey", "--mode", "quantized", "--n", str(RAMSEY_MAX_CUTOFF)],
        ["ramsey", "--phase-points", str(MAX_PHASE_POINTS + 1)],
        ["michelson", "--n-max", str(MICHELSON_MAX_CUTOFF + 1)],
        ["michelson", "--alpha", "15"],
        ["design", "--species", "Sr", "--grid-decades", "1",
         "--grid-points-per-decade", str(DESIGN_MAX_GRID_AXIS)],
    ], ids=["ramsey-n-max", "ramsey-n", "phase-points", "michelson-n-max", "michelson-alpha",
            "design-grid"])
    def test_oversized_problem_refused(self, argv, tmp_path, capsys):
        # each value is just above its limit, so a missing guard costs seconds, not gigabytes
        code, out, err = _run([*argv, "--out", str(tmp_path / "B")], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ValueError"
        assert "exceeds the limit" in error["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [MemoryError, RuntimeError, FloatingPointError])
    def test_any_exception_is_one_json_line(self, error, monkeypatch, capsys):
        def failing(params):
            raise error("handler failed")

        monkeypatch.setitem(cli._HANDLERS, "ghz", failing)
        code, out, err = _run(["ghz"], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {"type": error.__name__, "message": "handler failed"}

    @pytest.mark.parametrize("compute", [
        lambda: np.float64(1e308) * 10,
        lambda: np.float64(1.0) / np.float64(0.0),
        lambda: np.float64(np.inf) - np.float64(np.inf),
    ], ids=["over", "divide", "invalid"])
    def test_numpy_float_error_is_one_json_line(self, compute, monkeypatch, capsys):
        def handler(params):
            compute()
            return cli.ExperimentOutput([], {}, {})

        monkeypatch.setitem(cli._HANDLERS, "ghz", handler)
        code, out, err = _run(["ghz"], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "FloatingPointError"

    def test_numpy_underflow_is_ignored(self, monkeypatch, capsys):
        def handler(params):
            tiny = np.float64(1e-300) * np.float64(1e-300)
            return cli.ExperimentOutput([], {"tiny": float(tiny)}, {})

        monkeypatch.setitem(cli._HANDLERS, "ghz", handler)
        code, out, err = _run(["ghz"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["tiny"] == 0.0


class TestFrontEnd:
    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["ramsey", "--sigma", "1", "--help"]])
    def test_help_prints_usage(self, argv, capsys):
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: edsim <command>")
        for command, schema in cli.SCHEMAS.items():
            assert f"\n{command}:\n" in out
            for key, spec in schema.items():
                assert f"--{key.replace('_', '-')} " in out
                assert spec.help in out

    @pytest.mark.parametrize("argv", [[], ["--out", "B", "ramsey"]], ids=["empty", "flag_first"])
    def test_command_must_come_first(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError"
        assert "command" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_trailing_flag_needs_value(self, capsys):
        code, out, err = _run(["ramsey", "--out"], capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError"
        assert "needs a value" in error["message"]

    def test_equals_form_matches_spaced_form(self, tmp_path, capsys):
        spaced = _run(["ghz", "--sigma", "1e-34", "--out", str(tmp_path / "s")], capsys)
        joined = _run(["ghz", "--sigma=1e-34", f"--out={tmp_path / 'j'}"], capsys)
        assert spaced == joined
        assert spaced[0] == 0
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"s{suffix}").read_bytes()
                    == (tmp_path / f"j{suffix}").read_bytes())

    def test_config_with_sweep(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("wait = 0.5\nn_atoms = 4\n")
        code, out, err = _run(
            ["ghz", "--config", str(cfgfile), "--sweep", "sigma", "--sweep-values=0,1e-34"], capsys
        )
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert summary["parameters"]["wait"] == 0.5
        assert summary["parameters"]["n_atoms"] == 4
        assert [r["sigma"] for r in summary["rows"]] == [0.0, 1e-34]

    def test_front_end_keys_from_config_file(self, tmp_path, capsys, monkeypatch):
        # a file may carry every front-end key but --config itself
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(
            "n_atoms = 4\nsweep = sigma\nsweep_values = 0,1e-36,1e-34\nformat = csv\nout = file\n"
        )
        from_file = _run(["ghz", "--config", "run.cfg"], capsys)
        from_flags = _run(["ghz", "--n-atoms", "4", "--sweep", "sigma", "--sweep-values",
                           "0,1e-36,1e-34", "--format", "csv", "--out", "flags"], capsys)
        assert from_file == from_flags
        assert from_file[0] == 0
        assert from_file[1].startswith("sigma,coherence,")
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"file{suffix}").read_bytes()
                    == (tmp_path / f"flags{suffix}").read_bytes())

    def test_config_file_cannot_name_a_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("config = other.cfg\n")
        code, out, err = _run(["ghz", "--config", str(cfgfile)], capsys)
        assert (code, out) == (2, "")
        assert "unknown key 'config'" in json.loads(err)["error"]["message"]

    def test_rerun_over_longer_output_leaves_no_stale_tail(self, tmp_path, capsys):
        values = ",".join(f"{k}e-36" for k in range(12))
        argv = ["ghz", "--sweep", "sigma", "--sweep-values", values, "--out", str(tmp_path / "B")]
        assert _run(argv, capsys)[0] == 0
        assert _run(["ghz", "--out", str(tmp_path / "B")], capsys)[0] == 0
        assert _run(["ghz", "--out", str(tmp_path / "fresh")], capsys)[0] == 0
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"B{suffix}").read_bytes()
                    == (tmp_path / f"fresh{suffix}").read_bytes())

    def test_full_selftest_through_main(self, capsys):
        code, out, err = _run(["selftest"], capsys)
        assert (code, err) == (0, "")
        assert sum(line.startswith("PASS") for line in out.splitlines()) == 13

    def test_python_dash_m_process(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for argv, first_out in ((["ghz", "--sigma", "1e-34"], "{"), (["--help"], "usage: ")):
            proc = subprocess.run(
                [sys.executable, "-m", "edsim", *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.startswith(first_out)


class TestSweep:
    def test_sigma_sweep_monotone_visibility(self, capsys):
        code, out, _ = _run(
            ["ramsey", "--sweep", "sigma", "--sweep-values", "0,1e-36,1e-34"], capsys
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["sigma"] for r in rows] == [0.0, 1e-36, 1e-34]
        vis = [r["visibility"] for r in rows]
        assert vis[0] >= vis[1] >= vis[2]

    def test_single_element_sweep_matches_run(self, capsys):
        code, out, _ = _run(["ghz", "--sweep", "sigma", "--sweep-values", "1e-34"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        code2, out2, _ = _run(["ghz", "--sigma", "1e-34"], capsys)
        assert code2 == 0
        summary = json.loads(out2)
        assert row["coherence"] == summary["coherence"]
        assert row["effective_rate"] == summary["effective_rate"]

    def test_empty_sweep_errors(self, capsys):
        code, _, err = _run(["ramsey", "--sweep", "sigma", "--sweep-values", ""], capsys)
        assert code == 2
        assert "non-empty" in json.loads(err)["error"]["message"]

    def test_non_numeric_target_errors(self, capsys):
        code, _, err = _run(
            ["ramsey", "--sweep", "partition", "--sweep-values", "global,local"], capsys
        )
        assert code == 2
        assert "not numeric" in json.loads(err)["error"]["message"]


class TestSpeciesTable:
    def test_strontium_entry(self):
        entry = cli.SPECIES["Sr"]
        assert entry.params.gamma_sp == 1e-3
        assert entry.params.delta_e == 1.0
        assert entry.params.kappa == 1e-17
        assert entry.params.k3 == 1e-41
        assert "order-of-magnitude" in entry.provenance
