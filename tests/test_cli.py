"""Tests for config parsing, command dispatch, sweeps and file output."""

import cmath
import csv
import errno
import io
import itertools
import json
import math
import os
import runpy
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edsim import cli, selftest
from edsim.cli import ConfigError, parse_config
from edsim.core import DensityMatrix
from edsim.interferometry import EXPERIMENTS, DecoherencePartition, GhzResult, MichelsonResult
from edsim.constants import (
    C_LIGHT,
    DESIGN_MAX_GRID_AXIS,
    MAX_PHASE_POINTS,
    PLANCK_TIME,
    RAMSEY_MAX_CUTOFF,
)
from edsim.sensitivity import (
    DesignRates,
    DesignResult,
    DistanceReach,
    MatterWaveBound,
    default_design_grids,
    ghz_design,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# 2*pi to 50 digits: reduces phases of 1e12 rad well below 1e-9
TWO_PI = Fraction("6.28318530717958647692528676655900576839433879875021")

# the bounds command's flags, in the order its outputs list them
BOUNDS = ("single_atom", "matterwave", "distance", "cosmic")




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
        # a key without a default stays absent
        assert "gamma" not in parse_config("command = bounds\n", []).parameters

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("command = ghz\nformat = xml\n", [])

    @pytest.mark.parametrize("text, overrides, message", [
        ("command = ghz\nn_atoms 7\n", [], "^config line 2: expected 'key = value'$"),
        ("", [("command", "teleport")], "^unknown command 'teleport'; choose from"),
    ], ids=["line-without-equals", "unknown-command"])
    def test_refused_config(self, text, overrides, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text, overrides)

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

    @pytest.mark.parametrize("decades, per_decade", [(5, 1), (3, 5), (6, 50), (0, 10), (6, 0), (0.01, 50)])
    def test_design_grid_contains_the_optimum(self, decades, per_decade, capsys):
        # an odd decades*per_decade used to give an even count, which misses
        # the center, and a one-point grid used to be the low edge
        n_grid, v_grid = default_design_grids(cli.SPECIES["Sr"], decades, per_decade)
        closed = ghz_design(cli.SPECIES["Sr"])
        assert closed.n_opt in n_grid and closed.v_opt in v_grid
        code, out, _ = _run(["design", "--species", "Sr", "--grid-decades", str(decades),
                             "--grid-points-per-decade", str(per_decade)], capsys)
        assert code == 0
        assert json.loads(out)["relative_difference"]["gamma_min"] <= 1e-12

    def test_design_grid_reaching_past_double_range(self, capsys):
        # the default grid runs three decades past v_opt = 1e152, where v*v
        # overflows; that cell's cost is inf and never wins, so the grid
        # finds the closed form's point instead of numpy's unnamed overflow
        code, out, err = _run(["design", "--gamma-sp", "1e-30", "--kappa", "1e122", "--k3", "1"], capsys)
        assert (code, err) == (0, "")
        grid = json.loads(out)["grid"]
        assert (grid["n_opt"], grid["v_opt"], grid["gamma_min"]) == (1e137, 1e152, 1e-167)

    def test_ghz_zero_wait_with_infinite_rate(self, capsys):
        # an infinite rate times a zero wait used to print NaN
        code, out, _ = _run(["ghz", "--sigma", "1e300", "--omega0", "1e300", "--wait", "0"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert (summary["coherence"], summary["survival"]) == (0.5, 1.0)
        assert summary["effective_rate"] == "unbounded"

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

    def test_bounds_matterwave_sigma_zero_with_overflowing_mass(self, capsys):
        # sigma = 0 is no dephasing even where (m*c**2/hbar)**2 overflows; 0 * inf was NaN
        code, out, err = _run(["bounds", "--matterwave", "--mass", "1e300", "--sigma", "0"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["matterwave"] == {
            "rate": 0.0, "decoherence_length": "unbounded", "excluded": False,
        }

    def test_bounds_needs_selector(self, capsys):
        code, _, err = _run(["bounds"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "ConfigError",
            "message": "no bound selected; pass at least one of --single-atom --matterwave --distance --cosmic",
        }

    @pytest.mark.parametrize("names", [s for r in range(1, 5) for s in itertools.combinations(BOUNDS, r)],
                             ids="+".join)
    def test_bounds_subset_joins_its_single_bounds_in_order(self, names, capsys):
        def run(selected, *extra):
            flags = [f"--{name.replace('_', '-')}" for name in selected]
            code, out, err = _run(["bounds", *flags, "--gamma", "1e-10", *extra], capsys)
            assert (code, err) == (0, "")
            return out

        singles = {name: json.loads(run([name])) for name in names}
        summary = json.loads(run(names))
        assert {k: summary["parameters"].pop(k) for k in BOUNDS} == {k: k in names for k in BOUNDS}
        for single in singles.values():
            assert all(single["parameters"].pop(k) == (k in single) for k in BOUNDS)
        assert summary == {k: v for name in names for k, v in singles[name].items()}
        header, *rows = run(names, "--format", "csv").splitlines()
        single_csvs = [run([name], "--format", "csv").splitlines() for name in names]
        assert {lines[0] for lines in single_csvs} == {header} == {"bound,quantity,value"}
        assert rows == [row for lines in single_csvs for row in lines[1:]]
        # a one-value sweep's row holds every selected quantity, in the same order
        keys = ["_".join(row.split(",")[:2]) for row in rows]
        sweep = ["--sweep", "sigma", "--sweep-values", repr(PLANCK_TIME)]
        assert run(names, *sweep, "--format", "csv").splitlines()[0] == ",".join(["sigma", *keys])
        [row] = json.loads(run(names, *sweep))["rows"]
        values = {f"{name}_{q}": v for name in names for q, v in singles[name][name].items()}
        assert row == {"sigma": PLANCK_TIME, **values}

    @pytest.mark.parametrize("argv, selected", [
        (["bounds", "--cosmic", "false", "--single-atom"], ["single_atom"]),
        (["bounds", "--cosmic=no", "--single-atom", "--matterwave=0"], ["single_atom"]),
        (["bounds", "--cosmic", "YES"], ["cosmic"]),
    ])
    def test_bounds_explicit_booleans(self, argv, selected, capsys):
        # an explicit false deselects its bound beside another selector
        code, out, _ = _run(argv, capsys)
        assert code == 0
        summary = json.loads(out)
        assert [k for k in ("single_atom", "matterwave", "distance", "cosmic") if k in summary] == selected

    @pytest.mark.parametrize("mode", ["semiclassical", "quantized"])
    def test_ramsey_partition_none_is_no_dephasing(self, mode, capsys):
        runs = [_run(["ramsey", "--mode", mode, "--wait", "1", *flags], capsys)
                for flags in (["--partition", "none", "--sigma", "1e-30"], ["--sigma", "0"])]
        assert [code for code, _, _ in runs] == [0, 0]
        fringes = [{k: v for k, v in json.loads(out).items() if k != "parameters"} for _, out, _ in runs]
        assert fringes[0] == fringes[1]
        assert fringes[0]["visibility"] == 1.0

    def test_bounds_distance_with_subnormal_gamma_sp_square(self, capsys):
        # gamma_sp**2 underflows to 0 here, but c*gamma/gamma_sp**2 is a double;
        # this used to be refused
        code, out, err = _run(["bounds", "--distance", "--gamma", "1e-300", "--gamma-sp", "1e-200"], capsys)
        assert (code, err) == (0, "")
        exact = Fraction(C_LIGHT) * Fraction(1e-300) / Fraction(1e-200) ** 2
        assert abs(Fraction(json.loads(out)["distance"]["l_decoherence"]) / exact - 1) <= 1e-15

    @pytest.mark.parametrize("argv, family, name", [
        pytest.param(argv, family, name, id=f"{family}-{name}")
        for argv, family, names in [
            (["ramsey", "--mode", "semiclassical"], "ramsey_semiclassical",
             ("global", "local", "atom", "none", "field")),
            (["ramsey", "--mode", "quantized"], "ramsey_quantized",
             ("global", "local", "atom", "field", "none")),
            (["michelson"], "michelson", ("global", "local", "none")),
            (["ghz"], "ghz", (None,)),  # no --partition: one block over its labels
        ]
        for name in names
    ])
    def test_each_partition_choice_gives_its_constructors_blocks(
            self, argv, family, name, monkeypatch, capsys):
        seen, runner = [], f"run_{family}"
        real = getattr(cli, runner)
        monkeypatch.setattr(cli, runner, lambda cfg: seen.append(cfg) or real(cfg))
        flag = [] if name is None else ["--partition", name]
        code, _, err = _run([*argv, *flag, "--sigma", "1e-33"], capsys)
        labels, _ = EXPERIMENTS[family]
        expected = {
            None: DecoherencePartition.global_over(1e-33, *labels),
            "global": DecoherencePartition.global_over(1e-33, *labels),
            "local": DecoherencePartition.local_over(1e-33, *labels),
            "none": DecoherencePartition(1e-33, ()),
        }.get(name, DecoherencePartition(1e-33, (frozenset({name}),)))
        assert [cfg.decoherence.blocks for cfg in seen] == [expected.blocks]
        if (family, name) == ("ramsey_semiclassical", "field"):  # the classical field cannot dephase
            assert code == 2
            assert json.loads(err)["error"] == {
                "type": "ValueError", "message": "unsupported dephasing block ['field']"}
        else:
            assert (code, err) == (0, "")

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

    def test_coherent_field_at_alpha_130(self, capsys):
        # log weights summed along n used to fail the cutoff's norm check here
        argv = ["ramsey", "--mode", "quantized", "--field", "coherent", "--alpha", "130"]
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        assert 0.0 < json.loads(out)["visibility"] <= 1.0

    def test_michelson_closed_form(self, capsys):
        # the balanced dark port is exactly dark, not a rounding-level -3.5e-17
        code, out, _ = _run(["michelson"], capsys)
        summary = json.loads(out)
        assert code == 0
        assert (summary["mean_photons_out_a"], summary["mean_photons_out_b"]) == (4.0, 0.0)
        # a laser-scale amplitude needs no Fock cutoff
        argv = ["michelson", "--alpha", "1e6", "--partition", "local", "--sigma", "1e-31"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        summary = json.loads(out)
        # the benchmark's edsim-free closed form, run apart from perfbench's own `oracle`
        photons = runpy.run_path(str(ROOT / "perfbench" / "oracle.py"))["michelson_photons"]
        want = photons(1e6, "local", 1e-31, summary["parameters"]["omega"], 1.0)
        for key, value in zip(("mean_photons_out_a", "mean_photons_out_b"), want):
            assert abs(summary[key] - value) <= 1e-12 * abs(value)
        code, _, err = _run(["michelson", "--n-max", "5"], capsys)
        error = json.loads(err)["error"]
        assert (code, error["type"]) == (2, "ConfigError")
        assert "unknown key" in error["message"]

    @pytest.mark.parametrize("argv", [
        ["ramsey"],
        ["michelson"],
        ["ghz", "--sigma=1e-34"],
        ["design", "--species=Sr"],
        ["bounds", "--cosmic=true"],
        ["selftest", "--criteria=9"],
        ["ghz", "--sweep=sigma", "--sweep-values=0,1e-34"],
    ], ids=["ramsey", "michelson", "ghz", "design", "bounds", "selftest", "sweep"])
    def test_summary_names_command_and_parameters(self, argv, capsys):
        code, out, _ = _run(argv, capsys)
        assert code == 0
        summary = json.loads(out)
        pairs = [tuple(flag[2:].split("=", 1)) for flag in argv[1:]]
        expected = parse_config("", [("command", argv[0]), *pairs]).parameters
        assert (summary["command"], summary["parameters"]) == (argv[0], expected)

    def test_selftest_subset(self, capsys):
        code, out, _ = _run(["selftest", "--criteria", "9,11"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert [(r["criterion"], r["passed"]) for r in results] == [(9, True), (11, True)]

    def test_selftest_csv_quotes_a_description_with_commas(self, tmp_path, capsys):
        # criterion 4's description holds two commas; each row keeps the header's width
        code, _, _ = _run(["selftest", "--criteria", "4,9", "--out", str(tmp_path / "st")], capsys)
        assert code == 0
        with open(tmp_path / "st.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [4, 4, 4]
        assert [row[1] for row in rows[1:]] == [text for cid, text, _ in selftest.CRITERIA if cid in (4, 9)]

    def test_csv_field_with_quote_or_line_break_reads_back(self):
        text = 'say "hi",\r\nthen\nleave'
        rows = list(csv.reader(io.StringIO(cli._csv_text([{"note": text, "value": 1.5}]), newline="")))
        assert rows == [["note", "value"], [text, "1.5"]]

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

    @pytest.mark.parametrize("argv, quantity", [
        ("bounds --single-atom --delta-e 1e-200", "(delta_e/hbar)**2"),
        ("bounds --cosmic --sigma 5e-324 --age-years 1e-10", "sigma*age"),
        # an overflow read as a 0 eV bound, or as an unbounded reach
        ("bounds --cosmic --sigma 1e200 --age-years 1e200", "sigma*age overflows to inf"),
        ("bounds --distance --gamma 1e301 --gamma-sp 1e-3 --coherence-time 1",
         "l_decoherence = c*gamma/gamma_sp**2 overflows to inf"),
        ("bounds --distance --gamma 1e-8 --gamma-sp 1e-3 --coherence-time 1e301",
         "l_laser = c*coherence_time overflows to inf"),
        ("design --gamma-sp 1e-200 --kappa 1e-17 --k3 1e-100", "gamma_min"),
        ("design --gamma-sp 1e-200 --kappa 1e-17 --k3 1e-200", "gamma_sp*k3"),
        ("bounds --matterwave --mass 1e-300 --sigma 1e-40", "sigma*(m*c**2/hbar)**2"),
        ("design --gamma-sp 1e-3 --kappa 1e-17 --k3 1e-41 --delta-e 1e-200", "(delta_e/hbar)**2"),
        ("ramsey --detuning 1e300 --wait 1e10", "detuning*wait"),
        ("ramsey --mode semiclassical --detuning 1e300 --wait 1e10", "detuning*wait"),
        ("design --gamma-sp 1e-30 --kappa 1e200 --k3 100", "n*v overflows to inf"),
        # a zero reach read as "every sigma is detectable"
        ("bounds --single-atom --delta-e 1e300", "gamma/(delta_e/hbar)**2 underflows to 0"),
        ("bounds --single-atom --gamma-detectable 1e-320", "gamma/(delta_e/hbar)**2 underflows to 0"),
        ("design --gamma-sp 1e-3 --kappa 1e-17 --k3 1e-41 --delta-e 1e300",
         "gamma/(delta_e/hbar)**2 underflows to 0"),
        # zero lengths read as "excluded at every scale" and "no reach"
        ("bounds --matterwave --mass 1e300 --sigma 1e-40", "decoherence_length"),
        ("bounds --distance --gamma 1e-320 --gamma-sp 1e10", "l_decoherence"),
        # an atom count no double holds used to be an unnamed OverflowError
        pytest.param("ghz --n-atoms 1" + "0" * 400, "n_atoms", id="ghz --n-atoms 10**400-n_atoms"),
        pytest.param("design --species Sr --grid-points-per-decade 1" + "0" * 400,
                     f"design grid axis limit {DESIGN_MAX_GRID_AXIS}",
                     id="design --grid-points-per-decade 10**400-grid axis limit"),
        # a species whose l_max overflowed printed "unbounded"
        ("design --gamma-sp 1e-150 --kappa 1e-150 --k3 1e150",
         "l_decoherence = c*gamma/gamma_sp**2 overflows to inf"),
        # grid cells past double range used to be numpy's unnamed overflow
        ("design --species Sr --grid-decades 700 --grid-points-per-decade 1", "decades=700.0"),
    ])
    def test_out_of_range_arithmetic_is_a_value_error(self, argv, quantity, capsys):
        # these divided by an underflowed 0 (ZeroDivisionError), failed
        # differently per mode on an overflowed phase, or hit numpy's
        # unnamed overflow in the design grid
        code, out, err = _run(argv.split(), capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ValueError"
        assert quantity in error["message"]

    @pytest.mark.parametrize("argv, message", [
        (["ramsey", "--n", "1.5"], "malformed integer for key 'n': '1.5'"),
        (["bounds", "--cosmic", "maybe"], "malformed boolean for key 'cosmic': 'maybe'"),
        (["ramsey", "--sweep", "sigma"], "sweeps need both --sweep KEY and --sweep-values V1,V2,..."),
        (["ramsey", "--sweep-values", "0,1"], "sweeps need both --sweep KEY and --sweep-values V1,V2,..."),
        (["ramsey", "--sweep", "wibble", "--sweep-values", "0,1"],
         "unknown sweep key 'wibble' for command 'ramsey'"),
        (["ramsey", "stray"], "unexpected argument 'stray'"),
        (["selftest", "--criteria", "1,x"], "malformed criteria list: '1,x'"),
    ], ids=["int", "bool", "sweep-without-values", "values-without-sweep", "sweep-key", "positional",
            "criteria"])
    def test_malformed_input_is_a_config_error(self, argv, message, capsys):
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {"type": "ConfigError", "message": message}

    def test_stdout_run_builds_only_the_printed_text(self, monkeypatch, capsys):
        # without --out, a JSON run builds no CSV and no meta text, a CSV run no JSON
        def refuse(*args):
            raise AssertionError("built a text that is not printed")

        monkeypatch.setattr(cli, "_csv_text", refuse)
        code, out, err = _run(["ramsey", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert set(json.loads(out)) == {"command", "parameters", "visibility"}
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_json_text", refuse)
        code, out, err = _run(["ramsey", "--format", "csv"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("phi,p_g\r\n")

    def test_failed_meta_text_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        # with --out, the meta text, built last, is built before any file opens
        json_text = cli._json_text

        def no_meta(obj):
            if "elapsed_seconds" in obj:
                raise ValueError("meta text refused")
            return json_text(obj)

        monkeypatch.setattr(cli, "_json_text", no_meta)
        code, out, err = _run(["ghz", "--out", str(tmp_path / "B")], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "meta text refused"
        assert list(tmp_path.iterdir()) == []

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

    @staticmethod
    def _fail_second_write(monkeypatch) -> list:
        """Make the CLI's write to the second file it opens raise ENOSPC;
        returns the list of paths it opens."""
        opened = []
        real_open, real_write = os.open, os.write

        def counting_open(path, *args):
            opened.append(path)
            return real_open(path, *args)

        def write(fd, data):
            if len(opened) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        monkeypatch.setattr(cli.os, "open", counting_open)
        monkeypatch.setattr(cli.os, "write", write)
        return opened

    def test_failed_write_on_second_file_removes_every_file(self, tmp_path, monkeypatch, capsys):
        opened = self._fail_second_write(monkeypatch)
        code, out, err = _run(["ghz", "--out", str(tmp_path / "B")], capsys)
        monkeypatch.undo()
        assert (code, out, len(opened)) == (2, "", 2)
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "OSError"
        assert list(tmp_path.iterdir()) == []

    def test_failed_rerun_leaves_no_file_of_the_earlier_run(self, tmp_path, monkeypatch, capsys):
        # a failed rerun has truncated some of the earlier run's files: the
        # whole set goes, so no BASE.meta.json of the sweep outlives it
        base = str(tmp_path / "B")
        argv = ["ghz", "--sweep", "sigma", "--sweep-values", "0,1e-36", "--out", base]
        assert _run(argv, capsys)[0] == 0
        assert json.loads((tmp_path / "B.meta.json").read_bytes())["sweep_key"] == "sigma"
        opened = self._fail_second_write(monkeypatch)
        code, out, err = _run(["ghz", "--out", base], capsys)
        monkeypatch.undo()
        assert (code, out, len(opened), len(err.splitlines())) == (2, "", 2, 1)
        assert list(tmp_path.iterdir()) == []

    def test_failure_before_the_first_open_keeps_the_earlier_run(self, tmp_path, monkeypatch, capsys):
        base = str(tmp_path / "B")
        assert _run(["ghz", "--out", base], capsys)[0] == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(*args):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(cli.os, "open", refuse)
        code, _, err = _run(["ghz", "--n-atoms", "3", "--out", base], capsys)
        monkeypatch.undo()
        assert (code, len(err.splitlines())) == (2, 1)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv", [
        ["ramsey", "--coupling", "1"],
        ["ramsey", "--n-max", "13"],
    ], ids=["coupling", "n-max"])
    def test_removed_ramsey_keys_are_unknown(self, argv, capsys):
        # the pulse strength cancels and the cutoff is the field's own
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError"
        assert "unknown key" in error["message"]

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
        ["ramsey", "--mode", "quantized", "--n", str(RAMSEY_MAX_CUTOFF)],
        ["ramsey", "--phase-points", str(MAX_PHASE_POINTS + 1)],
        ["design", "--species", "Sr", "--grid-decades", "1",
         "--grid-points-per-decade", str(DESIGN_MAX_GRID_AXIS + 1)],
        # decades*points_per_decade overflows to inf: the same refusal, not OverflowError
        ["design", "--species", "Sr", "--grid-decades", "1e308", "--grid-points-per-decade", "10"],
    ], ids=["ramsey-n", "phase-points", "design-grid", "design-grid-overflow"])
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

    @pytest.mark.parametrize("argv, config", [
        (["--out="], ""),
        (["--out", ""], ""),
        (["--config", "run.cfg"], "out =\n"),
        (["--out", "."], ""),
        (["--out", ".."], ""),
        (["--out", "sub/"], ""),
        (["--out", "sub/."], ""),
        (["--config", "run.cfg"], "out = ./\n"),
    ], ids=["flag-eq", "flag-value", "config-file", "dot", "dot-dot", "slash", "slash-dot",
            "config-file-dir"])
    def test_empty_out_is_refused(self, argv, config, tmp_path, monkeypatch, capsys):
        # an empty base is not "no --out": it would silently write nothing; a
        # base that names a directory would write files named by no one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(config)
        code, out, err = _run(["ghz", *argv], capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError" and "'out'" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_rerun_over_longer_output_leaves_no_stale_tail(self, tmp_path, capsys):
        values = ",".join(f"{k}e-36" for k in range(12))
        argv = ["ghz", "--sweep", "sigma", "--sweep-values", values, "--out", str(tmp_path / "B")]
        assert _run(argv, capsys)[0] == 0
        assert _run(["ghz", "--out", str(tmp_path / "B")], capsys)[0] == 0
        assert _run(["ghz", "--out", str(tmp_path / "fresh")], capsys)[0] == 0
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"B{suffix}").read_bytes()
                    == (tmp_path / f"fresh{suffix}").read_bytes())
        # the sweep's meta carries a sweep_key; the rerun's must not
        metas = [json.loads((tmp_path / f"{name}.meta.json").read_bytes()) for name in ("B", "fresh")]
        assert [m.pop("elapsed_seconds") > 0.0 for m in metas] == [True, True]
        assert metas[0] == metas[1] == {"command": "ghz"}

    def test_short_writes_give_the_same_files(self, tmp_path, monkeypatch, capsys):
        # os.write may write fewer bytes than asked; every byte must still go out
        argv = ["ramsey", "--mode", "quantized", "--sweep", "sigma", "--sweep-values", "0,1e-31"]
        assert _run([*argv, "--out", str(tmp_path / "whole")], capsys)[0] == 0
        sizes = []
        real_write = os.write

        def short_write(fd, data):
            sizes.append(len(data))
            return real_write(fd, data[:7])

        monkeypatch.setattr(cli.os, "write", short_write)
        code = _run([*argv, "--out", str(tmp_path / "short")], capsys)[0]
        monkeypatch.undo()
        assert code == 0
        written = [len(p.read_bytes()) for p in sorted(tmp_path.glob("short.*"))]
        assert len(sizes) == sum(-(-n // 7) for n in written) and max(written) > 7
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"short{suffix}").read_bytes()
                    == (tmp_path / f"whole{suffix}").read_bytes())
        metas = [json.loads((tmp_path / f"{name}.meta.json").read_bytes()) for name in ("short", "whole")]
        assert [m.pop("elapsed_seconds") > 0.0 for m in metas] == [True, True]
        assert metas[0] == metas[1]
        assert (tmp_path / "short.csv").read_bytes().endswith(b"\r\n")

    def test_full_selftest_through_main(self, tmp_path, capsys):
        # also the full-suite case of test_summary_names_command_and_parameters,
        # so the 13 criteria run once here
        code, out, err = _run(["selftest", "--out", str(tmp_path / "st")], capsys)
        assert (code, err) == (0, "")
        summary = json.loads(out)
        expected = parse_config("", [("command", "selftest")]).parameters
        assert (summary["command"], summary["parameters"]) == ("selftest", expected)
        assert [r["passed"] for r in summary["results"]] == [True] * 13
        assert summary["all_passed"] is True
        assert (tmp_path / "st.json").read_text(encoding="utf-8") == out
        # each criterion's time goes to the sidecar, keyed by its id
        meta = json.loads((tmp_path / "st.meta.json").read_bytes())
        seconds = meta.pop("criterion_seconds")
        assert sorted(seconds, key=int) == [str(cid) for cid, _, _ in selftest.CRITERIA]
        assert all(t > 0.0 for t in seconds.values())
        assert meta.pop("elapsed_seconds") >= sum(seconds.values())
        assert meta == {"command": "selftest"}

    @pytest.mark.parametrize("fault, details", [
        ("check", "failed: broken_check"), ("raise", "error: boom"),
        ("empty", "0 checks"), ("late_raise", "error: boom"),
    ])
    def test_selftest_failure_exits_1(self, fault, details, monkeypatch, capsys):
        # a false check fails a criterion, as do no check at all and a raise,
        # even one after a passing check
        yielded = {"check": [("kept", True), ("broken_check", False)], "late_raise": [("kept", True)]}

        def criterion():
            yield from yielded.get(fault, ())
            if fault.endswith("raise"):
                raise RuntimeError("boom")

        # criterion 9 is replaced; criterion 11 still runs and passes
        replaced = tuple((cid, text, criterion if cid == 9 else func)
                         for cid, text, func in selftest.CRITERIA)
        monkeypatch.setattr(selftest, "CRITERIA", replaced)
        code, out, err = _run(["selftest", "--criteria", "9,11"], capsys)
        assert code == 1
        summary = json.loads(out)
        assert summary["all_passed"] is False
        first, second = summary["results"]
        assert (first["criterion"], first["passed"], first["details"]) == (9, False, details)
        assert (second["criterion"], second["passed"]) == (11, True)
        errors = err.splitlines()
        assert len(errors) == 1
        assert json.loads(errors[0])["error"] == {
            "type": "SelftestFailure", "message": "one or more criteria failed",
        }

    def test_selftest_reports_a_broken_integrator(self, monkeypatch):
        # a stepped state of trace 2 misses the closed form and fails validate_density
        def doubled(rho0, hamiltonian, duration, sigma=0.0, blocks=(), losses=(), *, step):
            return DensityMatrix(2.0 * rho0.entries)

        monkeypatch.setattr(selftest, "evolve_stepped", doubled)
        (result,) = selftest.run_all({1})
        assert not result.passed
        failed = result.details.removeprefix("failed: ").split(", ")
        invariants = [name for name in failed if "invariants" in name]
        assert invariants == ["dim12_invariants"] * 2 + ["dim64_invariants"] * 2
        assert sum("frobenius" in name for name in failed) == 4

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["ramsey"],
        ["michelson"],
        ["ghz"],
        ["design", "--species", "Sr"],
        ["bounds", "--cosmic", "--single-atom"],
        ["selftest", "--criteria", "4,9"],
    ], ids=lambda argv: argv[0])
    def test_stdout_is_the_document(self, argv, fmt, capsys):
        # nothing is printed ahead of or after the document, so stdout
        # redirected to a file gives a file of the chosen format
        code, out, err = _run([*argv, "--format", fmt], capsys)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["command"] == argv[0]
        else:
            rows = list(csv.reader(io.StringIO(out, newline="")))
            assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}

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

    # extra flags of a case: a coherent field for alpha; an infinite
    # dephasing rate, full decay after any wait and none without one
    SWEEP_FLAGS = {("alpha", "0.5,2,5,40"): ("--field", "coherent"), ("wait", "0,1,0"): ("--omega0", "1e200")}

    # the field flags of each mode: a quantized coherent sweep shares its
    # field across an n sweep and makes a new one per alpha value
    MODES = {"semiclassical": ("--mode", "semiclassical"), "quantized": ("--mode", "quantized"),
             "coherent": ("--mode", "quantized", "--field", "coherent", "--alpha", "2.5")}

    @pytest.mark.parametrize("key, values", [
        ("sigma", "0,1e-31,3e-31,1e-30"), ("detuning", "0,1,1000,123456789"),
        ("wait", "0,0.5,1,0,2.5"), ("wait", "0,1,0"), ("gamma_sp", "0,0.1,0.3,5"),
        ("omega0", "1e10,1e15,3e15,1e200"), ("pulse_area", "0.3,1.2,1.2,3.141592653589793"),
        ("n", "0,1,5,60"), ("alpha", "0.5,2,5,40"), ("phase_points", "2,3,17,32"),
    ])
    @pytest.mark.parametrize("mode", ["semiclassical", "quantized", "coherent"])
    def test_ramsey_sweep_rows_match_runs(self, mode, key, values, capsys):
        # a sweep computes its rows as one batch; each row must be its single run
        base = ["ramsey", *self.MODES[mode], "--partition", "local", "--sigma", "2e-31",
                "--gamma-sp", "0.2", "--phase-points", "17", *self.SWEEP_FLAGS.get((key, values), ())]
        code, out, _ = _run([*base, "--sweep", key, "--sweep-values", values], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == len(values.split(","))
        for row, value in zip(rows, values.split(",")):
            code, out, _ = _run([*base, f"--{key}", value], capsys)
            assert code == 0
            assert row == {key: float(value), "visibility": json.loads(out)["visibility"]}

    @pytest.mark.parametrize("key, values", [
        ("wait", "1,0.5,-1,2"), ("sigma", "0,1e-31,-1,1e-30"), ("phase_points", "2,32,1,8"),
        ("pulse_area", "0.3,1.2,4,3"), ("n", "0,5,-1,2"),
    ])
    @pytest.mark.parametrize("mode", ["semiclassical", "quantized", "coherent"])
    def test_invalid_third_value_fails_as_its_run(self, mode, key, values, capsys):
        # every row still checks its values: the sweep exits 2 with the
        # error of the third value's own run (a coherent field reads no n)
        third = values.split(",")[2]
        single = _run(["ramsey", *self.MODES[mode], f"--{key}", third], capsys)
        swept = _run(["ramsey", *self.MODES[mode], "--sweep", key, "--sweep-values", values], capsys)
        if (mode, key) == ("coherent", "n"):
            assert single[0] == swept[0] == 0
        else:
            assert single[:2] == (2, "")
            assert swept == single

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
        sr = cli.SPECIES["Sr"]
        assert sr.gamma_sp == 1e-3
        assert sr.delta_e == 1.0
        assert sr.kappa == 1e-17
        assert sr.k3 == 1e-41


# numeric ramsey keys each (mode, field) pair leaves unread: the
# semiclassical drive is classical, and each quantized field reads only
# its own parameter
UNREAD = {
    ("semiclassical", "fock"): {"n", "alpha"},
    ("quantized", "fock"): {"alpha"},
    ("quantized", "coherent"): {"n"},
}


class TestRamseyInputs:
    @pytest.mark.parametrize("mode,field", UNREAD, ids=["-".join(k) for k in UNREAD])
    def test_every_read_key_changes_the_fringe(self, mode, field, capsys):
        # from a detuned, lossy, dephased base, every numeric key the mode
        # reads must move the CSV, and no other key may
        base = {"mode": mode, "field": field, "n": "5", "alpha": "2", "partition": "local",
                "sigma": "1e-31", "gamma_sp": "0.3", "detuning": "1000", "wait": "0.8",
                "pulse_area": "1.2", "phase_points": "8"}
        params = parse_config("", [("command", "ramsey"), *base.items()]).parameters

        def csv(**change):
            flags = [f"--{k}={v}" for k, v in {**base, **change}.items()]
            code, out, err = _run(["ramsey", *flags, "--format", "csv"], capsys)
            assert (code, err) == (0, "")
            return out

        reference = csv()
        wrong = []
        for key, spec in cli.SCHEMAS["ramsey"].items():
            if spec.ptype not in ("float", "int"):
                continue
            value = params.get(key)
            if value is None:  # a key with no default can do nothing by default
                wrong.append(key)
                continue
            moved = csv(**{key: value + 1 if isinstance(value, int) else value * 1.1})
            if (moved != reference) != (key not in UNREAD[mode, field]):
                wrong.append(key)
        assert wrong == []

    @pytest.mark.parametrize("detuning,wait", [(1.0, 1.0), (2.0, 1.0), (12345.0, 0.75),
                                               (float(round(1e-3 * cli.OMEGA_PER_EV)), 1.0)])
    def test_semiclassical_fringe_follows_detuning(self, detuning, wait, capsys):
        # p_g(phi) = (1 + V cos(phi - detuning*wait))/2: the maximum of the
        # fringe's e^{i*phi} component sits at detuning*wait mod 2*pi
        argv = ["ramsey", "--mode", "semiclassical", "--detuning", repr(detuning),
                "--wait", repr(wait), "--phase-points", "4", "--partition", "atom",
                "--sigma", "1e-31"]
        code, out, _ = _run(argv + ["--format", "csv"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        peak = -cmath.phase(sum(float(p) * cmath.exp(-1j * float(phi)) for phi, p in rows))
        x = Fraction(detuning) * Fraction(wait)
        expected = float(x - math.floor(x / TWO_PI) * TWO_PI)
        assert abs(cmath.phase(cmath.exp(1j * (peak - expected)))) <= 1e-9

    def test_semiclassical_field_block_rejected(self, capsys):
        # the classical field has no quantum state to dephase
        argv = ["ramsey", "--mode", "semiclassical", "--partition", "field", "--sigma", "1e-31"]
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ValueError"
        assert "unsupported dephasing block ['field']" in error["message"]
        # every partition over the atom alone gives the same fringe
        outs = [_run([*argv[:4], name, *argv[5:], "--format", "csv"], capsys)[:2]
                for name in ("atom", "local", "global")]
        assert outs[0][0] == 0 and outs.count(outs[0]) == 3


def _sanitize(obj):
    """The reference for cli._json_text: what it passed to json.dumps before
    it wrote JSON itself."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "unbounded"
    return obj


class TestJsonText:
    STRINGS = ["", "plain", 'quote " and \\ backslash', "\t\n\r\b\f\x00\x1f\x7f",
               "\u00e9t\u00e9 \u03c3 \u2028\u2029", "\U0001f600 astral", "</script>", "\ud800 lone"]
    FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e308,
              -1.7976931348623157e308, math.inf, -math.inf, 0.1, 1.0 / 3.0, 1e16]

    def _string(self, rng):
        if rng.random() < 0.5:
            return self.STRINGS[rng.integers(len(self.STRINGS))]
        # control characters, ASCII, Latin-1, BMP (with surrogates) and astral code points
        top = [0x20, 0x80, 0x100, 0x10000, 0x110000][rng.integers(5)]
        return "".join(chr(rng.integers(top)) for _ in range(rng.integers(12)))

    def _float(self, rng):
        if rng.random() < 0.4:
            return self.FLOATS[rng.integers(len(self.FLOATS))]
        value = struct.unpack("<d", rng.bytes(8))[0]  # any finite or infinite double
        return 0.5 if math.isnan(value) else value

    def _doc(self, rng, depth=0):
        kind = rng.integers(11 if depth < 4 else 7)
        if kind == 0:
            return self._float(rng)
        if kind == 1:
            return np.float64(self._float(rng))
        if kind == 2:
            return int(rng.integers(-2**62, 2**62)) * [1, 2**70][rng.integers(2)]
        if kind == 3:
            return bool(rng.integers(2))
        if kind == 4:
            return None
        if kind in (5, 6):
            return self._string(rng)
        items = [self._doc(rng, depth + 1) for _ in range(rng.integers(5))]
        if kind == 7:
            return items
        if kind == 8:
            return tuple(items)
        return {self._string(rng): item for item in items}

    def test_matches_json_dumps_of_sanitized_document(self):
        rng = np.random.default_rng(24)
        for _ in range(400):
            doc = self._doc(rng)
            reference = json.dumps(_sanitize(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
            assert cli._json_text(doc) == reference

    @pytest.mark.parametrize("doc", [
        math.nan, np.float64(math.nan), {"a": [1.0, {"b": math.nan}]}, (math.inf, -math.nan),
    ])
    def test_nan_is_a_value_error(self, doc):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_text(doc)

    @pytest.mark.parametrize("doc", [{1: 2.0}, {"a": {None: 1}}, [{"x": 1, 2.5: 3}], {(1,): 1}])
    def test_non_str_key_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)

    @pytest.mark.parametrize("doc", [np.int64(3), {"a": np.bool_(True)}, [1j], {"s": {1}}])
    def test_other_types_are_a_type_error(self, doc):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(doc)


class TestRecordShape:
    """Records that validate nothing are named tuples, whose _asdict() the CLI serializes."""

    @pytest.mark.parametrize("record", [
        MichelsonResult, GhzResult, DesignRates, DesignResult, MatterWaveBound, DistanceReach,
        cli.ParamSpec, cli.RunConfig, cli.ExperimentOutput, selftest.CriterionResult,
    ], ids=lambda record: record.__name__)
    def test_result_is_a_named_tuple(self, record):
        assert issubclass(record, tuple) and record._fields

    def test_design_rates_are_a_json_object(self, tmp_path, capsys):
        # _asdict() leaves the nested DesignRates a tuple, which JSON would write as a list
        code, _, _ = _run(["design", "--species", "Sr", "--out", str(tmp_path / "d")], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        for method in ("closed_form", "grid"):
            rates = doc[method]["rates"]
            assert isinstance(rates, dict) and sorted(rates) == ["gravitational", "spontaneous", "three_body"]
