"""Command-line front end: config parsing, dispatch, sweeps and file output.

    edsim <command> [--key value | --key=value ...]

The command comes first: ramsey, michelson, ghz, design, bounds or
selftest. Every later token is a `--key value` or `--key=value` flag; a
boolean key given without a value means true. Parameters come from an
optional flat `key = value` config file (--config PATH) plus the flags
(flags win); every key must be recognized for the chosen command. The
front-end keys are --config, --out, --format, --sweep and --sweep-values;
all but --config may also come from the config file. parse_config turns
the merged keys into one RunConfig, and run executes it: one run, or one
run per sweep value with a row each. A quantized Ramsey sweep computes
its rows as one batch (interferometry.run_ramsey_batch), with the bytes
of one run per row and about one run's memory; a semiclassical sweep
runs row by row. `-h` or `--help` anywhere prints the
usage, built from SCHEMAS, and exits 0. Units are fixed per key and
listed in the schema help strings: seconds, rad/s, eV, kg, m, m^3/s,
m^6/s. Numeric values accept scientific notation and never carry unit
suffixes.

When --out BASE is given, BASE.csv (per-point rows) and BASE.json
(summary) are always written, plus BASE.meta.json with run metadata.
Every JSON summary carries the command and its parameters. The data
files are deterministic: no timestamps, floats with 17 significant
digits in CSV, canonical sorted JSON, and infinities serialized as the
string "unbounded". Any failure exits 2 with one JSON error line on
stderr; numpy overflow, division by zero and invalid operations count
as failures.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .constants import NA_MASS, OMEGA_PER_EV, PLANCK_TIME, YEAR_SECONDS
from .interferometry import (
    CoherentField,
    DecoherencePartition,
    FockField,
    GhzConfig,
    MichelsonConfig,
    RamseyConfig,
    run_ghz,
    run_michelson,
    run_ramsey_batch,
    run_ramsey_quantized,
    run_ramsey_semiclassical,
)
from .sensitivity import (
    SpeciesParams,
    cosmic_bound,
    default_design_grids,
    distance_reach,
    ghz_design,
    ghz_design_grid,
    matterwave_bound,
    single_atom_reach,
)

__all__ = ["ConfigError", "RunConfig", "SPECIES", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Configuration problem: unknown key, malformed value or missing input."""


@dataclass(frozen=True)
class ParamSpec:
    ptype: str                      # float | int | str | bool
    default: object = None          # None means "absent unless provided"
    choices: tuple[str, ...] = ()
    help: str = ""


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    output_path: str | None
    output_format: str
    sweep_key: str | None = None    # run once per sweep value, one output row each
    sweep_values: tuple = ()


# order-of-magnitude working values for the strontium clock transition;
# supply measured numbers via explicit keys for quantitative work
SPECIES: dict[str, SpeciesParams] = {
    "Sr": SpeciesParams(gamma_sp=1e-3, delta_e=1.0, kappa=1e-17, k3=1e-41),
}

_PARTITIONS = ("global", "local", "atom", "field", "none")

SCHEMAS: dict[str, dict[str, ParamSpec]] = {
    "ramsey": {
        "mode": ParamSpec("str", "semiclassical", ("semiclassical", "quantized")),
        "field": ParamSpec("str", "fock", ("fock", "coherent")),
        "n": ParamSpec("int", 12, help="Fock photon number"),
        "alpha": ParamSpec("float", 5.0, help="coherent amplitude"),
        "pulse_area": ParamSpec("float", math.pi / 2.0, help="rotation angle per pulse, rad"),
        "detuning": ParamSpec("float", 0.0, help="atomic minus field frequency, rad/s"),
        "omega0": ParamSpec("float", OMEGA_PER_EV, help="atomic gap, rad/s"),
        "wait": ParamSpec("float", 1.0, help="free-evolution time, s"),
        "sigma": ParamSpec("float", 0.0, help="dephasing strength, s"),
        "partition": ParamSpec("str", "global", _PARTITIONS),
        "gamma_sp": ParamSpec("float", 0.0, help="spontaneous rate, 1/s"),
        "phase_points": ParamSpec("int", 32, help="fringe scan resolution"),
    },
    "michelson": {
        "alpha": ParamSpec("float", 2.0, help="input coherent amplitude"),
        "arm_time": ParamSpec("float", 1.0, help="per-arm propagation time, s"),
        "omega": ParamSpec("float", OMEGA_PER_EV, help="mode frequency, rad/s"),
        "sigma": ParamSpec("float", 0.0, help="dephasing strength, s"),
        "partition": ParamSpec("str", "global", ("global", "local", "none")),
    },
    "ghz": {
        "n_atoms": ParamSpec("int", 10),
        "omega0": ParamSpec("float", OMEGA_PER_EV, help="single-atom gap, rad/s"),
        "sigma": ParamSpec("float", 0.0, help="dephasing strength, s"),
        "gamma_sp": ParamSpec("float", 0.0, help="per-atom loss rate, 1/s"),
        "three_body_rate": ParamSpec("float", 0.0, help="k3*N^3/V^2 event rate, 1/s"),
        "wait": ParamSpec("float", 1.0, help="holding time, s"),
    },
    "design": {
        "species": ParamSpec("str", help="built-in species name (Sr)"),
        "gamma_sp": ParamSpec("float", help="spontaneous rate, 1/s"),
        "kappa": ParamSpec("float", help="collisional coefficient, m^3/s"),
        "k3": ParamSpec("float", help="three-body coefficient, m^6/s"),
        "delta_e": ParamSpec("float", 1.0, help="level splitting, eV"),
        "grid_decades": ParamSpec("float", 6.0, help="grid span for the oracle"),
        "grid_points_per_decade": ParamSpec("int", 50),
    },
    "bounds": {
        "single_atom": ParamSpec("bool", False, help="compute the single-atom reach"),
        "matterwave": ParamSpec("bool", False, help="compute the matter-wave bound"),
        "distance": ParamSpec("bool", False, help="compute the distance reach"),
        "cosmic": ParamSpec("bool", False, help="compute the cosmic-age bound"),
        "sigma": ParamSpec("float", PLANCK_TIME, help="dephasing strength, s"),
        "age_years": ParamSpec("float", 1e10, help="age for the cosmic bound, yr"),
        "mass": ParamSpec("float", NA_MASS, help="particle mass, kg (Na default)"),
        "velocity": ParamSpec("float", 3000.0, help="beam velocity, m/s"),
        "path_separation": ParamSpec("float", 20e-6, help="probed locality scale, m"),
        "flight_path": ParamSpec("float", 1.0, help="flight distance through the instrument, m"),
        "gamma_detectable": ParamSpec("float", 1e-3, help="resolvable rate, 1/s"),
        "delta_e": ParamSpec("float", 1.0, help="level splitting, eV"),
        "gamma": ParamSpec("float", help="dephasing rate for the distance reach, 1/s"),
        "gamma_sp": ParamSpec("float", 1e-3, help="spontaneous rate, 1/s"),
        "coherence_time": ParamSpec("float", 1.0, help="reference-laser coherence time, s"),
    },
    "selftest": {
        "criteria": ParamSpec("str", help="comma-separated criterion ids; omit for all"),
    },
}


@dataclass(frozen=True)
class ExperimentOutput:
    points: list
    summary: dict                   # run adds command and parameters
    headline: dict                  # the row a sweep records for this run
    lines: tuple[str, ...] = ()
    failed: bool = False


def _parse_value(key: str, spec: ParamSpec, raw: str):
    raw = raw.strip()
    if spec.ptype == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"malformed number for key {key!r}: {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"non-finite number for key {key!r}: {raw!r}")
        return value
    if spec.ptype == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"malformed integer for key {key!r}: {raw!r}") from None
    if spec.ptype == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"malformed boolean for key {key!r}: {raw!r}")
    if spec.choices and raw not in spec.choices:
        raise ConfigError(f"key {key!r} must be one of {list(spec.choices)}, got {raw!r}")
    return raw


def _file_pairs(file_contents: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(file_contents.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        pairs.append((key.strip().replace("-", "_"), value.strip()))
    return pairs


def parse_config(file_contents: str, overrides: Sequence[tuple[str, str]]) -> RunConfig:
    """Merge file entries and overrides (overrides win) into a typed RunConfig."""
    merged = dict(_file_pairs(file_contents) + [(k.replace("-", "_"), v) for k, v in overrides])

    command = merged.pop("command", None)
    if command is None:
        raise ConfigError("missing required key: command")
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; choose from {sorted(SCHEMAS)}")
    out = merged.pop("out", None)
    fmt = merged.pop("format", "json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    sweep_key = merged.pop("sweep", None)
    raw_values = merged.pop("sweep_values", None)

    schema = SCHEMAS[command]
    params: dict = {}
    for key, value in merged.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        params[key] = _parse_value(key, schema[key], value)
    for key, spec in schema.items():
        if key not in params and spec.default is not None:
            params[key] = spec.default

    sweep_values: tuple = ()
    if sweep_key is not None or raw_values is not None:
        if not sweep_key or raw_values is None:
            raise ConfigError("sweeps need both --sweep KEY and --sweep-values V1,V2,...")
        sweep_key = sweep_key.replace("-", "_")
        raw = [v for v in raw_values.split(",") if v.strip()]
        if not raw:
            raise ConfigError("sweep values must be non-empty")
        if sweep_key not in schema:
            raise ConfigError(f"unknown sweep key {sweep_key!r} for command {command!r}")
        spec = schema[sweep_key]
        if spec.ptype not in ("float", "int"):
            raise ConfigError(f"sweep target {sweep_key!r} is not numeric")
        sweep_values = tuple(_parse_value(sweep_key, spec, v) for v in raw)
    return RunConfig(command, params, out, fmt, sweep_key, sweep_values)


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "unbounded"
        return f"{value:.17g}"
    return str(value)


def _csv_text(rows: list) -> str:
    if not rows:
        return "\r\n"
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[col]) for col in columns))
    return "\r\n".join(lines) + "\r\n"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "unbounded"
    return obj


def _json_text(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _partition(sigma: float, name: str, labels: tuple[str, ...]) -> DecoherencePartition:
    if name == "none":
        return DecoherencePartition(sigma, ())
    if name == "global":
        return DecoherencePartition.global_over(sigma, *labels)
    if name == "local":
        return DecoherencePartition.local_over(sigma, *labels)
    return DecoherencePartition(sigma, (frozenset({name}),))


def _ramsey_config(params: dict) -> RamseyConfig:
    if params["field"] == "fock":
        field_state = FockField(params["n"])
    else:
        field_state = CoherentField(params["alpha"])
    # the classical field is not part of the semiclassical state: the atom
    # is the whole system, and a {field} block is rejected by the runner
    labels = ("atom",) if params["mode"] == "semiclassical" else ("atom", "field")
    return RamseyConfig(
        omega0=params["omega0"],
        wait=params["wait"],
        decoherence=_partition(params["sigma"], params["partition"], labels),
        field=field_state,
        pulse_area=params["pulse_area"],
        detuning=params["detuning"],
        phase_points=params["phase_points"],
        spontaneous_rate=params["gamma_sp"],
    )


def _handle_ramsey(params: dict) -> ExperimentOutput:
    runner = run_ramsey_semiclassical if params["mode"] == "semiclassical" else run_ramsey_quantized
    result = runner(_ramsey_config(params))
    points = [{"phi": phi, "p_g": p} for phi, p in result.points]
    headline = {"visibility": result.visibility}
    return ExperimentOutput(points, headline, headline)


def _sweep_ramsey(rows: list[dict]) -> list[dict]:
    cfgs = [_ramsey_config(p) for p in rows]
    # sweeps are numeric, so every row has the same mode
    quantized = rows[0]["mode"] == "quantized"
    results = run_ramsey_batch(cfgs) if quantized else map(run_ramsey_semiclassical, cfgs)
    return [{"visibility": r.visibility} for r in results]


def _handle_michelson(params: dict) -> ExperimentOutput:
    cfg = MichelsonConfig(
        alpha=params["alpha"],
        arm_time=params["arm_time"],
        mode_frequency=params["omega"],
        decoherence=_partition(params["sigma"], params["partition"], ("arm_c", "arm_d")),
    )
    headline = asdict(run_michelson(cfg))
    points = [{"output_mode": m, "mean_photons": headline[f"mean_photons_out_{m}"]} for m in "ab"]
    return ExperimentOutput(points, headline, headline)


def _handle_ghz(params: dict) -> ExperimentOutput:
    cfg = GhzConfig(
        n_atoms=params["n_atoms"],
        omega0=params["omega0"],
        sigma=params["sigma"],
        wait=params["wait"],
        gamma_sp=params["gamma_sp"],
        three_body_rate=params["three_body_rate"],
    )
    headline = asdict(run_ghz(cfg))
    return ExperimentOutput([{"wait": cfg.wait, **headline}], headline, headline)


def _species_from_params(params: dict) -> SpeciesParams:
    name = params.get("species")
    if name:
        matches = [p for key, p in SPECIES.items() if key.lower() == name.lower()]
        if not matches:
            raise ConfigError(f"unknown species {name!r}; built-in: {sorted(SPECIES)}")
        species = matches[0]
        for key in ("gamma_sp", "kappa", "k3", "delta_e"):
            if params.get(key, getattr(species, key)) != getattr(species, key):
                raise ConfigError(f"key {key!r} conflicts with species {name!r}; give one or the other")
        return species
    missing = [k for k in ("gamma_sp", "kappa", "k3") if params.get(k) is None]
    if missing:
        raise ConfigError(f"missing required key(s) for design: {', '.join(missing)}")
    return SpeciesParams(
        gamma_sp=params["gamma_sp"], delta_e=params["delta_e"], kappa=params["kappa"], k3=params["k3"]
    )


def _handle_design(params: dict) -> ExperimentOutput:
    species = _species_from_params(params)
    closed = ghz_design(species)
    n_grid, v_grid = default_design_grids(
        species, decades=params["grid_decades"], points_per_decade=params["grid_points_per_decade"]
    )
    grid = ghz_design_grid(species, n_grid, v_grid)
    summary: dict = {
        method: {**asdict(r), "creation_constraint_ok": r.creation_constraint_ok}
        for method, r in (("closed_form", closed), ("grid", grid))
    }
    points = [
        {"method": method, **{k: v for k, v in d.items() if k != "rates"}} for method, d in summary.items()
    ]
    summary["relative_difference"] = {
        k: abs(getattr(closed, k) / getattr(grid, k) - 1.0) for k in ("gamma_min", "n_opt", "v_opt")
    }
    headline = {"gamma_min_closed": closed.gamma_min, "gamma_min_grid": grid.gamma_min}
    return ExperimentOutput(points, summary, headline)


def _handle_bounds(params: dict) -> ExperimentOutput:
    selected = [k for k in ("single_atom", "matterwave", "distance", "cosmic") if params.get(k)]
    if not selected:
        raise ConfigError(
            "no bound selected; pass at least one of --single-atom --matterwave --distance --cosmic"
        )
    summary: dict = {}
    points = []
    headline: dict = {}

    def emit(bound: str, values: dict) -> None:
        summary[bound] = values
        for quantity, value in values.items():
            points.append({"bound": bound, "quantity": quantity, "value": value})
            headline[f"{bound}_{quantity}"] = value

    if "single_atom" in selected:
        sigma = single_atom_reach(params["gamma_detectable"], params["delta_e"])
        emit("single_atom", {"sigma_reach": sigma})
    if "matterwave" in selected:
        mw = matterwave_bound(
            params["mass"], params["velocity"], params["path_separation"],
            params["sigma"], params["flight_path"],
        )
        emit("matterwave", asdict(mw))
    if "distance" in selected:
        if params.get("gamma") is None:
            raise ConfigError("missing required key for --distance: gamma")
        reach = distance_reach(params["gamma"], params["gamma_sp"], params["coherence_time"])
        emit("distance", asdict(reach))
    if "cosmic" in selected:
        de = cosmic_bound(params["sigma"], params["age_years"] * YEAR_SECONDS)
        emit("cosmic", {"delta_e_ev": de})
    return ExperimentOutput(points, summary, headline)


def _handle_selftest(params: dict) -> ExperimentOutput:
    from . import selftest

    ids = None
    if params.get("criteria") is not None:
        try:
            ids = {int(part) for part in params["criteria"].split(",") if part.strip()}
        except ValueError:
            raise ConfigError(f"malformed criteria list: {params['criteria']!r}") from None
        known = sorted(cid for cid, _, _ in selftest.CRITERIA)
        if not ids:
            raise ConfigError(f"empty criteria list {params['criteria']!r}; known ids: {known}")
        if not ids <= set(known):
            raise ConfigError(f"unknown criteria ids {sorted(ids - set(known))}; known ids: {known}")
    results = selftest.run_all(ids)
    lines = tuple(
        f"{'PASS' if r.passed else 'FAIL'} {r.cid:>2}  {r.description}  "
        f"[{r.details}] ({r.elapsed:.2f}s)"
        for r in results
    )
    points = [
        {"criterion": r.cid, "description": r.description, "passed": r.passed, "details": r.details}
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    headline = {"all_passed": all_passed}
    return ExperimentOutput(points, {"results": points, **headline}, headline, lines, not all_passed)


_HANDLERS: dict[str, Callable[[dict], ExperimentOutput]] = {
    "ramsey": _handle_ramsey,
    "michelson": _handle_michelson,
    "ghz": _handle_ghz,
    "design": _handle_design,
    "bounds": _handle_bounds,
    "selftest": _handle_selftest,
}


def run(cfg: RunConfig) -> int:
    """Execute one command, or one run per sweep value, and emit its outputs.
    Returns the exit status."""
    start = time.perf_counter()
    handler = _HANDLERS[cfg.command]
    meta = {"command": cfg.command}
    if cfg.sweep_key is None:
        output = handler(cfg.parameters)
    else:
        key = cfg.sweep_key
        meta["sweep_key"] = key
        params = [{**cfg.parameters, key: v} for v in cfg.sweep_values]
        if cfg.command == "ramsey":  # quantized rows run as one batch
            headlines = _sweep_ramsey(params)
        else:
            headlines = [handler(p).headline for p in params]
        rows = [{key: v, **headline} for v, headline in zip(cfg.sweep_values, headlines)]
        output = ExperimentOutput(rows, {"sweep_key": key, "rows": rows}, {})
    summary = {"command": cfg.command, "parameters": dict(sorted(cfg.parameters.items())), **output.summary}
    meta["elapsed_seconds"] = time.perf_counter() - start
    # serialize everything first and remove this call's files if a write
    # fails, so a failure leaves no partial BASE.* files
    texts = {
        ".csv": _csv_text(output.points),
        ".json": _json_text(summary),
        ".meta.json": json.dumps(meta, indent=2) + "\n",
    }
    for line in output.lines:
        print(line)
    if cfg.output_path:
        base = Path(cfg.output_path)
        base.parent.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        try:
            for suffix, text in texts.items():
                path = Path(str(base) + suffix)
                with path.open("w", encoding="utf-8") as fh:
                    written.append(path)
                    fh.write(text)
        except OSError:
            for path in written:
                path.unlink(missing_ok=True)
            raise
    print(texts[".csv" if cfg.output_format == "csv" else ".json"], end="")
    if output.failed:
        _print_error("SelftestFailure", "one or more criteria failed")
        return 1
    return 0


def _extra_pairs(tokens: list[str], command: str) -> list[tuple[str, str]]:
    """Turn `--key value`, `--key=value` and bare boolean `--key` tokens into pairs."""
    schema = SCHEMAS[command]
    pairs = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        key, eq, value = token[2:].partition("=")
        key = key.replace("-", "_")
        spec = schema.get(key)
        has_value = i + 1 < len(tokens) and not tokens[i + 1].startswith("--")
        if eq:
            pairs.append((key, value))
            i += 1
        elif spec is not None and spec.ptype == "bool" and not has_value:
            pairs.append((key, "true"))
            i += 1
        elif has_value:
            pairs.append((key, tokens[i + 1]))
            i += 2
        else:
            raise ConfigError(f"flag --{key} needs a value")
    return pairs


def _usage() -> str:
    lines = [
        "usage: edsim <command> [--key value | --key=value ...] [--config PATH]",
        "             [--out BASE] [--format csv|json] [--sweep KEY --sweep-values V1,V2,...]",
    ]
    for command, schema in SCHEMAS.items():
        lines += ["", f"{command}:"]
        for key, spec in schema.items():
            flag = f"--{key.replace('_', '-')} {'|'.join(spec.choices) or spec.ptype}"
            default = "" if spec.default is None else f"(default {_fmt_cell(spec.default)})"
            note = " ".join(part for part in (spec.help, default) if part)
            lines.append(f"  {flag:<28} {note}".rstrip())
    return "\n".join(lines) + "\n"


def _print_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    if "-h" in tokens or "--help" in tokens:
        print(_usage(), end="")
        return 0
    try:
        command = tokens[0] if tokens else None
        if command not in SCHEMAS:
            raise ConfigError(f"expected a command first, one of {sorted(SCHEMAS)}; got {command!r}")
        pairs = _extra_pairs(tokens[1:], command)
        config_path = dict(pairs).get("config")
        file_contents = Path(config_path).read_text(encoding="utf-8") if config_path else ""
        overrides = [("command", command), *((k, v) for k, v in pairs if k != "config")]
        cfg = parse_config(file_contents, overrides)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return run(cfg)
    except Exception as exc:  # any failure is one JSON line on stderr and exit 2
        _print_error(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
