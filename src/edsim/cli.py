r"""Command-line front end: config parsing, dispatch, sweeps and file output.

    edsim <command> [--key value | --key=value ...]

The command comes first: ramsey, michelson, ghz, design, bounds or
selftest. Every later token is a `--key value` or `--key=value` flag; a
boolean key given without a value means true. Parameters come from an
optional flat `key = value` config file (--config PATH) plus the flags
(flags win); every key must be recognized for the chosen command. The
front-end keys are --config, --out, --format, --sweep and --sweep-values;
all but --config may also come from the config file. parse_config turns
the merged keys into one RunConfig, and run executes it: one run, or one
run per sweep value with a row each. A Ramsey sweep builds its field
and partition once, unless the swept key changes them; a quantized one
runs its rows as one batch (iter_ramsey_batch, one dephasing strength D
per batch), with the bytes of one run per row and about one run's
memory, and either mode reads only each row's FringeResult.visibility.
`-h` or `--help` anywhere prints the usage,
built from SCHEMAS, and exits 0. Units are fixed per key and listed in
the schema help strings: seconds, rad/s, eV, kg, m, m^3/s, m^6/s.
Numeric values accept scientific notation and never carry unit suffixes.

Each command prints one document: its JSON summary or its CSV rows.
--out BASE also writes BASE.csv (per-point rows), BASE.json (summary)
and BASE.meta.json (command, elapsed time and the handler's
ExperimentOutput.meta); a BASE whose last part is "", "." or ".." is
refused. Each file is written as UTF-8 bytes through a binary
descriptor, so CSV rows end in \r\n on every platform (text mode would
write \r\r\n on Windows). Every JSON summary carries the command and its
parameters. The data files are deterministic: no timestamps, floats with
17 significant digits in CSV, canonical sorted JSON, and infinities
serialized as the string "unbounded". Any failure exits 2 with one JSON
error line on stderr; numpy overflow, division by zero and invalid
operations count as failures.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str  # json.dumps' C encoder
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .constants import NA_MASS, OMEGA_PER_EV, PLANCK_TIME, YEAR_SECONDS
from .interferometry import (
    EXPERIMENTS,
    CoherentField,
    DecoherencePartition,
    FockField,
    GhzConfig,
    MichelsonConfig,
    RamseyConfig,
    iter_ramsey_batch,
    run_ghz,
    run_michelson,
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


class ParamSpec(NamedTuple):
    ptype: str                      # float | int | str | bool
    default: object = None          # None means "absent unless provided"
    choices: tuple[str, ...] = ()
    help: str = ""


class RunConfig(NamedTuple):
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

_PARTITIONS = ("global", "local", *EXPERIMENTS["ramsey_quantized"][0], "none")


def _distance(params: dict) -> dict:
    if params.get("gamma") is None:
        raise ConfigError("missing required key for --distance: gamma")
    return distance_reach(params["gamma"], params["gamma_sp"], params["coherence_time"])._asdict()


# flag -> (help, {quantity: value} of the parameters), in output order; each
# calculator is looked up by module name at call time, where tracers patch it
_BOUNDS: dict[str, tuple[str, Callable[[dict], dict]]] = {
    "single_atom": ("compute the single-atom reach",
                    lambda p: {"sigma_reach": single_atom_reach(p["gamma_detectable"], p["delta_e"])}),
    "matterwave": ("compute the matter-wave bound", lambda p: matterwave_bound(
        p["mass"], p["velocity"], p["path_separation"], p["sigma"], p["flight_path"])._asdict()),
    "distance": ("compute the distance reach", _distance),
    "cosmic": ("compute the cosmic-age bound",
               lambda p: {"delta_e_ev": cosmic_bound(p["sigma"], p["age_years"] * YEAR_SECONDS)}),
}

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
        **{flag: ParamSpec("bool", False, help=text) for flag, (text, _) in _BOUNDS.items()},
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


class ExperimentOutput(NamedTuple):
    points: list
    summary: dict                   # run adds command and parameters
    headline: dict                  # the row a sweep records for this run
    meta: Mapping = MappingProxyType({})  # the run's own figures for BASE.meta.json
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
    if out is not None and os.path.basename(out) in ("", ".", ".."):  # no base, or a directory
        raise ConfigError(f"key 'out' needs a file base, got {out!r}")
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
    """One CSV field; a string that holds a comma, a quote or a line break
    is quoted, its quotes doubled (RFC 4180)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "unbounded"
        return f"{value:.17g}"
    if isinstance(value, str) and ("," in value or '"' in value or "\r" in value or "\n" in value):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _csv_text(rows: list) -> str:
    if not rows:
        return "\r\n"
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[col]) for col in columns))
    return "\r\n".join(lines) + "\r\n"


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) with each
    infinity written as "unbounded", in one pass (indent keeps json on its
    slower pure-Python encoder); pad is the newline and indent of obj's line.
    A non-str key is a TypeError from _encode_str."""
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return '"unbounded"' if math.isinf(obj) else float.__repr__(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        parts = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + pad + "]" if parts else "[]"
    if isinstance(obj, dict):
        parts = [_encode_str(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(parts) + pad + "}" if parts else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    return _json(obj) + "\n"


def _partition(params: dict, family: str) -> DecoherencePartition:
    # ghz has no --partition: one block over its labels
    sigma, name, labels = params["sigma"], params.get("partition", "global"), EXPERIMENTS[family][0]
    if name == "global":
        return DecoherencePartition.global_over(sigma, *labels)
    if name == "local":
        return DecoherencePartition.local_over(sigma, *labels)
    return DecoherencePartition(sigma, () if name == "none" else (frozenset({name}),))


def _ramsey_config(params: dict, field=None, decoherence=None) -> RamseyConfig:
    """The run's RamseyConfig; a field or partition given is used as is."""
    if field is None:
        field = FockField(params["n"]) if params["field"] == "fock" else CoherentField(params["alpha"])
    if decoherence is None:  # a {field} block is refused by the semiclassical runner
        decoherence = _partition(params, f"ramsey_{params['mode']}")
    return RamseyConfig(
        omega0=params["omega0"],
        wait=params["wait"],
        decoherence=decoherence,
        field=field,
        pulse_area=params["pulse_area"],
        detuning=params["detuning"],
        phase_points=params["phase_points"],
        spontaneous_rate=params["gamma_sp"],
    )


def _handle_ramsey(params: dict) -> ExperimentOutput:
    runner = run_ramsey_semiclassical if params["mode"] == "semiclassical" else run_ramsey_quantized
    cfg = _ramsey_config(params)
    result = runner(cfg)
    points = [{"phi": phi, "p_g": p} for phi, p in zip(cfg.phases.tolist(), result.p_g.tolist())]
    headline = {"visibility": result.visibility}
    return ExperimentOutput(points, headline, headline)


def _sweep_ramsey(key: str, rows: list[dict]) -> list[dict]:
    """Each row's visibility. A numeric sweep keeps the mode, field kind and
    partition, so only the swept key can call for a new field or partition."""
    first = _ramsey_config(rows[0])
    field = None if key == ("n" if rows[0]["field"] == "fock" else "alpha") else first.field
    decoherence = None if key == "sigma" else first.decoherence
    cfgs = [first, *(_ramsey_config(p, field, decoherence) for p in rows[1:])]
    quantized = rows[0]["mode"] == "quantized"
    results = iter_ramsey_batch(cfgs) if quantized else map(run_ramsey_semiclassical, cfgs)
    return [{"visibility": result.visibility} for result in results]


def _handle_michelson(params: dict) -> ExperimentOutput:
    cfg = MichelsonConfig(
        alpha=params["alpha"],
        arm_time=params["arm_time"],
        mode_frequency=params["omega"],
        decoherence=_partition(params, "michelson"),
    )
    headline = run_michelson(cfg)._asdict()
    points = [{"output_mode": m, "mean_photons": headline[f"mean_photons_out_{m}"]} for m in "ab"]
    return ExperimentOutput(points, headline, headline)


def _handle_ghz(params: dict) -> ExperimentOutput:
    cfg = GhzConfig(
        n_atoms=params["n_atoms"],
        omega0=params["omega0"],
        wait=params["wait"],
        decoherence=_partition(params, "ghz"),
        gamma_sp=params["gamma_sp"],
        three_body_rate=params["three_body_rate"],
    )
    headline = run_ghz(cfg)._asdict()
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
        method: {**r._asdict(), "rates": r.rates._asdict(), "creation_constraint_ok": r.creation_constraint_ok}
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
    summary = {name: bound(params) for name, (_, bound) in _BOUNDS.items() if params.get(name)}
    if not summary:
        flags = " ".join(f"--{name.replace('_', '-')}" for name in _BOUNDS)
        raise ConfigError(f"no bound selected; pass at least one of {flags}")
    points = [{"bound": b, "quantity": q, "value": v} for b, values in summary.items() for q, v in values.items()]
    return ExperimentOutput(points, summary, {f"{p['bound']}_{p['quantity']}": p["value"] for p in points})


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
    points = [
        {"criterion": r.cid, "description": r.description, "passed": r.passed, "details": r.details}
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    headline = {"all_passed": all_passed}
    meta = {"criterion_seconds": {str(r.cid): r.elapsed for r in results}}
    return ExperimentOutput(points, {"results": points, **headline}, headline, meta, not all_passed)


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
    if cfg.sweep_key is None:
        output = handler(cfg.parameters)
    else:
        key = cfg.sweep_key
        params = [{**cfg.parameters, key: v} for v in cfg.sweep_values]
        if cfg.command == "ramsey":  # quantized rows run as one batch
            headlines = _sweep_ramsey(key, params)
        else:
            headlines = [handler(p).headline for p in params]
        rows = [{key: v, **headline} for v, headline in zip(cfg.sweep_values, headlines)]
        output = ExperimentOutput(rows, {"sweep_key": key, "rows": rows}, {}, {"sweep_key": key})
    summary = {"command": cfg.command, "parameters": cfg.parameters, **output.summary}
    meta = {"command": cfg.command, **output.meta, "elapsed_seconds": time.perf_counter() - start}
    # serialize everything first; once a file is opened (so truncated), a
    # failed write removes the whole BASE.* set, leaving no file of this run
    # or an earlier one; without --out only the printed text is built
    printed = ".csv" if cfg.output_format == "csv" else ".json"
    serializers = {".csv": lambda: _csv_text(output.points), ".json": lambda: _json_text(summary),
                   ".meta.json": lambda: _json_text(meta)}
    texts = {suffix: text() for suffix, text in serializers.items() if cfg.output_path or suffix == printed}
    if cfg.output_path:
        base = Path(cfg.output_path)
        base.parent.mkdir(parents=True, exist_ok=True)
        blobs = {f"{base}{suffix}": text.encode() for suffix, text in texts.items()}
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
        opened = False
        try:
            for path, data in blobs.items():
                fd = os.open(path, flags, 0o666)
                opened = True
                try:
                    while data:
                        data = data[os.write(fd, data):]
                finally:
                    os.close(fd)
        except OSError:
            for path in blobs if opened else ():
                with contextlib.suppress(OSError):  # missing, or not removable
                    os.unlink(path)
            raise
    print(texts[printed], end="")
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
